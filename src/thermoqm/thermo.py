"""Pressure, partition functions, periodic-orbit Gibbs measures, diagnostics.

Partition sums run over periodic words of length exactly n.  For window-
additive quasimorphisms of width Q the sums are evaluated exactly on the
depth-(Q-1) block graph of the subshift, which reaches depths far beyond
enumeration: the wrap condition only sees the first symbol of a word, so d
boundary vectors are pushed through the graph, O(n S d^2) work for S block
states.  Plain enumeration stays available as the generic path and as a
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimit
from .measures import CylinderMeasure
from .sft import kernel_sums, window_codes

_GIBBS_CELLS = 1 << 15  # word positions per chunk of the Gibbs orbit masses
_SPLIT_CELLS = 1 << 14  # (n, m) pairs per row block of the split constant, 128 KB a temporary


# -- partition functions -------------------------------------------------------


def _logsumexp(a):
    """log sum exp(a) of a real 1-D array, bit for bit scipy.special.logsumexp: the m
    max terms split off, log1p(s/m) + log(m) + max (Blanchard, Higham & Higham 2021)."""
    a = np.asarray(a, dtype=float)
    if not len(a):
        return -np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max()
        ties = a == top
        m = float(ties.sum())
        s = np.exp(np.where(ties, -np.inf, a) - top).sum()
        out = np.log1p(s / m if s else s) + np.log(m) + top
        return float(out if np.isfinite(out) else np.log(np.exp(a).sum()))


def _enumerated_log_partition(L, sft, n):
    return _logsumexp(L.values(sft.word_array(n, periodic=True), sft.d))


class _WindowTransfer:
    """Exact evaluator of Z_n = sum over wrapping words of e^{L} for window kernels.

    A word of length n >= t is a start state f (its first t symbols) followed
    by n - t edges of the depth-t block graph, t = max(Q-1, 1).  Each edge
    carries the windows that end at its new symbol; ``init`` carries the
    windows inside f.  The word wraps when R[last(c), first(f)] = 1 for its
    end state c, so only first(f) is needed from the start: V[:, b] holds the
    weight of all paths from start states beginning with b, and Z_n is the
    sum over c, b of R[last(c), b] V[c, b].  Width-1 windows never straddle
    the wrap, so for Q = 1 the wrap is one more edge and Z_n = trace(T^n).
    """

    def __init__(self, kernels, sft):
        self.sft = sft
        self.kernels = kernels
        self.Q = max(kernels)
        d = sft.d
        t = max(self.Q - 1, 1)
        g = sft.block_graph(t)
        S = len(g)
        w = kernel_sums(kernels, g.ext, t + 1, d, lambda q: [t + 1 - q])
        self.weights, self.sources = g.incoming(np.exp(w))
        if self.Q == 1:
            self.base, self.init, self.close = 0, np.ones(S), np.eye(S)
        else:
            w = kernel_sums(kernels, g.codes, t, d, lambda q: range(t - q + 1))
            self.base, self.init = t, np.exp(w)
            self.close = sft.R[g.states.suffix(1)].astype(float)
        self.V0 = np.zeros((S, d))
        self.V0[np.arange(S), g.states.prefix(1)] = self.init

    def log_partitions(self, n_max):
        """P_n = log Z_n for n = 1..n_max, with running rescaling."""
        out = np.full(n_max + 1, -np.inf)
        for n in range(1, min(self.Q, n_max + 1)):
            # shorter than the widest window: tiny enumerations
            out[n] = _short_word_log_partition(self.kernels, self.sft, n)
        V = self.V0
        logscale = 0.0
        for n in range(self.base, n_max + 1):
            if n >= self.Q:
                z = float((self.close * V).sum())
                if z > 0:
                    out[n] = np.log(z) + logscale
            if n < n_max:
                V = (self.weights[:, :, None] * V[self.sources]).sum(axis=1)
                m = V.max()
                V /= m
                logscale += np.log(m)
        return out[1:]


def _short_word_log_partition(kernels, sft, n):
    arr = sft.word_array(n, periodic=True)
    vals = np.zeros(len(arr))
    for q, table in kernels.items():
        for i in range(n - q + 1):
            vals += table[window_codes(arr, i, q, sft.d)]
    return _logsumexp(vals)


def _method_kernels(L, sft, method):
    """The window kernels a partition sum runs on by `method`, None to enumerate."""
    if method not in ("auto", "transfer", "enumerate"):
        raise ValueError(f"method must be 'auto', 'transfer' or 'enumerate', got {method!r}")
    kernels = None if method == "enumerate" else L.window_tables(sft.d)
    if method == "transfer" and kernels is None:
        raise ValueError("quasimorphism is not window-additive")
    return kernels


def log_partition(L, sft, n, method="auto"):
    """log Z_n(L), the log-sum-exp of L over wrapping words of length n."""
    if n < 1:
        raise ValueError("partition function needs n >= 1")
    kernels = _method_kernels(L, sft, method)
    if kernels is None:
        return _enumerated_log_partition(L, sft, n)
    if n < max(kernels):
        return _short_word_log_partition(kernels, sft, n)
    return float(_WindowTransfer(kernels, sft).log_partitions(n)[n - 1])


def log_partition_sequence(L, sft, n_max, method="auto"):
    kernels = _method_kernels(L, sft, method)
    if kernels is not None:
        return _WindowTransfer(kernels, sft).log_partitions(n_max)
    return np.array([_enumerated_log_partition(L, sft, n) for n in range(1, n_max + 1)])


def partition_function(L, sft, n, method="auto"):
    return float(np.exp(log_partition(L, sft, n, method=method)))


# -- pressure -------------------------------------------------------------------


@dataclass
class PressureEstimate:
    n_max: int
    p_n: np.ndarray  # P_1 .. P_{n_max}
    c_all: float  # quasi-boundedness constant over all split pairs (empirical)
    c_used: float  # same, restricted to n,m >= n0 (the regime the bounds live in)
    n0: int
    lower: float
    upper: float
    point: float

    @property
    def width(self):
        return self.upper - self.lower

    def contains(self, x):
        return self.lower <= x <= self.upper

    def to_json(self):
        return {
            "n_max": self.n_max,
            "p_n": [float(x) for x in self.p_n],
            "c_all": self.c_all,
            "c_used": self.c_used,
            "n0": self.n0,
            "lower": self.lower,
            "upper": self.upper,
            "point": self.point,
            "width": self.width,
            "note": "empirical-C: constants are lower bounds for the true ones",
        }


def _split_constant(p, n0, n_max):
    """sup |P_{n+m} - P_n - P_m| over n,m >= n0, n+m <= n_max (finite entries),
    over row blocks of the (n, m) triangle of about _SPLIT_CELLS cells."""
    p = np.asarray(p, dtype=float)
    finite = np.isfinite(p)
    q = np.where(finite, p, 0.0)  # masked below; keeps the arithmetic finite
    best = -np.inf
    m = np.arange(n0, n_max - n0 + 1)
    rows = max(1, _SPLIT_CELLS // max(1, len(m)))
    for lo in range(n0, n_max // 2 + 1, rows):
        n = np.arange(lo, min(lo + rows, n_max // 2 + 1))[:, None]
        nm = np.minimum(n + m, n_max) - 1
        ok = (m >= n) & (m <= n_max - n) & finite[n - 1] & finite[m - 1] & finite[nm]
        best = max(best, np.abs(q[nm] - q[n - 1] - q[m - 1]).max(initial=-np.inf, where=ok))
    return max(0.0, float(best)) if best > -np.inf else np.nan


def pressure(L, sft, n_max, method="auto"):
    """Pressure interval from the quasi-bounded sequence (log Z_n)_n.

    The sub-multiplicativity constant is only in force once both block
    lengths clear 3M, so the certificate constant and the interval endpoints
    are restricted to that regime whenever n_max allows it; the all-pairs
    constant is reported alongside.
    """
    if n_max < 4:
        raise ValueError("pressure needs n_max >= 4")
    p = log_partition_sequence(L, sft, n_max, method=method)
    c_all = _split_constant(p, 1, n_max)
    n0 = 3 * sft.M if 6 * sft.M <= n_max else 1
    c_used = _split_constant(p, n0, n_max)
    if not np.isfinite(c_used):
        n0, c_used = 1, c_all
    n = np.arange(n0, n_max + 1)
    pn = p[n - 1]
    ok = np.isfinite(pn) & np.isfinite(c_used)  # no finite split: both bounds stay infinite
    lo = ((pn - c_used) / n).max(initial=-np.inf, where=ok)
    hi = ((pn + c_used) / n).min(initial=np.inf, where=ok)
    return PressureEstimate(
        n_max=n_max, p_n=p, c_all=float(c_all), c_used=float(c_used), n0=n0,
        lower=float(lo), upper=float(hi), point=float(p[n_max - 1] / n_max),
    )


def pressure_oracle_memory1(L, sft):
    """Exact log of the Perron eigenvalue of R_ij e^{phi(ij)} for width <= 2 kernels."""
    kernels = L.window_tables(sft.d)
    if kernels is None or max(kernels) > 2:
        raise ValueError("oracle needs a window-additive L of width <= 2")
    d = sft.d
    B = sft.R.astype(float).copy()
    if 1 in kernels:
        B *= np.exp(kernels[1])[:, None]
    if 2 in kernels:
        B *= np.exp(kernels[2].reshape(d, d))
    return float(np.log(max(abs(np.linalg.eigvals(B)))))


# -- the periodic-orbit Gibbs measure -------------------------------------------


def gibbs_measure(L, sft, N, depth, weighting="homogenized"):
    """Orbit-averaged Gibbs approximant at cylinder depths 1..depth.

    Every periodic word a of length N carries a normalized weight, spread
    equally over the N cyclic windows of its periodic point, which makes the
    result exactly shift-invariant at each stored depth.  The default weight
    is e^{Lbar(a)} with Lbar the homogenized (rotation-invariant)
    representative of [L]: the ensemble then does not depend on how each
    orbit is cut into a word, and it tracks the transfer-operator chain at a
    spectral rate.  weighting="raw" uses the literal e^{L(a)} instead, whose
    wrap-junction tilt decays only like depth/N.

    The word array and its weights are held whole; window codes, lookups and
    spread weights run over chunks of about _GIBBS_CELLS word positions, and
    each chunk's bincount starts from the running masses, so every mass is
    added in the same order, bit for bit, as in one pass over all words.
    """
    if not (1 <= depth <= N):
        raise ValueError("need 1 <= depth <= N")
    arr = sft.word_array(N, periodic=True)
    if not len(arr):
        raise ValueError(f"no periodic words of length {N}")
    if weighting == "homogenized":
        vals = L.homogenized_values(arr, sft.d)
    elif weighting == "raw":
        vals = L.values(arr, sft.d)
    else:
        raise ValueError("weighting must be 'homogenized' or 'raw'")
    logZ = _logsumexp(vals)
    weight = np.exp(vals - logZ) / N
    idx = {k: sft.cylinders(k) for k in range(1, depth + 1)}
    masses = {k: np.zeros(len(idx[k])) for k in idx}
    step = max(1, _GIBBS_CELLS // N)
    for lo in range(0, len(arr), step):
        words = arr[lo:lo + step]
        wrapped = np.concatenate([words, words[:, :depth - 1]], axis=1)  # one period and a bit
        spread = np.repeat(weight[lo:lo + step], N)
        codes = np.zeros(words.shape, dtype=np.int64)
        for k, cyl in idx.items():
            # codes[:, j]: the depth-k window of the periodic point from position j
            codes = codes * sft.d + wrapped[:, k - 1:k - 1 + N]
            # bincount adds in input order from 0.0: the running masses first, so
            # every mass is the sum word by word, each word position by position
            K = len(cyl)
            masses[k] = np.bincount(np.concatenate([np.arange(K), cyl.index_of_codes(codes.ravel())]),
                                    np.concatenate([masses[k], spread]), K)
    return CylinderMeasure(sft, masses)


@dataclass
class GibbsRatioReport:
    min_ratio: float
    max_ratio: float
    argmin: tuple
    argmax: tuple
    zero_mass: int

    @property
    def spread(self):
        return self.max_ratio / self.min_ratio


def gibbs_ratio_report(mu, L, sft, ptop, depths):
    """Extremes of mass[a] / exp(L(lift a) - n ptop) across the given depths."""
    lo, hi = np.inf, -np.inf
    arg_lo = arg_hi = ()
    dead = 0
    for k in depths:
        arr = mu.masses_at(k)
        for i, a in enumerate(sft.cylinders(k).words):
            if arr[i] <= 0.0:
                dead += 1
                continue
            ratio = arr[i] / np.exp(L.value(sft.lift(a)) - k * ptop)
            if ratio < lo:
                lo, arg_lo = ratio, a
            if ratio > hi:
                hi, arg_hi = ratio, a
    return GibbsRatioReport(float(lo), float(hi), arg_lo, arg_hi, dead)


def mixing_ratio_report(mu, a, b, k_range):
    """Ratios mu([a] n tau^{-k}[b]) / (mu([a]) mu([b])) for k in k_range."""
    sft = mu.sft
    a, b = tuple(a), tuple(b)
    pa, pb = mu.mass(a), mu.mass(b)
    rows = []
    for k in k_range:
        if pa <= 0 or pb <= 0:
            rows.append({"k": k, "joint": None, "ratio": None, "zero_mass": True})
            continue
        if k >= len(a):
            total_len = k + len(b)
            if mu.max_depth is not None and total_len > mu.max_depth:
                raise ResourceLimit(f"depth {total_len} not stored")
            joint = 0.0
            for w in sft.cylinders(total_len).words:
                if w[: len(a)] == a and w[k:] == b:
                    joint += mu.mass(w)
        else:
            if any(a[k + i] != b[i] for i in range(len(a) - k)):
                joint = 0.0
            else:
                w = a + b[len(a) - k:]
                joint = mu.mass(w) if len(w) >= len(a) else mu.mass(a)
        rows.append({"k": k, "joint": joint, "ratio": joint / (pa * pb), "zero_mass": False})
    return rows


def weak_bernoulli_report(mu, n, gaps):
    """beta(n, N) = sum_{A,B depth-n} |mu(A n tau^{-(N+n)} B) - mu(A) mu(B)|."""
    sft = mu.sft
    m = mu.masses_at(n)
    S = len(m)
    rows = []
    for N in gaps:
        total_len = 2 * n + N
        if mu.max_depth is not None and total_len > mu.max_depth:
            raise ResourceLimit(f"weak-Bernoulli at gap {N} needs depth {total_len}")
        idx = sft.cylinders(total_len)  # the prefix A and the suffix B of each word
        pair = idx.prefix(n) * S + idx.suffix(n)
        joint = np.bincount(pair, mu.masses_at(total_len), S * S).reshape(S, S)  # in word order
        beta = float(np.abs(joint - np.outer(m, m)).sum())
        rows.append({"gap": N, "beta": beta})
    return rows


# -- entropy and integrals -------------------------------------------------------


def _plogp(arr):
    out = np.zeros_like(arr)
    mask = arr > 0
    out[mask] = arr[mask] * np.log(arr[mask])
    return out


@dataclass
class EntropyReport:
    depths: list
    block_entropy: list  # H(depth)
    rates: list  # H(depth)/depth
    conditional: list  # H(depth) - H(depth-1)
    h_extrapolated: float

    def to_json(self):
        return {
            "depths": self.depths,
            "block_entropy": self.block_entropy,
            "rates": self.rates,
            "conditional": self.conditional,
            "h_extrapolated": self.h_extrapolated,
        }


def entropy_report(mu, n_max=None):
    """Block entropies H_mu(depth-n partition), their rates, and the
    conditional-entropy extrapolation of h_mu."""
    if n_max is not None and n_max < 1:
        raise ValueError(f"entropy depth must be >= 1, got {n_max}")
    depths = [k for k in mu.depths() if n_max is None or k <= n_max]
    H = [float(-_plogp(mu.masses_at(k)).sum()) for k in depths]
    rates = [h / k for h, k in zip(H, depths)]
    cond = []
    for i, k in enumerate(depths):
        prev = H[i - 1] if i > 0 and depths[i - 1] == k - 1 else (0.0 if k == 1 else None)
        cond.append(None if prev is None else H[i] - prev)
    usable = [c for c in cond if c is not None]
    return EntropyReport(depths, H, rates, cond, usable[-1] if usable else rates[-1])


def qm_integral(mu, L, n):
    """(1/n) sum_a mu([a]) L(a) over depth-n cylinders."""
    idx = mu.sft.cylinders(n)
    arr = mu.masses_at(n)
    return float(sum(m * L.value(w) for m, w in zip(arr, idx.words)) / n)


def window_expectation(mu, L, sft):
    """Exact per-window mean of a window-additive L under mu: the limit of qm_integral."""
    kernels = L.window_tables(sft.d)
    if kernels is None:
        raise ValueError("window_expectation needs a window-additive L")
    total = 0.0
    for q, table in kernels.items():
        idx = sft.cylinders(q)
        total += float(np.dot(mu.masses_at(q), table[idx.codes]))
    return total


# -- variational principle --------------------------------------------------------


def variational_check(L, sft, candidates, ptop, integral_depth=None):
    """Metric pressures h + mu(L) of candidate measures against a pressure value.

    Candidates are (name, measure) pairs; a measure is either a MarkovMeasure
    (exact entropy and integral) or a CylinderMeasure (finite-depth numbers).
    """
    if not candidates:
        raise ValueError("variational_check needs at least 1 candidate measure")
    rows = []
    additive = L.window_tables(sft.d) is not None
    for name, mu in candidates:
        exact = hasattr(mu, "entropy_exact")
        h = mu.entropy_exact() if exact else entropy_report(mu).h_extrapolated
        if additive:
            integ = window_expectation(mu, L, sft)
        else:
            depth = integral_depth or mu.max_depth or 8  # a Markov chain has no max_depth
            integ = qm_integral(mu, L, depth)
        rows.append({
            "name": name,
            "entropy": float(h),
            "integral": float(integ),
            "metric_pressure": float(h + integ),
            "shortfall": float(ptop - (h + integ)),
        })
    return rows
