"""Pressure, partition functions, periodic-orbit Gibbs measures, diagnostics.

Partition sums run over periodic words of length exactly n.  For window-
additive quasimorphisms of width Q the sums are evaluated exactly on the
depth-(Q-1) block graph of the subshift (the quasimorphism's `edge_form`),
which reaches depths far beyond enumeration: the wrap condition only sees the
first symbol of a word, so d boundary vectors are pushed through the graph,
O(n S d^2) work for S block states.  Plain enumeration stays available as the
generic path and as a cross-check.

Periodic-orbit Gibbs measures of window-additive quasimorphisms come from the
same graph: the homogenized weight of a periodic word is the product of the
edge weights along its closed walk, so the orbit masses at any N are entries
of one matrix power, with no word of length N enumerated.  Only tabulated
kinds and graphs whose gauged edge weights spread past the float range
enumerate the periodic words.

Kept without an op: `gibbs_ratio_report` (demo 03, criterion 3),
`mixing_ratio_report` and `weak_bernoulli_report` (item 6), `log_partition`
and `log_partition_sequence` (item 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimit
from .measures import CylinderMeasure, orbit_masses
from .qm import inside, window_sums
from .sft import word_cap

_GIBBS_MATRICES = 3  # dense S x S matrices the orbit transfer holds at its peak
_PRODUCT_FLOOR = 2.0**-1000  # least product of two transfer entries: sums stay normal below 2^21 states
_SPLIT_CELLS = 1 << 14  # (n, m) pairs per row block of the split constant, 128 KB a temporary
_PARTITION_CELLS = 1 << 16  # cells of the powers T, ..., T^k a blocked partition sequence holds
_BLOCKED_STATES = 48  # block graphs up to this many states run blocked partitions (BENCH_18.json)
_U = 2.0**-53  # unit roundoff of float64
_LOG_RANGE = 745.0  # |log z| < 745 for every positive float z


class _FloatRange(ArithmeticError):
    """A transfer's weights or entries spread past what a float's exponent holds."""


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
    """Exact evaluator of Z_n = sum over wrapping words of e^{L} for window-additive L.

    A word of length n >= t is a start state s (its first t symbols) followed
    by n - t edges of the depth-t block graph, t = max(Q-1, 1).  Each edge
    weighs e^f and ``init`` is e^start, f and start from L's `edge_form`.
    The word wraps when R[last(c), first(s)] = 1 for its end state c, so
    only first(s) is needed from the start: V[:, b] holds the
    weight of all paths from start states beginning with b, and Z_n is the
    sum over c, b of R[last(c), b] V[c, b].  Width-1 windows never straddle
    the wrap, so for Q = 1 the wrap is one more edge and Z_n = trace(T^n).

    On graphs of at most _BLOCKED_STATES states V advances k steps a product
    by the dense powers T, ..., T^k (``T``, kept only there); larger graphs
    advance it one gather over the edges into each state a step.

    `_FloatRange` if an edge or start weight is not a float in [2^-1000, inf).
    """

    def __init__(self, L, sft):
        self.sft = sft
        self.kernels = L.window_tables(sft.d)
        self.Q = max(self.kernels)
        g, f, start = L.edge_form(sft)
        S = len(g)
        with np.errstate(over="ignore"):
            E, init = np.exp(f), np.exp(start)
        if not (min(E.min(), init.min()) >= _PRODUCT_FLOOR and max(E.max(), init.max()) < np.inf):
            raise _FloatRange("an edge or start weight of the transfer leaves [2^-1000, inf)")
        self.weights, self.sources = g.incoming(E)
        self.T = g.matrix(E) if S <= _BLOCKED_STATES else None
        if self.Q == 1:
            self.base, self.init, self.close = 0, np.ones(S), np.eye(S)
        else:
            self.base, self.init = g.t, init
            self.close = sft.R[g.states.suffix(1)].astype(float)
        self.V0 = np.zeros((S, sft.d))
        self.V0[np.arange(S), g.states.prefix(1)] = self.init

    def log_partitions(self, n_max):
        """P_n = log Z_n for n = 1..n_max.  Z_n is carried as z 2^e, rescaled by
        powers of two only, so only log z + e log 2 rounds."""
        out = np.full(n_max + 1, -np.inf)
        for n in range(1, min(self.Q, n_max + 1)):
            # shorter than the widest window: tiny enumerations
            out[n] = _short_word_log_partition(self.kernels, self.sft, n)
        steps = n_max - self.base  # Z_n for n = base + 1 .. n_max: after 1 .. steps steps
        if steps > 0:
            try:
                z, e = self._stepped(steps) if self.T is None else self._blocked(steps)
            except _FloatRange:  # the powers of T spread past what a float holds
                z, e = self._stepped(steps)
            with np.errstate(divide="ignore"):
                out[self.base + 1:] = np.log(z) + e * np.log(2.0)
        return out[1:]

    def _stepped(self, steps):
        """(z, e): the wrap sums z_j 2^e_j after j = 1..steps gathers of V."""
        z, e = np.empty(steps), np.empty(steps, dtype=np.int64)
        V, ev = self.V0, 0
        for j in range(steps):
            V = (self.weights[:, :, None] * V[self.sources]).sum(axis=1)
            ev += _rescale(V)
            z[j], e[j] = (self.close * V).sum(), ev
        return z, e

    def _blocked(self, steps):
        """_stepped's (z, e) by batches of k steps: the wrap sums after 1..k more
        steps are one product of V with C, C[j-1, s, b] = sum_c close[c, b] T^j[c, s],
        and V advances by T^k."""
        S = len(self.T)
        k = min(steps, max(1, _PARTITION_CELLS // (S * S)))
        P, ep = _powers(self.T, k)
        C = np.matmul(P.transpose(0, 2, 1), self.close).reshape(k, -1)
        z, e = np.empty(steps), np.empty(steps, dtype=np.int64)
        V, ev = self.V0, 0
        for lo in range(0, steps, k):
            j = min(k, steps - lo)
            z[lo:lo + j] = C[:j] @ V.ravel()
            e[lo:lo + j] = ep[:j] + ev
            if lo + k < steps:
                V = P[k - 1] @ V
                ev += ep[k - 1] + _rescale(V)
        return z, e


def _rescale(A):
    """Scale each matrix of a stack (or one matrix) in place by the power of two
    that puts its largest entry in [1/2, 1); no entry rounds.  Returns the
    exponents taken out."""
    shift = np.frexp(A.max(axis=(-2, -1)))[1]
    np.ldexp(A, -shift[..., None, None], out=A)
    return shift


def _low(A):
    """The least positive entry (inf if there is none)."""
    return A.min(initial=np.inf, where=A > 0)


def _powers(T, k):
    """(P, e) with T^j = P[j-1] 2^e[j-1] for j = 1..k, each P[j-1] rescaled:
    by doubling, T^(j+i) = T^j T^i for i = 1..min(j, k - j) in one batched
    product.  `_FloatRange` if a product of two entries could fall under
    2^-1000, so that no entry is ever rounded to 0 or to a subnormal."""
    if not _low(T) >= _PRODUCT_FLOOR * T.max():
        raise _FloatRange("the entries of T spread past 2^1000")
    P = np.empty((k,) + T.shape)
    e = np.empty(k, dtype=np.int64)
    P[0] = T
    e[0] = _rescale(P[0])
    least, j = _low(P[0]), 1  # the least positive entry of the powers so far
    while j < k:
        if not least * least >= _PRODUCT_FLOOR:
            raise _FloatRange("a product of two entries of the powers of T falls under 2^-1000")
        m = min(j, k - j)
        np.matmul(P[j - 1], P[:m], out=P[j:j + m])
        e[j:j + m] = e[j - 1] + e[:m] + _rescale(P[j:j + m])
        least, j = min(least, _low(P[j:j + m])), j + m
    return P, e


def _short_word_log_partition(kernels, sft, n):
    return _logsumexp(window_sums(kernels, sft.word_array(n, periodic=True), sft.d, inside(n)))


def _method_transfer(L, sft, method):
    """The `_WindowTransfer` a partition sum runs on by `method`, None to enumerate:
    under "auto" also where its weights leave the float range (`_FloatRange`)."""
    if method not in ("auto", "transfer", "enumerate"):
        raise ValueError(f"method must be 'auto', 'transfer' or 'enumerate', got {method!r}")
    if method != "enumerate" and L.window_tables(sft.d) is not None:
        try:
            return _WindowTransfer(L, sft)
        except _FloatRange as exc:
            if method == "transfer":
                raise ValueError(f"{exc}: use method 'auto' or 'enumerate'") from exc
    elif method == "transfer":
        raise ValueError("quasimorphism is not window-additive")
    return None


def log_partition(L, sft, n, method="auto"):
    """log Z_n(L), the log-sum-exp of L over wrapping words of length n."""
    if n < 1:
        raise ValueError("partition function needs n >= 1")
    W = _method_transfer(L, sft, method)
    return _enumerated_log_partition(L, sft, n) if W is None else float(W.log_partitions(n)[n - 1])


def log_partition_sequence(L, sft, n_max, method="auto"):
    return _log_partitions(L, sft, n_max, method)[0]


def _log_partitions(L, sft, n_max, method):
    """(P_1 .. P_n_max, S): S the block states of the transfer that summed them, 0 if enumerated."""
    W = _method_transfer(L, sft, method)
    if W is None:
        if sft.word_count(n_max) > word_cap():  # |W_n| grows with n: refuse before enumerating
            raise ResourceLimit(f"|W_{n_max}| = {sft.word_count(n_max)} exceeds the word cap")
        return np.array([_enumerated_log_partition(L, sft, n) for n in range(1, n_max + 1)]), 0
    return W.log_partitions(n_max), len(W.V0)


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
    constant is reported alongside.  Each endpoint is widened outward by
    `_rounding`'s bound on the float error of p_n, and the constant by three
    times its largest value, since it is computed from the same p_n.
    """
    if n_max < 4:
        raise ValueError("pressure needs n_max >= 4")
    p, S = _log_partitions(L, sft, n_max, method)
    c_all = _split_constant(p, 1, n_max)
    n0 = 3 * sft.M if 6 * sft.M <= n_max else 1
    c_used = _split_constant(p, n0, n_max)
    if not np.isfinite(c_used):
        n0, c_used = 1, c_all
    n = np.arange(n0, n_max + 1)
    pn, err = p[n - 1], _rounding(sft, S, p)[n - 1]
    ok = np.isfinite(pn) & np.isfinite(c_used)  # no finite split: both bounds stay infinite
    c = c_used + 3 * err.max(initial=0.0, where=ok)
    lo = ((pn - c - err) / n).max(initial=-np.inf, where=ok)
    hi = ((pn + c + err) / n).min(initial=np.inf, where=ok)
    return PressureEstimate(
        n_max=n_max, p_n=p, c_all=float(c_all), c_used=float(c_used), n0=n0,
        lower=float(lo), upper=float(hi), point=float(p[n_max - 1] / n_max),
    )


def _rounding(sft, S, p):
    """A bound on |p_n - log Z_n| from float rounding, for Z_n of the edge
    weights or word values as computed (exact for integer kernels), by a
    transfer on S block states or by enumeration (S = 0): twice the
    first-order bound, u = 2^-53, over these sources.

    - Transfer: every carried entry is a sum of products of nonnegative
      numbers, so it keeps its relative error.  A step adds at most (d + 4) u
      (a d-term gather, and exp of the edge weight within 2 ulp), a blocked
      step at most (S + 2) u (its share of the products of S-term sums that
      build T^k and advance V), and the wrap sum S d u.  Words shorter than
      the widest window are enumerated.
    - Enumeration: each term e^(L - max) is within (|L - max| + 2) u, and
      |L - max| < 745 unless it underflows; summing d^n terms adds n log2(d) u,
      and log1p, log m and the last add at most 2n ln(d) u + 3 u |p_n|.
    - Rescaling is by powers of two, so the transfer rounds only in
      p_n = log z + e log 2: at most u (2 |log z| + 2 |e log 2| + |p_n|) <=
      u (3 |p_n| + 4 * 745), as |log z| < 745 for every positive float z.
    The per-step terms are at most (4d + S + 4) u, with S = 0 for enumeration;
    the 4 * 745 u also covers the three roundings of each interval endpoint.
    """
    n = np.arange(1, len(p) + 1)
    return 2 * _U * ((4 * sft.d + S + 4) * n + S * sft.d + 3 * np.abs(p) + 4 * _LOG_RANGE)


def pressure_oracle_memory1(L, sft):
    """Exact log of the Perron root of the edge weights e^f of L's `edge_form`, at any width."""
    form = L.edge_form(sft)
    if form is None:
        raise ValueError("oracle needs a window-additive L")
    g, f, _ = form
    return float(np.log(max(abs(np.linalg.eigvals(g.matrix(np.exp(f)))))))


# -- the periodic-orbit Gibbs measure -------------------------------------------


def gibbs_measure(L, sft, N, depth):
    """Orbit-averaged Gibbs approximant at cylinder depths 1..depth.

    Every periodic word a of length N carries the normalized weight
    e^{Lbar(a)}, spread equally over the N cyclic windows of its periodic
    point, which makes the result exactly shift-invariant at each stored
    depth.  Lbar is the homogenized (rotation-invariant) representative of
    [L]: the ensemble does not depend on how each orbit is cut into a word,
    and it tracks the transfer-operator chain at a spectral rate.

    For window-additive L the masses come from powers of the weighted block
    graph (`_transfer_gibbs_masses`), for any N, in time and memory set by
    the block states and the depth-cylinders, not by the ~e^{N h_top}
    periodic words.  Kinds without window tables, and weights the transfer
    cannot hold in floats (`_FloatRange`), enumerate the words
    (`_enumerated_gibbs_masses`), which the word cap may refuse.
    """
    if not (1 <= depth <= N):
        raise ValueError("need 1 <= depth <= N")
    if L.edge_form(sft) is not None:
        try:
            return CylinderMeasure(sft, _transfer_gibbs_masses(L, sft, N, depth))
        except _FloatRange as exc:
            try:
                return CylinderMeasure(sft, _enumerated_gibbs_masses(L, sft, N, depth))
            except ResourceLimit as over:
                raise ResourceLimit(f"{exc}, and enumeration is refused: {over}") from over
    return CylinderMeasure(sft, _enumerated_gibbs_masses(L, sft, N, depth))


def _max_plus_gauge(g, w):
    """Edge log-weights w + h[src] - h[dst] - lam <= 0, up to rounding, for lam
    the largest mean weight of a cycle of the block graph (Karp 1978) and h the
    best weight, less lam per edge, of a walk ending at each state.  Edges on a
    best cycle get 0, and every closed walk of length n loses exactly n lam."""
    S = len(g)
    wi, si = g.incoming(w)
    wi, si = np.where(g.pred >= 0, wi, -np.inf).T.copy(), si.T.copy()

    def walks(D):  # best weight of the walks one edge longer, by end state
        return (D[si] + wi).max(axis=0)

    start = np.full(S, -np.inf)
    start[0] = 0.0
    D = start
    for _ in range(S):
        D = walks(D)
    top, rate, Dk = D, np.full(S, np.inf), start
    with np.errstate(invalid="ignore"):
        for k in range(S):  # lam = max over v of min over k of (D_S - D_k) / (S - k)
            rate = np.fmin(rate, np.where(np.isfinite(Dk), (top - Dk) / (S - k), np.inf))
            Dk = walks(Dk)
    lam = float(rate[np.isfinite(top)].max())
    h = np.zeros(S)
    for _ in range(S):
        nxt = np.maximum(h, walks(h) - lam)
        if np.array_equal(nxt, h):
            break
        h = nxt
    return w - lam + h[g.src] - h[g.dst]


def _transfer_gibbs_masses(L, sft, N, depth):
    """Homogenized orbit masses at depths 1..depth from T = the block graph's
    matrix of edge weights e^w (w the f of `edge_form`), t its depth.

    A closed walk of length N in the graph is a point of period N, and the
    product of T's entries along it is e^{Lbar} of its word, so Z = tr(T^N).
    Averaged over the orbit, a cylinder's mass is the weight of the closed
    walks that start with its word: for k <= t the diagonal of T^N added over
    the states starting with the k-word; for k > t the path weight of the word
    times (T^(N-k+t))[start, end] for the rest of the walk.  One power comes
    by squaring, then one product by T per depth.

    The edge weights are first gauged by a state potential (`_max_plus_gauge`),
    which leaves every closed walk's weight and every mass as it was, so that
    no edge weighs more than 1 and a best cycle weighs exactly 1; every matrix
    is rescaled by a power of two only, so no rescaling rounds.  Where a gauged
    edge weight, or a product of two positive entries, could still fall below
    2^-1000 the float range no longer holds every walk, and `_FloatRange` is
    raised: no entry is ever rounded to 0 or to a subnormal.
    """
    g, w, _ = L.edge_form(sft)
    t, S = g.t, len(g)
    cells, cap = _GIBBS_MATRICES * S * S, word_cap()
    if cells > cap:
        raise ResourceLimit(f"the orbit transfer needs {cells} dense cells "
                            f"({_GIBBS_MATRICES} matrices of {S} x {S}), over the word cap {cap}")
    w = _max_plus_gauge(g, w)
    E = np.exp(w)
    weights, sources = g.incoming(E)
    least = E.min()  # every edge is there, so a 0 here is an underflow

    def guard(x):  # x: the least weight, or product of two entries a step can form
        if not x >= _PRODUCT_FLOOR:
            raise _FloatRange(f"the orbit transfer leaves the float range (gauged edge weights "
                              f"down to e^{w.min():.4g}, products of two entries under 2^-1000)")

    guard(least)  # before any product: _low skips the weights that underflowed to 0

    def scaled(A, e):  # A 2^e as A' 2^e' with max A' in [1/2, 1), in place
        return A, e + int(_rescale(A))

    def times_T(A, e):  # row i of T A adds the rows of A at the sources of the edges into i
        guard(_low(A) * least)
        out = A[sources[:, 0]]  # symbol by symbol: three S x S matrices at the peak
        out *= weights[:, :1]
        for a in range(1, sft.d):
            row = A[sources[:, a]]
            row *= weights[:, a:a + 1]
            out += row
        return scaled(out, e)

    lo = N - max(depth - t, 0)  # the lowest power needed, >= t >= 1
    A, e = scaled(g.matrix(E), 0)
    for bit in bin(lo)[3:]:
        guard(_low(A) ** 2)
        A, e = scaled(A @ A, 2 * e)
        if bit == "1":
            A, e = times_T(A, e)
    rest = {}  # k > t: (T^(N-k+t))[start, end] of each k-word, and its power of two
    for k in range(depth, t, -1):
        idx = sft.cylinders(k)
        rest[k] = A[idx.prefix(t), idx.suffix(t)], e
        A, e = times_T(A, e)
    diag = A.diagonal().copy()
    Z = diag.sum()
    if Z == 0:
        raise ValueError(f"no periodic words of length {N}")
    masses = {k: np.bincount(g.states.prefix(k), diag, len(sft.cylinders(k))) / Z
              for k in range(1, min(depth, t) + 1)}
    path = np.ones(S)
    for k in range(t + 1, depth + 1):
        idx = sft.cylinders(k)
        guard(path.min() * least)
        path = path[idx.prefix(k - 1)] * E[idx.suffix(t + 1)]
        entry, ek = rest[k]
        masses[k] = np.ldexp(path * entry / Z, ek - e)
    return masses


def _enumerated_gibbs_masses(L, sft, N, depth):
    """gibbs_measure's masses by enumerating the periodic words of length N."""
    arr = sft.word_array(N, periodic=True)
    if not len(arr):
        raise ValueError(f"no periodic words of length {N}")
    vals = L.homogenized_values(arr, sft.d)
    return orbit_masses(sft, arr, np.exp(vals - _logsumexp(vals)) / N, range(1, depth + 1))


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
    terms = mu.masses_at(n) * L.values(mu.sft.cylinders(n).array, mu.sft.d)
    return float(np.cumsum(np.r_[0.0, terms])[-1] / n)  # added cylinder by cylinder


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


def variational_check(L, sft, candidates, ptop):
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
            depth = mu.max_depth or 8  # a Markov chain has no max_depth
            integ = qm_integral(mu, L, depth)
        rows.append({
            "name": name,
            "entropy": float(h),
            "integral": float(integ),
            "metric_pressure": float(h + integ),
            "shortfall": float(ptop - (h + integ)),
        })
    return rows
