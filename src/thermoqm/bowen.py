"""Weak Bowen potentials and Livšic-type decision procedures.

Almost-everywhere objects are represented by finite-depth cylinder tables
plus a fully supported reference measure; every "a.e." statement becomes an
exact statement at the stored depth.  The Cesàro coboundary solver evaluates
the averages u_N = (1/N) sum_k S_k(phi) in closed form through the depth-D
conditional transition operator, so N can be astronomically large.  Birkhoff
sums along periodic points come from `markov.cyclic_birkhoff_sums` on arrays
of periodic words; a periodic average is such a sum over one period, / |a|.

Kept without an op: `birkhoff_check` and `bowen_norm_estimate` (demo 04),
`quasicocycle_from_potential` and `livsic_quasicocycle_test` (item 8: the
quasicocycle Livšic test, the paper's Bowen side, is a candidate op).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DepthExceeded, MeanNotZero, NonConvergence, ZeroMass
from .markov import LocallyConstantFn, cyclic_birkhoff_sums, normalization_defect, project_conditional
from .qm import Quasicocycle
from .sft import window_codes


class WeakBowenFn:
    """Finite-depth tables phi^k on k-cylinders, deepest table wins."""

    def __init__(self, sft, tables, reference=None):
        self.sft = sft
        self.tables = {int(k): np.asarray(v, dtype=float) for k, v in tables.items()}
        self.reference = reference
        self.k_max = max(self.tables)

    def value(self, word):
        k = max((j for j in self.tables if 0 < j <= len(word)), default=0)
        if not k:
            raise DepthExceeded("word shorter than every stored depth")
        return self.as_lc(k).value(word)

    def as_lc(self, k=None):
        k = self.k_max if k is None else k
        if k not in self.tables:
            raise DepthExceeded(f"no table at depth {k}")
        return LocallyConstantFn(self.sft, k, self.tables[k])

    def normalization_defect(self, k=None):
        """`normalization_defect` of the table phi^k (the deepest by default)."""
        k = self.k_max if k is None else k
        return normalization_defect(self.sft, k, self.tables[k])


def potential_from_measure(mu, k):
    """phi^j(x) = log mu([x]_j) / mu([tau x]_{j-1}) tabulated for j = 1..k."""
    if k < 1:
        raise ValueError(f"potential depth must be >= 1, got {k}")
    if mu.max_depth is not None and k > mu.max_depth:
        raise DepthExceeded(f"measure stores depth {mu.max_depth} < {k}")
    sft = mu.sft
    tables = {}
    for j in range(1, k + 1):
        num = mu.masses_at(j)
        den = mu.masses_at(j - 1)[sft.cylinders(j).suffix(j - 1)] if j > 1 else 1.0
        _require_mass(sft, j, (num <= 0.0) | (den <= 0.0), "violates full support")
        tables[j] = np.log(num / den)
    return WeakBowenFn(sft, tables, reference=mu)


def _require_mass(sft, k, dead, why):
    """ZeroMass naming the first k-word flagged in `dead`."""
    if np.any(dead):
        raise ZeroMass(f"cylinder {sft.cylinders(k).word(int(np.argmax(dead)))} {why}")


@dataclass
class BirkhoffReport:
    max_residual: float
    argmax: tuple
    bound: float | None
    n: int
    sample_size: int


def birkhoff_check(phi, L, sft, ptop, n, sample, bound=None):
    """Compare S_n(phi) + n ptop against L on lifted n-windows of periodic points."""
    f, worst, arg = phi.as_lc(), -np.inf, ()
    for a in sample:  # one word at a time: lifts are per word
        sn = float(cyclic_birkhoff_sums(f, np.array([a]), n)[0])
        window = tuple(sft.cyclic_window(a, 0, n))
        res = abs(sn + n * ptop - L.value(sft.lift(window)))
        if res > worst:
            worst, arg = res, a
    return BirkhoffReport(float(worst), arg, bound, n, len(sample))


def bowen_norm_estimate(phi, n_max):
    """Lower bound for ||phi||_B: spread of S_n(phi) over periodic points that
    share their first n symbols (periodic words n + l long, l <= M), n <= n_max."""
    sft, f = phi.sft, phi.as_lc()
    best = 0.0
    for n in range(1, n_max + 1):
        idx = sft.cylinders(n)
        hi, lo, count = np.full(len(idx), -np.inf), np.full(len(idx), np.inf), np.zeros(len(idx))
        for arr in (sft.word_array(n + l, periodic=True) for l in range(sft.M + 1)):
            vals = cyclic_birkhoff_sums(f, arr, n)
            prefix = idx.index_of_codes(window_codes(arr, 0, n, sft.d))
            np.maximum.at(hi, prefix, vals)
            np.minimum.at(lo, prefix, vals)
            count += np.bincount(prefix, minlength=len(idx))
        best = max(best, float((hi - lo)[count > 1].max(initial=0.0)))
    return best


def quasicocycle_from_potential(phi, mu, n_max):
    """B_n = E_mu[S_n(phi) | depth-n cylinders], a locally constant quasicocycle."""
    f = phi.as_lc()
    if mu.max_depth is not None and n_max - 1 + f.m > mu.max_depth:
        raise DepthExceeded("reference measure too shallow for the requested tables")
    shifts = itertools.accumulate(range(1, n_max), lambda g, _: g.shift(), initial=f)  # phi o tau^l
    sums = itertools.accumulate(shifts, LocallyConstantFn.__add__)  # S_n phi for n = 1..n_max
    return Quasicocycle(phi.sft, {n: project_conditional(S, mu, n).values
                                  for n, S in enumerate(sums, 1)})


# -- Komlós construction --------------------------------------------------------


def komlos_zeta(L, sft, n):
    """zeta_n(x) = (1/n) sum_{k=1..n} L(x_0..x_k) - L(x_1..x_k), depth n+1."""
    if n < 1:
        raise ValueError("komlos_zeta needs n >= 1")
    arr = sft.cylinders(n + 1).array
    tot = np.zeros(len(arr))
    for k in range(1, n + 1):
        tot += L.values(arr[:, : k + 1], sft.d) - L.values(arr[:, 1: k + 1], sft.d)
    return LocallyConstantFn(sft, n + 1, tot / n)


@dataclass
class KomlosResult:
    table: LocallyConstantFn
    diffs: list
    converged: bool


def komlos_potential(L, mu, n_list, depth, tol=1e-9, strict=True):
    """Cesàro average of the depth-restricted zeta_n along n_list.

    The subsequence is n_list itself (r(j) = j by default choice); successive
    averages are monitored and NonConvergence is raised, never hidden.
    """
    if not n_list or list(n_list) != sorted(set(n_list)):
        raise ValueError(f"n_list must be nonempty and strictly increasing, got {list(n_list)}")
    sft = mu.sft
    avg = None
    diffs = []
    for j, n in enumerate(n_list, start=1):
        zeta = komlos_zeta(L, sft, n)
        restricted = project_conditional(zeta, mu, depth)
        avg = restricted if avg is None else (1.0 - 1.0 / j) * avg + (1.0 / j) * restricted
        if j > 1:
            diffs.append(float(np.abs(avg.values - prev.values).max()))
        prev = avg
    converged = bool(diffs and diffs[-1] <= tol)
    if strict and not converged:
        err = NonConvergence(
            f"komlos averages still moving by {diffs[-1] if diffs else np.inf}; extend n_list"
        )
        err.partial = KomlosResult(avg, diffs, False)
        raise err
    return KomlosResult(avg, diffs, converged)


# -- the Cesàro coboundary solver -----------------------------------------------


def _conditional_step_matrix(mu, depth):
    """Row-stochastic K with (K f)(w) = E[f o tau | [w]] on depth-`depth` tables."""
    if mu.max_depth is not None and depth + 1 > mu.max_depth:
        raise DepthExceeded(f"need masses at depth {depth + 1}")
    sft = mu.sft
    weights = mu.masses_at(depth)
    _require_mass(sft, depth, weights <= 0, "has no mass")
    # edge w.s of the depth-`depth` block graph steps from w to its suffix w[1:].s
    g = sft.block_graph(depth)
    return g.states, g.matrix(mu.masses_at(depth + 1) / weights[g.src]).T, weights


@dataclass
class CoboundarySolve:
    u: LocallyConstantFn
    residual: float
    residual_at_2n: float
    vanishing: bool  # residual halves when N doubles, as a coboundary's must
    u_sup: float
    cesaro_drift: float  # sup |u_{2N} - u_N|
    n_terms: int
    bowen_bound: float | None = None  # 6 ||phi||_B; no solve estimates it, summary.json prints null

    def to_json(self):
        return {
            "residual": self.residual,
            "residual_at_2n": self.residual_at_2n,
            "vanishing": self.vanishing,
            "u_sup": self.u_sup,
            "cesaro_drift": self.cesaro_drift,
            "n_terms": self.n_terms,
            "bowen_bound": self.bowen_bound,
        }


def _cesaro_average(A, Kpow_n, phi0, N):
    """u_N = (1/N) sum_{k=1..N} E[S_k phi | depth], in closed form by A = Id - K + 1 w^T."""
    s1 = np.linalg.solve(A, phi0 - Kpow_n @ phi0)  # sum_{l<N} K^l phi0
    s2 = np.linalg.solve(A, (s1 - phi0) - (N - 1) * (Kpow_n @ phi0))  # sum l K^l phi0
    return s1 - s2 / N


def coboundary_solve(phi, mu, N, depth):
    """Depth-restricted Cesàro solve of u - u o tau = phi under mu.

    Returns the average u_N and the sup residual of the cohomological
    equation over (depth+1)-cylinders.  For a coboundary the residual decays
    like 1/N; the residual is therefore re-evaluated at 2N, and a residual
    that fails to shrink is the non-coboundary signal (the depth-restricted
    averages themselves always settle, so only the residual is diagnostic;
    the periodic-orbit test stays the authoritative decision).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if isinstance(phi, WeakBowenFn):
        phi = phi.as_lc()
    sft = mu.sft
    if phi.m > depth:
        raise ValueError("depth must cover the potential's memory")
    idx, K, weights = _conditional_step_matrix(mu, depth)
    weights = weights / weights.sum()
    phi_vec = phi.as_memory(depth).values
    mean = float(np.dot(weights, phi_vec))
    scale = max(1.0, float(np.abs(phi_vec).max()))
    if abs(mean) > 1e-8 * scale:
        raise MeanNotZero(f"integral of phi is {mean}")
    phi0 = phi_vec - mean
    S = len(idx)
    A = (np.eye(S) - K) + np.outer(np.ones(S), weights)  # = Id - K on zero-mean vectors
    g = sft.block_graph(depth)  # its edges are the (depth+1)-words w

    def residual_of(u_vals):
        r = u_vals[g.src] - u_vals[g.dst] - phi_vec[g.src]  # u(w[:depth]) - u(w[1:]) - phi(w)
        return LocallyConstantFn(sft, depth, u_vals), float(np.abs(r).max())

    u_vals = _cesaro_average(A, np.linalg.matrix_power(K, N), phi0, N)
    u2_vals = _cesaro_average(A, np.linalg.matrix_power(K, 2 * N), phi0, 2 * N)
    u, res = residual_of(u_vals)
    _, res2 = residual_of(u2_vals)
    drift = float(np.abs(u2_vals - u_vals).max())
    vanishing = res2 <= 0.75 * res + 1e-12 * scale
    return CoboundarySolve(
        u, res, res2, vanishing, u.sup_norm(), drift, N
    )


# -- the quasicocycle Livšic test --------------------------------------------------


@dataclass
class LivsicVerdict:
    verdict: str
    witness: tuple | None
    certificate_depth: int
    max_gap: float
    bound_check: dict | None = None

    def to_json(self):
        from .sft import render_word

        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else render_word(self.witness),
            "certificate_depth": self.certificate_depth,
            "max_gap": self.max_gap,
            "bound_check": self.bound_check,
        }


def livsic_quasicocycle_test(B, B2, sft, n_max, tol=1e-8):
    """Periodic-orbit comparison of two quasicocycles, with interval slack.

    Distinct needs disjoint certified intervals around B_n/n; Cohomologous is
    a bounded-depth certificate, augmented by the quantitative check that the
    table differences stay within the predicted uniform bound.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    d1 = B.delta_estimate() + B.bowen_norm
    d2 = B2.delta_estimate() + B2.bowen_norm
    worst_gap = 0.0
    for n in range(1, min(n_max, B.n_max, B2.n_max) + 1):  # periods both tables reach
        depth, depth2 = (B.n_max // n) * n, (B2.n_max // n) * n
        arr = sft.word_array(n, periodic=True)  # each table on the first k-window of p(a), / k
        c1, c2 = (cyclic_birkhoff_sums(LocallyConstantFn(sft, k, C.tables[k]), arr, 1) / k
                  for C, k in ((B, depth), (B2, depth2)))
        gap = np.abs(c1 - c2)
        apart = np.flatnonzero(gap > d1 / depth + d2 / depth2 + tol)
        upto = apart[0] + 1 if len(apart) else len(arr)  # gaps up to the witness
        worst_gap = float(np.fmax.reduce(gap[:upto], initial=worst_gap))
        if len(apart):
            return LivsicVerdict("distinct", tuple(arr[apart[0]].tolist()), n, worst_gap)
    # quantitative uniform-bound check on the difference cocycle
    diff = Quasicocycle(sft, {
        n: B.tables[n] - B2.tables[n] for n in range(1, min(B.n_max, B2.n_max) + 1)
    })
    sup_diff = max(float(np.abs(t).max()) for t in diff.tables.values())
    bound = diff.delta_estimate() + B.bowen_norm + B2.bowen_norm
    check = {"sup_diff": sup_diff, "bound": bound, "ok": bool(sup_diff <= bound + tol)}
    return LivsicVerdict("cohomologous", None, n_max, worst_gap, check)
