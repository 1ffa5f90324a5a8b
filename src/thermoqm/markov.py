"""Markov potentials, their normalization, stationary chains, and the exact
finite-dimensional cohomological machinery behind the limit theorems.

A memory-s potential is a locally constant function on (s+1)-cylinders; its
stationary chain is one transition probability per edge of the depth-t block
graph, t = max(s, 1), whose edges are the (t+1)-words in index order (`kernel`
is a dense view built on request).  The transfer operator R acts on the
locally constant functions LC_m (tables on m-cylinders) by one gather over the
edges of the depth-(m-1) block graph, and maps LC_m into LC_max(t, m-1).  The
cohomological equation (Id - R) h = psi for psi in LC_N is therefore solved by
memory reduction: R^K psi lies in LC_t for K = N - t, and h = sum_{k<K} R^k psi
+ (Id - R)|_{LC_t}^{-1} R^K psi.  The only dense solve is the bordered one on
LC_t, the chain's own state space.  A LocallyConstantFn may hold a stack of
functions, one per column of its table; R, the reduction and the bordered
solve then run on all columns at once.  `cyclic_birkhoff_sums` adds a table
over the cyclic windows of every row of an array of periodic words.

Kept without an op: `degeneracy_test` (item 5 decides it on the block graph;
demo 05).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MeanNotZero,
    NotPrimitive,
    NumericalFailure,
    SingularSystem,
    ZeroMass,
)
from .measures import CylinderMeasure
from .sft import window_codes


class LocallyConstantFn:
    """A function of the first `memory` symbols, stored on that word index; a
    2-D table is a stack of such functions, one per column."""

    def __init__(self, sft, memory, values):
        self.sft = sft
        self.m = int(memory)
        vals = np.asarray(values, dtype=float)
        expected = 1 if self.m == 0 else len(sft.cylinders(self.m))
        if vals.shape[:1] != (expected,) or vals.ndim > 2:
            raise ValueError(f"memory-{self.m} table needs {expected} values")
        self.values = vals

    @classmethod
    def constant(cls, sft, c):
        """The constant c, or a stack of constants for an array c."""
        return cls(sft, 0, np.asarray(c, dtype=float)[None])

    def value(self, word):
        if self.m == 0:
            return float(self.values[0])
        return float(self.values[self.sft.cylinders(self.m).index(tuple(word)[: self.m])])

    def as_memory(self, m2):
        """The same function tabulated on deeper cylinders."""
        if m2 < self.m:
            raise ValueError("cannot lower memory without projecting")
        if m2 == self.m:
            return self
        return LocallyConstantFn(self.sft, m2, self.values[self.sft.cylinders(m2).prefix(self.m)])

    def sup_norm(self):
        return float(np.abs(self.values).max())

    def __add__(self, other):
        m = max(self.m, other.m)
        return LocallyConstantFn(
            self.sft, m, self.as_memory(m).values + other.as_memory(m).values
        )

    def __sub__(self, other):
        m = max(self.m, other.m)
        return LocallyConstantFn(
            self.sft, m, self.as_memory(m).values - other.as_memory(m).values
        )

    def __mul__(self, c):
        return LocallyConstantFn(self.sft, self.m, self.values * float(c))

    __rmul__ = __mul__

    def shift(self):
        """f o tau, a memory-(m+1) table."""
        return LocallyConstantFn(self.sft, self.m + 1,
                                 self.values[self.sft.cylinders(self.m + 1).suffix(self.m)])


class MarkovPotential(LocallyConstantFn):
    """Memory-s potential: a locally constant function with `values` on the (s+1)-cylinders."""

    def __init__(self, sft, memory, table, normalized=False):
        super().__init__(sft, int(memory) + 1, table)
        self.normalized = normalized

    @property
    def s(self):
        return self.m - 1

    def normalization_defect(self):
        """`normalization_defect` at the chain's edge depth max(s, 1) + 1."""
        k = max(self.s, 1) + 1
        return normalization_defect(self.sft, k, self.as_memory(k).values)

    @classmethod
    def constant(cls, sft, c):
        """The memory-0 potential c, one value per symbol."""
        return cls(sft, 0, np.full(len(sft.cylinders(1)), float(c)))

    @classmethod
    def from_qm(cls, L, sft):
        """The per-step potential whose Birkhoff sums track a window-additive L."""
        return cls(sft, *L.step_potential(sft))


def normalization_defect(sft, k, table):
    """max over (k-1)-words w of |sum_s e^{table(s.w)} - 1|, for a table on the
    k-words (at k = 1, over the empty word); the sum adds s by s, in word order."""
    tot = np.bincount(sft.cylinders(k).suffix(k - 1), np.exp(table))
    return float(np.abs(tot - 1.0).max())


def _transfer_on(pot, t):
    """(depth-t word index, dense transfer matrix of pot on LC_t)."""
    g = pot.sft.block_graph(t)
    return g.states, g.matrix(np.exp(pot.as_memory(t + 1).values))


def _block_transfer_matrix(pot):
    """Matrix of the (unnormalized) transfer operator on LC_t, t = max(s,1)."""
    return _transfer_on(pot, max(pot.s, 1))


def _is_primitive(B):
    """Some power of the boolean matrix is all-positive (checked by squaring,
    which reaches past the Wielandt bound without overflowing)."""
    S = B.shape[0]
    if S == 1:
        return bool(B[0, 0])
    P = B.astype(np.int8)
    doublings = int(np.ceil(np.log2((S - 1) ** 2 + 1))) + 1
    for _ in range(doublings):
        if P.all():
            return True
        P = ((P.astype(np.int64) @ P.astype(np.int64)) > 0).astype(np.int8)
    return bool(P.all())


def normalize_potential(pot):
    """Return (normalized potential, Perron eigenvalue, positive eigenfunction).

    phi' = phi + log h - log h o tau - log lambda on memory max(s, 1); the
    eigenpair comes from a dense eigensolve polished by power iteration.
    """
    sft = pot.sft
    t = max(pot.s, 1)
    _, M = _block_transfer_matrix(pot)
    g = sft.block_graph(t)
    # a primitive SFT has a primitive block graph: positive weight on every
    # edge settles it; the squaring test is left for underflowed weights
    if not (M[g.dst, g.src] > 0).all() and not _is_primitive(M > 0):
        raise NotPrimitive("weighted transfer matrix on blocks is not primitive")
    evals, evecs = np.linalg.eig(M)
    k = int(np.argmax(np.abs(evals)))
    h = np.real(evecs[:, k])
    if h.sum() < 0:
        h = -h
    lam = float(np.real(evals[k]))
    converged = False
    for _ in range(10000):
        h_new = M @ h
        lam = float(h_new.sum() / h.sum())
        h_new /= h_new.sum()
        if np.abs(h_new - h).max() < 1e-15:
            h = h_new
            converged = True
            break
        h = h_new
    if not converged:
        raise NumericalFailure("power iteration did not converge")
    if lam <= 0 or (h <= 0).any():
        raise NumericalFailure("Perron pair is not positive")
    logh = np.log(h)
    vals = pot.as_memory(t + 1).values + logh[g.src] - logh[g.dst] - np.log(lam)
    out = MarkovPotential(sft, t, vals, normalized=True)
    defect = out.normalization_defect()
    if defect > 1e-12:
        raise NumericalFailure(f"normalization defect {defect} above 1e-12")
    hfn = LocallyConstantFn(sft, t, h)
    return out, lam, hfn


class MarkovMeasure:
    """Stationary chain of a normalized potential, one probability per edge of its block
    graph, with exact cylinder masses at every depth (masses_at, as on a CylinderMeasure)."""

    max_depth = None  # no deepest stored depth

    def __init__(self, sft, potential, edge_prob, stationary):
        self.sft = sft
        self.potential = potential  # normalized MarkovPotential, memory t
        self.t = max(potential.s, 1)
        self.graph = sft.block_graph(self.t)
        self.states = self.graph.states  # WordIndex at depth t
        self.edge_prob = edge_prob  # P(src -> dst) on each edge of graph
        self.stationary = stationary
        self._mass_cache = {}
        self._lam2 = None

    @property
    def s(self):
        return self.potential.s

    @property
    def kernel(self):
        """The row-stochastic S x S matrix over states, built on each call."""
        return self.graph.matrix(self.edge_prob).T

    def lam2(self):
        """Modulus of the second eigenvalue of the chain kernel (computed once)."""
        if self._lam2 is None:
            ev = np.sort(np.abs(np.linalg.eigvals(self.kernel)))
            self._lam2 = float(ev[-2]) if len(ev) > 1 else 0.0
        return self._lam2

    def cylinder_masses(self, k):
        if k in self._mass_cache:
            return self._mass_cache[k]
        sft, t = self.sft, self.t
        if k == t:
            out = self.stationary.copy()
        elif k < t:
            out = np.bincount(self.states.prefix(k), weights=self.stationary,
                              minlength=len(sft.cylinders(k)))
        else:
            # a k-word steps from its (k-1)-prefix by the chain's edge on its last t+1 symbols
            idx = sft.cylinders(k)
            out = self.cylinder_masses(k - 1)[idx.prefix(k - 1)] * self.edge_prob[idx.suffix(t + 1)]
        self._mass_cache[k] = out
        return out

    def masses_at(self, k):
        return self.cylinder_masses(k)

    mass = CylinderMeasure.mass

    def cylinder_measure(self, max_depth):
        return CylinderMeasure(
            self.sft, {k: self.cylinder_masses(k) for k in range(1, max_depth + 1)}
        )

    def entropy_exact(self):
        p = self.edge_prob
        logp = np.log(np.where(p > 0, p, 1.0))  # 0 log 0 = 0
        return float(-(self.stationary[self.graph.src] * p * logp).sum())

    def integral(self, f):
        """Exact integral of a LocallyConstantFn (of each column of a stack)."""
        out = f.values[0] if f.m == 0 else np.dot(self.cylinder_masses(f.m), f.values)
        return out if np.ndim(out) else float(out)

    def l2_norm_sq(self, f):
        if f.m == 0:
            return float(f.values[0] ** 2)
        return float(np.dot(self.cylinder_masses(f.m), f.values ** 2))


def markov_measure(pot):
    """Stationary MarkovMeasure of a normalized potential."""
    if not pot.normalized:
        raise ValueError("normalize the potential first")
    sft = pot.sft
    g = sft.block_graph(max(pot.s, 1))
    S = len(g)
    w = np.exp(pot.as_memory(g.t + 1).values)
    try:
        m = np.linalg.solve(g.matrix(w).T - np.eye(S) + np.ones((S, S)) / S, np.full(S, 1.0 / S))
    except np.linalg.LinAlgError as exc:
        p = w.min()
        why = (f"; the smallest transition probability {p:.3g} lies below float64 resolution, "
               "so the chain is numerically reducible" if p < np.finfo(float).eps else "")
        raise NumericalFailure(f"stationary solve failed: {exc}{why}") from exc
    if (m <= 0).any():
        raise NumericalFailure("stationary vector not positive")
    m /= m.sum()
    edge_prob = w * m[g.dst] / m[g.src]
    fix = np.abs(np.bincount(g.dst, m[g.src] * edge_prob, S) - m).max()
    if fix > 1e-12:
        raise NumericalFailure(f"stationary fix-point defect {fix}")
    return MarkovMeasure(sft, pot, edge_prob, m)


def parry_measure(sft):
    """The maximal-entropy (Parry) chain of the subshift."""
    pot, _, _ = normalize_potential(MarkovPotential.constant(sft, 0.0))
    return markov_measure(pot)


def gibbs_chain_from_qm(L, sft):
    """Exact Gibbs chain of a window-additive quasimorphism.

    Returns (measure, normalized potential, log Perron eigenvalue)."""
    pot = MarkovPotential.from_qm(L, sft)
    norm, lam, _ = normalize_potential(pot)
    return markov_measure(norm), norm, float(np.log(lam))


# -- transfer operator on locally constant functions ---------------------------


def transfer_apply(pot, f):
    """(R f)(x) = sum over preimages a.x of e^{phi(a.x)} f(a.x...), in LC_max(t, m-1),
    for one function or each column of a stack: one bincount over the edges of the
    depth-r block graph, whose edges are the (r+1)-words in order, with a bin per
    (column, state), so that each column adds in edge order as it would alone."""
    if not pot.normalized:
        raise ValueError("transfer_apply expects a normalized potential")
    r = max(pot.s, f.m - 1, 1)
    g = pot.sft.block_graph(r)
    vals = f.as_memory(r + 1).values
    k = vals.size // len(vals)
    w = vals.T * np.exp(pot.as_memory(r + 1).values)  # one row per column
    bins = g.dst if k == 1 else (np.arange(k)[:, None] * len(g) + g.dst).ravel()
    out = np.bincount(bins, weights=w.ravel(), minlength=k * len(g)).reshape(k, len(g)).T
    return LocallyConstantFn(pot.sft, r, out.reshape((len(g),) + vals.shape[1:]))


def transfer_matrix(pot, N):
    """Matrix of the transfer operator acting on LC_N (N >= max(s,1))."""
    if N < max(pot.s, 1):
        raise ValueError("transfer_matrix needs N >= max(s, 1)")
    return _transfer_on(pot, N)


def project_conditional(f, mm, s):
    """Conditional expectation of f onto depth-s cylinders under mm."""
    if s > f.m:
        return f.as_memory(s)
    if s == f.m:
        return f
    if s == 0:
        mean = float(np.dot(mm.masses_at(f.m), f.values)) if f.m else f.values[0]
        return LocallyConstantFn.constant(f.sft, mean)
    sft = f.sft
    deep_mass = mm.masses_at(f.m)
    prefix, S = sft.cylinders(f.m).prefix(s), len(sft.cylinders(s))
    num = np.bincount(prefix, deep_mass * f.values, S)  # adds in word order
    den = np.bincount(prefix, deep_mass, S)
    if (den <= 0).any():
        raise ZeroMass("conditional expectation over a null cylinder")
    return LocallyConstantFn(sft, s, num / den)


# -- cohomological equation and variance ----------------------------------------


@dataclass
class CohomologySolve:
    """One solve; for a stack of psi, h is a stack and the numbers are arrays, one per column."""
    h: LocallyConstantFn
    residual: float
    h_sup: float
    diagnostic_bound: float
    lam2: float


def solve_cohomological(pot, psi, mm):
    """Solve (Id - R) h = psi exactly on the zero-mean part of LC_N, as
    h = sum_{k<K} R^k psi + g, K = N - t, with g from the bordered system
    (Id - R + 1 masses^T) g = R^K psi on LC_t (R preserves every mean).

    psi may be a stack: the K pushes and the bordered solve then take every
    column in one pass, and the mean check and the residual gate hold per
    column, an error naming the first column that fails."""
    t = max(pot.s, 1)
    N = max(psi.m, t)
    psi = psi.as_memory(N)
    P = psi.values.reshape(len(psi.values), -1)  # one column per right-hand side
    sup = np.abs(P).max(axis=0)
    scale = np.maximum(1.0, sup)
    mean = np.reshape(mm.integral(psi), -1)
    _per_column(np.abs(mean) <= 1e-10 * scale, MeanNotZero, "integral of psi is {}", mean)
    h_vals = np.zeros_like(psi.values)
    f = psi
    for _ in range(N - t):
        h_vals += f.as_memory(N).values
        f = transfer_apply(pot, f)
    _, M = _block_transfer_matrix(pot)
    Q = np.eye(len(M)) - M + mm.cylinder_masses(t)[None, :]
    try:
        g = np.linalg.solve(Q, f.values)  # f = R^K psi has memory t
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"cohomological solve failed: {exc}") from exc
    h = LocallyConstantFn(pot.sft, N, h_vals) + LocallyConstantFn(pot.sft, t, g)
    residual = np.abs((h - transfer_apply(pot, h) - psi).values).reshape(len(P), -1).max(axis=0)
    h_sup = np.abs(h.values).reshape(len(P), -1).max(axis=0)
    # relative to h too: on nearly reducible chains |h| is huge and rounding scales with it
    _per_column(residual <= 1e-8 * np.maximum(scale, h_sup), SingularSystem,
                "cohomological residual {} too large", residual)
    lam2 = mm.lam2()
    bowen_est = (N - 1) * (P.max(axis=0) - P.min(axis=0))
    bound = np.sqrt(pot.sft.d) / (1.0 - lam2) * np.sqrt(pot.s + 1) * (sup + bowen_est)
    if psi.values.ndim == 1:  # one psi: plain numbers
        return CohomologySolve(h, float(residual[0]), float(h_sup[0]), float(bound[0]), lam2)
    return CohomologySolve(h, residual, h_sup, bound, lam2)


def _per_column(ok, error, message, values):
    """Raise error(message) for the first column where ok fails (a NaN fails)."""
    for j in np.flatnonzero(~ok)[:1]:
        raise error(f"{message.format(values[j])} (column {j})")


def martingale_part(pot, psi, h):
    """psi_bar = h - (R h) o tau; in Ker R, and psi - psi_bar is a coboundary."""
    rh = transfer_apply(pot, h)
    psi_bar = h - rh.shift()
    return psi_bar


@dataclass
class VarianceResult:
    sigma2_martingale: float
    sigma2_green_kubo: float
    agreement: float
    n_terms: int
    lam2: float

    @property
    def sigma2(self):
        return self.sigma2_martingale


def variance(pot, psi, mm):
    """Two-way CLT variance: ||psi_bar||^2 and the Green-Kubo series."""
    N = max(psi.m, pot.s, 1)
    psi = psi.as_memory(N)
    solve = solve_cohomological(pot, psi, mm)
    psi_bar = martingale_part(pot, psi, solve.h)
    sigma2_mart = mm.l2_norm_sq(psi_bar)
    sigma2 = mm.l2_norm_sq(psi)
    scale = max(1.0, sigma2)
    lam2 = solve.lam2
    if lam2 < 1e-12:
        n_cut = 64
    else:
        n_cut = int(min(20000, max(64, np.ceil(np.log(1e-13) / np.log(lam2)) * 4)))
    f = psi
    small = 0
    n_used = 0
    for n in range(1, n_cut + 1):
        f = transfer_apply(pot, f)
        term = float(np.dot(mm.cylinder_masses(N), f.as_memory(N).values * psi.values))
        sigma2 += 2.0 * term
        n_used = n
        # lags shorter than the memory of psi can correlate exactly zero
        small = small + 1 if n >= N and abs(term) < 1e-13 * scale else 0
        if small >= 5:
            break
    agreement = abs(sigma2_mart - sigma2)
    return VarianceResult(float(sigma2_mart), float(sigma2), float(agreement), n_used, lam2)


def cyclic_birkhoff_sums(f, arr, n):
    """S_n f along the periodic point of each row of a symbol array: f on the
    cyclic windows l < n of each row, added in l order."""
    k = max(f.m, 1)
    table, idx = f.as_memory(k).values, f.sft.cylinders(k)
    total = np.zeros(len(arr))
    for l in range(n):
        total += table[idx.index_of_codes(window_codes(arr, l, k, f.sft.d))]
    return total


def degeneracy_test(psi, pot, mm, n_max=8, tol=1e-10):
    """Cross-check sigma = 0 against the periodic-orbit (Livsic) criterion."""
    from .errors import InconsistentVerdicts

    sft = pot.sft
    scale = max(1.0, psi.sup_norm())
    var = variance(pot, psi, mm)
    sigma_trivial = var.sigma2_martingale <= tol * scale ** 2
    worst, witness = 0.0, None
    for n in range(1, n_max + 1):
        arr = sft.word_array(n, periodic=True)
        avg = np.abs(cyclic_birkhoff_sums(psi, arr, n) / n)
        if len(arr) and avg.max() > worst:  # the first word of the largest average
            worst, witness = float(avg.max()), tuple(arr[avg.argmax()].tolist())
    livsic_trivial = worst <= tol * scale
    if sigma_trivial != livsic_trivial:
        raise InconsistentVerdicts(
            f"sigma2 = {var.sigma2_martingale} but max periodic average = {worst}"
        )
    return {
        "sigma2": var.sigma2_martingale,
        "trivial": sigma_trivial,
        "max_periodic_average": worst,
        "witness": witness,
    }
