"""Quasimorphisms on finite words and their quasicocycles.

A quasimorphism here is an evaluation rule L on admissible words with a
declared bound for the concatenation defect |L(ab) - L(a) - L(b)|, evaluated
on the rows of (count, n) symbol arrays; one word is a one-row array.  The
letter-weight and pattern-count kinds are *window additive* (`WindowQm`): L(a)
is a sum of fixed kernels over the windows inside a, a locally constant
function on the edges of a higher-block presentation (`edge_form`).  That
unlocks exact transfer-matrix partition functions and exact cyclic
homogenization; everything else falls back to direct evaluation.

Kept without an op: `cyclic_average`, `quasicocycle_of` and
`qm_of_quasicocycle` (demo 02), `Quasimorphism.norm_upper`,
`Quasimorphism.letter_sup` and `HomInterval.mid` (item 8).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DepthExceeded, ResourceLimit
from .sft import window_codes, word_cap


def _row(word):
    """word as a one-row symbol array, on the alphabet its symbols need."""
    arr = np.array(word, dtype=np.int64).reshape(1, -1)
    return arr, int(arr.max(initial=0)) + 1


class Quasimorphism:
    """A kind defines `value` on one word or `values` on a (count, n) array of words
    on d symbols, with closed forms for L(a^m) and the homogenization where it has
    them; the word forms are row 0 of the array forms, which loop `value` over rows."""

    kind = "base"
    defect_bound = 0.0

    def value(self, word):
        return float(self.values(*_row(word))[0])

    def power_value(self, word, m):  # L(word^m)
        return float(self.power_values(*_row(word), m)[0])

    def homogenized_value(self, word):
        """The homogenization lim L(word^k)/k, or its midpoint estimate at k = 64."""
        return float(self.homogenized_values(*_row(word))[0])

    def values(self, arr, d):
        return np.array([self.value(w) for w in map(tuple, arr.tolist())], dtype=float)

    def power_values(self, arr, d, m):
        return self.values(np.tile(arr, m), d)

    def homogenized_values(self, arr, d):
        return self.power_values(arr, d, 64) / 64

    def window_tables(self, d):
        """dict width -> dense kernel array over d**width codes, or None."""
        return None

    def carried_window(self, d):
        """(q, add) where `values` adds one dense width-q table over the windows
        inside a word in start order: a word of at least q symbols then has
        add(its prefix's value, the code of the window at its last symbol), in
        the same float additions (`Sft.prefix_sweep`).  None where not: several
        widths add width by width, and other kinds have their own arithmetic."""
        return None

    def edge_form(self, sft):
        """L on the depth-t block graph g, t = max(Q-1, 1) for Q the widest window:
        (g, f, start), f on each edge the windows that end at its new symbol, start
        on each state the windows inside it.  L(a) is start at a's first t symbols
        plus the sum of f along a's path, and the sum of f around a periodic word's
        closed walk is its homogenized value.  None without window tables; kept per SFT."""
        forms = self.__dict__.setdefault("_edge_forms", {})
        if sft not in forms and (kernels := self.window_tables(sft.d)) is not None:
            t = max(max(kernels) - 1, 1)
            g = sft.block_graph(t)
            words = g.states.array  # edge e: the word of state src[e], then symbol sym[e]
            edges = np.column_stack([words[g.src], g.sym.astype(words.dtype)])
            forms[sft] = (g, window_sums(kernels, edges, sft.d, lambda q, i0: int(i0 == t + 1 - q)),
                          window_sums(kernels, words, sft.d, inside(t)))
        return forms.get(sft)

    def step_potential(self, sft):
        """(s, table) with s = Q - 1 and on each (s+1)-cylinder the windows that
        start at its first symbol: a memory-s potential whose Birkhoff sums track L."""
        if (kernels := self.window_tables(sft.d)) is None:
            raise ValueError("quasimorphism is not window-additive")
        s = max(kernels) - 1
        return s, window_sums(kernels, sft.cylinders(s + 1).array, sft.d, lambda q, i0: int(i0 == 0))

    def letter_sup(self, sft):
        """sup |L| over words of length <= M (the norm's local part)."""
        return max(float(np.abs(self.values(sft.word_array(n), sft.d)).max())
                   for n in range(1, sft.M + 1))

    def norm_upper(self, sft):
        return self.letter_sup(sft) + self.defect_bound

    def __rmul__(self, c):
        return LinearCombinationQm([(float(c), self)])

    def __add__(self, other):
        return LinearCombinationQm([(1.0, self), (1.0, other)])


# Window counts count(q, i0) of L(a) (windows inside a, |a| = n), of L(a^m)
# (starts i0 + jn inside a^m) and of lim L(a^m)/m (every cyclic window once).
def inside(n):
    return lambda q, i0: int(i0 <= n - q)


def _repeats(n, m):
    return lambda q, i0: (m * n - q - i0) // n + 1 if i0 <= m * n - q else 0


def _once(q, i0):
    return 1


def window_sums(tables, arr, d, count):
    """Per row of a (count, n) symbol array: the sum over the widths q of the dense
    `tables`, in their order, then over the starts i0 < n, of count(q, i0) times the
    entry of the window at i0 (windows wrap cyclically, count-0 starts are skipped)."""
    total = np.zeros(len(arr))
    for q, table in tables.items():
        for i0 in range(arr.shape[1]):
            c = count(q, i0)
            if c:
                total += c * table[window_codes(arr, i0, q, d)]
    return total


class WindowQm(Quasimorphism):
    """L(a) = `window_sums` of the kernels {q: {window tuple: coef}} over the windows
    of a, with a declared bound on the concatenation defect.  No kernel at all is
    the zero quasimorphism."""

    def __init__(self, kernels, defect_bound):
        self.kernels = {q: {tuple(w): float(c) for w, c in table.items()}
                        for q, table in kernels.items()} or {1: {}}
        if any(q < 1 or len(w) != q or min(w) < 0
               for q, table in self.kernels.items() for w in table):
            raise ValueError("kernel windows must have their width's length, at least 1, "
                             "and no negative symbol")
        self.defect_bound = float(defect_bound)
        self._tables = {}

    def window_tables(self, d):
        if d not in self._tables:  # built once per d, shared by every caller
            cells = sum(d ** q for q in self.kernels)
            if cells > word_cap():
                raise ResourceLimit(f"window tables of widths {sorted(self.kernels)} on {d} "
                                    f"symbols need {cells} cells, over the word cap")
            self._tables[d] = {q: np.zeros(d ** q) for q in self.kernels}
            for q, table in self.kernels.items():
                wins = [win for win in table if max(win) < d]  # off the alphabet: never occurs
                codes = window_codes(np.array(wins, dtype=np.int64).reshape(-1, q), 0, q, d)
                np.add.at(self._tables[d][q], codes, [table[w] for w in wins])  # 0.0 + coef
        return self._tables[d]

    def values(self, arr, d):
        return window_sums(self.window_tables(d), arr, d, inside(arr.shape[1]))

    def carried_window(self, d):
        tables = self.window_tables(d)
        if len(tables) != 1:
            return None
        (q, table), = tables.items()
        return q, lambda value, window: value + table[window]

    def power_values(self, arr, d, m):
        if set(self.kernels) == {1}:  # no window crosses a junction of a^m
            return m * self.values(arr, d)
        return window_sums(self.window_tables(d), arr, d, _repeats(arr.shape[1], m))

    def homogenized_values(self, arr, d):  # exact: every cyclic window once
        return window_sums(self.window_tables(d), arr, d, _once)


_WindowAdditive = WindowQm  # the name the benchmark's layer trace wraps


class LetterWeights(WindowQm):
    """Zero-defect homomorphism L(a) = sum of per-letter weights."""

    kind = "letter_weights"

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        super().__init__({1: {(i,): float(w) for i, w in enumerate(self.weights) if w != 0.0}}, 0.0)


def zero_qm(d):
    return LetterWeights(np.zeros(d))


class PatternCount(WindowQm):
    """L(a) = occ(p, a); junction defect at most |p| - 1."""

    kind = "pattern_count"

    def __init__(self, pattern):
        self.pattern = tuple(pattern)
        if not self.pattern:
            raise ValueError("pattern must be nonempty")
        super().__init__({len(self.pattern): {self.pattern: 1.0}}, len(self.pattern) - 1)


class SignedPatternCount(WindowQm):
    """L(a) = occ(p, a) - occ(p', a), the Brooks-style signed count."""

    kind = "signed_pattern_count"

    def __init__(self, pattern, anti):
        self.pattern = tuple(pattern)
        self.anti = tuple(anti)
        if not self.pattern or not self.anti:
            raise ValueError("patterns must be nonempty")
        kernels = {len(self.pattern): {self.pattern: 1.0}}
        table = kernels.setdefault(len(self.anti), {})
        table[self.anti] = table.get(self.anti, 0.0) - 1.0
        super().__init__(kernels, len(self.pattern) - 1 + len(self.anti) - 1)


class LinearCombinationQm(Quasimorphism):
    kind = "linear_combination"

    def __init__(self, terms):
        self.terms = [(float(c), L) for c, L in terms]
        self.defect_bound = sum((abs(c) * L.defect_bound for c, L in self.terms), 0.0)

    def values(self, arr, d):
        return sum((c * L.values(arr, d) for c, L in self.terms), np.zeros(len(arr)))

    def power_values(self, arr, d, m):
        return sum((c * L.power_values(arr, d, m) for c, L in self.terms), np.zeros(len(arr)))

    def homogenized_values(self, arr, d):
        return sum((c * L.homogenized_values(arr, d) for c, L in self.terms), np.zeros(len(arr)))

    def window_tables(self, d):
        merged = {}
        for c, L in self.terms:
            tabs = L.window_tables(d)
            if tabs is None:
                return None
            for q, arr in tabs.items():
                merged[q] = merged[q] + c * arr if q in merged else c * arr
        return merged or {1: np.zeros(d)}  # no terms: the zero quasimorphism


class TabulatedQm(Quasimorphism):
    """Values tabulated on W_{<=N}; beyond that either fail or use the
    longest-tabulated-prefix extension rule."""

    kind = "tabulated"

    def __init__(self, tables, defect_bound, extend=False):
        self.tables = {int(n): dict(t) for n, t in tables.items()}
        self.n_max = max(self.tables) if self.tables else 0
        self.defect_bound = float(defect_bound)
        self.extend = extend
        self.extended_evaluations = 0

    def value(self, word):
        word = tuple(word)
        n = len(word)
        if n == 0:
            return 0.0
        if n <= self.n_max and word in self.tables.get(n, ()):
            return self.tables[n][word]
        if not self.extend:
            raise DepthExceeded(f"word of length {n} beyond tabulated depth {self.n_max}")
        self.extended_evaluations += 1
        for k in range(min(n, self.n_max), 0, -1):
            if word[:k] in self.tables.get(k, ()):
                return self.tables[k][word[:k]]
        return 0.0


class PerturbedQm(Quasimorphism):
    """base + b with b a bounded tabulated bump; same cohomology class as base."""

    kind = "bounded_perturbation"

    def __init__(self, base, bump):
        self.base = base
        self.bump = bump
        sup = max((abs(v) for t in bump.tables.values() for v in t.values()), default=0.0)
        self.bump_sup = float(sup)
        self.defect_bound = base.defect_bound + 3.0 * self.bump_sup

    def values(self, arr, d):
        return self.base.values(arr, d) + self.bump.values(arr, d)

    def power_values(self, arr, d, m):
        return self.base.power_values(arr, d, m) + self.bump.power_values(arr, d, m)


# -- defect ------------------------------------------------------------------

_DEFECT_PAIRS = 1 << 16  # pairs or word values evaluated at once, ~50 B each


@dataclass
class DefectReport:
    value: float
    n_max: int
    pairs: int
    argmax: tuple
    lower_bound: bool = True  # brute force under-counts the true sup


def defect(L, sft, n_max):
    """Empirical sup of |L(ab) - L(a) - L(b)| over pairs with |a|+|b| <= n_max."""
    if n_max < 2:
        raise ValueError("defect needs n_max >= 2")
    total_pairs = sum(sft.word_count(n) * sft.word_count(m)
                      for n in range(1, n_max) for m in range(1, n_max - n + 1))
    if total_pairs > word_cap():
        raise ResourceLimit(f"{total_pairs} concatenable pairs exceed the word cap")
    words = {n: sft.word_array(n) for n in range(1, n_max)}
    vals = {n: np.concatenate([L.values(arr[lo:lo + _DEFECT_PAIRS], sft.d)  # in slices of rows
                               for lo in range(0, len(arr), _DEFECT_PAIRS)]) for n, arr in words.items()}
    best, arg, pairs = 0.0, ((), ()), 0
    for n in range(1, n_max):
        step = max(1, _DEFECT_PAIRS // len(words[n]))  # b rows a chunk, or one against slices of a
        for m in range(1, n_max - n + 1):  # pairs (a, b), a.b admissible: b-major, then a
            for lo, alo in itertools.product(range(0, len(words[m]), step),
                                             range(0, len(words[n]), _DEFECT_PAIRS)):
                A, va = words[n][alo:alo + _DEFECT_PAIRS], vals[n][alo:alo + _DEFECT_PAIRS]
                B, vb = words[m][lo:lo + step], vals[m][lo:lo + step]
                bi, ai = np.nonzero(sft.R[A[:, -1][None, :], B[:, 0][:, None]])
                pairs += len(ai)
                dev = np.abs(L.values(np.concatenate([A[ai], B[bi]], axis=1), sft.d) - va[ai] - vb[bi])
                hits = np.flatnonzero(dev > best)
                if len(hits):  # the first strict maximum, as a pair-by-pair loop finds it
                    i = hits[np.argmax(dev[hits])]
                    best, arg = float(dev[i]), (tuple(A[ai[i]].tolist()), tuple(B[bi[i]].tolist()))
    return DefectReport(best, n_max, pairs, arg)


# -- homogenization and cyclic averaging --------------------------------------


@dataclass
class HomInterval:
    lo: float
    hi: float
    m: int

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self):
        return self.hi - self.lo


def homogenize(L, word, m):
    """Certified interval for the homogenization lim L(word^k)/k at power m."""
    if m < 1:
        raise ValueError("homogenize needs m >= 1")
    v = L.power_value(word, m) / m
    slack = L.defect_bound / m
    return HomInterval(v - slack, v + slack, m)


def cyclic_average(L, word):
    """Average of L over the cyclic rotations of a periodic word."""
    arr, d = _row(word)
    n = arr.shape[1]
    rotations = arr[0, (np.arange(n)[:, None] + np.arange(n)) % n]  # row j: word[j:] + word[:j]
    return float(np.cumsum(np.r_[0.0, L.values(rotations, d)])[-1]) / n  # added in j order


# -- quasicocycles -------------------------------------------------------------


class Quasicocycle:
    """Per-depth tables B_n on cylinders, locally constant by construction."""

    def __init__(self, sft, tables):
        self.sft = sft
        self.tables = tables  # depth -> np array over cylinders(depth)
        self.n_max = max(tables)
        self.bowen_norm = 0.0  # tables are locally constant

    def value(self, n, word):
        if n not in self.tables:
            raise DepthExceeded(f"no table at depth {n}")
        return float(self.tables[n][self.sft.cylinders(n).index(tuple(word)[:n])])

    def delta_estimate(self):
        """sup over split points of |B_{n+m} - B_n - B_m o tau^n| on stored depths.
        Each split's positions are read once and not kept on the cylinders."""
        best = 0.0
        for total in range(2, self.n_max + 1):
            idx = self.sft.cylinders(total)  # w = u.v: u its n-prefix, v its m-suffix
            for n in range(1, total):
                m = total - n
                best = max(best, float(np.abs(self.tables[total]
                                              - self.tables[n][idx.positions("prefix", n)]
                                              - self.tables[m][idx.positions("suffix", m)]).max()))
        return best

    def scaled(self, c):
        return Quasicocycle(self.sft, {n: c * t for n, t in self.tables.items()})


def quasicocycle_of(L, sft, n_max):
    """Tables B_n = L on depth-n cylinders for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max >= 1")
    total = sum(sft.word_count(n) for n in range(1, n_max + 1))
    if total > word_cap():
        raise ResourceLimit(f"{total} cylinder values exceed the word cap")
    tables = {n: L.values(sft.cylinders(n).array, sft.d) for n in range(1, n_max + 1)}
    return Quasicocycle(sft, tables)


def qm_of_quasicocycle(B):
    """Tabulated quasimorphism L(a) = B_{|a|} on [a]; strict about depth."""
    tables = {}
    for n, arr in B.tables.items():
        idx = B.sft.cylinders(n)
        tables[n] = {w: float(arr[i]) for i, w in enumerate(idx.words)}
    return TabulatedQm(tables, defect_bound=B.delta_estimate() + 2.0 * B.bowen_norm)


# -- the periodic-orbit cohomology decision -----------------------------------


@dataclass
class CohomologyVerdict:
    verdict: str  # cohomologous | distinct | inconclusive
    witness: tuple | None
    certificate_depth: int
    resolution: float
    max_width: float
    certificate_only: bool = True  # a Cohomologous answer is bounded-depth only


def cohomologous(L, L2, sft, n_max, m=None, resolution=1e-2):
    """Compare homogenization intervals on every periodic word up to n_max.

    Distinct (disjoint intervals somewhere) is rigorous; Cohomologous means
    all intervals overlapped and shrank below `resolution`, a bounded-depth
    certificate only.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    delta = max(L.defect_bound, L2.defect_bound)
    if m is None:
        m = max(1, int(np.ceil(2.0 * delta / resolution)))
    total = sum(sft.periodic_count(n) for n in range(1, n_max + 1))
    if total > word_cap():
        raise ResourceLimit(f"{total} periodic words exceed the word cap")
    max_width = 0.0
    s1, s2 = L.defect_bound / m, L2.defect_bound / m
    for n in range(1, n_max + 1):
        arr = sft.word_array(n, periodic=True)  # homogenize() on each row
        v1, v2 = L.power_values(arr, sft.d, m) / m, L2.power_values(arr, sft.d, m) / m
        lo1, hi1, lo2, hi2 = v1 - s1, v1 + s1, v2 - s2, v2 + s2
        apart = np.flatnonzero(~((lo1 <= hi2) & (lo2 <= hi1)))
        upto = apart[0] + 1 if len(apart) else len(arr)  # widths up to the witness
        # fmax skips NaN as max() does
        max_width = float(np.fmax.reduce(np.fmax(hi1 - lo1, hi2 - lo2)[:upto], initial=max_width))
        if len(apart):
            return CohomologyVerdict("distinct", tuple(arr[apart[0]].tolist()), n, resolution,
                                     max_width, certificate_only=False)
    if max_width <= resolution * (1.0 + 1e-9):
        return CohomologyVerdict("cohomologous", None, n_max, resolution, max_width)
    return CohomologyVerdict("inconclusive", None, n_max, resolution, max_width)
