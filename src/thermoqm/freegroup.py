"""Free-group instantiation: the no-cancellation subshift, reduced and cyclic
words, Brooks counting quasimorphisms, the conjugacy-class compactification,
and spherical / boundary-ray CLT experiments.

Letters of the rank-r free group are encoded as 0..2r-1 with generator g at
index 2g and its inverse at 2g+1, so inversion is XOR with 1.  Rendered
names: a, b, c, ... for generators, A, B, C, ... for inverses.

Kept without an op: `FreeGroup.cyclic_reduce`, `pushforward_measure` and
`sphere_sample` (demo 07).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import parry_measure
from .measures import CylinderMeasure
from .qm import SignedPatternCount
from .sft import Sft
from .experiments import clt_experiment, sample_paths, sigma2_of, uniform_sphere_chain


class FreeGroup:
    def __init__(self, rank):
        if rank < 2:
            raise ValueError("the no-cancellation subshift needs rank >= 2")
        self.rank = rank
        self.d = 2 * rank
        self._sft = None

    def inverse_word(self, word):
        return tuple(x ^ 1 for x in reversed(tuple(word)))

    def sft(self):
        if self._sft is None:
            d = self.d
            R = np.ones((d, d), dtype=int)
            for i in range(d):
                R[i, i ^ 1] = 0
            self._sft = Sft(R, name=f"free_group({self.rank})")
        return self._sft

    def render(self, word):
        return "".join(
            chr((ord("A") if x & 1 else ord("a")) + (x >> 1)) for x in word
        )

    def parse(self, text):
        out = []
        for ch in text:
            if "a" <= ch <= "z":
                g = ord(ch) - ord("a")
                out.append(2 * g)
            elif "A" <= ch <= "Z":
                g = ord(ch) - ord("A")
                out.append(2 * g + 1)
            else:
                raise ValueError(f"bad letter {ch!r}")
            if out[-1] >= self.d:
                raise ValueError(f"letter {ch!r} outside rank {self.rank}")
        return tuple(out)

    def reduce(self, word):
        """Free reduction: delete adjacent x x^{-1} pairs until none remain."""
        out = []
        for x in word:
            if out and out[-1] == (x ^ 1):
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def cyclic_reduce(self, word):
        w = list(self.reduce(word))
        while len(w) >= 2 and w[0] == (w[-1] ^ 1):
            w = w[1:-1]
        return tuple(w)

    def is_reduced(self, word):
        return all(b != (a ^ 1) for a, b in zip(word, word[1:]))

    def sphere_size(self, n):
        return self.d * (self.d - 1) ** (n - 1) if n >= 1 else 1


def brooks(group, pattern):
    """Brooks quasimorphism h_w = occ(w, .) - occ(w^{-1}, .) on reduced words."""
    pattern = group.parse(pattern) if isinstance(pattern, str) else tuple(pattern)
    if not pattern:
        raise ValueError("pattern must be nonempty")
    if not group.is_reduced(pattern):
        raise ValueError("pattern must be a reduced word")
    return SignedPatternCount(pattern, group.inverse_word(pattern))


# -- conjugacy-class compactification ---------------------------------------------


@dataclass
class CompactificationResult:
    depth: int
    rows: list  # per n: {"n", "tv", "words"}
    monotone: bool


def _pushforward_masses(group, n, depth):
    """Exact depth-k masses of the uniform measure on cyclic words of length <= n.

    Each cyclic word of length l spreads mass 1/(#B_n l) over its l windows;
    summing windows over all of Fix_l equals counting, per starting cylinder,
    closed walks through the cylinder -- so matrix powers replace enumeration.
    """
    sft = group.sft()
    words = sft.cylinders(depth).array
    counts, total = np.zeros(len(words), dtype=object), 0  # exact Python ints
    for ell in range(1, n + 1):
        total += sft.periodic_count(ell)
        if ell >= depth:
            counts += sft._R_intpow(ell - depth + 1)[words[:, -1], words[:, 0]]
        else:  # the cylinder words of period ell
            counts += (words == words[:, np.arange(depth) % ell]).all(axis=1).astype(object)
    return (counts / total).astype(float), total


def pushforward_measure(group, n, depth):
    masses, _ = _pushforward_masses(group, n, depth)
    return CylinderMeasure(group.sft(), {depth: masses})


def compactification_experiment(group, n_list, depth):
    """TV distance between the cyclic-word pushforwards and the Parry chain."""
    if not n_list:
        raise ValueError(f"n_list must be nonempty, got {n_list}")
    if min(n_list) < 1:
        raise ValueError(f"n_list entries must be >= 1, got {n_list}")
    sft = group.sft()
    parry = parry_measure(sft).cylinder_masses(depth)
    rows = []
    for n in sorted(set(int(n) for n in n_list)):
        masses, total = _pushforward_masses(group, n, depth)
        tv = 0.5 * float(np.abs(masses - parry).sum())
        rows.append({"n": n, "tv": tv, "cyclic_words": total})
    monotone = all(rows[i + 1]["tv"] < rows[i]["tv"] for i in range(len(rows) - 1))
    return CompactificationResult(depth, rows, monotone)


# -- sphere sampling and the spherical CLT ----------------------------------------


def sphere_sample(group, n, count, seed):
    """Uniform samples from the radius-n sphere, as a (count, n) letter array
    (sample t is the uniform sphere chain's path keyed by (seed, t))."""
    return sample_paths(uniform_sphere_chain(group.sft()), n, count, seed)


@dataclass
class SphericalCltResult:
    stats: np.ndarray
    ks: float
    dkw: float
    mean_stat: float
    mean_se: float
    sigma2: float
    sphere_size: int
    n: int
    count: int
    seed: int


def _spherical_stats(group, pattern, n, count, seed, workers, mm, sigma2):
    """L(g)/(sigma sqrt n) over count paths of mm vs the normal; sigma^2 by default from Parry."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if count == 1:
        raise ValueError("count must be >= 2 for a standard error, got 1")
    L = brooks(group, pattern) if not hasattr(pattern, "value") else pattern
    if sigma2 is None:
        sigma2 = sigma2_of(L, parry_measure(group.sft())).sigma2_martingale
    res = clt_experiment(L, mm, n, count, seed, workers=workers, sigma2=sigma2)
    se = float(res.stats.std(ddof=1) / np.sqrt(count))
    return SphericalCltResult(res.stats, res.ks, res.dkw, float(res.stats.mean()), se,
                              res.sigma2, group.sphere_size(n), n, count, seed)


def spherical_clt(group, pattern, n, count, seed, workers=1, sigma2=None):
    """Law of L(g)/(sigma sqrt n) over uniform sphere samples vs the normal.

    Sphere prefixes are the uniform non-backtracking chain, built exactly; it
    has the law of the Parry chain, which is where sigma^2 comes from.
    """
    mm = uniform_sphere_chain(group.sft())
    return _spherical_stats(group, pattern, n, count, seed, workers, mm, sigma2)


def boundary_ray_clt(group, pattern, n, count, seed, workers=1, sigma2=None):
    """Same statistic along boundary rays started at the identity.

    For a free group with its standard generators the Patterson-Sullivan lift
    is exactly the Parry chain, so rays walk that chain as its eigensolve gives
    it; the law agrees with spherical sampling up to the sampling bands.
    """
    mm = parry_measure(group.sft())
    return _spherical_stats(group, pattern, n, count, seed, workers, mm, sigma2)
