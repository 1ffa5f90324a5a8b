"""Finite-depth cylinder measures.

A CylinderMeasure stores mass vectors over the admissible words of one or
more depths.  It is the computable avatar of an invariant measure: Kolmogorov
consistency and shift invariance are checked numerically, never assumed.

Kept without an op: `CylinderMeasure.tv_distance` (demo 03) and
`periodic_orbit_measure` (item 8: the measure of one periodic orbit).
"""

from __future__ import annotations

import numpy as np

from .sft import WordIndex

_ORBIT_CELLS = 1 << 15  # word positions per chunk of orbit_masses
_TOL = 1e-9  # how far a stored mass may lie below 0, and a depth's sum from 1


class CylinderMeasure:
    def __init__(self, sft, masses):
        self.sft = sft
        self.masses = {int(k): np.asarray(v, dtype=float) for k, v in masses.items()}
        for k, arr in self.masses.items():
            if len(arr) != len(sft.cylinders(k)):
                raise ValueError(f"depth {k} mass vector has wrong length")
            if arr.min() < -_TOL:
                raise ValueError("negative cylinder mass")
            if abs(arr.sum() - 1.0) > _TOL:
                raise ValueError(f"depth {k} masses sum to {arr.sum()}, not 1")

    def depths(self):
        return sorted(self.masses)

    @property
    def max_depth(self):
        return max(self.masses)

    def masses_at(self, k):
        if k not in self.masses:
            raise KeyError(f"no masses stored at depth {k}")
        return self.masses[k]

    def mass(self, word):
        """The mass of the cylinder of a word: 1.0 for the empty word, 0.0 for
        one that is not admissible (a symbol off the alphabet included)."""
        word = tuple(word)
        if len(word) == 0:
            return 1.0
        idx = self.sft.cylinders(len(word))
        if word not in idx:
            return 0.0
        return float(self.masses_at(len(word))[idx.index(word)])

    def consistency_defect(self):
        """max over stored adjacent depths of |mass[a] - sum_s mass[a.s]|."""
        return self._rollup_defect(WordIndex.prefix)

    def invariance_defect(self):
        """max over depths of |sum_a mass[a.w] - mass[w]| (one-step shift)."""
        return self._rollup_defect(WordIndex.suffix)

    def _rollup_defect(self, part):
        """max over stored k, k+1 of |mass - (k+1)-masses added onto their k-part|."""
        worst = 0.0
        for k in self.depths():
            if k + 1 in self.masses:
                onto = part(self.sft.cylinders(k + 1), k)
                rolled = np.bincount(onto, self.masses[k + 1], len(self.masses[k]))  # in word order
                worst = max(worst, float(np.abs(rolled - self.masses[k]).max()))
        return worst

    def tv_distance(self, other, depth):
        a = self.masses_at(depth)
        b = other.masses_at(depth) if isinstance(other, CylinderMeasure) else np.asarray(other)
        return 0.5 * float(np.abs(a - b).sum())

    def to_json(self):
        return {"d": self.sft.d, "depths": {str(k): self.sft.cylinders(k).render_table(arr)
                                            for k, arr in sorted(self.masses.items())}}

    @classmethod
    def from_json(cls, sft, obj):
        return cls(sft, {int(k): sft.cylinders(int(k)).parse_table(table)
                         for k, table in obj["depths"].items()})


def bernoulli_measure(sft, p, depths):
    """Product measure on a full shift."""
    p = np.asarray(p, dtype=float)
    if not (sft.R == 1).all():
        raise ValueError("bernoulli_measure needs a full shift")
    if abs(p.sum() - 1.0) > 1e-12 or (p < 0).any():
        raise ValueError("probabilities must be nonnegative and sum to 1")
    return CylinderMeasure(sft, {k: p[sft.cylinders(k).array].prod(axis=1) for k in depths})


def periodic_orbit_measure(sft, word, depths):
    """The invariant probability carried by the orbit of p(word)."""
    if not sft.wraps(word):
        raise ValueError("orbit measure needs a periodic word")
    return CylinderMeasure(sft, orbit_masses(sft, np.array([word]), np.array([1.0 / len(word)]), depths))


def orbit_masses(sft, words, weight, depths):
    """Masses at each depth k in `depths` of the periodic points of a (count, N) array
    of wrapping words: a word puts its `weight` on each of its N cyclic k-windows
    (for k > N around it again).  Chunks of about _ORBIT_CELLS word positions add
    onto the running masses, word by word and position by position, as one pass."""
    idx = {k: sft.cylinders(k) for k in depths}
    masses = {k: np.zeros(len(cyl)) for k, cyl in idx.items()}
    N, top = words.shape[1], max(idx, default=0)
    step = max(1, _ORBIT_CELLS // N)
    for lo in range(0, len(words), step):
        wrapped = words[lo:lo + step][:, np.arange(N + top - 1) % N]  # one period and a bit
        spread = np.repeat(weight[lo:lo + step], N)
        codes = np.zeros((len(wrapped), N), dtype=np.int64)
        for k in range(1, top + 1):  # codes[:, j]: the depth-k window from position j
            codes = codes * sft.d + wrapped[:, k - 1:k - 1 + N]
            if k in idx:  # bincount adds in input order: the running masses first
                at = np.concatenate([np.arange(len(idx[k])), idx[k].index_of_codes(codes.ravel())])
                masses[k] = np.bincount(at, np.concatenate([masses[k], spread]), len(idx[k]))
    return masses
