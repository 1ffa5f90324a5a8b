"""Finite-depth cylinder measures.

A CylinderMeasure stores mass vectors over the admissible words of one or
more depths.  It is the computable avatar of an invariant measure: Kolmogorov
consistency and shift invariance are checked numerically, never assumed.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroMass
from .sft import WordIndex, render_word


class CylinderMeasure:
    def __init__(self, sft, masses, check=True, tol=1e-9):
        self.sft = sft
        self.masses = {int(k): np.asarray(v, dtype=float) for k, v in masses.items()}
        if check:
            for k, arr in self.masses.items():
                if len(arr) != len(sft.cylinders(k)):
                    raise ValueError(f"depth {k} mass vector has wrong length")
                if arr.min() < -tol:
                    raise ValueError("negative cylinder mass")
                if abs(arr.sum() - 1.0) > tol:
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

    def require_full_support(self, depth):
        arr = self.masses_at(depth)
        if (arr <= 0.0).any():
            dead = int((arr <= 0.0).sum())
            raise ZeroMass(f"{dead} depth-{depth} cylinders carry no mass")

    def to_json(self):
        return {
            "d": self.sft.d,
            "depths": {
                str(k): {render_word(w): float(m) for w, m in zip(self.sft.cylinders(k).words, arr)}
                for k, arr in sorted(self.masses.items())
            },
        }

    @classmethod
    def from_json(cls, sft, obj):
        masses = {}
        for k_str, table in obj["depths"].items():
            k = int(k_str)
            idx = sft.cylinders(k)
            arr = np.zeros(len(idx))
            arr[idx.index_of_words(table)] = list(table.values())
            masses[k] = arr
        return cls(sft, masses)


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
    word = tuple(word)
    if not sft.wraps(word):
        raise ValueError("orbit measure needs a periodic word")
    n = len(word)
    masses = {}
    for k in depths:
        idx = sft.cylinders(k)
        arr = np.zeros(len(idx))
        for j in range(n):
            arr[idx.index(sft.cyclic_window(word, j, k))] += 1.0 / n
        masses[k] = arr
    return CylinderMeasure(sft, masses)
