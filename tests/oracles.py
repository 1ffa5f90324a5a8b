"""Brute-force references the tests compare the library against: word-at-a-time
loops and enumerations, frozen as they were when they left the library."""

import numpy as np

from thermoqm.errors import ResourceLimit
from thermoqm.measures import CylinderMeasure, orbit_masses
from thermoqm.sft import word_cap


def encode_word(word, d):
    """Base-d code of a word, most significant symbol first."""
    c = 0
    for s in word:
        c = c * d + s
    return c


def count_occurrences(pattern, word):
    """Overlapping occurrences of pattern inside word (e.g. 00 in 000 -> 2)."""
    p, w = tuple(pattern), tuple(word)
    q, n = len(p), len(w)
    if q == 0 or q > n:
        return 0
    return sum(1 for i in range(n - q + 1) if w[i:i + q] == p)


def sphere_enumerate(group, n):
    """All reduced words of length n (oracle for small n)."""
    d = group.d
    words = [(x,) for x in range(d)]
    for _ in range(n - 1):
        words = [w + (y,) for w in words for y in range(d) if y != (w[-1] ^ 1)]
    return words


def pushforward_measure_enumerated(group, n, depth):
    """Brute-force oracle for the pushforward, for small n only."""
    sft = group.sft()
    total = sum(sft.periodic_count(ell) for ell in range(1, n + 1))
    if total > word_cap():
        raise ResourceLimit(f"{total} cyclic words exceed the word cap")
    mass = sum(orbit_masses(sft, sft.word_array(ell, periodic=True),  # one length at a time
                            np.full(sft.periodic_count(ell), 1.0 / (total * ell)), [depth])[depth]
               for ell in range(1, n + 1))
    return CylinderMeasure(sft, {depth: mass})
