#!/usr/bin/env python3
# Subshifts of finite type: validation, word enumeration, periodic closure.
#
# A subshift is given by a 0/1 transition matrix R; we only accept primitive
# matrices (some power strictly positive).  The smallest such power M is the
# specification constant: any two symbols can be joined by a connector word
# of length M - 1, which is what makes the lift and star operations total.

import numpy as np

from thermoqm import Sft, full_shift, golden_mean
from thermoqm.sft import render_word

g = golden_mean()
print(g, "specification constant M =", g.M)
print("connectors:", {f"{i+1}->{j+1}": render_word(u) for (i, j), u in g.connectors.items()})

# Word counts follow the matrix powers: |W_n| = sum(R^{n-1}), Fibonacci here.
print("\nword counts |W_n|:", [g.word_count(n) for n in range(1, 10)])
print("periodic counts trace(R^n):", [g.periodic_count(n) for n in range(1, 10)])
print("W_3 =", [render_word(w) for w in g.words(3)])
print("periodic W_3 =", [render_word(w) for w in g.periodic_words(3)])

# The symbol 2 cannot follow itself, so the word "2" does not wrap; its
# shortest periodic extension appends a single 1.
print('\nlift of "2":', render_word(g.lift((1,))))

# star joins two periodic words through admissible connectors, keeping the
# result periodic; on a full shift the connectors are empty.
print('star("12", "12") =', render_word(g.star((0, 1), (0, 1))))
f = full_shift(2)
print('full shift star("1", "2") =', render_word(f.star((0,), (1,))))

# Cylinder indexing is the bijection words <-> 0..|W_k|-1 used everywhere
# downstream; prefix and suffix maps express the refinement structure.
idx = g.cylinders(3)
print("\ndepth-3 cylinders:", {render_word(w): i for i, w in enumerate(idx.words)})
print("parent of each depth-3 word:", [int(i) for i in idx.prefix(2)])

# Bad matrices are refused with a reason.
for rows in ([[1, 0], [0, 1]], [[0, 1], [1, 0]]):
    try:
        Sft(rows)
    except Exception as exc:
        print(f"{rows} rejected: {exc}")
