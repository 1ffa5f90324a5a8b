#!/usr/bin/env python3
# The exact finite-dimensional CLT machinery: normalization, the stationary
# chain, the cohomological equation, the martingale part, and the two-way
# variance.

import numpy as np

from thermoqm import (
    LocallyConstantFn,
    MarkovPotential,
    PatternCount,
    degeneracy_test,
    markov_measure,
    martingale_part,
    normalize_potential,
    solve_cohomological,
    transfer_apply,
    variance,
)
from thermoqm.sft import full_shift

f = full_shift(2)
c01 = PatternCount((0, 1))

# Normalize the memory-1 potential 1_[12]: lambda = 1 + sqrt(e).
pot = MarkovPotential.from_qm(c01, f)
norm, lam, h = normalize_potential(pot)
print(f"Perron eigenvalue: {lam:.6f} (= 1 + sqrt(e) = {1 + np.sqrt(np.e):.6f})")
print("normalization defect:", norm.normalization_defect())

mm = markov_measure(norm)
print("stationary vector:", mm.stationary)
print("second eigenvalue modulus:", mm.lam2())

# Center the per-step observable and solve (Id - R) h = psi exactly.
ps = MarkovPotential.from_qm(c01, f)
psi = ps - LocallyConstantFn.constant(f, mm.integral(ps))
sol = solve_cohomological(norm, psi, mm)
print(f"\ncohomological solve residual: {sol.residual:.2e}"
      f" (|h|_inf = {sol.h_sup:.4f} vs diagnostic bound {sol.diagnostic_bound:.2f})")

# The martingale part lives in Ker R and carries the variance.
bar = martingale_part(norm, psi, sol.h)
print("R psi_bar sup:", transfer_apply(norm, bar).sup_norm())
var = variance(norm, psi, mm)
print(f"sigma^2 martingale = {var.sigma2_martingale:.12f}")
print(f"sigma^2 Green-Kubo = {var.sigma2_green_kubo:.12f}"
      f" ({var.n_terms} correlation terms)")

# Degeneracy: sigma = 0 iff the observable is a coboundary, and the
# periodic-orbit test must agree.
gfn = LocallyConstantFn(f, 2, np.array([0.4, -0.3, 0.2, 0.05]))
cob = gfn - gfn.shift()
print("\ncoboundary degeneracy:", degeneracy_test(cob, norm, mm))
print("indicator degeneracy:", degeneracy_test(
    LocallyConstantFn(f, 1, np.array([0.5, -0.5])), norm, mm))
