"""Normalization, stationary chains, transfer operator, variance machinery."""

import time

import numpy as np
import pytest

from thermoqm import freegroup as fg
from thermoqm import markov as mk
from thermoqm.errors import InconsistentVerdicts, MeanNotZero, NotPrimitive, NumericalFailure
from thermoqm.experiments import sample_path
from thermoqm.qm import PatternCount
from thermoqm.sft import full_shift, golden_mean

GOLD = (1 + np.sqrt(5)) / 2


def test_constant_potential_has_one_value_per_symbol():
    for d in (2, 3):
        pot = mk.MarkovPotential.constant(full_shift(d), -0.5)
        assert pot.s == 0 and pot.m == 1 and np.array_equal(pot.values, np.full(d, -0.5))


def test_normalize_zero_potential_full_shift():
    f = full_shift(2)
    pot, lam, h = mk.normalize_potential(mk.MarkovPotential.constant(f, 0.0))
    assert lam == pytest.approx(2.0)
    assert np.allclose(pot.values, -np.log(2))
    assert np.allclose(h.values, h.values[0])  # constant eigenfunction
    assert pot.normalization_defect() < 1e-12


def test_normalize_zero_potential_golden_mean():
    g = golden_mean()
    pot, lam, _ = mk.normalize_potential(mk.MarkovPotential.constant(g, 0.0))
    assert lam == pytest.approx(GOLD, abs=1e-12)
    mm = mk.markov_measure(pot)
    idx = g.cylinders(1)
    P = mm.kernel
    assert P[idx.index((0,)), idx.index((0,))] == pytest.approx(1 / GOLD)
    assert P[idx.index((0,)), idx.index((1,))] == pytest.approx(1 / GOLD ** 2)
    assert P[idx.index((1,)), idx.index((0,))] == pytest.approx(1.0)
    assert np.allclose(mm.stationary, [GOLD ** 2 / (GOLD ** 2 + 1), 1 / (GOLD ** 2 + 1)])


def test_normalize_count01_eigenvalue():
    f = full_shift(2)
    pot = mk.MarkovPotential.from_qm(PatternCount((0, 1)), f)
    _, lam, _ = mk.normalize_potential(pot)
    assert lam == pytest.approx(1 + np.sqrt(np.e), abs=1e-12)


def test_normalize_memory_two_potential():
    # larger block space (12 states on the rank-2 no-cancellation shift)
    from thermoqm.freegroup import FreeGroup, brooks

    G = FreeGroup(2)
    sft = G.sft()
    pot = mk.MarkovPotential.from_qm(brooks(G, "aba"), sft)
    assert pot.s == 2
    norm, lam, _ = mk.normalize_potential(pot)
    assert lam > 0
    assert norm.normalization_defect() < 1e-12
    mm = mk.markov_measure(norm)
    assert mm.cylinder_measure(4).invariance_defect() < 1e-12


def test_markov_measure_invariants():
    f = full_shift(2)
    mmc, potc, _ = mk.gibbs_chain_from_qm(PatternCount((0, 1)), f)
    assert np.allclose(mmc.kernel.sum(axis=1), 1.0)
    assert np.abs(mmc.stationary @ mmc.kernel - mmc.stationary).max() < 1e-12
    mu = mmc.cylinder_measure(6)
    assert mu.invariance_defect() < 1e-12
    assert mu.consistency_defect() < 1e-12


def test_count01_chain_closed_form():
    # B = [[1, e], [1, 1]] has Perron data lam = 1 + sqrt(e), v = (sqrt(e), 1),
    # u = (1, sqrt(e)); u_i v_i is constant, so the stationary vector is
    # exactly (1/2, 1/2) and P(i->j) = B_ij v_j / (lam v_i)
    f = full_shift(2)
    mm, _, _ = mk.gibbs_chain_from_qm(PatternCount((0, 1)), f)
    assert np.allclose(mm.stationary, 0.5, atol=1e-13)
    lam = 1 + np.sqrt(np.e)
    v = np.array([np.sqrt(np.e), 1.0])
    B = np.array([[1.0, np.e], [1.0, 1.0]])
    assert np.allclose(mm.kernel, B * v[None, :] / (lam * v[:, None]), atol=1e-12)


def test_parry_full_shift_is_bernoulli_half():
    f = full_shift(2)
    par = mk.parry_measure(f)
    assert np.allclose(par.cylinder_masses(3), 1 / 8)
    assert par.entropy_exact() == pytest.approx(np.log(2))


def test_transfer_apply_basics():
    f = full_shift(2)
    par = mk.parry_measure(f)
    one = mk.LocallyConstantFn(f, 1, np.ones(2))
    assert np.allclose(mk.transfer_apply(par.potential, one).values, 1.0)
    ind0 = mk.LocallyConstantFn(f, 1, np.array([1.0, 0.0]))
    assert np.allclose(mk.transfer_apply(par.potential, ind0).values, 0.5)


def test_transference_identity_on_random_tables():
    rng = np.random.default_rng(11)
    for sft in (full_shift(2), golden_mean()):
        mm = mk.parry_measure(sft)
        pot = mm.potential
        fidx = sft.cylinders(2)
        gidx = sft.cylinders(2)
        ffn = mk.LocallyConstantFn(sft, 2, rng.normal(size=len(fidx)))
        gfn = mk.LocallyConstantFn(sft, 2, rng.normal(size=len(gidx)))
        lhs = mk.transfer_apply(pot, mk.LocallyConstantFn(
            sft, 3,
            np.array([ffn.value(w) * gfn.value(w[1:]) for w in sft.cylinders(3).words]),
        ))
        rf = mk.transfer_apply(pot, ffn)
        m = max(lhs.m, rf.m + 1, gfn.m)
        rhs_vals = np.array([rf.value(w) * gfn.value(w) for w in sft.cylinders(m).words])
        assert np.abs(lhs.as_memory(m).values - rhs_vals).max() < 1e-12


def test_transfer_preserves_integral():
    g = golden_mean()
    mm = mk.parry_measure(g)
    rng = np.random.default_rng(3)
    ffn = mk.LocallyConstantFn(g, 3, rng.normal(size=len(g.cylinders(3))))
    assert mm.integral(mk.transfer_apply(mm.potential, ffn)) == pytest.approx(
        mm.integral(ffn), abs=1e-12
    )


def test_projection_conditional():
    f = full_shift(2)
    par = mk.parry_measure(f)
    ind01 = mk.LocallyConstantFn(f, 2, np.array([0.0, 1.0, 0.0, 0.0]))
    p1 = mk.project_conditional(ind01, par, 1)
    assert np.allclose(p1.values, [0.5, 0.0])
    assert np.allclose(mk.project_conditional(p1, par, 1).values, p1.values)  # idempotent
    p0 = mk.project_conditional(ind01, par, 0)
    assert p0.values[0] == pytest.approx(par.integral(ind01))
    same = mk.project_conditional(ind01, par, 2)
    assert same is ind01


def test_solve_cohomological_roundtrip_small():
    rng = np.random.default_rng(7)
    for sft in (full_shift(2), golden_mean()):
        mm = mk.parry_measure(sft)
        pot = mm.potential
        idx = sft.cylinders(4)
        for _ in range(10):
            gfn = mk.LocallyConstantFn(sft, 4, rng.normal(size=len(idx)))
            psi = gfn - mk.transfer_apply(pot, gfn).as_memory(4)
            psi = psi - mk.LocallyConstantFn.constant(sft, mm.integral(psi))
            sol = mk.solve_cohomological(pot, psi.as_memory(4), mm)
            assert sol.residual <= 1e-10


def test_solve_iid_indicator_explicit():
    f = full_shift(2)
    par = mk.parry_measure(f)
    psi = mk.LocallyConstantFn(f, 1, np.array([0.5, -0.5]))
    sol = mk.solve_cohomological(par.potential, psi, par)
    # R psi = 0, so h = psi solves (Id - R) h = psi on the zero-mean subspace
    assert np.allclose(sol.h.values, psi.as_memory(sol.h.m).values, atol=1e-12)
    assert sol.h_sup <= sol.diagnostic_bound


def test_solve_zero_gives_zero():
    f = full_shift(2)
    par = mk.parry_measure(f)
    psi = mk.LocallyConstantFn(f, 1, np.zeros(2))
    sol = mk.solve_cohomological(par.potential, psi, par)
    assert np.abs(sol.h.values).max() < 1e-12


def test_solve_rejects_nonzero_mean():
    f = full_shift(2)
    par = mk.parry_measure(f)
    with pytest.raises(MeanNotZero):
        mk.solve_cohomological(par.potential, mk.LocallyConstantFn(f, 1, np.array([1.0, 0.0])), par)


def test_martingale_part_properties():
    f = full_shift(2)
    par = mk.parry_measure(f)
    pot = par.potential
    # Livsic coboundary input u - u o tau: psi_bar vanishes in L2
    gfn = mk.LocallyConstantFn(f, 2, np.array([0.4, -0.3, 0.2, 0.05]))
    cob = gfn - gfn.shift()
    sol = mk.solve_cohomological(pot, cob, par)
    bar = mk.martingale_part(pot, cob, sol.h)
    assert par.l2_norm_sq(bar) < 1e-20
    # iid indicator: R psi = 0 already, so psi_bar = psi
    psi = mk.LocallyConstantFn(f, 1, np.array([0.5, -0.5]))
    sol2 = mk.solve_cohomological(pot, psi, par)
    bar2 = mk.martingale_part(pot, psi, sol2.h)
    m = bar2.m
    assert np.allclose(bar2.values, psi.as_memory(m).values, atol=1e-12)
    # kernel property R psi_bar = 0
    assert np.abs(mk.transfer_apply(pot, bar2).values).max() < 1e-10


def test_variance_iid_quarter():
    f = full_shift(2)
    par = mk.parry_measure(f)
    psi = mk.LocallyConstantFn(f, 1, np.array([0.5, -0.5]))
    var = mk.variance(par.potential, psi, par)
    assert abs(var.sigma2_martingale - 0.25) < 1e-12
    assert abs(var.sigma2_green_kubo - 0.25) < 1e-12


def test_variance_count01_expected():
    # hand derivation: Var(1_[01]) = 3/16, lag-1 covariance = -1/16, rest 0
    f = full_shift(2)
    par = mk.parry_measure(f)
    ps = mk.MarkovPotential.from_qm(PatternCount((0, 1)), f)
    psi = ps - mk.LocallyConstantFn.constant(f, par.integral(ps))
    var = mk.variance(par.potential, psi, par)
    assert var.sigma2_martingale == pytest.approx(3 / 16 - 2 / 16, abs=1e-12)
    assert var.agreement <= 1e-8 * (1 + var.sigma2_martingale)


def test_variance_coboundary_is_zero():
    g = golden_mean()
    mm = mk.parry_measure(g)
    gfn = mk.LocallyConstantFn(g, 2, np.array([1.0, -0.5, 0.25]))
    cob = gfn - gfn.shift()
    var = mk.variance(mm.potential, cob, mm)
    assert var.sigma2_martingale < 1e-20
    assert abs(var.sigma2_green_kubo) < 1e-10


def test_birkhoff_decomposition_along_sampled_path():
    # S_n psi = S_n psi_bar + (R h) o tau^n - R h pointwise
    f = full_shift(2)
    par = mk.parry_measure(f)
    pot = par.potential
    ps = mk.MarkovPotential.from_qm(PatternCount((0, 1)), f)
    psi = (ps - mk.LocallyConstantFn.constant(f, par.integral(ps))).as_memory(2)
    sol = mk.solve_cohomological(pot, psi, par)
    bar = mk.martingale_part(pot, psi, sol.h)
    rh = mk.transfer_apply(pot, sol.h)
    n = 60
    deep = max(bar.m, psi.m, rh.m)
    path = tuple(int(x) for x in sample_path(par, n + deep, seed=41))
    def birkhoff(fn, length):
        return sum(fn.value(path[k: k + fn.m]) for k in range(length))
    lhs = birkhoff(psi, n)
    rhs = birkhoff(bar, n) + rh.value(path[n: n + rh.m]) - rh.value(path[: rh.m])
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_degeneracy_cross_check():
    f = full_shift(2)
    par = mk.parry_measure(f)
    pot = par.potential
    gfn = mk.LocallyConstantFn(f, 2, np.array([0.4, -0.3, 0.2, 0.05]))
    cob = gfn - gfn.shift()
    rep = mk.degeneracy_test(cob, pot, par)
    assert rep["trivial"]
    psi = mk.LocallyConstantFn(f, 1, np.array([0.5, -0.5]))
    rep2 = mk.degeneracy_test(psi, pot, par)
    assert not rep2["trivial"]
    assert rep2["witness"] == (0,)
    assert rep2["sigma2"] == pytest.approx(0.25)


def test_degeneracy_scale_invariance():
    f = full_shift(2)
    par = mk.parry_measure(f)
    pot = par.potential
    psi = mk.LocallyConstantFn(f, 1, np.array([0.5, -0.5]))
    for c in (2.0, 10.0, 1e-3):
        assert not mk.degeneracy_test(c * psi, pot, par)["trivial"]
    gfn = mk.LocallyConstantFn(f, 2, np.array([0.4, -0.3, 0.2, 0.05]))
    cob = gfn - gfn.shift()
    for c in (2.0, 1e-13):
        assert mk.degeneracy_test(c * cob, pot, par)["trivial"]


def test_brooks_q7_gibbs_chain_builds_under_a_second():
    """The 972-state Gibbs chain of Brooks abaBabb on F_2: primitivity is read
    off the positive block-graph edge weights instead of squaring the
    972 x 972 support matrix (about 3 s on its own)."""
    L = fg.brooks(fg.FreeGroup(2), "abaBabb")
    times = []
    for _ in range(2):
        sft = fg.FreeGroup(2).sft()  # fresh, so its block graphs are built again
        start = time.perf_counter()
        mm, _, _ = mk.gibbs_chain_from_qm(L, sft)
        times.append(time.perf_counter() - start)
    assert len(mm.states) == 972
    assert min(times) < 1.0


def test_normalize_checks_underflowed_weights_by_squaring():
    """exp(-800) is 0.0, so an edge drops out of the weighted graph: without
    00 the full 2-shift's graph is the golden mean's (primitive, root phi);
    without 00 and 11 it is a 2-cycle, which is not primitive."""
    sft = full_shift(2)
    _, lam, _ = mk.normalize_potential(mk.MarkovPotential(sft, 1, np.array([-800.0, 0, 0, 0])))
    assert lam == pytest.approx((1 + 5**0.5) / 2, rel=1e-14)
    with pytest.raises(NotPrimitive):
        mk.normalize_potential(mk.MarkovPotential(sft, 1, np.array([-800.0, 0, 0, -800.0])))


def test_numerically_reducible_chain_names_its_smallest_transition(tmp_path):
    from thermoqm.cli import execute

    sticky = mk.MarkovPotential(full_shift(2), 1, [40.0, 0.0, 0.0, 40.0])
    norm, _, _ = mk.normalize_potential(sticky)
    with pytest.raises(NumericalFailure, match=r"stationary solve failed: Singular matrix; the "
                       r"smallest transition probability 4\.2\de-18 lies below float64 "
                       r"resolution, so the chain is numerically reducible"):
        mk.markov_measure(norm)
    values = {"11": 40.0, "12": 0.0, "21": 0.0, "22": 40.0}
    cfg = {"sft": {"builtin": "full_shift", "d": 2},
           "chain": {"kind": "potential", "memory": 1, "values": values},
           "psi": {"memory": 1, "values": {"1": 1.0, "2": -1.0}}}
    code, summary = execute("solve-cohomological", cfg, str(tmp_path))
    assert code == 2 and "numerically reducible" in summary["error"]
    # weight 20: leave-block probability about 2e-9, above resolution, still builds
    norm, _, _ = mk.normalize_potential(mk.MarkovPotential(full_shift(2), 1, [20.0, 0, 0, 20.0]))
    assert np.allclose(mk.markov_measure(norm).stationary, 0.5)
