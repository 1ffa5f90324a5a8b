"""Weak Bowen potentials, Komlós construction, Cesàro solver, Livšic tests."""

import numpy as np
import pytest

from thermoqm import bowen, cli
from thermoqm import markov as mk
from thermoqm import thermo
from thermoqm.errors import DepthExceeded, MeanNotZero, ZeroMass
from thermoqm.measures import periodic_orbit_measure
from thermoqm.qm import (
    LetterWeights,
    PatternCount,
    PerturbedQm,
    Quasicocycle,
    TabulatedQm,
    homogenize,
    quasicocycle_of,
    zero_qm,
)
from thermoqm.sft import full_shift, golden_mean, render_word

GOLD = (1 + np.sqrt(5)) / 2


def test_potential_from_bernoulli_is_constant():
    f = full_shift(2)
    par = mk.parry_measure(f)
    phi = bowen.potential_from_measure(par, 3)
    for k in (1, 2, 3):
        assert np.allclose(phi.tables[k], -np.log(2))


def test_potential_from_golden_parry_closed_form():
    g = golden_mean()
    phi = bowen.potential_from_measure(mk.parry_measure(g), 2)
    idx = g.cylinders(2)
    assert phi.tables[2][idx.index((0, 0))] == pytest.approx(np.log(1 / GOLD))
    assert phi.tables[2][idx.index((0, 1))] == pytest.approx(0.0)
    assert phi.tables[2][idx.index((1, 0))] == pytest.approx(np.log(1 / GOLD ** 2))
    assert phi.normalization_defect() < 1e-12


def test_potential_matches_normalized_chain_table():
    # for a memory-1 chain, phi^2 is exactly the normalized potential table
    f = full_shift(2)
    mm, pot, _ = mk.gibbs_chain_from_qm(PatternCount((0, 1)), f)
    phi = bowen.potential_from_measure(mm, 2)
    assert np.allclose(phi.tables[2], pot.values, atol=1e-12)


def test_normalization_holds_when_invariance_holds():
    f = full_shift(2)
    mu = thermo.gibbs_measure(PatternCount((0, 1)), f, N=12, depth=4)
    assert mu.invariance_defect() < 1e-12
    phi = bowen.potential_from_measure(mu, 4)
    for k in (1, 2, 3, 4):  # the identity holds at every stored depth
        assert phi.normalization_defect(k) < 1e-12


def test_potential_requires_full_support():
    g = golden_mean()
    mu = periodic_orbit_measure(g, (0,), range(1, 4))
    with pytest.raises(ZeroMass):
        bowen.potential_from_measure(mu, 2)


def test_potential_bounded_by_gibbs_constants():
    # |phi^k| <= 2 log E + ||delta L|| + Ptop with the empirical E
    f = full_shift(2)
    L = PatternCount((0, 1))
    mu = thermo.gibbs_measure(L, f, N=14, depth=6)
    ptop = thermo.pressure_oracle_memory1(L, f)
    rep = thermo.gibbs_ratio_report(mu, L, f, ptop, range(1, 7))
    logE = max(abs(np.log(rep.max_ratio)), abs(np.log(rep.min_ratio)))
    phi = bowen.potential_from_measure(mu, 6)
    bound = 2 * logE + L.defect_bound + ptop
    for k in range(1, 7):
        assert np.abs(phi.tables[k]).max() <= bound + 1e-9


def test_birkhoff_check_bounded():
    g = golden_mean()
    par = mk.parry_measure(g)
    phi = bowen.potential_from_measure(par, 4)
    sample = g.periodic_words(5) + g.periodic_words(6)
    rep = bowen.birkhoff_check(phi, zero_qm(2), g, np.log(GOLD), 8, sample)
    pe = thermo.pressure(zero_qm(2), g, 14)
    mu = par.cylinder_measure(8)
    ratio = thermo.gibbs_ratio_report(mu, zero_qm(2), g, np.log(GOLD), range(1, 9))
    logE = max(abs(np.log(ratio.max_ratio)), abs(np.log(ratio.min_ratio)))
    bound = 2 * logE + pe.c_all + zero_qm(2).defect_bound
    assert rep.max_residual <= bound + 1e-9


def test_birkhoff_check_memory1_uniform_in_n():
    f = full_shift(2)
    L = PatternCount((0, 1))
    mm, _, loglam = mk.gibbs_chain_from_qm(L, f)
    phi = bowen.potential_from_measure(mm, 4)
    sample = f.periodic_words(6)
    residuals = [
        bowen.birkhoff_check(phi, L, f, loglam, n, sample).max_residual
        for n in range(4, 21, 4)
    ]
    assert max(residuals) <= 4.0  # uniformly bounded over n


def test_birkhoff_check_shifts_under_bounded_perturbation():
    f = full_shift(2)
    L = PatternCount((0, 1))
    mm, _, loglam = mk.gibbs_chain_from_qm(L, f)
    phi = bowen.potential_from_measure(mm, 4)
    bump = TabulatedQm({1: {(0,): 0.11, (1,): -0.07}}, defect_bound=0.4, extend=True)
    L2 = PerturbedQm(L, bump)
    sample = f.periodic_words(5)
    r1 = bowen.birkhoff_check(phi, L, f, loglam, 10, sample)
    r2 = bowen.birkhoff_check(phi, L2, f, loglam, 10, sample)
    assert abs(r2.max_residual - r1.max_residual) <= 2 * 0.11 + 1e-9


def test_bowen_norm_estimates():
    f = full_shift(2)
    # memory-0 table: Birkhoff sums depend only on the visible window
    const = bowen.WeakBowenFn(f, {1: np.array([0.3, -0.3])})
    assert bowen.bowen_norm_estimate(const, 5) == 0.0
    # memory-2 table: only the final window can differ
    rng = np.random.default_rng(2)
    vals = rng.normal(size=4)
    mem2 = bowen.WeakBowenFn(f, {2: vals})
    est = bowen.bowen_norm_estimate(mem2, 5)
    assert est <= 2 * (vals.max() - vals.min()) + 1e-12
    # potential of a Gibbs chain stabilizes
    mm, _, _ = mk.gibbs_chain_from_qm(PatternCount((0, 1)), f)
    phi = bowen.potential_from_measure(mm, 3)
    e4 = bowen.bowen_norm_estimate(phi, 4)
    e6 = bowen.bowen_norm_estimate(phi, 6)
    assert e4 <= e6 <= e4 + 1e-9  # monotone and already saturated


def test_weak_bowen_value_reads_the_deepest_table_the_word_reaches():
    f = full_shift(2)
    phi = bowen.WeakBowenFn(f, {1: [0.1, 0.2], 3: np.arange(8.0)})
    assert phi.value((1,)) == phi.value((1, 0)) == 0.2  # shorter than 3: depth 1
    assert phi.value((1, 0, 1, 1)) == 5.0  # 101 is the sixth 3-word
    for word in ((), [0]):  # shorter than every stored depth, the empty word too
        with pytest.raises(DepthExceeded, match="shorter than every stored depth"):
            bowen.WeakBowenFn(f, {2: np.zeros(4)}).value(word)
    with pytest.raises(DepthExceeded, match="shorter than every stored depth"):
        phi.value(())


def test_komlos_zeta_identities():
    f = full_shift(2)
    lw = LetterWeights([0.5, -0.5])
    z = bowen.komlos_zeta(lw, f, 5)
    for w in f.cylinders(6).words:
        assert z.value(w) == pytest.approx(0.5 if w[0] == 0 else -0.5)
    c01 = PatternCount((0, 1))
    z2 = bowen.komlos_zeta(c01, f, 5)
    for w in f.cylinders(6).words:
        assert z2.value(w) == pytest.approx(1.0 if w[:2] == (0, 1) else 0.0)
    assert z2.sup_norm() <= c01.norm_upper(f)


def test_komlos_zeta_birkhoff_bound():
    # |S_T zeta_n - L(x_0..x_{T-1})| <= delta (2T/n + 1 - T/n) + (T/n) sup|L on letters|
    f = full_shift(2)
    L = PatternCount((0, 1))
    n, T = 6, 3
    z = bowen.komlos_zeta(L, f, n)
    delta = L.defect_bound
    letters = max(abs(L.value((a,))) for a in range(2))
    bound = delta * (2 * T / n + 1 - T / n) + (T / n) * letters
    for w in f.words(n + T):
        st = sum(z.value(w[l:]) for l in range(T))
        assert abs(st - L.value(w[:T])) <= bound + 1e-12


def _depth_one_bump(sft, values, n_max=12):
    # explicit zero tables beyond depth 1, so the rule never extends
    tables = {1: {(s,): values[s] for s in range(sft.d)}}
    for n in range(2, n_max + 1):
        tables[n] = {w: 0.0 for w in sft.words(n)}
    return TabulatedQm(tables, defect_bound=2 * max(abs(v) for v in values))


def test_komlos_zeta_bounded_qm_vanishes():
    f = full_shift(2)
    bump = _depth_one_bump(f, [0.3, -0.2])
    sups = [bowen.komlos_zeta(bump, f, n).sup_norm() for n in (2, 4, 8)]
    assert sups[-1] <= 2 * 0.3 / 8 + 1e-12
    assert sups[0] >= sups[-1]


def test_komlos_potential_exact_cases():
    f = full_shift(2)
    par = mk.parry_measure(f)
    res = bowen.komlos_potential(LetterWeights([1.0, -2.0]), par, [2, 4, 6], depth=1)
    assert res.converged
    assert np.allclose(res.table.values, [1.0, -2.0])
    res2 = bowen.komlos_potential(PatternCount((0, 1)), par, [2, 4, 6], depth=2)
    assert np.allclose(res2.table.values, [0.0, 1.0, 0.0, 0.0])


def test_komlos_potential_roundtrip_recovers_class():
    # L = Birkhoff tabulation of a known memory-2 potential; the averaged
    # table is cohomologous to it (equal periodic averages)
    f = full_shift(2)
    par = mk.parry_measure(f)
    rng = np.random.default_rng(9)
    phi = mk.LocallyConstantFn(f, 2, rng.normal(size=4) * 0.5)
    tables = {}
    for n in range(1, 11):
        tables[n] = {
            w: sum(phi.value(f.cyclic_window(w, l, 2)) for l in range(n - 1))
            + phi.value((w[-1],) + (w[-1],))* 0  # windows fully inside only
            for w in f.words(n)
        }
    # a cleaner tabulation: sums of phi over the n-1 interior windows
    osc = float(phi.values.max() - phi.values.min())
    L = TabulatedQm(tables, defect_bound=2 * osc, extend=False)
    res = bowen.komlos_potential(L, par, [3, 5, 7, 9], depth=2, tol=1.0)
    arr = f.word_array(3, periodic=True)
    got = mk.cyclic_birkhoff_sums(res.table, arr, 3) / 3
    want = mk.cyclic_birkhoff_sums(phi, arr, 3) / 3
    assert np.all(np.abs(got - want) <= 2 * osc / 3 + 0.5)


def test_komlos_nonconvergence_surfaced():
    """Averages still moving are a result, converged False, and the komlos op
    fails its cesaro_converged check on them."""
    f = full_shift(2)
    par = mk.parry_measure(f)
    moving = _depth_one_bump(f, [0.3, -0.2])
    res = bowen.komlos_potential(moving, par, [2, 3], depth=2, tol=0.0)
    assert res.converged is False
    assert len(res.diffs) == 1 and res.diffs[0] > 0.0
    tables = {str(n): {render_word(w): v for w, v in tbl.items()} for n, tbl in moving.tables.items()}
    cfg = {"sft": {"builtin": "full_shift", "d": 2}, "n_list": [2, 3], "depth": 2, "tol": 0.0,
           "qm": {"kind": "tabulated", "tables": tables, "defect": moving.defect_bound}}
    code, summary = cli.execute("komlos", cfg, None)
    assert code == 1 and summary["converged"] is False and summary["diffs"] == res.diffs
    assert [c["name"] for c in summary["checks"] if not c["pass"]] == ["cesaro_converged"]


def test_coboundary_solve_roundtrip():
    f = full_shift(2)
    par = mk.parry_measure(f)
    gfn = mk.LocallyConstantFn(f, 2, np.array([0.3, -0.2, 0.7, 0.1]))
    cob = gfn - gfn.shift()
    sol = bowen.coboundary_solve(cob, par, N=4 * 10 ** 8, depth=4)
    assert sol.residual <= 1e-8
    assert sol.vanishing
    # u recovers g up to an additive constant
    diff = sol.u.values - gfn.as_memory(4).values
    assert diff.max() - diff.min() <= 1e-7
    assert sol.u_sup <= 6 * bowen.bowen_norm_estimate(
        bowen.WeakBowenFn(f, {3: cob.as_memory(3).values}), 5
    ) + 1e-6


def test_coboundary_solve_detects_noncoboundary():
    f = full_shift(2)
    par = mk.parry_measure(f)
    psi = mk.LocallyConstantFn(f, 1, np.array([0.5, -0.5]))  # sigma^2 = 1/4 > 0
    sol = bowen.coboundary_solve(psi, par, N=10 ** 7, depth=5)
    assert sol.vanishing is False
    assert sol.residual > 0.4


def test_coboundary_solve_zero():
    f = full_shift(2)
    par = mk.parry_measure(f)
    sol = bowen.coboundary_solve(mk.LocallyConstantFn(f, 1, np.zeros(2)), par, N=10 ** 6, depth=3)
    assert sol.u_sup < 1e-12 and sol.residual < 1e-12


def test_coboundary_solve_mean_check():
    f = full_shift(2)
    par = mk.parry_measure(f)
    with pytest.raises(MeanNotZero):
        bowen.coboundary_solve(mk.LocallyConstantFn(f, 1, np.array([1.0, 0.5])), par, 10 ** 4, 3)


def test_periodic_average_dispatch():
    f = full_shift(2)
    word = np.array([[0, 1]])
    const = mk.LocallyConstantFn(f, 1, np.array([2.5, 2.5]))
    assert mk.cyclic_birkhoff_sums(const, word, 2)[0] / 2 == pytest.approx(2.5)
    L = PatternCount((0, 1))
    assert homogenize(L, (0, 1), 64).mid == pytest.approx(L.homogenized_value((0, 1)), abs=1 / 64)
    mem1 = mk.LocallyConstantFn(f, 2, np.array([0.0, 1.0, 2.0, 3.0]))
    # cyclic windows of (0,1): (0,1) and (1,0)
    assert mk.cyclic_birkhoff_sums(mem1, word, 2)[0] / 2 == pytest.approx((1.0 + 2.0) / 2)
    B = quasicocycle_of(L, f, 8)  # per period: B_8 on the 8-window of p(a), / 8, times |a|
    assert B.value(8, f.cyclic_window((0, 1), 0, 8)) / 8 * 2 == pytest.approx(1.0, abs=0.2)


def test_livsic_quasicocycle_verdicts():
    f = full_shift(2)
    B1 = quasicocycle_of(PatternCount((0, 1)), f, 8)
    B2 = quasicocycle_of(PatternCount((1, 0)), f, 8)
    v = bowen.livsic_quasicocycle_test(B1, B2, f, 6)
    assert v.verdict == "cohomologous"
    assert v.bound_check["ok"]
    v2 = bowen.livsic_quasicocycle_test(B1, B1.scaled(2.0), f, 6)
    assert v2.verdict == "distinct"
    bump = {n: 0.05 * np.ones(len(f.cylinders(n))) for n in range(1, 9)}
    bumped = Quasicocycle(f, {n: t + bump[n] for n, t in B1.tables.items()})
    v3 = bowen.livsic_quasicocycle_test(B1, bumped, f, 6)
    assert v3.verdict == "cohomologous"
    B11 = quasicocycle_of(PatternCount((1, 1)), f, 8)
    assert bowen.livsic_quasicocycle_test(B1, B11, f, 6).verdict == "distinct"
    for n_max in (0, -3):  # no period compared is no certificate
        with pytest.raises(ValueError, match=f"n_max must be >= 1, got {n_max}"):
            bowen.livsic_quasicocycle_test(B1, B11, f, n_max)


def test_quasicocycle_from_potential_delta_bound():
    f = full_shift(2)
    mm, _, _ = mk.gibbs_chain_from_qm(PatternCount((0, 1)), f)
    phi = bowen.potential_from_measure(mm, 2)
    B = bowen.quasicocycle_from_potential(phi, mm, 6)
    est = bowen.bowen_norm_estimate(phi, 5)
    assert B.delta_estimate() <= 6 * max(est, 1e-12) + 1e-9


def test_zero_periodic_averages_bound_sums():
    # coboundary phi: all periodic averages vanish and S_n phi stays within
    # 6 x the Bowen estimate on periodic evaluations
    f = full_shift(2)
    gfn = mk.LocallyConstantFn(f, 2, np.array([0.4, -0.1, 0.2, -0.6]))
    cob = gfn - gfn.shift()
    phi = bowen.WeakBowenFn(f, {3: cob.as_memory(3).values})
    for n in (1, 2, 3, 4):
        averages = mk.cyclic_birkhoff_sums(phi.as_lc(), f.word_array(n, periodic=True), n) / n
        assert np.all(np.abs(averages) <= 1e-12)
    est = bowen.bowen_norm_estimate(phi, 6)
    for n in range(1, 13):
        sums = mk.cyclic_birkhoff_sums(phi.as_lc(), f.word_array(4, periodic=True), n)
        assert np.all(np.abs(sums) <= 6 * est + 1e-9)
