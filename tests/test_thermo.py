"""Partition functions, pressure, Gibbs measures, and diagnostics."""

import json

import numpy as np
import pytest

from thermoqm import cli
from thermoqm import markov as mk
from thermoqm import thermo
from thermoqm.measures import bernoulli_measure, periodic_orbit_measure
from thermoqm.qm import LetterWeights, PatternCount, Quasimorphism, TabulatedQm, zero_qm
from thermoqm.sft import full_shift, golden_mean

GOLD = (1 + np.sqrt(5)) / 2


def test_partition_function_oracles():
    f, g = full_shift(2), golden_mean()
    z = zero_qm(2)
    for n in range(1, 8):
        assert np.exp(thermo.log_partition(z, f, n)) == pytest.approx(2 ** n)
    assert np.exp(thermo.log_partition(z, g, 2)) == pytest.approx(3.0)  # trace R^2
    # direct enumeration oracle: words 00,01,10,11 all wrap; occ counts 0,1,0,0
    assert np.exp(thermo.log_partition(PatternCount((0, 1)), f, 2)) == pytest.approx(3 + np.e)


def test_transfer_path_agrees_with_enumeration():
    f, g = full_shift(2), golden_mean()
    qms = [zero_qm(2), PatternCount((0, 1)), PatternCount((0, 0, 1)),
           LetterWeights([0.4, -0.2])]
    for sft in (f, g):
        for L in qms:
            for n in range(1, 9):
                a = thermo.log_partition(L, sft, n, method="enumerate")
                b = thermo.log_partition(L, sft, n, method="transfer")
                assert b == pytest.approx(a, abs=1e-10)


@pytest.mark.parametrize("fn", [thermo.log_partition, thermo.log_partition_sequence])
def test_partition_method_is_checked_before_evaluating(fn, monkeypatch):
    def enumerate_(*args, **kwargs):
        raise AssertionError("enumerated before checking the method")

    # the sweep over all lengths and the evaluation at one length
    monkeypatch.setattr(thermo, "_enumerated_log_partition", enumerate_)
    monkeypatch.setattr(thermo, "_periodic_log_partition", enumerate_)
    f = full_shift(2)
    for method in ("Transfer", "", "exact"):
        with pytest.raises(ValueError, match=f"^method must be 'auto', 'transfer' or "
                                             f"'enumerate', got '{method}'$"):
            fn(PatternCount((0, 1)), f, 6, method=method)
    tabulated = TabulatedQm({1: {(0,): 1.0, (1,): 0.5}}, defect_bound=1.0, extend=True)
    with pytest.raises(ValueError, match="^quasimorphism is not window-additive$"):
        fn(tabulated, f, 6, method="transfer")


def test_transfer_path_multi_width_kernels():
    from thermoqm.qm import LinearCombinationQm

    g = golden_mean()
    L = LinearCombinationQm([
        (1.0, LetterWeights([0.2, -0.1])),
        (2.0, PatternCount((0, 1))),
        (-0.5, PatternCount((0, 0, 1))),
    ])
    for n in range(1, 9):
        a = thermo.log_partition(L, g, n, method="enumerate")
        b = thermo.log_partition(L, g, n, method="transfer")
        assert b == pytest.approx(a, abs=1e-10)


def test_pressure_full_shift_exact():
    pe = thermo.pressure(zero_qm(2), full_shift(2), 12)
    assert pe.contains(np.log(2))
    assert pe.width <= 1e-12


def test_pressure_golden_mean():
    pe = thermo.pressure(zero_qm(2), golden_mean(), 18)
    assert pe.contains(np.log(GOLD))
    assert pe.width <= 0.01
    assert pe.c_all > pe.c_used  # small-block transients are only reported


def test_pressure_count01():
    f = full_shift(2)
    L = PatternCount((0, 1))
    pe = thermo.pressure(L, f, 24)
    oracle = np.log(1 + np.sqrt(np.e))
    assert pe.contains(oracle)
    assert pe.width <= 0.02
    assert thermo.pressure_oracle_memory1(L, f) == pytest.approx(oracle)


def test_pressure_interval_contains_memory1_oracle():
    rng = np.random.default_rng(5)
    f = full_shift(2)
    g = golden_mean()
    for sft in (f, g):
        for _ in range(3):
            L = LetterWeights(rng.normal(size=2) * 0.5)
            pe = thermo.pressure(L, sft, 16)
            oracle = thermo.pressure_oracle_memory1(L, sft)
            assert pe.lower - 1e-9 <= oracle <= pe.upper + 1e-9


def test_pressure_on_random_primitive_three_shifts():
    from thermoqm.sft import Sft
    from thermoqm.errors import NotPrimitive, InvalidMatrix

    rng = np.random.default_rng(12)
    built = 0
    while built < 3:
        R = (rng.random((3, 3)) < 0.7).astype(int)
        try:
            sft = Sft(R)
        except (NotPrimitive, InvalidMatrix):
            continue
        built += 1
        weights = rng.normal(size=3) * 0.4
        L = LetterWeights(weights)
        pe = thermo.pressure(L, sft, 15)
        oracle = thermo.pressure_oracle_memory1(L, sft)
        assert pe.lower - 1e-9 <= oracle <= pe.upper + 1e-9
        # the transfer evaluation matches enumeration on these too
        for n in (3, 6):
            a = thermo.log_partition(L, sft, n, method="enumerate")
            b = thermo.log_partition(L, sft, n, method="transfer")
            assert b == pytest.approx(a, abs=1e-10)


def test_partition_submultiplicativity_window():
    # Z_{n+m} comparable to Z_n Z_m with an empirically bounded constant
    g = golden_mean()
    L = PatternCount((0, 1))
    p = thermo.log_partition_sequence(L, g, 18)
    for n in range(6, 10):
        for m in range(6, 19 - n):
            assert abs(p[n + m - 1] - p[n - 1] - p[m - 1]) < 0.35


def test_gibbs_measure_full_shift_symmetry():
    mu = thermo.gibbs_measure(zero_qm(2), full_shift(2), N=8, depth=1)
    assert np.allclose(mu.masses_at(1), [0.5, 0.5])


def test_gibbs_measure_exactly_invariant_and_consistent():
    mu = thermo.gibbs_measure(PatternCount((0, 1)), full_shift(2), N=12, depth=5)
    assert mu.invariance_defect() < 1e-12
    assert mu.consistency_defect() < 1e-12


def test_gibbs_measure_golden_mean_near_parry():
    g = golden_mean()
    mu = thermo.gibbs_measure(zero_qm(2), g, N=12, depth=1)
    par = mk.parry_measure(g)
    gap = np.abs(mu.masses_at(1) - par.cylinder_masses(1)).max()
    assert gap < (1 / GOLD ** 2) ** 12 * 10  # spectral-ratio scale


def test_gibbs_measure_count01_matches_exact_chain():
    f = full_shift(2)
    L = PatternCount((0, 1))
    mu = thermo.gibbs_measure(L, f, N=14, depth=2)
    mm, _, _ = mk.gibbs_chain_from_qm(L, f)
    assert mu.tv_distance(mm.cylinder_measure(2), 2) < 1e-4


def test_gibbs_ratio_full_shift_all_ones():
    f = full_shift(2)
    mu = thermo.gibbs_measure(zero_qm(2), f, N=10, depth=4)
    rep = thermo.gibbs_ratio_report(mu, zero_qm(2), f, np.log(2), range(1, 5))
    assert rep.min_ratio == pytest.approx(1.0)
    assert rep.max_ratio == pytest.approx(1.0)


def test_gibbs_ratio_golden_parry_closed_form():
    g = golden_mean()
    par = mk.parry_measure(g).cylinder_measure(8)
    rep = thermo.gibbs_ratio_report(par, zero_qm(2), g, np.log(GOLD), range(1, 9))
    pi1 = GOLD ** 2 / (GOLD ** 2 + 1)
    # closed form: ratio depends only on the first letter and whether the
    # word ends in symbol 2
    expected = {pi1 * GOLD, pi1, (1 - pi1) * GOLD ** 2, (1 - pi1) * GOLD}
    assert rep.min_ratio == pytest.approx(min(expected))
    assert rep.max_ratio == pytest.approx(max(expected))
    assert 1 / 3 <= rep.min_ratio <= rep.max_ratio <= 3


def test_mixing_ratio_bernoulli_product():
    f = full_shift(2)
    mu = bernoulli_measure(f, [0.5, 0.5], range(1, 9))
    rows = thermo.mixing_ratio_report(mu, (0,), (1,), range(1, 6))
    assert all(r["ratio"] == pytest.approx(1.0) for r in rows)


def test_mixing_ratio_golden_parry_converges_geometrically():
    g = golden_mean()
    mu = mk.parry_measure(g).cylinder_measure(10)
    rows = thermo.mixing_ratio_report(mu, (0,), (0,), range(1, 7))
    errs = [abs(r["ratio"] - 1.0) for r in rows]
    lam2 = 1 / GOLD ** 2
    for k, err in enumerate(errs, start=1):
        assert err <= 2 * lam2 ** k
    # k = 0 with a = b gives 1 / mu([a])
    row0 = thermo.mixing_ratio_report(mu, (0,), (0,), [0])[0]
    assert row0["ratio"] == pytest.approx(1.0 / mu.mass((0,)))


def test_weak_bernoulli_bernoulli_is_zero():
    f = full_shift(2)
    mu = bernoulli_measure(f, [0.5, 0.5], range(1, 9))
    rows = thermo.weak_bernoulli_report(mu, 2, [0, 1, 2, 3])
    assert all(abs(r["beta"]) < 1e-14 for r in rows)


def test_weak_bernoulli_golden_decays():
    g = golden_mean()
    mu = mk.parry_measure(g).cylinder_measure(11)
    rows = thermo.weak_bernoulli_report(mu, 2, [0, 1, 2, 3, 4, 5])
    betas = [r["beta"] for r in rows]
    assert betas[0] > betas[-1]
    lam2 = 1 / GOLD ** 2
    for gap, beta in zip([0, 1, 2, 3, 4, 5], betas):
        assert beta <= 4 * lam2 ** gap  # spectral-gap oracle, loose constant


def test_entropy_oracles():
    f = full_shift(2)
    mu = bernoulli_measure(f, [0.5, 0.5], range(1, 7))
    rep = thermo.entropy_report(mu)
    assert all(r == pytest.approx(np.log(2)) for r in rep.rates)
    g = golden_mean()
    par = mk.parry_measure(g)
    repg = thermo.entropy_report(par.cylinder_measure(8))
    assert repg.h_extrapolated == pytest.approx(np.log(GOLD), abs=1e-12)
    assert repg.h_extrapolated == pytest.approx(par.entropy_exact(), abs=1e-12)
    # rates decrease toward h
    assert all(a >= b - 1e-12 for a, b in zip(repg.rates, repg.rates[1:]))
    point = periodic_orbit_measure(f, (0,), range(1, 5))
    assert thermo.entropy_report(point).h_extrapolated == pytest.approx(0.0)


def test_qm_integral_oracles():
    f = full_shift(2)
    mu = bernoulli_measure(f, [0.3, 0.7], range(1, 8))
    w = LetterWeights([2.0, -1.0])
    for n in (1, 3, 6):
        assert thermo.qm_integral(mu, w, n) == pytest.approx(0.3 * 2 - 0.7 * 1)
    half = bernoulli_measure(f, [0.5, 0.5], range(1, 8))
    L = PatternCount((0, 1))
    vals = [thermo.qm_integral(half, L, n) for n in range(2, 8)]
    for n, v in zip(range(2, 8), vals):
        assert v == pytest.approx((1 - 1 / n) * 0.25)
    # successive-integral stability bound
    for n, (a, b) in zip(range(2, 7), zip(vals, vals[1:])):
        assert abs(b - a) <= (L.defect_bound + 1e-9) / n


class FirstMinusLast(Quasimorphism):
    """Tabulation of the coboundary sums u(x_0) - u(x_n); integral 0."""

    kind = "coboundary_table"

    def __init__(self, u):
        self.u = u
        self.defect_bound = 2 * max(abs(x) for x in u)

    def value(self, word):
        if not word:
            return 0.0
        return self.u[word[0]] - self.u[word[-1]]


def test_qm_integral_of_coboundary_vanishes():
    f = full_shift(2)
    mu = bernoulli_measure(f, [0.5, 0.5], range(1, 8))
    L = FirstMinusLast([1.0, -2.0])
    for n in (2, 4, 7):
        assert thermo.qm_integral(mu, L, n) == pytest.approx(0.0, abs=1e-14)


def test_variational_principle_zero_potential():
    f = full_shift(2)
    pe = thermo.pressure(zero_qm(2), f, 12)
    parry = mk.parry_measure(f)
    bern = bernoulli_measure(f, [0.3, 0.7], range(1, 8))
    rows = thermo.variational_check(zero_qm(2), f, [("parry", parry), ("bern37", bern)], pe.point)
    by = {r["name"]: r for r in rows}
    assert by["parry"]["metric_pressure"] == pytest.approx(np.log(2))
    kl = 0.3 * np.log(0.6) + 0.7 * np.log(1.4)
    assert by["bern37"]["shortfall"] == pytest.approx(kl, abs=1e-9)


def test_variational_memory1_gibbs_chain_attains():
    f = full_shift(2)
    L = PatternCount((0, 1))
    mm, _, loglam = mk.gibbs_chain_from_qm(L, f)
    rows = thermo.variational_check(L, f, [("gibbs", mm), ("parry", mk.parry_measure(f))], loglam)
    by = {r["name"]: r for r in rows}
    assert by["gibbs"]["metric_pressure"] == pytest.approx(loglam, abs=1e-12)
    assert by["parry"]["metric_pressure"] < loglam - 1e-3


def test_variational_coboundary_has_same_maximizer_as_zero():
    f = full_shift(2)
    L = FirstMinusLast([0.7, -0.4])
    parry = mk.parry_measure(f)
    bern = bernoulli_measure(f, [0.3, 0.7], range(1, 9))
    rows = thermo.variational_check(L, f, [("parry", parry), ("bern37", bern)], np.log(2))
    by = {r["name"]: r for r in rows}
    # integrals vanish for every invariant measure, so entropy decides
    assert abs(by["parry"]["integral"]) < 1e-12
    assert abs(by["bern37"]["integral"]) < 1e-12
    assert by["parry"]["metric_pressure"] > by["bern37"]["metric_pressure"]


@pytest.mark.parametrize("sft,weights", [(full_shift(2), [800.0, -800.0]), (golden_mean(), [-800.0, 0.0])],
                         ids=["full2-overflow", "golden-underflow"])
def test_partition_weights_past_the_float_range_are_enumerated(tmp_path, sft, weights):
    # e^800 is inf and e^-800 is 0 in floats: the transfer wrote NaN or -inf for every p_n
    L = LetterWeights(weights)
    got, want = thermo.pressure(L, sft, 8), thermo.pressure(L, sft, 8, method="enumerate")
    assert np.all(np.isfinite(got.p_n)) and np.all(np.abs(got.p_n - want.p_n) <= 1e-12 * np.abs(want.p_n))
    assert (got.lower, got.upper) == (want.lower, want.upper)  # the enumeration's rounding slack
    assert thermo.log_partition(L, sft, 5) == want.p_n[4]
    with pytest.raises(ValueError, match="2\\^-1000"):
        thermo.log_partition_sequence(L, sft, 8, method="transfer")
    if weights[0] == 800.0:  # through the op: the interval holds 800, the transfer is refused
        cfg = {"sft": sft.to_json(), "qm": {"kind": "letter_weights", "weights": weights}, "n_max": 8,
               "thresholds": {"contains": 800.0}}
        assert cli.main(["pressure", "--json", json.dumps(cfg), "--out", str(tmp_path / "a")]) == 0
        cfg["method"] = "transfer"
        assert cli.main(["pressure", "--json", json.dumps(cfg), "--out", str(tmp_path / "b")]) == 2
