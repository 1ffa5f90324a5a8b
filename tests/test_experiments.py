"""Monte Carlo engine: determinism, sampling laws, limit-theorem checks."""

import numpy as np
import pytest

from thermoqm import experiments as ex
from thermoqm import markov as mk
from thermoqm.errors import DegenerateSigma
from thermoqm.qm import LetterWeights, LinearCombinationQm, PatternCount
from thermoqm.sft import full_shift, golden_mean


def test_sample_path_reproducible_and_keyed():
    par = mk.parry_measure(full_shift(2))
    a = ex.sample_path(par, 500, seed=7)
    b = ex.sample_path(par, 500, seed=7)
    c = ex.sample_path(par, 500, seed=7, trial=1)
    d = ex.sample_path(par, 500, seed=8)
    assert (a == b).all()
    assert (a != c).any()
    assert (a != d).any()


def test_sample_path_letter_frequencies():
    par = mk.parry_measure(full_shift(2))
    n = 40000
    path = ex.sample_path(par, n, seed=3)
    assert abs(path.mean() - 0.5) <= 4 / np.sqrt(n)


def test_golden_mean_path_avoids_forbidden_pair():
    par = mk.parry_measure(golden_mean())
    path = ex.sample_path(par, 20000, seed=5)
    pairs = set(zip(path, path[1:]))
    assert (1, 1) not in pairs  # "22" never appears


def test_block_engine_matches_per_trial_runs():
    par = mk.parry_measure(golden_mean())
    L = PatternCount((0, 1))
    payload, _ = ex.path_functional_payload(L, par)
    payload.update(n=64, seed=17, checkpoints=(32, 64), want_max=True)
    whole = ex._simulate_block(dict(payload, trial_range=(0, 16)))
    for t in range(16):
        single = ex._simulate_block(dict(payload, trial_range=(t, t + 1)))
        assert single["final"][0] == whole["final"][t]
        assert (single["checks"][0] == whole["checks"][t]).all()
        assert single["runmax"][0] == whole["runmax"][t]


def test_engine_final_matches_direct_word_evaluation():
    par = mk.parry_measure(golden_mean())
    L = PatternCount((0, 1))
    payload, e = ex.path_functional_payload(L, par)
    payload.update(n=40, seed=23, checkpoints=(), want_max=False)
    res = ex._simulate_block(dict(payload, trial_range=(0, 10)))
    for t in range(10):
        word = tuple(int(x) for x in ex.sample_path(par, 40, seed=23, trial=t))
        assert res["final"][t] == pytest.approx(L.value(word) - 40 * e, abs=1e-12)


def test_workers_do_not_change_results(monkeypatch):
    par = mk.parry_measure(full_shift(2))
    L = LetterWeights([0.5, -0.5])
    monkeypatch.setattr(ex, "_BLOCK", 128)  # 600 trials in 5 blocks; cut before the pool forks
    r1 = ex.clt_experiment(L, par, n=400, trials=600, seed=9, workers=1)
    r2 = ex.clt_experiment(L, par, n=400, trials=600, seed=9, workers=4)
    assert (r1.stats == r2.stats).all()
    assert r1.ks == r2.ks


def test_clt_iid_small():
    par = mk.parry_measure(full_shift(2))
    res = ex.clt_experiment(LetterWeights([0.5, -0.5]), par, n=2000, trials=4000, seed=11)
    assert res.sigma2 == pytest.approx(0.25)
    assert res.ks <= 2 * res.dkw
    assert abs(res.stats.mean()) <= 4 / np.sqrt(4000)


def test_clt_rejects_degenerate_sigma():
    par = mk.parry_measure(full_shift(2))
    cob = LinearCombinationQm([(1.0, PatternCount((0, 1))), (-1.0, PatternCount((1, 0)))])
    with pytest.raises(DegenerateSigma):
        ex.clt_experiment(cob, par, n=100, trials=100, seed=1)


def test_invariance_small():
    par = mk.parry_measure(full_shift(2))
    res = ex.invariance_experiment(
        LetterWeights([0.5, -0.5]), par, n=1024, trials=3000, seed=13
    )
    assert (res.sup_stats >= res.terminal - 1e-12).all()  # sup dominates pathwise
    assert (res.sup_stats >= 0).all()
    assert res.max_abs_corr <= 3.0 / np.sqrt(res.trials)
    assert res.ks_sup <= 0.06
    assert abs(res.increments.mean()) <= 4 / np.sqrt(4 * res.trials) / 2  # mean-zero increments


def test_lil_band_and_coboundary_collapse():
    par = mk.parry_measure(full_shift(2))
    res = ex.lil_experiment(LetterWeights([0.5, -0.5]), par, n_max=10 ** 6, seed=21)
    assert 0.5 <= res.sup_stat <= 1.5
    cob = LinearCombinationQm([(1.0, PatternCount((0, 1))), (-1.0, PatternCount((1, 0)))])
    res2 = ex.lil_experiment(cob, par, n_max=10 ** 5, seed=22, sigma2=1.0)
    assert res2.sup_stat <= 0.05  # bounded sums over a vanishing normalizer


def test_lil_doubling_stays_in_band():
    par = mk.parry_measure(full_shift(2))
    r1 = ex.lil_experiment(LetterWeights([0.5, -0.5]), par, n_max=10 ** 6, seed=21)
    r2 = ex.lil_experiment(LetterWeights([0.5, -0.5]), par, n_max=2 * 10 ** 6, seed=21)
    assert r2.sup_stat >= r1.sup_stat - 1e-12  # same stream, longer run
    assert r2.sup_stat <= 1.5


def test_deviation_edges():
    par = mk.parry_measure(full_shift(2))
    L = LetterWeights([0.5, -0.5])
    # threshold above the per-step bound: empirically impossible
    res = ex.deviation_experiment(L, par, [20, 40], trials=2000, delta=0.7, seed=19)
    assert all(r["zero"] for r in res.rows)
    assert res.slope is None
    # delta = 0: CLT symmetry puts the probability near 1/2
    res0 = ex.deviation_experiment(L, par, [50, 100], trials=4000, delta=0.0, seed=20)
    for r in res0.rows:
        assert 0.4 <= r["p_hat"] <= 0.6


def test_ks_distance_and_dkw():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20000)
    d = ex.ks_distance(x, ex.standard_normal_cdf)
    assert d <= ex.dkw_band(20000)
    assert ex.dkw_band(20000, alpha=0.01) == pytest.approx(
        np.sqrt(np.log(200.0) / 40000.0)
    )


def test_bernoulli_rate_closed_form():
    assert ex.bernoulli_rate(0.2) == pytest.approx(0.7 * np.log(1.4) + 0.3 * np.log(0.6))
    assert ex.bernoulli_rate(0.0) == pytest.approx(0.0)


def test_paths_of_no_steps_are_refused():
    mm = mk.parry_measure(full_shift(2))
    with pytest.raises(ValueError, match="path length n >= 1, got 0"):
        ex.sample_path(mm, 0, 5)
    with pytest.raises(ValueError, match="path length n >= 1, got 0"):
        ex.clt_experiment(PatternCount((0, 1)), mm, 0, 10, 5)
