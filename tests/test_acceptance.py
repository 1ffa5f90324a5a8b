"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines.
Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import json
import os
import time

import numpy as np
import pytest

from thermoqm import experiments as ex, freegroup as fg, markov as mk, thermo
from thermoqm.cli import run_suite
from thermoqm.measures import bernoulli_measure
from thermoqm.qm import (
    LetterWeights,
    LinearCombinationQm,
    PatternCount,
    cohomologous,
    zero_qm,
)
from thermoqm.sft import full_shift, golden_mean

GOLD = (1 + np.sqrt(5)) / 2
MANIFEST = os.path.join(os.path.dirname(__file__), "..", "configs", "acceptance_manifest.json")


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def chains():
    f = full_shift(2)
    g = golden_mean()
    fr = fg.FreeGroup(2)
    return {
        "full2": (f, mk.parry_measure(f)),
        "golden": (g, mk.parry_measure(g)),
        "free2": (fr.sft(), mk.parry_measure(fr.sft())),
        "group": fr,
    }


def random_zero_mean_lc4(sft, mm, count, seed):
    rng = ex.trial_rng(seed, 0)
    idx = sft.cylinders(4)
    out = []
    for _ in range(count):
        psi = mk.LocallyConstantFn(sft, 4, rng.standard_normal(len(idx)))
        out.append(psi - mk.LocallyConstantFn.constant(sft, mm.integral(psi)))
    return out


@pytest.fixture(scope="module")
def solver_runs(chains):
    """100 random zero-mean psi in LC_4 per subshift, solved once for 6 and 7."""
    runs = {}
    for key, seed in (("full2", 101), ("golden", 102), ("free2", 103)):
        sft, mm = chains[key]
        cases = []
        for psi in random_zero_mean_lc4(sft, mm, 100, seed):
            sol = mk.solve_cohomological(mm.potential, psi, mm)
            cases.append((psi, sol))
        runs[key] = cases
    return runs


def test_criterion_01_pressure_oracle():
    ok, details = True, []
    t0 = time.perf_counter()
    pe = thermo.pressure(zero_qm(3), full_shift(3), 12)
    t1 = time.perf_counter() - t0
    ok &= pe.contains(np.log(3)) and t1 < 10
    details.append(f"full3 width={pe.width:.2e} {t1:.2f}s")
    t0 = time.perf_counter()
    pe = thermo.pressure(zero_qm(2), golden_mean(), 18)
    t1 = time.perf_counter() - t0
    ok &= pe.contains(np.log(GOLD)) and pe.width <= 0.01 and t1 < 10
    details.append(f"golden width={pe.width:.2e} {t1:.2f}s")
    t0 = time.perf_counter()
    pe = thermo.pressure(PatternCount((0, 1)), full_shift(2), 24)
    t1 = time.perf_counter() - t0
    ok &= pe.contains(np.log(1 + np.sqrt(np.e))) and pe.width <= 0.02 and t1 < 10
    details.append(f"count01 width={pe.width:.2e} {t1:.2f}s")
    report(1, "pressure-oracle", ok, "; ".join(details))


def test_criterion_02_gibbs_consistency():
    t0 = time.perf_counter()
    f = full_shift(2)
    L = PatternCount((0, 1))
    mu = thermo.gibbs_measure(L, f, N=14, depth=6)
    mm, _, _ = mk.gibbs_chain_from_qm(L, f)
    tvs = [0.5 * float(np.abs(mu.masses_at(k) - mm.cylinder_masses(k)).sum())
           for k in range(1, 7)]
    elapsed = time.perf_counter() - t0
    ok = max(tvs) <= 0.01 and elapsed < 30
    report(2, "gibbs-consistency", ok, f"max TV={max(tvs):.2e} over depths 1..6, {elapsed:.1f}s")


def test_criterion_03_gibbs_ratio_bound(chains):
    g, par = chains["golden"]
    mu = par.cylinder_measure(8)
    z = zero_qm(2)
    rep = thermo.gibbs_ratio_report(mu, z, g, np.log(GOLD), range(1, 9))
    ok = 1 / 3 <= rep.min_ratio and rep.max_ratio <= 3
    r6 = thermo.gibbs_ratio_report(mu, z, g, np.log(GOLD), [6])
    r8 = thermo.gibbs_ratio_report(mu, z, g, np.log(GOLD), [8])
    stable = (abs(r8.max_ratio / r6.max_ratio - 1) <= 0.10
              and abs(r8.min_ratio / r6.min_ratio - 1) <= 0.10)
    ok &= stable
    report(3, "gibbs-ratio-bound", ok,
           f"ratios in [{rep.min_ratio:.4f}, {rep.max_ratio:.4f}], depth6/8 stable={stable}")


def test_criterion_04_variational_principle():
    f = full_shift(2)
    L = PatternCount((0, 1))
    mm, _, _ = mk.gibbs_chain_from_qm(L, f)
    pe = thermo.pressure(L, f, 512)
    rows = thermo.variational_check(L, f, [("gibbs", mm)], pe.point)
    gap = abs(rows[0]["shortfall"])
    ok = gap <= 1e-3
    # Bernoulli(0.3, 0.7) falls short of log 2 by exactly the KL divergence
    bern = bernoulli_measure(f, [0.3, 0.7], range(1, 9))
    rows2 = thermo.variational_check(zero_qm(2), f, [("bern", bern)], np.log(2))
    kl = 0.3 * np.log(0.6) + 0.7 * np.log(1.4)
    kl_gap = abs(rows2[0]["shortfall"] - kl)
    ok &= kl_gap <= 1e-6
    report(4, "variational-principle", ok,
           f"gibbs gap={gap:.2e} (<=1e-3), bernoulli shortfall vs KL err={kl_gap:.2e} (<=1e-6)")


def test_criterion_05_livsic_decision():
    t0 = time.perf_counter()
    f = full_shift(2)
    c01, c10 = PatternCount((0, 1)), PatternCount((1, 0))
    v1 = cohomologous(c01, c10, f, n_max=10)
    v2 = cohomologous(c01, LinearCombinationQm([(2.0, c01)]), f, n_max=10)
    elapsed = time.perf_counter() - t0
    ok = (v1.verdict == "cohomologous" and v1.certificate_depth == 10
          and v2.verdict == "distinct" and len(v2.witness) <= 2 and elapsed < 5)
    report(5, "livsic-decision", ok,
           f"{v1.verdict}@depth10, {v2.verdict} witness len {len(v2.witness or ())}, {elapsed:.2f}s")


def test_criterion_06_cohomological_solver(chains, solver_runs):
    worst = 0.0
    for key in ("full2", "golden", "free2"):
        for _, sol in solver_runs[key]:
            worst = max(worst, sol.residual)
    # round trip psi = g - R g
    f, mmf = chains["full2"]
    rng = ex.trial_rng(1234, 0)
    roundtrip = 0.0
    for _ in range(20):
        gfn = mk.LocallyConstantFn(f, 4, rng.standard_normal(len(f.cylinders(4))))
        psi = gfn - mk.transfer_apply(mmf.potential, gfn).as_memory(4)
        psi = psi - mk.LocallyConstantFn.constant(f, mmf.integral(psi))
        sol = mk.solve_cohomological(mmf.potential, psi, mmf)
        roundtrip = max(roundtrip, sol.residual)
    ok = worst <= 1e-10 and roundtrip <= 1e-10
    report(6, "cohomological-solver", ok,
           f"300 random psi worst residual={worst:.2e}, roundtrip worst={roundtrip:.2e}")


def test_criterion_07_variance_two_way(chains, solver_runs):
    worst = 0.0
    for key in ("full2", "golden", "free2"):
        _, mm = chains[key]
        for psi, _ in solver_runs[key]:
            var = mk.variance(mm.potential, psi, mm)
            worst = max(worst, var.agreement / (1 + var.sigma2_martingale))
    ok = worst <= 1e-8
    f, par = chains["full2"]
    psi = mk.LocallyConstantFn(f, 1, np.array([0.5, -0.5]))
    var = mk.variance(par.potential, psi, par)
    iid_err = max(abs(var.sigma2_martingale - 0.25), abs(var.sigma2_green_kubo - 0.25))
    ok &= iid_err <= 1e-12
    # Monte Carlo Var(S_n)/n against the exact sigma^2
    L = PatternCount((0, 1))
    ps = mk.MarkovPotential.from_qm(L, f)
    var01 = mk.variance(par.potential,
                        ps - mk.LocallyConstantFn.constant(f, par.integral(ps)), par)
    res = ex.clt_experiment(L, par, n=10 ** 4, trials=5000, seed=303,
                            sigma2=var01.sigma2_martingale)
    emp = float(res.stats.var(ddof=1)) * var01.sigma2_martingale
    band = 3 * var01.sigma2_martingale * np.sqrt(2.0 / (5000 - 1))
    mc_ok = abs(emp - var01.sigma2_martingale) <= band
    ok &= mc_ok
    report(7, "variance-two-way", ok,
           f"300-psi worst agreement={worst:.2e}, iid err={iid_err:.1e}, "
           f"MC |{emp:.5f}-{var01.sigma2_martingale:.5f}|<= {band:.5f}")


def test_criterion_08_clt(chains):
    f, par = chains["full2"]
    cases = [
        ("iid-letters", LetterWeights([0.5, -0.5]), par, 2026),
        ("count01", PatternCount((0, 1)), par, 2027),
    ]
    G = chains["group"]
    _, parf = chains["free2"]
    cases.append(("brooks-ab", fg.brooks(G, "ab"), parf, 2028))
    ok, details = True, []
    for name, L, mm, seed in cases:
        t0 = time.perf_counter()
        res = ex.clt_experiment(L, mm, n=5000, trials=20000, seed=seed)
        elapsed = time.perf_counter() - t0
        ok &= res.ks <= 0.02 and elapsed < 120
        details.append(f"{name} ks={res.ks:.4f} {elapsed:.0f}s")
    report(8, "clt", ok, "; ".join(details) + " (all <= 0.02)")


def test_criterion_09_invariance_principle(chains):
    f, par = chains["full2"]
    res = ex.invariance_experiment(LetterWeights([0.5, -0.5]), par,
                                   n=4096, trials=10000, seed=2030)
    corr_ok = res.max_abs_corr <= 3.0 / np.sqrt(10000)
    sup_ok = res.ks_sup <= 0.05
    ok = corr_ok and sup_ok
    report(9, "invariance-principle", ok,
           f"max increment corr={res.max_abs_corr:.4f} (<= {3 / np.sqrt(10000):.4f}), "
           f"sup KS={res.ks_sup:.4f} (<= 0.05)")


def test_criterion_10_deviations(chains):
    f, par = chains["full2"]
    rate = ex.bernoulli_rate(0.2)
    res = ex.deviation_experiment(LetterWeights([0.5, -0.5]), par,
                                  [40, 60, 80, 100], trials=10 ** 6, delta=0.2, seed=77)
    rel = abs(-res.slope - rate) / rate
    ok = rel <= 0.15 and res.gauss_slope is not None and res.gauss_slope < 0
    report(10, "deviations", ok,
           f"slope={-res.slope:.5f} vs Cramer {rate:.5f} (rel err {rel:.1%} <= 15%), "
           f"gauss exponent={res.gauss_slope:.2f} < 0")


def test_criterion_11_compactification(chains):
    t0 = time.perf_counter()
    res = fg.compactification_experiment(chains["group"], [8, 12, 16, 18], 3)
    elapsed = time.perf_counter() - t0
    tvs = [r["tv"] for r in res.rows]
    ok = res.monotone and tvs[-1] < 0.05 and elapsed < 60
    report(11, "compactification", ok,
           f"TV {['%.1e' % t for t in tvs]} decreasing, final < 0.05, {elapsed:.1f}s")


def test_criterion_12_spherical_clt(chains):
    res = fg.spherical_clt(chains["group"], "ab", n=10 ** 4, count=10 ** 5, seed=2029)
    ok = res.ks <= 0.03 and abs(res.mean_stat) <= 3 * res.mean_se
    report(12, "spherical-clt", ok,
           f"ks={res.ks:.4f} (<= 0.03), |mean|={abs(res.mean_stat):.4f} <= 3se={3 * res.mean_se:.4f}")


def collect_artifacts(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name == "timing.json":  # wall time is the one volatile artifact
                continue
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_criterion_13_determinism(tmp_path):
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    code1, _ = run_suite(manifest, str(tmp_path / "w1"), workers=1)
    code8, _ = run_suite(manifest, str(tmp_path / "w8"), workers=8)
    a, b = collect_artifacts(tmp_path / "w1"), collect_artifacts(tmp_path / "w8")
    ok = code1 == 0 and code8 == 0 and a == b and len(a) > 30
    report(13, "determinism", ok,
           f"suite exit {code1}/{code8}, {len(a)} artifacts byte-identical across workers 1 and 8")
