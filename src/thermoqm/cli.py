"""Reproducible experiment runner.

One subcommand per operation; anything with more than a couple of parameters
comes in as a JSON config (--config file or --json inline).  Every run writes
summary.json (plus op-specific CSV/JSON artifacts) into --out; exit codes:
0 pass, 1 threshold failure, 2 invalid input, 3 resource limit, 4 unexpected
error (a library bug; summary.json still records it).  Wall time
goes to a timing.json sidecar so that reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import numpy as np

from . import bowen, experiments, freegroup, markov, thermo
from .errors import InvalidConfig, ResourceLimit, ThermoQmError
from .measures import CylinderMeasure, bernoulli_measure
from .qm import (
    LetterWeights,
    LinearCombinationQm,
    PatternCount,
    SignedPatternCount,
    TabulatedQm,
    cohomologous,
    zero_qm,
)
from .sft import SCOPED_WORD_CAP, Sft, full_shift, golden_mean, parse_word, render_word, render_words


# -- config plumbing ---------------------------------------------------------------


def _require(cfg, allowed, required):
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in required if k not in cfg]
    if missing:
        raise InvalidConfig(f"missing config keys: {missing}")


def parse_sft(spec):
    if not isinstance(spec, dict):
        raise InvalidConfig("sft spec must be an object")
    if "builtin" in spec:
        name = spec["builtin"]
        if name == "full_shift":
            _require(spec, {"builtin", "d"}, {"d"})
            return full_shift(int(spec["d"]))
        if name == "golden_mean":
            _require(spec, {"builtin"}, set())
            return golden_mean()
        if name == "free_group":
            _require(spec, {"builtin", "rank"}, {"rank"})
            return freegroup.FreeGroup(int(spec["rank"])).sft()
        raise InvalidConfig(f"unknown builtin sft {name!r}")
    if "file" in spec:
        _require(spec, {"file"}, {"file"})
        return Sft.from_file(spec["file"])
    _require(spec, {"d", "rows"}, {"rows"})
    return Sft.from_json(spec)


def _parse_pattern(raw, sft):
    g = _maybe_group(sft)
    if isinstance(raw, str):
        if g is not None:
            return g.parse(raw)
        return parse_word(raw, sft.d)
    return tuple(int(x) - 1 for x in raw)


def _maybe_group(sft):
    if sft.name and sft.name.startswith("free_group("):
        return freegroup.FreeGroup(int(sft.name[len("free_group("):-1]))
    return None


def parse_qm(spec, sft):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidConfig("qm spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "zero":
        _require(spec, {"kind"}, set())
        return zero_qm(sft.d)
    if kind == "letter_weights":
        _require(spec, {"kind", "weights"}, {"weights"})
        weights = spec["weights"]
        if len(weights) != sft.d:
            raise InvalidConfig("letter_weights needs one weight per symbol")
        return LetterWeights(weights)
    if kind == "pattern_count":
        _require(spec, {"kind", "pattern"}, {"pattern"})
        return PatternCount(_parse_pattern(spec["pattern"], sft))
    if kind == "signed_pattern_count":
        _require(spec, {"kind", "pattern", "anti"}, {"pattern", "anti"})
        return SignedPatternCount(
            _parse_pattern(spec["pattern"], sft), _parse_pattern(spec["anti"], sft)
        )
    if kind == "brooks":
        _require(spec, {"kind", "pattern"}, {"pattern"})
        g = _maybe_group(sft)
        if g is None:
            raise InvalidConfig("brooks quasimorphisms need a free_group sft")
        return freegroup.brooks(g, spec["pattern"])
    if kind == "linear_combination":
        _require(spec, {"kind", "terms"}, {"terms"})
        return LinearCombinationQm(
            [(float(t["coef"]), parse_qm(t["qm"], sft)) for t in spec["terms"]]
        )
    if kind == "tabulated":
        _require(spec, {"kind", "tables", "defect", "extend"}, {"tables", "defect"})
        tables = {
            int(n): {parse_word(w, sft.d): float(v) for w, v in tbl.items()}
            for n, tbl in spec["tables"].items()
        }
        return TabulatedQm(tables, float(spec["defect"]), extend=bool(spec.get("extend", False)))
    raise InvalidConfig(f"unknown qm kind {kind!r}")


def parse_chain(spec, sft):
    """A MarkovMeasure from {'kind': 'parry'} or {'kind': 'gibbs_chain', 'qm': ...}
    or {'kind': 'potential', 'memory': s, 'values': {...}}."""
    if spec is None:
        spec = {"kind": "parry"}
    kind = spec.get("kind")
    if kind == "parry":
        _require(spec, {"kind"}, set())
        return markov.parry_measure(sft)
    if kind == "gibbs_chain":
        _require(spec, {"kind", "qm"}, {"qm"})
        mm, _, _ = markov.gibbs_chain_from_qm(parse_qm(spec["qm"], sft), sft)
        return mm
    if kind == "potential":
        pot = parse_potential(spec, sft)
        norm, _, _ = markov.normalize_potential(pot)
        return markov.markov_measure(norm)
    raise InvalidConfig(f"unknown chain kind {kind!r}")


def parse_potential(spec, sft):
    _require(spec, {"kind", "memory", "values", "qm"}, set())
    if "qm" in spec:
        return markov.MarkovPotential.from_qm(parse_qm(spec["qm"], sft), sft)
    s = int(spec["memory"])
    idx = sft.cylinders(s + 1)
    vals = np.zeros(len(idx))
    for text, v in spec["values"].items():
        vals[idx.index(parse_word(text, sft.d))] = float(v)
    return markov.MarkovPotential(sft, s, vals)


def parse_measure(spec, sft):
    """Cylinder-measure sources for entropy/potential/variational candidates."""
    kind = spec.get("kind")
    if kind == "parry":
        _require(spec, {"kind", "depth"}, set())
        return markov.parry_measure(sft)
    if kind == "gibbs_chain":
        _require(spec, {"kind", "qm", "depth"}, {"qm"})
        mm, _, _ = markov.gibbs_chain_from_qm(parse_qm(spec["qm"], sft), sft)
        return mm
    if kind == "bernoulli":
        _require(spec, {"kind", "p", "depth"}, {"p", "depth"})
        return bernoulli_measure(sft, spec["p"], range(1, int(spec["depth"]) + 1))
    if kind == "gibbs_orbit":
        _require(spec, {"kind", "qm", "N", "depth", "weighting"}, {"qm", "N", "depth"})
        return thermo.gibbs_measure(
            parse_qm(spec["qm"], sft), sft, int(spec["N"]), int(spec["depth"]),
            weighting=spec.get("weighting", "homogenized"),
        )
    raise InvalidConfig(f"unknown measure kind {kind!r}")


def _as_cylinder_measure(mu, depth):
    if isinstance(mu, CylinderMeasure):
        return mu
    return mu.cylinder_measure(depth)


def check(name, value, threshold, mode="<="):
    if mode == "<=":
        ok = value <= threshold
    elif mode == ">=":
        ok = value >= threshold
    elif mode == "in":
        ok = threshold[0] <= value <= threshold[1]
    elif mode == "==":
        ok = value == threshold
    else:
        raise ValueError(f"unknown check mode {mode!r}")
    return {"name": name, "value": value, "threshold": threshold, "mode": mode, "pass": bool(ok)}


# -- handlers ------------------------------------------------------------------------


def run_sft_validate(cfg, ctx):
    _require(cfg, {"sft"}, {"sft"})
    sft = parse_sft(cfg["sft"])
    connectors = {
        f"{i + 1}->{j + 1}": render_word(u) for (i, j), u in sorted(sft.connectors.items())
    }
    return {
        "d": sft.d,
        "M": sft.M,
        "connectors": connectors,
        "word_counts": [int(sft.word_count(n)) for n in range(0, 9)],
        "periodic_counts": [int(sft.periodic_count(n)) for n in range(1, 9)],
        "checks": [],
    }, {}


def run_words(cfg, ctx):
    _require(cfg, {"sft", "n", "periodic"}, {"sft", "n"})
    sft = parse_sft(cfg["sft"])
    n = int(cfg["n"])
    periodic = bool(cfg.get("periodic", False))
    words = sft.word_array(n, periodic=periodic)
    expected = sft.periodic_count(n) if periodic else sft.word_count(n)
    return {
        "n": n,
        "periodic": periodic,
        "count": len(words),
        "checks": [check("count_matches_formula", len(words), int(expected), "==")],
    }, {"words.csv": "word\n" + render_words(words)}


def run_pressure(cfg, ctx):
    _require(cfg, {"sft", "qm", "n_max", "method", "thresholds"}, {"sft", "qm", "n_max"})
    sft = parse_sft(cfg["sft"])
    L = parse_qm(cfg["qm"], sft)
    pe = thermo.pressure(L, sft, int(cfg["n_max"]), method=cfg.get("method", "auto"))
    checks = []
    th = cfg.get("thresholds", {})
    if "contains" in th:
        checks.append(check("interval_contains_oracle", th["contains"], (pe.lower, pe.upper), "in"))
    if "max_width" in th:
        checks.append(check("interval_width", pe.width, th["max_width"], "<="))
    lines = ["n,p_n,lower,upper"] + [
        f"{n + 1},{x!r},{pe.lower!r},{pe.upper!r}" for n, x in enumerate(pe.p_n)
    ]
    return {"pressure": pe.to_json(), "checks": checks}, {"pressure.csv": "\n".join(lines) + "\n"}


def run_gibbs(cfg, ctx):
    _require(cfg, {"sft", "qm", "N", "depth", "weighting"}, {"sft", "qm", "N", "depth"})
    sft = parse_sft(cfg["sft"])
    L = parse_qm(cfg["qm"], sft)
    mu = thermo.gibbs_measure(
        L, sft, int(cfg["N"]), int(cfg["depth"]), weighting=cfg.get("weighting", "homogenized")
    )
    summary = {
        "invariance_defect": mu.invariance_defect(),
        "consistency_defect": mu.consistency_defect(),
        "checks": [check("invariance_defect", mu.invariance_defect(), 1e-10)],
    }
    return summary, {"measure.json": json.dumps(mu.to_json(), sort_keys=True, indent=2) + "\n"}


def run_gibbs_check(cfg, ctx):
    _require(cfg, {"sft", "qm", "N", "depth", "tolerance_tv"}, {"sft", "qm", "N", "depth"})
    sft = parse_sft(cfg["sft"])
    L = parse_qm(cfg["qm"], sft)
    N, depth = int(cfg["N"]), int(cfg["depth"])
    tol = float(cfg.get("tolerance_tv", 0.01))
    mu = thermo.gibbs_measure(L, sft, N, depth)
    mm, _, _ = markov.gibbs_chain_from_qm(L, sft)
    tvs = {k: 0.5 * float(np.abs(mu.masses_at(k) - mm.cylinder_masses(k)).sum())
           for k in range(1, depth + 1)}
    return {
        "tv_by_depth": tvs,
        "checks": [check("max_tv_vs_exact_chain", max(tvs.values()), tol)],
    }, {}


def run_entropy(cfg, ctx):
    _require(cfg, {"sft", "measure", "depth", "oracle", "tolerance"}, {"sft", "measure", "depth"})
    sft = parse_sft(cfg["sft"])
    depth = int(cfg["depth"])
    mu = parse_measure(cfg["measure"], sft)
    exact = mu.entropy_exact() if hasattr(mu, "entropy_exact") else None
    rep = thermo.entropy_report(_as_cylinder_measure(mu, depth), depth)
    checks = []
    if "oracle" in cfg:
        tol = float(cfg.get("tolerance", 1e-9))
        checks.append(check("h_vs_oracle", abs(rep.h_extrapolated - cfg["oracle"]), tol))
    return {"entropy": rep.to_json(), "exact_markov_entropy": exact, "checks": checks}, {}


def run_variational(cfg, ctx):
    _require(
        cfg, {"sft", "qm", "n_max", "candidates", "attain_tol"}, {"sft", "qm", "n_max", "candidates"}
    )
    sft = parse_sft(cfg["sft"])
    L = parse_qm(cfg["qm"], sft)
    pe = thermo.pressure(L, sft, int(cfg["n_max"]))
    cands = []
    for c in cfg["candidates"]:
        mu = parse_measure(c["measure"], sft) if "measure" in c else parse_chain(c.get("chain"), sft)
        cands.append((c["name"], mu))
    rows = thermo.variational_check(L, sft, cands, pe.point)
    best = max(rows, key=lambda r: r["metric_pressure"])
    checks = [check("best_attains_point_estimate", abs(best["shortfall"]), float(cfg.get("attain_tol", 1e-3)))]
    lines = ["name,entropy,integral,metric_pressure,shortfall"] + [
        f"{r['name']},{r['entropy']!r},{r['integral']!r},{r['metric_pressure']!r},{r['shortfall']!r}"
        for r in rows
    ]
    return {"rows": rows, "point_estimate": pe.point, "best": best["name"], "checks": checks}, {
        "variational.csv": "\n".join(lines) + "\n"
    }


def run_potential(cfg, ctx):
    _require(cfg, {"sft", "measure", "depth"}, {"sft", "measure", "depth"})
    sft = parse_sft(cfg["sft"])
    depth = int(cfg["depth"])
    mu = parse_measure(cfg["measure"], sft)
    src = mu if not hasattr(mu, "cylinder_measure") else mu.cylinder_measure(depth)
    phi = bowen.potential_from_measure(src, depth)
    dump = {
        "depth": depth,
        "values": {render_word(w): float(v)
                   for w, v in zip(sft.cylinders(depth).words, phi.tables[depth])},
    }
    defect = phi.normalization_defect()
    return {
        "normalization_defect": defect,
        "checks": [check("normalization_defect", defect, 1e-10)],
    }, {"potential.json": json.dumps(dump, sort_keys=True, indent=2) + "\n"}


def run_komlos(cfg, ctx):
    _require(cfg, {"sft", "qm", "chain", "n_list", "depth", "tol"}, {"sft", "qm", "n_list", "depth"})
    sft = parse_sft(cfg["sft"])
    L = parse_qm(cfg["qm"], sft)
    mm = parse_chain(cfg.get("chain"), sft)
    res = bowen.komlos_potential(
        L, mm, [int(n) for n in cfg["n_list"]], int(cfg["depth"]),
        tol=float(cfg.get("tol", 1e-9)), strict=False,
    )
    dump = {
        "depth": res.table.m,
        "values": {render_word(w): float(v)
                   for w, v in zip(sft.cylinders(res.table.m).words, res.table.values)},
    }
    return {
        "converged": res.converged,
        "diffs": res.diffs,
        "checks": [check("cesaro_converged", int(res.converged), 1, "==")],
    }, {"komlos.json": json.dumps(dump, sort_keys=True, indent=2) + "\n"}


def run_livsic(cfg, ctx):
    _require(
        cfg, {"sft", "qm", "qm2", "n_max", "resolution", "expect"}, {"sft", "qm", "qm2", "n_max"}
    )
    sft = parse_sft(cfg["sft"])
    L1 = parse_qm(cfg["qm"], sft)
    L2 = parse_qm(cfg["qm2"], sft)
    verdict = cohomologous(L1, L2, sft, int(cfg["n_max"]), resolution=float(cfg.get("resolution", 1e-2)))
    checks = []
    if "expect" in cfg:
        checks.append(check("verdict", int(verdict.verdict == cfg["expect"]), 1, "=="))
    return {"verdict": verdict.to_json(), "checks": checks}, {}


def run_coboundary(cfg, ctx):
    _require(
        cfg,
        {"sft", "chain", "phi", "N", "depth", "expect_vanishing"},
        {"sft", "phi", "N", "depth"},
    )
    sft = parse_sft(cfg["sft"])
    mm = parse_chain(cfg.get("chain"), sft)
    spec = cfg["phi"]
    if "coboundary_of" in spec:
        g = _lc_from_spec(spec["coboundary_of"], sft)
        phi = g - g.shift()
    else:
        phi = _lc_from_spec(spec, sft)
    sol = bowen.coboundary_solve(phi, mm, int(cfg["N"]), int(cfg["depth"]))
    checks = []
    if "expect_vanishing" in cfg:
        checks.append(check("vanishing", int(sol.vanishing), int(cfg["expect_vanishing"]), "=="))
    return {"solve": sol.to_json(), "checks": checks}, {}


def _lc_from_spec(spec, sft):
    memory = int(spec["memory"])
    idx = sft.cylinders(memory)
    vals = np.zeros(len(idx))
    for text, v in spec["values"].items():
        vals[idx.index(parse_word(text, sft.d))] = float(v)
    return markov.LocallyConstantFn(sft, memory, vals)


def run_normalize(cfg, ctx):
    _require(cfg, {"sft", "potential"}, {"sft", "potential"})
    sft = parse_sft(cfg["sft"])
    pot = parse_potential(cfg["potential"], sft)
    norm, lam, h = markov.normalize_potential(pot)
    defect = norm.normalization_defect()
    dump = {
        "memory": norm.s,
        "log_lambda": float(np.log(lam)),
        "values": {render_word(w): float(v)
                   for w, v in zip(sft.cylinders(norm.s + 1).words, norm.table)},
    }
    return {
        "lambda": lam,
        "log_lambda": float(np.log(lam)),
        "normalization_defect": defect,
        "checks": [check("normalization_defect", defect, 1e-12)],
    }, {"normalized.json": json.dumps(dump, sort_keys=True, indent=2) + "\n"}


def run_solve_cohomological(cfg, ctx):
    _require(
        cfg,
        {"sft", "chain", "psi", "random", "threshold_residual"},
        {"sft"},
    )
    sft = parse_sft(cfg["sft"])
    mm = parse_chain(cfg.get("chain"), sft)
    pot = mm.potential
    tol = float(cfg.get("threshold_residual", 1e-10))
    residuals = []
    if "random" in cfg:
        r = cfg["random"]
        _require(r, {"memory", "count", "seed"}, {"memory", "count", "seed"})
        N, count = int(r["memory"]), int(r["count"])
        rng = experiments.trial_rng(int(r["seed"]), 0)
        idx = sft.cylinders(N)
        for _ in range(count):
            raw = rng.standard_normal(len(idx))
            psi = markov.LocallyConstantFn(sft, N, raw)
            psi = psi - markov.LocallyConstantFn.constant(sft, mm.integral(psi))
            residuals.append(markov.solve_cohomological(pot, psi, mm).residual)
    else:
        psi = _lc_from_spec(cfg["psi"], sft)
        psi = psi - markov.LocallyConstantFn.constant(sft, mm.integral(psi))
        residuals.append(markov.solve_cohomological(pot, psi, mm).residual)
    worst = max(residuals)
    return {
        "max_residual": worst,
        "count": len(residuals),
        "checks": [check("max_residual", worst, tol)],
    }, {}


def run_variance(cfg, ctx):
    _require(
        cfg,
        {"sft", "chain", "qm", "psi", "threshold_agreement", "mc", "expect_sigma2", "expect_tol"},
        {"sft"},
    )
    sft = parse_sft(cfg["sft"])
    mm = parse_chain(cfg.get("chain"), sft)
    if "qm" in cfg:
        L = parse_qm(cfg["qm"], sft)
        ps = markov.per_step_fn(L, sft)
        psi = ps - markov.LocallyConstantFn.constant(sft, mm.integral(ps))
    else:
        psi = _lc_from_spec(cfg["psi"], sft)
        psi = psi - markov.LocallyConstantFn.constant(sft, mm.integral(psi))
    var = markov.variance(mm.potential, psi, mm)
    checks = [check("two_way_agreement", var.agreement,
                    float(cfg.get("threshold_agreement", 1e-8)) * (1 + var.sigma2_martingale))]
    if "expect_sigma2" in cfg:
        checks.append(check("sigma2_vs_expected",
                            abs(var.sigma2_martingale - float(cfg["expect_sigma2"])),
                            float(cfg.get("expect_tol", 1e-12))))
    summary = {"variance": var.to_json(), "checks": checks}
    if "mc" in cfg and "qm" in cfg:
        m = cfg["mc"]
        _require(m, {"n", "trials", "seed"}, {"n", "trials", "seed"})
        res = experiments.clt_experiment(
            L, mm, int(m["n"]), int(m["trials"]), int(m["seed"]),
            workers=ctx["workers"], sigma2=var.sigma2_martingale,
        )
        n, trials = int(m["n"]), int(m["trials"])
        emp = float(res.stats.var(ddof=1)) * var.sigma2_martingale  # Var(S_n)/n
        se = var.sigma2_martingale * np.sqrt(2.0 / (trials - 1))
        summary["mc"] = {"var_sn_over_n": emp, "three_se_band": 3 * se}
        checks.append(check("mc_variance_within_3se", abs(emp - var.sigma2_martingale), 3 * se))
    return summary, {}


def _stats_csv(stats):
    return "\n".join(["stat"] + [repr(float(x)) for x in stats]) + "\n"


def run_clt(cfg, ctx):
    _require(
        cfg, {"sft", "qm", "chain", "n", "trials", "seed", "threshold_ks"},
        {"sft", "qm", "n", "trials", "seed"},
    )
    sft = parse_sft(cfg["sft"])
    if int(cfg["trials"]) < 1 or int(cfg["n"]) < 1:
        raise InvalidConfig("n and trials must be positive")
    L = parse_qm(cfg["qm"], sft)
    mm = parse_chain(cfg.get("chain"), sft)
    res = experiments.clt_experiment(
        L, mm, int(cfg["n"]), int(cfg["trials"]), int(cfg["seed"]), workers=ctx["workers"]
    )
    threshold = float(cfg.get("threshold_ks", 2 * res.dkw))
    return {
        "clt": res.summary(),
        "checks": [check("ks", res.ks, threshold)],
    }, {"stats.csv": _stats_csv(res.stats)}


def run_invariance(cfg, ctx):
    _require(
        cfg,
        {"sft", "qm", "chain", "n", "trials", "seed", "threshold_ks_sup"},
        {"sft", "qm", "n", "trials", "seed"},
    )
    sft = parse_sft(cfg["sft"])
    L = parse_qm(cfg["qm"], sft)
    mm = parse_chain(cfg.get("chain"), sft)
    res = experiments.invariance_experiment(
        L, mm, int(cfg["n"]), int(cfg["trials"]), int(cfg["seed"]), workers=ctx["workers"]
    )
    checks = [
        check("increment_corr", res.max_abs_corr, 3.0 / np.sqrt(res.trials)),
        check("ks_sup_vs_reflection", res.ks_sup, float(cfg.get("threshold_ks_sup", 0.05))),
        check("ks_terminal", res.ks_terminal, 2 * experiments.dkw_band(res.trials)),
    ]
    return {"invariance": res.summary(), "checks": checks}, {
        "sup_stats.csv": _stats_csv(res.sup_stats)
    }


def run_lil(cfg, ctx):
    _require(cfg, {"sft", "qm", "chain", "n_max", "seed", "band"}, {"sft", "qm", "n_max", "seed"})
    sft = parse_sft(cfg["sft"])
    L = parse_qm(cfg["qm"], sft)
    mm = parse_chain(cfg.get("chain"), sft)
    res = experiments.lil_experiment(L, mm, int(cfg["n_max"]), int(cfg["seed"]))
    lo, hi = cfg.get("band", (0.5, 1.5))
    lines = ["n,stat"] + [f"{n},{s!r}" for n, s in res.series]
    return {
        "lil": res.summary(),
        "checks": [check("sup_stat_in_band", res.sup_stat, (float(lo), float(hi)), "in")],
    }, {"lil.csv": "\n".join(lines) + "\n"}


def run_deviations(cfg, ctx):
    _require(
        cfg,
        {"sft", "qm", "chain", "n_list", "trials", "delta", "seed", "rate", "rate_rel_tol"},
        {"sft", "qm", "n_list", "trials", "delta", "seed"},
    )
    sft = parse_sft(cfg["sft"])
    L = parse_qm(cfg["qm"], sft)
    mm = parse_chain(cfg.get("chain"), sft)
    res = experiments.deviation_experiment(
        L, mm, [int(n) for n in cfg["n_list"]], int(cfg["trials"]), float(cfg["delta"]),
        int(cfg["seed"]), workers=ctx["workers"],
    )
    checks = [check("slope_negative", res.slope if res.slope is not None else 1.0, 0.0)]
    if res.gauss_slope is not None:
        checks.append(check("gauss_slope_negative", res.gauss_slope, 0.0))
    if "rate" in cfg:
        rel = float(cfg.get("rate_rel_tol", 0.15))
        rate = float(cfg["rate"])
        checks.append(check("rate_relative_error", abs(-res.slope - rate) / rate, rel))
    lines = ["n,count,p_hat"] + [f"{r['n']},{r['count']},{r['p_hat']!r}" for r in res.rows]
    return {"deviations": res.summary(), "checks": checks}, {"tails.csv": "\n".join(lines) + "\n"}


def run_compactify(cfg, ctx):
    _require(cfg, {"rank", "n_list", "depth", "max_tv"}, {"rank", "n_list", "depth"})
    G = freegroup.FreeGroup(int(cfg["rank"]))
    res = freegroup.compactification_experiment(G, cfg["n_list"], int(cfg["depth"]))
    checks = [check("monotone_decreasing", int(res.monotone), 1, "==")]
    if "max_tv" in cfg:
        checks.append(check("final_tv", res.rows[-1]["tv"], float(cfg["max_tv"])))
    lines = ["n,tv,cyclic_words"] + [
        f"{r['n']},{r['tv']!r},{r['cyclic_words']}" for r in res.rows
    ]
    return {"compactification": res.summary(), "checks": checks}, {
        "compactify.csv": "\n".join(lines) + "\n"
    }


def run_spherical(cfg, ctx):
    _require(
        cfg,
        {"rank", "pattern", "n", "count", "seed", "mode", "threshold_ks", "mean_band_se"},
        {"rank", "pattern", "n", "count", "seed"},
    )
    G = freegroup.FreeGroup(int(cfg["rank"]))
    fn = freegroup.boundary_ray_clt if cfg.get("mode") == "ray" else freegroup.spherical_clt
    res = fn(G, cfg["pattern"], int(cfg["n"]), int(cfg["count"]), int(cfg["seed"]),
             workers=ctx["workers"])
    checks = [
        check("ks", res.ks, float(cfg.get("threshold_ks", 2 * res.dkw))),
        check("mean_within_se_band", abs(res.mean_stat),
              float(cfg.get("mean_band_se", 3.0)) * res.mean_se),
    ]
    return {"spherical": res.summary(), "checks": checks}, {"stats.csv": _stats_csv(res.stats)}


HANDLERS = {
    "sft-validate": run_sft_validate,
    "words": run_words,
    "pressure": run_pressure,
    "gibbs": run_gibbs,
    "gibbs-check": run_gibbs_check,
    "entropy": run_entropy,
    "variational": run_variational,
    "potential": run_potential,
    "komlos": run_komlos,
    "livsic": run_livsic,
    "coboundary": run_coboundary,
    "normalize": run_normalize,
    "solve-cohomological": run_solve_cohomological,
    "variance": run_variance,
    "clt": run_clt,
    "invariance": run_invariance,
    "lil": run_lil,
    "deviations": run_deviations,
    "compactify": run_compactify,
    "spherical": run_spherical,
}


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def execute(op, cfg, out_dir, workers=1):
    """Run one operation; returns (exit_code, summary)."""
    ctx = {"workers": workers, "out": out_dir}
    started = time.time()
    try:
        summary, files = HANDLERS[op](cfg, ctx)
        code = 0 if all(c["pass"] for c in summary.get("checks", [])) else 1
    except (InvalidConfig, ValueError, KeyError, TypeError) as exc:
        summary, files, code = {"error": f"{type(exc).__name__}: {exc}", "checks": []}, {}, 2
    except ResourceLimit as exc:
        summary, files, code = {"error": f"ResourceLimit: {exc}", "checks": []}, {}, 3
    except ThermoQmError as exc:
        summary, files, code = {"error": f"{type(exc).__name__}: {exc}", "checks": []}, {}, 2
    except Exception as exc:  # a library bug: report it and still leave a summary behind
        traceback.print_exc()
        summary, files, code = {"error": f"{type(exc).__name__}: {exc}", "checks": []}, {}, 4
    summary_out = {"op": op, "config": cfg, "exit_code": code, "pass": code == 0}
    summary_out.update(summary)
    if out_dir:
        _write(os.path.join(out_dir, "summary.json"),
               json.dumps(summary_out, sort_keys=True, indent=2) + "\n")
        for name, text in files.items():
            _write(os.path.join(out_dir, name), text)
        _write(os.path.join(out_dir, "timing.json"),
               json.dumps({"wall_time_s": time.time() - started}) + "\n")
    return code, summary_out


def run_suite(manifest, out_dir, workers=1):
    runs = manifest.get("runs", [])
    rows = []
    worst = 0
    for entry in runs:
        name, op = entry["name"], entry["op"]
        if op not in HANDLERS:
            raise InvalidConfig(f"unknown op {op!r} in manifest")
        code, summary = execute(op, entry["config"], os.path.join(out_dir, name), workers)
        rows.append({"name": name, "op": op, "exit_code": code, "pass": code == 0})
        worst = max(worst, code)
    table = "\n".join(
        ["name,op,exit_code,pass"] + [f"{r['name']},{r['op']},{r['exit_code']},{r['pass']}" for r in rows]
    ) + "\n"
    _write(os.path.join(out_dir, "suite_summary.json"),
           json.dumps({"rows": rows, "exit_code": worst}, sort_keys=True, indent=2) + "\n")
    _write(os.path.join(out_dir, "table.csv"), table)
    return worst, rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thermoqm",
        description="thermodynamic formalism for quasimorphisms on subshifts of finite type",
    )
    parser.add_argument("op", choices=sorted(HANDLERS) + ["suite"])
    parser.add_argument("--config", help="path to a JSON config (or manifest for 'suite')")
    parser.add_argument("--json", dest="inline", help="inline JSON config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--cap", type=int, help="word enumeration cap override")
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as fh:
                cfg = json.load(fh)
        elif args.inline:
            cfg = json.loads(args.inline)
        else:
            raise InvalidConfig("provide --config or --json")
        if not isinstance(cfg, dict):
            raise InvalidConfig("config must be a JSON object")
    except (OSError, json.JSONDecodeError, InvalidConfig) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.seed is not None and args.op != "suite":
        cfg["seed"] = args.seed

    token = SCOPED_WORD_CAP.set(args.cap)  # --cap holds for this call, not the process
    try:
        if args.op == "suite":
            try:
                code, rows = run_suite(cfg, args.out, workers=args.workers)
            except InvalidConfig as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 2
            for r in rows:
                print(f"{r['name']}: {'PASS' if r['pass'] else 'FAIL(' + str(r['exit_code']) + ')'}")
            return code
        code, summary = execute(args.op, cfg, args.out, workers=args.workers)
    finally:
        SCOPED_WORD_CAP.reset(token)
    if "error" in summary:
        print(summary["error"], file=sys.stderr)
    else:
        for c in summary.get("checks", []):
            print(f"{c['name']}: {'PASS' if c['pass'] else 'FAIL'} ({c['value']} vs {c['threshold']})")
    return code


if __name__ == "__main__":
    sys.exit(main())
