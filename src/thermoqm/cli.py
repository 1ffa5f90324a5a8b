"""Reproducible experiment runner.

One subcommand per operation, each configured by a JSON object (--config file
or --json inline).  Every run writes summary.json (plus op-specific CSV/JSON
artifacts) into --out; wall time goes to a timing.json sidecar so that reruns
are byte-identical.  The ops form one table, `OPS`, filled by `@op` with each
op's required and optional top-level keys and defaults.  `execute` first
parses: it checks the keys and reads each one by `READERS` (an AttributeError,
KeyError or TypeError raised there is an InvalidConfig); then the op's handler computes,
checks and returns its artifacts (the words op appends its CSV to the output
directory slice by slice while it enumerates, through the same `_write`).
Exit codes: 0 pass, 1 threshold failure, 2 invalid input (the config could not
be parsed, or the library refused it with ValueError or a ThermoQmError),
3 resource limit, 4 any other exception, a library bug (summary.json still
records it).
"""

from __future__ import annotations

import argparse
import json
import operator
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


# -- config specs --------------------------------------------------------------------
# Tables of kinds map a kind to (required keys, optional keys, build(spec, sft));
# builds call nested parsers by module-global name, so wrapped parsers see them.


def _require(cfg, allowed, required):
    """Reject keys outside `allowed` and missing `required` ones ("a|b": either)."""
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in required if not any(x in cfg for x in k.split("|"))]
    if missing:
        raise InvalidConfig(f"missing config keys: {missing}")


def _from_kinds(kinds, spec, what, sft, tag="kind"):
    if not isinstance(spec, dict) or tag not in spec:
        raise InvalidConfig(f"{what} spec must be an object with a {tag!r}")
    if spec[tag] not in kinds:
        raise InvalidConfig(f"unknown {what} {tag} {spec[tag]!r}")
    required, optional, build = kinds[spec[tag]]
    _require(spec, {tag, *required.split(), *optional.split()}, required.split())
    return build(spec, sft)


SFT_BUILTINS = {
    "full_shift": ("d", "", lambda s, _: full_shift(int(s["d"]))),
    "golden_mean": ("", "", lambda s, _: golden_mean()),
    "free_group": ("rank", "", lambda s, _: freegroup.FreeGroup(int(s["rank"])).sft()),
}


def parse_sft(spec):
    if isinstance(spec, dict) and "file" in spec:
        _require(spec, {"file"}, {"file"})
        return Sft.from_file(spec["file"])
    if isinstance(spec, dict) and "builtin" not in spec:
        _require(spec, {"d", "rows"}, {"rows"})
        return Sft.from_json(spec)
    return _from_kinds(SFT_BUILTINS, spec, "sft", None, tag="builtin")


def _free_group(sft):
    if not (sft.name or "").startswith("free_group("):
        raise InvalidConfig("brooks quasimorphisms need a free_group sft")
    return freegroup.FreeGroup(int(sft.name[len("free_group("):-1]))


def _parse_pattern(raw, sft):
    if not isinstance(raw, str):
        return tuple(int(x) - 1 for x in raw)
    if (sft.name or "").startswith("free_group("):
        return _free_group(sft).parse(raw)
    return parse_word(raw, sft.d)


def _letter_weights(spec, sft):
    if len(spec["weights"]) != sft.d:
        raise InvalidConfig("letter_weights needs one weight per symbol")
    return LetterWeights(spec["weights"])


QM_KINDS = {
    "zero": ("", "", lambda s, sft: zero_qm(sft.d)),
    "letter_weights": ("weights", "", _letter_weights),
    "pattern_count": ("pattern", "", lambda s, sft: PatternCount(_parse_pattern(s["pattern"], sft))),
    "signed_pattern_count": ("pattern anti", "", lambda s, sft: SignedPatternCount(
        _parse_pattern(s["pattern"], sft), _parse_pattern(s["anti"], sft))),
    "brooks": ("pattern", "", lambda s, sft: freegroup.brooks(_free_group(sft), s["pattern"])),
    "linear_combination": ("terms", "", lambda s, sft: LinearCombinationQm(
        [(float(t["coef"]), parse_qm(t["qm"], sft)) for t in s["terms"]])),
    "tabulated": ("tables defect", "extend", lambda s, sft: TabulatedQm(
        {int(n): {parse_word(w, sft.d): float(v) for w, v in tbl.items()}
         for n, tbl in s["tables"].items()},
        float(s["defect"]), extend=bool(s.get("extend", False)))),
}


def parse_qm(spec, sft):
    return _from_kinds(QM_KINDS, spec, "qm", sft)


def parse_potential(spec, sft):
    _require(spec, {"kind", "memory", "values", "qm"}, set())
    if "qm" in spec:
        return markov.MarkovPotential.from_qm(parse_qm(spec["qm"], sft), sft)
    s = int(spec["memory"])
    return markov.MarkovPotential(sft, s, sft.cylinders(s + 1).parse_table(spec["values"]))


def _parse_lc(spec, sft):
    """{'memory': m, 'values': {...}}, or {'coboundary_of': that} for g - g o tau."""
    if "coboundary_of" in spec:
        g = _parse_lc(spec["coboundary_of"], sft)
        return g - g.shift()
    memory = int(spec["memory"])
    return markov.LocallyConstantFn(sft, memory, sft.cylinders(memory).parse_table(spec["values"]))


# The chain kinds give a MarkovMeasure; bernoulli and gibbs_orbit a CylinderMeasure.
CHAIN_KINDS = ("parry", "gibbs_chain", "potential")
MEASURE_KINDS = {
    "parry": ("", "depth", lambda s, sft: markov.parry_measure(sft)),
    "gibbs_chain": ("qm", "depth", lambda s, sft: markov.gibbs_chain_from_qm(
        parse_qm(s["qm"], sft), sft)[0]),
    "potential": ("", "memory values qm", lambda s, sft: markov.markov_measure(
        markov.normalize_potential(parse_potential(s, sft))[0])),
    "bernoulli": ("p depth", "", lambda s, sft: bernoulli_measure(
        sft, s["p"], range(1, int(s["depth"]) + 1))),
    "gibbs_orbit": ("qm N depth", "", lambda s, sft: thermo.gibbs_measure(
        parse_qm(s["qm"], sft), sft, int(s["N"]), int(s["depth"]))),
}


def parse_measure(spec, sft):
    return _from_kinds(MEASURE_KINDS, spec, "measure", sft)


def parse_chain(spec, sft):
    """parse_measure restricted to the chain kinds; the Parry chain when spec is None."""
    spec = {"kind": "parry"} if spec is None else spec
    if isinstance(spec, dict) and spec.get("kind") not in CHAIN_KINDS:
        raise InvalidConfig(f"unknown chain kind {spec.get('kind')!r}")
    return parse_measure(spec, sft)


# -- the op table and its parse stage ------------------------------------------------

# key -> read(value, sft), for top-level keys and the keys of nested sections;
# any other key passes through as given.
READERS = {
    **dict.fromkeys("n n_max N depth seed trials count rank memory expect_vanishing".split(),
                    lambda v, sft: int(v)),
    **dict.fromkeys((
        "tolerance tolerance_tv attain_tol tol resolution oracle threshold_residual "
        "threshold_agreement expect_sigma2 expect_tol threshold_ks threshold_ks_sup delta "
        "rate rate_rel_tol max_tv mean_band_se contains max_width").split(), lambda v, sft: float(v)),
    "periodic": lambda v, sft: bool(v),
    "band": lambda v, sft: tuple(float(x) for x in v),
    "n_list": lambda v, sft: [int(n) for n in v],
    **dict.fromkeys(("qm", "qm2"), lambda v, sft: parse_qm(v, sft)),
    "chain": lambda v, sft: parse_chain(v, sft),
    "measure": lambda v, sft: parse_measure(v, sft),
    "potential": lambda v, sft: parse_potential(v, sft),
    **dict.fromkeys(("psi", "phi"), lambda v, sft: _parse_lc(v, sft)),
    "candidates": lambda v, sft: [(c["name"], parse_measure(c["measure"], sft) if "measure" in c
                                   else parse_chain(c.get("chain"), sft)) for c in v],
    "random": lambda v, sft: _section(v, "memory count seed"),
    "mc": lambda v, sft: _section(v, "n trials seed"),
    "thresholds": lambda v, sft: _section(v, "", "contains max_width"),
}


def _section(spec, required, optional=""):
    _require(spec, {*required.split(), *optional.split()}, required.split())
    return {k: READERS[k](v, None) for k, v in spec.items()}


OPS = {}  # op name -> (handler, required keys, optional keys, defaults)


def op(name, required, optional="", **defaults):
    """Register a handler; keys are space separated, chain=None is the Parry chain."""
    def register(run):
        OPS[name] = (run, required, optional, defaults)
        return run
    return register


def _parse(op, cfg, workers, out_dir):
    """The handler and its arguments: cfg over the op's defaults, each key
    read by READERS (after the sft, which the others are read against), with
    the worker count and the output directory (None: write nothing)."""
    try:
        run, required, optional, defaults = OPS[op]
        _require(cfg, {*required.replace("|", " ").split(), *optional.split(), *defaults},
                 required.split())
        sft = parse_sft(cfg["sft"]) if "sft" in cfg else None
        args = {k: READERS[k](v, sft) if k in READERS else v for k, v in {**defaults, **cfg}.items()}
    except (AttributeError, KeyError, TypeError) as exc:  # raised reading cfg: it is malformed
        raise InvalidConfig(f"{type(exc).__name__}: {exc}") from exc
    return run, {**args, "sft": sft, "workers": workers, "out_dir": out_dir}


# -- artifacts and checks ----------------------------------------------------------


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(header, lines):
    return "\n".join([header, *lines]) + "\n"


def _stats_csv(stats):
    return _csv("stat", [repr(float(x)) for x in stats])


def _table_json(sft, k, values, **head):
    """A depth-k cylinder table as {rendered word: value} JSON, beside `head`."""
    return _dumps({**head, "values": sft.cylinders(k).render_table(values)})


def _centred(psi, mm):
    return psi - markov.LocallyConstantFn.constant(psi.sft, mm.integral(psi))


CHECKS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
          "in": lambda value, band: band[0] <= value <= band[1]}


def check(name, value, threshold, mode="<="):
    """A threshold check; a value that could not be computed (None) fails it."""
    ok = value is not None and CHECKS[mode](value, threshold)
    return {"name": name, "value": value, "threshold": threshold, "mode": mode, "pass": bool(ok)}


# -- handlers ------------------------------------------------------------------------

_SOLVE_CELLS = 1 << 16  # cells of LC_N in one stack of random psi (512 KB)


@op("sft-validate", "sft")
def run_sft_validate(a):
    sft = a["sft"]
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


@op("words", "sft n", periodic=False)
def run_words(a):
    """Streams words.csv one slice of the enumeration at a time."""
    sft, n, periodic = a["sft"], a["n"], a["periodic"]
    slices = sft.word_slices(n, periodic=periodic)
    path = a["out_dir"] and os.path.join(a["out_dir"], "words.csv")
    if path:
        _write(path, "word\n")
    count = 0
    for words in slices:
        count += len(words)
        if path:
            _write(path, render_words(words), "a")
    expected = sft.periodic_count(n) if periodic else sft.word_count(n)
    return {
        "n": n,
        "periodic": periodic,
        "count": count,
        "checks": [check("count_matches_formula", count, int(expected), "==")],
    }, {}


@op("pressure", "sft qm n_max", method="auto", thresholds={})
def run_pressure(a):
    pe = thermo.pressure(a["qm"], a["sft"], a["n_max"], method=a["method"])
    checks = []
    th = a["thresholds"]
    if "contains" in th:
        checks.append(check("interval_contains_oracle", th["contains"], (pe.lower, pe.upper), "in"))
    if "max_width" in th:
        checks.append(check("interval_width", pe.width, th["max_width"], "<="))
    lines = [f"{n + 1},{x!r},{pe.lower!r},{pe.upper!r}" for n, x in enumerate(pe.p_n)]
    return {"pressure": pe.to_json(), "checks": checks}, {
        "pressure.csv": _csv("n,p_n,lower,upper", lines)
    }


@op("gibbs", "sft qm N depth")
def run_gibbs(a):
    mu = thermo.gibbs_measure(a["qm"], a["sft"], a["N"], a["depth"])
    defect = mu.invariance_defect()
    return {
        "invariance_defect": defect,
        "consistency_defect": mu.consistency_defect(),
        "checks": [check("invariance_defect", defect, 1e-10)],
    }, {"measure.json": _dumps(mu.to_json())}


@op("gibbs-check", "sft qm N depth", tolerance_tv=0.01)
def run_gibbs_check(a):
    L, sft, depth = a["qm"], a["sft"], a["depth"]
    mu = thermo.gibbs_measure(L, sft, a["N"], depth)
    mm, _, _ = markov.gibbs_chain_from_qm(L, sft)
    tvs = {k: 0.5 * float(np.abs(mu.masses_at(k) - mm.cylinder_masses(k)).sum())
           for k in range(1, depth + 1)}
    return {
        "tv_by_depth": tvs,
        "checks": [check("max_tv_vs_exact_chain", max(tvs.values()), a["tolerance_tv"])],
    }, {}


@op("entropy", "sft measure depth", "oracle", tolerance=1e-9)
def run_entropy(a):
    mu, depth = a["measure"], a["depth"]
    exact = mu.entropy_exact() if hasattr(mu, "entropy_exact") else None
    rep = thermo.entropy_report(
        mu if isinstance(mu, CylinderMeasure) else mu.cylinder_measure(depth), depth)
    checks = [check("h_vs_oracle", abs(rep.h_extrapolated - a["oracle"]), a["tolerance"])
              ] if "oracle" in a else []
    return {"entropy": rep.to_json(), "exact_markov_entropy": exact, "checks": checks}, {}


@op("variational", "sft qm n_max candidates", attain_tol=1e-3)
def run_variational(a):
    L, sft = a["qm"], a["sft"]
    pe = thermo.pressure(L, sft, a["n_max"])
    rows = thermo.variational_check(L, sft, a["candidates"], pe.point)
    best = max(rows, key=lambda r: r["metric_pressure"])
    checks = [check("best_attains_point_estimate", abs(best["shortfall"]), a["attain_tol"])]
    lines = [
        f"{r['name']},{r['entropy']!r},{r['integral']!r},{r['metric_pressure']!r},{r['shortfall']!r}"
        for r in rows
    ]
    return {"rows": rows, "point_estimate": pe.point, "best": best["name"], "checks": checks}, {
        "variational.csv": _csv("name,entropy,integral,metric_pressure,shortfall", lines)
    }


@op("potential", "sft measure depth")
def run_potential(a):
    depth = a["depth"]
    phi = bowen.potential_from_measure(a["measure"], depth)
    defect = phi.normalization_defect()
    return {
        "normalization_defect": defect,
        "checks": [check("normalization_defect", defect, 1e-10)],
    }, {"potential.json": _table_json(a["sft"], depth, phi.tables[depth], depth=depth)}


@op("komlos", "sft qm n_list depth", tol=1e-9, chain=None)
def run_komlos(a):
    res = bowen.komlos_potential(
        a["qm"], a["chain"], a["n_list"], a["depth"], tol=a["tol"], strict=False
    )
    m = res.table.m
    return {
        "converged": res.converged,
        "diffs": res.diffs,
        "checks": [check("cesaro_converged", int(res.converged), 1, "==")],
    }, {"komlos.json": _table_json(a["sft"], m, res.table.values, depth=m)}


@op("livsic", "sft qm qm2 n_max", "expect", resolution=1e-2)
def run_livsic(a):
    verdict = cohomologous(a["qm"], a["qm2"], a["sft"], a["n_max"], resolution=a["resolution"])
    checks = [check("verdict", int(verdict.verdict == a["expect"]), 1, "==")] if "expect" in a else []
    return {"verdict": verdict.to_json(), "checks": checks}, {}


@op("coboundary", "sft phi N depth", "expect_vanishing", chain=None)
def run_coboundary(a):
    sol = bowen.coboundary_solve(a["phi"], a["chain"], a["N"], a["depth"])
    checks = [check("vanishing", int(sol.vanishing), a["expect_vanishing"], "==")
              ] if "expect_vanishing" in a else []
    return {"solve": sol.to_json(), "checks": checks}, {}


@op("normalize", "sft potential")
def run_normalize(a):
    norm, lam, _ = markov.normalize_potential(a["potential"])
    defect = norm.normalization_defect()
    log_lam = float(np.log(lam))
    return {
        "lambda": lam,
        "log_lambda": log_lam,
        "normalization_defect": defect,
        "checks": [check("normalization_defect", defect, 1e-12)],
    }, {"normalized.json": _table_json(a["sft"], norm.m, norm.values,
                                       memory=norm.s, log_lambda=log_lam)}


@op("solve-cohomological", "sft psi|random", threshold_residual=1e-10, chain=None)
def run_solve_cohomological(a):
    """Random psi are drawn and solved in stacks of about _SOLVE_CELLS cells of
    LC_N, in the order one draw per psi would take them."""
    sft, mm = a["sft"], a["chain"]
    if "random" in a:
        r = a["random"]
        count, memory = r["count"], r["memory"]
        if count < 1:
            raise InvalidConfig(f"random.count must be >= 1, got {count}")
        rng = experiments.trial_rng(r["seed"], 0)
        size = len(sft.cylinders(memory))
        width = max(1, _SOLVE_CELLS // len(sft.cylinders(max(memory, mm.t))))
        stacks = (markov.LocallyConstantFn(
            sft, memory, rng.standard_normal((min(width, count - lo), size)).T)
            for lo in range(0, count, width))
    else:
        count, stacks = 1, [a["psi"]]
    worst = max(np.max(markov.solve_cohomological(mm.potential, _centred(psi, mm), mm).residual)
                for psi in stacks)
    return {
        "max_residual": float(worst),
        "count": count,
        "checks": [check("max_residual", float(worst), a["threshold_residual"])],
    }, {}


@op("variance", "sft qm|psi", "mc expect_sigma2", threshold_agreement=1e-8, expect_tol=1e-12,
    chain=None)
def run_variance(a):
    if "mc" in a and "qm" not in a:
        raise InvalidConfig("variance with mc needs qm; psi alone has no Monte Carlo check")
    if "mc" in a and a["mc"]["trials"] < 2:
        raise InvalidConfig(f"mc.trials must be >= 2 for a sample variance, got {a['mc']['trials']}")
    if "mc" in a and a["mc"]["n"] < 1:
        raise InvalidConfig(f"mc.n must be >= 1, got {a['mc']['n']}")
    mm = a["chain"]
    psi = _centred(markov.MarkovPotential.from_qm(a["qm"], a["sft"]) if "qm" in a else a["psi"], mm)
    var = markov.variance(mm.potential, psi, mm)
    sigma2 = var.sigma2_martingale
    checks = [check("two_way_agreement", var.agreement, a["threshold_agreement"] * (1 + sigma2))]
    if "expect_sigma2" in a:
        checks.append(check("sigma2_vs_expected", abs(sigma2 - a["expect_sigma2"]), a["expect_tol"]))
    summary = {"variance": var.to_json(), "checks": checks}
    if "mc" in a:
        m = a["mc"]
        res = experiments.clt_experiment(
            a["qm"], mm, m["n"], m["trials"], m["seed"], workers=a["workers"], sigma2=sigma2
        )
        emp = float(res.stats.var(ddof=1)) * sigma2  # Var(S_n)/n
        se = sigma2 * np.sqrt(2.0 / (m["trials"] - 1))
        summary["mc"] = {"var_sn_over_n": emp, "three_se_band": 3 * se}
        checks.append(check("mc_variance_within_3se", abs(emp - sigma2), 3 * se))
    return summary, {}


@op("clt", "sft qm n trials seed", "threshold_ks", chain=None)
def run_clt(a):
    if a["trials"] < 1 or a["n"] < 1:
        raise InvalidConfig("n and trials must be >= 1")
    res = experiments.clt_experiment(
        a["qm"], a["chain"], a["n"], a["trials"], a["seed"], workers=a["workers"]
    )
    return {
        "clt": res.summary(),
        "checks": [check("ks", res.ks, float(a.get("threshold_ks", 2 * res.dkw)))],
    }, {"stats.csv": _stats_csv(res.stats)}


@op("invariance", "sft qm n trials seed", threshold_ks_sup=0.05, chain=None)
def run_invariance(a):
    res = experiments.invariance_experiment(
        a["qm"], a["chain"], a["n"], a["trials"], a["seed"], workers=a["workers"]
    )
    checks = [
        check("increment_corr", res.max_abs_corr, 3.0 / np.sqrt(res.trials)),
        check("ks_sup_vs_reflection", res.ks_sup, a["threshold_ks_sup"]),
        check("ks_terminal", res.ks_terminal, 2 * experiments.dkw_band(res.trials)),
    ]
    return {"invariance": res.summary(), "checks": checks}, {
        "sup_stats.csv": _stats_csv(res.sup_stats)
    }


@op("lil", "sft qm n_max seed", band=(0.5, 1.5), chain=None)
def run_lil(a):
    lo, hi = a["band"]
    res = experiments.lil_experiment(a["qm"], a["chain"], a["n_max"], a["seed"])
    return {
        "lil": res.summary(),
        "checks": [check("sup_stat_in_band", res.sup_stat, (lo, hi), "in")],
    }, {"lil.csv": _csv("n,stat", [f"{n},{s!r}" for n, s in res.series])}


@op("deviations", "sft qm n_list trials delta seed", "rate", rate_rel_tol=0.15, chain=None)
def run_deviations(a):
    if "rate" in a and not a["rate"] > 0:
        raise InvalidConfig(f"rate must be > 0, got {a['rate']}")
    res = experiments.deviation_experiment(
        a["qm"], a["chain"], a["n_list"], a["trials"], a["delta"], a["seed"], workers=a["workers"]
    )
    checks = [check("slope_negative", res.slope, 0.0)]
    if res.gauss_slope is not None:
        checks.append(check("gauss_slope_negative", res.gauss_slope, 0.0))
    if "rate" in a:
        rate = a["rate"]
        err = abs(-res.slope - rate) / rate if res.slope is not None else None
        checks.append(check("rate_relative_error", err, a["rate_rel_tol"]))
    lines = [f"{r['n']},{r['count']},{r['p_hat']!r}" for r in res.rows]
    return {"deviations": res.summary(), "checks": checks}, {"tails.csv": _csv("n,count,p_hat", lines)}


@op("compactify", "rank n_list depth", "max_tv")
def run_compactify(a):
    res = freegroup.compactification_experiment(
        freegroup.FreeGroup(a["rank"]), a["n_list"], a["depth"])
    checks = [check("monotone_decreasing", int(res.monotone), 1, "==")]
    if "max_tv" in a:
        checks.append(check("final_tv", res.rows[-1]["tv"], a["max_tv"]))
    lines = [f"{r['n']},{r['tv']!r},{r['cyclic_words']}" for r in res.rows]
    return {"compactification": res.summary(), "checks": checks}, {
        "compactify.csv": _csv("n,tv,cyclic_words", lines)
    }


@op("spherical", "rank pattern n count seed", "threshold_ks", mean_band_se=3.0, mode="sphere")
def run_spherical(a):
    G = freegroup.FreeGroup(a["rank"])
    fn = {"sphere": freegroup.spherical_clt, "ray": freegroup.boundary_ray_clt}.get(a["mode"])
    if fn is None:
        raise ValueError(f"mode must be 'sphere' or 'ray', got {a['mode']!r}")
    res = fn(G, a["pattern"], a["n"], a["count"], a["seed"], workers=a["workers"])
    checks = [
        check("ks", res.ks, float(a.get("threshold_ks", 2 * res.dkw))),
        check("mean_within_se_band", abs(res.mean_stat), a["mean_band_se"] * res.mean_se),
    ]
    return {"spherical": res.summary(), "checks": checks}, {"stats.csv": _stats_csv(res.stats)}


# -- running ops -------------------------------------------------------------------


def _write(path, text, mode="w"):
    """Write (mode "w") or append (mode "a") text to path, making its directory."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, mode) as fh:
        fh.write(text)


def execute(op, cfg, out_dir, workers=1):
    """Run one operation, parse stage then handler; returns (exit_code, summary)."""
    started = time.time()
    try:
        run, args = _parse(op, cfg, workers, out_dir)
        summary, files = run(args)
        code = 0 if all(c["pass"] for c in summary.get("checks", [])) else 1
    except ResourceLimit as exc:
        summary, files, code = {"error": f"ResourceLimit: {exc}", "checks": []}, {}, 3
    except (ValueError, ThermoQmError) as exc:
        summary, files, code = {"error": f"{type(exc).__name__}: {exc}", "checks": []}, {}, 2
    except Exception as exc:  # a library bug: report it and still leave a summary behind
        traceback.print_exc()
        summary, files, code = {"error": f"{type(exc).__name__}: {exc}", "checks": []}, {}, 4
    summary_out = {"op": op, "config": cfg, "exit_code": code, "pass": code == 0, **summary}
    if out_dir:
        _write(os.path.join(out_dir, "summary.json"), _dumps(summary_out))
        for name, text in files.items():
            _write(os.path.join(out_dir, name), text)
        _write(os.path.join(out_dir, "timing.json"),
               json.dumps({"wall_time_s": time.time() - started}) + "\n")
    return code, summary_out


def run_suite(manifest, out_dir, workers=1):
    rows = []
    for entry in manifest.get("runs", []):
        name, op = entry["name"], entry["op"]
        if op not in OPS:
            raise InvalidConfig(f"unknown op {op!r} in manifest")
        code, summary = execute(op, entry["config"], os.path.join(out_dir, name), workers)
        rows.append({"name": name, "op": op, "exit_code": code, "pass": code == 0})
    worst = max((r["exit_code"] for r in rows), default=0)
    _write(os.path.join(out_dir, "suite_summary.json"), _dumps({"rows": rows, "exit_code": worst}))
    _write(os.path.join(out_dir, "table.csv"), _csv("name,op,exit_code,pass", [
        f"{r['name']},{r['op']},{r['exit_code']},{r['pass']}" for r in rows]))
    return worst, rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thermoqm",
        description="thermodynamic formalism for quasimorphisms on subshifts of finite type",
    )
    parser.add_argument("op", choices=sorted(OPS) + ["suite"])
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
