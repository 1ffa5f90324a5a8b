"""The benchmark's workloads: op lists generated from a seed, with checks.

Every op is a (cli op name, JSON config) pair that goes through
``thermoqm.cli.execute``, so the library's own thresholds judge it.  The
benchmark adds closed-form checks where the repo has closed forms and a
determinism digest per op.

Every workload starts each pass with the same small probe block: one small
op per layer, each with a closed form or a library gate.  The probe block
keeps every end-to-end metric (pressure_s, sigma2_s, mc_steps_per_s,
words_per_s) and every traced layer defined and non-zero on every workload,
at a tenth to a fifth of a pass.  The rest of the pass is the workload's own
ops, sized so that its dominant layer stays dominant.

MC ops whose sizes differ from configs/acceptance_manifest.json are scaled
variants and use the library's default gates (for example 2x the DKW band for
KS); exact ops keep the manifest's thresholds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

F2 = {"builtin": "full_shift", "d": 2}
F3 = {"builtin": "full_shift", "d": 3}
GOLDEN = {"builtin": "golden_mean"}
FREE2 = {"builtin": "free_group", "rank": 2}
FREE3 = {"builtin": "free_group", "rank": 3}
ZERO = {"kind": "zero"}
COUNT01 = {"kind": "pattern_count", "pattern": "12"}
COUNT10 = {"kind": "pattern_count", "pattern": "21"}
IID = {"kind": "letter_weights", "weights": [0.5, -0.5]}

LOG_PHI = math.log((1.0 + math.sqrt(5.0)) / 2.0)
LOG3 = math.log(3.0)
# count01 on the full 2-shift: Perron root of [[1, 1], [e, 1]] is 1 + sqrt(e).
P_COUNT01 = math.log(1.0 + math.sqrt(math.e))
SIGMA2_COUNT01 = 1.0 / 16.0

# The artifact that holds each MC op's statistic array.
MC_ARTIFACT = {
    "clt": "stats.csv",
    "spherical": "stats.csv",
    "invariance": "sup_stats.csv",
    "lil": "lil.csv",
    "deviations": "tails.csv",
}

WORKLOADS = ("mc-many-trials", "mc-long-path", "exact-transfer", "enumerate")


@dataclass
class Op:
    name: str
    op: str
    cfg: dict
    steps: int = 0  # symbol-steps sampled (trials * n) for MC ops
    oracle: float | None = None  # closed-form pressure the interval must contain
    expect_count: int | None = None  # closed-form word count
    expect_sigma2: float | None = None  # closed-form sigma^2
    probe: bool = False  # part of the probe block every pass starts with

    @property
    def klass(self):
        if self.op in MC_ARTIFACT:
            return "mc"
        return self.op if self.op in ("pressure", "variance", "words") else "other"


def lucas(n):
    """Number of periodic golden-mean words of length n (trace of R^n)."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def random_psi(seed, memory):
    """A random locally constant observable on the full 2-shift, as a psi spec."""
    rng = random.Random(seed)
    words = [format(i, f"0{memory}b").translate(str.maketrans("01", "12"))
             for i in range(2**memory)]
    return {"memory": memory, "values": {w: round(rng.gauss(0.0, 1.0), 12) for w in words}}


def _seeds(workload, seed):
    rng = random.Random(f"thermoqm-bench:{workload}:{int(seed)}")
    return lambda: rng.randrange(1, 2**31)


def probe_ops(next_seed, smoke):
    """The probe block every pass starts with."""
    pick = (lambda full, tiny: tiny) if smoke else (lambda full, tiny: full)
    ops = [
        Op("probe-pressure-golden", "pressure",
           {"sft": GOLDEN, "qm": ZERO, "n_max": 18,
            "thresholds": {"contains": LOG_PHI, "max_width": 0.01}}, oracle=LOG_PHI),
        Op("probe-pressure-full3", "pressure",
           {"sft": F3, "qm": ZERO, "n_max": 12,
            "thresholds": {"contains": LOG3, "max_width": 1e-9}}, oracle=LOG3),
        Op("probe-pressure-count01", "pressure",
           {"sft": F2, "qm": COUNT01, "n_max": pick(256, 24),
            "thresholds": {"contains": P_COUNT01, "max_width": 0.02}}, oracle=P_COUNT01),
        Op("probe-pressure-golden-enum", "pressure",
           {"sft": GOLDEN, "qm": ZERO, "n_max": 12, "method": "enumerate",
            "thresholds": {"contains": LOG_PHI}}, oracle=LOG_PHI),
        Op("probe-variance-count01", "variance",
           {"sft": F2, "qm": COUNT01, "threshold_agreement": 1e-8,
            "expect_sigma2": SIGMA2_COUNT01, "expect_tol": 1e-12},
           expect_sigma2=SIGMA2_COUNT01),
        Op("probe-variance-random-lc10", "variance",
           {"sft": F2, "psi": random_psi(next_seed(), pick(10, 4)), "threshold_agreement": 1e-8}),
        Op("probe-words-golden", "words",
           {"sft": GOLDEN, "n": pick(20, 12), "periodic": True},
           expect_count=lucas(pick(20, 12))),
        Op("probe-gibbs-golden", "gibbs", {"sft": GOLDEN, "qm": ZERO, "N": 12, "depth": 6}),
        Op("probe-livsic-count01", "livsic",
           {"sft": F2, "qm": COUNT01, "qm2": COUNT10, "n_max": 8, "expect": "cohomologous"}),
        Op("probe-komlos-count01", "komlos",
           {"sft": F2, "qm": COUNT01, "n_list": [2, 4, 6, 8], "depth": 2}),
        Op("probe-coboundary-golden", "coboundary",
           {"sft": GOLDEN,
            "phi": {"coboundary_of": {"memory": 2, "values": {"11": 0.3, "12": -0.2, "21": 0.5}}},
            "N": 100000000, "depth": 5, "expect_vanishing": 1}),
        Op("probe-compactify-rank2", "compactify",
           {"rank": 2, "n_list": [8, 12, 16, 18], "depth": 3, "max_tv": 0.05}),
        Op("probe-clt-iid", "clt",
           {"sft": F2, "qm": IID, "n": 500, "trials": pick(1024, 256), "seed": next_seed()},
           steps=500 * pick(1024, 256)),
        Op("probe-spherical-brooks", "spherical",
           {"rank": 2, "pattern": "ab", "n": 500, "count": pick(1024, 256), "seed": next_seed()},
           steps=500 * pick(1024, 256)),
    ]
    for op in ops:
        op.probe = True
    return ops


def workload_ops(workload, seed, smoke=False):
    """The op list of one pass: the probe block, then the workload's own ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    next_seed = _seeds(workload, seed)
    ops = probe_ops(next_seed, smoke)
    pick = (lambda full, tiny: tiny) if smoke else (lambda full, tiny: full)

    if workload == "mc-many-trials":
        trials = pick(80000, 4000)
        count = pick(1024, 512)
        ops += [
            Op("deviations-iid", "deviations",
               {"sft": F2, "qm": IID, "n_list": [40, 60, 80, 100], "trials": trials,
                "delta": 0.2, "seed": next_seed()}, steps=100 * trials),
            Op("spherical-brooks", "spherical",
               {"rank": 2, "pattern": "ab", "n": 1000, "count": count, "seed": next_seed()},
               steps=1000 * count),
            Op("clt-count01", "clt",
               {"sft": F2, "qm": COUNT01, "n": 1000, "trials": count, "seed": next_seed()},
               steps=1000 * count),
        ]
    elif workload == "mc-long-path":
        n_lil = pick(150000, 5000)
        n_inv = pick(4096, 512)
        n_ray = pick(5000, 500)
        ops += [
            Op("lil-iid", "lil",
               {"sft": F2, "qm": IID, "n_max": n_lil, "seed": next_seed(), "band": [0.5, 1.5]},
               steps=n_lil),
            Op("invariance-count01", "invariance",
               {"sft": F2, "qm": COUNT01, "n": n_inv, "trials": 2048, "seed": next_seed()},
               steps=n_inv * 2048),
            Op("boundary-ray-brooks", "spherical",
               {"rank": 2, "pattern": "ab", "n": n_ray, "count": 2048, "seed": next_seed(),
                "mode": "ray"}, steps=n_ray * 2048),
        ]
    elif workload == "exact-transfer":
        brooks = [(FREE2, pick("abaBabb", "abaB")), (FREE3, pick("abcAb", "abc"))]
        for sft, pattern in brooks:
            tag = f"brooks-{pattern}"
            ops += [
                Op(f"pressure-{tag}", "pressure",
                   {"sft": sft, "qm": {"kind": "brooks", "pattern": pattern}, "n_max": 20}),
                Op(f"variance-{tag}", "variance",
                   {"sft": sft, "qm": {"kind": "brooks", "pattern": pattern},
                    "threshold_agreement": 1e-8}),
            ]
        ops += [
            Op("solve-cohomological-free2-lc5", "solve-cohomological",
               {"sft": FREE2, "random": {"memory": pick(5, 3), "count": 100, "seed": next_seed()},
                "threshold_residual": 1e-10}),
            Op("variational-count01", "variational",
               {"sft": F2, "qm": COUNT01, "n_max": pick(512, 64),
                "candidates": [
                    {"name": "gibbs_chain", "measure": {"kind": "gibbs_chain", "qm": COUNT01}},
                    {"name": "parry", "measure": {"kind": "parry"}},
                    {"name": "bernoulli37", "measure": {"kind": "bernoulli", "p": [0.3, 0.7],
                                                        "depth": 8}},
                ],
                "attain_tol": 0.001}),
        ]
    else:  # enumerate
        n_full = pick(18, 10)
        n_gold = pick(22, 12)
        ops += [
            Op("words-full2", "words", {"sft": F2, "n": n_full}, expect_count=2**n_full),
            Op("words-golden-periodic", "words", {"sft": GOLDEN, "n": n_gold, "periodic": True},
               expect_count=lucas(n_gold)),
            Op("pressure-count01-enum", "pressure",
               {"sft": F2, "qm": COUNT01, "n_max": pick(16, 10), "method": "enumerate"}),
            Op("livsic-count01-count10", "livsic",
               {"sft": F2, "qm": COUNT01, "qm2": COUNT10, "n_max": pick(12, 8),
                "expect": "cohomologous"}),
            Op("gibbs-check-count01", "gibbs-check",
               {"sft": F2, "qm": COUNT01, "N": pick(16, 10), "depth": 6, "tolerance_tv": 0.01}),
        ]
    return ops


def topological_entropy(spec):
    """Closed-form log of the Perron root of a builtin SFT's transition matrix."""
    if spec["builtin"] == "full_shift":
        return math.log(spec["d"])
    if spec["builtin"] == "golden_mean":
        return LOG_PHI
    return math.log(2 * spec["rank"] - 1)  # free group: non-backtracking steps


def build_fixtures(ops):
    """Set-up work: the workload's SFTs and their Parry chains, and the
    library's memory-1 pressure oracle, built once before any pass."""
    from thermoqm import cli, markov, thermo
    from thermoqm.qm import PatternCount
    from thermoqm.sft import full_shift

    specs = {}
    for op in ops:
        spec = op.cfg.get("sft") or {"builtin": "free_group", "rank": op.cfg["rank"]}
        specs[json.dumps(spec, sort_keys=True)] = spec
    chains = {key: markov.parry_measure(cli.parse_sft(spec)) for key, spec in specs.items()}
    oracle = thermo.pressure_oracle_memory1(PatternCount((0, 1)), full_shift(2))
    return {"specs": specs, "chains": chains, "pressure_count01_oracle": oracle}


def fixture_checks(fixtures):
    """Closed forms checked against the library's independent oracle paths:
    the memory-1 pressure oracle, and each Parry chain's entropy against the
    topological entropy of its SFT."""
    oracle = fixtures["pressure_count01_oracle"]
    out = [("pressure_oracle_memory1(count01) == log(1 + sqrt e)",
            abs(oracle - P_COUNT01) <= 1e-12, f"{oracle!r} vs {P_COUNT01!r}")]
    for key, chain in fixtures["chains"].items():
        h, want = chain.entropy_exact(), topological_entropy(fixtures["specs"][key])
        out.append((f"parry entropy of {key} == log Perron root", abs(h - want) <= 1e-12,
                    f"{h!r} vs {want!r}"))
    return out


def op_checks(op, summary):
    """Benchmark-side checks of one op's output against closed forms."""
    out = []
    if "error" in summary:
        return [("no_error", False, summary["error"])]
    if op.oracle is not None:
        pe = summary["pressure"]
        out.append(("interval_contains_closed_form", pe["lower"] <= op.oracle <= pe["upper"],
                    f"[{pe['lower']!r}, {pe['upper']!r}] vs {op.oracle!r}"))
    if op.expect_count is not None:
        out.append(("count_matches_closed_form", summary["count"] == op.expect_count,
                    f"{summary['count']} vs {op.expect_count}"))
    if op.expect_sigma2 is not None:
        s2 = summary["variance"]["sigma2_martingale"]
        out.append(("sigma2_matches_closed_form", abs(s2 - op.expect_sigma2) <= 1e-12,
                    f"{s2!r} vs {op.expect_sigma2!r}"))
    return out


def _rounded(x):
    if isinstance(x, float):
        return float(f"{x:.10g}") if math.isfinite(x) else repr(x)
    if isinstance(x, dict):
        return {str(k): _rounded(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_rounded(v) for v in x]
    return x


def digest(op, summary, out_dir):
    """SHA-256 of an MC op's statistic array (its CSV artifact, which holds
    every float by repr) or of an exact op's result values rounded to 10
    significant digits."""
    if op.klass == "mc" and "error" not in summary:
        with open(f"{out_dir}/{MC_ARTIFACT[op.op]}", "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    body = {k: v for k, v in summary.items() if k not in ("config", "op")}
    text = json.dumps(_rounded(body), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
