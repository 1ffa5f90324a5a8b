"""CLI: configs, exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from thermoqm.cli import main


def run_cli(args):
    return main(args)


def test_sft_validate(tmp_path):
    out = tmp_path / "o"
    code = run_cli([
        "sft-validate", "--json", json.dumps({"sft": {"builtin": "golden_mean"}}),
        "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["M"] == 2
    assert summary["periodic_counts"][:3] == [1, 3, 4]
    assert (out / "timing.json").exists()


def test_words_op_and_resource_limit(tmp_path):
    code = run_cli([
        "words", "--json", json.dumps({"sft": {"builtin": "golden_mean"}, "n": 6}),
        "--out", str(tmp_path / "w"),
    ])
    assert code == 0
    text = (tmp_path / "w" / "words.csv").read_text()
    assert len(text.strip().splitlines()) == 1 + 21  # |W_6| = 21 on golden mean
    code = run_cli([
        "words", "--json",
        json.dumps({"sft": {"builtin": "full_shift", "d": 2}, "n": 12}),
        "--out", str(tmp_path / "w2"), "--cap", "100",
    ])
    assert code == 3
    os.environ.pop("THERMOQM_MAX_WORDS", None)


def test_invalid_inputs_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    assert run_cli(["pressure", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert run_cli([
        "clt", "--json",
        json.dumps({"sft": {"builtin": "full_shift", "d": 2}, "qm": {"kind": "zero"},
                    "n": 10, "trials": 0, "seed": 1}),
        "--out", str(tmp_path / "y"),
    ]) == 2
    # unknown keys are rejected
    assert run_cli([
        "pressure", "--json",
        json.dumps({"sft": {"builtin": "golden_mean"}, "qm": {"kind": "zero"},
                    "n_max": 8, "bogus": 1}),
        "--out", str(tmp_path / "z"),
    ]) == 2


def test_threshold_failure_exits_one(tmp_path):
    code = run_cli([
        "livsic", "--json",
        json.dumps({
            "sft": {"builtin": "full_shift", "d": 2},
            "qm": {"kind": "pattern_count", "pattern": "12"},
            "qm2": {"kind": "pattern_count", "pattern": "21"},
            "n_max": 8,
            "expect": "distinct",
        }),
        "--out", str(tmp_path / "l"),
    ])
    assert code == 1


def test_seed_override(tmp_path):
    cfg = {"sft": {"builtin": "full_shift", "d": 2},
           "qm": {"kind": "letter_weights", "weights": [0.5, -0.5]},
           "n": 200, "trials": 400, "seed": 1}
    run_cli(["clt", "--json", json.dumps(cfg), "--out", str(tmp_path / "a")])
    run_cli(["clt", "--json", json.dumps(cfg), "--out", str(tmp_path / "b"), "--seed", "2"])
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert sa["clt"]["seed"] == 1 and sb["clt"]["seed"] == 2
    assert sa["clt"]["ks"] != sb["clt"]["ks"]


SUITE = {
    "runs": [
        {
            "name": "pressure-golden",
            "op": "pressure",
            "config": {"sft": {"builtin": "golden_mean"}, "qm": {"kind": "zero"},
                       "n_max": 12, "thresholds": {"contains": 0.4812118250596035}},
        },
        {
            "name": "clt-small",
            "op": "clt",
            "config": {"sft": {"builtin": "full_shift", "d": 2},
                       "qm": {"kind": "letter_weights", "weights": [0.5, -0.5]},
                       "n": 256, "trials": 512, "seed": 5},
        },
        {
            "name": "spherical-small",
            "op": "spherical",
            "config": {"rank": 2, "pattern": "ab", "n": 128, "count": 512, "seed": 6},
        },
    ]
}


def collect_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name == "timing.json":
                continue
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_suite_runs_and_is_deterministic_across_workers(tmp_path):
    m = tmp_path / "manifest.json"
    m.write_text(json.dumps(SUITE))
    outs = []
    for i, workers in enumerate((1, 2, 1)):
        out = tmp_path / f"run{i}"
        code = run_cli(["suite", "--config", str(m), "--out", str(out),
                        "--workers", str(workers)])
        assert code == 0
        outs.append(collect_bytes(out))
    assert outs[0] == outs[1] == outs[2]


def test_empty_suite(tmp_path):
    m = tmp_path / "empty.json"
    m.write_text(json.dumps({"runs": []}))
    assert run_cli(["suite", "--config", str(m), "--out", str(tmp_path / "e")]) == 0
    table = (tmp_path / "e" / "table.csv").read_text()
    assert table.strip() == "name,op,exit_code,pass"


def test_suite_propagates_failure(tmp_path):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({
        "runs": [
            {"name": "bad-livsic", "op": "livsic",
             "config": {"sft": {"builtin": "full_shift", "d": 2},
                        "qm": {"kind": "pattern_count", "pattern": "12"},
                        "qm2": {"kind": "pattern_count", "pattern": "21"},
                        "n_max": 6, "expect": "distinct"}},
        ]
    }))
    assert run_cli(["suite", "--config", str(m), "--out", str(tmp_path / "s")]) == 1


def test_measure_and_potential_parsing(tmp_path):
    # potential extracted from an orbit-ensemble Gibbs measure
    code = run_cli([
        "potential", "--json",
        json.dumps({
            "sft": {"builtin": "full_shift", "d": 2},
            "measure": {"kind": "gibbs_orbit",
                        "qm": {"kind": "pattern_count", "pattern": "12"},
                        "N": 10, "depth": 3},
            "depth": 3,
        }),
        "--out", str(tmp_path / "pot"),
    ])
    assert code == 0
    dump = json.loads((tmp_path / "pot" / "potential.json").read_text())
    assert dump["depth"] == 3 and len(dump["values"]) == 8
    # entropy of a bernoulli measure against its closed form
    code = run_cli([
        "entropy", "--json",
        json.dumps({
            "sft": {"builtin": "full_shift", "d": 2},
            "measure": {"kind": "bernoulli", "p": [0.3, 0.7], "depth": 6},
            "depth": 6,
            "oracle": -(0.3 * np.log(0.3) + 0.7 * np.log(0.7)),
            "tolerance": 1e-09,
        }),
        "--out", str(tmp_path / "ent"),
    ])
    assert code == 0


def test_variance_with_explicit_psi(tmp_path):
    code = run_cli([
        "variance", "--json",
        json.dumps({
            "sft": {"builtin": "full_shift", "d": 2},
            "psi": {"memory": 1, "values": {"1": 0.5, "2": -0.5}},
            "expect_sigma2": 0.25,
            "expect_tol": 1e-12,
        }),
        "--out", str(tmp_path / "v"),
    ])
    assert code == 0


def test_variance_with_psi_refuses_the_monte_carlo_check(tmp_path):
    """The mc check samples a quasimorphism; with psi alone it is refused, not dropped."""
    from thermoqm import cli

    cfg = {"sft": {"builtin": "full_shift", "d": 2},
           "psi": {"memory": 1, "values": {"1": 0.5, "2": -0.5}},
           "mc": {"n": 64, "trials": 100, "seed": 1}}
    code, summary = cli.execute("variance", cfg, str(tmp_path))
    assert code == 2 and "needs qm" in summary["error"], summary["error"]
    with open(tmp_path / "summary.json") as fh:
        assert json.load(fh)["exit_code"] == 2


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "thermoqm.cli", "sft-validate", "--json",
         json.dumps({"sft": {"builtin": "full_shift", "d": 3}}),
         "--out", str(tmp_path / "cli")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_env_cap_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("THERMOQM_MAX_WORDS", "10")
    code = run_cli([
        "words", "--json",
        json.dumps({"sft": {"builtin": "full_shift", "d": 2}, "n": 5}),
        "--out", str(tmp_path / "cap"),
    ])
    assert code == 3


def test_unexpected_error_exits_four_with_summary(tmp_path, monkeypatch):
    from thermoqm import cli

    def broken(args):
        raise RuntimeError("handler bug")

    monkeypatch.setitem(cli.OPS, "pressure", (broken, *cli.OPS["pressure"][1:]))
    code = run_cli([
        "pressure", "--json",
        json.dumps({"sft": {"builtin": "golden_mean"}, "qm": {"kind": "zero"}, "n_max": 8}),
        "--out", str(tmp_path / "bug"),
    ])
    assert code == 4
    summary = json.loads((tmp_path / "bug" / "summary.json").read_text())
    assert summary["exit_code"] == 4
    assert summary["error"] == "RuntimeError: handler bug"


def test_alphabet_beyond_int8(tmp_path):
    from thermoqm import cli

    out = tmp_path / "d130"
    code, summary = cli.execute("clt", {
        "sft": {"builtin": "full_shift", "d": 130},
        "qm": {"kind": "letter_weights", "weights": [1.0] + [0.0] * 129},
        "n": 8, "trials": 16, "seed": 1,
    }, str(out))
    assert "error" not in summary
    assert code in (0, 1)
    assert (out / "summary.json").exists() and (out / "stats.csv").exists()


def test_cap_is_scoped_to_one_run(tmp_path, monkeypatch):
    """--cap overrides the word cap for its own run only: os.environ is left
    alone and the next execute uses the default cap again."""
    from thermoqm import cli

    monkeypatch.delenv("THERMOQM_MAX_WORDS", raising=False)
    cfg = {"sft": {"builtin": "full_shift", "d": 2}, "n": 12}
    assert run_cli(["words", "--json", json.dumps(cfg), "--out", str(tmp_path / "a"),
                    "--cap", "100"]) == 3
    assert "THERMOQM_MAX_WORDS" not in os.environ
    code, summary = cli.execute("words", cfg, str(tmp_path / "b"))
    assert code == 0 and summary["count"] == 2**12


# -- the parse/compute boundary of exit codes ---------------------------------------


def test_library_key_error_exits_four_with_summary(tmp_path, monkeypatch):
    """A KeyError raised by the library is a bug (4), not invalid input (2)."""
    from thermoqm import cli

    def broken(*args, **kwargs):
        raise KeyError("library bug")

    monkeypatch.setattr(cli.thermo, "pressure", broken)
    code, summary = cli.execute("pressure", {"sft": {"builtin": "golden_mean"},
                                             "qm": {"kind": "zero"}, "n_max": 8}, str(tmp_path))
    assert code == 4
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written["exit_code"] == 4 and written["error"] == "KeyError: 'library bug'"


F2 = {"builtin": "full_shift", "d": 2}
MALFORMED = {
    "linear-combination-term-without-coef": ("livsic", {
        "sft": F2, "qm": {"kind": "zero"}, "n_max": 4,
        "qm2": {"kind": "linear_combination", "terms": [{"qm": {"kind": "zero"}}]}}),
    "inadmissible-word-in-psi": ("variance", {
        "sft": {"builtin": "golden_mean"}, "psi": {"memory": 2, "values": {"22": 1.0}}}),
    "variational-candidate-without-name": ("variational", {
        "sft": F2, "qm": {"kind": "zero"}, "n_max": 8,
        "candidates": [{"measure": {"kind": "parry"}}]}),
    "solve-cohomological-without-psi-or-random": ("solve-cohomological", {"sft": F2}),
    "coboundary-phi-without-values": ("coboundary", {
        "sft": F2, "phi": {"coboundary_of": {"memory": 1}}, "N": 10, "depth": 2}),
    "bernoulli-in-a-chain-position": ("clt", {
        "sft": F2, "qm": {"kind": "zero"}, "n": 10, "trials": 10, "seed": 1,
        "chain": {"kind": "bernoulli", "p": [0.5, 0.5], "depth": 2}}),
    "gibbs-orbit-in-a-chain-position": ("variance", {
        "sft": F2, "qm": {"kind": "zero"},
        "chain": {"kind": "gibbs_orbit", "qm": {"kind": "zero"}, "N": 4, "depth": 2}}),
    "bernoulli-as-a-variational-chain": ("variational", {
        "sft": F2, "qm": {"kind": "zero"}, "n_max": 8,
        "candidates": [{"name": "b", "chain": {"kind": "bernoulli", "p": [0.5, 0.5], "depth": 2}}]}),
    "non-integer-n": ("words", {"sft": F2, "n": [3]}),
    "thresholds-not-an-object": ("pressure", {
        "sft": F2, "qm": {"kind": "zero"}, "n_max": 8, "thresholds": 0.5}),
    "mc-section-a-list": ("variance", {
        "sft": F2, "qm": {"kind": "zero"}, "mc": ["n", "trials", "seed"]}),
    "psi-values-a-list": ("variance", {"sft": F2, "psi": {"memory": 1, "values": [1.0, 2.0]}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_configs_exit_two(tmp_path, case):
    from thermoqm import cli

    op, cfg = MALFORMED[case]
    code, summary = cli.execute(op, cfg, str(tmp_path))
    assert code == 2, summary["error"]
    assert json.loads((tmp_path / "summary.json").read_text())["exit_code"] == 2


def test_chain_positions_name_the_chain_kinds(tmp_path):
    from thermoqm import cli

    op, cfg = MALFORMED["bernoulli-in-a-chain-position"]
    assert cli.execute(op, cfg, None)[1]["error"] == "InvalidConfig: unknown chain kind 'bernoulli'"
    # every chain kind is also a measure kind
    cfg = {"sft": F2, "measure": {"kind": "potential", "memory": 0, "values": {"1": 0.3}},
           "depth": 4}
    code, summary = cli.execute("entropy", cfg, None)
    assert code == 0 and summary["exact_markov_entropy"] > 0


QM01 = {"kind": "pattern_count", "pattern": "12"}
MC = {"sft": F2, "qm": QM01, "seed": 1}
SPHERE = {"rank": 2, "pattern": "ab", "n": 16, "count": 0, "seed": 1}
NO_TRIALS = "need at least 1 trial or sample, got 0"
LIVSIC = {"sft": F2, "qm": QM01, "qm2": {"kind": "pattern_count", "pattern": "11"}}
COB = {"sft": F2, "phi": {"coboundary_of": {"memory": 1, "values": {"1": 1.0}}}, "depth": 2}
REFUSED = {  # runs too small or empty to give a result, and the bound each names
    "clt-without-trials": ("clt", dict(MC, n=16, trials=0), "trials must be >= 1"),
    "invariance-without-trials": ("invariance", dict(MC, n=16, trials=0), NO_TRIALS),
    "deviations-without-trials": ("deviations", dict(MC, n_list=[8, 16], trials=0, delta=0.1),
                                  NO_TRIALS),
    "spherical-without-samples": ("spherical", SPHERE, NO_TRIALS),
    "rays-without-samples": ("spherical", dict(SPHERE, mode="ray"), NO_TRIALS),
    "invariance-from-one-trial": ("invariance", dict(MC, n=16, trials=1),
                                  "trials must be >= 2 for a correlation, got 1"),
    "invariance-path-of-length-zero": ("invariance", dict(MC, n=0, trials=32),
                                       "n must be a multiple of 4 and >= 4, got 0"),
    "lil-path-ending-before-its-start": ("lil", dict(MC, n_max=256),
                                         "n_max 256 < start index 1000"),
    "deviations-at-length-zero": ("deviations", dict(MC, n_list=[0, 8], trials=16, delta=0.1),
                                  "n_list entries must be >= 1, got [0, 8]"),
    "deviations-at-negative-length": ("deviations",
                                      dict(MC, n_list=[-4, 8], trials=16, delta=0.1),
                                      "n_list entries must be >= 1, got [-4, 8]"),
    "spherical-at-radius-zero": ("spherical", dict(SPHERE, n=0, count=16),
                                 "n must be >= 1, got 0"),
    "spherical-at-negative-radius": ("spherical", dict(SPHERE, n=-3, count=16),
                                     "n must be >= 1, got -3"),
    "rays-of-length-zero": ("spherical", dict(SPHERE, n=0, count=16, mode="ray"),
                            "n must be >= 1, got 0"),
    "coboundary-without-terms": ("coboundary", dict(COB, N=0), "N must be >= 1, got 0"),
    "coboundary-at-negative-terms": ("coboundary", dict(COB, N=-1), "N must be >= 1, got -1"),
    "entropy-at-depth-zero": ("entropy", {"sft": F2, "measure": {"kind": "parry"}, "depth": 0},
                              "entropy depth must be >= 1, got 0"),
    "entropy-of-bernoulli-at-negative-depth": (
        "entropy", {"sft": F2, "measure": {"kind": "bernoulli", "p": [0.5, 0.5], "depth": 3},
                    "depth": -1}, "entropy depth must be >= 1, got -1"),
    "komlos-without-lengths": ("komlos", {"sft": F2, "qm": QM01, "n_list": [], "depth": 2},
                               "n_list must be nonempty and strictly increasing, got []"),
    "potential-at-depth-zero": ("potential", {"sft": F2, "measure": {"kind": "parry"}, "depth": 0},
                                "potential depth must be >= 1, got 0"),
    "variational-without-candidates": (
        "variational", {"sft": F2, "qm": QM01, "n_max": 8, "candidates": []},
        "variational_check needs at least 1 candidate measure"),
    "livsic-without-periods": ("livsic", dict(LIVSIC, n_max=0), "n_max must be >= 1, got 0"),
    "livsic-at-negative-period": ("livsic", dict(LIVSIC, n_max=-3), "n_max must be >= 1, got -3"),
    "variance-from-one-trial": ("variance", {"sft": F2, "qm": QM01,
                                             "mc": {"n": 16, "trials": 1, "seed": 1}},
                                "mc.trials must be >= 2 for a sample variance, got 1"),
    "compactify-without-lengths": ("compactify", {"rank": 2, "n_list": [], "depth": 2},
                                   "n_list must be nonempty, got []"),
    "compactify-at-length-zero": ("compactify", {"rank": 2, "n_list": [0], "depth": 2},
                                  "n_list entries must be >= 1, got [0]"),
    "compactify-at-negative-length": ("compactify", {"rank": 2, "n_list": [-2, 4], "depth": 2},
                                      "n_list entries must be >= 1, got [-2, 4]"),
    "spherical-from-one-sample": ("spherical", dict(SPHERE, count=1),
                                  "count must be >= 2 for a standard error, got 1"),
    "rays-from-one-sample": ("spherical", dict(SPHERE, count=1, mode="ray"),
                             "count must be >= 2 for a standard error, got 1"),
    "solve-cohomological-without-psis": (
        "solve-cohomological", {"sft": F2, "random": {"memory": 2, "count": 0, "seed": 1}},
        "random.count must be >= 1, got 0"),
    "deviations-at-rate-zero": ("deviations",
                                dict(MC, n_list=[5, 10], trials=10, delta=0.45, rate=0),
                                "rate must be > 0, got 0.0"),
    "deviations-at-negative-rate": ("deviations",
                                    dict(MC, n_list=[5, 10], trials=10, delta=0.45, rate=-0.1),
                                    "rate must be > 0, got -0.1"),
    "variance-on-paths-of-length-zero": ("variance", {"sft": F2, "qm": QM01,
                                                      "mc": {"n": 0, "trials": 16, "seed": 1}},
                                         "mc.n must be >= 1, got 0"),
    "variance-on-paths-of-negative-length": ("variance", {"sft": F2, "qm": QM01,
                                                          "mc": {"n": -3, "trials": 16, "seed": 1}},
                                             "mc.n must be >= 1, got -3"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_too_small_monte_carlo_runs_exit_two_naming_the_bound(case):
    from thermoqm import cli

    op, cfg, bound = REFUSED[case]
    # a negative N would make np.linalg.matrix_power invert K: refuse before either
    with mock.patch.object(cli.experiments, "_simulate_block",
                           side_effect=AssertionError("sampled before refusing")), \
            mock.patch.object(cli.bowen, "_cesaro_average",
                              side_effect=AssertionError("solved before refusing")):
        code, summary = cli.execute(op, cfg, None)
    assert code == 2 and bound in summary["error"], summary["error"]


def test_deviations_rate_without_a_fitted_slope_fails_its_check():
    from thermoqm import cli

    # one nonzero tail row at most: no rate is fitted, so none can match
    code, summary = cli.execute(
        "deviations", dict(MC, n_list=[5, 10], trials=10, delta=0.45, rate=0.08), None)
    checks = {c["name"]: c for c in summary["checks"]}
    assert summary["deviations"]["slope"] is None
    assert code == 1 and checks["rate_relative_error"]["value"] is None
    assert checks["slope_negative"]["value"] is None
    assert not checks["rate_relative_error"]["pass"] and not checks["slope_negative"]["pass"]


def test_spherical_mode_is_checked_before_sampling():
    from thermoqm import cli

    with mock.patch.object(cli.experiments, "_simulate_block",
                           side_effect=AssertionError("sampled before checking")):
        code, summary = cli.execute("spherical", dict(SPHERE, count=16, mode="Ray"), None)
    assert (code, summary["error"]) == (2, "ValueError: mode must be 'sphere' or 'ray', got 'Ray'")


TABULATED = {"kind": "tabulated", "tables": {"1": {"1": 1.0, "2": 0.5}}, "defect": 1.0}


@pytest.mark.parametrize("method,qm,error", [
    ("Transfer", QM01, "method must be 'auto', 'transfer' or 'enumerate', got 'Transfer'"),
    ("transfer", TABULATED, "quasimorphism is not window-additive"),
], ids=["unknown-method", "transfer-without-window-tables"])
def test_pressure_method_is_checked_before_evaluating(method, qm, error):
    from thermoqm import cli

    with mock.patch.object(cli.thermo, "_enumerated_log_partition",
                           side_effect=AssertionError("enumerated before checking")):
        code, summary = cli.execute("pressure", {"sft": F2, "qm": qm, "n_max": 8,
                                                 "method": method}, None)
    assert (code, summary["error"]) == (2, f"ValueError: {error}")


MINIMAL = {  # each op with its required keys only, at small sizes
    "sft-validate": {"sft": F2},
    "words": {"sft": F2, "n": 4},
    "pressure": {"sft": F2, "qm": QM01, "n_max": 8},
    "gibbs": {"sft": F2, "qm": QM01, "N": 6, "depth": 3},
    "gibbs-check": {"sft": F2, "qm": QM01, "N": 6, "depth": 3},
    "entropy": {"sft": F2, "measure": {"kind": "parry"}, "depth": 4},
    "variational": {"sft": F2, "qm": QM01, "n_max": 8, "candidates": [{"name": "parry"}]},
    "potential": {"sft": F2, "measure": {"kind": "parry"}, "depth": 3},
    "komlos": {"sft": F2, "qm": QM01, "n_list": [2, 4], "depth": 2},
    "livsic": {"sft": F2, "qm": QM01, "qm2": QM01, "n_max": 4},
    "coboundary": {"sft": F2, "phi": {"coboundary_of": {"memory": 1, "values": {"1": 1.0}}},
                   "N": 10, "depth": 2},
    "normalize": {"sft": F2, "potential": {"qm": QM01}},
    "solve-cohomological": {"sft": F2, "random": {"memory": 2, "count": 2, "seed": 1}},
    "variance": {"sft": F2, "qm": QM01},
    "clt": {"sft": F2, "qm": QM01, "n": 16, "trials": 32, "seed": 1},
    "invariance": {"sft": F2, "qm": QM01, "n": 16, "trials": 32, "seed": 1},
    "lil": {"sft": F2, "qm": QM01, "n_max": 4096, "seed": 1},
    "deviations": {"sft": F2, "qm": QM01, "n_list": [8, 16], "trials": 64, "delta": 0.1, "seed": 1},
    "compactify": {"rank": 2, "n_list": [4, 6], "depth": 2},
    "spherical": {"rank": 2, "pattern": "ab", "n": 16, "count": 32, "seed": 1},
}


def test_every_op_runs_on_its_required_keys_alone(tmp_path):
    from thermoqm import cli

    assert sorted(MINIMAL) == sorted(cli.OPS)
    for op, cfg in MINIMAL.items():
        code, summary = cli.execute(op, cfg, str(tmp_path / op))
        assert code in (0, 1), (op, summary.get("error"))
        missing = dict(list(cfg.items())[1:])
        assert cli.execute(op, missing, None)[0] == 2, op
