"""thermoqm runs on numpy alone: nothing on its import path or on a one-worker
run loads scipy or multiprocessing, and its numpy replacements for the two
scipy functions it used agree with scipy (here a test-only reference): the
log-sum-exp bit for bit, the normal CDF to a few units in the last place."""

import json
import math
import os
import subprocess
import sys

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, ndtr

import thermoqm
from thermoqm.experiments import reflection_sup_cdf, standard_normal_cdf
from thermoqm.thermo import _logsumexp

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

GUARD = """
import json, sys
import thermoqm, thermoqm.cli
cfg = {"sft": {"builtin": "full_shift", "d": 2}, "qm": {"kind": "pattern_count", "pattern": "12"},
       "n": 64, "trials": 256, "seed": 1}
code, summary = thermoqm.cli.execute("clt", cfg, None, workers=1)
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] in
                               ("scipy", "multiprocessing", "concurrent"))]))
"""


def test_import_and_a_one_worker_run_load_numpy_only():
    src = os.path.dirname(os.path.dirname(os.path.abspath(thermoqm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", GUARD], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    assert not [m for m in loaded if m.startswith(("scipy", "multiprocessing"))], loaded
    assert "concurrent.futures.process" not in loaded


# -- log-sum-exp ----------------------------------------------------------------------


def _reference(a):
    with np.errstate(over="ignore"):  # scipy's own a - max overflows near +-1e308
        return logsumexp(a)


def _same(got, want):
    want = float(want)
    return (math.isnan(got) and math.isnan(want)) or np.float64(got).tobytes() == \
        np.float64(want).tobytes()


FLOATS = st.one_of(st.floats(-1e308, 1e308), st.floats(-50.0, 50.0),
                   st.sampled_from([-np.inf, np.inf, np.nan, 0.0, -0.0, 709.0, -745.0]))


@PROPERTY
@given(st.lists(FLOATS, min_size=1, max_size=40), st.integers(0, 4))
def test_logsumexp_is_scipys_bit_for_bit(values, ties):
    a = np.array(values + [max(values, key=lambda v: -np.inf if v != v else v)] * ties)
    assert _same(_logsumexp(a), _reference(a))


def test_logsumexp_edge_cases_and_random_arrays():
    inf, nan = np.inf, np.nan
    cases = [[-inf] * 3, [inf, 1.0], [inf, -inf], [inf, inf], [nan, 1.0], [-inf, inf, nan],
             [5.0], [-inf], [1e308, 1e308], [-1e308, 1e308], [2.0, 2.0, 2.0, -inf]]
    for a in cases:
        assert _same(_logsumexp(np.array(a)), _reference(a)), a
    assert _logsumexp(np.array([])) == -inf
    rng = np.random.default_rng(7)
    for _ in range(3000):
        n = int(rng.integers(1, 300))
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 300)
        if rng.random() < 0.3:
            a[rng.integers(0, n, rng.integers(1, n + 1))] = a.max()
        if rng.random() < 0.2:
            a[rng.integers(0, n)] = -inf
        assert _same(_logsumexp(a), _reference(a))


# -- the normal CDF ---------------------------------------------------------------------


@PROPERTY
@given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=50))
def test_normal_cdf_within_two_ulps_of_one_of_ndtr(xs):
    x = np.array(xs)
    assert np.abs(standard_normal_cdf(x) - ndtr(x)).max() <= 4.5e-16
    assert np.abs(reflection_sup_cdf(x) - np.where(x <= 0.0, 0.0, 2.0 * ndtr(x) - 1.0)).max() \
        <= 9e-16


def test_normal_cdf_on_a_grid_and_at_the_ends():
    x = np.concatenate([np.linspace(-40.0, 40.0, 200001),
                        np.random.default_rng(3).normal(0.0, 3.0, 10**5)])
    assert np.abs(standard_normal_cdf(x) - ndtr(x)).max() <= 4.5e-16
    assert np.abs(reflection_sup_cdf(x) - np.where(x <= 0.0, 0.0, 2.0 * ndtr(x) - 1.0)).max() \
        <= 9e-16
    ends = np.array([-np.inf, np.inf, np.nan])
    got = standard_normal_cdf(ends)
    assert got.dtype == np.float64 and got[0] == 0.0 and got[1] == 1.0 and np.isnan(got[2])
    assert np.array_equal(reflection_sup_cdf(ends[:2]), [0.0, 1.0])
    assert float(standard_normal_cdf(0.0)) == 0.5
