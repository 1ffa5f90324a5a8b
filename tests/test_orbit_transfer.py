"""Periodic-orbit Gibbs masses by transfer on the weighted block graph, against
the enumeration of every periodic word: in floats, in 40-digit decimals, at
the spectral rate of the Gibbs chain, and under the word cap."""

import decimal
import json
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from thermoqm import cli, thermo
from thermoqm import markov as mk
from thermoqm.errors import InvalidMatrix, NotPrimitive, ResourceLimit
from thermoqm.freegroup import FreeGroup, brooks
from thermoqm.qm import LetterWeights, PatternCount, WindowQm, zero_qm
from thermoqm.sft import Sft, full_shift, golden_mean, window_codes

MAX_N = {2: 12, 3: 8, 4: 6}  # at most 4096 periodic words


@st.composite
def primitive_sfts(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    try:
        return Sft(rows)
    except (InvalidMatrix, NotPrimitive):
        assume(False)


@st.composite
def kernels(draw, d):
    widths = draw(st.sets(st.integers(1, 3), min_size=1))
    coef = st.floats(-2.0, 2.0, allow_nan=False)
    return WindowQm({q: {w: draw(coef) for w in np.ndindex(*(d,) * q)} for q in sorted(widths)}, 0.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(primitive_sfts().flatmap(lambda sft: st.tuples(
    st.just(sft), kernels(sft.d), st.integers(1, MAX_N[sft.d]), st.integers(1, 4))))
def test_transfer_masses_match_the_enumeration(case):
    sft, L, N, depth = case
    depth = min(depth, N)
    assume(sft.periodic_count(N) > 0)
    got = thermo.gibbs_measure(L, sft, N, depth)
    want = thermo._enumerated_gibbs_masses(L, sft, N, depth)
    for k in range(1, depth + 1):
        assert np.all(np.abs(got.masses_at(k) - want[k]) <= 1e-12 * want[k]), k


def decimal_masses(L, sft, N, depth):
    """The orbit-averaged masses by enumeration, in 40-digit decimal arithmetic:
    each periodic word's exact homogenized value (its cyclic windows), its
    weight e^value, spread over the word's N cyclic k-windows."""
    ctx = decimal.Context(prec=40)
    arr = sft.word_array(N, periodic=True)
    vals = np.full(len(arr), Decimal(0), dtype=object)
    for q, table in L.window_tables(sft.d).items():
        exact = np.array([Decimal(float(x)) for x in table], dtype=object)
        for i in range(N):
            vals = vals + exact[window_codes(arr, i, q, sft.d)]
    exps = {}
    weights = np.array([exps.setdefault(v, ctx.exp(v)) for v in vals], dtype=object)
    Z = ctx.multiply(sum(weights, Decimal(0)), N)
    out = {}
    for k in range(1, depth + 1):
        idx = sft.cylinders(k)
        acc = np.full(len(idx), Decimal(0), dtype=object)
        for j in range(N):
            np.add.at(acc, idx.index_of_codes(window_codes(arr, j, k, sft.d)), weights)
        out[k] = np.array([float(ctx.divide(a, Z)) for a in acc])
    return out


def _free2():
    group = FreeGroup(2)
    return group.sft(), brooks(group, "abaB")


def _width3():
    # a real-valued width-3 kernel, and a width-1 one, on a 3-symbol SFT
    rng = np.random.default_rng(7)
    tables = {3: {w: float(rng.normal()) for w in np.ndindex(3, 3, 3)},
              1: {(s,): float(rng.normal()) for s in range(3)}}
    return Sft([[1, 1, 0], [0, 1, 1], [1, 1, 1]]), WindowQm(tables, 0.0)


@pytest.mark.parametrize("make,N,depth", [
    (lambda: (full_shift(2), PatternCount((0, 1))), 16, 6),
    (lambda: (golden_mean(), zero_qm(2)), 12, 6),
    (_free2, 9, 5),
    (_width3, 9, 5),
], ids=["count01", "golden-zero", "brooks-abaB", "width3-real"])
def test_transfer_masses_match_a_decimal_enumeration(make, N, depth):
    sft, L = make()
    got = thermo.gibbs_measure(L, sft, N, depth)
    want = decimal_masses(L, sft, N, depth)
    for k in range(1, depth + 1):
        assert np.all(np.abs(got.masses_at(k) - want[k]) <= 1e-14 * want[k]), k


def test_large_edge_weights_give_finite_masses():
    # e^800 overflows a float, and edges into symbol 1 weigh e^-1600 after the
    # gauge: past the float range the measure comes from the enumeration
    f, L = full_shift(3), LetterWeights([800.0, -800.0, 0.0])
    with pytest.raises(thermo._FloatRange):
        thermo._transfer_gibbs_masses(L, f, 10, 5)
    got = thermo.gibbs_measure(L, f, 10, 5)
    want = thermo._enumerated_gibbs_masses(L, f, 10, 5)
    for k in range(1, 6):
        assert np.all(np.abs(got.masses_at(k) - want[k]) <= 1e-12 * want[k]), k


def test_past_the_float_range_over_the_word_cap_is_refused():
    f, L = full_shift(2), LetterWeights([800.0, -800.0])
    with pytest.raises(ResourceLimit, match="float range.*enumeration is refused"):
        thermo.gibbs_measure(L, f, 40, 4)


@pytest.mark.parametrize("c,N,depth", [(400.0, 10, 2), (400.0, 16, 8), (100.0, 16, 8), (400.0, 1000, 8)])
def test_cancelling_edge_weights_keep_every_walk(tmp_path, c, N, depth):
    # c (occ(01) - occ(10)) is 0 on every periodic word, so the measure is uniform,
    # although the edge 1 -> 0 weighs e^(-2c) against 0 -> 1 and paths e^(-c depth);
    # at N = 1000 the words are over the cap, so the transfer itself must hold them
    sft = {"builtin": "full_shift", "d": 2}
    qm = {"kind": "linear_combination",
          "terms": [{"coef": c, "qm": {"kind": "signed_pattern_count", "pattern": "12", "anti": "21"}}]}
    cfg = {"sft": sft, "qm": qm, "N": N, "depth": depth}
    assert cli.main(["gibbs", "--json", json.dumps(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "measure.json") as fh:
        depths = json.load(fh)["depths"]
    for k in range(1, depth + 1):
        masses = np.array(list(depths[str(k)].values()))
        assert len(masses) == 2**k and np.all(np.abs(masses * 2**k - 1) <= 1e-12), k


def test_orbit_measures_approach_the_gibbs_chain_at_the_spectral_rate():
    # TV(N) ~ c lam2^N, so over two steps of N the TV falls by the factor lam2^2
    f, L = full_shift(2), PatternCount((0, 1))
    mm, _, _ = mk.gibbs_chain_from_qm(L, f)
    chain = mm.cylinder_masses(4)
    tv = {N: thermo.gibbs_measure(L, f, N, 4).tv_distance(chain, 4) for N in range(6, 19)}
    for N in range(6, 17):
        assert abs(tv[N + 2] / tv[N] - mm.lam2() ** 2) < 1e-3, N


def test_a_transfer_over_the_word_cap_is_refused(tmp_path, capsys):
    # 972 block states: 3 dense 972 x 972 matrices are 2,834,352 cells
    cfg = {"sft": {"builtin": "free_group", "rank": 2},
           "qm": {"kind": "brooks", "pattern": "abaBabb"}, "N": 1000, "depth": 8}
    code = cli.main(["gibbs", "--json", json.dumps(cfg), "--out", str(tmp_path),
                     "--cap", "1000000"])
    assert code == 3
    assert "2834352 dense cells" in capsys.readouterr().err
    with open(tmp_path / "summary.json") as fh:
        assert json.load(fh)["exit_code"] == 3


def test_underflowed_edge_weights_fall_back_before_any_product(tmp_path):
    # gauged, the loop at symbol 1 weighs e^-800: a 0 in floats, which no product
    # sees at N = 1; the enumeration finds the fixed point of symbol 1 as 0.0 ...
    cfg = {"sft": {"builtin": "golden_mean"}, "qm": {"kind": "letter_weights", "weights": [-800, 800]},
           "N": 1, "depth": 1}
    assert cli.main(["gibbs", "--json", json.dumps(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "measure.json") as fh:
        assert json.load(fh)["depths"]["1"] == {"1": 1.0, "2": 0.0}
    # ... and the fixed point of symbol 2 at e^-100 of the fixed point of symbol 1
    f, L = full_shift(2), WindowQm({2: {(0, 0): -700.0, (1, 1): -800.0}}, 0.0)
    with pytest.raises(thermo._FloatRange):
        thermo._transfer_gibbs_masses(L, f, 1, 1)
    got = thermo.gibbs_measure(L, f, 1, 1).masses_at(1)
    assert got[0] == 1.0 and abs(got[1] / 3.720075976020836e-44 - 1) <= 1e-15


def test_weights_up_to_2000_match_a_decimal_enumeration():
    """A seeded sweep of kernels scaled up to 2000 on random primitive SFTs,
    N <= 9: by transfer where the float range holds, by enumeration beyond."""
    rng, cases = np.random.default_rng(2026), 0
    while cases < 40:
        d = int(rng.integers(2, 5))
        try:
            sft = Sft(rng.integers(0, 2, (d, d)))
        except (InvalidMatrix, NotPrimitive):
            continue
        N = int(rng.integers(1, {2: 9, 3: 6, 4: 5}[d] + 1))
        if not sft.periodic_count(N):
            continue
        scale, depth = rng.uniform(0, 2000), int(rng.integers(1, min(N, 4) + 1))
        widths = rng.permutation([1, 2, 3])[:int(rng.integers(1, 4))]
        L = WindowQm({int(q): {w: scale * rng.uniform(-1, 1) for w in np.ndindex(*(d,) * q)}
                      for q in widths}, 0.0)
        got, want = thermo.gibbs_measure(L, sft, N, depth), decimal_masses(L, sft, N, depth)
        for k in range(1, depth + 1):
            assert np.all(np.abs(got.masses_at(k) - want[k]) <= 4e-12 * want[k]), (cases, k)
        cases += 1
