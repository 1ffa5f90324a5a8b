"""One implementation per computation: the LIL on the block engine, the
periodic-orbit sums on word arrays, quasicocycles from potentials through
project_conditional, one mass interface, one word-table format, one
normalization defect, one base-d coding and one symbols-only sampler, each
against a frozen copy of the code it replaced."""

import ast
import itertools
import json
import pathlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import thermoqm
from thermoqm import bowen, cli, thermo
from thermoqm import freegroup as fg
from thermoqm import experiments as ex
from thermoqm import markov as mk
from thermoqm.errors import InconsistentVerdicts, InvalidMatrix, NotPrimitive, ResourceLimit, ZeroMass
from thermoqm.freegroup import FreeGroup, brooks
from thermoqm.measures import CylinderMeasure, bernoulli_measure, periodic_orbit_measure
from thermoqm.qm import (
    LetterWeights,
    LinearCombinationQm,
    PatternCount,
    PerturbedQm,
    Quasicocycle,
    TabulatedQm,
    WindowQm,
    quasicocycle_of,
)
from thermoqm.sft import SCOPED_WORD_CAP, Sft, full_shift, render_word

from oracles import encode_word

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- frozen references ------------------------------------------------------------


def old_depth_value(phi, k, word):
    return float(phi.tables[k][phi.sft.cylinders(k).index(tuple(word)[:k])])


def old_birkhoff_periodic(phi, word, n, depth=None):
    k = phi.k_max if depth is None else depth
    return sum(old_depth_value(phi, k, phi.sft.cyclic_window(word, l, k)) for l in range(n))


def old_cyclic_birkhoff_average(f, sft, word):
    word = tuple(word)
    n = len(word)
    return sum(f.value(sft.cyclic_window(word, j, max(f.m, 1))) for j in range(n)) / n


def old_bowen_norm_estimate(phi, n_max):
    sft = phi.sft
    best = 0.0
    for n in range(1, n_max + 1):
        for w in sft.words(n):
            vals = []
            for ell in range(0, sft.M + 1):
                for u in sft.words(ell) if ell else [()]:
                    cand = w + u
                    if sft.is_word(cand) and sft.wraps(cand):
                        vals.append(old_birkhoff_periodic(phi, cand, n))
            if len(vals) > 1:
                best = max(best, max(vals) - min(vals))
    return float(best)


def old_degeneracy_test(psi, pot, mm, n_max=8, tol=1e-10):
    sft = pot.sft
    scale = max(1.0, psi.sup_norm())
    var = mk.variance(pot, psi, mm)
    sigma_trivial = var.sigma2_martingale <= tol * scale ** 2
    worst, witness = 0.0, None
    for n in range(1, n_max + 1):
        for a in sft.periodic_words(n):
            avg = abs(old_cyclic_birkhoff_average(psi, sft, a))
            if avg > worst:
                worst, witness = avg, a
    livsic_trivial = worst <= tol * scale
    if sigma_trivial != livsic_trivial:
        raise InconsistentVerdicts(
            f"sigma2 = {var.sigma2_martingale} but max periodic average = {worst}"
        )
    return {"sigma2": var.sigma2_martingale, "trivial": sigma_trivial,
            "max_periodic_average": worst, "witness": witness}


def old_delta_estimate(B):
    best = 0.0
    for total in range(2, B.n_max + 1):
        idx = B.sft.cylinders(total)
        for n in range(1, total):
            m = total - n
            for w in idx.words:
                dev = abs(B.value(total, w) - B.value(n, w[:n]) - B.value(m, w[n:]))
                best = max(best, dev)
    return best


def old_livsic_quasicocycle_test(B, B2, sft, n_max, tol=1e-8):
    d1 = old_delta_estimate(B) + B.bowen_norm
    d2 = old_delta_estimate(B2) + B2.bowen_norm
    worst_gap = 0.0
    for n in range(1, n_max + 1):
        for a in sft.periodic_words(n):
            depth = (B.n_max // n) * n if n <= B.n_max else None
            depth2 = (B2.n_max // n) * n if n <= B2.n_max else None
            if not depth or not depth2:
                continue
            c1 = B.value(depth, sft.cyclic_window(a, 0, depth)) / depth
            c2 = B2.value(depth2, sft.cyclic_window(a, 0, depth2)) / depth2
            r1, r2 = d1 / depth, d2 / depth2
            gap = abs(c1 - c2)
            worst_gap = max(worst_gap, gap)
            if gap > r1 + r2 + tol:
                return ("distinct", a, n, worst_gap, None)
    sup_diff = 0.0
    for n in range(1, min(B.n_max, B2.n_max) + 1):
        sup_diff = max(sup_diff, float(np.abs(B.tables[n] - B2.tables[n]).max()))
    diff = Quasicocycle(sft, {
        n: B.tables[n] - B2.tables[n] for n in range(1, min(B.n_max, B2.n_max) + 1)
    })
    bound = old_delta_estimate(diff) + B.bowen_norm + B2.bowen_norm
    check = {"sup_diff": sup_diff, "bound": bound, "ok": bool(sup_diff <= bound + tol)}
    return ("cohomologous", None, n_max, worst_gap, check)


def old_quasicocycle_from_potential(phi, mu, n_max):
    sft, k, mass = phi.sft, phi.k_max, mu.mass
    tables = {}
    for n in range(1, n_max + 1):
        idx = sft.cylinders(n)
        vals = np.zeros(len(idx))
        for i, w in enumerate(idx.words):
            tot = 0.0
            for l in range(n):
                if l + k <= n:
                    tot += old_depth_value(phi, k, w[l:l + k])
                else:
                    mw = mass(w)
                    if mw <= 0:
                        raise ZeroMass(f"cylinder {w} has no mass")
                    acc = 0.0
                    for v in sft.words(l + k - n):
                        if sft.R[w[-1], v[0]]:
                            mv = mass(w + v)
                            if mv > 0:
                                acc += mv * old_depth_value(phi, k, (w + v)[l:l + k])
                    tot += acc / mw
            vals[i] = tot
        tables[n] = vals
    return tables


def old_lil(L, mm, n_max, seed, n_min=1000, sigma2=None, trial=0):
    """The LIL before it ran on the engine: the orbit from sample_path, then
    window codes through sliding_window_view and one cumsum."""
    if sigma2 is None:
        sigma2 = ex.sigma2_of(L, mm).sigma2_martingale
    start = max(n_min, int(np.ceil((np.e + 1e-9) / sigma2)))
    tables, e = L.window_tables(mm.sft.d), 0.0
    kernels = {q: tables[q] for q in sorted(tables)}
    for q, table in kernels.items():
        e += float(np.dot(mm.cylinder_masses(q), table[mm.sft.cylinders(q).codes]))
    symbols = ex.sample_path(mm, n_max, seed, trial=trial)
    inc = np.zeros(n_max)
    x = symbols.astype(np.int64)
    for q, table in kernels.items():
        win = np.lib.stride_tricks.sliding_window_view(x, q)
        inc[q - 1:] += table[win @ (mm.sft.d ** np.arange(q - 1, -1, -1, dtype=np.int64))]
    S = np.cumsum(inc) - np.arange(1, n_max + 1) * e
    ns = np.arange(1, n_max + 1)
    t = ns[start - 1:] * sigma2
    stat = S[start - 1:] / np.sqrt(2.0 * t * np.log(np.log(t)))
    k = int(np.argmax(stat))
    grid = np.unique(np.geomspace(start, n_max, 200).astype(np.int64))
    series = [(int(n), float(S[n - 1] / np.sqrt(2 * n * sigma2 * np.log(np.log(n * sigma2)))))
              for n in grid]
    return ex.LilResult(float(stat[k]), int(ns[start - 1 + k]), start, n_max, float(sigma2),
                        series)


def old_scan(base, R, pick, nxt, sym, w):
    """One walker through draws R (positions, 1): per segment, tabulate every
    step's next-state map, compose the maps by a Hillis-Steele scan and read
    the path off at the entry state; returns (symbols, final offset)."""
    X = np.empty(R.shape, dtype=sym.dtype)
    seg = max(1, (1 << 15) * w // len(nxt))
    for lo in range(0, len(R), seg):
        r = R[lo:lo + seg]
        F = nxt.take(pick(np.arange(0, len(nxt), w), r))  # F[p, s]: offset after step p from s
        for k in (1 << i for i in range((len(F) - 1).bit_length())):  # k = 1, 2, 4, .. < len(F)
            F[k:] = np.take_along_axis(F[k:], F[:-k] // w, axis=1)
        idx = pick(np.append(base, F[:-1, base[0] // w]), r[:, 0])
        X[lo:lo + seg, 0] = sym.take(idx)
        base = nxt.take(idx[-1:])
    return X, base


def old_single_path(payload):
    """The symbols of a one-trial block as the engine walked a path on few
    states before segments: the trial's float uniforms, the state maps of
    every step composed by old_scan."""
    t0, _ = payload["trial_range"]
    n, w = payload["n"], payload["succ_state"].shape[1]
    U = ex.trial_rng(payload["seed"], t0).random(max(n - payload["t"], 0) + 1)
    first = np.searchsorted(payload["init_cum"], U[:1], side="right")
    cum = payload["succ_cum"].ravel()

    def pick(base, u):
        idx = base + (u >= cum.take(base))
        for k in range(1, w - 1):
            idx += u >= cum[k:].take(base)
        return idx

    nxt, sym = (payload["succ_state"].astype(np.int64) * w).ravel(), payload["succ_sym"].ravel()
    X, _ = old_scan(first * w, U[1:, None], pick, nxt, sym, w)
    return np.concatenate([payload["state_words"][first[0]][:n], X[:, 0]])


def old_variational_check(L, sft, candidates, ptop, integral_depth=None):
    rows = []
    additive = L.window_tables(sft.d) is not None
    for name, mu in candidates:
        if hasattr(mu, "entropy_exact"):
            h = mu.entropy_exact()
            if additive:
                integ = old_window_expectation(mu.cylinder_masses, L, sft)
            else:
                depth = integral_depth or 8
                integ = thermo.qm_integral(mu.cylinder_measure(depth), L, depth)
        else:
            h = thermo.entropy_report(mu).h_extrapolated
            if additive:
                integ = old_window_expectation(mu.masses_at, L, sft)
            else:
                depth = integral_depth or mu.max_depth
                integ = thermo.qm_integral(mu, L, depth)
        rows.append({"name": name, "entropy": float(h), "integral": float(integ),
                     "metric_pressure": float(h + integ), "shortfall": float(ptop - (h + integ))})
    return rows


def old_window_expectation(masses_lookup, L, sft):
    total = 0.0
    for q, table in L.window_tables(sft.d).items():
        total += float(np.dot(masses_lookup(q), table[sft.cylinders(q).codes]))
    return total


# -- strategies --------------------------------------------------------------------


def old_kernel_sums(kernels, codes, n, d, starts):
    """Sums over `kernels` {q: table} in dict order, then over i in starts(q), of the
    table at the width-q window from symbol i of n-symbol words with these base-d codes."""
    out = np.zeros(len(codes))
    for q, table in kernels.items():
        for i in starts(q):
            out = out + table[codes // d ** (n - q - i) % d**q]
    return out


def old_edge_form_and_step_potential(L, sft):
    kernels = L.window_tables(sft.d)
    t, s = max(max(kernels) - 1, 1), max(kernels) - 1
    g = sft.block_graph(t)
    return (old_kernel_sums(kernels, g.ext, t + 1, sft.d, lambda q: [t + 1 - q]),
            old_kernel_sums(kernels, g.codes, t, sft.d, lambda q: range(t - q + 1)),
            old_kernel_sums(kernels, sft.cylinders(s + 1).codes, s + 1, sft.d, lambda q: [0]))


def old_periodic_orbit_masses(sft, word, depths):
    n = len(word)
    masses = {}
    for k in depths:
        idx = sft.cylinders(k)
        arr = np.zeros(len(idx))
        for j in range(n):
            arr[idx.index(sft.cyclic_window(word, j, k))] += 1.0 / n
        masses[k] = arr
    return masses


def old_reach(R):
    """(M, reach tables R^0 .. R^(M+1)) of a 0/1 matrix, or the NotPrimitive message:
    the specification constant's loop, then the tables' loop."""
    d = len(R)
    wielandt = (d - 1) ** 2 + 1 if d > 1 else 1
    B = R.astype(bool)
    P = B.copy()
    closure = B.copy()
    for k in range(1, wielandt + 1):
        if P.all():
            tables = [np.eye(d, dtype=bool)]
            for _ in range(k + 1):
                tables.append((tables[-1].astype(np.int64) @ B.astype(np.int64)) > 0)
            return k, tables
        P = (P.astype(np.int64) @ B.astype(np.int64)) > 0
        closure |= P
    if not closure.all():
        return "matrix is reducible: some symbol pairs are never joinable"
    return "matrix is irreducible but periodic: no positive power up to the Wielandt bound"


@st.composite
def primitive_sfts(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    try:
        return Sft(rows)
    except (InvalidMatrix, NotPrimitive):
        assume(False)


def _chain(sft, rng, memory=1):
    pot = mk.MarkovPotential(sft, memory, rng.standard_normal(len(sft.cylinders(memory + 1))))
    norm = mk.normalize_potential(pot)[0]
    return norm, mk.markov_measure(norm)


def _weak_bowen(sft, rng, k, reference=None):
    return bowen.WeakBowenFn(
        sft, {j: rng.standard_normal(len(sft.cylinders(j))) for j in range(1, k + 1)}, reference)


# -- periodic-orbit sums on word arrays -------------------------------------------


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_periodic_orbit_sums_equal_word_loops(sft, seed, k):
    rng = np.random.default_rng(seed)
    phi = _weak_bowen(sft, rng, k)
    for n in range(1, 6):
        for a in sft.periodic_words(n)[:12]:
            for m in (1, n, 2 * n + 1):
                for depth in range(1, k + 1):
                    sums = mk.cyclic_birkhoff_sums(phi.as_lc(depth), np.array([a]), m)
                    assert float(sums[0]) == old_birkhoff_periodic(phi, a, m, depth)
            for f in (phi.as_lc(), mk.LocallyConstantFn.constant(sft, rng.standard_normal())):
                sums = mk.cyclic_birkhoff_sums(f, np.array([a]), n)
                assert float(sums[0]) / n == old_cyclic_birkhoff_average(f, sft, a)
    n_max = 4 if sft.d < 4 else 3
    assert bowen.bowen_norm_estimate(phi, n_max) == old_bowen_norm_estimate(phi, n_max)


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1), st.sampled_from(["random", "coboundary"]))
def test_degeneracy_test_equals_word_loop(sft, seed, kind):
    rng = np.random.default_rng(seed)
    pot, mm = _chain(sft, rng)
    g = mk.LocallyConstantFn(sft, 2, rng.standard_normal(len(sft.cylinders(2))))
    psi = g - g.shift() if kind == "coboundary" else g - mk.LocallyConstantFn.constant(
        sft, mm.integral(g))
    try:
        want = old_degeneracy_test(psi, pot, mm, n_max=6)
    except InconsistentVerdicts as exc:
        with pytest.raises(InconsistentVerdicts, match=re.escape(str(exc))):
            mk.degeneracy_test(psi, pot, mm, n_max=6)
        return
    got = mk.degeneracy_test(psi, pot, mm, n_max=6)
    assert got == want
    assert type(got["max_periodic_average"]) is float


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1),
       st.sampled_from(["same", "scaled", "bumped", "random", "shallow"]))
def test_delta_estimate_and_livsic_test_equal_word_loops(sft, seed, other):
    rng = np.random.default_rng(seed)
    n_max = 5 if sft.d < 4 else 4
    tables = [{n: rng.standard_normal(len(sft.cylinders(n))) for n in range(1, n_max + 1)}
              for _ in range(2)]
    B = Quasicocycle(sft, tables[0])
    B2 = {
        "same": B,
        "scaled": B.scaled(1.0 + rng.random()),
        "bumped": Quasicocycle(sft, {n: t + (1e-3 * rng.standard_normal() if n < 3 else 0.0)
                                     for n, t in B.tables.items()}),
        "random": Quasicocycle(sft, tables[1]),
        "shallow": Quasicocycle(sft, {n: B.tables[n] * 0.5 for n in range(1, 3)}),
    }[other]
    assert B.delta_estimate() == old_delta_estimate(B)
    for C in (B, B2, quasicocycle_of(PatternCount((0, 1)), sft, n_max)):
        assert C.delta_estimate() == old_delta_estimate(C)
    for tol in (1e-8, 10.0):
        v = bowen.livsic_quasicocycle_test(B, B2, sft, 6, tol=tol)
        want = old_livsic_quasicocycle_test(B, B2, sft, 6, tol=tol)
        assert (v.verdict, v.witness, v.certificate_depth, v.max_gap, v.bound_check) == want
        assert v.witness is None or type(v.witness[0]) is int


# -- quasicocycles through project_conditional --------------------------------------


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_quasicocycle_from_potential_matches_word_loop(sft, seed, k):
    rng = np.random.default_rng(seed)
    _, mm = _chain(sft, rng, memory=int(rng.integers(0, 3)))
    phi = _weak_bowen(sft, rng, k)
    n_max = 4 if sft.d < 4 else 3
    for mu in (mm, mm.cylinder_measure(n_max - 1 + k)):
        B = bowen.quasicocycle_from_potential(phi, mu, n_max)
        want = old_quasicocycle_from_potential(phi, mu, n_max)
        assert B.tables.keys() == want.keys()
        for n, table in want.items():
            scale = np.abs(table).max()
            assert np.abs(B.tables[n] - table).max() <= 1e-13 * scale, n
            if k == 1:  # no conditioning: the window sums in the same order
                assert np.array_equal(B.tables[n], table)


def test_quasicocycle_from_potential_refuses_shallow_or_null_measures():
    sft = full_shift(2)
    phi = _weak_bowen(sft, np.random.default_rng(3), 2)
    with pytest.raises(bowen.DepthExceeded):
        bowen.quasicocycle_from_potential(phi, bernoulli_measure(sft, [0.5, 0.5], range(1, 4)), 3)
    dirac = bernoulli_measure(sft, [1.0, 0.0], range(1, 5))
    with pytest.raises(ZeroMass):
        bowen.quasicocycle_from_potential(phi, dirac, 3)


# -- one mass interface -------------------------------------------------------------


def test_markov_measure_answers_the_cylinder_measure_interface():
    mm = mk.parry_measure(full_shift(3))
    assert mm.max_depth is None
    for k in (1, 2, 4):
        assert mm.masses_at(k) is mm.cylinder_masses(k)


def test_mixing_reports_read_a_markov_chain_at_any_depth():
    _, mm = _chain(full_shift(2), np.random.default_rng(2), memory=2)
    stored = mm.cylinder_measure(8)
    assert thermo.weak_bernoulli_report(mm, 2, [0, 2, 4]) == thermo.weak_bernoulli_report(
        stored, 2, [0, 2, 4])
    assert thermo.mixing_ratio_report(mm, (0, 1), (1,), range(1, 6)) == \
        thermo.mixing_ratio_report(stored, (0, 1), (1,), range(1, 6))


@pytest.mark.parametrize("additive", [True, False], ids=["window-additive", "tabulated"])
def test_variational_check_equals_the_per_type_branches(additive):
    sft = full_shift(2)
    rng = np.random.default_rng(5)
    L = PatternCount((0, 1)) if additive else TabulatedQm(
        {n: {w: float(rng.standard_normal()) for w in sft.words(n)} for n in (1, 2)},
        defect_bound=1.0, extend=True)
    _, mm = _chain(sft, rng, memory=2)
    cands = [("parry", mk.parry_measure(sft)), ("chain", mm), ("cyl", mm.cylinder_measure(6)),
             ("bern", bernoulli_measure(sft, [0.3, 0.7], range(1, 6)))]
    assert thermo.variational_check(L, sft, cands, 0.7) == old_variational_check(
        L, sft, cands, 0.7)


# -- the LIL on the block engine ------------------------------------------------------

F2 = FreeGroup(2)
LIL_CASES = {  # name: (quasimorphism, chain or its state count, n_max): the Gibbs chain of
    # abaBa (108 states) walks as segments, that of abaBabA (972 states) flat
    "letter-weights": (LetterWeights([0.5, -0.5]), mk.parry_measure(full_shift(2)), 40000),
    "count01": (PatternCount((0, 1)), mk.parry_measure(full_shift(2)), 40000),
    "brooks-abaB": (brooks(F2, "abaB"), mk.parry_measure(F2.sft()), 20000),
    "gibbs-abaBa": (brooks(F2, "abaBa"), 108, 6000),
    "gibbs-abaBabA": (brooks(F2, "abaBabA"), 972, 3000),
}


@pytest.mark.parametrize("case", sorted(LIL_CASES))
def test_lil_on_the_engine_equals_the_old_evaluation(case):
    L, mm, n_max = LIL_CASES[case]
    if isinstance(mm, int):
        states, mm = mm, mk.gibbs_chain_from_qm(L, F2.sft())[0]
        assert len(mm.stationary) == states
        assert (states > ex._SEGMENT_STATES) == (states == 972)  # the flat single-path walk
    for seed, trial in ((3, 0), (4, 2)):
        got = ex.lil_experiment(L, mm, n_max, seed, trial=trial)
        want = old_lil(L, mm, n_max, seed, trial=trial)
        assert got.summary() == want.summary()
        assert got.series == want.series


def test_lil_with_mixed_widths_moves_at_rounding_level():
    """Widths 1 and 2: the engine adds them inside its running sum, the old
    evaluation added them per position first, so only the last bits move."""
    L = LinearCombinationQm([(0.7, LetterWeights([0.5, -0.25])), (1.3, PatternCount((0, 1)))])
    mm = mk.parry_measure(full_shift(2))
    got, want = ex.lil_experiment(L, mm, 30000, 7), old_lil(L, mm, 30000, 7)
    assert got.argmax_n == want.argmax_n
    assert got.sup_stat == pytest.approx(want.sup_stat, rel=1e-10)
    assert [n for n, _ in got.series] == [n for n, _ in want.series]
    assert np.allclose([s for _, s in got.series], [s for _, s in want.series], rtol=1e-10,
                       atol=1e-12)


def test_lil_samples_one_block_and_no_symbol_array(monkeypatch):
    calls = []
    simulate = ex._simulate_block
    monkeypatch.setattr(ex, "_simulate_block", lambda p: calls.append(dict(p)) or simulate(p))
    ex.lil_experiment(PatternCount((0, 1)), mk.parry_measure(full_shift(2)), 3000, 1, trial=5)
    (p,) = calls
    assert p["trial_range"] == (5, 6) and not p.get("want_symbols", False)
    assert np.array_equal(p["checkpoints"], np.arange(1000, 3001))


def test_only_run_blocks_starts_the_block_engine():
    """Every walk enters the engine through one run entry: no other function in
    the package names _simulate_block (calls, map arguments and imports alike)."""
    pkg = pathlib.Path(thermoqm.__file__).parent
    users = set()
    for path in sorted(pkg.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            names |= {a.asname or a.name for node in ast.walk(top)
                      if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
            if "_simulate_block" in names:
                users.add((path.stem, getattr(top, "name", None)))
    assert users == {("experiments", "_run_blocks")}


def test_sample_path_is_a_row_of_a_symbol_run():
    """Trials 5..11 of one symbol run, in blocks of 2 (float walks) and a last
    single path (segment walkers), are the paths sample_path draws one by one."""
    mm = _chain(full_shift(3), np.random.default_rng(11), 2)[1]
    payload = dict(ex.markov_sampler_payload(mm), n=40, seed=9, **ex._SYMBOLS_ONLY)
    with mock.patch.object(ex, "_SYMBOL_CELLS", 80):
        rows = ex._run_blocks(payload, 7, first=5)["symbols"]
    assert rows.shape == (7, 40)
    for t in range(5, 12):
        assert np.array_equal(ex.sample_path(mm, 40, 9, t), rows[t - 5])


def test_sphere_sample_walks_blocks_of_about_a_million_symbols(monkeypatch):
    """500 samples of 5000 letters: 209 a block (209 * 5000 <= 2^20 < 210 * 5000),
    on walk tables built once for the run."""
    calls, simulate = [], ex._simulate_block
    monkeypatch.setattr(ex, "_simulate_block", lambda p: calls.append(p) or simulate(p))
    with mock.patch.object(ex, "_walk_tables", wraps=ex._walk_tables) as tables:
        got = fg.sphere_sample(F2, 5000, 500, seed=3)
    assert [p["trial_range"] for p in calls] == [(0, 209), (209, 418), (418, 500)]
    assert tables.call_count == 1 and all(p["want_symbols"] for p in calls)
    assert got.shape == (500, 5000)
    for t in (0, 208, 209, 499):
        assert np.array_equal(got[t], ex.sample_path(ex.uniform_sphere_chain(F2.sft()), 5000, 3, t))


# -- single paths as segment walkers ---------------------------------------------------

SEGMENT_CHAINS = {  # name: (sft, chain memory, states); random kernels, so that a walker
    # entering at a wrong state makes its own symbols before the walkers couple
    "full2-memory1": (full_shift(2), 1, 2),
    "free2-memory2": (F2.sft(), 2, 12),
    "free2-memory3": (F2.sft(), 3, 36),
    "free2-memory4": (F2.sft(), 4, 108),
    "full2-memory8": (full_shift(2), 8, 256),  # 256 cut points: float uniforms
}


@pytest.mark.parametrize("case", sorted(SEGMENT_CHAINS))
def test_segment_walkers_give_the_scanned_and_the_flat_path(case):
    """One path through segment walkers equals old_scan's and the flat walk's
    symbols, with running sums at every n, on 2-256 states: 20,011 and 40,013
    steps are no multiple of the 16-step segments, of a segment walk or of an
    evaluated chunk, from a nonzero trial; drawn chunks of about 800
    positions end in short segments inside the path."""
    sft, memory, states = SEGMENT_CHAINS[case]
    mm = _chain(sft, np.random.default_rng(states), memory)[1]
    payload = ex.markov_sampler_payload(mm)
    assert len(payload["succ_state"]) == states <= ex._SEGMENT_STATES
    assert ex._coded(payload, 1) == (states < 256)
    d = payload["d"]
    table = np.linspace(-1.0, 1.0, d * d)
    for n, trial in ((20011, 3), (40013, 1)):
        payload.update(n=n, seed=29 + trial, trial_range=(trial, trial + 1), kernel_widths=(2,),
                       kernel_tables=(table,), e=0.125, checkpoints=np.arange(1, n + 1),
                       want_max=True, want_symbols=True)
        got = ex._simulate_block(payload)
        want = old_single_path(payload)
        assert np.array_equal(got["symbols"][0], want)
        with mock.patch.object(ex, "_DRAW_CELLS", 101):
            assert np.array_equal(ex._simulate_block(payload)["symbols"][0], want)
        with mock.patch.object(ex, "_SEGMENT_STATES", 0):
            flat = ex._simulate_block(payload)
        for key in ("symbols", "checks", "final", "runmax"):
            assert np.array_equal(got[key], flat[key]), key
        x = want.astype(np.int64)
        run = np.cumsum(np.concatenate([[0.0], table[x[:-1] * d + x[1:]]]))
        assert np.array_equal(got["checks"][0], run - np.arange(1, n + 1) * 0.125)


def test_a_run_builds_its_walk_tables_once():
    """600 trials in 5 blocks of at most 128 take the tables from the payload:
    one build, and every block as it walks on its own tables."""
    payload, _ = ex.path_functional_payload(PatternCount((0, 1)), mk.parry_measure(full_shift(2)))
    payload.update(n=300, seed=4, checkpoints=(100, 300), want_max=True)
    with mock.patch.object(ex, "_BLOCK", 128), \
            mock.patch.object(ex, "_walk_tables", wraps=ex._walk_tables) as tables:
        res = ex._run_blocks(payload, 600, 1)
        assert tables.call_count == 1
        parts = [ex._simulate_block(dict(payload, trial_range=(lo, min(lo + 128, 600))))
                 for lo in range(0, 600, 128)]
    assert tables.call_count == 6
    for key in ("final", "checks", "runmax"):
        assert np.array_equal(res[key], np.concatenate([p[key] for p in parts])), key


@st.composite
def window_kernels(draw, d):
    """A WindowQm of widths 1-4 in a drawn order, with random real coefficients."""
    widths = draw(st.permutations([1, 2, 3, 4]))[:draw(st.integers(1, 3))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return WindowQm({q: {w: float(rng.normal()) for w in np.ndindex(*(d,) * q)} for q in widths}, 0.0)


@PROPERTY
@given(primitive_sfts().flatmap(lambda sft: st.tuples(st.just(sft), window_kernels(sft.d))))
def test_edge_form_and_step_potential_equal_the_kernel_sums(case):
    sft, L = case
    g, f, start = L.edge_form(sft)
    s, table = L.step_potential(sft)
    want = old_edge_form_and_step_potential(L, sft)
    assert s == max(L.kernels) - 1
    for got, old in zip((f, start, table), want):
        assert got.shape == old.shape and np.array_equal(got, old)  # bit for bit


@PROPERTY
@given(primitive_sfts(), st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_periodic_orbit_measure_equals_the_window_loop(sft, n, seed, past):
    words = sft.periodic_words(n)
    assume(words)
    word = words[seed % len(words)]
    depths = range(1, n + past + 1)  # past the word's length the windows wrap
    got = periodic_orbit_measure(sft, word, depths)
    want = old_periodic_orbit_masses(sft, word, depths)
    assert got.depths() == sorted(want)
    for k in want:
        assert np.array_equal(got.masses_at(k), want[k])


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda d: st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                                                    min_size=d, max_size=d)))
def test_reachability_powers_equal_the_two_loops(rows):
    R = np.array(rows, dtype=np.int8)
    assume(R.any(axis=0).all() and R.any(axis=1).all())  # else InvalidMatrix comes first
    want = old_reach(R)
    if isinstance(want, str):
        with pytest.raises(NotPrimitive) as exc:
            Sft(R)
        assert str(exc.value) == want
    else:
        sft = Sft(R)
        assert sft.M == want[0] and len(sft._reach) == len(want[1])
        assert all(np.array_equal(a, b) for a, b in zip(sft._reach, want[1]))


# -- one owner per decision: word tables, the normalization defect, base-d coding,
# -- cylinder mass and symbols-only path sampling ------------------------------------


def old_table_json(sft, k, values, **head):
    return json.dumps({**head, "values": {
        render_word(w): float(v) for w, v in zip(sft.cylinders(k).words, values)}},
        sort_keys=True, indent=2) + "\n"


def old_measure_to_json(mu):
    return {"d": mu.sft.d, "depths": {
        str(k): {render_word(w): float(m) for w, m in zip(mu.sft.cylinders(k).words, arr)}
        for k, arr in sorted(mu.masses.items())}}


def old_word_table(values, sft, k):
    idx = sft.cylinders(k)
    vals = np.zeros(len(idx))
    vals[idx.index_of_words(values)] = [float(v) for v in values.values()]
    return vals


def old_measure_from_json(sft, obj):
    masses = {}
    for k_str, table in obj["depths"].items():
        k = int(k_str)
        idx = sft.cylinders(k)
        arr = np.zeros(len(idx))
        arr[idx.index_of_words(table)] = list(table.values())
        masses[k] = arr
    return masses


def old_markov_defect(pot):
    g = pot.sft.block_graph(max(pot.s, 1))
    tot = np.bincount(g.dst, weights=np.exp(pot.as_memory(g.t + 1).values), minlength=len(g))
    return float(np.abs(tot - 1.0).max())


def old_weak_bowen_defect(phi, k):
    suffix = phi.sft.cylinders(k).suffix(k - 1)
    tot = np.bincount(suffix, np.exp(phi.tables[k]))
    return float(np.abs(tot - 1.0).max())


def old_markov_mass(mm, word):
    word = tuple(word)
    if not word:
        return 1.0
    if not mm.sft.is_word(word):
        return 0.0
    return float(mm.cylinder_masses(len(word))[mm.sft.cylinders(len(word)).index(word)])


def old_window_tables(L, d):
    tables = {q: np.zeros(d ** q) for q in L.kernels}
    for q, table in L.kernels.items():
        for win, coef in table.items():
            if max(win) < d:
                tables[q][encode_word(win, d)] += coef
    return tables


def old_sphere_sample(group, n, count, seed):
    payload = dict(ex.uniform_sphere_payload(group.sft()), n=n, seed=seed, **ex._SYMBOLS_ONLY)
    return ex._run_blocks(payload, count)["symbols"]


@PROPERTY
@given(primitive_sfts(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_word_tables_write_and_read_as_the_two_old_pairs(sft, k, seed):
    rng = np.random.default_rng(seed)
    idx = sft.cylinders(k)
    values = rng.standard_normal(len(idx))
    assert cli._table_json(sft, k, values, depth=k) == old_table_json(sft, k, values, depth=k)
    keep = rng.permutation(len(idx))[:rng.integers(0, len(idx) + 1)]
    table = {render_word(idx.word(i)): float(values[i]) for i in keep}
    assert idx.parse_table(table).tobytes() == old_word_table(table, sft, k).tobytes()
    mu = CylinderMeasure(sft, {j: rng.dirichlet(np.ones(len(sft.cylinders(j))))
                               for j in range(1, k + 1)})
    obj = mu.to_json()
    assert obj == old_measure_to_json(mu)
    back, want = CylinderMeasure.from_json(sft, obj), old_measure_from_json(sft, obj)
    assert back.depths() == sorted(want)
    assert all(back.masses_at(j).tobytes() == want[j].tobytes() for j in want)


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_one_normalization_defect_equals_both_old_forms(sft, seed, memory):
    rng = np.random.default_rng(seed)
    pot = mk.MarkovPotential(sft, memory, rng.standard_normal(len(sft.cylinders(memory + 1))))
    norm = mk.normalize_potential(pot)[0]
    for p in (pot, norm):
        assert p.normalization_defect() == old_markov_defect(p)
    phi = bowen.potential_from_measure(mk.markov_measure(norm), 4)
    for k in range(1, 5):
        assert phi.normalization_defect(k) == old_weak_bowen_defect(phi, k)
    raw = _weak_bowen(sft, rng, 3)
    for k in range(1, 4):
        assert raw.normalization_defect(k) == old_weak_bowen_defect(raw, k)


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1))
def test_chain_mass_is_the_cylinder_mass(sft, seed):
    rng = np.random.default_rng(seed)
    mm = _chain(sft, rng, memory=int(rng.integers(0, 3)))[1]
    for n in range(0, 5):
        for w in itertools.product(range(sft.d), repeat=n):
            assert mm.mass(w) == old_markov_mass(mm, w)
    # a symbol off the alphabet: a cylinder of no mass, where the old form raised
    assert mm.mass((sft.d,)) == 0.0 == mm.mass((0, sft.d))
    with pytest.raises(IndexError):
        old_markov_mass(mm, (0, sft.d))


@PROPERTY
@given(primitive_sfts().flatmap(lambda sft: st.tuples(st.just(sft), window_kernels(sft.d))),
       st.integers(2, 5))
def test_window_tables_equal_the_encode_word_loop(case, d):
    _, L = case  # kernels drawn on one alphabet, tabulated on another: windows off it drop
    got, want = L.window_tables(d), old_window_tables(L, d)
    assert list(got) == list(want)
    for q in want:
        assert got[q].tobytes() == want[q].tobytes()  # -0.0 coefficients come out as 0.0 + coef


def test_window_tables_add_a_negative_zero_coefficient_to_zero():
    L = WindowQm({1: {(0,): -0.0, (1,): 2.5}, 2: {(1, 0): -1.0}}, 0.0)
    got = L.window_tables(2)
    assert np.signbit(got[1]).tolist() == [False, False]
    assert got[1].tobytes() == old_window_tables(L, 2)[1].tobytes()


@pytest.mark.parametrize("rank, n, count, seed", [(2, 1, 3, 0), (2, 40, 7, 5), (3, 9, 600, 2)])
def test_sphere_sample_is_the_old_symbol_run(rank, n, count, seed):
    G = FreeGroup(rank)
    assert np.array_equal(fg.sphere_sample(G, n, count, seed), old_sphere_sample(G, n, count, seed))


def test_sample_paths_rows_are_sample_path_and_refuse_a_negative_trial():
    mm = _chain(full_shift(3), np.random.default_rng(4), 1)[1]
    rows = ex.sample_paths(mm, 30, 4, 6, first=2)
    for i in range(4):
        assert np.array_equal(rows[i], ex.sample_path(mm, 30, 6, 2 + i))
    with pytest.raises(ValueError, match="numbered from 0"):
        ex.sample_path(mm, 8, 1, trial=-1)


def test_sample_paths_hold_their_cells_against_the_word_cap():
    mm = mk.parry_measure(full_shift(2))
    token = SCOPED_WORD_CAP.set(100)
    try:
        assert ex.sample_paths(mm, 10, 10, 1).shape == (10, 10)
        with pytest.raises(ResourceLimit, match="exceed the word cap"):
            ex.sample_paths(mm, 101, 1, 1)
    finally:
        SCOPED_WORD_CAP.reset(token)


def test_enumerated_pressure_refuses_before_it_enumerates(tmp_path):
    """The weights leave the float range, so the partition sums fall back to
    enumeration, which |W_12| = 4096 > 1000 refuses before W_1, .., W_9 are
    built: the one word array built is the 1-cylinders of the block graph that
    the transfer is first tried on."""
    calls = []
    word_array = Sft.word_array

    def counted(self, n, periodic=False):
        calls.append((n, periodic))
        return word_array(self, n, periodic)

    cfg = {"sft": {"builtin": "full_shift", "d": 2},
           "qm": {"kind": "letter_weights", "weights": [800, -800]}, "n_max": 12}
    token = SCOPED_WORD_CAP.set(1000)
    try:
        with mock.patch.object(Sft, "word_array", counted):
            with pytest.raises(ResourceLimit, match=r"\|W_12\| = 4096"):
                thermo.pressure(LetterWeights([800, -800]), full_shift(2), 12)
            assert calls == [(1, False)]
            code, summary = cli.execute("pressure", cfg, str(tmp_path))
        assert calls == [(1, False)] * 2 and code == 3
        assert summary["error"] == "ResourceLimit: |W_12| = 4096 exceeds the word cap"
        assert thermo.pressure(LetterWeights([800, -800]), full_shift(2), 9).n_max == 9
    finally:
        SCOPED_WORD_CAP.reset(token)


def test_pressure_oracle_at_any_width():
    F3 = FreeGroup(3)
    assert thermo.pressure_oracle_memory1(brooks(F3, "abcAb"), F3.sft()) == pytest.approx(
        1.609727384877, abs=1e-11)
    bump = TabulatedQm({1: {(0,): 1.0}}, 0.0)
    for L in (bump, PerturbedQm(PatternCount((0, 1)), bump)):
        with pytest.raises(ValueError, match="window-additive"):
            thermo.pressure_oracle_memory1(L, full_shift(2))


@PROPERTY
@given(primitive_sfts(), st.integers(3, 4), st.integers(0, 2**32 - 1))
def test_pressure_oracle_equals_the_gibbs_chain_at_widths_three_and_four(sft, q, seed):
    rng = np.random.default_rng(seed)
    L = WindowQm({q: {w: float(rng.normal()) for w in np.ndindex(*(sft.d,) * q)},
                  1: {(0,): float(rng.normal())}}, 0.0)
    want = mk.gibbs_chain_from_qm(L, sft)[2]
    assert thermo.pressure_oracle_memory1(L, sft) == pytest.approx(want, rel=1e-12, abs=1e-14)
