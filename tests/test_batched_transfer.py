"""The batched exact transfer layer: partition sequences advanced k steps a
product on small block graphs, cohomological solves on stacks of right-hand
sides, and the word-table parse and Bernoulli masses that feed them, each
against a frozen copy of the loop it replaced; and the pressure interval's
rounding slack against closed forms."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from thermoqm import cli, thermo
from thermoqm import markov as mk
from thermoqm.errors import InvalidMatrix, MeanNotZero, NotPrimitive
from thermoqm.measures import bernoulli_measure
from thermoqm.qm import PatternCount, WindowQm, zero_qm
from thermoqm.sft import Sft, full_shift, golden_mean, parse_word, render_word

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- frozen references ------------------------------------------------------------


def old_log_partitions(wt, n_max):
    """_WindowTransfer.log_partitions as one gather a step, rescaled by the max."""
    out = np.full(n_max + 1, -np.inf)
    for n in range(1, min(wt.Q, n_max + 1)):
        out[n] = thermo._short_word_log_partition(wt.kernels, wt.sft, n)
    V = wt.V0
    logscale = 0.0
    for n in range(wt.base, n_max + 1):
        if n >= wt.Q:
            z = float((wt.close * V).sum())
            if z > 0:
                out[n] = np.log(z) + logscale
        if n < n_max:
            V = (wt.weights[:, :, None] * V[wt.sources]).sum(axis=1)
            m = V.max()
            V /= m
            logscale += np.log(m)
    return out[1:]


def old_transfer_apply(pot, f):
    r = max(pot.s, f.m - 1, 1)
    g = pot.sft.block_graph(r)
    w = np.exp(pot.as_memory(r + 1).values) * f.as_memory(r + 1).values
    return mk.LocallyConstantFn(pot.sft, r, np.bincount(g.dst, weights=w, minlength=len(g)))


def old_solve(pot, psi, mm):
    """(h, residual) of solve_cohomological, one psi at a time."""
    t = max(pot.s, 1)
    N = max(psi.m, t)
    psi = psi.as_memory(N)
    scale = max(1.0, psi.sup_norm())
    mean = mm.integral(psi)
    if abs(mean) > 1e-10 * scale:
        raise MeanNotZero(f"integral of psi is {mean}")
    h_vals = np.zeros(len(pot.sft.cylinders(N)))
    f = psi
    for _ in range(N - t):
        h_vals += f.as_memory(N).values
        f = old_transfer_apply(pot, f)
    _, M = mk._block_transfer_matrix(pot)
    g = np.linalg.solve(np.eye(len(M)) - M + mm.cylinder_masses(t)[None, :], f.values)
    h = mk.LocallyConstantFn(pot.sft, N, h_vals) + mk.LocallyConstantFn(pot.sft, t, g)
    return h, float(np.abs((h - old_transfer_apply(pot, h) - psi).values).max())


def old_bernoulli_masses(sft, p, k):
    return np.array([np.prod([p[s] for s in w]) for w in sft.cylinders(k).words])


# -- strategies --------------------------------------------------------------------


@st.composite
def primitive_sfts(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    try:
        return Sft(rows)
    except (InvalidMatrix, NotPrimitive):
        assume(False)


def random_kernels(d, rng):
    """Real kernels of one to four distinct widths <= 4, in random order."""
    widths = [int(q) for q in rng.permutation(np.arange(1, 5))[:rng.integers(1, 5)]]
    return WindowQm({q: dict(zip(np.ndindex(*(d,) * q), rng.standard_normal(d**q)))
                     for q in widths}, 0.0)


def both_sides(L, sft, n_max, k=None):
    """log_partitions with the block graph forced over and under the crossover;
    with k, the cell budget holds k powers of T (the last batch may be shorter)."""
    S = len(L.edge_form(sft)[0])
    cells = thermo._PARTITION_CELLS if k is None else k * S * S
    out = []
    for states in (10**9, 0):
        with mock.patch.object(thermo, "_BLOCKED_STATES", states), \
                mock.patch.object(thermo, "_PARTITION_CELLS", cells):
            out.append(thermo._WindowTransfer(L, sft).log_partitions(n_max))
    return out


def assert_close(got, want, rel):
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    ok = np.isfinite(want)
    assert np.all(np.abs(got[ok] - want[ok]) <= rel * np.abs(want[ok])), \
        np.max(np.abs(got[ok] - want[ok]) / np.abs(want[ok]))


# -- blocked partition sequences ----------------------------------------------------


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1), st.integers(1, 600),
       st.sampled_from([1, 2, 3, 7, 64, None]))
def test_both_partition_paths_equal_the_step_loop(sft, seed, n_max, k):
    """Blocked (k steps a product, from 1 to the default budget) and stepped
    sequences against the frozen loop, to 1e-12 relative, on random primitive
    SFTs and real kernels of widths <= 4."""
    L = random_kernels(sft.d, np.random.default_rng(seed))
    want = old_log_partitions(thermo._WindowTransfer(L, sft), n_max)
    for got in both_sides(L, sft, n_max, k):
        assert_close(got, want, 1e-12)


@pytest.mark.parametrize("n_max", [3, 10, 11, 13])
def test_a_short_last_batch_reads_the_right_powers(n_max):
    """count01 four steps a product: batches of 4, 4 and the rest."""
    L = PatternCount((0, 1))
    want = old_log_partitions(thermo._WindowTransfer(L, full_shift(2)), n_max)
    for got in both_sides(L, full_shift(2), n_max, 4):
        assert_close(got, want, 1e-12)


@pytest.mark.parametrize("n_max", [3, 20, 256, 600])
@pytest.mark.parametrize("k", [1, None])
def test_cancelling_weights_keep_every_walk(n_max, k):
    """400 (occ(01) - occ(10)) on the full 2-shift: T's entries, and the
    products of its powers, spread past the float range, so the blocked path
    hands over to the step loop, one power (no product) or many."""
    sft = full_shift(2)
    L = WindowQm({2: {(0, 1): 400.0, (1, 0): -400.0}}, 0.0)
    want = old_log_partitions(thermo._WindowTransfer(L, sft), n_max)
    for got in both_sides(L, sft, n_max, k):
        assert_close(got, want, 1e-12)
    with pytest.raises(thermo._FloatRange):
        thermo._powers(thermo._WindowTransfer(L, sft).T, 4)


def test_small_graphs_take_no_step_loop():
    sft = full_shift(2)
    wt = thermo._WindowTransfer(PatternCount((0, 1)), sft)
    want = old_log_partitions(wt, 512)
    with mock.patch.object(thermo._WindowTransfer, "_stepped", side_effect=AssertionError):
        assert_close(wt.log_partitions(512), want, 1e-12)


# -- the pressure interval's rounding slack -------------------------------------------


def test_pressure_interval_contains_the_closed_form_across_the_sweep():
    """zero on the full d-shift (log d) and on the golden mean (log phi): without
    the rounding slack 17 of these 87 intervals excluded it, by up to 1.9e-14."""
    cases = [(full_shift(d), math.log(d), n) for d in range(2, 10)
             for n in (4, 8, 12, 16, 24, 32, 64, 128, 256, 512)]
    cases += [(golden_mean(), math.log((1 + math.sqrt(5)) / 2), n)
              for n in (4, 8, 12, 18, 64, 256, 512)]
    misses = [(sft.name, n) for sft, exact, n in cases
              if not thermo.pressure(zero_qm(sft.d), sft, n).contains(exact)]
    assert len(cases) == 87 and not misses, misses


def test_rounding_slack_stays_far_under_the_width_gates():
    pe = thermo.pressure(zero_qm(3), full_shift(3), 12)
    assert 0 < pe.width < 1e-12
    assert thermo.pressure(zero_qm(6), full_shift(6), 4).width >= 0


# -- stacked cohomological solves -----------------------------------------------------


def _chain(sft, rng, memory):
    pot = mk.MarkovPotential(sft, memory, rng.standard_normal(len(sft.cylinders(memory + 1))))
    return mk.markov_measure(mk.normalize_potential(pot)[0])


def _centred_stack(mm, rng, memory, k):
    sft = mm.sft
    psi = mk.LocallyConstantFn(sft, memory, rng.standard_normal((len(sft.cylinders(memory)), k)))
    return psi - mk.LocallyConstantFn.constant(sft, mm.integral(psi))


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(1, 5),
       st.integers(1, 9))
def test_stacked_solve_equals_the_per_psi_loop(sft, seed, chain_memory, memory, k):
    rng = np.random.default_rng(seed)
    mm = _chain(sft, rng, chain_memory)
    psi = _centred_stack(mm, rng, memory, k)
    sol = mk.solve_cohomological(mm.potential, psi, mm)
    assert sol.h.values.shape[1] == k and sol.residual.shape == (k,)
    for j in range(k):
        col = mk.LocallyConstantFn(sft, memory, psi.values[:, j])
        h, residual = old_solve(mm.potential, col, mm)
        assert np.abs(sol.h.values[:, j] - h.values).max() <= 1e-12 * np.abs(h.values).max()
        assert sol.residual[j] <= 1e-8 * max(1.0, np.abs(h.values).max())
        # one psi is a stack of one: the same floats as the loop
        one = mk.solve_cohomological(mm.potential, col, mm)
        assert np.array_equal(one.h.values, h.values) and one.residual == residual


def test_stacked_solve_names_the_column_with_a_mean():
    sft = full_shift(2)
    rng = np.random.default_rng(3)
    mm = _chain(sft, rng, 1)
    psi = _centred_stack(mm, rng, 3, 5)
    psi.values[:, 2] += 0.5
    with pytest.raises(MeanNotZero, match=r"column 2\)"):
        mk.solve_cohomological(mm.potential, psi, mm)
    with pytest.raises(MeanNotZero):
        old_solve(mm.potential, mk.LocallyConstantFn(sft, 3, psi.values[:, 2]), mm)


def _op_peak(count):
    cfg = {"sft": {"builtin": "full_shift", "d": 2},
           "random": {"memory": 9, "count": count, "seed": 5}}
    tracemalloc.start()
    try:
        code, summary = cli.execute("solve-cohomological", cfg, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and summary["count"] == count
    return peak


def test_solve_op_peak_does_not_grow_with_count():
    """512 psi on LC_9 are 4 stacks of _SOLVE_CELLS cells; 8 times as many psi
    take no more memory at the peak."""
    _op_peak(8)  # caches of the sft and the chain, outside the comparison
    assert _op_peak(4096) <= 1.1 * _op_peak(512)


def test_solve_op_draws_the_psi_of_one_draw_each():
    """300 psi on LC_9 come as stacks of 128, 128 and 44 columns, whose columns
    are, bit for bit, the per-psi draws they replaced, in order."""
    cfg = {"sft": {"builtin": "full_shift", "d": 2},
           "random": {"memory": 9, "count": 300, "seed": 11}}
    seen, centred = [], cli._centred

    def record(psi, mm):
        seen.append(psi.values.copy())
        return centred(psi, mm)

    with mock.patch.object(cli, "_centred", side_effect=record):
        code, summary = cli.execute("solve-cohomological", cfg, None)
    assert code == 0 and summary["count"] == 300
    assert [s.shape[1] for s in seen] == [128, 128, 44]
    rng = cli.experiments.trial_rng(11, 0)
    want = np.stack([rng.standard_normal(512) for _ in range(300)], axis=1)
    assert np.array_equal(np.concatenate(seen, axis=1), want)


# -- word tables and Bernoulli masses ---------------------------------------------------


@PROPERTY
@given(primitive_sfts(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_word_tables_equal_the_per_word_parse(sft, k, seed):
    rng = np.random.default_rng(seed)
    idx = sft.cylinders(k)
    keep = rng.permutation(len(idx))[:rng.integers(0, len(idx) + 1)]
    values = {render_word(idx.word(i)): float(rng.standard_normal()) for i in keep}
    want = np.zeros(len(idx))
    for text, v in values.items():
        want[idx.index(parse_word(text, sft.d))] = v
    assert np.array_equal(idx.parse_table(values), want)


@pytest.mark.parametrize("word, why", [("13", "symbol"), ("1", "length"), ("121", "length"),
                                       ("22", "inadmissible"), ("1,2", "comma")])
def test_bad_words_in_a_table_exit_2(word, why):
    cfg = {"sft": {"builtin": "golden_mean"},
           "psi": {"memory": 2, "values": {"11": 0.5, word: 1.0}}}
    code, summary = cli.execute("variance", cfg, None)
    assert code == (0 if why == "comma" else 2), summary.get("error")


def test_wide_alphabets_parse_comma_words():
    sft = full_shift(11)
    idx = sft.cylinders(2)
    texts = [render_word(w) for w in idx.words]
    assert np.array_equal(idx.index_of_words(texts), np.arange(len(idx)))


@pytest.mark.parametrize("d, depth", [(2, 12), (3, 7), (4, 6)])
def test_bernoulli_masses_equal_the_word_loop(d, depth):
    sft = full_shift(d)
    p = np.random.default_rng(d).dirichlet(np.ones(d))
    mu = bernoulli_measure(sft, p, range(1, depth + 1))
    for k in range(1, depth + 1):
        assert np.array_equal(mu.masses_at(k), old_bernoulli_masses(sft, p, k))
