"""The vectorized block graph: partition sums, split constants and transfer
matrices against enumeration and the word-by-word loops they replaced."""

import itertools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from thermoqm import freegroup as fg
from thermoqm import markov as mk
from thermoqm import thermo
from thermoqm.errors import InvalidMatrix, NotPrimitive, NumericalFailure
from thermoqm.qm import WindowQm
from thermoqm.sft import Sft

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def primitive_sfts(draw):
    d = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    try:
        return Sft(rows)
    except (InvalidMatrix, NotPrimitive):
        assume(False)


@st.composite
def window_kernels(draw, d):
    widths = draw(st.sets(st.integers(1, 4), min_size=1))
    coef = st.floats(-1.5, 1.5, allow_nan=False)
    return {q: {w: draw(coef) for w in itertools.product(range(d), repeat=q)}
            for q in sorted(widths)}


@st.composite
def sft_and_kernels(draw):
    sft = draw(primitive_sfts())
    return sft, WindowQm(draw(window_kernels(sft.d)), 0.0)


@st.composite
def sft_and_potential(draw):
    sft = draw(primitive_sfts())
    s = draw(st.integers(0, 2))
    vals = draw(st.lists(st.floats(-2.0, 2.0, allow_nan=False),
                         min_size=len(sft.cylinders(s + 1)),
                         max_size=len(sft.cylinders(s + 1))))
    return mk.MarkovPotential(sft, s, vals)


# -- partition sums ------------------------------------------------------------------


@PROPERTY
@given(sft_and_kernels())
def test_transfer_partitions_match_enumeration(case):
    sft, L = case
    n_max = 10 if sft.d == 2 else 8  # 3^8 words keep one example under a second
    p = thermo.log_partition_sequence(L, sft, n_max)
    for n in range(1, n_max + 1):
        want = thermo._enumerated_log_partition(L, sft, n)
        assert p[n - 1] == pytest.approx(want, rel=1e-12, abs=0.0)


def _split_constant_loop(p, n0, n_max):
    """The double loop _split_constant replaced, kept as its reference."""
    best = 0.0
    seen = False
    for n in range(n0, n_max - n0 + 1):
        for m in range(n, n_max - n + 1):
            if m < n0:
                continue
            vals = (p[n + m - 1], p[n - 1], p[m - 1])
            if not all(np.isfinite(vals)):
                continue
            best = max(best, abs(vals[0] - vals[1] - vals[2]))
            seen = True
    return best if seen else np.nan


@PROPERTY
@given(st.lists(st.one_of(st.floats(-50.0, 50.0), st.just(-np.inf)), min_size=1, max_size=60),
       st.integers(1, 8))
def test_split_constant_equals_double_loop(p, n0):
    p = np.array(p)
    got = thermo._split_constant(p, n0, len(p))
    want = _split_constant_loop(p, n0, len(p))
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert got == want


def _split_constant_rows(p, n0, n_max):
    """The one-row-at-a-time loop the row-block reduction replaced."""
    p = np.asarray(p, dtype=float)
    finite = np.isfinite(p)
    best = -np.inf
    for n in range(n0, n_max // 2 + 1):
        if not finite[n - 1]:
            continue
        m = np.arange(n, n_max - n + 1)
        m = m[finite[n + m - 1] & finite[m - 1]]
        if len(m):
            best = max(best, np.abs(p[n + m - 1] - p[n - 1] - p[m - 1]).max())
    return max(0.0, float(best)) if best > -np.inf else np.nan


def _pressure_interval_loop(p, M, n_max):
    """pressure's constants and bounds as the per-n loop computed them."""
    c_all = _split_constant_rows(p, 1, n_max)
    n0 = 3 * M if 6 * M <= n_max else 1
    c_used = _split_constant_rows(p, n0, n_max)
    if not np.isfinite(c_used):
        n0, c_used = 1, c_all
    lo, hi = -np.inf, np.inf
    for n in range(n0, n_max + 1):
        if not np.isfinite(p[n - 1]):
            continue
        lo = max(lo, (p[n - 1] - c_used) / n)
        hi = min(hi, (p[n - 1] + c_used) / n)
    return c_all, c_used, n0, float(lo), float(hi)


@PROPERTY
@given(st.lists(st.one_of(st.floats(-1e3, 1e3), st.just(-np.inf)), min_size=4, max_size=91),
       st.integers(1, 4), st.integers(1, 300))
def test_pressure_interval_equals_the_per_n_loops(p, M, cells):
    """Row blocks of any size (one row, several, all) against the loops, bit for
    bit, with -inf entries, n0 = 3M > 1 where n_max allows it and odd n_max.
    The rounding slack is set to 0 here (the loops predate it)."""
    p = np.array(p)
    n_max = len(p)
    with mock.patch.object(thermo, "_SPLIT_CELLS", cells), \
            mock.patch.object(thermo, "_log_partitions", return_value=(p, 0)), \
            mock.patch.object(thermo, "_rounding", return_value=np.zeros(n_max)):
        est = thermo.pressure(None, SimpleNamespace(M=M), n_max)
        for n0 in (1, 2, 3 * M, n_max // 2 + 1):
            got, want = thermo._split_constant(p, n0, n_max), _split_constant_rows(p, n0, n_max)
            assert got == want or np.isnan(got) and np.isnan(want)
    got = (est.c_all, est.c_used, est.n0, est.lower, est.upper)
    want = _pressure_interval_loop(p, M, n_max)
    assert np.array_equal(got, want, equal_nan=True)


def test_split_constant_all_nonfinite_is_nan():
    p = np.full(12, -np.inf)
    assert np.isnan(thermo._split_constant(p, 1, 12))
    assert np.isnan(_split_constant_loop(p, 1, 12))


# -- transfer matrices ---------------------------------------------------------------


def _transfer_loop(pot, N):
    """M[w, v] += e^{phi(v.s)} over the edges v -> w, word by word."""
    sft = pot.sft
    idx = sft.cylinders(N)
    M = np.zeros((len(idx), len(idx)))
    for vi, v in enumerate(idx.words):
        for s in sft.successors[v[-1]]:
            ext = v + (s,)
            M[idx.index(ext[1:]), vi] += np.exp(pot.value(ext[: pot.s + 1]))
    return M


def _markov_measure_loop(pot):
    """Kernel and stationary vector as markov_measure computed them by loops."""
    sft = pot.sft
    idx = sft.cylinders(max(pot.s, 1))
    S = len(idx)
    A = np.zeros((S, S))
    for vi, v in enumerate(idx.words):
        for s in sft.successors[v[-1]]:
            ext = v + (s,)
            A[vi, idx.index(ext[1:])] = np.exp(pot.value(ext))
    m = np.linalg.solve(A - np.eye(S) + np.ones((S, S)) / S, np.full(S, 1.0 / S))
    m /= m.sum()
    return A * m[None, :] / m[:, None], m


@PROPERTY
@given(sft_and_potential())
def test_transfer_matrices_equal_loops(pot):
    idx, M = mk._block_transfer_matrix(pot)
    assert np.array_equal(M, _transfer_loop(pot, max(pot.s, 1)))
    for N in range(max(pot.s, 1), 4):
        idx, M = mk.transfer_matrix(pot, N)
        assert np.array_equal(M, _transfer_loop(pot, N))


@PROPERTY
@given(sft_and_potential())
def test_markov_measure_equals_loop(pot):
    try:
        norm, _, _ = mk.normalize_potential(pot)
    except NumericalFailure:
        assume(False)
    mm = mk.markov_measure(norm)
    kernel, stationary = _markov_measure_loop(norm)
    assert np.array_equal(mm.kernel, kernel)
    assert np.array_equal(mm.stationary, stationary)


def test_block_graph_edges_are_the_next_depth_words():
    sft = fg.FreeGroup(2).sft()
    g = sft.block_graph(3)
    assert sft.block_graph(3) is g
    assert np.array_equal(g.ext, sft.cylinders(4).codes)
    words = sft.cylinders(4).words
    assert [g.states.words[i] for i in g.src] == [w[:-1] for w in words]
    assert [g.states.words[i] for i in g.dst] == [w[1:] for w in words]
    has = g.pred >= 0
    assert np.array_equal(has.sum(axis=1), [len(sft.predecessors[w[0]]) for w in g.states.words])
    assert np.array_equal(g.dst[g.pred[has]], np.nonzero(has)[0])


# -- exact pressure for widths above 2 -----------------------------------------------------


def _log_perron_root(L, sft):
    """log of the spectral radius of the width-Q window transfer matrix, dense."""
    Q = max(L.window_tables(sft.d))
    idx = sft.cylinders(Q - 1)
    T = np.zeros((len(idx), len(idx)))
    for w in sft.words(Q):
        T[idx.index(w[1:]), idx.index(w[:-1])] = np.exp(L.value(w) - L.value(w[:-1]))
    return float(np.log(max(abs(np.linalg.eigvals(T)))))


@pytest.mark.parametrize("rank,pattern", [
    (2, "abaB"),
    (2, "abaBabb"),
    (3, "abc"),
    pytest.param(3, "abcAb", marks=pytest.mark.xfail(strict=True, reason=(
        "the n_max=20 interval misses: its upper end 1.609727340048 lies about 4.5e-8 below "
        "log rho = 1.609727384877, because the empirical c_used has not saturated "
        "until n_max ~ 24"))),
])
def test_pressure_interval_contains_log_perron_root(rank, pattern):
    G = fg.FreeGroup(rank)
    sft = G.sft()
    L = fg.brooks(G, pattern)
    exact = _log_perron_root(L, sft)
    pe = thermo.pressure(L, sft, 20)
    assert pe.contains(exact), (pe.lower, pe.upper, exact)
