"""The cohomological equation by memory reduction, and the vectorized R,
as_memory, shift and cylinder masses, against the dense solve and the
word-by-word loops they replaced."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from thermoqm import freegroup as fg
from thermoqm import markov as mk
from thermoqm.errors import InvalidMatrix, NotPrimitive, NumericalFailure
from thermoqm.sft import Sft, full_shift, golden_mean

from oracles import encode_word

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


def _table(draw, sft, m):
    n = len(sft.cylinders(m))
    return np.array(draw(st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=n, max_size=n)))


@st.composite
def chain_and_psi(draw):
    """(normalized potential, its chain, a zero-mean psi of memory <= 6)."""
    sft = draw(primitive_sfts())
    if draw(st.booleans()):
        mm = mk.parry_measure(sft)
    else:
        s = draw(st.integers(0, 3))
        try:
            norm, _, _ = mk.normalize_potential(mk.MarkovPotential(sft, s, _table(draw, sft, s + 1)))
            mm = mk.markov_measure(norm)
        except NumericalFailure:
            assume(False)
    m = draw(st.integers(1, 6))
    psi = mk.LocallyConstantFn(sft, m, _table(draw, sft, m))
    psi = psi - mk.LocallyConstantFn.constant(sft, mm.integral(psi))
    return mm.potential, mm, psi


def _dense_solve(pot, psi, mm):
    """h from the bordered dense system on LC_N, as the solve computed it before."""
    N = max(psi.m, pot.s, 1)
    _, M = mk.transfer_matrix(pot, N)
    S = len(M)
    Q = np.eye(S) - M + np.outer(np.ones(S), mm.cylinder_masses(N))
    return np.linalg.solve(Q, psi.as_memory(N).values)


def _transfer_loop(pot, f):
    """(R f)(w) = sum over predecessors a of w[0] of e^{phi(a.w)} f(a.w), word by word."""
    sft = pot.sft
    r = max(pot.s, f.m - 1, 1)
    out = np.zeros(len(sft.cylinders(r)))
    for wi, w in enumerate(sft.cylinders(r).words):
        tot = 0.0
        for a in sft.predecessors[w[0]]:
            ext = (a,) + w
            tot += np.exp(pot.value(ext[: pot.s + 1])) * f.value(ext[: f.m])
        out[wi] = tot
    return out


def _masses_loop(mm, k):
    """Depth-k cylinder masses of a chain, word by word."""
    sft, t = mm.sft, mm.t
    idx = sft.cylinders(k)
    out = np.zeros(len(idx))
    if k <= t:
        for vi, v in enumerate(mm.states.words):
            out[idx.index(v[:k])] += mm.stationary[vi]
        return out
    prev = _masses_loop(mm, k - 1)
    for w in idx.words:
        src, dst = mm.states.index(w[-t - 1: -1]), mm.states.index(w[-t:])
        out[idx.index(w)] = prev[sft.cylinders(k - 1).index(w[:-1])] * mm.kernel[src, dst]
    return out


@PROPERTY
@given(chain_and_psi())
def test_memory_reduction_matches_dense_solve(case):
    pot, mm, psi = case
    sol = mk.solve_cohomological(pot, psi, mm)
    want = _dense_solve(pot, psi, mm)
    assert sol.h.m == max(psi.m, pot.s, 1)
    assert np.abs(sol.h.values - want).max() <= 1e-11 * np.abs(want).max()
    assert sol.residual <= 1e-12 * max(1.0, psi.sup_norm())


@PROPERTY
@given(chain_and_psi())
def test_transfer_apply_equals_predecessor_loop(case):
    pot, _, psi = case
    for f in (psi, mk.LocallyConstantFn.constant(pot.sft, 0.7)):
        got = mk.transfer_apply(pot, f)
        want = _transfer_loop(pot, f)
        assert got.m == max(pot.s, f.m - 1, 1)
        assert np.abs(got.values - want).max() <= 1e-15 * np.abs(want).max()


@PROPERTY
@given(chain_and_psi())
def test_as_memory_shift_and_masses_equal_loops(case):
    _, mm, psi = case
    sft = psi.sft
    for m2 in range(psi.m, 7):
        want = [psi.value(w) for w in sft.cylinders(m2).words]
        assert np.array_equal(psi.as_memory(m2).values, want)
    want = [psi.value(w[1:]) for w in sft.cylinders(psi.m + 1).words]
    assert np.array_equal(psi.shift().values, want)
    const = mk.LocallyConstantFn.constant(sft, -1.25)
    assert np.array_equal(const.shift().values, np.full(len(sft.cylinders(1)), -1.25))
    for k in range(1, 7):
        assert np.array_equal(mm.cylinder_masses(k), _masses_loop(mm, k))


def test_word_codes_equal_horner_loop():
    for sft in (full_shift(2), full_shift(3), golden_mean(), fg.FreeGroup(2).sft()):
        for k in range(1, 8):
            idx = sft.cylinders(k)
            assert idx.codes.dtype == np.int64
            assert idx.codes.tolist() == [encode_word(w, sft.d) for w in idx.words]


def test_lam2_is_computed_once(monkeypatch):
    mm = mk.parry_measure(golden_mean())
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
    first = mm.lam2()
    assert mm.lam2() == first == pytest.approx((2 / (1 + np.sqrt(5))) ** 2)
    assert len(calls) == 1


def test_green_kubo_runs_past_the_pattern_length():
    # lags shorter than abaBabb correlate exactly zero under Parry, which
    # used to stop the series after 5 terms with agreement 7e-7
    G = fg.FreeGroup(2)
    sft = G.sft()
    par = mk.parry_measure(sft)
    ps = mk.MarkovPotential.from_qm(fg.brooks(G, "abaBabb"), sft)
    psi = ps - mk.LocallyConstantFn.constant(sft, par.integral(ps))
    var = mk.variance(par.potential, psi, par)
    assert var.n_terms >= 7
    assert var.agreement <= 1e-12


def test_residual_gate_is_relative_to_h_on_a_sticky_chain():
    # the chain leaves a letter with probability about 2e-9, so |h| is about
    # 2.4e8 and a correct solve keeps a residual of 3e-8 (1e-16 relative to
    # |h|), which the gate 1e-8 max(1, |psi|) refused with SingularSystem
    sft = full_shift(2)
    pot = mk.normalize_potential(mk.MarkovPotential(sft, 1, [20.0, 0.0, 0.0, 20.0]))[0]
    mm = mk.markov_measure(pot)
    psi = mk.LocallyConstantFn(sft, 1, [1.0, -1.0])
    psi = psi - mk.LocallyConstantFn.constant(sft, mm.integral(psi))
    sol = mk.solve_cohomological(pot, psi, mm)
    assert sol.h_sup > 1e8 and 1e-8 < sol.residual <= 1e-15 * sol.h_sup
    want = _dense_solve(pot, psi, mm)
    assert np.abs(sol.h.values - want).max() <= 1e-12 * np.abs(want).max()
