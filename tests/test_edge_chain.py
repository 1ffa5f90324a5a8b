"""A Markov chain is its block graph plus one probability per edge: the chain
and its readers (masses, entropy, sampler tables, the Bowen conditional step)
and the window-kernel sums, each against a frozen copy of the dense or looped
code it replaced."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from thermoqm import bowen, thermo
from thermoqm import experiments as ex
from thermoqm import markov as mk
from thermoqm.errors import InvalidMatrix, NotPrimitive
from thermoqm.freegroup import FreeGroup, brooks
from thermoqm.qm import (
    LetterWeights,
    LinearCombinationQm,
    PatternCount,
    WindowQm,
)
from thermoqm.sft import Sft, symbol_dtype

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- frozen references ------------------------------------------------------------


def old_edge_phi(pot, g):
    sft = pot.sft
    prefix = g.ext // sft.d ** (g.t - pot.s)
    return pot.values[sft.cylinders(pot.s + 1).index_of_codes(prefix)]


def old_markov_measure(pot):
    """(dense kernel, stationary vector) as markov_measure built them."""
    g = pot.sft.block_graph(max(pot.s, 1))
    S = len(g)
    A = np.zeros((S, S))
    A[g.src, g.dst] = np.exp(old_edge_phi(pot, g))
    m = np.linalg.solve(A - np.eye(S) + np.ones((S, S)) / S, np.full(S, 1.0 / S))
    m /= m.sum()
    return A * m[None, :] / m[:, None], m


def old_cylinder_masses(sft, t, kernel, stationary, k):
    d, states = sft.d, sft.cylinders(t)
    if k == t:
        return stationary.copy()
    if k < t:
        prefix = sft.cylinders(k).index_of_codes(states.codes // d ** (t - k))
        return np.bincount(prefix, weights=stationary, minlength=len(sft.cylinders(k)))
    g = sft.block_graph(k - 1)
    src = states.index_of_codes(g.ext // d % d ** t)
    dst = states.index_of_codes(g.ext % d ** t)
    return old_cylinder_masses(sft, t, kernel, stationary, k - 1)[g.src] * kernel[src, dst]


def old_entropy_exact(P, pi):
    with np.errstate(divide="ignore", invalid="ignore"):
        logP = np.where(P > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
    return float(-(pi[:, None] * P * logP).sum())


def old_sampler_payload(sft, t, kernel, stationary):
    g = sft.block_graph(t)
    deg = np.bincount(g.src, minlength=len(g))
    last = (deg - 1)[:, None]
    edge = (np.cumsum(deg) - deg)[:, None] + np.minimum(np.arange(deg.max()), last)
    succ_cum = np.cumsum(kernel[g.src[edge], g.dst[edge]], axis=1)
    succ_cum[np.arange(deg.max()) >= last] = 1.0
    succ_cum = ex._snap(succ_cum)  # rounding twins share one cut point
    init_cum = np.cumsum(stationary)
    init_cum[-1] = 1.0
    cuts, rank = ex._cut_ranks(succ_cum)
    return {"d": sft.d, "t": t, "init_cum": init_cum,
            "state_words": g.states.array, "succ_cum": succ_cum, "cuts": cuts, "rank": rank,
            "succ_state": g.dst[edge], "succ_sym": g.sym[edge].astype(symbol_dtype(sft.d))}


def old_conditional_step_matrix(mu, depth):
    weights = mu.masses_at(depth)
    g = mu.sft.block_graph(depth)
    K = np.zeros((len(g), len(g)))
    K[g.src, g.dst] = mu.masses_at(depth + 1) / weights[g.src]
    return g.states, K, weights


def old_from_qm_table(kernels, sft):
    s = max(kernels) - 1
    codes = sft.cylinders(s + 1).codes
    vals = 0.0
    for q, table in kernels.items():
        vals = vals + table[codes // sft.d ** (s + 1 - q)]
    return s, vals


def old_window_transfer(kernels, sft):
    """(weights, sources, init) as _WindowTransfer.__init__ built them."""
    d, Q = sft.d, max(kernels)
    t = max(Q - 1, 1)
    g = sft.block_graph(t)
    w = 0.0
    for q, table in kernels.items():
        w = w + table[g.ext % d**q]
    weights, sources = g.incoming(np.exp(w))
    if Q == 1:
        return weights, sources, np.ones(len(g))
    w = np.zeros(len(g))
    for q, table in kernels.items():
        for i in range(t - q + 1):
            w = w + table[g.codes // d ** (t - q - i) % d**q]
    return weights, sources, np.exp(w)


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


def random_kernels(widths, d, rng):
    """A window-additive L with random kernels of the given widths, in that order."""
    return WindowQm({q: dict(zip(np.ndindex(*(d,) * q), rng.standard_normal(d**q)))
                     for q in widths}, 0.0)


def _widths(seed):
    rng = np.random.default_rng(seed)
    return [int(q) for q in rng.permutation(np.arange(1, 5))[:rng.integers(1, 5)]]


def _chain(sft, rng, memory):
    pot = mk.MarkovPotential(sft, memory, rng.standard_normal(len(sft.cylinders(memory + 1))))
    norm = mk.normalize_potential(pot)[0]
    return pot, norm, mk.markov_measure(norm)


# -- the chain on edges ------------------------------------------------------------


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_chain_on_edges_equals_dense_chain(sft, seed, memory):
    rng = np.random.default_rng(seed)
    pot, norm, mm = _chain(sft, rng, memory)
    kernel, m = old_markov_measure(norm)
    assert np.array_equal(mm.kernel, kernel)
    assert np.array_equal(mm.stationary, m)
    assert mm.edge_prob.shape == mm.graph.src.shape
    for k in range(1, mm.t + 4):
        assert np.array_equal(mm.cylinder_masses(k), old_cylinder_masses(sft, mm.t, kernel, m, k))
    old_h = old_entropy_exact(kernel, m)
    assert abs(mm.entropy_exact() - old_h) <= 1e-15 * abs(old_h)
    for depth in range(1, mm.t + 2):
        states, K, weights = bowen._conditional_step_matrix(mm, depth)
        old_states, old_K, old_weights = old_conditional_step_matrix(mm, depth)
        assert states is old_states and np.array_equal(K, old_K)
        assert np.array_equal(weights, old_weights)
    for t in range(max(memory, 1), max(memory, 1) + 3):
        g = sft.block_graph(t)
        for p in (pot, norm):
            assert np.array_equal(p.as_memory(t + 1).values, old_edge_phi(p, g))


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_sampler_payload_equals_dense_gather(sft, seed, memory):
    _, norm, mm = _chain(sft, np.random.default_rng(seed), memory)
    kernel, m = old_markov_measure(norm)
    payload = ex.markov_sampler_payload(mm)
    old = old_sampler_payload(sft, mm.t, kernel, m)
    assert sorted(payload) == sorted(old)
    for key, value in old.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(payload[key], value) and payload[key].dtype == value.dtype, key
        else:
            assert payload[key] == value, key


# -- one window-sum builder --------------------------------------------------------


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1))
def test_window_sums_equal_the_three_loops(sft, seed):
    rng = np.random.default_rng(seed)
    L = random_kernels(_widths(seed), sft.d, rng)
    kernels = L.window_tables(sft.d)
    s, table = old_from_qm_table(kernels, sft)
    pot = mk.MarkovPotential.from_qm(L, sft)
    assert pot.s == s and pot.m == s + 1 and np.array_equal(pot.values, table)
    wt = thermo._WindowTransfer(L, sft)
    weights, sources, init = old_window_transfer(kernels, sft)
    assert np.array_equal(wt.weights, weights) and np.array_equal(wt.sources, sources)
    assert np.array_equal(wt.init, init)


def test_window_sums_of_library_kinds_equal_the_loops():
    G = FreeGroup(2)
    sft = G.sft()
    for L in (brooks(G, "abaB"), brooks(G, "a"),
              LinearCombinationQm([(0.5, LetterWeights([1.0, -2.0, 0.5, 0.0])),
                                   (-1.5, PatternCount((0, 0, 2)))])):
        kernels = L.window_tables(sft.d)
        assert np.array_equal(mk.MarkovPotential.from_qm(L, sft).values,
                              old_from_qm_table(kernels, sft)[1])
        weights, sources, init = old_window_transfer(kernels, sft)
        wt = thermo._WindowTransfer(L, sft)
        assert np.array_equal(wt.weights, weights) and np.array_equal(wt.init, init)


# -- storage -----------------------------------------------------------------------


def test_brooks_q7_chain_holds_no_dense_matrix():
    """The 972-state Gibbs chain of Brooks abaBabb on F_2 keeps S*d edge
    probabilities, no S x S array (a dense kernel was 7.6 MB here, 68 MB at q=8)."""
    sft = FreeGroup(2).sft()
    mm, _, _ = mk.gibbs_chain_from_qm(brooks(FreeGroup(2), "abaBabb"), sft)
    S = len(mm.states)
    assert S == 972
    mm.cylinder_masses(mm.t + 2)
    held = [v for k, v in vars(mm).items() if k != "sft"]  # the subshift's caches are shared
    held += [x for v in held if hasattr(v, "__dict__") for k, x in vars(v).items() if k != "sft"]
    held += [x for v in held if isinstance(v, dict) for x in v.values()]
    arrays = [v for v in held if isinstance(v, np.ndarray)]
    assert arrays and max(a.size for a in arrays) < S * S
    assert mm.edge_prob.size == len(mm.graph.src) <= S * sft.d
    assert mm.kernel.shape == (S, S)  # the dense view is built on request

