"""The sampler engine against the per-step loop it replaced: every per-trial
array bit-identical, for wide blocks and single paths, on random primitive
SFTs, chain memories 1-3, one or two kernel widths and small chunk sizes,
with uniforms kept as floats or as one-byte bucket codes."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from thermoqm import experiments as ex
from thermoqm import freegroup as fg
from thermoqm import markov as mk
from thermoqm import qm
from thermoqm.errors import InvalidMatrix, NotPrimitive, NumericalFailure, ResourceLimit
from thermoqm.sft import SCOPED_WORD_CAP, Sft, full_shift, symbol_dtype

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _loop_block(payload):
    """The block engine as it was: one fresh trial_rng per trial, (B, n)
    uniforms, and a 2-D fancy-indexed step with a per-step kernel update."""
    t0, t1 = payload["trial_range"]
    B = t1 - t0
    n = payload["n"]
    d = payload["d"]
    t = payload["t"]
    widths = list(payload["kernel_widths"])
    tables = [np.asarray(k) for k in payload["kernel_tables"]]
    mods = [d ** q for q in widths]
    e = payload["e"]
    checkpoints = {c: j for j, c in enumerate(payload["checkpoints"])}
    want_max = payload["want_max"]
    want_symbols = payload.get("want_symbols", False)

    acc = np.zeros(B)
    runmax = np.zeros(B)
    codes = [np.zeros(B, dtype=np.int64) for _ in widths]
    checks = np.zeros((B, len(checkpoints)))
    sym_dtype = symbol_dtype(d)
    symbols = np.zeros((B, n), dtype=sym_dtype) if want_symbols else None

    def consume(sym, pos):
        if want_symbols:
            symbols[:, pos] = sym
        for i, q in enumerate(widths):
            codes[i] = (codes[i] * d + sym) % mods[i]
            if pos + 1 >= q:
                acc[:] += tables[i][codes[i]]
        if want_max or checkpoints:
            s_now = acc - (pos + 1) * e
            if want_max:
                np.maximum(runmax, s_now, out=runmax)
            j = checkpoints.get(pos + 1)
            if j is not None:
                checks[:, j] = s_now

    U = np.empty((B, n))
    for i, trial in enumerate(range(t0, t1)):
        U[i] = ex.trial_rng(payload["seed"], trial).random(n)
    states = np.searchsorted(payload["init_cum"], U[:, 0], side="right")
    init_words = payload["state_words"][states]
    for pos in range(min(t, n)):
        consume(init_words[:, pos].copy(), pos)
    succ_cum = payload["succ_cum"]
    succ_state = payload["succ_state"]
    succ_sym = payload["succ_sym"]
    for pos in range(t, n):
        u = U[:, pos - t + 1]
        rows = succ_cum[states]
        j = (u[:, None] >= rows).sum(axis=1)
        sym = succ_sym[states, j]
        states = succ_state[states, j]
        consume(sym, pos)

    out = {"final": acc - n * e, "checks": checks, "runmax": runmax}
    if want_symbols:
        out["symbols"] = symbols
    return out


def _loop_sphere_sample(group, n, count, seed):
    """sphere_sample by the per-step loop on the uniform sphere payload."""
    payload = ex.uniform_sphere_payload(group.sft())
    payload.update(n=n, seed=seed, trial_range=(0, count), kernel_widths=(), kernel_tables=(),
                   e=0.0, checkpoints=(), want_max=False, want_symbols=True)
    return _loop_block(payload)["symbols"]


def _assert_identical(new, old):
    assert new.keys() == old.keys()
    for key in old:
        assert new[key].dtype == old[key].dtype and new[key].shape == old[key].shape, key
        assert new[key].tobytes() == old[key].tobytes(), key


@st.composite
def chains(draw):
    """A stationary chain of memory 1-3 on a random primitive SFT, d in {2, 3}."""
    d = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    try:
        sft = Sft(rows)
    except (InvalidMatrix, NotPrimitive):
        assume(False)
    s = draw(st.integers(1, 3))
    size = len(sft.cylinders(s + 1))
    table = draw(st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=size, max_size=size))
    try:
        norm, _, _ = mk.normalize_potential(mk.MarkovPotential(sft, s, np.array(table)))
    except NumericalFailure:
        assume(False)
    return mk.markov_measure(norm)


@st.composite
def few_cut_chains(draw):
    """A Parry or Bernoulli-type (memory-0 potential) chain on a random
    primitive SFT, d in {2, 3, 4}: at most d (d - 1) <= 12 cut points."""
    d = draw(st.sampled_from([2, 3, 4]))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    try:
        sft = Sft(rows)
    except (InvalidMatrix, NotPrimitive):
        assume(False)
    if draw(st.booleans()):
        return mk.parry_measure(sft)
    p = draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d))
    try:
        norm, _, _ = mk.normalize_potential(mk.MarkovPotential(sft, 0, np.log(p)))
    except NumericalFailure:
        assume(False)
    return mk.markov_measure(norm)


@st.composite
def markov_payloads(draw, chain=chains()):
    mm = draw(chain)
    d = mm.sft.d
    payload = ex.markov_sampler_payload(mm)
    widths = draw(st.sampled_from([(), (1,), (2,), (3,), (1, 3), (2, 3), (3, 1)]))
    tables = tuple(np.array(draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False),
                                          min_size=d ** q, max_size=d ** q))) for q in widths)
    n = draw(st.integers(1, 90))
    first = draw(st.integers(0, 40))
    B = draw(st.sampled_from([1, 2, 7, ex._ROW_ADD_TRIALS + 3]))
    qmax = max(widths, default=1)
    # checkpoints before the widest window fills, inside the path, and at n
    cps = tuple(sorted({c for c in (1, qmax - 1, n // 2 + 1, n) if 1 <= c <= n}))
    payload.update(n=n, seed=draw(st.integers(-3, 2**40)), trial_range=(first, first + B),
                   kernel_widths=widths, kernel_tables=tables,
                   e=draw(st.floats(-1.0, 1.0, allow_nan=False)),
                   checkpoints=draw(st.sampled_from([(), cps])), want_max=draw(st.booleans()),
                   want_symbols=draw(st.booleans()))
    return payload


# chunk sizes (float64 cells per drawn chunk, cells per evaluated chunk, float
# scratch cells, cells per walk table): the defaults, and ones small enough that
# n is split into chunks of uneven length, a stream's chunk is drawn in several
# pieces and a coded walk takes one step (budget 1) or a few steps a lookup
WALK_CELLS = ex._WALK_CELLS
CHUNKS = st.sampled_from([(ex._DRAW_CELLS, ex._EVAL_CELLS, ex._PIECE_CELLS, WALK_CELLS),
                          (28, 12, 8, 1), (56, 5, 20, 100)])


def _chunked(chunks):
    return mock.patch.multiple(ex, _DRAW_CELLS=chunks[0], _EVAL_CELLS=chunks[1],
                               _PIECE_CELLS=chunks[2], _WALK_CELLS=chunks[3])


def _walk_cases(seen):
    """Record the coded-walk cases a block reaches, one per packed chunk: k = 1,
    the largest k (k > 1 at the default table budget), and rows that are no
    multiple of k (a chunk ending in a partial group)."""
    pack = ex._pack

    def recording(C, r, k):
        seen.add("k = 1" if k == 1 else "largest k" if ex._WALK_CELLS == WALK_CELLS else "k > 1")
        if len(C) % k:
            seen.add("partial group")
        return pack(C, r, k)

    return mock.patch.object(ex, "_pack", recording)


WALK_CASES = {"k = 1", "largest k", "partial group"}


@PROPERTY
@given(markov_payloads(), CHUNKS)
def test_markov_block_matches_per_step_loop(payload, chunks):
    with _chunked(chunks):
        new = ex._simulate_block(payload)
    _assert_identical(new, _loop_block(payload))


def test_coded_block_matches_per_step_loop():
    """Byte codes at every block width (no trials needed per cut point), walked
    one step a lookup, k steps at the default budget, and in partial groups."""
    seen = set()

    @PROPERTY
    @given(markov_payloads(few_cut_chains()), CHUNKS)
    def check(payload, chunks):
        with _chunked(chunks), _walk_cases(seen), mock.patch.object(ex, "_CUT_TRIALS", 0), \
                mock.patch.object(ex, "_codes", wraps=ex._codes) as codes:
            new = ex._simulate_block(payload)
        assert codes.called
        _assert_identical(new, _loop_block(payload))

    check()
    assert seen >= WALK_CASES, seen


def test_codes_compare_with_ranks_as_uniforms_with_the_cumulative_kernel():
    """u >= succ_cum iff code(u) >= rank, at every cut point, one ulp on either
    side of it and at 0, against padded 1.0 entries and sums rounded past 1."""
    up = np.nextafter(1.0, 2.0)
    succ_cum = np.array([[0.25, 0.5, 1.0, 1.0], [0.1, 0.5, 0.75, 1.0],
                         [0.3, up, 1.0, 1.0], [0.75, 1.0, up, 1.0]])
    cuts, rank = ex._cut_ranks(succ_cum)
    assert cuts.tolist() == [0.1, 0.25, 0.3, 0.5, 0.75]
    assert rank[2].tolist() == [3, 6, 6, 6] and rank[1].tolist() == [1, 4, 5, 6]
    u = np.array([0.0, np.nextafter(1.0, 0.0)]
                 + [v for c in cuts for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))])
    codes = ex._codes(u, cuts)
    assert codes.dtype == np.uint8 and codes[0] == 0 and codes[1] == len(cuts)
    assert np.array_equal(codes[:, None, None] >= rank, u[:, None, None] >= succ_cum)


def _full_shift_chain(memory):
    """A random memory-`memory` chain on the full 2-shift: 2**memory states,
    one distinct cut point each."""
    sft = full_shift(2)
    table = np.random.default_rng(memory).normal(size=len(sft.cylinders(memory + 1)))
    return mk.markov_measure(mk.normalize_potential(mk.MarkovPotential(sft, memory, table))[0])


def _switch_payload(memory, n, first, B):
    payload = ex.markov_sampler_payload(_full_shift_chain(memory))
    assert len(payload["cuts"]) == 2**memory
    payload.update(n=n, seed=n + 17 * first, trial_range=(first, first + B),
                   kernel_widths=(2,), kernel_tables=(np.linspace(-1.0, 1.0, 4),), e=0.125,
                   checkpoints=tuple(sorted({1, n})), want_max=True, want_symbols=True)
    return payload


@pytest.mark.parametrize("B,coded", [(4 * ex._CUT_TRIALS - 1, False), (4 * ex._CUT_TRIALS, True)])
@settings(PROPERTY, max_examples=20)
@given(n=st.integers(1, 90), first=st.integers(0, 40), chunks=CHUNKS)
def test_chains_on_either_side_of_the_code_switch(B, coded, n, first, chunks):
    """A 4-cut chain keeps floats below 4 * _CUT_TRIALS trials a block and
    byte codes from there; both match the loop."""
    payload = _switch_payload(2, n, first, B)
    with _chunked(chunks), mock.patch.object(ex, "_codes", wraps=ex._codes) as codes:
        new = ex._simulate_block(payload)
    assert codes.called == coded
    _assert_identical(new, _loop_block(payload))


@pytest.mark.parametrize("n,B", [(1, 3), (2, 3), (57, 5), (40, 1)])
def test_chains_past_the_table_budget_walk_one_step_a_lookup(n, B):
    """128 cut points on 128 states: S r^2 = 128 * 129^2 cells exceed the table
    budget, so the coded walk takes k = 1 step a lookup."""
    payload = _switch_payload(7, n, 3, B)
    assert 128 * 129**2 > ex._WALK_CELLS and ex._walk_depth(128, 129) == 1
    seen = set()
    with mock.patch.object(ex, "_CUT_TRIALS", 0), _walk_cases(seen):
        new = ex._simulate_block(payload)
    assert seen == {"k = 1"}
    _assert_identical(new, _loop_block(payload))


def test_chains_past_one_byte_ranks_keep_floats():
    """256 cut points need rank 257, past a byte: floats at any block width."""
    payload = _switch_payload(8, 40, 3, 2)
    with mock.patch.object(ex, "_CUT_TRIALS", 0), \
            mock.patch.object(ex, "_codes", wraps=ex._codes) as codes:
        new = ex._simulate_block(payload)
    assert not codes.called
    _assert_identical(new, _loop_block(payload))


def _count01_payload(n, B, **kw):
    payload, _ = ex.path_functional_payload(qm.PatternCount((0, 1)),
                                            mk.parry_measure(full_shift(2)))
    payload.update(n=n, seed=3, trial_range=(0, B), **kw)
    return payload


def test_coded_block_rekeys_each_stream_once_per_1024_positions():
    """B = 2048, n = 4096 on the count01 Parry chain: 4 chunks of 1,024 codes
    a stream, so 8,192 re-keys (float64 chunks of 128 positions took 65,536)."""
    payload = _count01_payload(4096, 2048, checkpoints=(1024, 4096), want_max=True)
    rekey = mock.Mock(wraps=ex._rekeyer())
    with mock.patch.object(ex, "_rekeyer", return_value=rekey):
        ex._simulate_block(payload)
    assert rekey.call_count <= 8192


@pytest.mark.parametrize("n,B,bound_kb", [(150000, 1, 3183), (4096, 2048, 4199)])
def test_block_memory_stays_within_the_float_chunk_engine(n, B, bound_kb):
    """tracemalloc peaks of a long single path (the LIL orbit) and of a
    2048-trial invariance block on the count01 Parry chain stay at or below
    those of the float64-chunk engine (3,183 and 4,199 KB, numpy 2.4)."""
    payload = _count01_payload(n, B, checkpoints=(n // 4, n // 2, 3 * n // 4, n), want_max=True)
    assert _peak_bytes(payload) <= bound_kb * 1024


@pytest.mark.parametrize("n,B,before_bytes", [(150000, 1, 2949746), (4096, 2048, 4110360)])
def test_block_peaks_below_the_engine_that_kept_the_last_chunk(n, B, before_bytes):
    """The same two blocks peak below the bytes they took while the evaluation
    kept the previous chunk's window codes, increments and running sums alive
    through the next draw and walk (2,949,746 and 4,110,360, tracemalloc,
    numpy 2.4)."""
    payload = _count01_payload(n, B, checkpoints=(n // 4, n // 2, 3 * n // 4, n), want_max=True)
    assert _peak_bytes(payload) < before_bytes


def test_lil_block_peaks_below_the_int64_history_engine():
    """The B = 1, n = 150,000 LIL block on the count01 Parry chain (a checkpoint
    at every n from 1,000) peaks below the 4,370,992 bytes it took while the
    evaluation widened every symbol chunk to int64 (tracemalloc, numpy 2.4)."""
    n = 150000
    payload = _count01_payload(n, 1, checkpoints=np.arange(1000, n + 1), want_max=False)
    assert _peak_bytes(payload) < 4370992


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("cut_trials,cell_bytes", [(0, 1), (64, 8)])
def test_float_scratch_does_not_grow_with_the_path(B, cut_trials, cell_bytes):
    """With small evaluation chunks, a 150,000-step path holds its one-byte
    codes (no trials needed per cut point) or float64 cells (64 needed, more
    than B) plus a float scratch of at most _PIECE_CELLS cells and small change."""
    payload = _count01_payload(150000, B, checkpoints=(), want_max=True)
    with mock.patch.multiple(ex, _EVAL_CELLS=1024, _CUT_TRIALS=cut_trials):
        assert _peak_bytes(payload) <= 150000 * B * cell_bytes + 2 * ex._PIECE_CELLS * 8


def _peak_bytes(payload):
    ex._simulate_block(payload)  # warm caches outside the trace
    tracemalloc.start()
    try:
        ex._simulate_block(payload)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sphere_block_matches_per_step_loop():
    """The uniform sphere chain at ranks 2, 3 and 7 (d = 14: 12 cut points, so
    floats at every block width here); every walk case is reached."""
    seen = set()

    @PROPERTY
    @given(st.sampled_from([2, 3, 7]), st.integers(1, 80), st.integers(0, 30),
           st.sampled_from([1, 2, 7, ex._ROW_ADD_TRIALS + 3]),
           st.sampled_from([(), (1,), (2,), (1, 2)]), CHUNKS)
    def check(rank, n, first, B, widths, chunks):
        d = 2 * rank
        rng = np.random.default_rng(n)
        payload = ex.uniform_sphere_payload(fg.FreeGroup(rank).sft())
        payload.update(n=n, seed=n * 7919 + first, trial_range=(first, first + B),
                       kernel_widths=widths,
                       kernel_tables=tuple(rng.normal(size=d**q) for q in widths),
                       e=0.25, checkpoints=tuple(sorted({1, n})), want_max=True, want_symbols=True)
        with _chunked(chunks), _walk_cases(seen):
            new = ex._simulate_block(payload)
        _assert_identical(new, _loop_block(payload))

    check()
    assert seen >= WALK_CASES, seen


def test_sphere_sample_matches_per_letter_walk():
    """sphere_sample against the per-step loop at every table budget and chunk
    size, with uniforms as floats (too few samples per cut point) or codes."""
    seen = set()

    @PROPERTY
    @given(st.sampled_from([2, 3, 7]), st.integers(1, 60), st.integers(1, 12),
           st.integers(0, 2**40), CHUNKS, st.sampled_from([0, ex._CUT_TRIALS]))
    def check(rank, n, count, seed, chunks, cut_trials):
        G = fg.FreeGroup(rank)
        with _chunked(chunks), _walk_cases(seen), mock.patch.object(ex, "_CUT_TRIALS", cut_trials):
            got = fg.sphere_sample(G, n, count, seed)
        assert np.array_equal(got, _loop_sphere_sample(G, n, count, seed))

    check()
    assert seen >= WALK_CASES, seen


@pytest.mark.parametrize("pattern,states,n", [("abA", 12, 30011), ("abaBa", 108, 6007)])
def test_long_single_path_matches_per_step_loop(pattern, states, n):
    """B = 1 on a memory-2 and a memory-4 chain, both within _SEGMENT_STATES
    states, walked as segments over several walks of segment walkers."""
    G = fg.FreeGroup(2)
    mm, _, _ = mk.gibbs_chain_from_qm(fg.brooks(G, pattern), G.sft())
    assert len(mm.states) == states
    payload = ex.markov_sampler_payload(mm)
    payload.update(n=n, seed=5, trial_range=(3, 4), kernel_widths=(), kernel_tables=(),
                   e=0.0, checkpoints=(), want_max=False, want_symbols=True)
    old = _loop_block(payload)
    _assert_identical(ex._simulate_block(payload), old)
    assert np.array_equal(ex.sample_path(mm, n, 5, trial=3), old["symbols"][0])


def test_reused_stream_equals_trial_rng():
    """One Generator re-keyed per trial gives trial_rng's stream, also after a
    draw that leaves a buffered 32-bit half behind, and from any counter."""
    rekey = ex._rekeyer()
    seed, n, d = 2**63 + 11, 37, 6
    for trial in (0, 5, 2**64 - 1, 5):
        ref = ex.trial_rng(seed, trial)
        assert np.array_equal(rekey(seed, trial).random(n), ref.random(n))
        ref = ex.trial_rng(seed, trial)
        g = rekey(seed, trial)
        assert g.integers(0, d) == ref.integers(0, d)
        assert np.array_equal(g.integers(0, d - 1, size=13), ref.integers(0, d - 1, size=13))
    whole = ex.trial_rng(seed, 9).random(4 * 6 + 10)
    assert np.array_equal(rekey(seed, 9, counter=6).random(10), whole[24:])


@pytest.mark.parametrize("rank,n,count,seed", [(2, 1, 3, 0), (2, 6, 5, 11), (3, 40, 9, 4),
                                                (2, 3000, 1, 8), (2, 600, 2000, 1),
                                                (7, 50, 6, 3)])
def test_sphere_sample_unchanged(rank, n, count, seed):
    G = fg.FreeGroup(rank)
    got = fg.sphere_sample(G, n, count, seed)
    assert got.dtype == np.int8
    assert np.array_equal(got, _loop_sphere_sample(G, n, count, seed))


def test_sphere_sample_keeps_cell_cap():
    token = SCOPED_WORD_CAP.set(10000)
    try:
        with pytest.raises(ResourceLimit, match="exceed the word cap"):
            fg.sphere_sample(fg.FreeGroup(2), 1000, 11, seed=1)
    finally:
        SCOPED_WORD_CAP.reset(token)


# -- edge ids: increments by one take a width, symbols only where needed ------------


def _emit_cases(seen):
    """Record what each block's ids are looked up as: increments (every width
    q <= t + 1) or symbols for window coding (a wider kernel), and whether the
    block also emits its symbols."""
    tables = ex._id_tables

    def recording(payload, kernels):
        sym_of, inc_of = tables(payload, kernels)
        case = "increments" if inc_of is not None else "windows"
        seen.add(case + (" and symbols" if payload.get("want_symbols") else ""))
        return sym_of, inc_of

    return mock.patch.object(ex, "_id_tables", recording)


EMIT_CASES = {"increments", "increments and symbols", "windows", "windows and symbols"}


def test_blocks_emit_increments_and_symbols():
    """The block property against the per-step loop, float and coded, records
    that increments, symbols and window coding are each reached."""
    seen = set()

    @settings(PROPERTY, max_examples=40)
    @given(markov_payloads(), CHUNKS, st.sampled_from([0, ex._CUT_TRIALS]))
    def check(payload, chunks, cut_trials):
        with _chunked(chunks), _emit_cases(seen), mock.patch.object(ex, "_CUT_TRIALS", cut_trials):
            new = ex._simulate_block(payload)
        _assert_identical(new, _loop_block(payload))

    check()
    assert seen == EMIT_CASES, seen


def test_edge_ids_widen_past_a_byte():
    """S w = 729 > 256 (an iid chain on the full 3-shift, presented with memory
    5): the walk emits uint16 edge ids, float and coded (fewer than 255 cut
    points, so ranks fit a byte), with kernels within t + 1 = 6 and wider, and
    matches the loop."""
    sft = full_shift(3)
    table = np.log([0.2, 0.3, 0.5])[sft.cylinders(6).array[:, -1]]
    mm = mk.markov_measure(mk.normalize_potential(mk.MarkovPotential(sft, 5, table))[0])
    payload = ex.markov_sampler_payload(mm)
    assert payload["succ_state"].shape == (243, 3) and ex._edge_ids(243, 3).dtype == np.uint16
    assert len(payload["cuts"]) < 255
    rng = np.random.default_rng(5)
    for widths in ((1, 6), (2, 7)):
        payload.update(n=41, seed=2, trial_range=(1, 6), kernel_widths=widths,
                       kernel_tables=tuple(rng.normal(size=3**q) for q in widths), e=0.5,
                       checkpoints=(1, 5, 41), want_max=True, want_symbols=True)
        for cut_trials in (0, ex._CUT_TRIALS):
            with mock.patch.object(ex, "_CUT_TRIALS", cut_trials):
                _assert_identical(ex._simulate_block(payload), _loop_block(payload))


# -- rounding twins of the cumulative kernel share one cut point ---------------------


def _ulps(a, b):
    return np.abs(np.asarray(a, dtype=np.float64).view(np.int64)
                  - np.asarray(b, dtype=np.float64).view(np.int64))


@PROPERTY
@given(st.lists(st.floats(1e-6, 0.999), min_size=1, max_size=6, unique=True),
       st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_snap_merges_each_cluster_of_ulp_twins_into_one_cut(bases, rows):
    """Random cumulative kernels whose entries below 1 are planted within 4 ulps
    above well-separated bases: each cluster gives exactly one cut point (its
    smallest entry), no entry moves by more than 4 ulps, distinct cuts are more
    than 4 ulps apart and entries of 1 and above stay."""
    bases = np.sort(bases)
    assume((_ulps(bases[1:], bases[:-1]) > 16).all())
    w = 1 + max(len(r) for r in rows)
    up = np.nextafter(1.0, 2.0)
    succ_cum = np.ones((len(rows), w))
    for i, row in enumerate(rows):
        vals = sorted(np.float64(bases[b % len(bases)]).view(np.int64) + o for b, o in row)
        succ_cum[i, :len(row)] = np.array(vals, dtype=np.int64).view(np.float64)
        succ_cum[i, -1] = up if i % 2 else 1.0  # sums rounded past 1 stay as they are
    snapped = ex._snap(succ_cum)
    assert (_ulps(snapped, succ_cum) <= ex._SNAP_ULPS).all()
    assert np.array_equal(snapped >= 1.0, succ_cum >= 1.0)
    assert np.array_equal(snapped[succ_cum >= 1.0], succ_cum[succ_cum >= 1.0])
    assert (np.diff(snapped, axis=1) >= 0).all()
    cuts, _ = ex._cut_ranks(snapped)
    below = succ_cum[succ_cum < 1.0]
    cluster = np.searchsorted(bases, below, side="right") - 1  # the base each entry sits on
    assert cuts.tolist() == [below[cluster == c].min() for c in np.unique(cluster)]
    assert (_ulps(cuts[1:], cuts[:-1]) > ex._SNAP_ULPS).all()


def test_snap_keeps_a_run_of_twins_within_4_ulps_of_its_cut():
    """Entries 3 ulps apart in a run: each snaps to the cut below it while that
    cut is at most 4 ulps away, and the next starts a cut of its own."""
    a = np.float64(0.25).view(np.int64)
    run = np.array([a, a + 3, a + 6, a + 9, a + 12], dtype=np.int64).view(np.float64)
    snapped = ex._snap(np.append(run, 1.0)[None, :])[0]
    assert _ulps(snapped[:5], run[0]).tolist() == [0, 0, 6, 6, 12]
    assert len(ex._cut_ranks(snapped[None, :])[0]) == 3


def test_parry_chain_of_f2_has_two_cut_points():
    """Its edge probabilities are 1/3 only to rounding: snapped, 2 cut points,
    so r = 3 and a coded walk takes k = 7 steps a lookup (6 cuts gave k = 4)."""
    payload = ex.markov_sampler_payload(mk.parry_measure(fg.FreeGroup(2).sft()))
    assert len(payload["cuts"]) == 2
    assert ex._walk_depth(len(payload["succ_state"]), len(payload["cuts"]) + 1) == 7
    assert ex._coded(payload, 2 * ex._CUT_TRIALS) and not ex._coded(payload, 2 * ex._CUT_TRIALS - 1)
