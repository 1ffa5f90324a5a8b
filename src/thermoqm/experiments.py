"""Monte Carlo limit-theorem experiments over stationary Markov chains.

Reproducibility contract: trial t draws from the counter-based Philox stream
keyed by (seed, t) (``trial_rng``), trials are processed in fixed-size blocks
in trial order, and all reductions run over the assembled per-trial arrays, so
results are bit-identical across runs and worker counts.  ``_run_blocks`` is the
run entry of every experiment and sampler: it cuts the blocks, builds the walk
tables once and gathers the outputs.  A block keeps one
Philox and re-keys it per trial, which gives exactly trial_rng's streams, and
draws uniforms a chunk of positions at a time by counter addressing (uniform k
is lane k % 4 of counter k // 4), as one-byte bucket codes #{cuts <= u} where
the block has _CUT_TRIALS trials per successor cut point: 8x the positions per
chunk, so 8x fewer re-keys.  Cut points are the chain's cumulative kernel
entries below 1, with entries within _SNAP_ULPS ulps above a smaller one
snapped onto it first (the payload's succ_cum is the snapped chain, which every
walk samples): the Parry chain of F2, 1/3 per edge only to rounding, has 2.
A coded block walks all trials k positions per table lookup: a trial's state s
and its next k codes c_i (r = len(cuts) + 1 values each; the uniform sphere
walk is a chain with d - 2 cut points, r = d - 1) pack into one index
s r^k + sum c_i r^(k-1-i) of two (k, S r^k) tables, the edge of each step and
the state after it, with k the largest depth whose table fits _WALK_CELLS cells;
a run builds the tables once and hands them to every block in its payload.  A
float block takes one flat gather per position.  A single path on at most
_SEGMENT_STATES states is cut into segments, and every (segment, entry state)
pair walks as one walker of a block of about _BLOCK, on the path's shared codes
(or floats, past a byte of ranks); the path then follows, segment by segment,
the walker that enters at its state (the all-start-states device of coupling
from the past).  Every walk emits edge ids s w + c (state s, successor column
c; uint8 while S w <= 256), and all feed one evaluation step: path functionals
are sums of the quasimorphism's window kernels, accumulated in order per trial,
which makes L(x_0..x_{k-1}) exact at every step without storing words.  When
every kernel width q <= t + 1, each window ending at a step lies in the step's
state and new symbol, so one take a width from per-edge tables gives the
increments; symbols are looked up from the same ids only for wider kernels or
when the caller wants them.  The CLT reads the final sums, the other
experiments the running sums at ascending checkpoints (the LIL orbit: every n
of one single-trial run).  Paths as symbols, with no path functional, come
from `sample_paths`, under the word cap.

Kept without an op: `sample_path` (demo 06) and `bernoulli_rate` (demo 06,
criterion 10).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSigma, ResourceLimit
from .markov import LocallyConstantFn, MarkovMeasure, MarkovPotential, variance
from .sft import symbol_dtype, window_codes, word_cap
from .thermo import window_expectation

_MASK = (1 << 64) - 1


def trial_rng(seed, trial):
    key = np.array([int(seed) & _MASK, int(trial) & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekeyer():
    """rekey(seed, trial, counter=0) points one Generator at trial_rng(seed, trial)'s
    stream at Philox counter `counter` (next uniform: number 4 * counter), by
    replacing the counter and key of one state dict (the setter copies it)."""
    gen = np.random.Generator(np.random.Philox(0))
    bitgen = gen.bit_generator
    full = {"bit_generator": "Philox", "state": {}, "buffer": (0,) * 4, "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
    state = full["state"]

    def rekey(seed, trial, counter=0):  # seed and trial: ints in [0, 2^64)
        state["counter"], state["key"] = (counter, 0, 0, 0), (seed, trial)
        bitgen.state = full
        return gen

    return rekey


def dkw_band(trials, alpha=0.01):
    """Kolmogorov-Smirnov sampling band P(D > band) <= alpha at this many trials."""
    return float(np.sqrt(np.log(2.0 / alpha) / (2.0 * trials)))


def ks_distance(sample, cdf):
    """Sup distance between the empirical CDF of sample and a target CDF."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    F = cdf(x)
    grid = np.arange(1, n + 1) / n
    return float(max((grid - F).max(), (F - (grid - 1.0 / n)).max()))


def standard_normal_cdf(x):
    """Phi(x) = erfc(-x / sqrt 2) / 2, element-wise."""
    erfc = np.frompyfunc(math.erfc, 1, 1)(-np.asarray(x, dtype=float) / math.sqrt(2.0))
    return 0.5 * np.asarray(erfc, dtype=float)


def reflection_sup_cdf(x):
    """CDF of sup_{[0,1]} of standard Brownian motion: 2 Phi(x) - 1 on x >= 0."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, 0.0, 2.0 * standard_normal_cdf(x) - 1.0)


# -- sampling specifications -----------------------------------------------------


_SNAP_ULPS = 4  # cumulative-kernel entries this close above a smaller one share its cut point:
#                 a uniform lands in such a gap with probability below 1e-15 a draw


def _snap(succ_cum):
    """succ_cum with each entry below 1 that lies within _SNAP_ULPS ulps above a
    smaller entry set to the cut of that entry, in ascending order: a cluster of
    rounding twins becomes one cut point, no entry moves by more than _SNAP_ULPS
    ulps and distinct cuts stay more than _SNAP_ULPS ulps apart."""
    below = succ_cum < 1.0
    v = np.unique(succ_cum[below])
    bits = v.view(np.int64)  # ascending with v, as v >= 0; ulps apart = difference
    cut = bits.copy()
    for i in np.flatnonzero(np.diff(bits) <= _SNAP_ULPS) + 1:  # only entries near the one below
        if bits[i] - cut[i - 1] <= _SNAP_ULPS:
            cut[i] = cut[i - 1]
    out = succ_cum.copy()
    out[below] = cut.view(np.float64)[np.searchsorted(v, succ_cum[below])]
    return out


def _cut_ranks(succ_cum):
    """The distinct cut points below 1, and rank = 1 + the index in cuts of each
    entry (len(cuts) + 1 for entries >= 1): u >= succ_cum iff _codes(u) >= rank."""
    cuts = np.unique(succ_cum[succ_cum < 1.0])
    return cuts, np.searchsorted(cuts, succ_cum) + 1


def _codes(u, cuts):
    """One-byte bucket codes #{c in cuts : c <= u}, one comparison pass a cut."""
    out = np.zeros(u.shape, dtype=np.uint8)
    for c in cuts:
        out += u >= c
    return out


def markov_sampler_payload(mm):
    """Picklable arrays describing how to walk the chain symbol by symbol: the
    successors of each state in symbol order (the edges of its block graph),
    padded with the last one, their cumulative kernel probabilities with
    rounding twins snapped together (_snap), and those as cut points and ranks."""
    sft = mm.sft
    g = sft.block_graph(mm.t)
    deg = np.bincount(g.src, minlength=len(g))
    last = (deg - 1)[:, None]
    edge = (np.cumsum(deg) - deg)[:, None] + np.minimum(np.arange(deg.max()), last)
    succ_cum = np.cumsum(mm.edge_prob[edge], axis=1)
    succ_cum[np.arange(deg.max()) >= last] = 1.0
    succ_cum = _snap(succ_cum)
    init_cum = np.cumsum(mm.stationary)
    init_cum[-1] = 1.0
    cuts, rank = _cut_ranks(succ_cum)
    return {
        "d": sft.d,
        "t": mm.t,
        "init_cum": init_cum,
        "state_words": mm.states.array,
        "succ_cum": succ_cum,
        "cuts": cuts,
        "rank": rank,
        "succ_state": g.dst[edge],
        "succ_sym": g.sym[edge].astype(symbol_dtype(sft.d)),
    }


def uniform_sphere_chain(sft):
    """The uniform walk on symbols of equal in- and out-degree deg, exactly and with
    no eigensolve: every edge 1/deg, every state 1/d.  On a free group it is the
    uniform non-backtracking walk: its length-n paths are uniform on the sphere."""
    g = sft.block_graph(1)
    deg = np.bincount(g.src, minlength=len(g))
    if (deg != deg[0]).any() or (np.bincount(g.dst, minlength=len(g)) != deg[0]).any():
        raise ValueError("the uniform sphere walk needs equal in- and out-degrees at every symbol")
    pot = MarkovPotential(sft, 1, np.full(len(g.src), -np.log(deg[0])), normalized=True)
    return MarkovMeasure(sft, pot, np.full(len(g.src), 1.0 / deg[0]), np.full(len(g), 1.0 / len(g)))


def uniform_sphere_payload(sft):
    """The sampler payload of the uniform sphere walk."""
    return markov_sampler_payload(uniform_sphere_chain(sft))


def sample_paths(mm, n, count, seed, first=0):
    """count stationary paths of n symbols as a (count, n) array, row i the path
    of trial first + i (stream keyed by (seed, first + i)); the count * n
    symbols are held against the word cap."""
    if count * n > word_cap():
        raise ResourceLimit(f"{count} paths of {n} symbols exceed the word cap {word_cap()}")
    payload = dict(markov_sampler_payload(mm), n=n, seed=seed, **_SYMBOLS_ONLY)
    return _run_blocks(payload, count, first=first)["symbols"]


def sample_path(mm, n, seed, trial=0):
    """One stationary path of n symbols, stream keyed by (seed, trial)."""
    return sample_paths(mm, n, 1, seed, trial)[0]


# -- the block engine -------------------------------------------------------------

_BLOCK = 2048  # trials per engine block (blocks are cut in the calling process, one job each),
#                and the walkers of a single path's segments at a time
_SYMBOL_CELLS = 1 << 20  # symbols a block holds when the run keeps its paths: about a MB
_SYMBOLS_ONLY = dict(kernel_widths=(), kernel_tables=(), e=0.0, checkpoints=(), want_max=False,
                     want_symbols=True)  # a run that keeps its paths and no path functional
_DRAW_CELLS = 1 << 18  # float64 cells (or 8x as many byte codes) per drawn chunk, 2 MB; each
#                        chunk re-keys every stream once, so smaller chunks trade time for memory
_CUT_TRIALS = 40  # trials a block needs per cut point to code: a code costs ~0.5 ns a cut, and
#                   saves re-keys and the float compares of the walk.  Measured (BENCH_11.json):
#                   codes win at B = 2048 to 48 cuts (64: +9-18 %), at B = 1024 to 16 (32: +4-9 %),
#                   at B = 256 to 8 and at B = 64 to 16: the crossover is 32-43 trials a cut at
#                   B = 2048, 32-64 at B = 1024 and lower below
_PIECE_CELLS = 1 << 14  # float scratch a chunk is drawn through, a multiple of 4 (128 KB)
_EVAL_CELLS = 1 << 15  # cells per evaluated chunk and per walk of a single path's segments
_WALK_CELLS = 1 << 16  # cells of each k-step walk table (k, S r^k): k is the largest that fits
_SEGMENT_STATES = 400  # beyond this a single path walks flat, one gather a step (4-8 us), as
#                        segment walkers take S steps for each of the path's; on float uniforms
#                        they lose from about 390-500 states (BENCH_15.json, segments)
_ROW_ADD_TRIALS = 256  # from here a row-by-row add (~1 us a row) beats np.cumsum (~5 ns a cell)


def _walk_depth(S, r):
    """Steps k per table lookup: the largest k >= 1 with k S r^k <= _WALK_CELLS."""
    k = 1
    while r > 1 and (k + 1) * S * r ** (k + 1) <= _WALK_CELLS:
        k += 1
    return k


def _edge_ids(S, w):
    """The (S, w) edge ids s w + c of each state's successor columns: uint8 while
    S w <= 256, wider beyond."""
    return np.arange(S * w, dtype=np.min_scalar_type(S * w - 1)).reshape(S, w)


def _walk_tables(payload):
    """k-step tables of a coded walk, k = _walk_depth(S, r): index s r^k + sum_i
    c_i r^(k-1-i) packs state s and the codes c_0..c_{k-1} (code c picks column
    #{j < w - 1 : c >= rank[s, j]}); row i of edge holds the edge id of step i,
    row i of nxt the state after it, times r^k."""
    succ_state, rank = payload["succ_state"], payload["rank"]
    (S, w), r = succ_state.shape, len(payload["cuts"]) + 1
    k = _walk_depth(S, r)
    col = (np.arange(r)[:, None] >= rank[:, None, :w - 1]).sum(axis=2)  # (S, r)
    step_state = np.take_along_axis(succ_state, col, axis=1).astype(np.intp)
    step_edge = np.take_along_axis(_edge_ids(S, w), col, axis=1)
    edge = np.empty((k, S * r**k), dtype=step_edge.dtype)
    nxt = np.empty((k, S * r**k), dtype=np.min_scalar_type(S * r**k - 1))
    state = np.arange(S)  # the state after i steps, by packed prefix s, c_0..c_{i-1}
    for i in range(k):
        edge[i] = np.repeat(step_edge[state].ravel(), r ** (k - 1 - i))
        state = step_state[state].ravel()
        nxt[i] = np.repeat(state * r**k, r ** (k - 1 - i))
    return edge, nxt


def _segmented(payload, B):
    """Whether a block of B trials is one path walked as segments."""
    return B == 1 and len(payload["succ_state"]) <= _SEGMENT_STATES


def _coded(payload, B):
    """Whether a block of B trials draws one-byte codes and walks the k-step
    tables: ranks fit a byte, and the block has _CUT_TRIALS trials a cut point
    or is one path walked as segments (every code then serves S walkers)."""
    cuts = len(payload["cuts"])
    return cuts < 255 and (cuts * _CUT_TRIALS <= B or _segmented(payload, B))


def _pack(C, r, k):
    """Position-major codes C (m, ...) as one index offset per group of k rows,
    sum_i c_i r^(k-1-i); a short last group reads as padded with code 0."""
    P = np.zeros((-(-len(C) // k),) + C.shape[1:], dtype=np.min_scalar_type(r**k - 1))
    for i in range(k):
        P *= r
        P[:len(C[i::k])] += C[i::k]
    return P


def _simulate_block(payload):
    t0, t1 = payload["trial_range"]
    B, n, seed = t1 - t0, payload["n"], int(payload["seed"]) & _MASK
    rekey = _rekeyer()
    succ_state, cuts, t = payload["succ_state"], payload["cuts"], payload["t"]
    (S, w), r = succ_state.shape, len(cuts) + 1
    segments, coded = _segmented(payload, B), _coded(payload, B)
    k = _walk_depth(S, r) if coded else 1
    unit = r**k if coded else w  # a walker's offset: its state times unit
    cum = (payload["rank"].astype(np.uint8) if coded else payload["succ_cum"]).ravel()
    rows = max(1, _EVAL_CELLS // B)
    N = max(n - t, 0)
    cols = max(4, _DRAW_CELLS * (8 if coded else 1) // B // 4 * 4)
    buf = None if coded else np.empty((min(cols, N + 1), B))  # codes: packed per chunk
    u0 = np.empty(B)  # position 0 stays a float, for the init_cum search

    def draws(lo):  # uniforms lo.. of every stream (Philox counter lo // 4), position-major
        m = min(cols, N + 1 - lo)
        U = np.empty((m, B), dtype=np.uint8) if coded else buf[:m]
        p = min(len(U), _PIECE_CELLS)  # a multiple of 4 when a stream takes several pieces
        T = np.empty((min(B, max(1, _PIECE_CELLS // p)), p))
        for b, j in itertools.product(range(0, B, len(T)), range(0, len(U), p)):
            V = T[:B - b, :len(U) - j]  # streams b.., positions lo + j.., one blocked transpose
            counter = (lo + j) // 4
            for trial, row in zip(range(t0 + b, t1), V):
                rekey(seed, trial, counter).random(out=row)
            if lo + j == 0:
                u0[b:b + len(V)] = V[:, 0]
            U[j:j + p, b:b + len(V)] = (_codes(V, cuts) if coded else V).T
        C = U[lo == 0:]  # position 0 picks the initial state
        return len(C), (_pack(C, r, k) if coded and not segments else C)  # segments pack later

    def pick(base, u):  # successor column: #{k < w - 1 : u >= cum}; the last cum is 1
        idx = base + (u >= cum.take(base))
        for k in range(1, w - 1):
            idx += u >= cum[k:].take(base)
        return idx

    chunk0 = draws(0)
    first = np.searchsorted(payload["init_cum"], u0, side="right")
    chunks = itertools.chain([chunk0], map(draws, range(cols, N + 1, cols)))
    nxt, edge_dtype = (succ_state.astype(np.int64) * w).ravel(), _edge_ids(S, w).dtype

    def walked():  # edge-id chunks of about _EVAL_CELLS cells
        if coded:  # after the first draw, unless the run brought them
            wedge, wnxt = payload.get("walk_tables") or _walk_tables(payload)
        offset = wnxt.dtype if coded else np.int64

        # m steps of the walkers at offsets base; a row of Q, k packed codes or one
        # float per walker, broadcasts against base
        def walk(Q, base, m):
            X = np.empty((m,) + base.shape, dtype=edge_dtype)
            if coded:
                for i, p in enumerate(Q):
                    j = min(k, m - i * k)  # < k in a last, partial group
                    idx = base + p
                    wedge[:j].take(idx, axis=1, out=X[i * k:i * k + j])
                    base = wnxt[j - 1].take(idx)
            else:  # one flat gather step per position: the picked index is the edge id
                for q, x in zip(Q, X):
                    idx = pick(base, q)
                    x[...] = idx
                    base = nxt.take(idx)
            return X, base

        prep = (lambda C: _pack(C, r, k)) if coded else (lambda C: C)
        nseg = max(1, _BLOCK // S)  # segments walked at once, S walkers each
        L = max(1, _EVAL_CELLS // (nseg * S))  # steps a segment
        entries = np.tile(np.arange(S, dtype=offset) * unit, (nseg, 1))

        # one path (B = 1) through steps C: a walker for every segment and entry
        # state, then segment by segment the walker that enters at the path's state
        def path(C, base):
            X = np.empty(C.shape, dtype=edge_dtype)
            for lo in range(0, len(C), nseg * L):
                piece = C[lo:lo + nseg * L]
                g = len(piece) // L
                if g:
                    Q = prep(piece[:g * L, 0].reshape(g, L).T)  # (step, segment)
                    Y, ends = walk(Q[:, :, None], entries[:g], L)  # (step, segment, entry)
                    s, at = int(base[0]) // unit, []
                    ends = (ends // unit).ravel().tolist()  # one flat list: segment i at i S
                    for i in range(g):
                        at.append(s)
                        s = ends[i * S + s]
                    X[lo:lo + g * L, 0] = Y[:, np.arange(g), at].T.ravel()
                    base = np.array([s * unit], offset)
                if len(piece) > g * L:  # a short last segment: the path's own walker
                    X[lo + g * L:lo + len(piece)], base = walk(prep(piece[g * L:]), base,
                                                               len(piece) - g * L)
            return X, base

        base = (first * unit).astype(offset)
        groups = rows if segments else -(-rows // k)  # whole groups of k codes
        for m, Q in chunks:
            for lo in range(0, len(Q), groups):
                if segments:
                    X, base = path(Q[lo:lo + groups], base)
                else:
                    X, base = walk(Q[lo:lo + groups], base, min(groups * k, m - lo * k))
                yield X

    return _evaluate(payload, B, first, walked())


def _id_tables(payload, kernels):
    """What an id of a walked chunk stands for.  Ids below E = S w are edges, s w + c
    for column c of state s; E + p S + s is position p < t of state s's word (the
    head).  Returns the symbol of each id, and, when every width q <= t + 1, one
    table a kernel (in payload order) of the width-q window ending at each id, 0
    where it is not full yet: every window that ends at a step then lies inside the
    step's state and new symbol.  A wider kernel gets None, for window coding."""
    words, succ_sym, t, d = payload["state_words"], payload["succ_sym"], payload["t"], payload["d"]
    S, w = succ_sym.shape
    symbols = np.concatenate([succ_sym.ravel(), words.T.ravel()]).astype(succ_sym.dtype)
    if max(q for q, _ in kernels) > t + 1:
        return symbols, None
    ext = np.concatenate([np.repeat(words, w, axis=0), succ_sym.reshape(-1, 1)], axis=1)
    tables = [np.concatenate([table.take(window_codes(ext, t + 1 - q, q, d))]
                             + [table.take(window_codes(words, p + 1 - q, q, d)) if p + 1 >= q
                                else np.zeros(S) for p in range(t)])
              for q, table in kernels]
    return symbols, tables


def _evaluate(payload, B, first, chunks):
    """Window-kernel sums along paths of ids (see _id_tables): the head's t rows
    of the start states `first`, then position-major chunks of edge ids (of about
    _EVAL_CELLS cells).  At each position every full width-q window adds its
    table value, widths in payload order, summed in that order per trial (a
    running sum down the positions).  With every width q <= t + 1 that is one
    take a width from the ids; a wider kernel codes windows from their symbols."""
    n, d, e, t = payload["n"], payload["d"], payload["e"], payload["t"]
    S, w = payload["succ_sym"].shape
    head = S * w + np.arange(min(t, n))[:, None] * S + first
    head = head.astype(np.min_scalar_type(S * (w + t) - 1))  # as small as the walk's ids
    # with no kernel, add zeros: acc + 0.0 == acc, as acc is never -0.0
    kernels = [(q, np.asarray(k)) for q, k in zip(payload["kernel_widths"],
                                                  payload["kernel_tables"])] or [(1, np.zeros(d))]
    checkpoints = np.asarray(payload["checkpoints"], dtype=np.int64)  # ascending
    want_max, want_symbols = payload["want_max"], payload.get("want_symbols", False)
    acc, runmax, checks = np.zeros(B), np.zeros(B), np.zeros((B, len(checkpoints)))
    sym_of, inc_of = _id_tables(payload, kernels)
    symbols = np.zeros((B, n), dtype=sym_of.dtype) if want_symbols else None
    keep = 0 if inc_of else max(q for q, _ in kernels) - 1
    hist, p0 = np.zeros((keep, B), dtype=sym_of.dtype), 0
    for X in itertools.chain([head], chunks):
        C = len(X)
        if want_symbols:
            symbols[:, p0:p0 + C] = sym_of.take(X).T
        if inc_of:
            incs = [table.take(X) for table in inc_of]
        else:
            H = np.concatenate([hist, sym_of.take(X)], dtype=sym_of.dtype)
            code, incs = np.empty((C, B), dtype=np.intp), []
            for q, table in kernels:  # code = base-d window value, built in place
                code[:] = H[keep - q + 1:keep - q + 1 + C]
                for k in range(keep - q + 2, keep + 1):
                    code *= d
                    code += H[k:k + C]
                incs.append(table.take(code))
                incs[-1][:max(0, q - 1 - p0)] = 0.0  # the window is not full yet
            hist = H[len(H) - keep:].copy()
            del H, code
        seq = np.stack(incs, axis=1).reshape(-1, B) if len(incs) > 1 else incs[0]
        seq[0] += acc  # then running sums down the rows (position, width in payload order)
        if B < _ROW_ADD_TRIALS:
            np.cumsum(seq, axis=0, out=seq)
        else:
            for i in range(1, len(seq)):
                seq[i] += seq[i - 1]
        run = seq[len(incs) - 1::len(incs)]
        if want_max:  # max of run_k - k e, unnamed so it is freed before the next chunk
            np.maximum(runmax, (run - np.arange(p0 + 1, p0 + C + 1)[:, None] * e).max(axis=0),
                       out=runmax)
        lo, hi = np.searchsorted(checkpoints, (p0 + 1, p0 + C + 1))  # p0 < c <= p0 + C
        c = checkpoints[lo:hi]
        checks[:, lo:hi] = (run[c - p0 - 1] - (c * e)[:, None]).T
        acc, p0 = run[-1].copy(), p0 + C
        del X, incs, seq, run  # freed before the next chunk is drawn and walked
    out = {"final": acc - n * e, "checks": checks, "runmax": runmax}
    if want_symbols:
        out["symbols"] = symbols
    return out


def _run_blocks(payload, trials, workers=1, first=0):
    """The run entry: trials first..first + trials - 1 of the payload, cut into
    blocks of _BLOCK trials (of about _SYMBOL_CELLS symbols when the payload keeps
    its paths), the walk tables built once for every block, and each per-trial
    output gathered in trial order (a one-block run's as its block gave it)."""
    if trials < 1:
        raise ValueError(f"need at least 1 trial or sample, got {trials}")
    if first < 0:
        raise ValueError(f"trials are numbered from 0, got {first}")
    if payload["n"] < 1:
        raise ValueError(f"need a path length n >= 1, got {payload['n']}")
    step = max(1, _SYMBOL_CELLS // payload["n"]) if payload.get("want_symbols") else _BLOCK
    ranges = [(lo, min(lo + step, first + trials)) for lo in range(first, first + trials, step)]
    if any(_coded(payload, t1 - t0) for t0, t1 in ranges):
        payload = dict(payload, walk_tables=_walk_tables(payload))
    jobs = [dict(payload, trial_range=r) for r in ranges]

    def gather(parts):  # copied into place a block at a time; a lone block as it is
        if len(jobs) == 1:
            return next(parts)
        out = {}
        for (t0, t1), part in zip(ranges, parts):
            for key, v in part.items():
                if key not in out:
                    out[key] = np.empty((trials,) + v.shape[1:], dtype=v.dtype)
                out[key][t0 - first:t1 - first] = v
        return out

    if workers <= 1:
        return gather(map(_simulate_block, jobs))
    from concurrent.futures import ProcessPoolExecutor  # not loaded by 1-worker runs
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return gather(ex.map(_simulate_block, jobs))


# -- shared setup ------------------------------------------------------------------


def path_functional_payload(L, mm):
    """Sampler payload plus kernel tables and the per-step mean of L."""
    sft = mm.sft
    kernels = L.window_tables(sft.d)
    if kernels is None:
        raise ValueError(
            "experiments need a window-additive quasimorphism "
            "(tabulated kinds cannot be evaluated along long paths)"
        )
    payload = markov_sampler_payload(mm)
    e = window_expectation(mm, L, sft)
    payload.update(
        kernel_widths=tuple(sorted(kernels)),
        kernel_tables=tuple(kernels[q] for q in sorted(kernels)),
        e=e,
    )
    return payload, e


def sigma2_of(L, mm):
    """Two-way transfer-operator variance of the per-step observable of L."""
    ps = MarkovPotential.from_qm(L, mm.sft)
    e = mm.integral(ps)
    psi = ps - LocallyConstantFn.constant(mm.sft, e)
    var = variance(mm.potential, psi, mm)
    scale = max(1.0, psi.sup_norm()) ** 2
    if var.sigma2_martingale <= 1e-10 * scale:
        raise DegenerateSigma(
            f"sigma2 = {var.sigma2_martingale}; the quasimorphism is cohomologically trivial"
        )
    return var


# -- experiments --------------------------------------------------------------------


@dataclass
class CltResult:
    stats: np.ndarray
    ks: float
    dkw: float
    sigma2: float
    variance: object
    e_per_step: float
    n: int
    trials: int
    seed: int

    def summary(self):
        out = {
            "ks": self.ks,
            "dkw_99": self.dkw,
            "sigma2": self.sigma2,
            "e_per_step": self.e_per_step,
            "mean_stat": float(self.stats.mean()),
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.variance is not None:
            out["sigma2_martingale"] = self.variance.sigma2_martingale
            out["sigma2_green_kubo"] = self.variance.sigma2_green_kubo
        return out


def clt_experiment(L, mm, n, trials, seed, workers=1, sigma2=None):
    """Empirical law of (L(x_0..x_{n-1}) - n e) / (sigma sqrt n) vs the normal."""
    var = None
    if sigma2 is None:
        var = sigma2_of(L, mm)
        sigma2 = var.sigma2_martingale
    if sigma2 <= 0:
        raise DegenerateSigma("sigma2 must be positive")
    payload, e = path_functional_payload(L, mm)
    payload.update(n=n, seed=seed, checkpoints=(), want_max=False)
    res = _run_blocks(payload, trials, workers)
    stats = res["final"] / np.sqrt(sigma2 * n)
    ks = ks_distance(stats, standard_normal_cdf)
    return CltResult(stats, ks, dkw_band(trials), float(sigma2), var, e, n, trials, seed)


@dataclass
class InvarianceResult:
    terminal: np.ndarray
    increments: np.ndarray  # (trials, 4) dyadic block increments, normalized
    sup_stats: np.ndarray
    ks_terminal: float
    ks_sup: float
    max_abs_corr: float
    corr: np.ndarray
    sigma2: float
    n: int
    trials: int
    seed: int

    def summary(self):
        return {
            "ks_terminal": self.ks_terminal,
            "ks_sup": self.ks_sup,
            "max_abs_increment_corr": self.max_abs_corr,
            "corr_threshold_3_over_sqrt_trials": 3.0 / np.sqrt(self.trials),
            "sigma2": self.sigma2,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
        }


def invariance_experiment(L, mm, n, trials, seed, workers=1, sigma2=None):
    """Donsker-type checks: normal terminal law, uncorrelated dyadic
    increments, and the reflection-principle law of the running maximum."""
    if n < 4 or n % 4:
        raise ValueError(f"n must be a multiple of 4 and >= 4, got {n}")
    if trials == 1:
        raise ValueError("trials must be >= 2 for a correlation, got 1")
    if sigma2 is None:
        sigma2 = sigma2_of(L, mm).sigma2_martingale
    payload, _ = path_functional_payload(L, mm)
    cps = (n // 4, n // 2, 3 * n // 4, n)
    payload.update(n=n, seed=seed, checkpoints=cps, want_max=True)
    res = _run_blocks(payload, trials, workers)
    scale = np.sqrt(sigma2 * n)
    terminal = res["final"] / scale
    checks = res["checks"] / scale
    incr = np.empty_like(checks)
    incr[:, 0] = checks[:, 0]
    incr[:, 1:] = checks[:, 1:] - checks[:, :-1]
    corr = np.corrcoef(incr, rowvar=False)
    off = corr - np.eye(4)
    sup_stats = res["runmax"] / scale
    return InvarianceResult(
        terminal,
        incr,
        sup_stats,
        ks_distance(terminal, standard_normal_cdf),
        ks_distance(sup_stats, reflection_sup_cdf),
        float(np.abs(off).max()),
        corr,
        float(sigma2),
        n,
        trials,
        seed,
    )


_LIL_START = 1000  # the LIL statistic starts at n = 1000 or later


@dataclass
class LilResult:
    sup_stat: float
    argmax_n: int
    n_min: int
    n_max: int
    sigma2: float
    series: list  # (n, statistic) on a geometric grid, for plotting/CSV

    def summary(self):
        return {
            "sup_stat": self.sup_stat,
            "argmax_n": self.argmax_n,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "sigma2": self.sigma2,
        }


def lil_experiment(L, mm, n_max, seed, sigma2=None, trial=0):
    """Running S_n / sqrt(2 n sigma^2 loglog(n sigma^2)) along one orbit, from
    n = max(_LIL_START, ceil(e / sigma2)), where loglog(n sigma^2) > 0."""
    if sigma2 is None:
        sigma2 = sigma2_of(L, mm).sigma2_martingale
    start = max(_LIL_START, int(np.ceil((np.e + 1e-9) / sigma2)))
    if n_max < start:
        raise ValueError(f"n_max {n_max} < start index {start} = max({_LIL_START}, ceil(e / sigma2))")
    payload, _ = path_functional_payload(L, mm)
    ns = np.arange(start, n_max + 1)
    payload.update(n=n_max, seed=seed, checkpoints=ns, want_max=False)
    S = _run_blocks(payload, 1, first=trial)["checks"][0]  # S_n - n e for n = start..n_max
    t = ns * sigma2
    stat = S / np.sqrt(2.0 * t * np.log(np.log(t)))
    k = int(np.argmax(stat))
    grid = np.unique(np.geomspace(start, n_max, 200).astype(np.int64))
    series = [(int(n), float(S[n - start] / np.sqrt(2 * n * sigma2 * np.log(np.log(n * sigma2)))))
              for n in grid]
    return LilResult(float(stat[k]), int(ns[k]), start, n_max, float(sigma2), series)


@dataclass
class DeviationResult:
    rows: list  # per-n: {n, count, p_hat, log_p, zero}
    slope: float | None  # fitted decay rate of log p_hat vs n
    gauss_rows: list
    gauss_slope: float | None
    delta: float
    trials: int
    seed: int

    def summary(self):
        return {
            "delta": self.delta,
            "slope": self.slope,
            "gauss_slope": self.gauss_slope,
            "rows": self.rows,
            "gauss_rows": self.gauss_rows,
            "trials": self.trials,
            "seed": self.seed,
        }


def _weighted_line_fit(xs, ys, ws):
    xs, ys, ws = map(np.asarray, (xs, ys, ws))
    W = ws.sum()
    xbar = (ws * xs).sum() / W
    ybar = (ws * ys).sum() / W
    den = (ws * (xs - xbar) ** 2).sum()
    if den == 0:
        return None
    return float((ws * (xs - xbar) * (ys - ybar)).sum() / den)


def _tail_table(hits, key, levels, xs):
    """Rows {key: level, count, p_hat, log_p, zero} of a trials x levels hit matrix
    (p_hat = 3 / trials, the rule-of-three bound, where none hit) and the
    count-weighted line fit of log p_hat on xs over the rows with hits (None below two)."""
    trials, rows, fit = len(hits), [], []
    for level, x, count in zip(levels, xs, hits.sum(axis=0).tolist()):
        log_p = float(np.log(count / trials)) if count else None
        rows.append({key: level, "count": count, "p_hat": count / trials if count else 3.0 / trials,
                     "log_p": log_p, "zero": count == 0})
        if count:
            fit.append((x, log_p, count))
    return rows, (_weighted_line_fit(*zip(*fit)) if len(fit) >= 2 else None)


def deviation_experiment(L, mm, n_list, trials, delta, seed, workers=1):
    """Tail tables P(S_n / n >= delta) with a log-linear rate fit, plus the
    Gaussian-scale tail P(S_n / sqrt(n) >= delta') at the largest n."""
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError(f"n_list entries must be >= 1, got {n_list}")
    n_max = n_list[-1]
    payload, e = path_functional_payload(L, mm)
    payload.update(n=n_max, seed=seed, checkpoints=tuple(n_list), want_max=False)
    checks = _run_blocks(payload, trials, workers)["checks"]
    rows, slope = _tail_table(checks / np.array(n_list) >= delta, "n", n_list, n_list)
    gauss = (0.5, 1.0, 1.5, 2.0)
    gauss_rows, gauss_slope = _tail_table(
        (checks[:, -1] / np.sqrt(n_max))[:, None] >= np.array(gauss), "delta", gauss,
        [dg**2 for dg in gauss])
    return DeviationResult(rows, slope, gauss_rows, gauss_slope, delta, trials, seed)


def bernoulli_rate(delta):
    """Cramér rate for iid ±1/2 steps at mean-threshold delta (KL closed form)."""
    q = 0.5 + delta
    return float(q * np.log(2 * q) + (1 - q) * np.log(2 * (1 - q)))
