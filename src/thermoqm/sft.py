"""Validated subshifts of finite type and their word combinatorics.

Symbols are 0-based internally; file formats render them 1-based.  Words are
arrays, with tuple views: the words of one length are one (count, n) array of
`symbol_dtype(d)` symbols (`Sft.word_array`, about n bytes per word).  Up to
_JOIN_WORDS words it is built one successor column at a time; above, it is a
lexicographic join of two about half-length arrays, O(|W_n| n) bytes moved,
built in consecutive slices of about _SLICE_CELLS symbols (`Sft.word_slices`
hands them out one by one, for consumers that stream).  The peak is at most
about 2n + 16 bytes a word (3n + 16 for the wrapping words) while W_n fits one
slice, and n bytes a word plus about 4 MB of slice temporaries beyond.  All
enumerations are in lexicographic order and all
tie-breaking (connectors, lifts, star words) is shortest-then-lexicographic,
so every operation here is a deterministic function of its inputs.

Counts |W_n| = sum R^(n-1) and trace(R^n) are exact: powers of R over Python
ints (`Sft._R_intpow`), which never wrap at 2^63.

`window_codes` is the one base-d coding of windows.  The one way from a
cylinder index to a shorter one is `WordIndex.prefix(j)` / `suffix(j)`, the
position of each word's first or last j symbols among the j-words, and a table
on the words of one depth is written and read as {rendered word: value} JSON
by `WordIndex.render_table` / `parse_table`.

Kept without an op: `Sft.star` (demo 01).
"""

from __future__ import annotations

import contextvars
import functools
import json
import os

import numpy as np

from .errors import InvalidMatrix, NotPrimitive, ResourceLimit

DEFAULT_WORD_CAP = 10**8
WORD_CAP_ENV = "THERMOQM_MAX_WORDS"
SCOPED_WORD_CAP = contextvars.ContextVar("thermoqm_word_cap", default=None)

Word = tuple
_DENSE_TABLE = 8  # code lookups use a d**depth table up to this many entries a word
_JOIN_WORDS = 1024  # word_array joins two shorter arrays above this many words (CHANGES.md)
_SLICE_CELLS = 1 << 20  # symbols of W_n a slice of Sft.word_slices is built from


def word_cap():
    """Effective enumeration cap: SCOPED_WORD_CAP > env override > default."""
    scoped = SCOPED_WORD_CAP.get()
    if scoped is not None:
        return int(scoped)
    env = os.environ.get(WORD_CAP_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_WORD_CAP


class WordIndex:
    """Bijection between the admissible words of one depth and 0..count-1.

    Index order is lexicographic, equivalently numeric order of the base-d
    codes, so the mapping is stable across calls.  The tuple views of the
    word array, and their positions, are built on first use.
    """

    def __init__(self, sft, depth, array):
        self.sft = sft
        self.depth = depth
        self.array = array
        self.codes = window_codes(array, 0, depth, sft.d)
        self._maps = {}

    @functools.cached_property
    def words(self):
        return [tuple(w) for w in self.array.tolist()]

    @functools.cached_property
    def _pos(self):
        return {w: i for i, w in enumerate(self.words)}

    def __len__(self):
        return len(self.codes)

    def __contains__(self, word):
        return tuple(word) in self._pos

    def index(self, word):
        return self._pos[tuple(word)]

    def word(self, i):
        return self.words[i]

    def index_of_words(self, texts):
        """Positions of rendered words (`render_word`) of this depth, parsed and
        looked up together; comma-separated ones one at a time.  A symbol out
        of range raises ValueError, a word of another length or one that is
        not admissible KeyError, as `index(parse_word(text, d))` would."""
        texts, d, k = list(texts), self.sft.d, self.depth
        if any(len(text) != k or "," in text for text in texts):
            return np.array([self.index(parse_word(text, d)) for text in texts], dtype=np.int64)
        syms = np.frombuffer("".join(texts).encode("ascii"), np.uint8).reshape(len(texts), k)
        syms = syms.astype(np.int64) - ord("1")
        bad = ((syms < 0) | (syms >= d)).any(axis=1)
        if bad.any():
            raise ValueError(f"symbol out of range in {texts[int(bad.argmax())]!r}")
        return self.index_of_codes(window_codes(syms, 0, k, d))

    def render_table(self, values):
        """{rendered word: value} of a table on these words, in index order."""
        return {render_word(w): float(v) for w, v in zip(self.words, values)}

    def parse_table(self, table):
        """The table on these words that `render_table` wrote as {rendered word:
        value}; words left out are 0, and bad words raise as in index_of_words."""
        values = np.zeros(len(self))
        values[self.index_of_words(table)] = [float(v) for v in table.values()]
        return values

    @functools.cached_property
    def _table(self):
        table = np.full(self.sft.d**self.depth, -1, dtype=np.int64)
        table[self.codes] = np.arange(len(self.codes))
        return table

    def index_of_codes(self, codes):
        """Vectorized code -> index lookup; codes must all be admissible."""
        if self.sft.d**self.depth <= _DENSE_TABLE * len(self.codes):
            idx = self._table.take(codes)
            if np.any(idx < 0):
                raise KeyError("inadmissible word code in lookup")
            return idx
        idx = np.searchsorted(self.codes, codes)
        if np.any(idx >= len(self.codes)) or np.any(self.codes[idx] != codes):
            raise KeyError("inadmissible word code in lookup")
        return idx

    def prefix(self, j):
        """Position among the j-words of each word's first j symbols; with
        j = 0 every word maps to 0, the empty word.  Computed once per j."""
        return self._map("prefix", j)

    def suffix(self, j):
        """Position among the j-words of each word's last j symbols, as prefix."""
        return self._map("suffix", j)

    def _map(self, side, j):
        if not 0 <= j <= self.depth:
            raise ValueError(f"a {self.depth}-word has no {j}-symbol {side}")
        if (side, j) not in self._maps:
            d = self.sft.d
            codes = self.codes // d ** (self.depth - j) if side == "prefix" else self.codes % d**j
            out = self.sft.cylinders(j).index_of_codes(codes) if j else np.zeros(len(self), np.int64)
            out.flags.writeable = False  # one array for every caller
            self._maps[side, j] = out
        return self._maps[side, j]


class BlockGraph:
    """The depth-t block graph: its states are the admissible t-words, its
    edges the admissible (t+1)-words, each from its t-prefix to its t-suffix.

    Edges are listed in (state, symbol) order, which is the lexicographic
    order of their (t+1)-words, so edge e is word e of ``cylinders(t + 1)``
    and ``src`` / ``dst`` are its prefix(t) / suffix(t); ``ext`` holds those
    words' base-d codes.  ``pred[j, a]`` is the edge into
    state j from the state that starts with symbol a, or -1 where there is none.
    """

    def __init__(self, sft, t):
        d = sft.d
        self.t = t
        self.states = sft.cylinders(t)
        self.codes = self.states.codes
        self.src, self.sym = np.nonzero(sft.R[self.codes % d])
        self.ext = self.codes[self.src] * d + self.sym
        self.dst = self.states.index_of_codes(self.ext % d**t)
        self.pred = np.full((len(self.codes), d), -1, dtype=np.int64)
        self.pred[self.dst, self.ext // d**t] = np.arange(len(self.ext))

    def __len__(self):
        return len(self.codes)

    def matrix(self, w):
        """Dense S x S matrix with M[dst, src] = w[e] on each edge e."""
        M = np.zeros((len(self), len(self)))
        M[self.dst, self.src] = w
        return M

    def incoming(self, w):
        """(S, d) weights and source states of the edges into each state,
        zero weight (and source 0) where pred is -1."""
        has = self.pred >= 0
        return np.where(has, w[self.pred], 0.0), np.where(has, self.src[self.pred], 0)


class Sft:
    """A primitive subshift of finite type with its specification data."""

    def __init__(self, R, name=None):
        R = np.asarray(R)
        if R.ndim != 2 or R.shape[0] != R.shape[1] or R.shape[0] == 0:
            raise InvalidMatrix("transition matrix must be square and nonempty")
        if not np.isin(R, (0, 1)).all():
            raise InvalidMatrix("transition matrix entries must be 0 or 1")
        R = R.astype(np.int8)
        if (R.sum(axis=1) == 0).any() or (R.sum(axis=0) == 0).any():
            raise InvalidMatrix("transition matrix has an all-zero row or column")
        self.R = R
        self.d = R.shape[0]
        self.name = name
        self._reach = self._reach_powers()  # boolean reachability by path length, for connectors
        self.M = len(self._reach) - 2
        self.successors = [tuple(int(s) for s in np.nonzero(R[i])[0]) for i in range(self.d)]
        self.predecessors = [tuple(int(s) for s in np.nonzero(R[:, j])[0]) for j in range(self.d)]
        self.connectors = {
            (i, j): self._least_path(i, j, self.M - 1)
            for i in range(self.d)
            for j in range(self.d)
        }
        self._cyl = {}
        self._graphs = {}
        self._intpow = {}

    def _reach_powers(self):
        """The boolean powers R^0, .., R^(M + 1) of R, for M the specification
        constant: the first power of R with every entry positive."""
        B = self.R.astype(np.int64)
        reach = [np.eye(self.d, dtype=bool), B > 0]
        while not reach[-1].all():
            if len(reach) > (self.d - 1) ** 2 + 1:  # no positive power up to Wielandt's bound
                if not np.logical_or.reduce(reach[1:]).all():
                    raise NotPrimitive("matrix is reducible: some symbol pairs are never joinable")
                raise NotPrimitive("matrix is irreducible but periodic: "
                                   "no positive power up to the Wielandt bound")
            reach.append((reach[-1].astype(np.int64) @ B) > 0)
        return reach + [(reach[-1].astype(np.int64) @ B) > 0]

    def _least_path(self, i, j, length):
        """Lexicographically least word u with i.u.j admissible, |u| = length."""
        if length == 0:
            if not self.R[i, j]:
                raise NotPrimitive("no connector of the required length")
            return ()
        out = []
        cur = i
        for step in range(length):
            remaining = length - step  # symbols still to place after choosing one
            placed = False
            for s in self.successors[cur]:
                if self._reach[remaining][s, j]:
                    out.append(s)
                    cur = s
                    placed = True
                    break
            if not placed:
                raise NotPrimitive("no connector of the required length")
        return tuple(out)

    # -- integer counting -------------------------------------------------

    def _R_intpow(self, n):
        """R^n as an object array of exact Python ints, cached by n."""
        if n not in self._intpow:
            self._intpow[n] = np.linalg.matrix_power(self.R.astype(object), n)
        return self._intpow[n]

    def word_count(self, n):
        """Exact |W_n| as a python int: the entry sum of R^(n-1)."""
        return int(self._R_intpow(n - 1).sum()) if n else 1

    def periodic_count(self, n):
        """Exact trace(R^n) = number of length-n wrapping words."""
        return int(self._R_intpow(n).trace())

    # -- membership -------------------------------------------------------

    def is_word(self, word):
        R = self.R
        return all(R[a, b] for a, b in zip(word, word[1:]))

    def wraps(self, word):
        return len(word) >= 1 and self.is_word(word) and self.R[word[-1], word[0]] == 1

    # -- enumeration ------------------------------------------------------

    def word_array(self, n, periodic=False):
        """All admissible words of length n as a (count, n) symbol array, in
        lexicographic order; with periodic=True only the wrapping ones.  The
        word cap applies to |W_n| and is checked before anything is allocated."""
        parts = self.word_slices(n, periodic)
        if self.word_count(n) * n <= _SLICE_CELLS:
            return next(parts)  # W_n fits one slice
        out = np.empty((self.periodic_count(n) if periodic else self.word_count(n), n),
                       symbol_dtype(self.d))
        row = 0
        for part in parts:
            out[row:row + len(part)] = part
            row += len(part)
        return out

    def word_slices(self, n, periodic=False):
        """word_array(n, periodic) as an iterator of consecutive row slices, each
        from about _SLICE_CELLS symbols of W_n; the cap is checked on this call."""
        if n < int(periodic):
            raise ValueError("periodic words have length >= 1" if periodic
                             else "word length must be >= 0")
        count = self.word_count(n)
        if count > word_cap():
            raise ResourceLimit(f"|W_{n}| = {count} exceeds the word cap")
        if n < 3 or count <= _JOIN_WORDS:
            return iter([self._successor_words(n, periodic)])
        return self._joined_words(n, periodic)

    def _successor_words(self, n, periodic):
        """One successor expansion per column: cheapest for short lists of words."""
        dt = symbol_dtype(self.d)
        arr = np.arange(self.d, dtype=dt)[:, None] if n else np.zeros((1, 0), dtype=dt)
        for _ in range(n - 1):
            # successors of each row's last symbol, rows in order: stays lexicographic
            rows, syms = np.nonzero(self.R[arr[:, -1]])
            arr = np.concatenate([arr[rows], syms.astype(dt)[:, None]], axis=1)
        return arr[self.R[arr[:, -1], arr[:, 0]] == 1] if periodic else arr

    def _joined_words(self, n, periodic):
        """W_n, n >= 3, as consecutive lexicographic slices, by a join of two
        shorter word arrays.  Every n-word is h[:-1] + t for one h in H = W_j,
        j = ceil(n/2), and one t in T = W_{n-j+1} with t[0] == h[-1]; in order
        the words come grouped by h, and each group is the contiguous run of
        T's rows that start with h[-1].  A block of H's rows is one slice."""
        j = (n + 1) // 2
        H, T = self.word_array(j), self.word_array(n - j + 1)
        start = np.searchsorted(T[:, 0], np.arange(self.d))  # T's first row starting with a
        runs = np.diff(start, append=len(T))[H[:, -1]]  # words from each row of H
        ends = np.cumsum(runs)
        # a head h[:-1] and a tail t as one opaque item each: a row copies in one move
        heads = np.ascontiguousarray(H[:, :-1]).view(f"V{(j - 1) * H.itemsize}")[:, 0]
        tails = T.view(f"V{T.shape[1] * T.itemsize}")[:, 0]
        layout = np.dtype([("head", heads.dtype), ("tail", tails.dtype)])
        step = max(1, _SLICE_CELLS // n)
        lo = 0
        while lo < len(H):
            hi = max(lo + 1, int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + step, "right")))
            r = runs[lo:hi]
            part = np.empty((int(r.sum()), n), H.dtype)
            fields = part.view(layout)[:, 0]
            fields["head"] = np.repeat(heads[lo:hi], r)
            rows = np.repeat(start[H[lo:hi, -1]] - (np.cumsum(r) - r), r) + np.arange(len(part))
            fields["tail"] = tails.take(rows)
            yield part[self.R[part[:, -1], part[:, 0]] == 1] if periodic else part
            lo = hi

    def words(self, n):
        """All admissible words of length n as tuples, lexicographic."""
        return [tuple(w) for w in self.word_array(n).tolist()]

    def periodic_words(self, n):
        """All wrapping words of length exactly n as tuples, lexicographic."""
        return [tuple(w) for w in self.word_array(n, periodic=True).tolist()]

    def cylinders(self, k):
        """Cached WordIndex for depth k >= 1."""
        if k < 1:
            raise ValueError("cylinder depth must be >= 1")
        if k not in self._cyl:
            self._cyl[k] = WordIndex(self, k, self.word_array(k))
        return self._cyl[k]

    def block_graph(self, t):
        """Cached BlockGraph on the depth-t cylinders, t >= 1."""
        if t not in self._graphs:
            self._graphs[t] = BlockGraph(self, t)
        return self._graphs[t]

    # -- periodic closure operations ---------------------------------------

    def lift(self, word):
        """Shortest (then lexicographically least) periodic extension word.u."""
        word = tuple(word)
        if len(word) < 1:
            raise ValueError("lift needs a nonempty word")
        if not self.is_word(word):
            raise ValueError("word is not admissible")
        last, first = word[-1], word[0]
        for ell in range(0, self.M + 1):
            if self._reach[ell + 1][last, first]:
                return word + self._least_path(last, first, ell)
        raise NotPrimitive("no periodic extension within the specification bound")

    def star(self, a, b):
        """Deterministic periodic concatenation a.u.b.v with |u|, |v| <= M."""
        a, b = tuple(a), tuple(b)
        if not self.wraps(a) or not self.wraps(b):
            raise ValueError("star needs periodic inputs")
        for lu in range(0, self.M + 1):
            if not self._reach[lu + 1][a[-1], b[0]]:
                continue
            u = self._least_path(a[-1], b[0], lu)
            for lv in range(0, self.M + 1):
                if self._reach[lv + 1][b[-1], a[0]]:
                    v = self._least_path(b[-1], a[0], lv)
                    return a + u + b + v
        raise NotPrimitive("no star word within the specification bound")

    # -- word helpers -------------------------------------------------------

    def cyclic_window(self, word, start, width):
        """width symbols of the bi-infinite repetition of word, from position start."""
        n = len(word)
        return tuple(word[(start + i) % n] for i in range(width))

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {"d": int(self.d), "rows": [[int(x) for x in row] for row in self.R]}

    @classmethod
    def from_json(cls, obj, name=None):
        rows = obj["rows"]
        if "d" in obj and int(obj["d"]) != len(rows):
            raise InvalidMatrix("declared d does not match the number of rows")
        return cls(rows, name=name)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh), name=os.path.basename(path))

    def __repr__(self):
        tag = self.name or f"{self.d}x{self.d}"
        return f"Sft({tag}, M={self.M})"


def full_shift(d):
    return Sft(np.ones((d, d), dtype=int), name=f"full_shift({d})")


def golden_mean():
    return Sft([[1, 1], [1, 0]], name="golden_mean")


def symbol_dtype(d):
    """Smallest signed integer dtype that holds the symbols 0..d-1."""
    for dt in (np.int8, np.int16, np.int32):
        if d - 1 <= np.iinfo(dt).max:
            return dt
    return np.int64


def window_codes(arr, start, width, d):
    """int64 base-d codes (Horner, most significant first) of the width-symbol
    windows of the rows of a symbol array from column start, wrapping cyclically."""
    code = np.zeros(len(arr), dtype=np.int64)
    for k in range(width):
        code = code * d + arr[:, (start + k) % arr.shape[1]]
    return code


def render_word(word):
    """1-based external rendering; comma separated once symbols pass 9, with a
    trailing comma on a one-symbol word ("10,") so it differs from "1", "0"."""
    syms = [str(s + 1) for s in word]
    return ",".join(syms) + "," * (len(syms) == 1) if any(s > 8 for s in word) else "".join(syms)


def render_words(arr):
    """render_word of every row of a symbol array, one per line: one byte
    per symbol when no symbol passes 9.  Otherwise each symbol is a fixed-width
    cell, its digits and then a comma, and a mask drops the unused bytes: the
    pad of short numbers, the comma of the last symbol (kept on a one-symbol
    word) and every comma of a row whose symbols all stay within 9."""
    if not arr.size or arr.max() <= 8:
        out = np.full((arr.shape[0], arr.shape[1] + 1), ord("\n"), dtype=np.uint8)
        np.add(arr, ord("1"), out=out[:, :-1], casting="unsafe")
        return str(out, "ascii")
    rows, n = arr.shape
    names = [str(s + 1).encode() for s in range(int(arr.max()) + 1)]
    width = max(map(len, names)) + 1
    text = np.array([name.ljust(width, b",") for name in names], dtype=f"V{width}")
    used = np.array([b"\1" * len(name) + b"\0" * (width - len(name)) for name in names],
                    dtype=f"V{width}")  # as bools
    cells = np.empty((rows, n * width + 1), dtype=np.uint8)
    cells[:, :-1] = text[arr].view(np.uint8).reshape(rows, -1)
    cells[:, -1] = ord("\n")
    keep = np.ones(cells.shape, dtype=bool)
    keep[:, :-1] = used[arr].view(bool).reshape(rows, -1)
    keep[:, width - 1:-1:width] = (arr > 8).any(axis=1)[:, None] & ((np.arange(n) < n - 1) | (n == 1))
    return str(cells[keep].tobytes(), "ascii")


def parse_word(text, d):
    """Inverse of render_word."""
    if text == "":
        return ()
    parts = text.removesuffix(",").split(",") if "," in text else list(text)
    word = tuple(int(p) - 1 for p in parts)
    if any(s < 0 or s >= d for s in word):
        raise ValueError(f"symbol out of range in {text!r}")
    return word
