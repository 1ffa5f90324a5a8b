"""One window-additive quasimorphism type: `WindowQm` and its edge form against
a frozen copy of the kernel-by-kernel evaluator it replaced, and the empty
kernel set as the zero quasimorphism on every op."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from thermoqm import cli
from thermoqm.errors import InvalidMatrix, NotPrimitive
from thermoqm.qm import Quasimorphism, WindowQm
from thermoqm.sft import Sft, window_codes

from oracles import encode_word

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
MAX_N = {1: 8, 2: 8, 3: 6, 4: 5}  # about 1k words or fewer per length


# -- frozen reference ----------------------------------------------------------------


def _inside(n):
    return lambda q, i0: int(i0 <= n - q)


def _repeats(n, m):
    return lambda q, i0: (m * n - q - i0) // n + 1 if i0 <= m * n - q else 0


def _once(q, i0):
    return 1


class OldWindowAdditive(Quasimorphism):
    """The kernel-by-kernel evaluator before `WindowQm`: per-word tuple sums
    beside per-array sums, over kernels {width: {window: coef}}."""

    def __init__(self, kernels):
        self.kernels = kernels

    def _kernels(self):
        return list(self.kernels.items())

    def _dense_kernels(self, d):
        for q, table in self._kernels():
            arr = np.zeros(d ** q)
            for win, coef in table.items():
                arr[encode_word(win, d)] += coef
            yield q, arr

    def _sum(self, word, count):
        word = tuple(word)
        total = 0.0
        for q, table in self._kernels():
            ext = word * (q // max(len(word), 1) + 2)
            for i0 in range(len(word)):
                c = count(q, i0)
                if c:
                    total += c * table.get(ext[i0:i0 + q], 0.0)
        return total

    def _sums(self, arr, d, count):
        total = np.zeros(len(arr))
        for q, table in self._dense_kernels(d):
            for i0 in range(arr.shape[1]):
                c = count(q, i0)
                if c:
                    total += c * table[window_codes(arr, i0, q, d)]
        return total

    def value(self, word):
        return self._sum(word, _inside(len(word)))

    def values(self, arr, d):
        return self._sums(arr, d, _inside(arr.shape[1]))

    def power_value(self, word, m):
        return self._sum(word, _repeats(len(word), m))

    def power_values(self, arr, d, m):
        return self._sums(arr, d, _repeats(arr.shape[1], m))

    def homogenized_value(self, word, m=None):
        return self._sum(word, _once)

    def homogenized_values(self, arr, d):
        return self._sums(arr, d, _once)


# -- strategies ----------------------------------------------------------------------


@st.composite
def primitive_sfts(draw):
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    try:
        return Sft(rows)
    except (InvalidMatrix, NotPrimitive):
        assume(False)


@st.composite
def cases(draw):
    sft = draw(primitive_sfts())
    d = sft.d
    integer = draw(st.booleans())
    coef = st.integers(-3, 3).map(float) if integer else st.floats(-1.5, 1.5, allow_nan=False)
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    kernels = {q: draw(st.dictionaries(st.tuples(*[st.integers(0, d - 1)] * q), coef, max_size=6))
               for q in widths}
    return sft, kernels, integer


def _scale(kernels):
    """The same windows with |coef|: what bounds the rounding of a sum of them."""
    return WindowQm({q: {w: abs(c) for w, c in t.items()} for q, t in kernels.items()}, 0.0)


def _close(got, want, exact, scale):
    if exact:
        return np.array_equal(got, want)
    return bool(np.all(np.abs(got - want) <= 1e-12 * scale))


# -- the edge form against the frozen evaluator -------------------------------------------


@PROPERTY
@given(cases())
def test_edge_form_sums_equal_the_frozen_evaluator(case):
    sft, kernels, integer = case
    L, old, d = WindowQm(kernels, 0.0), OldWindowAdditive(kernels), sft.d
    g, f, start = L.edge_form(sft)
    assert L.edge_form(sft) is L.edge_form(sft)  # computed once per SFT
    t = g.t
    assert t == max(max(kernels) - 1, 1)
    edges = sft.cylinders(t + 1)
    for n in range(1, MAX_N[d] + 1):
        for periodic in (False, True):
            arr = sft.word_array(n, periodic=periodic)
            if not len(arr):
                continue
            words = arr.tolist()
            for m in (1, 3):  # width 1 alone: m L(a), which rounds as m times the sum
                want = old.power_values(arr, d, m)
                assert [L.power_value(w, m) for w in words] == list(L.power_values(arr, d, m))
                assert _close(L.power_values(arr, d, m), want, integer or set(kernels) != {1},
                              _scale(kernels).power_values(arr, d, m))
            want = old.values(arr, d)
            assert np.array_equal(L.values(arr, d), want)  # the array path is unchanged
            assert [L.value(w) for w in words] == [old.value(w) for w in words]
            if n >= t:  # the start term plus the path sum of f
                path = start[g.states.index_of_codes(window_codes(arr, 0, t, d))]
                for j in range(n - t):
                    path = path + f[edges.index_of_codes(window_codes(arr, j, t + 1, d))]
                assert _close(path, want, integer, _scale(kernels).values(arr, d))
            if periodic:  # the cycle sum of f
                want = old.homogenized_values(arr, d)
                assert np.array_equal(L.homogenized_values(arr, d), want)
                cycle = np.zeros(len(arr))
                for j in range(n):
                    cycle = cycle + f[edges.index_of_codes(window_codes(arr, j, t + 1, d))]
                assert _close(cycle, want, integer, _scale(kernels).homogenized_values(arr, d))


def test_word_kinds_without_tables_have_no_edge_form():
    sft = Sft([[1, 1], [1, 0]])
    assert Quasimorphism().edge_form(sft) is None
    with pytest.raises(ValueError, match="not window-additive"):
        Quasimorphism().step_potential(sft)


# -- the empty kernel set --------------------------------------------------------------


F2 = {"builtin": "full_shift", "d": 2}
CHAIN = {"kind": "gibbs_chain", "qm": {"kind": "zero"}}
QM_OPS = [
    ("pressure", {"n_max": 8}),
    ("gibbs", {"N": 8, "depth": 3}),
    ("gibbs-check", {"N": 8, "depth": 3}),
    ("variational", {"n_max": 8, "candidates": [{"name": "parry"}]}),
    ("komlos", {"n_list": [4, 6], "depth": 3}),
    ("livsic", {"qm2": {"kind": "zero"}, "n_max": 6}),
    ("variance", {}),
    ("clt", {"n": 64, "trials": 200, "seed": 3, "chain": {"kind": "parry"}}),
    ("invariance", {"n": 64, "trials": 200, "seed": 3, "chain": {"kind": "parry"}}),
    ("lil", {"n_max": 256, "seed": 3}),
    ("deviations", {"n_list": [16, 32], "trials": 200, "delta": 0.2, "seed": 3}),
]


def _summary(op, cfg, qm, tmp_path):
    code, summary = cli.execute(op, {"sft": F2, "qm": qm, **cfg}, str(tmp_path / op))
    summary = json.loads(json.dumps(summary))
    summary.pop("config", None)
    return code, summary


def test_empty_linear_combination_is_the_zero_quasimorphism(tmp_path):
    empty = {"kind": "linear_combination", "terms": []}
    for op, cfg in QM_OPS:
        got = _summary(op, cfg, empty, tmp_path / "empty")
        want = _summary(op, cfg, {"kind": "zero"}, tmp_path / "zero")
        assert got == want, op


# -- the tables' budget ----------------------------------------------------------------


def test_window_tables_are_refused_past_the_word_cap():
    """The tables count their Σ d^q cells against the word cap before
    allocating: at the default cap a 14-letter Brooks pattern on F2 (4^14
    floats, 2.1 GB) is refused.  Checked here under a cap of 4^6 with patterns
    of 7 and 8 letters, so that not even a broken check builds a large table."""
    from thermoqm.errors import ResourceLimit
    from thermoqm.freegroup import FreeGroup, brooks
    from thermoqm.sft import SCOPED_WORD_CAP

    G = FreeGroup(2)
    token = SCOPED_WORD_CAP.set(4**6)
    try:
        for pattern in ("abaBabbA", "abaBabb"):
            with pytest.raises(ResourceLimit, match="window tables"):
                brooks(G, pattern).window_tables(4)
        assert brooks(G, "abaBab").window_tables(4)[6].shape == (4**6,)  # at the cap
    finally:
        SCOPED_WORD_CAP.reset(token)


def test_an_op_on_tables_past_the_cap_exits_3_with_a_summary(tmp_path):
    out = tmp_path / "variance"
    cfg = {"sft": {"builtin": "free_group", "rank": 2},
           "qm": {"kind": "brooks", "pattern": "abaBabbA"}}  # 4^8 cells
    assert cli.main(["variance", "--json", json.dumps(cfg), "--out", str(out),
                     "--cap", "10000"]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 3 and "window tables" in summary["error"]
