"""Words as symbol arrays: the enumeration, the words CSV, the array
evaluators and their consumers against frozen copies of the tuple-by-tuple
code they replaced, compared exactly (the same floats in the same order)."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from thermoqm import bowen, cli, thermo
from thermoqm import markov as mk
from thermoqm import measures as measures_module
from thermoqm import qm as qm_module
from thermoqm import sft as sft_module
from thermoqm.errors import InvalidMatrix, NotPrimitive, ResourceLimit
from thermoqm.freegroup import FreeGroup
from thermoqm.measures import CylinderMeasure
from thermoqm.qm import (
    LetterWeights,
    LinearCombinationQm,
    PatternCount,
    PerturbedQm,
    Quasimorphism,
    SignedPatternCount,
    TabulatedQm,
    WindowQm,
    _WindowAdditive,
    cohomologous,
    cyclic_average,
    defect,
    homogenize,
    zero_qm,
)
from thermoqm.sft import (
    SCOPED_WORD_CAP,
    Sft,
    full_shift,
    golden_mean,
    parse_word,
    render_word,
    render_words,
    symbol_dtype,
)

from oracles import encode_word

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
MAX_N = {2: 10, 3: 7, 4: 5, 12: 3}  # about 4k words or fewer per length


# -- frozen references ------------------------------------------------------------


def dfs_words(sft, n):
    """The tuple DFS that enumerated words before the arrays."""
    if n == 0:
        return [()]
    out = []
    stack = [(s,) for s in range(sft.d - 1, -1, -1)]
    while stack:
        w = stack.pop()
        if len(w) == n:
            out.append(w)
        else:
            for s in reversed(sft.successors[w[-1]]):
                stack.append(w + (s,))
    return out


def dfs_periodic(sft, n):
    return [w for w in dfs_words(sft, n) if sft.R[w[-1], w[0]]]


def old_render_word(word):
    syms = [str(s + 1) for s in word]
    return ",".join(syms) if any(s > 8 for s in word) else "".join(syms)


def old_words_csv(words):
    return "\n".join(["word"] + [old_render_word(w) for w in words]) + "\n"


def old_value(L, word):
    word = tuple(word)
    if isinstance(L, LinearCombinationQm):
        return sum(c * old_value(T, word) for c, T in L.terms)
    if isinstance(L, LetterWeights):
        return float(sum(L.weights[s] for s in word))
    if isinstance(L, _WindowAdditive):
        total = 0.0
        for q, table in L.kernels.items():
            if q <= len(word):
                for i in range(len(word) - q + 1):
                    total += table.get(word[i:i + q], 0.0)
        return total
    return L.value(word)


def old_power_value(L, word, m):
    word = tuple(word)
    if isinstance(L, LinearCombinationQm):
        return sum(c * old_power_value(T, word, m) for c, T in L.terms)
    if isinstance(L, LetterWeights):
        return m * old_value(L, word)
    if isinstance(L, _WindowAdditive):
        n = len(word)
        if n == 0 or m == 0:
            return 0.0
        total = 0.0
        for q, table in L.kernels.items():
            if q > m * n:
                continue
            for i0 in range(n):
                if i0 > m * n - q:
                    continue
                cnt = (m * n - q - i0) // n + 1
                win = tuple(word[(i0 + k) % n] for k in range(q))
                total += cnt * table.get(win, 0.0)
        return total
    return L.value(word * m)


def old_homogenized_value(L, word, m=64):
    word = tuple(word)
    if isinstance(L, LinearCombinationQm):
        return sum(c * old_homogenized_value(T, word, m) for c, T in L.terms)
    if isinstance(L, _WindowAdditive):
        n = len(word)
        total = 0.0
        for q, table in L.kernels.items():
            for i0 in range(n):
                win = tuple(word[(i0 + k) % n] for k in range(q))
                total += table.get(win, 0.0)
        return total
    return old_power_value(L, word, m) / m


def old_defect(L, sft, n_max):
    """The pair-by-pair defect loop: b-major, then a, first strict maximum."""
    best, arg, pairs = 0.0, ((), ()), 0
    for n in range(1, n_max):
        lefts = [(a, old_value(L, a)) for a in dfs_words(sft, n)]
        for m in range(1, n_max - n + 1):
            for b in dfs_words(sft, m):
                vb = old_value(L, b)
                for a, va in lefts:
                    if sft.R[a[-1], b[0]]:
                        pairs += 1
                        dev = abs(old_value(L, a + b) - va - vb)
                        if dev > best:
                            best, arg = dev, (a, b)
    return best, arg, pairs


def old_cyclic_average(L, word):
    word = tuple(word)
    n = len(word)
    return sum(old_value(L, word[j:] + word[:j]) for j in range(n)) / n


def old_qm_integral(mu, L, n):
    masses, words = mu.masses_at(n), mu.sft.cylinders(n).words
    return float(sum(m * old_value(L, w) for m, w in zip(masses, words)) / n)


def old_enumerated_log_partition(L, sft, n):
    vals = [old_value(L, a) for a in dfs_periodic(sft, n)]
    return float(logsumexp(vals)) if vals else -np.inf


def old_short_word_log_partition(kernels, sft, n):
    vals = []
    for a in dfs_periodic(sft, n):
        v = 0.0
        for q, table in kernels.items():
            for i in range(n - q + 1):
                v += table[encode_word(a[i:i + q], sft.d)]
        vals.append(v)
    return float(logsumexp(vals)) if vals else -np.inf


def old_gibbs_masses(L, sft, N, depth):
    words = dfs_periodic(sft, N)
    vals = np.array([old_homogenized_value(L, a) for a in words])
    weights = np.exp(vals - logsumexp(vals))
    arr = np.array(words, dtype=np.int64)
    masses = {}
    for k in range(1, depth + 1):
        idx = sft.cylinders(k)
        ext = np.concatenate([arr, arr[:, : k - 1]], axis=1) if k > 1 else arr
        powers = sft.d ** np.arange(k - 1, -1, -1, dtype=np.int64)
        codes = np.lib.stride_tricks.sliding_window_view(ext, k, axis=1) @ powers
        mass = np.zeros(len(idx))
        np.add.at(mass, idx.index_of_codes(codes.ravel()), np.repeat(weights / N, N))
        masses[k] = mass
    return masses


def old_cohomologous(L, L2, sft, n_max, resolution=1e-2):
    delta = max(L.defect_bound, L2.defect_bound)
    m = max(1, int(np.ceil(2.0 * delta / resolution)))
    max_width = 0.0
    for n in range(1, n_max + 1):
        for a in dfs_periodic(sft, n):
            v1, v2 = old_power_value(L, a, m) / m, old_power_value(L2, a, m) / m
            lo1, hi1 = v1 - L.defect_bound / m, v1 + L.defect_bound / m
            lo2, hi2 = v2 - L2.defect_bound / m, v2 + L2.defect_bound / m
            max_width = max(max_width, hi1 - lo1, hi2 - lo2)
            if not (lo1 <= hi2 and lo2 <= hi1):
                return "distinct", a, n, max_width
    verdict = "cohomologous" if max_width <= resolution * (1.0 + 1e-9) else "inconclusive"
    return verdict, None, n_max, max_width


def old_weak_bernoulli_joint(mu, n, N):
    sft = mu.sft
    idx_n = sft.cylinders(n)
    joint = np.zeros((len(idx_n), len(idx_n)))
    arr = mu.masses_at(2 * n + N)
    for i, w in enumerate(sft.cylinders(2 * n + N).words):
        joint[idx_n.index(w[:n]), idx_n.index(w[n + N:])] += arr[i]
    return joint


def old_invariance_defect(mu):
    worst = 0.0
    for k in mu.depths():
        if k + 1 not in mu.masses:
            continue
        cur, nxt = mu.sft.cylinders(k), mu.sft.cylinders(k + 1)
        pushed = np.zeros(len(cur))
        for i, w in enumerate(nxt.words):
            pushed[cur.index(w[1:])] += mu.masses[k + 1][i]
        worst = max(worst, float(np.abs(pushed - mu.masses[k]).max()))
    return worst


def old_komlos_zeta(L, sft, n):
    idx = sft.cylinders(n + 1)
    vals = np.empty(len(idx))
    for i, w in enumerate(idx.words):
        tot = 0.0
        for k in range(1, n + 1):
            tot += old_value(L, w[: k + 1]) - old_value(L, w[1: k + 1])
        vals[i] = tot / n
    return vals


def old_project_conditional(f, masses, s):
    sft = f.sft
    idx_deep, idx = sft.cylinders(f.m), sft.cylinders(s)
    num, den = np.zeros(len(idx)), np.zeros(len(idx))
    for i, w in enumerate(idx_deep.words):
        j = idx.index(w[:s])
        num[j] += masses[i] * f.values[i]
        den[j] += masses[i]
    return num / den


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


def sfts():
    return st.one_of(primitive_sfts(), st.sampled_from([golden_mean(), full_shift(12)]))


def patterns(d):
    return st.lists(st.integers(0, d - 1), min_size=1, max_size=3).map(tuple)


COEF = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda c: c != 0.0)


@st.composite
def qms(draw, sft, depth=2):
    """A quasimorphism of one kind on sft; tabulated kinds (word-by-word
    fallback) are tabulated on short words and extended by prefixes."""
    d = sft.d
    kind = draw(st.sampled_from(["zero", "letter_weights", "pattern_count", "signed",
                                 "linear_combination", "tabulated"]))
    if kind == "zero":
        return zero_qm(d)
    if kind == "letter_weights":
        return LetterWeights(draw(st.lists(COEF | st.just(0.0), min_size=d, max_size=d)))
    if kind == "pattern_count":
        return PatternCount(draw(patterns(d)))
    if kind == "signed":
        return SignedPatternCount(draw(patterns(d)), draw(patterns(d)))
    if kind == "tabulated":
        depth = 2 if d > 4 else 3
        tables = {n: {w: draw(COEF) for w in sft.words(n)} for n in range(1, depth + 1)}
        return TabulatedQm(tables, defect_bound=draw(st.floats(0.0, 3.0)), extend=True)
    if depth == 0:
        return PatternCount(draw(patterns(d)))
    terms = draw(st.lists(st.tuples(COEF, qms(sft, depth - 1)), min_size=1, max_size=3))
    return LinearCombinationQm(terms)


@st.composite
def sft_and_qm(draw):
    sft = draw(sfts())
    return sft, draw(qms(sft))


def small_ns(sft):
    return range(1, MAX_N.get(sft.d, 5) + 1)


# 0 -> 0, 1; 1 -> 2; 2 -> 0, 1, 2: R[a[-1], b[0]] and R[b[0], a[-1]] differ
NONSYMMETRIC = Sft([[1, 1, 0], [0, 0, 1], [1, 1, 1]])


class FirstMinusLast(Quasimorphism):
    """A kind that defines only `value`: u(x_0) - u(x_last)."""

    def __init__(self, u):
        self.u = u
        self.defect_bound = 2 * max(abs(x) for x in u)

    def value(self, word):
        return float(self.u[word[0]] - self.u[word[-1]]) if len(word) else 0.0


def every_kind(sft):
    """One quasimorphism of each kind on sft, real coefficients where a kind has any."""
    d = sft.d
    bump = TabulatedQm({1: {w: 0.1 * (1 + w[0]) for w in sft.words(1)},
                        2: {w: -0.07 * (w[0] - w[1]) for w in sft.words(2)}}, 0.0, extend=True)
    tabulated = TabulatedQm({n: {w: 0.3 * sum(w) - 0.11 * n for w in sft.words(n)}
                             for n in (1, 2, 3)}, 1.0, extend=True)
    return {
        "zero": zero_qm(d),
        "letter_weights": LetterWeights(np.linspace(-0.7, 1.3, d)),
        "pattern_count": PatternCount((d - 1, 0)),
        "signed": SignedPatternCount((0, 1), (1, d - 1, 0)),
        "window": WindowQm({3: {(0, 0, 1): 0.3, (2, 0, 1): -1.7}, 1: {(1,): 0.1}}, 2.0),
        "linear_combination": LinearCombinationQm([(0.3, PatternCount((0, 1))),
                                                   (-1.7, LetterWeights([0.1] * d)),
                                                   (2.9, tabulated)]),
        "tabulated": tabulated,
        "perturbed": PerturbedQm(SignedPatternCount((0, 1), (1, 0)), bump),
        "value_only": FirstMinusLast(np.linspace(1.0, -0.5, d)),
    }


# -- enumeration and rendering ------------------------------------------------------


@PROPERTY
@given(sfts())
def test_word_arrays_equal_the_dfs(sft):
    for n in [0] + list(small_ns(sft)):
        arr = sft.word_array(n)
        assert arr.shape == (sft.word_count(n), n) and arr.dtype == np.int8
        want = dfs_words(sft, n)
        assert [tuple(w) for w in arr.tolist()] == want == sft.words(n)
        if n:
            assert sft.periodic_words(n) == dfs_periodic(sft, n)
            assert len(sft.word_array(n, periodic=True)) == sft.periodic_count(n)
            idx = sft.cylinders(n)
            assert idx.words == want and idx.index(want[-1]) == len(want) - 1
            assert list(idx.codes) == [encode_word(w, sft.d) for w in want]


@PROPERTY
@given(sft=sfts(), periodic=st.booleans())
def test_words_csv_bytes_unchanged(tmp_path_factory, sft, periodic):
    n = max(small_ns(sft))
    out = tmp_path_factory.mktemp("words")
    code, _ = cli.execute("words", {"sft": sft.to_json(), "n": n, "periodic": periodic}, str(out))
    assert code == 0
    words = dfs_periodic(sft, n) if periodic else dfs_words(sft, n)
    # n >= 2: no one-symbol word, whose rendering above 9 gained a trailing comma
    assert (out / "words.csv").read_bytes() == old_words_csv(words).encode()


def test_words_csv_one_symbol_words_above_nine(tmp_path):
    code, _ = cli.execute("words", {"sft": {"builtin": "full_shift", "d": 12}, "n": 1},
                          str(tmp_path))
    assert code == 0
    want = "word\n" + "".join(f"{s}\n" for s in range(1, 10)) + "10,\n11,\n12,\n"
    assert (tmp_path / "words.csv").read_text() == want


def test_words_op_full_shift_18_is_fast(tmp_path):
    cfg = {"sft": {"builtin": "full_shift", "d": 2}, "n": 18}
    best = np.inf
    for _ in range(2):
        t = time.perf_counter()
        code, summary = cli.execute("words", cfg, str(tmp_path))
        best = min(best, time.perf_counter() - t)
    assert code == 0 and summary["count"] == 2**18
    assert best < 0.5, f"words op on full_shift(2), n = 18 took {best:.3f} s"


@pytest.mark.parametrize("periodic", [False, True])
def test_cap_raises_before_allocating(periodic, monkeypatch):
    sft = full_shift(2)
    monkeypatch.setenv("THERMOQM_MAX_WORDS", "1000")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match=r"^\|W_60\| = 1152921504606846976 exceeds"):
            sft.word_array(60, periodic=periodic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    with pytest.raises(ResourceLimit):
        sft.word_array(10, periodic=periodic)  # 1024 words > 1000
    assert len(sft.word_array(9, periodic=periodic)) == 512
    with pytest.raises(ResourceLimit):
        sft.words(10) if not periodic else sft.periodic_words(10)
    token = SCOPED_WORD_CAP.set(1000)
    try:
        with pytest.raises(ResourceLimit):
            sft.word_array(10, periodic=periodic)
    finally:
        SCOPED_WORD_CAP.reset(token)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 20).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.integers(0, d - 1), min_size=1, max_size=4))))
def test_render_parse_roundtrip_all_alphabets(case):
    d, word = case
    word = tuple(word)
    assert parse_word(render_word(word), d) == word
    assert render_words(np.array([word], dtype=np.int8)) == render_word(word) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(10, 300), st.integers(1, 5)).flatmap(lambda dn: st.tuples(
    st.just(dn[0]), st.lists(st.lists(st.integers(0, 8) | st.integers(0, dn[0] - 1),
                                      min_size=dn[1], max_size=dn[1]), min_size=1, max_size=40))))
def test_render_words_beyond_nine_equals_the_row_loop(case):
    # rows within 9 keep no commas, one-symbol rows their trailing comma
    d, words = case
    arr = np.array(words, dtype=symbol_dtype(d))
    assert render_words(arr) == "".join(render_word(w) + "\n" for w in words)


def test_one_symbol_words_render_unambiguously():
    assert render_word((9,)) == "10," and parse_word("10,", 12) == (9,)
    assert render_word((11,)) == "12," != render_word((0, 1)) == "12"
    assert render_word((0, 11)) == "1,12" and render_word((3,)) == "4"
    with pytest.raises(ValueError, match="out of range"):
        parse_word("10", 12)  # the digits 1, 0


@pytest.mark.parametrize("sft", [full_shift(12), FreeGroup(5).sft()], ids=["full12", "free5"])
def test_measure_json_roundtrip_beyond_nine_symbols(sft):
    mu = mk.parry_measure(sft).cylinder_measure(2)
    back = CylinderMeasure.from_json(sft, mu.to_json())
    for k in (1, 2):
        assert np.array_equal(back.masses_at(k), mu.masses_at(k))


# -- evaluators and their consumers ---------------------------------------------------


@PROPERTY
@given(sft_and_qm())
def test_array_evaluators_equal_word_loops(case):
    sft, L = case
    for n in small_ns(sft):
        arr = sft.word_array(n, periodic=True)
        words = dfs_periodic(sft, n)
        want = [old_value(L, w) for w in words]
        assert list(L.values(arr, sft.d)) == want == [L.value(w) for w in words]
        for m in (1, 3, 64):
            want = [old_power_value(L, w, m) for w in words]
            assert list(L.power_values(arr, sft.d, m)) == want
            assert [L.power_value(w, m) for w in words] == want
        want = [old_homogenized_value(L, w) for w in words]
        assert list(L.homogenized_values(arr, sft.d)) == want
        assert [L.homogenized_value(w) for w in words] == want
    if sft.word_count(sft.M) <= 5000:
        words = [w for n in range(1, sft.M + 1) for w in dfs_words(sft, n)]
        assert L.letter_sup(sft) == max([0.0] + [abs(old_value(L, w)) for w in words])


@pytest.mark.parametrize("kind", sorted(every_kind(NONSYMMETRIC)))
@pytest.mark.parametrize("sft", [NONSYMMETRIC, golden_mean()], ids=["nonsymmetric", "golden"])
def test_word_evaluators_are_row_zero_of_the_array_forms(sft, kind):
    L = every_kind(sft)[kind]
    for n in range(1, 6):
        arr = sft.word_array(n, periodic=True)
        for i, w in enumerate(arr.tolist()):
            row = np.array([w])
            for got, want in (
                    (L.value(w), L.values(row, sft.d)[0]),
                    (L.homogenized_value(w), L.homogenized_values(row, sft.d)[0]),
                    *((L.power_value(w, m), L.power_values(row, sft.d, m)[0]) for m in (1, 2, 5))):
                assert type(got) is float and got == want
            assert L.values(row, sft.d)[0] == L.values(arr, sft.d)[i]
            assert L.homogenized_values(row, sft.d)[0] == L.homogenized_values(arr, sft.d)[i]
            assert L.power_values(row, sft.d, 5)[0] == L.power_values(arr, sft.d, 5)[i]
            if kind in ("tabulated", "value_only"):  # forms derived from `value` alone
                assert L.power_value(w, 5) == L.value(w * 5)
                assert L.homogenized_value(w) == L.value(w * 64) / 64
            if kind == "perturbed":  # the bump is tabulated: its power is L(w^5)
                assert L.power_value(w, 5) == L.base.power_value(w, 5) + L.bump.value(w * 5)


@pytest.mark.parametrize("kind", sorted(every_kind(NONSYMMETRIC)))
def test_defect_cyclic_average_and_qm_integral_on_a_nonsymmetric_shift(kind):
    L = every_kind(NONSYMMETRIC)[kind]
    for n_max in (2, 5, 7):
        rep = defect(L, NONSYMMETRIC, n_max)
        assert (rep.value, rep.argmax, rep.pairs) == old_defect(L, NONSYMMETRIC, n_max)
        assert type(rep.value) is float
    for a in NONSYMMETRIC.periodic_words(4) + NONSYMMETRIC.periodic_words(11)[::40]:
        assert cyclic_average(L, a) == old_cyclic_average(L, a)  # 11 rotations: added in order
    mu = mk.parry_measure(NONSYMMETRIC)
    for n in (1, 4, 7):
        assert thermo.qm_integral(mu, L, n) == old_qm_integral(mu, L, n)


@pytest.mark.parametrize("kind", sorted(every_kind(NONSYMMETRIC)))
def test_defect_in_chunks_of_b_rows_equals_the_pair_loop(kind):
    """Chunks of 7 pairs: 2 of the 3 one-symbol b rows against the 3 one-symbol
    a words, then the last, so a run of b rows is split; one b row beyond."""
    L = every_kind(NONSYMMETRIC)[kind]
    with mock.patch.object(qm_module, "_DEFECT_PAIRS", 7):
        for n_max in (2, 5, 7):
            rep = defect(L, NONSYMMETRIC, n_max)
            assert (rep.value, rep.argmax, rep.pairs) == old_defect(L, NONSYMMETRIC, n_max)


def test_defect_memory_is_bounded_by_the_chunk():
    """On the 8-shift to total length 6, each (n, m) with n + m = 6 has 8^6 pairs.
    Beyond the words and their values, the pair evaluation holds about 40 bytes
    a pair of one chunk (of 4096 pairs, or one b row against the 8^5 longest a
    words); all pairs of one (n, m) at once took 13.6 MB."""
    sft, n_max = full_shift(8), 6
    L = SignedPatternCount((0, 1, 2), (2, 1, 0))
    defect(L, sft, 3)  # warm caches outside the trace
    tracemalloc.start()
    try:
        words = {n: sft.word_array(n) for n in range(1, n_max)}
        vals = {n: L.values(arr, sft.d) for n, arr in words.items()}
        held = tracemalloc.get_traced_memory()[1]
        del words, vals
        tracemalloc.reset_peak()
        with mock.patch.object(qm_module, "_DEFECT_PAIRS", 1 << 12):
            rep = defect(L, sft, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.pairs == sum(8 ** (n + m) for n in range(1, n_max) for m in range(1, n_max - n + 1))
    assert peak - held < 64 * 8**5  # 2 MB


def test_defect_peak_is_its_word_values_and_one_chunk():
    """On the 2-shift to total length 14, with the words built beforehand (not
    traced), defect holds each word's value twice at most (its slices and their
    concatenation) and one chunk of 256 pairs or values; the values of the 2^13
    longest words at once, or one b row against all of them, went past that."""
    sft, n_max, chunk = full_shift(2), 14, 1 << 8
    L = SignedPatternCount((0, 1, 1), (1, 1, 0))
    words = {n: sft.word_array(n) for n in range(1, n_max)}
    defect(L, sft, 3)  # warm caches outside the trace
    with mock.patch.object(sft, "word_array", words.__getitem__), \
            mock.patch.object(qm_module, "_DEFECT_PAIRS", chunk):
        tracemalloc.start()
        try:
            rep = defect(L, sft, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rep.pairs == sum(2 ** (n + m) for n in range(1, n_max) for m in range(1, n_max - n + 1))
    assert rep.value == 1.0
    assert peak < 16 * sum(map(len, words.values())) + 256 * chunk  # 327 KB


@PROPERTY
@given(sft_and_qm())
def test_defect_cyclic_average_and_qm_integral_equal_word_loops(case):
    sft, L = case
    n_max = {2: 6, 3: 5, 4: 4}.get(sft.d, 3)
    rep = defect(L, sft, n_max)
    assert (rep.value, rep.argmax, rep.pairs) == old_defect(L, sft, n_max)
    for a in sft.periodic_words(3):
        assert cyclic_average(L, a) == old_cyclic_average(L, a)
    mu = mk.parry_measure(sft)
    for n in small_ns(sft):
        assert thermo.qm_integral(mu, L, n) == old_qm_integral(mu, L, n)


@PROPERTY
@given(sft_and_qm())
def test_partition_sums_equal_word_loops(case):
    sft, L = case
    for n in small_ns(sft):
        assert thermo._enumerated_log_partition(L, sft, n) == old_enumerated_log_partition(
            L, sft, n)
    kernels = L.window_tables(sft.d)
    if kernels is not None:
        for n in small_ns(sft):
            assert thermo._short_word_log_partition(kernels, sft, n) == \
                old_short_word_log_partition(kernels, sft, n)


@PROPERTY
@given(sft_and_qm())
def test_gibbs_measure_equals_word_loop(case):
    sft, L = case
    N = max(small_ns(sft))
    assume(sft.periodic_count(N) > 0)
    depth = min(N, 3)
    mu = CylinderMeasure(sft, thermo._enumerated_gibbs_masses(L, sft, N, depth))
    want = old_gibbs_masses(L, sft, N, depth)
    for k in range(1, depth + 1):
        assert np.array_equal(mu.masses_at(k), want[k])
    assert mu.invariance_defect() == old_invariance_defect(mu)


@PROPERTY
@given(sft_and_qm(), st.data())
def test_cohomologous_equals_word_loop(case, data):
    sft, L = case
    L2 = data.draw(st.one_of(qms(sft), st.just(L), st.just(LinearCombinationQm([(1.0, L)]))))
    n_max = min(max(small_ns(sft)), 5)
    got = cohomologous(L, L2, sft, n_max)
    assert (got.verdict, got.witness, got.certificate_depth, got.max_width) == \
        old_cohomologous(L, L2, sft, n_max)


def test_cohomologous_width_stops_at_the_witness():
    f = full_shift(2)
    wide = LinearCombinationQm([(1000.0, PatternCount((0, 0)))])  # defect 1000
    got = cohomologous(PatternCount((1,)), wide, f, 3)
    assert got.verdict == "distinct" and got.witness == (0,)
    # widths differ by rounding: a later word (1,) is wider than the witness
    m = int(np.ceil(2.0 * 1000.0 / 1e-2))
    at_witness = homogenize(wide, (0,), m).width
    assert at_witness < homogenize(wide, (1,), m).width
    assert got.max_width == at_witness


@PROPERTY
@given(sft_and_qm())
def test_komlos_zeta_equals_word_loop(case):
    sft, L = case
    n = min(max(small_ns(sft)) - 1, 4)
    assert np.array_equal(bowen.komlos_zeta(L, sft, n).values, old_komlos_zeta(L, sft, n))


@pytest.mark.parametrize("sft", [golden_mean(), full_shift(3)], ids=["golden", "full3"])
def test_weak_bernoulli_and_projection_equal_word_loops(sft):
    mm, _, _ = mk.gibbs_chain_from_qm(PatternCount((0, 1)), sft)
    mu = mm.cylinder_measure(8)
    m = mu.masses_at(2)
    for row in thermo.weak_bernoulli_report(mu, 2, [0, 1, 2, 3, 4]):
        joint = old_weak_bernoulli_joint(mu, 2, row["gap"])
        assert row["beta"] == float(np.abs(joint - np.outer(m, m)).sum())
    rng = np.random.default_rng(7)
    f = mk.LocallyConstantFn(sft, 5, rng.standard_normal(len(sft.cylinders(5))))
    for s in (1, 2, 4):
        got = mk.project_conditional(f, mm, s).values
        assert np.array_equal(got, old_project_conditional(f, mm.cylinder_masses(5), s))


# -- the Bowen side on the block graph -----------------------------------------------


def old_normalization_defect(phi, k):
    sft, idx, worst = phi.sft, phi.sft.cylinders(k), 0.0
    for w in (sft.cylinders(k - 1).words if k > 1 else [()]):
        tot = 0.0
        for s in (sft.predecessors[w[0]] if w else range(sft.d)):
            if (s,) + w in idx:
                tot += np.exp(phi.tables[k][idx.index((s,) + w)])
        worst = max(worst, abs(tot - 1.0))
    return float(worst)


def old_potential_tables(mu, k):
    tables = {}
    for j in range(1, k + 1):
        idx = mu.sft.cylinders(j)
        vals = np.empty(len(idx))
        for i, w in enumerate(idx.words):
            num, den = mu.mass(w), mu.mass(w[1:]) if j > 1 else 1.0
            if num <= 0.0 or den <= 0.0:
                return f"cylinder {w} violates full support"
            vals[i] = np.log(num / den)
        tables[j] = vals
    return tables


def old_step_matrix(mu, depth):
    sft, idx = mu.sft, mu.sft.cylinders(depth)
    K = np.zeros((len(idx), len(idx)))
    for i, w in enumerate(idx.words):
        for s in sft.successors[w[-1]]:
            K[i, idx.index(w[1:] + (s,))] = mu.mass(w + (s,)) / mu.mass(w)
    return K


def old_residual(u_vals, phi, depth):
    u, res = mk.LocallyConstantFn(phi.sft, depth, u_vals), 0.0
    for w in phi.sft.cylinders(depth + 1).words:
        res = max(res, abs(u.value(w[:depth]) - u.value(w[1:]) - phi.value(w[: phi.m])))
    return float(res)


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
def test_bowen_block_graph_paths_equal_word_loops(sft, seed, memory):
    rng = np.random.default_rng(seed)
    pot = mk.MarkovPotential(sft, memory, rng.standard_normal(len(sft.cylinders(memory + 1))))
    mm = mk.markov_measure(mk.normalize_potential(pot)[0])
    depth = 3
    for mu in (mm, mm.cylinder_measure(depth + 1)):
        phi = bowen.potential_from_measure(mu, depth)
        want = old_potential_tables(mu, depth)
        assert phi.tables.keys() == want.keys()
        assert all(np.array_equal(phi.tables[j], want[j]) for j in want)
        for j in range(1, depth + 1):
            assert phi.normalization_defect(j) == old_normalization_defect(phi, j)
        assert np.array_equal(bowen._conditional_step_matrix(mu, depth)[1],
                              old_step_matrix(mu, depth))
    f = mk.LocallyConstantFn(sft, 2, rng.standard_normal(len(sft.cylinders(2))))
    f = f - mk.LocallyConstantFn.constant(sft, mm.integral(f))
    sol = bowen.coboundary_solve(f, mm, 50, depth)
    assert sol.residual == old_residual(sol.u.values, f, depth)
    assert sol.residual_at_2n == old_residual(bowen.coboundary_solve(f, mm, 100, depth).u.values,
                                              f, depth)


def test_zero_mass_names_the_first_dead_word():
    from thermoqm.measures import periodic_orbit_measure

    sft = full_shift(3)
    mu = periodic_orbit_measure(sft, (0, 0, 1, 2, 1), range(1, 4))  # no 02: first dead 2-word
    with pytest.raises(bowen.ZeroMass) as err:
        bowen.potential_from_measure(mu, 3)
    assert str(err.value) == old_potential_tables(mu, 3) == "cylinder (0, 2) violates full support"
    with pytest.raises(bowen.ZeroMass, match=r"cylinder \(0, 2\) has no mass"):
        bowen._conditional_step_matrix(mu, 2)


# -- code lookup: dense position table and binary search ---------------------------


def old_index_of_codes(idx, codes):
    """Frozen binary-search lookup."""
    pos = np.searchsorted(idx.codes, codes)
    if np.any(pos >= len(idx.codes)) or np.any(idx.codes[pos] != codes):
        raise KeyError("inadmissible word code in lookup")
    return pos


@PROPERTY
@given(primitive_sfts(), st.integers(1, 6), st.data())
def test_index_of_codes_table_and_search_agree(sft, depth, data):
    from unittest import mock

    from thermoqm import sft as sft_module

    idx = sft.cylinders(depth)
    picks = np.array(data.draw(st.lists(st.integers(0, len(idx) - 1), max_size=40)), dtype=np.int64)
    codes = idx.codes[picks]
    want = old_index_of_codes(idx, codes)
    assert np.array_equal(want, picks)
    holes = np.setdiff1d(np.arange(sft.d**depth), idx.codes)
    for dense_table in (0, sft.d**depth):  # binary search, then the position table
        with mock.patch.object(sft_module, "_DENSE_TABLE", dense_table):
            got = idx.index_of_codes(codes)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(idx.index_of_codes(codes.reshape(-1, 1)), want.reshape(-1, 1))
            if len(holes):
                bad = np.insert(codes, data.draw(st.integers(0, len(codes))),
                                data.draw(st.sampled_from(holes.tolist())))
                with pytest.raises(KeyError):
                    idx.index_of_codes(bad)


def test_index_of_codes_picks_the_table_on_dense_indexes():
    g2 = FreeGroup(2).sft()
    cases = [(full_shift(2), 12, True), (g2, 6, True), (g2, 8, True), (golden_mean(), 12, False)]
    for sft, depth, dense in cases:
        idx = sft.cylinders(depth)
        assert np.array_equal(idx.index_of_codes(idx.codes[::-1]), np.arange(len(idx))[::-1])
        assert ("_table" in vars(idx)) == dense, (sft.d, depth)


# -- the join, chunked Gibbs masses and the streamed words CSV ---------------------


def old_word_array(sft, n, periodic=False):
    """Frozen successor loop: the whole array rebuilt once per column."""
    dt = symbol_dtype(sft.d)
    arr = np.arange(sft.d, dtype=dt)[:, None] if n else np.zeros((1, 0), dtype=dt)
    for _ in range(n - 1):
        rows, syms = np.nonzero(sft.R[arr[:, -1]])
        arr = np.concatenate([arr[rows], syms.astype(dt)[:, None]], axis=1)
    return arr[sft.R[arr[:, -1], arr[:, 0]] == 1] if periodic else arr


def old_gibbs_masses_one_pass(L, sft, N, depth):
    """Frozen gibbs_measure masses: codes, lookup and spread over every word at once."""
    arr = sft.word_array(N, periodic=True)
    vals = L.homogenized_values(arr, sft.d)
    spread = np.repeat(np.exp(vals - thermo._logsumexp(vals)) / N, N)
    masses = {}
    codes = np.zeros(arr.shape, dtype=np.int64)
    for k in range(1, depth + 1):
        codes = codes * sft.d + np.roll(arr, 1 - k, axis=1)
        idx = sft.cylinders(k)
        masses[k] = np.bincount(idx.index_of_codes(codes.ravel()), spread, len(idx))
    return masses


JOIN_MAX_N = {2: 12, 3: 8, 4: 6}  # up to 4096 words


@PROPERTY
@given(primitive_sfts(), st.sampled_from([1, 7, 64, 1 << 20]))
def test_join_equals_the_successor_loop(sft, cells):
    # threshold 0: the join runs from n = 3 on; small slices split W_n many ways
    with mock.patch.object(sft_module, "_JOIN_WORDS", 0), \
            mock.patch.object(sft_module, "_SLICE_CELLS", cells):
        for n in range(JOIN_MAX_N[sft.d] + 1):
            for periodic in (False, True) if n else (False,):
                want = old_word_array(sft, n, periodic)
                got = sft.word_array(n, periodic)
                assert got.dtype == want.dtype and np.array_equal(got, want), (n, periodic)
                parts = list(sft.word_slices(n, periodic))
                assert all(p.dtype == want.dtype for p in parts)
                assert np.array_equal(np.concatenate(parts), want), (n, periodic)


BANDED_130 = Sft([[int((j - i) % 130 < 10) for j in range(130)] for i in range(130)])  # int16


@pytest.mark.parametrize("sft,n", [(full_shift(2), 18), (full_shift(3), 9), (golden_mean(), 22),
                                   (FreeGroup(2).sft(), 9), (BANDED_130, 4)],
                         ids=["full2-18", "full3-9", "golden-22", "free2-9", "banded130-4"])
def test_join_above_the_real_threshold(sft, n):
    assert sft.word_count(n) > sft_module._JOIN_WORDS
    for periodic in (False, True):
        want = old_word_array(sft, n, periodic)
        got = sft.word_array(n, periodic)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.concatenate(list(sft.word_slices(n, periodic))), want)


@PROPERTY
@given(sft_and_qm(), st.sampled_from([1, 7, None]))
def test_chunked_gibbs_masses_equal_one_pass(case, words):
    sft, L = case
    N = max(small_ns(sft))
    assume(sft.periodic_count(N) > 0)
    words = words or sft.periodic_count(N) + 1  # None: one chunk holds every word
    depth = min(N, 4)
    with mock.patch.object(measures_module, "_ORBIT_CELLS", words * N):
        mu = CylinderMeasure(sft, thermo._enumerated_gibbs_masses(L, sft, N, depth))
    want = old_gibbs_masses_one_pass(L, sft, N, depth)
    for k in range(1, depth + 1):
        assert np.array_equal(mu.masses_at(k), want[k])  # bit for bit


@pytest.mark.parametrize("sft,n,periodic", [
    (full_shift(2), 10, False), (golden_mean(), 14, True), (FreeGroup(2).sft(), 6, False),
    (full_shift(12), 3, True)], ids=["full2", "golden-periodic", "free2", "full12-periodic"])
def test_words_csv_streams_slices_with_the_dfs_bytes(tmp_path, sft, n, periodic):
    with mock.patch.object(sft_module, "_JOIN_WORDS", 0), \
            mock.patch.object(sft_module, "_SLICE_CELLS", 40), \
            mock.patch.object(cli, "_write", wraps=cli._write) as write:
        code, summary = cli.execute("words", {"sft": sft.to_json(), "n": n, "periodic": periodic},
                                    str(tmp_path))
    words = dfs_periodic(sft, n) if periodic else dfs_words(sft, n)
    assert code == 0 and summary["count"] == len(words)
    assert sum(c.args[2:] == ("a",) for c in write.call_args_list) > 2  # several slices
    assert (tmp_path / "words.csv").read_bytes() == old_words_csv(words).encode()


@pytest.mark.parametrize("periodic", [False, True])
def test_cap_raises_before_allocating_on_the_join_path(periodic, monkeypatch, tmp_path):
    sft = full_shift(2)
    monkeypatch.setenv("THERMOQM_MAX_WORDS", "1000")
    monkeypatch.setattr(sft_module, "_JOIN_WORDS", 0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match=r"^\|W_60\| = 1152921504606846976 exceeds"):
            sft.word_array(60, periodic=periodic)
        with pytest.raises(ResourceLimit, match=r"^\|W_60\| = 1152921504606846976 exceeds"):
            sft.word_slices(60, periodic=periodic)  # on the call, not on the first slice
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert np.array_equal(sft.word_array(9, periodic=periodic), old_word_array(sft, 9, periodic))
    code, summary = cli.execute("words", {"sft": sft.to_json(), "n": 10, "periodic": periodic},
                                str(tmp_path))
    assert code == 3 and summary["error"].startswith("ResourceLimit: |W_10| = 1024")
    assert not (tmp_path / "words.csv").exists()


F2_SPEC = {"builtin": "full_shift", "d": 2}
MEMORY_BOUNDS = {  # tracemalloc peak of one call (it was 26.6, 18.8 and 15.1 MB)
    "gibbs-check-count01": (lambda out: cli.execute("gibbs-check", {
        "sft": F2_SPEC, "qm": {"kind": "pattern_count", "pattern": "12"}, "N": 16, "depth": 6,
        "tolerance_tv": 0.01}, out), 5e6),
    "words-full2": (lambda out: cli.execute("words", {"sft": F2_SPEC, "n": 18}, out), 8e6),
    "word-array-full2-18": (lambda out: full_shift(2).word_array(18), 10e6),
}


@pytest.mark.parametrize("case", sorted(MEMORY_BOUNDS))
def test_enumeration_memory_bounds(tmp_path, case):
    run, bound = MEMORY_BOUNDS[case]
    tracemalloc.start()
    try:
        out = run(str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[0] == 0 if isinstance(out, tuple) else len(out) == 2**18
    assert peak <= bound, f"{case}: tracemalloc peak {peak / 1e6:.2f} MB > {bound / 1e6:.0f} MB"
