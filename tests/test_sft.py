"""Subshift construction, enumeration, and periodic-closure operations."""

import itertools

import numpy as np
import pytest

from thermoqm.errors import InvalidMatrix, NotPrimitive, ResourceLimit
from thermoqm.sft import (
    SCOPED_WORD_CAP,
    Sft,
    full_shift,
    golden_mean,
    parse_word,
    render_word,
)


def brute_words(R, n):
    """Independent enumeration oracle: filter the full product by admissibility."""
    d = len(R)
    out = []
    for w in itertools.product(range(d), repeat=n):
        if all(R[a][b] for a, b in zip(w, w[1:])):
            out.append(w)
    return out


def test_full_shift_has_specification_constant_one():
    sft = Sft([[1, 1], [1, 1]])
    assert sft.M == 1
    assert sft.connectors[(0, 1)] == ()


def test_golden_mean_m_two_by_matrix_power():
    R = np.array([[1, 1], [1, 0]])
    assert (R == 0).any()
    assert (np.linalg.matrix_power(R, 2) > 0).all()
    assert Sft(R).M == 2


def test_identity_matrix_rejected():
    with pytest.raises(NotPrimitive, match="reducible"):
        Sft([[1, 0], [0, 1]])


def test_periodic_matrix_rejected():
    with pytest.raises(NotPrimitive, match="periodic"):
        Sft([[0, 1], [1, 0]])


def test_invalid_matrices_rejected():
    with pytest.raises(InvalidMatrix):
        Sft([[1, 1]])
    with pytest.raises(InvalidMatrix):
        Sft([[2, 1], [1, 1]])
    with pytest.raises(InvalidMatrix):
        Sft([[0, 0], [1, 1]])


def test_word_counts_match_brute_force_and_formula():
    g = golden_mean()
    for n in range(0, 7):
        words = g.words(n)
        assert words == brute_words(g.R, n) if n else words == [()]
        assert len(words) == g.word_count(n)
    # Fibonacci counts 2, 3, 5 at n = 1, 2, 3
    assert [g.word_count(n) for n in (1, 2, 3)] == [2, 3, 5]
    f = full_shift(2)
    assert len(f.words(2)) == 4


def test_words_lexicographic_order():
    g = golden_mean()
    for n in (3, 5):
        ws = g.words(n)
        assert ws == sorted(ws)


def test_periodic_words_match_trace():
    g = golden_mean()
    for n in range(1, 9):
        per = g.periodic_words(n)
        assert len(per) == g.periodic_count(n)
        assert all(g.wraps(w) for w in per)
    assert [g.periodic_count(n) for n in (2, 3)] == [3, 4]  # Lucas numbers
    assert g.periodic_words(1) == [(0,)]  # only "1"; R(2,2) = 0
    f = full_shift(2)
    assert all(f.periodic_count(n) == 2 ** n for n in range(1, 10))


def test_counts_past_int64_stay_exact():
    """Counts are entry sums and traces of R^n over Python ints: no wrap at 2^63."""
    f = full_shift(4)
    assert f.word_count(40) == f.periodic_count(40) == 4**40 > 2**63
    assert type(f.word_count(40)) is int and type(f.periodic_count(40)) is int
    g = golden_mean()  # Fibonacci and Lucas numbers, F(n + 2) and L(n)
    fib, lucas = [0, 1], [2, 1]
    for _ in range(200):
        fib.append(fib[-1] + fib[-2])
        lucas.append(lucas[-1] + lucas[-2])
    assert g.word_count(150) == fib[152] and g.periodic_count(150) == lucas[150]
    assert g.word_count(0) == 1 and g.periodic_count(0) == 2


def test_enumeration_cap(monkeypatch):
    f = full_shift(2)
    token = SCOPED_WORD_CAP.set(100)
    try:
        with pytest.raises(ResourceLimit):
            f.words(10)
    finally:
        SCOPED_WORD_CAP.reset(token)
    monkeypatch.setenv("THERMOQM_MAX_WORDS", "100")
    with pytest.raises(ResourceLimit):
        Sft([[1, 1], [1, 1]]).words(10)


def test_lift_is_identity_on_periodic_words():
    g = golden_mean()
    for n in range(1, 6):
        for w in g.periodic_words(n):
            assert g.lift(w) == w
    f = full_shift(3)
    for w in f.words(4):
        assert f.lift(w) == w  # every word wraps on a full shift


def test_lift_golden_mean_symbol_two():
    g = golden_mean()
    assert g.lift((1,)) == (1, 0)  # "2" cannot wrap; "21" does


def test_lift_length_bound_and_wrap():
    g = golden_mean()
    for n in range(1, 6):
        for w in g.words(n):
            lifted = g.lift(w)
            assert lifted[: len(w)] == w
            assert len(lifted) <= len(w) + g.M
            assert g.wraps(lifted)


def test_star_examples_and_bounds():
    f = full_shift(2)
    assert f.star((0,), (1,)) == (0, 1)  # empty connectors on the full shift
    g = golden_mean()
    assert g.star((0,), (0,)) == (0, 0)
    assert g.star((0, 1), (0, 1)) == (0, 1, 0, 1)
    for a in g.periodic_words(2) + g.periodic_words(3):
        for b in g.periodic_words(2) + g.periodic_words(3):
            c = g.star(a, b)
            assert g.wraps(c)
            assert c[: len(a)] == a
            assert len(a) + len(b) <= len(c) <= len(a) + len(b) + 2 * g.M


def test_operations_are_deterministic():
    g1, g2 = golden_mean(), golden_mean()
    assert g1.connectors == g2.connectors
    assert g1.words(6) == g2.words(6)
    for w in g1.words(4):
        assert g1.lift(w) == g2.lift(w)


def test_connectors_validate_letterwise():
    for sft in (golden_mean(), full_shift(3)):
        for (i, j), u in sft.connectors.items():
            assert len(u) == sft.M - 1
            assert sft.is_word((i,) + u + (j,))


def test_cylinder_index_and_refinement_maps():
    f = full_shift(2)
    idx1 = f.cylinders(1)
    assert [idx1.index((0,)), idx1.index((1,))] == [0, 1]
    g = golden_mean()
    assert len(g.cylinders(2)) == 3
    for k in (2, 3, 4):
        child_idx = g.cylinders(k)
        parents, tails = child_idx.prefix(k - 1), child_idx.suffix(k - 1)
        for i, w in enumerate(child_idx.words):
            assert g.cylinders(k - 1).word(parents[i]) == w[:-1]
            assert g.cylinders(k - 1).word(tails[i]) == w[1:]
        assert np.array_equal(parents, g.block_graph(k - 1).src)
        assert np.array_equal(tails, g.block_graph(k - 1).dst)
    # stable across calls
    assert f.cylinders(3) is f.cylinders(3)


def test_code_lookup_vectorized():
    g = golden_mean()
    idx = g.cylinders(3)
    assert list(idx.index_of_codes(idx.codes)) == list(range(len(idx)))


def test_render_parse_roundtrip():
    g = golden_mean()
    for w in g.words(5):
        assert parse_word(render_word(w), g.d) == w
    assert render_word((0, 1)) == "12"  # external symbols are 1-based


def test_json_roundtrip(tmp_path):
    g = golden_mean()
    path = tmp_path / "sft.json"
    import json

    path.write_text(json.dumps(g.to_json()))
    g2 = Sft.from_file(str(path))
    assert (g2.R == g.R).all() and g2.M == g.M
