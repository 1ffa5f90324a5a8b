"""Quasimorphism kinds, defect, homogenization, quasicocycles, cohomology."""

import numpy as np
import pytest

from thermoqm.errors import DepthExceeded
from thermoqm.qm import (
    LetterWeights,
    LinearCombinationQm,
    PatternCount,
    PerturbedQm,
    Quasicocycle,
    SignedPatternCount,
    TabulatedQm,
    cohomologous,
    cyclic_average,
    defect,
    homogenize,
    qm_of_quasicocycle,
    quasicocycle_of,
    zero_qm,
)
from thermoqm.sft import full_shift, golden_mean

from oracles import count_occurrences


def brute_occurrences(pattern, word):
    return sum(
        1
        for i in range(len(word) - len(pattern) + 1)
        if tuple(word[i: i + len(pattern)]) == tuple(pattern)
    )


def test_overlapping_occurrences():
    assert count_occurrences((0, 0), (0, 0, 0)) == 2
    assert count_occurrences((0, 1), (0, 1, 0, 1)) == 2
    assert count_occurrences((0, 1, 0), (0, 1, 0, 1, 0)) == 2


def test_pattern_value_matches_brute_force():
    f = full_shift(2)
    L = PatternCount((0, 1))
    for w in f.words(7):
        assert L.value(w) == brute_occurrences((0, 1), w)


def test_homomorphism_defect_is_zero():
    f = full_shift(2)
    L = LetterWeights([0.5, -0.5])
    assert defect(L, f, 8).value == 0.0


def test_count_pattern_defect():
    f = full_shift(2)
    rep = defect(PatternCount((0, 1)), f, 8)
    assert rep.value == 1.0
    assert rep.lower_bound
    for pattern in [(0, 0), (0, 1, 1), (1, 0, 1)]:
        rep = defect(PatternCount(pattern), f, 8)
        assert rep.value <= len(pattern) - 1  # junction occurrences only


def test_declared_defect_dominates_empirical():
    f = full_shift(2)
    for L in (PatternCount((0, 1, 1)), SignedPatternCount((0, 1), (1, 0)),
              LinearCombinationQm([(2.0, PatternCount((0, 1))), (-1.0, LetterWeights([1.0, 0.0]))])):
        assert defect(L, f, 7).value <= L.defect_bound + 1e-12


def test_homogenize_examples():
    f = full_shift(2)
    L = PatternCount((0, 1))
    hom = LetterWeights([1.0, -2.0])
    # homomorphisms homogenize to themselves, exactly
    iv = homogenize(hom, (0, 1), 5)
    assert iv.lo == iv.hi == hom.value((0, 1))
    # count "01" on (01)^m has exactly m occurrences
    iv = homogenize(L, (0, 1), 100)
    assert iv.mid == pytest.approx(1.0)
    # count "10" on (01)^m has m - 1 occurrences; the interval still holds 1
    iv10 = homogenize(PatternCount((1, 0)), (0, 1), 100)
    assert iv10.lo <= 1.0 <= iv10.hi
    assert iv10.width <= 2 * 1.0 / 100 + 1e-12


def test_power_value_matches_materialized_powers():
    g = golden_mean()
    for L in (PatternCount((0, 1)), PatternCount((0, 0)), SignedPatternCount((0, 1), (1, 0)),
              LetterWeights([0.3, -0.7])):
        for a in g.periodic_words(3) + g.periodic_words(4):
            for m in (1, 2, 5, 9):
                assert L.power_value(a, m) == pytest.approx(L.value(a * m), abs=1e-12)


def test_homogenized_value_is_cyclic_kernel_sum():
    f = full_shift(2)
    L = PatternCount((0, 1))
    for a in f.periodic_words(4):
        exact = L.homogenized_value(a)
        assert exact == pytest.approx(L.power_value(a, 256) / 256, abs=L.defect_bound / 256)


def test_homogenization_interval_nesting():
    f = full_shift(2)
    L = PatternCount((0, 1, 1))
    delta = L.defect_bound
    for a in f.periodic_words(3):
        for m in (2, 4, 8):
            inner = homogenize(L, a, 2 * m)
            outer = homogenize(L, a, m)
            assert inner.lo >= outer.lo - delta / m - 1e-12
            assert inner.hi <= outer.hi + delta / m + 1e-12


def test_subadditivity_certificate():
    # (L(a^n) + delta)_n is subadditive for every periodic a
    for sft in (full_shift(2), golden_mean()):
        L = PatternCount((0, 1))
        delta = L.defect_bound
        for size in (1, 2, 3, 4):
            for a in sft.periodic_words(size):
                seq = [L.power_value(a, n) + delta for n in range(1, 11)]
                for n in range(1, 10):
                    for m in range(1, 11 - n):
                        assert seq[n + m - 1] <= seq[n - 1] + seq[m - 1] + 1e-12


def test_cyclic_average():
    L = PatternCount((0, 1))
    a = (0, 0, 1, 1)
    rotations = [a, (0, 1, 1, 0), (1, 1, 0, 0), (1, 0, 0, 1)]
    oracle = sum(brute_occurrences((0, 1), r) for r in rotations) / 4
    assert cyclic_average(L, a) == pytest.approx(oracle)
    assert abs(cyclic_average(L, a) - L.value(a)) <= 2 * L.defect_bound
    # length-1 words are fixed by rotation
    assert cyclic_average(L, (0,)) == L.value((0,))
    # symmetric letter weights are already cyclic
    hom = LetterWeights([1.0, 1.0])
    assert cyclic_average(hom, a) == hom.value(a)


def test_quasicocycle_tables_and_roundtrip():
    f = full_shift(2)
    L = PatternCount((0, 1))
    B = quasicocycle_of(L, f, 6)
    idx = f.cylinders(2)
    assert B.tables[2][idx.index((0, 1))] == 1.0
    assert sum(B.tables[2]) == 1.0  # all other depth-2 tables vanish
    assert B.value(1, (0,)) == 0.0  # depth-1 equals L on letters
    back = qm_of_quasicocycle(B)
    for n in range(1, 7):
        for w in f.words(n):
            assert back.value(w) == L.value(w)
    with pytest.raises(DepthExceeded):
        back.value((0,) * 7)


def test_quasicocycle_of_homomorphism_has_zero_defect():
    f = full_shift(2)
    B = quasicocycle_of(LetterWeights([1.0, -1.0]), f, 6)
    assert B.delta_estimate() == 0.0


def test_constant_and_linear_cocycles():
    f = full_shift(2)
    const = Quasicocycle(f, {n: np.full(2 ** n, 3.25) for n in range(1, 5)})
    Lc = qm_of_quasicocycle(const)
    assert all(Lc.value(w) == 3.25 for w in f.words(3))
    linear = Quasicocycle(f, {n: np.full(2 ** n, float(n)) for n in range(1, 6)})
    Ll = qm_of_quasicocycle(linear)
    assert linear.delta_estimate() == 0.0
    dl = defect(Ll, f, 5)
    assert dl.value == 0.0  # B_n = n gives L(a) = |a|, a zero-defect rule


def test_delta_estimate_monotone_in_depth():
    f = full_shift(2)
    L = PatternCount((0, 1, 1))
    estimates = [quasicocycle_of(L, f, n).delta_estimate() for n in (3, 5, 7)]
    assert estimates == sorted(estimates)
    assert quasicocycle_of(L, f, 7).bowen_norm == 0.0  # tables are locally constant


def test_cohomologous_count01_count10():
    f = full_shift(2)
    v = cohomologous(PatternCount((0, 1)), PatternCount((1, 0)), f, n_max=10)
    assert v.verdict == "cohomologous"
    assert v.certificate_depth == 10
    assert v.certificate_only


def test_distinct_scaling_witness():
    f = full_shift(2)
    L = PatternCount((0, 1))
    v = cohomologous(L, LinearCombinationQm([(2.0, L)]), f, n_max=8)
    assert v.verdict == "distinct"
    assert len(v.witness) <= 2
    assert not v.certificate_only


def test_bounded_perturbation_is_cohomologous():
    f = full_shift(2)
    L = PatternCount((0, 1))
    bump = TabulatedQm(
        {1: {(0,): 0.2, (1,): -0.1}, 2: {w: 0.05 for w in f.words(2)}},
        defect_bound=0.9,
        extend=True,
    )
    v = cohomologous(L, PerturbedQm(L, bump), f, n_max=6)
    assert v.verdict == "cohomologous"


def test_tabulated_extension_flagging():
    t = TabulatedQm({1: {(0,): 1.0, (1,): 2.0}}, defect_bound=1.0, extend=True)
    assert t.value((0, 1, 1)) == 1.0  # longest tabulated prefix rule
    assert t.extended_evaluations == 1
    strict = TabulatedQm({1: {(0,): 1.0, (1,): 2.0}}, defect_bound=1.0)
    with pytest.raises(DepthExceeded):
        strict.value((0, 1))


def test_empty_word_evaluates_to_zero():
    for L in (zero_qm(2), PatternCount((0, 1)), LetterWeights([1.0, 2.0])):
        assert L.value(()) == 0.0


def test_window_tables_reproduce_values():
    f = full_shift(2)
    L = LinearCombinationQm([
        (2.0, PatternCount((0, 1))),
        (-0.5, PatternCount((1, 1, 0))),
        (1.0, LetterWeights([0.25, -0.25])),
    ])
    tables = L.window_tables(f.d)
    for w in f.words(6):
        total = 0.0
        for q, arr in tables.items():
            for i in range(len(w) - q + 1):
                code = 0
                for s in w[i: i + q]:
                    code = code * 2 + s
                total += arr[code]
        assert total == pytest.approx(L.value(w), abs=1e-12)
