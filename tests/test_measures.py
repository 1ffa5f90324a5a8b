"""Cylinder measures: consistency, invariance, serialization."""

import numpy as np
import pytest

from thermoqm.bowen import potential_from_measure
from thermoqm.errors import ZeroMass
from thermoqm.measures import CylinderMeasure, bernoulli_measure, periodic_orbit_measure
from thermoqm.sft import full_shift, golden_mean


def test_bernoulli_is_consistent_and_invariant():
    f = full_shift(2)
    mu = bernoulli_measure(f, [0.3, 0.7], range(1, 6))
    assert mu.consistency_defect() < 1e-14
    assert mu.invariance_defect() < 1e-14
    assert mu.mass((0, 1, 1)) == pytest.approx(0.3 * 0.7 * 0.7)


def test_bernoulli_rejects_non_full_shift():
    with pytest.raises(ValueError):
        bernoulli_measure(golden_mean(), [0.5, 0.5], [1])


def test_mass_validation():
    f = full_shift(2)
    with pytest.raises(ValueError, match="sum"):
        CylinderMeasure(f, {1: np.array([0.6, 0.6])})
    with pytest.raises(ValueError, match="negative"):
        CylinderMeasure(f, {1: np.array([1.2, -0.2])})


def test_periodic_orbit_measure():
    g = golden_mean()
    mu = periodic_orbit_measure(g, (0, 1), range(1, 5))
    assert mu.mass((0,)) == pytest.approx(0.5)
    assert mu.mass((0, 1, 0)) == pytest.approx(0.5)
    assert mu.mass((0, 0)) == 0.0
    assert mu.invariance_defect() < 1e-15


def test_inadmissible_words_carry_no_mass():
    g = golden_mean()
    mu = periodic_orbit_measure(g, (0,), range(1, 4))
    assert mu.mass((1, 1)) == 0.0


def test_full_support_check():
    g = golden_mean()
    mu = periodic_orbit_measure(g, (0,), range(1, 3))
    with pytest.raises(ZeroMass, match="violates full support"):
        potential_from_measure(mu, 1)


def test_tv_distance_and_json_roundtrip():
    f = full_shift(2)
    mu = bernoulli_measure(f, [0.5, 0.5], range(1, 4))
    nu = bernoulli_measure(f, [0.25, 0.75], range(1, 4))
    assert mu.tv_distance(mu, 3) == 0.0
    assert mu.tv_distance(nu, 1) == pytest.approx(0.25)
    back = CylinderMeasure.from_json(f, mu.to_json())
    assert all(np.allclose(back.masses_at(k), mu.masses_at(k)) for k in (1, 2, 3))
