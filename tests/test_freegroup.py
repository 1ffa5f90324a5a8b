"""Free-group words, Brooks quasimorphisms, compactification, sphere CLTs."""

import itertools

import numpy as np
import pytest

from thermoqm import experiments as ex
from thermoqm import freegroup as fg
from thermoqm import markov as mk
from thermoqm.qm import defect
from thermoqm.sft import SCOPED_WORD_CAP, golden_mean

from oracles import pushforward_measure_enumerated, sphere_enumerate


@pytest.fixture(scope="module")
def G():
    return fg.FreeGroup(2)


def test_no_cancellation_sft(G):
    sft = G.sft()
    assert sft.d == 4
    assert sft.M == 2
    for x in range(4):
        assert sft.R[x, x ^ 1] == 0
        assert sft.R[x].sum() == 3


def test_reduce_examples(G):
    assert G.reduce(G.parse("aAb")) == G.parse("b")
    assert G.cyclic_reduce(G.parse("abA")) == G.parse("b")
    w = G.parse("abAB")
    assert G.reduce(w) == w  # already reduced
    # idempotence on arbitrary strings
    rng = np.random.default_rng(4)
    for _ in range(50):
        raw = tuple(rng.integers(0, 4, size=10))
        red = G.reduce(raw)
        assert G.reduce(red) == red
        cyc = G.cyclic_reduce(raw)
        assert G.cyclic_reduce(cyc) == cyc


def test_cyclically_reduced_words_are_periodic_words(G):
    sft = G.sft()
    for n in range(1, 6):
        brute = [
            w
            for w in itertools.product(range(4), repeat=n)
            if G.is_reduced(w) and w[-1] != (w[0] ^ 1)
        ]
        assert brute == sft.periodic_words(n)
        assert len(brute) == sft.periodic_count(n)


def test_brooks_values(G):
    h = fg.brooks(G, "ab")
    ab = G.parse("ab")
    for n in (1, 3, 5):
        assert h.value(ab * n) == n
        assert h.value(G.parse("ba") * n) == n - 1
        assert h.value(G.inverse_word(ab * n)) == -n
    ha = fg.brooks(G, "a")
    assert ha.defect_bound == 0.0
    assert ha.value(G.parse("aaaa")) == 4
    assert ha.value(G.parse("AAA")) == -3


def test_brooks_antisymmetry_on_all_short_words(G):
    for pattern in ("ab", "abA", "aab"):
        h = fg.brooks(G, pattern)
        for n in range(1, 7):
            for w in itertools.product(range(4), repeat=n):
                if G.is_reduced(w):
                    assert h.value(G.inverse_word(w)) == -h.value(w)


def test_signed_count_homogenization_antisymmetry(G):
    # the homogenized value flips sign on inverse words whenever the
    # combinatorics force it: cyclic occurrences of w in a^{-1} equal cyclic
    # occurrences of w^{-1} in a (brute force over cyclic words up to 6)
    sft = G.sft()
    for pattern in ("ab", "aB", "aba"):
        h = fg.brooks(G, pattern)
        for n in range(1, 7):
            for a in sft.periodic_words(n):
                inv = G.inverse_word(a)
                assert h.homogenized_value(inv) == -h.homogenized_value(a)


def test_brooks_defect_bound_via_junction_analysis(G):
    # occ(p, ab) - occ(p, a) - occ(p, b) counts only junction-crossing
    # windows, so the exact sup over all concatenations is computable from
    # block pairs; it never exceeds 2(|p| - 1).
    sft = G.sft()
    for pattern in ("ab", "aB", "aba"):
        h = fg.brooks(G, pattern)
        q = len(G.parse(pattern))
        worst = 0.0
        for left in sft.words(q - 1):
            for right in sft.words(q - 1):
                if not sft.R[left[-1], right[0]]:
                    continue
                join = left + right
                dev = abs(h.value(join) - h.value(left) - h.value(right))
                worst = max(worst, dev)
        assert worst <= h.defect_bound + 1e-12
        # cross-check the same sup with the generic brute-force scan
        token = SCOPED_WORD_CAP.set(10 ** 7)
        try:
            assert defect(h, sft, 2 * q).value == pytest.approx(worst)
        finally:
            SCOPED_WORD_CAP.reset(token)


def test_brooks_defect_never_violated_up_to_total_twelve(G):
    # junction windows fix the defect for splits of any length: maximizing
    # over (q-1)-blocks is the exact sup over all pairs, total length 12 incl.
    sft = G.sft()
    h = fg.brooks(G, "ab")
    token = SCOPED_WORD_CAP.set(10 ** 7)
    try:
        rep = defect(h, sft, 8)
    finally:
        SCOPED_WORD_CAP.reset(token)
    assert rep.value <= h.defect_bound


def test_brooks_ab_variance_closed_form(G):
    # under the uniform non-backtracking chain: Var(kappa) = 1/6, lag-1
    # covariance 0, Cov(n) = (1/36)[(1/3)^{n-2} - (-1/3)^{n-2}] for n >= 2,
    # summing to sigma^2 = 1/6 + (1/18)(3/2 - 3/4) = 5/24
    sft = G.sft()
    mm = mk.parry_measure(sft)
    h = fg.brooks(G, "ab")
    ps = mk.MarkovPotential.from_qm(h, sft)
    psi = ps - mk.LocallyConstantFn.constant(sft, mm.integral(ps))
    var = mk.variance(mm.potential, psi, mm)
    assert var.sigma2_martingale == pytest.approx(5 / 24, abs=1e-12)
    assert var.sigma2_green_kubo == pytest.approx(5 / 24, abs=1e-10)


def test_compactification_depths_one_two(G):
    par = mk.parry_measure(G.sft())
    assert np.allclose(par.cylinder_masses(1), 0.25)
    assert np.allclose(par.cylinder_masses(2), 1 / 12)


def test_compactification_closed_form_equals_enumeration(G):
    for n in (3, 5, 8):
        for depth in (1, 2, 3):
            a = fg.pushforward_measure(G, n, depth).masses_at(depth)
            b = pushforward_measure_enumerated(G, n, depth).masses_at(depth)
            # the enumeration oracle itself accumulates ~1e-13 of float error
            assert np.abs(a - b).max() < 1e-11


def old_pushforward_masses(group, n, depth):
    """The pushforward as two per-word loops over Python-int matrix powers."""
    sft = group.sft()
    R = [[int(x) for x in row] for row in sft.R]
    words = sft.cylinders(depth).words
    counts, total, P = [0] * len(words), 0, [[int(i == j) for j in range(sft.d)]
                                               for i in range(sft.d)]
    for ell in range(1, n + 1):
        P = [[sum(P[i][k] * R[k][j] for k in range(sft.d)) for j in range(sft.d)]
             for i in range(sft.d)]  # R^ell
        total += sum(P[i][i] for i in range(sft.d))
        if ell >= depth:
            Q = [[int(i == j) for j in range(sft.d)] for i in range(sft.d)]
            for _ in range(ell - depth + 1):
                Q = [[sum(Q[i][k] * R[k][j] for k in range(sft.d)) for j in range(sft.d)]
                     for i in range(sft.d)]
            for i, w in enumerate(words):
                counts[i] += Q[w[-1]][w[0]]
        else:
            for i, w in enumerate(words):
                if all(w[j] == w[j % ell] for j in range(depth)):
                    counts[i] += 1
    return np.array([c / total for c in counts]), total


@pytest.mark.parametrize("rank", [2, 3])
def test_pushforward_equals_the_word_loops(rank):
    group = fg.FreeGroup(rank)
    for depth in range(1, 5):
        for n in range(1, 13):
            masses, total = fg._pushforward_masses(group, n, depth)
            want, want_total = old_pushforward_masses(group, n, depth)
            assert total == want_total and type(total) is int
            assert masses.dtype == np.float64 and np.array_equal(masses, want)


def test_compactification_tv_decreases(G):
    res = fg.compactification_experiment(G, [8, 12, 16, 18], 3)
    tvs = [r["tv"] for r in res.rows]
    assert res.monotone
    assert tvs[-1] < tvs[0]
    assert tvs[-1] < 0.05


def test_sphere_sample_law(G):
    n, count = 3, 20000
    samples = fg.sphere_sample(G, n, count, seed=1)
    # no backtracking ever
    assert all(
        samples[t, k + 1] != samples[t, k] ^ 1 for t in range(200) for k in range(n - 1)
    )
    # first letter uniform
    freq = np.bincount(samples[:, 0], minlength=4) / count
    assert np.abs(freq - 0.25).max() <= 4 / np.sqrt(count)
    # chi-square against the uniform sphere law at depth 3
    words = sphere_enumerate(G, n)
    lookup = {w: i for i, w in enumerate(words)}
    counts = np.zeros(len(words))
    for t in range(count):
        counts[lookup[tuple(int(x) for x in samples[t])]] += 1
    expected = count / len(words)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    from scipy.stats import chi2 as chi2_dist

    assert chi2 < chi2_dist.ppf(0.999, len(words) - 1)


def test_sphere_size_formula(G):
    for n in (1, 2, 5):
        assert G.sphere_size(n) == 4 * 3 ** (n - 1)
        assert G.sphere_size(n) == len(sphere_enumerate(G, n))


def test_spherical_clt_small(G):
    res = fg.spherical_clt(G, "ab", n=1500, count=8000, seed=3)
    assert res.ks <= 2 * res.dkw
    assert abs(res.mean_stat) <= 4 * res.mean_se
    assert res.sigma2 > 0


def test_spherical_mirror_statistics(G):
    a = fg.spherical_clt(G, "ab", n=400, count=2000, seed=5)
    b = fg.spherical_clt(G, "BA", n=400, count=2000, seed=5)
    assert np.allclose(a.stats, -b.stats)


def test_boundary_ray_matches_spherical(G):
    a = fg.spherical_clt(G, "ab", n=1200, count=6000, seed=7)
    b = fg.boundary_ray_clt(G, "ab", n=1200, count=6000, seed=8)
    assert b.sigma2 == a.sigma2
    joint = np.sqrt(a.mean_se ** 2 + b.mean_se ** 2)
    assert abs(a.mean_stat - b.mean_stat) <= 4 * joint
    assert abs(a.ks - b.ks) <= 0.03


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_uniform_sphere_chain_is_exact(rank):
    """Every step 1/(d - 1) and every state 1/d, with no eigensolve: the chain's
    defects vanish to 1e-15, its cylinder masses are Parry's to 1e-15, and its
    payload has d - 2 cut points, the partial sums of 1/(d - 1)."""
    sft = fg.FreeGroup(rank).sft()
    d = sft.d
    mm = ex.uniform_sphere_chain(sft)
    assert (mm.edge_prob == 1.0 / (d - 1)).all() and (mm.stationary == 1.0 / d).all()
    g = mm.graph
    fix = np.bincount(g.dst, mm.stationary[g.src] * mm.edge_prob, len(g)) - mm.stationary
    assert np.abs(fix).max() <= 1e-15
    assert mm.potential.normalized and mm.potential.normalization_defect() <= 1e-15
    parry = mk.parry_measure(sft)
    for k in range(1, 5):
        assert np.abs(mm.cylinder_masses(k) - parry.cylinder_masses(k)).max() <= 1e-15
    assert len(ex.markov_sampler_payload(mm)["cuts"]) == d - 2


def test_uniform_sphere_chain_needs_constant_degrees():
    with pytest.raises(ValueError, match="equal in- and out-degrees"):
        ex.uniform_sphere_chain(golden_mean())


@pytest.mark.parametrize("rank,n,count,seed", [(2, 7, 5, 3), (2, 40, 90, 11), (3, 9, 170, 5)])
def test_sphere_sample_rows_are_uniform_chain_paths(rank, n, count, seed):
    """Float uniforms (5 samples) and codes (90 samples on 2 cut points, 170 on 4)."""
    G = fg.FreeGroup(rank)
    samples = fg.sphere_sample(G, n, count, seed)
    mm = ex.uniform_sphere_chain(G.sft())
    for t in range(count):
        assert np.array_equal(samples[t], ex.sample_path(mm, n, seed, t))


def test_spherical_clt_is_clt_experiment_on_the_uniform_chain(G):
    res = fg.spherical_clt(G, "ab", n=300, count=1000, seed=4)
    ref = ex.clt_experiment(fg.brooks(G, "ab"), ex.uniform_sphere_chain(G.sft()), 300, 1000, 4,
                            sigma2=res.sigma2)
    assert res.stats.tobytes() == ref.stats.tobytes()
    assert (res.ks, res.dkw, res.sigma2) == (ref.ks, ref.dkw, ref.sigma2)
