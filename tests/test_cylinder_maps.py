"""Cylinder prefix and suffix maps: `WordIndex.prefix(j)` / `suffix(j)` against
tuple slicing, every map between cylinder indexes that now runs on them
against a frozen copy of the base-d arithmetic it replaced, and a source
guard that keeps the word-code format inside sft.py."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import thermoqm
from thermoqm import bowen, thermo
from thermoqm import markov as mk
from thermoqm.errors import InvalidMatrix, NotPrimitive
from thermoqm.freegroup import FreeGroup
from thermoqm.measures import CylinderMeasure
from thermoqm.qm import Quasicocycle, WindowQm
from thermoqm.sft import Sft

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- frozen references ------------------------------------------------------------


def old_at_codes(f, codes):
    if f.m == 0:
        return np.full(len(codes), f.values[0])
    return f.values[f.sft.cylinders(f.m).index_of_codes(codes)]


def old_as_memory(f, m2):
    codes = f.sft.cylinders(m2).codes
    return old_at_codes(f, codes // f.sft.d ** (m2 - f.m))


def old_shift(f):
    codes = f.sft.cylinders(f.m + 1).codes
    return old_at_codes(f, codes % f.sft.d ** f.m)


def old_cylinder_masses(mm, k):
    sft, t, d = mm.sft, mm.t, mm.sft.d
    if k == t:
        return mm.stationary.copy()
    if k < t:
        prefix = sft.cylinders(k).index_of_codes(mm.states.codes // d ** (t - k))
        return np.bincount(prefix, weights=mm.stationary, minlength=len(sft.cylinders(k)))
    g = sft.block_graph(k - 1)
    edge = sft.cylinders(t + 1).index_of_codes(g.ext % d ** (t + 1))
    return old_cylinder_masses(mm, k - 1)[g.src] * mm.edge_prob[edge]


def old_project_conditional(f, mm, s):  # 1 <= s < f.m
    sft = f.sft
    deep_mass = mm.masses_at(f.m)
    idx_deep, idx = sft.cylinders(f.m), sft.cylinders(s)
    prefix = idx.index_of_codes(idx_deep.codes // sft.d ** (f.m - s))
    num = np.bincount(prefix, deep_mass * f.values, len(idx))
    den = np.bincount(prefix, deep_mass, len(idx))
    return num / den


def old_window_ends(sft, t, init):
    """(close, V0) of _WindowTransfer for Q > 1, by first and last symbol codes."""
    g, d = sft.block_graph(t), sft.d
    V0 = np.zeros((len(g), d))
    V0[np.arange(len(g)), g.codes // d ** (t - 1)] = init
    return sft.R[g.codes % d].astype(float), V0


def old_weak_bernoulli_report(mu, n, gaps):
    sft = mu.sft
    m = mu.masses_at(n)
    idx_n, S = sft.cylinders(n), len(m)
    rows = []
    for N in gaps:
        total_len = 2 * n + N
        codes = sft.cylinders(total_len).codes
        pair = idx_n.index_of_codes(codes // sft.d ** (n + N)) * S + idx_n.index_of_codes(
            codes % sft.d**n)
        joint = np.bincount(pair, mu.masses_at(total_len), S * S).reshape(S, S)
        rows.append({"gap": N, "beta": float(np.abs(joint - np.outer(m, m)).sum())})
    return rows


def old_delta_estimate(B):
    best, d, cyl = 0.0, B.sft.d, B.sft.cylinders
    for total in range(2, B.n_max + 1):
        codes = cyl(total).codes
        for n in range(1, total):
            m = total - n
            u, v = cyl(n).index_of_codes(codes // d**m), cyl(m).index_of_codes(codes % d**m)
            best = max(best, float(np.abs(B.tables[total] - B.tables[n][u]
                                          - B.tables[m][v]).max()))
    return best


def old_normalization_defect(phi, k):
    suffix = phi.sft.block_graph(k - 1).dst if k > 1 else np.zeros(phi.sft.d, dtype=np.int64)
    tot = np.bincount(suffix, np.exp(phi.tables[k]))
    return float(np.abs(tot - 1.0).max())


def old_potential_tables(mu, k):
    sft = mu.sft
    tables = {}
    for j in range(1, k + 1):
        den = mu.masses_at(j - 1)[sft.block_graph(j - 1).dst] if j > 1 else 1.0
        tables[j] = np.log(mu.masses_at(j) / den)
    return tables


def old_consistency_defect(mu):
    worst = 0.0
    for k in mu.depths():
        if k + 1 not in mu.masses:
            continue
        parent = mu.sft.block_graph(k).src  # Sft.parent_map(k + 1)
        rollup = np.zeros(len(mu.masses[k]))
        np.add.at(rollup, parent, mu.masses[k + 1])
        worst = max(worst, float(np.abs(rollup - mu.masses[k]).max()))
    return worst


def old_invariance_defect(mu):
    worst = 0.0
    for k in mu.depths():
        if k + 1 not in mu.masses:
            continue
        tails = mu.sft.block_graph(k).dst
        pushed = np.bincount(tails, mu.masses[k + 1], len(mu.masses[k]))
        worst = max(worst, float(np.abs(pushed - mu.masses[k]).max()))
    return worst


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
    """A window-additive L with random kernels of the given widths."""
    return WindowQm({q: dict(zip(np.ndindex(*(d,) * q), rng.standard_normal(d**q)))
                     for q in widths}, 0.0)


def _chain(sft, rng, memory):
    pot = mk.MarkovPotential(sft, memory, rng.standard_normal(len(sft.cylinders(memory + 1))))
    return mk.markov_measure(mk.normalize_potential(pot)[0])


def _table(sft, rng, m):
    return mk.LocallyConstantFn(sft, m, rng.standard_normal(len(sft.cylinders(m)) if m else 1))


# -- prefix and suffix against tuple slicing -----------------------------------------


def _check_maps(sft, depth):
    idx = sft.cylinders(depth)
    for j in range(depth + 1):
        want_pre = [sft.cylinders(j).index(w[:j]) if j else 0 for w in idx.words]
        want_suf = [sft.cylinders(j).index(w[len(w) - j:]) if j else 0 for w in idx.words]
        assert idx.prefix(j).tolist() == want_pre
        assert idx.suffix(j).tolist() == want_suf
        assert idx.prefix(j) is idx.prefix(j) and idx.suffix(j) is idx.suffix(j)  # kept
        assert not idx.prefix(j).flags.writeable and not idx.suffix(j).flags.writeable
    for j in (-1, depth + 1):
        with pytest.raises(ValueError):
            idx.prefix(j)
        with pytest.raises(ValueError):
            idx.suffix(j)


@PROPERTY
@given(primitive_sfts(), st.integers(1, 6))
def test_prefix_and_suffix_are_tuple_slices(sft, depth):
    _check_maps(sft, depth)


def test_prefix_and_suffix_on_the_free_group_of_rank_two():
    sft = FreeGroup(2).sft()
    for depth in range(1, 7):
        _check_maps(sft, depth)


# -- every converted site against its frozen copy ------------------------------------


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_lifts_shifts_and_masses_equal_the_code_arithmetic(sft, seed, memory):
    rng = np.random.default_rng(seed)
    for m in range(0, 4):
        f = _table(sft, rng, m)
        for m2 in range(max(m, 1), 6):
            assert np.array_equal(f.as_memory(m2).values, old_as_memory(f, m2))
        assert np.array_equal(f.shift().values, old_shift(f))
    mm = _chain(sft, rng, memory)
    for k in range(1, mm.t + 4):
        assert np.array_equal(mm.cylinder_masses(k), old_cylinder_masses(mm, k))
    for fm in range(2, 6):
        f = _table(sft, rng, fm)
        for s in range(1, fm):
            assert np.array_equal(mk.project_conditional(f, mm, s).values,
                                  old_project_conditional(f, mm, s))


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1))
def test_window_transfer_ends_equal_the_code_arithmetic(sft, seed):
    rng = np.random.default_rng(seed)
    widths = [int(q) for q in rng.permutation(np.arange(1, 5))[:rng.integers(1, 5)]]
    wt = thermo._WindowTransfer(random_kernels(widths, sft.d, rng), sft)
    if wt.Q > 1:
        close, V0 = old_window_ends(sft, wt.Q - 1, wt.init)
        assert np.array_equal(wt.close, close)
        assert np.array_equal(wt.V0, V0)


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_splits_and_bowen_tables_equal_the_code_arithmetic(sft, seed, memory):
    rng = np.random.default_rng(seed)
    mm = _chain(sft, rng, memory)
    for n in (1, 2):
        assert thermo.weak_bernoulli_report(mm, n, [0, 1, 2]) == \
            old_weak_bernoulli_report(mm, n, [0, 1, 2])
    B = Quasicocycle(sft, {n: rng.standard_normal(len(sft.cylinders(n))) for n in range(1, 6)})
    assert B.delta_estimate() == old_delta_estimate(B)
    phi = bowen.WeakBowenFn(sft, {k: rng.standard_normal(len(sft.cylinders(k)))
                                  for k in range(1, 5)})
    for k in range(1, 5):
        assert phi.normalization_defect(k) == old_normalization_defect(phi, k)
    got, want = bowen.potential_from_measure(mm, 4).tables, old_potential_tables(mm, 4)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[j], want[j]) for j in want)


@PROPERTY
@given(primitive_sfts(), st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_measure_defects_equal_the_add_at_and_graph_rollups(sft, seed, memory):
    rng = np.random.default_rng(seed)
    raw = {k: rng.random(len(sft.cylinders(k))) for k in (1, 2, 3, 5, 6)}  # 4 left out
    for mu in (CylinderMeasure(sft, {k: v / v.sum() for k, v in raw.items()}),
               _chain(sft, rng, memory).cylinder_measure(5)):
        assert mu.consistency_defect() == old_consistency_defect(mu)
        assert mu.invariance_defect() == old_invariance_defect(mu)


# -- the word-code format stays in sft.py ---------------------------------------------


def _code_arithmetic(path):
    """Lines where // or % is applied to a name or attribute called codes or ext."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, (ast.FloorDiv, ast.Mod)):
            left = node.left if isinstance(node, ast.BinOp) else node.target
            name = left.id if isinstance(left, ast.Name) else getattr(left, "attr", None)
            if name in ("codes", "ext"):
                lines.append(node.lineno)
    return lines


def test_only_sft_reads_the_base_d_word_codes():
    pkg = pathlib.Path(thermoqm.__file__).parent
    found = {p.name: _code_arithmetic(p) for p in sorted(pkg.glob("*.py")) if p.name != "sft.py"}
    assert len(found) >= 9
    assert not {name: lines for name, lines in found.items() if lines}
    assert _code_arithmetic(pkg / "sft.py")  # the guard does see the format where it lives


def _names(path, name):
    """Lines where a function, import, name or attribute called `name` appears."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if name in (getattr(node, "id", None), getattr(node, "attr", None),
                        node.name if isinstance(node, (ast.FunctionDef, ast.alias)) else None)]


def test_only_qm_turns_kernels_into_window_sums():
    pkg = pathlib.Path(thermoqm.__file__).parent
    files = sorted(pkg.glob("*.py"))
    assert len(files) >= 11
    assert not {p.name for p in files if _names(p, "kernel_sums")}
    defines = {p.name for p in files for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "window_sums"}
    assert defines == {"qm.py"}
    assert not _names(pkg / "sft.py", "window_sums") and not _names(pkg / "sft.py", "window_tables")


EVALUATORS = {"value", "power_value", "homogenized_value"}


def test_only_quasimorphism_and_tabulated_define_word_evaluators():
    pkg = pathlib.Path(thermoqm.__file__).parent
    classes = {node.name: node for p in sorted(pkg.glob("*.py"))
               for node in ast.walk(ast.parse(p.read_text())) if isinstance(node, ast.ClassDef)}
    kinds, grew = {"Quasimorphism"}, True
    while grew:  # every class whose bases lead to Quasimorphism, by name
        more = {name for name, node in classes.items()
                if any(getattr(b, "id", None) in kinds for b in node.bases)}
        grew, kinds = not more <= kinds, kinds | more
    assert len(kinds) >= 8
    found = {name: EVALUATORS & {f.name for f in classes[name].body
                                 if isinstance(f, ast.FunctionDef)} for name in kinds}
    assert {name: defs for name, defs in found.items() if defs} == {
        "Quasimorphism": EVALUATORS, "TabulatedQm": {"value"}}
