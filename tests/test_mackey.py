"""Induction, Frobenius reciprocity, Mackey's criterion, and Clifford
decomposition on small groups."""

import functools
import hashlib
import importlib.util
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import envlab.mackey
from corpus import (alternating_group_4, closure_mats, cyclic_group, dihedral_group,
                    heisenberg_mod3_group, mackey_corpus, perm_mat, quaternion_group,
                    quaternion_group_sl2, sl2_group, symmetric_group)
from envlab.errors import (CharDividesIndex, ClosureOverflow, DimensionMismatch,
                           NotIrreducible, NotNormal, NotSemisimple, ValidationError)
from envlab.fieldcore import (DEFAULT_SEED, FinMatGroup, IrreducibleWitness, Mat, ModuleRep,
                              commutant, composition_factors, is_irreducible,
                              module_of_group, modules_isomorphic, spin)
from envlab.gf import GF, field_make
from linalg_oracles import (dual_walk_intersection_indices, greedy_cosets,
                            greedy_double_coset_reps, invariants_dim,
                            reference_composition_factors, reference_regular_rep,
                            regular_module)
from envlab.mackey import (CliffordShape, MackeyVerdict, SubgroupDatum, _reynolds_sum,
                           all_subgroups, clifford_blocks_transitive, clifford_decompose,
                           double_coset_reps, dual_module, frobenius_reciprocity_dim,
                           induce, irreducible_modules, mackey_irreducible,
                           module_value, restrict, subgroup_datum)
from test_derived_commutant import small_groups as derived_groups
from test_fieldcore import small_groups as closure_groups


def char_rep(ell, value):
    fld = field_make(ell, 1)
    return ModuleRep(fld, (np.array([[value]], dtype=np.int64),))


def s3_setup():
    G = symmetric_group(3, 7)
    a3 = perm_mat(G.field, [1, 2, 0])
    return G, subgroup_datum(G, [a3])


def test_subgroup_datum_invariant():
    G, sub = s3_setup()
    assert sub.index * sub.subgroup.order == G.order
    assert sub.index == 2
    assert np.array_equal(sub.transversal[0], G.field.eye(3))


def test_induce_from_whole_group_is_identity():
    G = symmetric_group(3, 7)
    sub = subgroup_datum(G, G.generators)
    rho = ModuleRep(G.field, tuple(g.array for g in G.generators))
    ind = induce(sub, rho)
    assert ind.dim == rho.dim
    assert modules_isomorphic(ind, rho)


def test_regular_representation_of_c2():
    c2 = cyclic_group(2, 7)
    sub = subgroup_datum(c2, [Mat.identity(c2.field, 2)])
    reg = induce(sub, char_rep(7, 1))
    assert reg.dim == 2
    chars = sorted(int(m.action[0, 0, 0])
                   for m, _ in composition_factors(reg))
    assert chars == [1, 6]  # trivial and sign


def test_s3_induced_cubic_character():
    G, sub = s3_setup()
    W = char_rep(7, 2)  # a nontrivial cube root of 1 in F_7
    ind = induce(sub, W)
    assert ind.dim == 2
    assert commutant(ind)[1] == 1
    assert bool(mackey_irreducible(sub, W))


def test_char_divides_index():
    # index 3 subgroup over F_3
    G = symmetric_group(3, 3)
    c2 = perm_mat(G.field, [1, 0, 2])
    sub = subgroup_datum(G, [c2])
    with pytest.raises(CharDividesIndex):
        induce(sub, char_rep(3, 1))


def test_frobenius_reciprocity():
    G, sub = s3_setup()
    W = char_rep(7, 2)
    ind = induce(sub, W)
    lhs, rhs = frobenius_reciprocity_dim(sub, W, ind)
    assert lhs == rhs == 1
    # the trivial character does not appear in the 2-dim irreducible
    lhs, rhs = frobenius_reciprocity_dim(sub, char_rep(7, 1), ind)
    assert lhs == rhs == 0


def test_frobenius_reciprocity_sweep():
    G = dihedral_group(4, 5)
    fld = G.field
    for H in all_subgroups(G):
        sub = subgroup_datum(G, H.generators)
        if sub.index % 5 == 0:
            continue
        for W in irreducible_modules(H, fld):
            for V in irreducible_modules(G, fld):
                lhs, rhs = frobenius_reciprocity_dim(sub, W, V)
                assert lhs == rhs


def test_mackey_trivial_character_fails():
    G, sub = s3_setup()
    verdict = mackey_irreducible(sub, char_rep(7, 1))
    assert not verdict
    assert verdict.reason == "condition (II') fails"
    # a double-coset representative outside H, one Mat when read
    g = verdict.failing_rep
    assert isinstance(g, Mat) and g in G and g not in sub.subgroup
    assert verdict.invariant_dim >= 1


def test_mackey_whole_group_reduces_to_irreducibility():
    G = symmetric_group(3, 7)
    sub = subgroup_datum(G, G.generators)
    rho = ModuleRep(G.field, tuple(g.array for g in G.generators))
    # the 3-dim permutation module is reducible
    assert not mackey_irreducible(sub, rho)


def test_mackey_requires_semisimple_setting():
    G = symmetric_group(3, 3)
    sub = subgroup_datum(G, [perm_mat(G.field, [1, 2, 0])])
    with pytest.raises(NotSemisimple):
        mackey_irreducible(sub, char_rep(3, 1))


def test_dihedral_faithful_character():
    G = dihedral_group(5, 11)
    sub = subgroup_datum(G, [G.generators[0]])
    W = char_rep(11, 3)  # 3^5 = 1 mod 11, faithful on C_5
    assert bool(mackey_irreducible(sub, W))
    assert commutant(induce(sub, W))[1] == 1
    assert not mackey_irreducible(sub, char_rep(11, 1))


@pytest.mark.parametrize("G,fld", [pytest.param(G, fld, id=name)
                                   for name, G, fld in mackey_corpus()])
def test_datum_keeps_its_double_coset_intersections(G, fld, monkeypatch):
    # for each representative g after the identity, the x in gHg^-1 n H
    # and g^-1 x g, in H's closure order, found once for every W, and on
    # a fresh datum only when a failing representative is read
    for H in all_subgroups(G):
        sub = subgroup_datum(G, H.generators)
        every = double_coset_reps(sub)
        reps = every[1:]
        assert len(sub.intersections) == len(reps)
        elems = closure_mats(H)
        for (g, conj, xs), rep in zip(sub.intersections, reps):
            g = Mat(G.field, g)
            assert g == Mat(G.field, rep)
            want = [x for x in elems if g.inverse() @ x @ g in H]
            assert [Mat(G.field, x) for x in xs] == want
            assert [Mat(G.field, c) for c in conj] == [g.inverse() @ x @ g for x in want]
        calls = []
        monkeypatch.setattr(envlab.mackey, "double_coset_reps", lambda s: calls.append(1) or every)
        fresh, held = subgroup_datum(G, H.generators), []
        for W in irreducible_modules(H, fld):
            a, b = mackey_irreducible(fresh, W), mackey_irreducible(sub, W)
            assert (a.irreducible, a.reason, a.invariant_dim, a.failing_rep) \
                == (b.irreducible, b.reason, b.invariant_dim, b.failing_rep)
            held.append(a.irreducible)
        assert len(calls) == (not all(held))
        monkeypatch.undo()


@pytest.mark.parametrize("G,fld", [pytest.param(G, fld, id=name)
                                   for name, G, fld in mackey_corpus()])
def test_datum_keeps_the_indices_of_its_intersections(G, fld):
    # the indices in H of g^-1 x g, of x and of x^-1, entry by entry
    for H in all_subgroups(G, up_to_conjugacy=False):
        sub = subgroup_datum(G, H.generators)
        (conj, xs, xs_inv), bounds = sub.intersection_indices
        assert len(bounds) == len(sub.intersections) + 1 and bounds[-1] == len(conj)
        for (_, c, x), lo, hi in zip(sub.intersections, bounds, bounds[1:]):
            inverses = np.array([Mat(H.field, y).inverse().array for y in x])
            assert np.array_equal(conj[lo:hi], H.indices(c))
            assert np.array_equal(xs[lo:hi], H.indices(x))
            assert np.array_equal(xs_inv[lo:hi], H.indices(inverses))


def reference_mackey_irreducible(sub, W, seed=DEFAULT_SEED):
    """Mackey's criterion with W^dual as a module of its own: the inverse
    of every action matrix, and both W and W^dual walked along the words
    of the intersection's elements, one intersection at a time, and the
    fixed space of their Kronecker products counted by one nullspace of
    the stacked A - I."""
    G, H = sub.ambient, sub.subgroup
    fld = W.field
    if not is_irreducible(W, seed=seed):
        return MackeyVerdict(False, "W is reducible over H")
    wdual = dual_module(W)
    for g, conj, xs in sub.intersections:
        mats = fld.kron(module_value(W, H, conj), module_value(wdual, H, xs))
        inv = invariants_dim(ModuleRep(fld, mats))
        if inv > 0:
            return MackeyVerdict(False, "condition (II') fails", (G.field, g), inv)
    return MackeyVerdict(True, "criterion satisfied")


def verdict_bytes(v):
    failing = None if v.failing is None else (v.failing[0], v.failing[1].tobytes())
    return v.irreducible, v.reason, failing, v.invariant_dim


@pytest.mark.parametrize("G,fld", [pytest.param(G, fld, id=name)
                                   for name, G, fld in mackey_corpus()])
def test_mackey_irreducible_matches_the_dual_module_loop(G, fld):
    # every (H, W) of the corpus, W irreducible or the regular
    # representation, which is reducible but for the trivial group
    failed = 0
    for H in all_subgroups(G, up_to_conjugacy=False):
        sub = subgroup_datum(G, H.generators)
        for W in irreducible_modules(H, fld) + [regular_module(H, fld)]:
            want = verdict_bytes(reference_mackey_irreducible(sub, W))
            assert verdict_bytes(mackey_irreducible(sub, W)) == want
            failed += want[2] is not None
    assert failed


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G, _ in mackey_corpus()])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_all_subgroups_matches_reference_on_conjugated_corpus_groups(G, data):
    # the generators of a corpus group all conjugated by one random P in
    # GL_n over its field
    fld = G.field
    P = np.array(data.draw(st.lists(st.integers(0, fld.q - 1), min_size=G.n ** 2,
                                    max_size=G.n ** 2)), dtype=np.int64).reshape(G.n, G.n)
    assume(fld.rank(P) == G.n)
    same_subgroup_lists(FinMatGroup(fld, fld.matmul(fld.matmul(P, G.gens), fld.inv_matrix(P))))


def test_double_cosets_partition():
    G, sub = s3_setup()
    reps = double_coset_reps(sub)
    assert np.array_equal(reps[0], G.field.eye(3))
    assert len(reps) == 2  # A_3 and its complement


def test_dual_module_inverts_transpose():
    G = dihedral_group(5, 11)
    rho = ModuleRep(G.field, tuple(g.array for g in G.generators))
    dual = dual_module(rho)
    fld = G.field
    for m, md in zip(rho.action, dual.action):
        assert np.array_equal(fld.matmul(m.T, md), fld.eye(rho.dim))


def test_clifford_s3():
    G, sub = s3_setup()
    V = induce(sub, char_rep(7, 2))
    shape = clifford_decompose(G, [perm_mat(G.field, [1, 2, 0])], V)
    assert (shape.e, shape.f) == (2, 1)
    chars = sorted(int(m.action[0, 0, 0]) for m in shape.factors)
    assert chars == [2, 4]  # the two conjugate cubic characters
    assert clifford_blocks_transitive(G, [perm_mat(G.field, [1, 2, 0])], shape)


def test_clifford_whole_group():
    G, sub = s3_setup()
    V = induce(sub, char_rep(7, 2))
    shape = clifford_decompose(G, [g for g in G.generators], V)
    assert (shape.e, shape.f) == (1, 1)


def test_clifford_heisenberg_center():
    G = heisenberg_mod3_group(7)
    assert G.order == 27
    x, y = G.generators
    z = x @ y @ x.inverse() @ y.inverse()
    V = ModuleRep(G.field, (x.array, y.array))
    shape = clifford_decompose(G, [z], V)
    assert (shape.e, shape.f) == (1, 3)
    assert shape.factors[0].dim == 1


def test_clifford_rejects_non_normal():
    G = symmetric_group(3, 7)
    V = induce(subgroup_datum(G, [perm_mat(G.field, [1, 2, 0])]), char_rep(7, 2))
    with pytest.raises(NotNormal):
        clifford_decompose(G, [perm_mat(G.field, [1, 0, 2])], V)


def test_a_registered_generator_list_builds_no_group(monkeypatch):
    # the lookup keys a list by its canonical arrays: a list that
    # all_subgroups returned, as Mats or as raw arrays with entries that
    # are not canonical (-1 over F_5), gives the registered group, G's own
    # list gives G, and only an unregistered list builds a group
    mk = envlab.mackey
    G, Q = symmetric_group(4, 5), quaternion_group(5)
    subs = all_subgroups(G) + all_subgroups(Q)
    built, init = [], FinMatGroup.__init__
    monkeypatch.setattr(FinMatGroup, "__init__",
                        lambda self, *a: built.append(1) or init(self, *a))
    negated = 0
    for H in subs:
        ambient = G if H.n == 4 else Q
        assert mk._subgroup(ambient, H.generators) is H
        raw = [np.where(g.array == 4, -1, g.array) for g in H.generators]
        negated += any((a < 0).any() for a in raw)
        assert mk._subgroup(ambient, raw) is H
    assert negated and mk._subgroup(G, [np.array(g.array) for g in G.generators]) is G
    assert built == []
    H = next(H for H in subs if len(H.generators) > 1)
    assert mk._subgroup(G, H.generators[::-1]) is not H
    assert built == [1]


def test_a_generator_list_of_another_shape_misses_the_registry():
    # S4 over F_13: the four 2 x 2 blocks of the one 4 x 4 generator of
    # the registered C4 have its bytes but not its shape, so they miss the
    # registry and are checked, and no block lies in G
    mk = envlab.mackey
    G = symmetric_group(4, 13)
    C4 = next(H for H in all_subgroups(G) if H.order == 4 and len(H.generators) == 1)
    blocks = list(C4.gens[0].reshape(4, 2, 2))
    assert mk._subgroup(G, blocks) is not C4
    with pytest.raises(ValidationError):
        subgroup_datum(G, blocks)


def test_two_lists_of_one_registered_subgroup_give_the_same_group():
    # S4 over F_13: a registered list as Mats and as nested int lists, and
    # G's own list, each give the one group they name
    G = symmetric_group(4, 13)
    for H in all_subgroups(G, up_to_conjugacy=False):
        as_lists = [g.array.tolist() for g in H.generators]
        assert subgroup_datum(G, H.generators).subgroup is H
        assert subgroup_datum(G, as_lists).subgroup is H
    assert subgroup_datum(G, [g.array.tolist() for g in G.generators]).subgroup is G


def test_restrict_to_a_group_with_a_generator_outside_g_is_a_validation_error():
    G = symmetric_group(3, 7)
    V = irreducible_modules(G, G.field)[-1]
    outside = FinMatGroup(G.field, [G.generators[0], Mat(G.field, [[2, 0, 0], [0, 1, 0],
                                                                   [0, 0, 1]])])
    with pytest.raises(ValidationError):
        restrict(V, G, outside)
    with pytest.raises(ValidationError):
        restrict(V, G, FinMatGroup(G.field, []))


def test_the_error_paths_of_the_verdicts():
    G, sub = s3_setup()
    fld = G.field
    W = irreducible_modules(sub.subgroup, fld)[1]
    two = ModuleRep(fld, np.concatenate([W.action, W.action]))
    with pytest.raises(DimensionMismatch):
        module_value(two, sub.subgroup, sub.subgroup.gens)
    with pytest.raises(DimensionMismatch):
        mackey_irreducible(sub, two)
    with pytest.raises(ValidationError):
        subgroup_datum(G, [Mat(fld, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])])
    with pytest.raises(NotIrreducible):
        clifford_decompose(G, sub.subgroup.generators, module_of_group(G))
    with pytest.raises(NotSemisimple):
        irreducible_modules(G, field_make(3, 1))
    line, plane = (next(V for V in irreducible_modules(G, fld) if V.dim == d) for d in (1, 2))
    with pytest.raises(ValidationError):
        CliffordShape(2, 1, [line, plane])


def test_all_subgroups_s4():
    G = symmetric_group(4, 13)
    assert len(all_subgroups(G, up_to_conjugacy=False)) == 30
    classes = all_subgroups(G)
    assert len(classes) == 11
    assert sorted(H.order for H in classes) == [1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24]


@pytest.mark.parametrize("make", [lambda: symmetric_group(4, 13), lambda: sl2_group(5)],
                         ids=["S4/F13", "SL2(F5)"])
def test_joins_one_pair_at_a_time_find_the_same_subgroups(make, monkeypatch):
    def found():
        G = make()
        return [(H.order, [g.array.tobytes() for g in H.generators])
                for up_to_conjugacy in (False, True)
                for H in all_subgroups(G, up_to_conjugacy)]

    want = found()
    monkeypatch.setattr(envlab.mackey, "JOIN_ENTRIES", 1)
    assert found() == want


def test_regular_rep_and_irreducibles():
    G = symmetric_group(3, 7)
    reg = regular_module(G, G.field)
    assert reg.dim == 6
    dims = sorted(m.dim for m in irreducible_modules(G, G.field))
    assert dims == [1, 1, 2]
    s4 = symmetric_group(4, 13)
    dims4 = sorted(m.dim for m in irreducible_modules(s4, s4.field))
    assert dims4 == [1, 1, 2, 3, 3]


def trace_key(W, G):
    """(dim W, the trace of W at every element of G's closure, in closure
    order), each matrix from word_value and each trace summed with the
    field's scalar addition."""
    add = W.field.scalar_ops[0]
    values = [word_value(W, G, Mat(G.field, x)) for x in G.closure()]
    return W.dim, tuple(functools.reduce(add, np.diagonal(v).tolist()) for v in values)


@pytest.mark.parametrize("G,fld", [pytest.param(G, fld, id=name)
                                   for name, G, fld in mackey_corpus()])
def test_irreducible_modules_are_sorted_by_dimension_and_traces(G, fld):
    # over the corpus field, and over GF(9) where 3 does not divide |G|:
    # no two keys tie, and at another seed the class at each position is
    # the same
    for coefficients in (fld, field_make(3, 2)):
        if G.order % coefficients.ell == 0:
            continue
        modules = irreducible_modules(G, coefficients)
        keys = [trace_key(W, G) for W in modules]
        assert keys == sorted(set(keys))
        others = irreducible_modules(G, coefficients, seed=DEFAULT_SEED + 1)
        assert len(others) == len(modules)
        assert all(modules_isomorphic(a, b) for a, b in zip(modules, others))


def test_restrict_composes_with_words():
    G, sub = s3_setup()
    rho = ModuleRep(G.field, tuple(g.array for g in G.generators))
    res = restrict(rho, G, sub.subgroup)
    assert res.dim == 3
    # restricting the permutation module to A_3 splits into three characters
    factors = composition_factors(res)
    assert sorted(m.dim for m, k in factors for _ in range(k)) == [1, 1, 1]
    # a group without generators has no generator stack to restrict to
    with pytest.raises(ValidationError):
        restrict(rho, G, FinMatGroup(G.field, []))


# -- the Mat-at-a-time versions of the coset routines, kept as oracles --

def reference_transversal(G, H):
    """Left coset representatives, greedy in the closure order of G."""
    h_elems = closure_mats(H)
    covered, reps = set(), []
    for t in closure_mats(G):
        if t not in covered:
            reps.append(t)
            covered.update(t @ h for h in h_elems)
    return reps


def reference_double_coset_reps(G, H):
    """Double coset representatives, greedy, covering H g H pair by pair."""
    h_elems = closure_mats(H)
    covered, reps = set(), []
    for g in closure_mats(G):
        if g not in covered:
            reps.append(g)
            for a in h_elems:
                ag = a @ g
                covered.update(ag @ b for b in h_elems)
    return reps


def word_value(W, H, h):
    """W at one element h of H: the product of W over the closure word of
    h, left to right, one Mat at a time."""
    acc = Mat.identity(W.field, W.dim)
    for gi in H.word_for(h):
        acc = acc @ Mat(W.field, W.action[gi])
    return acc.array


def reference_induce(G, H, T, W):
    """Ind_H^G W with each (i, j) block found by testing t_i^-1 g t_j in H."""
    k, m = len(T), W.dim
    t_inv = [t.inverse() for t in T]
    mats = []
    for g in G.generators:
        big = np.zeros((k * m, k * m), dtype=np.int64)
        for j in range(k):
            gt = g @ T[j]
            for i in range(k):
                h = t_inv[i] @ gt
                if h in H:
                    big[i * m:(i + 1) * m, j * m:(j + 1) * m] = word_value(W, H, h)
                    break
        mats.append(big)
    return mats


def reference_all_subgroups(G, up_to_conjugacy=True):
    """Cyclic subgroups closed under pairwise joins, keyed by element sets;
    conjugacy classes named by the least sorted conjugate."""
    elems = closure_mats(G)
    index = {x: i for i, x in enumerate(elems)}
    subs = {}

    def record(gens):
        key = frozenset(index[x] for x in closure_mats(FinMatGroup(G.field, gens)))
        if key not in subs:
            subs[key] = gens

    record([Mat.identity(G.field, G.n)])
    for g in elems:
        record([g])
    while True:
        before = len(subs)
        pairs = list(subs.items())
        for key, gens in pairs:
            for other, ogens in pairs:
                if not (key <= other or other <= key):
                    record(gens + ogens)
        if len(subs) == before:
            break
    groups = [FinMatGroup(G.field, gens) for gens in subs.values()]
    if not up_to_conjugacy:
        return groups
    seen, out = set(), []
    for H in groups:
        orbit = [frozenset(index[g @ x @ g.inverse()] for x in closure_mats(H))
                 for g in elems]
        canon = min(orbit, key=lambda s: tuple(sorted(s)))
        if canon not in seen:
            seen.add(canon)
            out.append(H)
    return out


@st.composite
def conjugated_s4_subgroups(draw):
    """A subgroup of S4 over F_13 generated by one to three permutation
    matrices, all conjugated by one random P in GL4(F_13)."""
    fld = field_make(13, 1)
    perms = draw(st.lists(st.permutations(range(4)), min_size=1, max_size=3))
    P = np.array(draw(st.lists(st.integers(0, 12), min_size=16, max_size=16)),
                 dtype=np.int64).reshape(4, 4)
    assume(fld.rank(P) == 4)
    P_inv = fld.inv_matrix(P)
    return FinMatGroup(fld, [fld.matmul(fld.matmul(P, perm_mat(fld, p).array), P_inv)
                             for p in perms])


def same_subgroup_lists(G):
    for up_to_conjugacy in (False, True):
        mine = all_subgroups(G, up_to_conjugacy)
        ref = reference_all_subgroups(G, up_to_conjugacy)
        assert [H.generators for H in mine] == [H.generators for H in ref]
        assert [H.order for H in mine] == [H.order for H in ref]


@settings(max_examples=10, deadline=None)
@given(conjugated_s4_subgroups())
def test_all_subgroups_matches_reference_on_s4_subgroups(G):
    same_subgroup_lists(G)


def test_all_subgroups_of_trivial_and_cyclic_groups():
    fld = field_make(13, 1)
    trivial = FinMatGroup(fld, [Mat.identity(fld, 4)])
    assert [H.generators for H in all_subgroups(trivial)] == [trivial.generators]
    same_subgroup_lists(trivial)
    # C_12: one subgroup, and so one class, per divisor of 12
    c12 = cyclic_group(12, 13)
    assert [H.order for H in all_subgroups(c12)] == [1, 12, 6, 4, 3, 2]
    same_subgroup_lists(c12)


def same_matrices(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def arrays(mats):
    return np.array([m.array for m in mats])


@pytest.mark.parametrize("G,fld", [pytest.param(G, fld, id=name)
                                   for name, G, fld in mackey_corpus()])
def test_stack_routines_match_mat_oracles(G, fld):
    subs = all_subgroups(G, up_to_conjugacy=False)
    for mine, ref in [(subs, reference_all_subgroups(G, up_to_conjugacy=False)),
                      (all_subgroups(G), reference_all_subgroups(G))]:
        assert [H.generators for H in mine] == [H.generators for H in ref]
    for H in subs:
        sub = subgroup_datum(G, H.generators)
        assert np.array_equal(sub.transversal, arrays(reference_transversal(G, sub.subgroup)))
        T = [Mat(G.field, t) for t in sub.transversal]
        assert [T[c] for c in sub.coset] == [
            next(t for t in T if t.inverse() @ x in sub.subgroup)
            for x in closure_mats(G)]
        assert np.array_equal(double_coset_reps(sub),
                              arrays(reference_double_coset_reps(G, sub.subgroup)))
        # P_j[H.left[j, i], i] = 1: the permutations that the store gathers along
        assert np.array_equal(np.argmax(reference_regular_rep(H), axis=1), H.left)
        for W in irreducible_modules(H, fld):
            assert same_matrices(induce(sub, W).action,
                                 reference_induce(G, sub.subgroup, T, W))


def same_coset_structures(G, monkeypatch):
    """On every subgroup H of G, the transversal, coset labels, double-coset
    representatives and intersection indices equal, in order, those of the
    loops the index tables replaced; with G and H closed, subgroup_datum
    and double_coset_reps multiply no matrices, and the intersections
    walk no words."""
    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for H in all_subgroups(G, up_to_conjugacy=False):
        H.closure()
        calls = {"matmul": 0, "_value_at": 0}
        with monkeypatch.context() as patch:
            patch.setattr(GF, "matmul", counted("matmul", GF.matmul))
            patch.setattr(envlab.mackey, "_value_at",
                          counted("_value_at", envlab.mackey._value_at))
            sub = subgroup_datum(G, H.generators)
            reps = double_coset_reps(sub)
            assert calls["matmul"] == 0
            got, bounds = sub.intersection_indices
            assert calls["_value_at"] == 0
        transversal, coset = greedy_cosets(G, H)
        assert np.array_equal(sub.transversal, transversal)
        assert np.array_equal(sub.coset, coset)
        assert np.array_equal(reps, greedy_double_coset_reps(G, H, transversal, coset))
        want, want_bounds = dual_walk_intersection_indices(G, H, reps[1:])
        assert np.array_equal(bounds, want_bounds)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G, _ in mackey_corpus()])
def test_coset_structures_match_the_greedy_loops(G, monkeypatch):
    same_coset_structures(G, monkeypatch)


@settings(max_examples=10, deadline=None)
@given(G=conjugated_s4_subgroups())
def test_coset_structures_match_the_greedy_loops_on_s4_subgroups(G):
    with pytest.MonkeyPatch.context() as monkeypatch:
        same_coset_structures(G, monkeypatch)


@pytest.mark.parametrize("call", [
    pytest.param(all_subgroups, id="all_subgroups"),
    pytest.param(lambda G: irreducible_modules(G, G.field), id="irreducible_modules"),
    pytest.param(lambda G: subgroup_datum(G, G.generators), id="subgroup_datum")])
def test_a_singular_generator_is_a_validation_error(call):
    # {1, 0} under multiplication is no group: all_subgroups never reached
    # the identity again, and the others answered as if it were one
    with pytest.raises(ValidationError, match="generator is not invertible"):
        call(FinMatGroup(field_make(5, 1), [[[0]]]))


def random_invertible(fld, m, rng):
    while True:
        M = rng.integers(0, fld.q, size=(m, m)).astype(np.int64)
        if fld.rank(M) == m:
            return M


@pytest.mark.parametrize("G,fld", [pytest.param(G, fld, id=name)
                                   for name, G, fld in mackey_corpus()])
def test_stacked_module_value_matches_word_walk(G, fld):
    """On every element of every subgroup, for each irreducible W of H and
    for random invertible matrices that satisfy no relation of H, where
    the value depends on the word itself."""
    rng = np.random.default_rng(len(G.generators) * 100 + G.order)
    for H in all_subgroups(G, up_to_conjugacy=False):
        elems = H.closure()
        k = len(H.generators)
        noise = ModuleRep(fld, tuple(random_invertible(fld, 3, rng) for _ in range(k)))
        for W in irreducible_modules(H, fld) + [noise]:
            got = module_value(W, H, elems)
            assert got.shape == (len(elems), W.dim, W.dim)
            assert all(np.array_equal(v, word_value(W, H, Mat(H.field, x)))
                       for v, x in zip(got, elems))
            # any leading shape, and one matrix alone
            assert np.array_equal(module_value(W, H, elems[None]), got[None])
            assert np.array_equal(module_value(W, H, elems[-1]), got[-1])
    with pytest.raises(ValidationError):
        module_value(noise, H, 2 * G.field.eye(G.n))


# -- irreducible modules from the centre of the group algebra --

def reference_classes(G):
    """The conjugacy classes of G as sets of closure indices, each grown
    by conjugating with every element as Mats."""
    elems = closure_mats(G)
    index = {x: i for i, x in enumerate(elems)}
    classes, seen = [], set()
    for x in elems:
        if x not in seen:
            cls = {g @ x @ g.inverse() for g in elems}
            seen |= cls
            classes.append({index[y] for y in cls})
    return classes


@pytest.mark.parametrize("G,fld", [pytest.param(G, fld, id=name)
                                   for name, G, fld in mackey_corpus()])
def test_class_sums_match_products_of_mats(G, fld):
    # the class numbers partition the closure into its conjugacy classes,
    # inverse_class is the class of each element's inverse, and K_i K_j =
    # sum_l M[i][l, j] K_l counts the products x y, x in C_i and y in
    # C_j, at the first element of each C_l
    cls, inverse_class, M = envlab.mackey._class_sums(G, fld)
    classes = reference_classes(G)
    assert sorted(map(sorted, classes)) == sorted(
        np.flatnonzero(cls == c).tolist() for c in range(len(M)))
    elems = closure_mats(G)
    index = {x: i for i, x in enumerate(elems)}
    assert inverse_class.tolist() == [cls[index[x.inverse()]] for x in elems]
    first = [int(np.flatnonzero(cls == c)[0]) for c in range(len(M))]
    for i in range(len(M)):
        for j in range(len(M)):
            products = [index[elems[x] @ elems[y]] for x in np.flatnonzero(cls == i)
                        for y in np.flatnonzero(cls == j)]
            assert [products.count(z) % fld.ell for z in first] == M[i][:, j].tolist()


SPLIT_LINES = {"S4/F13": 5, "D4/F5": 5, "Q8/F5": 5, "A4/F7": 4, "D6/F7": 6}


@pytest.mark.parametrize("G,fld,lines", [pytest.param(G, fld, SPLIT_LINES[name], id=name)
                                         for name, G, fld in mackey_corpus()
                                         if name in SPLIT_LINES])
def test_centre_splits_into_one_line_per_class_over_a_splitting_field(G, fld, lines):
    blocks, _, _ = envlab.mackey._central_blocks(G, fld, DEFAULT_SEED)
    assert [len(b) for b in blocks] == [1] * lines
    assert len(reference_classes(G)) == lines


SMALL_GROUPS = [
    *(functools.partial(cyclic_group, n, 7) for n in range(2, 8)),
    *(functools.partial(dihedral_group, n, 7) for n in range(4, 7)),
    functools.partial(symmetric_group, 3, 7), functools.partial(alternating_group_4, 7),
    functools.partial(symmetric_group, 4, 7), functools.partial(quaternion_group, 5),
]


def same_irreducibles(H, fld):
    """irreducible_modules(H, fld) against the composition factors of the
    regular representation that every piece searched: the same
    dimensions, each reference class isomorphic to exactly one module,
    and every module certified."""
    got = irreducible_modules(H, fld)
    want = [m for m, _ in reference_composition_factors(regular_module(H, fld))]
    return (sorted(m.dim for m in got) == sorted(m.dim for m in want)
            and all(sum(modules_isomorphic(a, b) for a in got) == 1 for b in want)
            and all(m._witness is not None for m in got))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.sampled_from([2, 3, 5, 7, 11, 13]),
       st.sampled_from([1, 2]))
def test_irreducible_modules_match_the_reference_decomposition(make, ell, d):
    H = make()
    assume(H.order % ell)
    assert same_irreducibles(H, field_make(ell, d))


# (group, field, the dimensions of its central blocks): the first seven
# fields do not split their group, so some block of the centre is not a
# line; the last five do.  A class's right action cuts every block of
# all twelve, and the store takes composition_factors for none
CENTRE_BLOCKS = [
    ("C3/F5", cyclic_group(3, 7), field_make(5, 1), [1, 2]),
    ("C7/F2", cyclic_group(7, 5), field_make(2, 1), [1, 3, 3]),
    ("C5/F2", cyclic_group(5, 7), field_make(2, 1), [1, 4]),
    ("C4/F3", cyclic_group(4, 7), field_make(3, 1), [1, 1, 2]),
    ("C5/F3", cyclic_group(5, 7), field_make(3, 1), [1, 4]),
    ("D5/F3", dihedral_group(5, 7), field_make(3, 1), [1, 1, 2]),
    ("A4/F5", alternating_group_4(7), field_make(5, 1), [1, 1, 2]),
    ("D4/F3", dihedral_group(4, 7), field_make(3, 1), [1] * 5),
    ("S3/F5", symmetric_group(3, 7), field_make(5, 1), [1] * 3),
    ("S4/F5", symmetric_group(4, 7), field_make(5, 1), [1] * 5),
    ("C3/GF(25)", cyclic_group(3, 7), field_make(5, 2), [1] * 3),
    ("A4/GF(25)", alternating_group_4(7), field_make(5, 2), [1] * 4),
]


@pytest.mark.parametrize("H,fld,dims", [pytest.param(H, fld, dims, id=name)
                                        for name, H, fld, dims in CENTRE_BLOCKS])
def test_blocks_that_are_not_lines_take_composition_factors(H, fld, dims, monkeypatch):
    mk = envlab.mackey
    assert sorted(map(len, mk._central_blocks(H, fld, DEFAULT_SEED)[0])) == dims
    decomposed, factors = [], mk.composition_factors
    monkeypatch.setattr(mk, "composition_factors",
                        lambda rho, **kw: decomposed.append(rho.dim) or factors(rho, **kw))
    assert same_irreducibles(H, fld)
    assert decomposed == []


@pytest.mark.parametrize("H,fld", [pytest.param(H, fld, id=name)
                                   for name, H, fld, _ in CENTRE_BLOCKS])
def test_stored_idempotents_project_onto_their_own_modules(H, fld, monkeypatch):
    # one idempotent row and one character row per module, line or not,
    # found and sorted with no word walk: module j at the idempotent of
    # module i is the identity for i = j and zero else, which determines
    # e_i in the semisimple F[H]; the character is the trace of the
    # module at each element; and the order is the canonical one
    mk = envlab.mackey
    H = FinMatGroup(H.field, H.generators)  # an empty store
    monkeypatch.setattr(mk, "_value_at", lambda *a: pytest.fail("walked"))
    modules, idempotents, characters = mk._stored_irreducibles(H, fld, DEFAULT_SEED)
    monkeypatch.undo()
    assert idempotents.shape == characters.shape == (len(modules), H.order)
    assert not characters.flags.writeable
    for W, chi in zip(modules, characters):
        assert np.array_equal(chi, envlab.fieldcore._traces(fld, module_value(W, H, H.closure())))
        values = module_value(W, H, H.closure()).reshape(H.order, -1)
        images = fld.matmul(idempotents, values).reshape(-1, W.dim, W.dim)
        for U, image in zip(modules, images):
            assert np.array_equal(image, fld.eye(W.dim) if U is W else 0 * image)
    assert same_canonical_irreducibles(H, fld)


# -- the lines of split abelian groups, read off the Cayley table --

def same_store(a, b):
    """Whether two store entries are equal byte for byte: the modules'
    actions and witnesses, the idempotents and the characters, in order."""
    (modules_a, *arrays_a), (modules_b, *arrays_b) = a, b
    return (len(modules_a) == len(modules_b)
            and all(U.action.tobytes() == W.action.tobytes()
                    and U.action.shape == W.action.shape and U._witness == W._witness
                    for U, W in zip(modules_a, modules_b))
            and all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                    for x, y in zip(arrays_a, arrays_b)))


# (ell, d): prime fields and extensions GF(ell^d), with q - 1 = 6, 10, 12,
# 3, 8, 7 and 24
SPLIT_FIELDS = [(7, 1), (11, 1), (13, 1), (2, 2), (3, 2), (2, 3), (5, 2)]


@st.composite
def split_abelian_groups(draw):
    """(H, fld, e): a product of up to three diagonal cyclic factors over
    fld = GF(ell^d), each of an order n dividing q - 1 and |H| <= 64, on a
    shuffled generator list that may hold one more product of powers of
    the factors, and its exponent e, the lcm of the orders."""
    ell, d = draw(st.sampled_from(SPLIT_FIELDS))
    fld = field_make(ell, d)
    divisors = [n for n in range(1, fld.q) if (fld.q - 1) % n == 0]
    orders, budget = [], 64
    for _ in range(draw(st.integers(1, 3))):
        orders.append(draw(st.sampled_from([n for n in divisors if n <= budget])))
        budget //= orders[-1]
    roots = [fld.pow(fld.least_primitive(), (fld.q - 1) // n) for n in orders]
    gens = [np.diag([r if i == j else 1 for i in range(len(roots))]) for j, r in enumerate(roots)]
    for powers in draw(st.lists(st.lists(st.integers(0, 5), min_size=len(roots),
                                         max_size=len(roots)), max_size=1)):
        gens.append(np.diag([fld.pow(r, a) for r, a in zip(roots, powers)]))
    return FinMatGroup(fld, draw(st.permutations(gens))), fld, math.lcm(*orders)


@settings(max_examples=40, deadline=None)
@given(split_abelian_groups())
def test_the_line_store_equals_the_centre_store_on_split_abelian_groups(case):
    H, fld, e = case
    mk = envlab.mackey
    assert mk._split_exponent(H, fld) == e
    lines = mk._line_store(H, fld, e)
    assert len(lines[0]) == H.order
    assert same_store(lines, mk._centre_store(H, fld, DEFAULT_SEED))


@pytest.mark.parametrize("H,fld", [
    pytest.param(cyclic_group(6, 7), field_make(5, 1), id="C6/F5"),
    pytest.param(cyclic_group(7, 5), field_make(2, 1), id="C7/F2"),
    pytest.param(symmetric_group(3, 7), field_make(7, 1), id="S3/F7"),
    pytest.param(quaternion_group(5), field_make(5, 1), id="Q8/F5"),
])
def test_non_split_or_non_abelian_groups_take_the_centre_route(H, fld, monkeypatch):
    # C6 over F_5 and C7 over F_2 are abelian, but 6 does not divide 4 nor
    # 7 divide 1, so some irreducible is not a line; S3 over F_7 and Q8
    # over F_5 are split, their exponents dividing q - 1, but not abelian
    mk = envlab.mackey
    H = FinMatGroup(H.field, H.generators)  # an empty store
    assert mk._split_exponent(H, fld) is None
    monkeypatch.setattr(mk, "_line_store", lambda *a: pytest.fail("took the line route"))
    calls, centre = [], mk._centre_store
    monkeypatch.setattr(mk, "_centre_store", lambda *a: calls.append(1) or centre(*a))
    modules = irreducible_modules(H, fld)
    assert calls == [1] and len(modules) < H.order


@pytest.mark.parametrize("H,fld", [
    pytest.param(cyclic_group(6, 7), field_make(7, 1), id="C6/F7"),
    pytest.param(cyclic_group(3, 7), field_make(5, 2), id="C3/GF(25)"),
    pytest.param(FinMatGroup(field_make(11, 1), [np.diag([2, 1]), np.diag([1, 2])]),
                 field_make(11, 1), id="C10xC10/F11"),
])
def test_split_abelian_groups_form_no_regular_representation(H, fld, monkeypatch):
    # an abelian H whose exponent divides q - 1 stores |H| certified lines
    # with no centre split
    mk = envlab.mackey
    H = FinMatGroup(H.field, H.generators)  # an empty store
    for name in ("_central_blocks", "_centre_store"):
        monkeypatch.setattr(mk, name, lambda *a: pytest.fail("split the centre"))
    modules = irreducible_modules(H, fld)
    assert len(modules) == H.order
    assert all(W.dim == 1 and W._witness == IrreducibleWitness(None, 1, 1) for W in modules)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def test_the_lines_of_a_cyclic_group_of_order_1000_stay_within_a_gibibyte():
    # C_1000 = <w^3> in F_3001^x, w primitive: its 1000 lines, in a child
    # process whose address space is limited to 1 GiB, where the centre
    # split's structure constants alone are 1000^3 int64, 7.45 GiB
    code = "\n".join([
        "from envlab.fieldcore import FinMatGroup",
        "from envlab.gf import field_make",
        "from envlab.mackey import irreducible_modules",
        "fld = field_make(3001)",
        "H = FinMatGroup(fld, [[[fld.pow(fld.least_primitive(), 3)]]])",
        "modules = irreducible_modules(H, fld)",
        "print(H.order, len(modules), {W.dim for W in modules})",
    ])
    done = _run_in_child(code, preexec_fn=_limit_address_space)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1000 1000 {1}\n"


def test_the_subgroup_sweep_of_sl2_f7_stays_small():
    # SL2(F_7), order 336: a round's joins in one table took about 400 MB
    code = "\n".join([
        "import resource",
        "from envlab.fieldcore import FinMatGroup",
        "from envlab.gf import field_make",
        "from envlab.mackey import all_subgroups",
        "G = FinMatGroup(field_make(7), [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])",
        "G.closure()",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        "subs = all_subgroups(G)",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, len(subs))",
    ])
    done = _run_in_child(code)
    assert done.returncode == 0, done.stderr
    grown_kib, classes = map(int, done.stdout.split())
    assert classes == 19  # the classes of subgroups of SL2(F_7)
    assert grown_kib < 64 * 1024


def _run_in_child(code, **kw):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600, **kw)


# -- each irreducible cut from its block by the right action --

def canonical_reference(H, fld):
    """The classes of composition_factors(regular_module(H)), sorted as
    irreducible_modules sorts its own: by dimension, then by the trace at
    every element of H's closure, in closure order, each trace summed
    with the field's scalar addition."""
    add = fld.scalar_ops[0]

    def key(W):
        values = module_value(W, H, H.closure())
        return W.dim, tuple(functools.reduce(add, np.diagonal(v).tolist()) for v in values)
    return sorted((m for m, _ in composition_factors(regular_module(H, fld))), key=key)


def same_canonical_irreducibles(H, fld):
    """irreducible_modules(H, fld) isomorphic, position by position, to
    the canonically sorted composition factors of F[H], each module
    carrying a witness."""
    got, want = irreducible_modules(H, fld), canonical_reference(H, fld)
    return (len(got) == len(want) and all(map(modules_isomorphic, got, want))
            and all(isinstance(m._witness, IrreducibleWitness) for m in got))


@pytest.mark.parametrize("seed", [7, 11, 901])
def test_irreducible_modules_are_the_composition_factors_on_the_bench_corpus(seed):
    # every subgroup, not one per class, of each mackey group of the
    # benchmark at the seed, conjugated as the benchmark conjugates it
    wl = _bench_workloads()
    for i, (_, ell, gens) in enumerate(wl.mackey_corpus()):
        rng = np.random.default_rng([seed, i])
        G = FinMatGroup.from_json(wl._conjugated(wl.envlab.gf.GF(ell), gens[0].shape[0],
                                                 gens, rng))
        fld = field_make(ell, 1)
        for H in all_subgroups(G, up_to_conjugacy=False):
            assert same_canonical_irreducibles(H, fld)


def alternating_group_5(ell):
    fld = field_make(ell, 1)
    return FinMatGroup(fld, [perm_mat(fld, [1, 2, 0, 3, 4]), perm_mat(fld, [0, 1, 3, 4, 2])])


@pytest.mark.parametrize("make,ell", [
    pytest.param(functools.partial(symmetric_group, 4, 5), 5, id="S4/F5"),
    pytest.param(functools.partial(alternating_group_5, 11), 11, id="A5/F11"),
    pytest.param(functools.partial(symmetric_group, 5, 7), 7, id="S5/F7"),
])
def test_irreducible_modules_are_the_composition_factors_on_larger_groups(make, ell):
    assert same_canonical_irreducibles(make(), field_make(ell, 1))


@st.composite
def permutation_groups(draw):
    n = draw(st.integers(2, 5))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
    ell = draw(st.sampled_from([5, 7, 11, 13]))
    fld = field_make(ell, 1)
    return FinMatGroup(fld, [perm_mat(fld, p) for p in perms])


@settings(max_examples=20, deadline=None)
@given(permutation_groups())
def test_irreducible_modules_are_the_composition_factors_on_permutation_groups(G):
    assume(G.order % G.field.ell)
    assert same_canonical_irreducibles(G, G.field)


# (group, whether the block of its 2-dim irreducible takes
# composition_factors): each field splits Q8 (k = 1), and over F_3 and F_7
# no element of Q8 outside its centre has an eigenvalue in the field, so
# no class's right action cuts that irreducible out; over F_5 one does
QUATERNION_BLOCKS = [
    pytest.param(functools.partial(quaternion_group_sl2, 3), True, id="Q8 in SL2(F3)"),
    pytest.param(functools.partial(quaternion_group_sl2, 7), True, id="Q8/F7"),
    pytest.param(functools.partial(quaternion_group, 5), False, id="Q8/F5"),
]


@pytest.mark.parametrize("make,fallback", QUATERNION_BLOCKS)
def test_the_meataxe_cuts_only_a_block_with_no_simple_right_eigenvalue(make, fallback,
                                                                      monkeypatch):
    # the fallback's module carries the certificate that composition_factors
    # found, the others the dimension certificate of the cut
    mk = envlab.mackey
    G, calls = make(), []
    factors = mk.composition_factors
    monkeypatch.setattr(mk, "composition_factors",
                        lambda rho, **kw: calls.append(rho.dim) or factors(rho, **kw))
    modules = irreducible_modules(G, G.field)
    assert [m.dim for m in modules] == [1, 1, 1, 1, 2]
    assert calls == [4] * fallback
    witness = modules[-1]._witness
    assert (witness.algebra_element is not None if fallback
            else witness == IrreducibleWitness(None, 2, 4))
    monkeypatch.undo()
    assert same_canonical_irreducibles(G, G.field)


@pytest.mark.parametrize("G,fld,uncut", [pytest.param(G, fld, 0, id=name)
                                         for name, G, fld in mackey_corpus()]
                         + [pytest.param(quaternion_group_sl2(3), field_make(3, 1), 1,
                                         id="Q8 in SL2(F3)")])
def test_every_stored_irreducible_is_certified_by_its_dimension(G, fld, uncut, monkeypatch):
    # each field splits its group (k = 1), so every W, a line too, is a
    # w-dimensional submodule of a block of dimension w^2; only the uncut
    # 2-dim W of Q8 in SL2(F3) carries the certificate that
    # composition_factors found; no check of them draws
    fc = envlab.fieldcore
    modules = irreducible_modules(G, fld)
    assert [W.dim for W in modules if W._witness.algebra_element is not None] == [2] * uncut
    for W in modules:
        if W._witness.algebra_element is None:
            assert W._witness == IrreducibleWitness(None, W.dim, W.dim ** 2)
    monkeypatch.setattr(fc, "_meataxe_search", lambda *a: pytest.fail("searched"))
    monkeypatch.setattr(fc, "_random_algebra_element", lambda *a: pytest.fail("drew"))
    for seed in (DEFAULT_SEED, 0, 1):
        assert all(is_irreducible(W, seed=seed) for W in modules)


def frobenius_group_21(ell):
    """The Frobenius group of order 21, x -> x + 1 and x -> 2x on Z/7, as
    permutation matrices over F_ell."""
    fld = field_make(ell, 1)
    return FinMatGroup(fld, [perm_mat(fld, [(i + 1) % 7 for i in range(7)]),
                             perm_mat(fld, [2 * i % 7 for i in range(7)])])


# (group, ell, (dim W, dim of W's block) for each module in order): F_7
# and F_11 split S5 and A5, so each block is M_w(F); F_3 splits neither D5
# nor D7, nor F_5 F21, and a block of dimension c^2 k is M_c(D), D its
# centre of degree k, with w = ck: (c, k) = (2, 2) for D5/F3, (2, 3) for
# D7/F3, and (1, 2) and (3, 2) for F21/F5.  No generator's right action
# cuts S5/F7's 6-dim block
UNSEARCHED = [
    pytest.param(functools.partial(symmetric_group, 5, 7), 7,
                 [(1, 1), (1, 1), (4, 16), (4, 16), (5, 25), (5, 25), (6, 36)], id="S5/F7"),
    pytest.param(functools.partial(alternating_group_5, 11), 11,
                 [(1, 1), (3, 9), (3, 9), (4, 16), (5, 25)], id="A5/F11"),
    pytest.param(functools.partial(dihedral_group, 5, 7), 3, [(1, 1), (1, 1), (4, 8)],
                 id="D5/F3"),
    pytest.param(functools.partial(dihedral_group, 7, 7), 3, [(1, 1), (1, 1), (6, 12)],
                 id="D7/F3"),
    pytest.param(functools.partial(frobenius_group_21, 5), 5, [(1, 1), (2, 2), (6, 18)],
                 id="F21/F5"),
]


@pytest.mark.parametrize("make,ell,certificates", UNSEARCHED)
def test_a_class_cuts_every_block_with_no_search(make, ell, certificates, monkeypatch):
    # no MeatAxe search and no composition_factors: each W carries the
    # dimension certificate (None, ck, c^2 k), and no check of it draws
    fc, mk = envlab.fieldcore, envlab.mackey
    G, fld = make(), field_make(ell, 1)
    for name in ("_meataxe_search", "_random_algebra_element"):
        monkeypatch.setattr(fc, name, lambda *a: pytest.fail("searched"))
    monkeypatch.setattr(mk, "composition_factors", lambda *a, **kw: pytest.fail("decomposed"))
    modules = irreducible_modules(G, fld)
    assert [W._witness for W in modules] == [IrreducibleWitness(None, *c) for c in certificates]
    for seed in (DEFAULT_SEED, 0, 1):
        assert all(is_irreducible(W, seed=seed) for W in modules)
    monkeypatch.undo()
    assert same_canonical_irreducibles(G, fld)


def q8_times_c3():
    """Q8 x C3 as 3 x 3 matrices over F_7: Q8 in SL2(F_7) in the top left
    corner, and diag(1, 1, 2), 2 being a cube root of 1 in F_7."""
    fld = field_make(7, 1)

    def corner(m):
        a = np.eye(3, dtype=np.int64)
        a[:2, :2] = m.array
        return Mat(fld, a)
    q8 = quaternion_group_sl2(7)
    return FinMatGroup(fld, [*map(corner, q8.generators), Mat(fld, np.diag([1, 1, 2]))])


def test_a_factor_whose_degree_divides_k_cuts_a_block(monkeypatch):
    # over F_11, which holds neither a cube root w of 1 nor sqrt(-1): the
    # block of chi (x) rho, chi a nontrivial character of C3 and rho Q8's
    # 2-dim irreducible, is M_2(F_121) (c = k = 2), and no element has an
    # eigenvalue in F_11 there.  Right multiplication by (i, t) has the
    # eigenvalues +-w sqrt(-1), in F_121; the quadratic over F_11 with the
    # root w sqrt(-1) has the other root -w^2 sqrt(-1), not among them, so
    # its kernel is W.  The block of rho (x) 1 (k = 1) is cut by no class,
    # as Q8's over F_3, and takes composition_factors
    mk = envlab.mackey
    G, fld, calls = q8_times_c3(), field_make(11, 1), []
    factors = mk.composition_factors
    monkeypatch.setattr(mk, "composition_factors",
                        lambda rho, **kw: calls.append(rho.dim) or factors(rho, **kw))
    modules = irreducible_modules(G, fld)
    assert calls == [4]
    assert [m.dim for m in modules] == [1, 1, 1, 1, 2, 2, 2, 2, 2, 4]
    assert modules[-1]._witness == IrreducibleWitness(None, 4, 8)
    monkeypatch.undo()
    assert same_canonical_irreducibles(G, fld)


def test_a_negative_seed_is_a_validation_error_on_the_store_path():
    # irreducible_modules on a fresh key and on a group whose store holds
    # its modules already; mackey_irreducible and clifford_decompose on
    # modules certified already, so that no draw would meet the seed
    G = symmetric_group(4, 13)
    with pytest.raises(ValidationError):
        irreducible_modules(G, G.field, seed=-1)
    V = irreducible_modules(G, G.field)[-1]
    with pytest.raises(ValidationError):
        irreducible_modules(G, G.field, seed=-1)
    A4 = next(H for H in all_subgroups(G) if H.order == 12)
    W = irreducible_modules(A4, G.field)[-1]
    assert V._witness is not None and W._witness is not None
    with pytest.raises(ValidationError):
        mackey_irreducible(subgroup_datum(G, A4.generators), W, seed=-1)
    with pytest.raises(ValidationError):
        clifford_decompose(G, A4.generators, V, seed=-1)


# -- the Reynolds test and the Clifford ranks against the routes they replaced --

def test_reynolds_rank_is_the_invariant_dimension():
    # sum_x rho(x) (x) 1 over the closure has the rank of the fixed space:
    # 3 on the trivial 3-dim module, 0 on the sign of C2, 1 on the
    # permutation module of C3
    fld = field_make(7, 1)
    groups = [(FinMatGroup(fld, [Mat.identity(fld, 3)]), 3),
              (FinMatGroup(fld, [Mat(fld, np.array([[6]]))]), 0), (cyclic_group(3, 7), 1)]
    for G, dim in groups:
        elems = G.closure()
        P = _reynolds_sum(fld, elems, np.ones((len(elems), 1, 1), dtype=np.int64))
        assert fld.rank(P) == invariants_dim(module_of_group(G)) == dim


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.sampled_from([(5, 1), (7, 1), (13, 1), (3, 2), (5, 2)]),
       st.data())
def test_mackey_irreducible_matches_the_reference_on_random_subgroups(make, field, data):
    # every irreducible W of a random subgroup H of a small group (of
    # dimension 1, 2 or 3 over a splitting field, and up to 6 over one
    # that does not split H, as C7 over F_5), over a prime field or
    # GF(ell^2): the same verdict, reason, failing representative and
    # invariant_dim
    G, fld = make(), field_make(*field)
    assume(G.order % fld.ell)
    H = data.draw(st.sampled_from(all_subgroups(G, up_to_conjugacy=False)))
    sub = subgroup_datum(G, H.generators)
    for W in irreducible_modules(H, fld):
        assert verdict_bytes(mackey_irreducible(sub, W)) \
            == verdict_bytes(reference_mackey_irreducible(sub, W))


def _bench_workloads():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [7, 11])
def test_mackey_verdicts_match_the_reference_on_the_bench_corpus(seed):
    # every (H, W) of the mackey sessions at the seed, each group
    # conjugated as the benchmark conjugates it: the bench bytes carry the
    # verdict and the reason, and this checks the failing representative
    # and invariant_dim too
    wl = _bench_workloads()
    failed = 0
    for i, (_, ell, gens) in enumerate(wl.mackey_corpus()):
        rng = np.random.default_rng([seed, i])
        G = FinMatGroup.from_json(wl._conjugated(wl.envlab.gf.GF(ell), gens[0].shape[0],
                                                 gens, rng))
        fld = field_make(ell, 1)
        for H in all_subgroups(G):
            sub = subgroup_datum(G, H.generators)
            for W in irreducible_modules(H, fld):
                want = verdict_bytes(reference_mackey_irreducible(sub, W))
                assert verdict_bytes(mackey_irreducible(sub, W)) == want
                failed += want[2] is not None
    assert failed


def reference_clifford_decompose(G, n_gens, V, seed=DEFAULT_SEED):
    """The Clifford shape from the composition factors of Res_N V, found
    by MeatAxe searches and intertwiners, N a fresh group."""
    classes = composition_factors(restrict(V, G, FinMatGroup(G.field, list(n_gens))), seed=seed)
    mults = {k for _, k in classes}
    assert len(mults) == 1
    return CliffordShape(len(classes), mults.pop(), [m for m, _ in classes])


def same_clifford_shapes(G, n_gens, got, want):
    """(e, f), each factor isomorphic to exactly one reference factor, and
    the same transitivity."""
    return ((got.e, got.f) == (want.e, want.f)
            and all(sum(modules_isomorphic(a, b) for a in got.factors) == 1
                    for b in want.factors)
            and clifford_blocks_transitive(G, n_gens, got)
            == clifford_blocks_transitive(G, n_gens, want))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.sampled_from([(5, 1), (7, 1), (13, 1), (3, 2), (5, 2)]),
       st.data())
def test_clifford_decompose_matches_the_composition_factors(make, field, data):
    # every irreducible V of a small group restricted to a random normal
    # subgroup N, over a prime field or GF(ell^2), split or not
    G, fld = make(), field_make(*field)
    assume(G.order % fld.ell)
    normal = [N for N in all_subgroups(G, up_to_conjugacy=False) if N.is_normal_in(G)]
    N = data.draw(st.sampled_from(normal))
    for V in irreducible_modules(G, fld):
        got = clifford_decompose(G, N.generators, V)
        want = reference_clifford_decompose(G, N.generators, V)
        assert same_clifford_shapes(G, N.generators, got, want)


def modular_s4():
    """S4 over F_3, its normal subgroups V4 and A4, and the 3-dim
    composition factor of its permutation module."""
    G = symmetric_group(4, 3)
    fld = G.field
    v4 = [perm_mat(fld, [1, 0, 3, 2]), perm_mat(fld, [2, 3, 0, 1])]
    a4 = v4 + [perm_mat(fld, [1, 2, 0, 3])]
    V = next(m for m, _ in composition_factors(module_of_group(G)) if m.dim == 3)
    return G, v4, a4, V


# every function that builds a store: the two routes of
# _stored_irreducibles, and the centre split of the centre route
STORE_BUILDERS = ("_line_store", "_centre_store", "_central_blocks")


# (group, normal subgroup generators, V, whether a session takes Res_N
# V): 3 divides |A4| but not |V4| over F_3; F_5 splits neither C3 nor A4,
# so the centre of F[N] has a block that is not a line for N = C3 in C6
# and N = A4 in S4.  Each N is fresh, its store never built, so each
# takes Res_N V; in a session only S4/F3 does, where no store of F_3[S4]
# holds V and dim V = 3 = ell
def clifford_fallbacks():
    f5 = field_make(5, 1)
    c6, a4, s4 = cyclic_group(6, 7), alternating_group_4(7), symmetric_group(4, 5)
    g = c6.generators[0]
    s4_f3, v4_of_s4_f3, a4_of_s4_f3, V = modular_s4()
    v4 = [perm_mat(a4.field, [1, 0, 3, 2]), perm_mat(a4.field, [2, 3, 0, 1])]
    v4_of_s4 = [perm_mat(s4.field, [1, 0, 3, 2]), perm_mat(s4.field, [2, 3, 0, 1])]
    a4_of_s4 = v4_of_s4 + [perm_mat(s4.field, [1, 2, 0, 3])]

    def of_dim(G, fld, dim):
        return next(m for m in irreducible_modules(G, fld) if m.dim == dim)

    return [
        ("C6/F5, N = C3", c6, [g @ g], of_dim(c6, f5, 2), False),
        ("C6/F5, N = C2", c6, [g @ g @ g], of_dim(c6, f5, 2), False),
        ("A4/F5, N = V4", a4, v4, of_dim(a4, f5, 2), False),
        ("S4/F5, N = A4", s4, a4_of_s4, of_dim(s4, f5, 3), False),
        ("S4/F5, N = V4", s4, v4_of_s4, of_dim(s4, f5, 3), False),
        ("S4/F3, N = A4", s4_f3, a4_of_s4_f3, V, True),
        ("S4/F3, N = V4", s4_f3, v4_of_s4_f3, V, True),
    ]


@pytest.mark.parametrize("G,n_gens,V",
                         [pytest.param(*case[1:4], id=case[0]) for case in clifford_fallbacks()])
def test_clifford_over_a_fresh_n_takes_the_composition_factors_of_the_restriction(
        G, n_gens, V, monkeypatch):
    # an N whose store was never built, whether or not char F divides |N|:
    # one call to composition_factors, on Res_N V, and no store built
    mk = envlab.mackey
    res = restrict(V, G, FinMatGroup(G.field, list(n_gens)))
    decomposed, factors = [], mk.composition_factors
    monkeypatch.setattr(mk, "composition_factors", lambda rho, **kw: decomposed.append(
        np.array_equal(rho.action, res.action)) or factors(rho, **kw))
    for name in STORE_BUILDERS:
        monkeypatch.setattr(mk, name, lambda *a: pytest.fail("built a store"))
    got = clifford_decompose(G, n_gens, V)
    assert decomposed == [True]
    monkeypatch.undo()
    assert same_clifford_shapes(G, n_gens, got, reference_clifford_decompose(G, n_gens, V))


@pytest.mark.parametrize("name,fallback",
                         [pytest.param(case[0], case[4], id=case[0])
                          for case in clifford_fallbacks()])
def test_clifford_takes_composition_factors_only_where_char_f_divides_n(name, fallback,
                                                                        monkeypatch):
    # a session: N found by all_subgroups, and N's and G's stores built
    # wherever F[N] and F[G] are semisimple.  The trace column answers
    # every case whose stores hold N's modules and V with dim V < ell;
    # only S4/F3 calls composition_factors, once, on Res_N V.  The groups
    # are built anew, so the fresh-N cases above keep N unregistered
    mk = envlab.mackey
    G, n_gens, V = next(case[1:4] for case in clifford_fallbacks() if case[0] == name)
    fld, want = V.field, set(G.indices(FinMatGroup(G.field, list(n_gens)).closure()).tolist())
    N = next(N for N in all_subgroups(G, up_to_conjugacy=False)
             if set(G.indices(N.closure()).tolist()) == want)
    for H in (N, G):
        if H.order % fld.ell:
            irreducible_modules(H, fld)
    res = restrict(V, G, N)
    decomposed, factors = [], mk.composition_factors
    monkeypatch.setattr(mk, "composition_factors", lambda rho, **kw: decomposed.append(
        np.array_equal(rho.action, res.action)) or factors(rho, **kw))
    got = clifford_decompose(G, N.generators, V)
    assert decomposed == [True] * fallback
    monkeypatch.undo()
    assert same_clifford_shapes(G, N.generators, got,
                                reference_clifford_decompose(G, N.generators, V))


def swapped_torus(ell):
    """G = <diag(2, 1), swap> over F_ell, its diagonal subgroup's
    generators and its natural module, which restricts to two distinct
    lines of the diagonal subgroup."""
    fld = field_make(ell, 1)
    G = FinMatGroup(fld, [np.array([[2, 0], [0, 1]]), np.array([[0, 1], [1, 0]])])
    n_gens = [Mat(fld, np.array([[2, 0], [0, 1]])), Mat(fld, np.array([[1, 0], [0, 2]]))]
    return G, n_gens, module_of_group(G)


def test_clifford_over_a_fresh_g_builds_no_store(monkeypatch):
    # no store is built for a verdict: the swapped torus over F_11 (|N| =
    # 100, abelian and split by F_11, so a store of N would take the line
    # route), and every fresh N of clifford_fallbacks, answer with both
    # store routes, the regular representation and the centre split all
    # refused
    G, n_gens, V = swapped_torus(11)
    assert envlab.mackey._split_exponent(FinMatGroup(G.field, n_gens), G.field) == 10
    cases = [(G, n_gens, V)] + [case[1:4] for case in clifford_fallbacks()]
    mk = envlab.mackey
    for name in STORE_BUILDERS:
        monkeypatch.setattr(mk, name, lambda *a: pytest.fail("built a store"))
    shape = clifford_decompose(G, n_gens, V)
    assert (shape.e, shape.f, shape.factors[0].dim) == (2, 1, 1)
    for G, n_gens, V in cases:
        got = clifford_decompose(G, n_gens, V)
        assert same_clifford_shapes(G, n_gens, got, reference_clifford_decompose(G, n_gens, V))


def test_clifford_of_a_line_or_over_g_is_the_restriction(monkeypatch):
    # dim V = 1 over every normal N, and each V over N = G: Res_N V is the
    # one factor, with no store built and no draw; over an N whose store
    # was never built a line takes composition_factors, which returns it
    # as itself, and once N's store is built (a session) the trace column
    # gives N's stored line, with no search
    fc, mk = envlab.fieldcore, envlab.mackey
    G = symmetric_group(4, 13)
    modules = irreducible_modules(G, G.field)
    sign = modules[1]
    assert sign.dim == 1 and sign.action.tolist() != [[[1]], [[1]]]
    cases = [(N, sign) for N in all_subgroups(G) if N.is_normal_in(G)]
    cases += [(G, V) for V in modules]

    def check():
        for N, V in cases:
            shape = clifford_decompose(G, N.generators, V)
            assert (shape.e, shape.f) == (1, 1)
            assert np.array_equal(shape.factors[0].action, restrict(V, G, N).action)

    refused = [(mk, name) for name in STORE_BUILDERS]
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in [(fc, "_random_algebra_element")] + refused:
            patch.setattr(owner, name, lambda *a, **kw: pytest.fail("drew or built a store"))
        check()
    for N, _ in cases:
        irreducible_modules(N, G.field)
    for owner, name in [(fc, "_meataxe_search"), (fc, "_random_algebra_element")] + refused:
        monkeypatch.setattr(owner, name, lambda *a, **kw: pytest.fail("searched or built"))
    check()


# -- the residue of the characters against the Reynolds route --

# (group, the generator of H, dim W, the failing representative as a
# permutation, invariant_dim): condition (II') fails, yet resG = resH,
# because dim End_G(Ind W) - dim End_H(W) is a multiple of ell: 12 for
# C7 in D7 over F_3, where k = m = 6 and End_G(Ind W) = M_2(F_27).  So
# the residue cannot decide, and neither is k read off resH (k = 6 and
# k = 2 are both 0 mod ell); (index - 1) m >= ell sends both to the
# Reynolds route
EXACTNESS_TRAPS = [
    pytest.param(functools.partial(dihedral_group, 7, 3), 0, 6, [0, 6, 5, 4, 3, 2, 1], 6,
                 id="C7 in D7/F3"),
    pytest.param(functools.partial(frobenius_group_21, 2), 1, 2, [1, 2, 3, 4, 5, 6, 0], 4,
                 id="C3 in F21/F2"),
]


@pytest.mark.parametrize("make,gen,dim,failing,invariant_dim", EXACTNESS_TRAPS)
def test_an_excess_of_zero_past_the_bound_takes_the_reynolds_route(make, gen, dim, failing,
                                                                   invariant_dim):
    G = make()
    sub = subgroup_datum(G, [G.generators[gen]])
    W = next(W for W in irreducible_modules(sub.subgroup, G.field) if W.dim == dim)
    mk = envlab.mackey
    _, characters, row = mk._stored_position(sub.subgroup, W, DEFAULT_SEED)
    assert mk._excesses(G, sub.subgroup, G.field, characters)[row] == 0
    assert (sub.index - 1) * W.dim >= G.field.ell
    verdict = mackey_irreducible(sub, W)
    assert (verdict.irreducible, verdict.reason, verdict.invariant_dim) \
        == (False, "condition (II') fails", invariant_dim)
    assert verdict.failing_rep == perm_mat(G.field, failing)


def same_verdict_routes(sub, fld, rng):
    """For each irreducible W of H over fld, from H's store, and for a
    copy of it in another basis, which no store holds: mackey_irreducible
    and the Reynolds route give the same verdict, reason, failing
    representative and invariant_dim.  The copy goes to the Reynolds
    route on a fresh datum, whose excesses are never fused."""
    mk = envlab.mackey
    fused, reynolds = mk._excesses, mk._reynolds_verdict
    for W in irreducible_modules(sub.subgroup, fld):
        P = random_invertible(fld, W.dim, rng)
        copy = ModuleRep(fld, fld.matmul(fld.matmul(P, W.action), fld.inv_matrix(P)))
        assert verdict_bytes(mackey_irreducible(sub, W)) \
            == verdict_bytes(reynolds(sub, W))
        fresh, calls = SubgroupDatum(sub.ambient, sub.subgroup), []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mk, "_excesses", lambda *a: calls.append("fused") or fused(*a))
            patch.setattr(mk, "_reynolds_verdict",
                          lambda *a: calls.append("reynolds") or reynolds(*a))
            got = verdict_bytes(mackey_irreducible(fresh, copy))
        assert calls == ["reynolds"]
        assert got == verdict_bytes(reynolds(sub, copy))


# coefficient fields for the random groups: prime fields and GF(4), GF(9)
COEFFICIENTS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 2), (3, 2)]


def small_closure(G):
    """Whether G closes within 60 elements."""
    try:
        G.closure(60)
    except ClosureOverflow:
        return False
    return True


@settings(max_examples=30, deadline=None)
@given(st.one_of(closure_groups(), derived_groups(),
                 st.sampled_from([G for _, G, _ in mackey_corpus()])), st.data())
def test_the_residue_route_matches_the_reynolds_route_on_random_subgroups(G, data):
    # H generated by one or two random elements of a random small group,
    # from either small_groups strategy or the corpus, over a field whose
    # characteristic does not divide |G|
    assume(small_closure(G))
    fields = [field for field in COEFFICIENTS if G.order % field[0]]
    fld = field_make(*data.draw(st.sampled_from(fields)))
    elems = G.closure()
    picks = data.draw(st.lists(st.integers(0, len(elems) - 1), min_size=1, max_size=2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    same_verdict_routes(subgroup_datum(G, list(elems[picks])), fld, rng)


# groups over fields that do not split them or their subgroups: C3 in S3
# over F_5, C5 and D5 over F_3, C7 and D7 over F_3, F21 over F_2 and over
# GF(4), and D5 over GF(9)
NON_SPLIT_VERDICTS = [
    pytest.param(symmetric_group(3, 5), field_make(5, 1), id="S3/F5"),
    pytest.param(dihedral_group(5, 3), field_make(3, 1), id="D5/F3"),
    pytest.param(dihedral_group(7, 3), field_make(3, 1), id="D7/F3"),
    pytest.param(frobenius_group_21(2), field_make(2, 1), id="F21/F2"),
    pytest.param(frobenius_group_21(2), field_make(2, 2), id="F21/GF(4)"),
    pytest.param(dihedral_group(5, 3), field_make(3, 2), id="D5/GF(9)"),
]


@pytest.mark.parametrize("G,fld", NON_SPLIT_VERDICTS)
def test_the_residue_route_matches_the_reynolds_route_where_w_is_not_split(G, fld):
    rng = np.random.default_rng(G.order)
    for H in all_subgroups(G, up_to_conjugacy=False):
        same_verdict_routes(subgroup_datum(G, H.generators), fld, rng)


# -- the Clifford traces against the ranks --

def non_split_groups():
    """(name, group) for the groups of the CI's non-split mackey sessions,
    each over its field."""
    return [
        ("C6/F5", cyclic_group(6, 5)), ("A4/F5", alternating_group_4(5)),
        ("S4/F5", symmetric_group(4, 5)), ("D5/F3", dihedral_group(5, 3)),
        ("C7/F2", cyclic_group(7, 2)), ("Q8 in SL2(F3)", quaternion_group_sl2(3)),
        ("D7/F3", dihedral_group(7, 3)), ("F21/F5", frobenius_group_21(5)),
        ("S5/F7", symmetric_group(5, 7)), ("F21/F2", frobenius_group_21(2)),
    ]


def block_ranks(G, N, V):
    """rank V(b_i) for each stored central idempotent b_i of N, V(b_i)
    summed over N's closure from V's value at each element."""
    fld = V.field
    _, idempotents, _ = envlab.mackey._stored_irreducibles(N, fld, DEFAULT_SEED)
    values = module_value(V, G, N.closure()).reshape(N.order, -1)
    return [fld.rank(b) for b in fld.matmul(idempotents, values).reshape(-1, V.dim, V.dim)]


@pytest.mark.parametrize("G,fld", [pytest.param(G, fld, id=name)
                                   for name, G, fld in mackey_corpus()]
                         + [pytest.param(G, G.field, id=name) for name, G in non_split_groups()])
def test_clifford_traces_match_the_ranks(G, fld):
    # every irreducible V of G, and a copy of it in another basis, over
    # every normal N other than G, once N's store is built: for the stored
    # V, where dim V < ell, the traces tr V(b_i) are the ranks; either way
    # e, f and the factor dimensions are those the ranks give, and the
    # copy, which no store holds, takes composition_factors on Res_N V
    mk, rng = envlab.mackey, np.random.default_rng(G.order)
    factors = mk.composition_factors
    for N in all_subgroups(G):
        if N is G or not N.is_normal_in(G):
            continue
        modules, idempotents, _ = mk._stored_irreducibles(N, fld, DEFAULT_SEED)
        for V in irreducible_modules(G, fld):
            P = random_invertible(fld, V.dim, rng)
            copy = ModuleRep(fld, fld.matmul(fld.matmul(P, V.action), fld.inv_matrix(P)))
            ranks = block_ranks(G, N, V)
            if V.dim < fld.ell:
                traced, traces = mk._block_traces(G, N, V, DEFAULT_SEED)
                assert traced is modules and traces.tolist() == ranks
            want = [(M.dim, r // M.dim) for M, r in zip(modules, ranks) if r]
            for U, restricted in ((V, V.dim >= fld.ell), (copy, True)):
                calls = []
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(mk, "composition_factors",
                                  lambda *a, **kw: calls.append(1) or factors(*a, **kw))
                    shape = clifford_decompose(G, N.generators, U)
                assert len(calls) == restricted
                got = [(m.dim, shape.f) for m in shape.factors]
                if restricted:  # the composition factors come in the order found
                    assert sorted(got) == sorted(want)
                else:
                    assert got == want


def test_clifford_takes_the_composition_factors_where_dim_v_reaches_ell(monkeypatch):
    # F21 over F_2 and N = C7, N's store built: a 3-dim V restricts to one
    # 3-dim irreducible of C7, whose block b has V(b) = 1 of trace 3 = 1
    # mod 2, so the trace is not the rank, and dim V >= ell takes the
    # composition factors of Res_N V
    mk = envlab.mackey
    G = frobenius_group_21(2)
    N = next(N for N in all_subgroups(G) if N.order == 7)
    V = next(V for V in irreducible_modules(G, G.field) if V.dim == 3)
    irreducible_modules(N, G.field)
    assert sorted(block_ranks(G, N, V)) == [0, 0, 3]
    assert sorted(mk._block_traces(G, N, V, DEFAULT_SEED)[1].tolist()) == [0, 0, 1]
    decomposed, factors = [], mk.composition_factors
    monkeypatch.setattr(mk, "_block_traces", lambda *a: pytest.fail("traced"))
    monkeypatch.setattr(mk, "composition_factors",
                        lambda *a, **kw: decomposed.append(1) or factors(*a, **kw))
    shape = clifford_decompose(G, N.generators, V)
    monkeypatch.undo()
    assert decomposed == [1]
    assert (shape.e, shape.f, shape.factors[0].dim) == (1, 1, 3)
    assert same_clifford_shapes(G, N.generators, shape,
                                reference_clifford_decompose(G, N.generators, V))


# -- the centre route's gathers against the permutation matrices --

def reference_centre_store(H, fld, seed):
    """_centre_store with F[H] the permutation matrices of H's generators
    (reference_regular_rep): each central block spun by spin through them,
    and its action one product with the rref rows of its span."""
    mk = envlab.mackey
    reg = np.array(reference_regular_rep(H))
    modules, characters = [], []
    bases, idempotents, at_inverses = mk._central_blocks(H, fld, seed)
    for basis, e, e_inv in zip(bases, idempotents, at_inverses):
        span, pivots = fld.rref(spin(fld, reg, basis).rows)
        block = ModuleRep(fld, fld.matmul(reg, span.T)[:, pivots])
        W = mk._right_cut(H, block, len(basis), e, pivots, seed)
        if W is None:
            (W, _), = composition_factors(block, seed=seed)
        modules.append(W)
        characters.append(fld.mul(H.order * len(basis) // W.dim % fld.ell, e_inv))
    return mk._sorted_store(modules, idempotents, characters)


def store_bytes(store):
    """Each module's action and witness, its algebra element as bytes, then
    the idempotent and character rows, as comparable values."""
    modules, idempotents, characters = store
    witnesses = [(None if w.algebra_element is None else np.asarray(w.algebra_element).tobytes(),
                  w.factor_degree, w.block_dim) for w in (W._witness for W in modules)]
    return ([(W.action.tobytes(), W.action.shape) for W in modules], witnesses,
            idempotents.tobytes(), characters.tobytes(), idempotents.shape)


@settings(max_examples=30, deadline=None)
@given(st.one_of(closure_groups(), derived_groups(),
                 st.sampled_from(SMALL_GROUPS + [functools.partial(frobenius_group_21, 7)])
                 .map(lambda make: make())),
       st.data())
def test_centre_store_gathers_match_the_permutation_matrices(G, data):
    # a random small group, abelian or not, over a field that splits it or
    # not, at a random seed: the same modules, witnesses, idempotents and
    # characters as spins and products through F[H] as matrices
    assume(small_closure(G))
    fields = [field for field in COEFFICIENTS if G.order % field[0]]
    fld = field_make(*data.draw(st.sampled_from(fields)))
    seed = data.draw(st.integers(0, 2 ** 20))
    assert store_bytes(envlab.mackey._centre_store(G, fld, seed)) \
        == store_bytes(reference_centre_store(G, fld, seed))


# SHA-256 of _stored_irreducibles(H, fld, DEFAULT_SEED) for a group's own
# store, as the centre route built it while F[H] was a stack of
# permutation matrices: S5 has a block that no generator cuts, D5 and
# F21 over F_3 and F_5 blocks M_c(D) over a centre D larger than F, C6
# over F_5 and C7 over F_2 abelian groups that the field does not split,
# and S3 over GF(25) an extension field
STORE_DIGESTS = [
    ("S5/F7", lambda: symmetric_group(5, 7), (7, 1),
     "be5063512b7dea7804a5eb6824cf5a93f88312de29689c4b458f354e1c0b327d"),
    ("S5/F11", lambda: symmetric_group(5, 11), (11, 1),
     "ebf2b91e6d5d42333852efdb783ab28e3080aeac1f72c69cd50e9450f5bcefd7"),
    ("A5/F11", lambda: alternating_group_5(11), (11, 1),
     "84d56b78fd3c87f0bdfdaa23ebb8c2808bbb3abb3aa1884b9d3d29264edd3d44"),
    ("D5/F3", lambda: dihedral_group(5, 7), (3, 1),
     "d72cb981c0e449fd1366b8ab7d18cc5000a8dcff2eaef2d65a99521688ce2533"),
    ("F21/F5", lambda: frobenius_group_21(7), (5, 1),
     "c3e0d150d6f94014f2878a0fce87ffedaf0e7654550bbfa8624a82a7e52ced95"),
    ("C6/F5", lambda: cyclic_group(6, 7), (5, 1),
     "12836e0a9bce4144ae848c2ce8e3f8e1696698e723efbe94f0c24c7692aa18a7"),
    ("C7/F2", lambda: cyclic_group(7, 5), (2, 1),
     "76f9223ef44ea4796a54a57e0888be90a4fa7360e019e2faf7419e7983e99027"),
    ("S3/GF(25)", lambda: symmetric_group(3, 7), (5, 2),
     "94e1196cb2c610d463866d55f774895990f5e465ee2f7950a60546a97dfb2452"),
]


@pytest.mark.parametrize("make,field,digest", [pytest.param(*case[1:], id=case[0])
                                               for case in STORE_DIGESTS])
def test_stored_irreducibles_keep_their_bytes(make, field, digest):
    # each module's shape, witness (algebra_element is None, factor_degree,
    # block_dim) and action bytes, then the shapes and bytes of the
    # idempotent and character rows
    H, fld = make(), field_make(*field)
    modules, idempotents, characters = envlab.mackey._stored_irreducibles(H, fld, DEFAULT_SEED)
    sha = hashlib.sha256()
    for W in modules:
        w = W._witness
        sha.update(repr((W.action.shape, (w.algebra_element is None, w.factor_degree,
                                          w.block_dim))).encode())
        sha.update(W.action.tobytes())
    for rows in (idempotents, characters):
        sha.update(repr(rows.shape).encode())
        sha.update(np.ascontiguousarray(rows, dtype=np.int64).tobytes())
    assert sha.hexdigest() == digest
