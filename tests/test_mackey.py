"""Induction, Frobenius reciprocity, Mackey's criterion, and Clifford
decomposition on small groups."""

import functools
import importlib.util
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import envlab.mackey
from corpus import (alternating_group_4, closure_mats, cyclic_group, dihedral_group,
                    heisenberg_mod3_group, mackey_corpus, perm_mat, quaternion_group,
                    quaternion_group_sl2, symmetric_group)
from envlab.errors import CharDividesIndex, NotNormal, NotSemisimple, ValidationError
from envlab.fieldcore import (DEFAULT_SEED, FinMatGroup, IrreducibleWitness, Mat, ModuleRep,
                              commutant, composition_factors, is_irreducible,
                              module_of_group, modules_isomorphic)
from envlab.gf import field_make
from linalg_oracles import invariants_dim, reference_composition_factors
from envlab.mackey import (CliffordShape, MackeyVerdict, _reynolds_sum, all_subgroups,
                           clifford_blocks_transitive, clifford_decompose,
                           double_coset_reps, dual_module, frobenius_reciprocity_dim,
                           induce, irreducible_modules, mackey_irreducible,
                           module_value, regular_rep, restrict, subgroup_datum)


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
    # and g^-1 x g, in H's closure order, found once for every W
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
        fresh = subgroup_datum(G, H.generators)
        for W in irreducible_modules(H, fld):
            a, b = mackey_irreducible(fresh, W), mackey_irreducible(sub, W)
            assert (a.irreducible, a.reason, a.invariant_dim, a.failing_rep) \
                == (b.irreducible, b.reason, b.invariant_dim, b.failing_rep)
        assert len(calls) == 1
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
        for W in irreducible_modules(H, fld) + [regular_rep(H, fld)]:
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


def test_all_subgroups_s4():
    G = symmetric_group(4, 13)
    assert len(all_subgroups(G, up_to_conjugacy=False)) == 30
    classes = all_subgroups(G)
    assert len(classes) == 11
    assert sorted(H.order for H in classes) == [1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24]


def test_regular_rep_and_irreducibles():
    G = symmetric_group(3, 7)
    reg = regular_rep(G, G.field)
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


def reference_regular_rep(H, fld):
    elems = closure_mats(H)
    index = {x: i for i, x in enumerate(elems)}
    mats = []
    for g in H.generators:
        P = np.zeros((len(elems), len(elems)), dtype=np.int64)
        for j, x in enumerate(elems):
            P[index[g @ x], j] = 1
        mats.append(P)
    return mats


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
        assert same_matrices(regular_rep(H, fld).action, reference_regular_rep(H, fld))
        for W in irreducible_modules(H, fld):
            assert same_matrices(induce(sub, W).action,
                                 reference_induce(G, sub.subgroup, T, W))


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
    # and K_i K_j = sum_l M[i][l, j] K_l counts the products x y, x in
    # C_i and y in C_j, at the first element of each C_l
    cls, M = envlab.mackey._class_sums(G, fld)
    classes = reference_classes(G)
    assert sorted(map(sorted, classes)) == sorted(
        np.flatnonzero(cls == c).tolist() for c in range(len(M)))
    elems = closure_mats(G)
    index = {x: i for i, x in enumerate(elems)}
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
    blocks = envlab.mackey._central_blocks(G, fld, DEFAULT_SEED)
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
    want = [m for m, _ in reference_composition_factors(regular_rep(H, fld))]
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
# line and takes composition_factors; the last five do
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
    assert sorted(map(len, mk._central_blocks(H, fld, DEFAULT_SEED))) == dims
    decomposed, factors = [], mk.composition_factors
    monkeypatch.setattr(mk, "composition_factors",
                        lambda rho, **kw: decomposed.append(rho.dim) or factors(rho, **kw))
    assert same_irreducibles(H, fld)
    assert len(decomposed) == sum(dim > 1 for dim in dims)


# -- each irreducible cut from its block by the right action --

def canonical_reference(H, fld):
    """The classes of composition_factors(regular_rep(H)), sorted as
    irreducible_modules sorts its own: by dimension, then by the trace at
    every element of H's closure, in closure order, each trace summed
    with the field's scalar addition."""
    add = fld.scalar_ops[0]

    def key(W):
        values = module_value(W, H, H.closure())
        return W.dim, tuple(functools.reduce(add, np.diagonal(v).tolist()) for v in values)
    return sorted((m for m, _ in composition_factors(regular_rep(H, fld))), key=key)


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


# (group, whether a block takes the MeatAxe): over F_3 and F_7 no element
# of Q8 outside its centre has an eigenvalue in the field, so no
# generator's right action cuts its 2-dim irreducible out; over F_5 one does
QUATERNION_BLOCKS = [
    pytest.param(functools.partial(quaternion_group_sl2, 3), True, id="Q8 in SL2(F3)"),
    pytest.param(functools.partial(quaternion_group_sl2, 7), True, id="Q8/F7"),
    pytest.param(functools.partial(quaternion_group, 5), False, id="Q8/F5"),
]


@pytest.mark.parametrize("make,fallback", QUATERNION_BLOCKS)
def test_the_meataxe_cuts_only_a_block_with_no_simple_right_eigenvalue(make, fallback,
                                                                      monkeypatch):
    mk = envlab.mackey
    G, calls = make(), []
    constituent = mk._isotypic_constituent
    monkeypatch.setattr(mk, "_isotypic_constituent",
                        lambda *a: calls.append(1) or constituent(*a))
    modules = irreducible_modules(G, G.field)
    assert [m.dim for m in modules] == [1, 1, 1, 1, 2]
    assert len(calls) == fallback
    assert modules[-1]._witness == IrreducibleWitness(None, 2, 4)
    monkeypatch.undo()
    assert same_canonical_irreducibles(G, G.field)


@pytest.mark.parametrize("G,fld", [pytest.param(G, fld, id=name)
                                   for name, G, fld in mackey_corpus()]
                         + [pytest.param(quaternion_group_sl2(3), field_make(3, 1),
                                         id="Q8 in SL2(F3)")])
def test_every_stored_irreducible_is_certified_by_its_dimension(G, fld, monkeypatch):
    # a line by its one dimension, a larger W as a d-dimensional
    # submodule of a block of dimension d^2; no check of them draws
    fc = envlab.fieldcore
    modules = irreducible_modules(G, fld)
    for W in modules:
        want = (IrreducibleWitness(None, 1) if W.dim == 1
                else IrreducibleWitness(None, W.dim, W.dim ** 2))
        assert W._witness == want
    monkeypatch.setattr(fc, "_meataxe_search", lambda *a: pytest.fail("searched"))
    monkeypatch.setattr(fc, "_random_algebra_element", lambda *a: pytest.fail("drew"))
    for seed in (DEFAULT_SEED, 0, 1):
        assert all(is_irreducible(W, seed=seed) for W in modules)


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


# (group, normal subgroup generators, V, whether N's route is the
# composition factors): F_5 splits neither C3 nor A4, so the centre of
# F[N] has a block that is not a line for N = C3 in C6 and N = A4 in
# S4, but splits for N = C2, V4; over F_3, 3 divides |A4| but not |V4|
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
        ("C6/F5, N = C3", c6, [g @ g], of_dim(c6, f5, 2), True),
        ("C6/F5, N = C2", c6, [g @ g @ g], of_dim(c6, f5, 2), False),
        ("A4/F5, N = V4", a4, v4, of_dim(a4, f5, 2), False),
        ("S4/F5, N = A4", s4, a4_of_s4, of_dim(s4, f5, 3), True),
        ("S4/F5, N = V4", s4, v4_of_s4, of_dim(s4, f5, 3), False),
        ("S4/F3, N = A4", s4_f3, a4_of_s4_f3, V, True),
        ("S4/F3, N = V4", s4_f3, v4_of_s4_f3, V, False),
    ]


@pytest.mark.parametrize("G,n_gens,V,fallback",
                         [pytest.param(*case[1:], id=case[0]) for case in clifford_fallbacks()])
def test_clifford_takes_composition_factors_only_where_n_has_no_lines(G, n_gens, V, fallback,
                                                                      monkeypatch):
    # N's own store, built on the first call, may decompose a block of
    # F[N] too; only the composition factors of Res_N V count here
    mk = envlab.mackey
    res = restrict(V, G, FinMatGroup(G.field, list(n_gens)))
    decomposed, factors = [], mk.composition_factors
    monkeypatch.setattr(mk, "composition_factors", lambda rho, **kw: decomposed.append(
        np.array_equal(rho.action, res.action)) or factors(rho, **kw))
    got = clifford_decompose(G, n_gens, V)
    assert decomposed.count(True) == fallback
    monkeypatch.undo()
    assert same_clifford_shapes(G, n_gens, got, reference_clifford_decompose(G, n_gens, V))


def test_clifford_of_a_line_or_over_g_is_the_restriction(monkeypatch):
    # dim V = 1 over every normal N, and each V over N = G: Res_N V is the
    # one factor, with no store and no search
    G = symmetric_group(4, 13)
    modules = irreducible_modules(G, G.field)
    sign = modules[1]
    assert sign.dim == 1 and sign.action.tolist() != [[[1]], [[1]]]
    mk = envlab.mackey
    for name in ("_stored_irreducibles", "composition_factors"):
        monkeypatch.setattr(mk, name, lambda *a, **kw: pytest.fail("read the store or searched"))
    cases = [(N, sign) for N in all_subgroups(G) if N.is_normal_in(G)]
    for N, V in cases + [(G, V) for V in modules]:
        shape = clifford_decompose(G, N.generators, V)
        assert (shape.e, shape.f) == (1, 1)
        assert np.array_equal(shape.factors[0].action, restrict(V, G, N).action)
