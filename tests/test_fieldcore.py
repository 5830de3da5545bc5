"""Matrix groups (the closure engine against the one-element-at-a-time BFS
it replaced), modules, MeatAxe splitting, commutants, and scalar
extension."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (alternating_group_4, cyclic_group, diagonal_torus,
                    dihedral_group, perm_mat, quaternion_group, sl2_group,
                    symmetric_group)
from envlab.errors import ClosureOverflow, ValidationError
from envlab.fieldcore import (FinMatGroup, IrreducibleWitness, Mat, ModuleRep, _key,
                              commutant, composition_factors, extend_scalars,
                              generated_subgroup, intertwiners, invariants_dim,
                              is_absolutely_irreducible, is_irreducible,
                              meataxe_split, modules_isomorphic,
                              module_of_group, semisimplify, splitting_degree)
from envlab.gf import field_make


def test_mat_basic_ops():
    fld = field_make(7, 1)
    a = Mat(fld, np.array([[1, 2], [3, 4]], dtype=np.int64))
    assert a.is_invertible()
    assert (a @ a.inverse()).is_identity()
    assert a.order() > 0


@pytest.mark.parametrize("entry", [-1, 25, 30])
def test_mat_rejects_non_canonical_encodings(entry):
    with pytest.raises(ValidationError):
        Mat(field_make(5, 2), np.array([[entry, 0], [0, 1]], dtype=np.int64))
    # prime-field entries are reduced, not rejected
    assert Mat(field_make(7, 1), [[entry]]) == Mat(field_make(7, 1), [[entry % 7]])


def test_group_orders():
    assert symmetric_group(3, 7).order == 6
    assert dihedral_group(5, 11).order == 10
    assert cyclic_group(6, 7).order == 6
    # |SL_2(F_q)| = q(q^2 - 1)
    assert sl2_group(5).order == 120
    assert sl2_group(11).order == 1320


def test_group_membership_and_words():
    G = symmetric_group(3, 7)
    fld = G.field
    elem = G.generators[0] @ G.generators[1]
    assert elem in G
    word = G.word_for(elem)
    acc = Mat.identity(fld, 3)
    for gi in word:
        acc = acc @ G.generators[gi]
    assert acc == elem


def test_group_json_roundtrip():
    G = sl2_group(5)
    doc = G.to_json()
    H = FinMatGroup.from_json(doc)
    assert H.order == G.order
    assert all(g in G for g in H.generators)


def test_normality():
    s3 = symmetric_group(3, 7)
    a3 = FinMatGroup(s3.field, [perm_mat(s3.field, [1, 2, 0])])
    c2 = FinMatGroup(s3.field, [perm_mat(s3.field, [1, 0, 2])])
    assert a3.is_subgroup_of(s3) and a3.is_normal_in(s3)
    assert c2.is_subgroup_of(s3) and not c2.is_normal_in(s3)


def test_s3_permutation_module_splits():
    G = symmetric_group(3, 7)
    rho = module_of_group(G)
    factors = composition_factors(rho)
    assert sorted(m.dim for m, k in factors for _ in range(k)) == [1, 2]
    # the 2-dim factor is absolutely irreducible, the 1-dim is trivial
    for m, _ in factors:
        assert is_absolutely_irreducible(m)


def test_meataxe_verdicts():
    d5 = dihedral_group(5, 11)
    rho = module_of_group(FinMatGroup(d5.field, [
        # 2-dim faithful irreducible of D5 over F11: rotation has eigenvalues
        # 3 and 3^-1 = 4; use the companion form and the flip
        Mat(d5.field, np.array([[0, 10], [1, 7]], dtype=np.int64)),
        Mat(d5.field, np.array([[0, 1], [1, 0]], dtype=np.int64)),
    ]))
    verdict = meataxe_split(rho)
    assert isinstance(verdict, IrreducibleWitness)
    assert is_irreducible(rho) and is_absolutely_irreducible(rho)
    # reducible: any diagonal pair of characters
    fld = field_make(11, 1)
    red = ModuleRep(fld, (np.diag(np.array([2, 3], dtype=np.int64)),))
    verdict = meataxe_split(red)
    assert not isinstance(verdict, IrreducibleWitness)
    assert np.asarray(verdict).shape[1] == 2


def test_commutant_schur():
    torus = diagonal_torus(11)
    assert commutant(module_of_group(torus))[1] == 2
    sl2 = sl2_group(11)
    assert commutant(module_of_group(sl2))[1] == 1


def test_intertwiners_between_nonisomorphic_is_zero():
    fld = field_make(7, 1)
    triv = ModuleRep(fld, (np.array([[1]], dtype=np.int64),))
    sign = ModuleRep(fld, (np.array([[6]], dtype=np.int64),))
    assert len(intertwiners(triv, sign)) == 0
    assert not modules_isomorphic(triv, sign)
    assert modules_isomorphic(triv, triv)


def test_invariants_dim():
    fld = field_make(7, 1)
    triv3 = ModuleRep(fld, (np.eye(3, dtype=np.int64),))
    assert invariants_dim(triv3) == 3
    sign = ModuleRep(fld, (np.array([[6]], dtype=np.int64),))
    assert invariants_dim(sign) == 0
    c3 = cyclic_group(3, 7)
    assert invariants_dim(module_of_group(c3)) == 1


def test_composition_factors_of_direct_sums():
    G = symmetric_group(3, 7)
    rho = module_of_group(G)
    double = rho.direct_sum(rho)
    factors = composition_factors(double)
    assert sorted((m.dim, k) for m, k in factors) == [(1, 2), (2, 2)]
    ss = semisimplify(double)
    assert ss.dim == 6
    # semisimplification of a semisimple module has the same factor multiset
    again = composition_factors(ss)
    assert sorted((m.dim, k) for m, k in again) == [(1, 2), (2, 2)]


def test_splitting_degree_and_extension():
    # companion matrix of an irreducible quadratic over F_7: irreducible
    # as a module but not absolutely (the commutant is F_49)
    fld = field_make(7, 1)
    rot = ModuleRep(fld, (np.array([[0, 6], [1, 4]], dtype=np.int64),))
    assert is_irreducible(rot)
    assert splitting_degree(rot) == 2
    assert not is_absolutely_irreducible(rot)
    big = extend_scalars(rot, 2)
    assert big.field.q == 49
    factors = composition_factors(big)
    assert sorted(m.dim for m, k in factors for _ in range(k)) == [1, 1]


def test_extend_scalars_rejects_extension_start():
    fld = field_make(7, 2)
    rho = ModuleRep(fld, (np.array([[1]], dtype=np.int64),))
    with pytest.raises(ValidationError):
        extend_scalars(rho, 4)


def test_commutant_dimension_law_small():
    # End of m1 V1 + m2 V2 has dimension m1^2 + m2^2 for non-isomorphic
    # absolutely irreducible V1, V2
    G = symmetric_group(3, 7)
    factors = composition_factors(module_of_group(G))
    one = next(m for m, _ in factors if m.dim == 1)
    two = next(m for m, _ in factors if m.dim == 2)
    rho = one.direct_sum(one).direct_sum(two)
    assert commutant(rho)[1] == 4 + 1


SMALL_GROUPS = [symmetric_group(3, 7), dihedral_group(4, 5), quaternion_group(5),
                alternating_group_4(7), symmetric_group(4, 13)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_generated_subgroup_matches_closure(data):
    G = data.draw(st.sampled_from(SMALL_GROUPS))
    elements = G.closure()
    picks = data.draw(st.lists(st.integers(0, len(elements) - 1),
                               min_size=1, max_size=4))
    subset = [elements[i] for i in picks]
    H = generated_subgroup(G.field, G.n, subset)
    assert set(H.closure()) == set(FinMatGroup(G.field, subset).closure())
    N = generated_subgroup(G.field, G.n, subset, conjugators=G.generators)
    conjugates = [g @ s @ g.inverse() for g in elements for s in subset]
    assert set(N.closure()) == set(FinMatGroup(G.field, conjugates).closure())


def reference_closure(G, cap):
    """The closure as it was first written: a BFS one Mat at a time, a
    word tuple per element, ClosureOverflow on the first new element found
    with cap elements already listed.  Returns (elements, words)."""
    ident = Mat.identity(G.field, G.n)
    elements, words = [ident], [()]
    index = {_key(ident.array): 0}
    frontier = [0]
    while frontier:
        nxt = []
        for ei in frontier:
            for gi, g in enumerate(G.generators):
                prod = elements[ei] @ g
                k = _key(prod.array)
                if k not in index:
                    if len(elements) >= cap:
                        raise ClosureOverflow(f"closure exceeded cap {cap}")
                    index[k] = len(elements)
                    elements.append(prod)
                    words.append(words[ei] + (gi,))
                    nxt.append(index[k])
        frontier = nxt
    return elements, words


# small prime fields and GF(4), GF(8), GF(9): closures of a few hundred elements
CLOSURE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]


@st.composite
def small_groups(draw):
    ell, d = draw(st.sampled_from(CLOSURE_FIELDS))
    fld = field_make(ell, d)
    n = draw(st.integers(1, 3 if fld.q <= 3 else 2))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        M = np.array(draw(st.lists(st.integers(0, fld.q - 1), min_size=n * n,
                                   max_size=n * n)), dtype=np.int64).reshape(n, n)
        assume(fld.rank(M) == n)
        gens.append(M)
    return FinMatGroup(fld, gens)


@settings(max_examples=80, deadline=None)
@given(small_groups(), st.integers(1, 400))
def test_closure_matches_reference_bfs(G, cap):
    try:
        elements, words = reference_closure(G, cap)
    except ClosureOverflow:
        with pytest.raises(ClosureOverflow):
            G.closure(cap)
        return
    closed = G.closure(cap)
    assert len(closed) == len(elements)
    assert list(closed) == elements
    assert (G.element_stack() == np.array([e.array for e in elements])).all()
    assert [G.word_for(e) for e in elements] == words
    # the cap is exact: order elements fit, one fewer does not
    assert len(FinMatGroup(G.field, G.generators).closure(len(elements))) == len(elements)
    if len(elements) > 1:
        with pytest.raises(ClosureOverflow):
            FinMatGroup(G.field, G.generators).closure(len(elements) - 1)


def test_closure_elements_are_built_on_demand():
    G = sl2_group(7)
    assert G._elements is None
    closed = G.closure()
    assert closed._mats is None and len(closed) == 336
    assert G.element_stack().shape == (336, 2, 2)
    assert closed._mats is None
    assert closed[5] == Mat(G.field, G.element_stack()[5])
    assert all(G.element_index(g) == i for i, g in enumerate(closed))
