"""Matrix groups (the closure engine against the one-element-at-a-time BFS
it replaced), modules, MeatAxe splitting, commutants, and scalar
extension."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (closure_mats, cyclic_group, diagonal_torus, dihedral_group,
                    perm_mat, sl2_group, symmetric_group)
from envlab import fieldcore
from envlab.errors import (ClosureOverflow, DimensionMismatch, RandomBudgetExceeded,
                           ValidationError)
from envlab.fieldcore import (FinMatGroup, IrreducibleWitness, Mat, ModuleRep,
                              _inverse_stack, _submodule_action, commutant,
                              composition_factors, extend_scalars,
                              generator_commutators, intertwiners,
                              is_absolutely_irreducible,
                              is_irreducible, meataxe_split, modules_isomorphic,
                              module_of_group, semisimplify, splitting_degree)
from envlab.gf import field_make
from envlab.mackey import dual_module
from linalg_oracles import regular_module


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
    with pytest.raises(ValidationError):
        G.word_for(Mat(fld, 2 * np.eye(3, dtype=np.int64)))


def test_group_json_roundtrip():
    G = sl2_group(5)
    doc = G.to_json()
    H = FinMatGroup.from_json(doc)
    assert H.order == G.order
    assert all(g in G for g in H.generators)


def test_from_json_builds_an_explicit_modulus_field_once():
    # to_json writes the modulus of GF(ell^d), d > 1, so every round trip
    # names one; the field and its tables come from the field_make cache
    f9 = field_make(3, 2)
    G = FinMatGroup(f9, [Mat(f9, [[1, 1], [0, 1]]), Mat(f9, [[4, 0], [0, 1]])])
    doc = G.to_json()
    assert doc["modulus"] == [1, 0, 1]
    first = FinMatGroup.from_json(doc)
    assert first.field is FinMatGroup.from_json(doc).field
    assert first.field == f9
    assert first.order == G.order
    other = dict(doc, modulus=[2, 2, 1])  # x^2 + 2x + 2, also irreducible over F_3
    assert FinMatGroup.from_json(other).field is FinMatGroup.from_json(other).field
    assert FinMatGroup.from_json(other).field != f9


def test_normality():
    s3 = symmetric_group(3, 7)
    a3 = FinMatGroup(s3.field, [perm_mat(s3.field, [1, 2, 0])])
    c2 = FinMatGroup(s3.field, [perm_mat(s3.field, [1, 0, 2])])
    assert a3.is_subgroup_of(s3) and a3.is_normal_in(s3)
    assert c2.is_subgroup_of(s3) and not c2.is_normal_in(s3)
    # a group without generators has no closure to test against
    with pytest.raises(ValidationError):
        FinMatGroup(s3.field, []).is_normal_in(s3)


def test_gens_inv_is_computed_once(monkeypatch):
    s4 = symmetric_group(4, 13)
    fld = s4.field
    inverted = []
    inv_matrix = type(fld).inv_matrix
    monkeypatch.setattr(type(fld), "inv_matrix",
                        lambda self, m: inverted.append(1) or inv_matrix(self, m))
    v4 = FinMatGroup(fld, [perm_mat(fld, [1, 0, 3, 2]), perm_mat(fld, [2, 3, 0, 1])])
    assert v4.is_normal_in(s4)
    assert len(inverted) == 2  # one per generator of S4
    assert v4.is_normal_in(s4)
    assert len(inverted) == 2
    inv = s4.gens_inv
    assert np.array_equal(inv, _inverse_stack(fld, s4.gens))
    assert s4.gens_inv is inv and not inv.flags.writeable
    with pytest.raises(AttributeError):
        s4.gens_inv = inv


@pytest.mark.parametrize("ell,d", [(7, 1), (3, 2)])
def test_from_json_inverts_each_generator_once(monkeypatch, ell, d):
    # the inverses that prove the generators invertible are gens_inv, so
    # generator_commutators inverts nothing more; a singular generator is
    # still a ValidationError
    fld = field_make(ell, d)
    s4 = symmetric_group(4, 13)
    doc = {"ell": ell, "d": d, "n": 4,
           "generators": [g.array.reshape(-1).tolist() for g in s4.generators]}
    if d > 1:
        doc["modulus"] = list(fld.modulus)
    inverted = []
    inv_matrix = type(fld).inv_matrix
    monkeypatch.setattr(type(fld), "inv_matrix",
                        lambda self, m: inverted.append(1) or inv_matrix(self, m))
    G = FinMatGroup.from_json(doc)
    assert len(inverted) == 2 and not G.gens_inv.flags.writeable
    assert np.array_equal(G.gens_inv, _inverse_stack(fld, G.gens))
    generator_commutators(G)
    assert len(inverted) == 4  # the two of the check above, none here
    doc["generators"].append([1] * 16)
    with pytest.raises(ValidationError, match="generator is not invertible"):
        FinMatGroup.from_json(doc)


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


def test_norton_witnesses_compare_and_hash_by_their_bytes():
    # the 2-dim irreducible of D5 over F_11, twice: two modules, one seed
    fld = field_make(11, 1)
    action = np.array([[[0, 10], [1, 7]], [[0, 1], [1, 0]]], dtype=np.int64)
    first, second = (meataxe_split(ModuleRep(fld, action), seed=5) for _ in range(2))
    assert first is not second and isinstance(first.algebra_element, np.ndarray)
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    other = IrreducibleWitness((first.algebra_element + 1) % 11, first.factor_degree)
    assert other != first and first != IrreducibleWitness(None, first.factor_degree)
    assert repr(first).startswith("IrreducibleWitness(algebra_element=array(")


def counting_draws(monkeypatch):
    """Count _random_algebra_element calls, the MeatAxe's draws."""
    calls, draw = [], fieldcore._random_algebra_element
    monkeypatch.setattr(fieldcore, "_random_algebra_element",
                        lambda *args: calls.append(1) or draw(*args))
    return calls


def test_composition_factors_arrive_certified(monkeypatch):
    factors = composition_factors(regular_module(symmetric_group(3, 7), field_make(7)))
    assert max(m.dim for m, _ in factors) == 2
    draws = counting_draws(monkeypatch)
    for m, _ in factors:
        witness = m._witness
        assert isinstance(witness, IrreducibleWitness)
        # any seed and budget: the stored witness is a proof
        assert meataxe_split(m, seed=1, budget=1) is witness
        assert is_irreducible(m)
    assert draws == []
    for m, _ in factors:
        fresh = ModuleRep(m.field, m.action)
        assert fresh._witness is None and is_irreducible(fresh)
    assert len(draws) > 0  # the 2-dim factor is tested afresh


def test_a_split_module_is_never_marked_irreducible(monkeypatch):
    red = ModuleRep(field_make(11, 1), (np.diag(np.array([2, 3], dtype=np.int64)),))
    draws = counting_draws(monkeypatch)
    first = meataxe_split(red)
    assert not isinstance(first, IrreducibleWitness) and red._witness is None
    n = len(draws)
    assert np.array_equal(meataxe_split(red), first)  # the same seed splits the same way
    assert len(draws) == 2 * n > 0
    assert not is_irreducible(red) and red._witness is None


def test_a_negative_seed_is_a_validation_error():
    # before any draw, and also where none would be made: a 1-dimensional
    # module, and a module that stores its witness
    fld = field_make(7, 1)
    rho = module_of_group(symmetric_group(3, 7))
    line = ModuleRep(fld, (np.array([[6]], dtype=np.int64),))
    certified = composition_factors(rho)[-1][0]
    assert certified._witness is not None
    for module in (rho, line, certified):
        with pytest.raises(ValidationError, match="seed"):
            meataxe_split(module, seed=-1)
        with pytest.raises(ValidationError, match="seed"):
            composition_factors(module, seed=-1)
    assert meataxe_split(certified, seed=0) is certified._witness


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


def reference_generated_subgroup(fld, n, candidates, conjugators=()):
    """The subgroup that a list of candidate Mats generates, as a loop
    that tests each candidate against the group built so far; with
    conjugators, its normal closure under them, by queueing the
    conjugates of every new generator."""
    group = FinMatGroup.trivial(fld, n)
    gens = []
    conj = [(g, g.inverse()) for g in conjugators]
    work = list(candidates)
    for c in work:
        if c in group:
            continue
        gens.append(c)
        group = FinMatGroup(fld, gens)
        work.extend(g @ c @ gi for g, gi in conj)
    return group


def reference_closure(G, cap):
    """The closure as it was first written: a BFS one Mat at a time, a
    word tuple per element, ClosureOverflow on the first new element found
    with cap elements already listed.  Returns (elements, words)."""
    ident = Mat.identity(G.field, G.n)
    elements, words = [ident], [()]
    index = {ident: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for ei in frontier:
            for gi, g in enumerate(G.generators):
                prod = elements[ei] @ g
                if prod not in index:
                    if len(elements) >= cap:
                        raise ClosureOverflow(f"closure exceeded cap {cap}")
                    index[prod] = len(elements)
                    elements.append(prod)
                    words.append(words[ei] + (gi,))
                    nxt.append(index[prod])
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


# (DENSE_CODES, OWN_CODES) for each numbering: a table of the group's own
# and a shared one (every small_groups code space is at most 3^9, within
# the table bound), and the byte-key dict
NUMBERINGS = {"own": (fieldcore.DENSE_CODES, fieldcore.DENSE_CODES),
              "shared": (fieldcore.DENSE_CODES, 0), "dict": (0, 0)}


def closed_by(name, G, cap=fieldcore.DEFAULT_CLOSURE_CAP):
    """A fresh copy of G, closed on the named numbering: DENSE_CODES and
    OWN_CODES monkeypatched to its bounds."""
    H = FinMatGroup(G.field, G.generators)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fieldcore, "DENSE_CODES", NUMBERINGS[name][0])
        patch.setattr(fieldcore, "OWN_CODES", NUMBERINGS[name][1])
        H.closure(cap)
    return H


def numbering(H):
    """The numbering that H's closure used."""
    if H._table is None:
        return "dict"
    return "shared" if H._table is fieldcore._shared_table(H.field.q, H.n) else "own"


@settings(max_examples=80, deadline=None)
@given(small_groups(), st.integers(1, 400))
def test_closure_matches_reference_bfs(G, cap):
    """On every numbering."""
    try:
        elements, words = reference_closure(G, cap)
    except ClosureOverflow:
        for name in NUMBERINGS:
            with pytest.raises(ClosureOverflow):
                closed_by(name, G, cap)
        return
    for name in NUMBERINGS:
        H = closed_by(name, G, cap)
        assert numbering(H) == name
        assert len(H.closure()) == len(elements)
        assert closure_mats(H) == elements
        assert [H.word_for(e) for e in elements] == words
        # the cap is exact: order elements fit, one fewer does not
        assert len(closed_by(name, G, len(elements)).closure()) == len(elements)
        if len(elements) > 1:
            with pytest.raises(ClosureOverflow):
                closed_by(name, G, len(elements) - 1)


def test_closure_is_a_read_only_stack_that_indices_inverts():
    G = sl2_group(7)
    assert G._elements is None
    closed = G.closure()
    assert closed.shape == (336, 2, 2) and not closed.flags.writeable
    assert G.closure() is closed
    assert (G.indices(closed) == np.arange(336)).all()
    assert G.indices(closed[::-1].reshape(6, 56, 2, 2)).reshape(-1).tolist() \
        == list(range(335, -1, -1))


@settings(max_examples=60, deadline=None)
@given(small_groups(), st.data())
def test_indices_match_per_mat_membership(G, data):
    """indices against a dict of Mats, on members, non-members (-1) and the
    empty stack, on every numbering."""
    q, n = G.field.q, G.n
    closed = G.closure()
    members = {Mat(G.field, x): i for i, x in enumerate(closed)}
    member = st.integers(0, len(closed) - 1).map(lambda i: Mat(G.field, closed[i]))
    anything = st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n).map(
        lambda flat: Mat(G.field, np.reshape(flat, (n, n))))
    mats = data.draw(st.lists(member | anything, max_size=6))
    stack = np.array([m.array for m in mats], dtype=np.int64).reshape(-1, n, n)
    expect = [members.get(m, -1) for m in mats]
    for name in NUMBERINGS:
        H = closed_by(name, G)
        assert H.indices(stack).tolist() == expect
        assert [m in H for m in mats] == [i >= 0 for i in expect]
        assert H.indices(stack.reshape(1, -1, n, n)).shape == (1, len(mats))
        assert H.indices(np.zeros((0, n, n), dtype=np.int64)).shape == (0,)


def closure_bytes(H):
    """The bytes of everything a closure builds and the tables read off it."""
    arrays = (H._elements, H._parent, H._gen, H._right, H._slot, H.inverse, H.left,
              *H.classes)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=60, deadline=None)
@given(small_groups(), st.integers(1, 400))
def test_numberings_build_the_same_closure(G, cap):
    """Byte-equal closures and index tables from every numbering, and the
    same ClosureOverflow at the drawn cap, at order - 1 and at order.  The
    tables keep each code's first product number however NumPy orders a
    layer's scatter, or the closures would differ from the dict's."""
    order = closed_by("dict", G).order
    for cap in {cap, max(order - 1, 1), order}:
        outcomes = []
        for name in NUMBERINGS:
            try:
                outcomes.append(closure_bytes(closed_by(name, G, cap)))
            except ClosureOverflow as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert isinstance(outcomes[0], str) == (cap < order)


@pytest.mark.parametrize("name", NUMBERINGS)
def test_indices_miss_what_would_alias(name):
    # over F_7, [[8, 1], [0, 1]] has the base-7 code of [[1, 2], [0, 1]] and
    # [[-6, 0], [0, 1]] that of [[1, 6], [6, 0]], both in GL2(F_7); a stack
    # of 1 x 1 or 4 x 1 matrices is no stack of 2 x 2 ones, though the 4 x 1
    # ones have the byte width of 2 x 2 ones
    fld = field_make(7, 1)
    G = closed_by(name, FinMatGroup(fld, [[[1, 1], [0, 1]], [[1, 0], [1, 1]],
                                          [[3, 0], [0, 1]]]))
    assert G.order == 48 * 42 and numbering(G) == name
    aliases = np.array([[[1, 2], [0, 1]], [[1, 6], [6, 0]]])
    assert (G.indices(aliases) >= 0).all()
    stack = np.array([[[8, 1], [0, 1]], [[1, 2], [0, 1]], [[-6, 0], [0, 1]]])
    assert G.indices(stack).tolist() == [-1, int(G.indices(aliases[0])), -1]
    assert G.indices(np.ones((3, 1, 1), dtype=np.int64)).tolist() == [-1, -1, -1]
    assert G.indices(aliases.reshape(2, 4, 1)).tolist() == [-1, -1]
    assert G.indices(np.ones((2, 3, 2, 2), dtype=np.int64)[..., :1]).shape == (2, 3)


def test_a_shared_table_passes_between_groups(monkeypatch):
    """Groups closed over one code space share its table: lookups that
    alternate between them, a closure cut short on the table and a holder
    that is gone all leave every group's indices right."""
    monkeypatch.setattr(fieldcore, "OWN_CODES", 0)
    fld = field_make(7, 1)
    G = FinMatGroup(fld, [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[3, 0], [0, 1]]])
    elems = G.closure()
    H = FinMatGroup(fld, [[[1, 1], [0, 1]]])
    K = FinMatGroup(fld, [[[3, 0], [0, 1]]])
    inside = {H: elems[G.indices(H.closure())], K: elems[G.indices(K.closure())]}
    assert numbering(G) == numbering(H) == numbering(K) == "shared"
    assert G._table is H._table is K._table
    for _ in range(2):
        for X in (G, H, K):
            got = X.indices(elems)
            assert (got >= 0).sum() == X.order
            assert (X.closure()[got[got >= 0]] == elems[got >= 0]).all()
            assert (X.indices(inside.get(X, elems)) == np.arange(X.order)).all()
    with pytest.raises(ClosureOverflow):
        FinMatGroup(fld, G.generators).closure(100)
    assert (G.indices(elems) == np.arange(G.order)).all()
    assert (H.indices(inside[H]) == np.arange(7)).all()
    del H, inside
    L = FinMatGroup(fld, [[[1, 0], [1, 1]]])
    L.closure()
    assert (G.indices(elems) == np.arange(G.order)).all()
    assert (L.indices(L.closure()) == np.arange(7)).all()


# -- modules: one (k, m, m) action stack --

@pytest.mark.parametrize("call", [meataxe_split, is_irreducible,
                                  composition_factors])
def test_empty_module_is_rejected_at_construction(call):
    # these raised IndexError on ()
    with pytest.raises(ValidationError):
        call(ModuleRep(field_make(7, 1), ()))


@pytest.mark.parametrize("action", [
    np.zeros((0, 2, 2)), np.zeros((2, 0, 0)), np.eye(2), np.zeros((1, 2, 3)),
    np.zeros((1, 1, 2, 2))], ids=["no-generators", "dim-0", "one-matrix",
                                  "not-square", "four-axes"])
def test_module_action_must_be_a_stack(action):
    with pytest.raises(ValidationError):
        ModuleRep(field_make(7, 1), action.astype(np.int64))


def test_module_action_is_a_canonical_read_only_stack():
    rho = ModuleRep(field_make(7, 1), ([[8, -1], [0, 1]], [[1, 0], [0, 1]]))
    assert rho.action.shape == (2, 2, 2) and rho.action.dtype == np.int64
    assert rho.action[0].tolist() == [[1, 6], [0, 1]]
    assert not rho.action.flags.writeable
    assert not hasattr(rho, "matrices")
    with pytest.raises(ValidationError):
        ModuleRep(field_make(5, 2), [[[25]]])


def test_submodule_action_rejects_a_non_invariant_basis():
    rho = module_of_group(symmetric_group(3, 7))
    fld = rho.field
    sub, quot = _submodule_action(fld, rho.action, np.array([[1, 1, 1]]))
    assert sub.shape == (2, 1, 1) and quot.shape == (2, 2, 2)
    with pytest.raises(ValidationError, match="claimed subspace is not invariant"):
        _submodule_action(fld, rho.action, np.array([[1, 0, 0]]))


def test_is_subgroup_of_matches_per_generator_membership():
    s3 = symmetric_group(3, 7)
    fld = s3.field
    a3 = FinMatGroup(fld, [perm_mat(fld, [1, 2, 0])])
    cases = [(a3, s3, True), (s3, a3, False), (FinMatGroup(fld, []), s3, True),
             (FinMatGroup(fld, [2 * np.eye(3, dtype=np.int64)]), s3, False),
             (cyclic_group(4, 7), s3, False), (s3, s3, True)]
    for H, G, want in cases:
        assert H.is_subgroup_of(G) == all(g in G for g in H.generators) == want


# the per-matrix loops that the stacked module operations replaced

def reference_intertwiners(rho, sigma):
    fld, n, m = rho.field, rho.dim, sigma.dim
    rows = [fld.sub(fld.kron(R, fld.eye(m)), fld.kron(fld.eye(n), S.T))
            for R, S in zip(rho.action, sigma.action)]
    return [b.reshape(n, m) for b in fld.nullspace(np.concatenate(rows, axis=0))]


def reference_direct_sum(rho, sigma):
    blocks = []
    for a, b in zip(rho.action, sigma.action):
        M = np.zeros((len(a) + len(b),) * 2, dtype=np.int64)
        M[:len(a), :len(a)] = a
        M[len(a):, len(a):] = b
        blocks.append(M)
    return blocks


def reference_dual(W):
    return [W.field.inv_matrix(M).T for M in W.action]


@st.composite
def module_pairs(draw):
    """Two modules of the same k generators over GF(7) or GF(3^2), of
    dimensions 1..3, with uniformly drawn (not always invertible) entries."""
    fld = field_make(*draw(st.sampled_from([(7, 1), (3, 2)])))
    k = draw(st.integers(1, 3))

    def module(dim):
        flat = draw(st.lists(st.integers(0, fld.q - 1),
                             min_size=k * dim * dim, max_size=k * dim * dim))
        return ModuleRep(fld, np.reshape(flat, (k, dim, dim)))

    return module(draw(st.integers(1, 3))), module(draw(st.integers(1, 3)))


def same_arrays(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@settings(max_examples=80, deadline=None)
@given(module_pairs())
def test_stacked_module_operations_match_per_matrix_loops(pair):
    rho, sigma = pair
    for a, b in [(rho, sigma), (sigma, rho), (rho, rho)]:
        assert same_arrays(intertwiners(a, b), reference_intertwiners(a, b))
        assert same_arrays(a.direct_sum(b).action, reference_direct_sum(a, b))
    if all(rho.field.rank(M) == rho.dim for M in rho.action):
        assert same_arrays(dual_module(rho).action, reference_dual(rho))


# -- error paths --

def test_from_json_takes_a_json_string_and_rejects_other_shapes():
    G = sl2_group(5)
    assert FinMatGroup.from_json(json.dumps(G.to_json())).order == G.order
    with pytest.raises(ValidationError):
        FinMatGroup.from_json([G.to_json()])
    with pytest.raises(ValidationError):
        FinMatGroup.from_json(dict(G.to_json(), modulus=2))


def test_intertwiners_and_direct_sums_need_matching_modules():
    f5, f7 = field_make(5, 1), field_make(7, 1)
    one = ModuleRep(f7, np.eye(2, dtype=np.int64)[None])
    two = ModuleRep(f7, np.stack([np.eye(2, dtype=np.int64)] * 2))
    with pytest.raises(DimensionMismatch):
        intertwiners(one, ModuleRep(f5, one.action))
    with pytest.raises(DimensionMismatch):
        intertwiners(one, two)
    with pytest.raises(DimensionMismatch):
        one.direct_sum(two)


def test_a_meataxe_budget_of_zero_draws_nothing_and_gives_up():
    G = symmetric_group(3, 7)
    with pytest.raises(RandomBudgetExceeded):
        meataxe_split(module_of_group(G), budget=0)


def test_a_group_with_no_generators_has_no_closure():
    with pytest.raises(ValidationError):
        FinMatGroup(field_make(5, 1), []).closure()
