"""Subgroups in the ambient index space: the right Cayley table the closure
keeps, right rows along words, the inverse, left and conjugation tables
read off it and the orbit labels (least_labels) against products and
sets, on random small groups; index_subgroup and derived_subgroup against
the subgroup and normal closure that a loop over Mats builds
(reference_generated_subgroup), and index_subgroup against a matrix
closure, on random conjugates of the corpus groups."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (alternating_group_4, cyclic_group, diagonal_torus, dihedral_group,
                    heisenberg_mod3_group, quaternion_group, sl2_group, symmetric_group)
from envlab.errors import ClosureOverflow
from envlab.fieldcore import FinMatGroup, Mat, least_labels
from envlab.nori import nori_points, quotient_is_abelian
from envlab.pipeline import derived_subgroup
from test_derived_commutant import small_groups as derived_groups
from test_fieldcore import reference_generated_subgroup
from test_fieldcore import small_groups as closure_groups
from test_nori import sym2_so3_group

CORPUS = [lambda: cyclic_group(6, 7), lambda: dihedral_group(5, 11),
          lambda: symmetric_group(4, 13), lambda: alternating_group_4(7),
          lambda: quaternion_group(5), lambda: heisenberg_mod3_group(7),
          lambda: sl2_group(5), lambda: diagonal_torus(11)]


def conjugate(G, seed):
    """P g P^-1 over the generators of G, for a P in GL_n drawn from seed."""
    fld, rng = G.field, np.random.default_rng(seed)
    while fld.rank(P := rng.integers(0, fld.q, size=(G.n, G.n))) < G.n:
        pass
    return FinMatGroup(fld, fld.matmul(fld.matmul(P, G.gens), fld.inv_matrix(P)))


groups = st.builds(conjugate, st.sampled_from(CORPUS).map(lambda make: make()),
                   st.integers(0, 2 ** 32 - 1))


@settings(max_examples=30, deadline=None)
@given(groups, st.data())
def test_right_table_and_rows_match_products(G, data):
    fld, elems = G.field, G.closure()
    prods = fld.matmul(elems[:, None], G.gens[None])
    assert np.array_equal(G._right, G.indices(prods))
    xs = data.draw(st.lists(st.integers(0, len(elems) - 1), max_size=5))
    rows = G.right_rows(xs)
    assert rows.shape == (len(xs), len(elems))
    for x, row in zip(xs, rows):
        assert np.array_equal(row, G.indices(fld.matmul(elems, elems[x])))


def reference_least_labels(rows):
    """The least index of every orbit, found as a set grown from it."""
    label = [-1] * rows.shape[1]
    for x in range(len(label)):
        if label[x] < 0:
            orbit, todo = {x}, [x]
            while todo:
                images = set(rows[:, todo.pop()].tolist()) - orbit
                orbit |= images
                todo += images
            for y in orbit:
                label[y] = x
    return label


@settings(max_examples=60, deadline=None)
@given(closure_groups() | derived_groups())
def test_index_tables_match_products(G):
    fld, elems = G.field, G.closure()
    inverses = np.array([fld.inv_matrix(x) for x in elems])
    assert np.array_equal(G.inverse, G.indices(inverses))
    assert np.array_equal(G.left, G.indices(fld.matmul(G.gens[:, None], elems)))
    conj = fld.matmul(fld.matmul(G.gens_inv[:, None], elems), G.gens[:, None])
    assert np.array_equal(G.conjugation, G.indices(conj))
    assert not any(t.flags.writeable for t in (G.inverse, G.left, G.conjugation))
    assert least_labels(G.conjugation).tolist() == reference_least_labels(G.conjugation)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda N: st.lists(st.permutations(range(N)), min_size=1, max_size=3)))
def test_least_labels_match_orbits(perms):
    rows = np.array(perms, dtype=np.int64)
    assert least_labels(rows).tolist() == reference_least_labels(rows)


@settings(max_examples=40, deadline=None)
@given(groups, st.data())
def test_index_subgroup_matches_generated_subgroup(G, data):
    elems = G.closure()
    picks = data.draw(st.lists(st.integers(0, len(elems) - 1), max_size=6))
    H = G.index_subgroup(np.array(picks, dtype=np.int64))
    want = reference_generated_subgroup(G.field, G.n,
                                        [Mat(G.field, elems[i]) for i in picks])
    assert H.generators == want.generators
    assert H.order == want.order
    assert np.array_equal(H.members(elems), want.indices(elems) >= 0)
    # asked for its closure, it closes its generators as any group does
    ref = FinMatGroup(G.field, H.generators)
    got = H.closure()
    assert not got.flags.writeable
    assert got.tobytes() == ref.closure().tobytes()
    assert np.array_equal(H._parent, ref._parent) and np.array_equal(H._gen, ref._gen)
    assert np.array_equal(H._right, ref._right)
    assert np.array_equal(H.indices(elems), ref.indices(elems))


@settings(max_examples=30, deadline=None)
@given(groups)
def test_derived_subgroup_is_the_normal_closure_of_the_commutators(G):
    elems, gens = G.closure(), G.generators
    comms = [a @ b @ a.inverse() @ b.inverse() for a in gens for b in gens]
    want = reference_generated_subgroup(G.field, G.n, comms, G.generators)
    D = derived_subgroup(G)
    assert D.order == want.order
    assert np.array_equal(D.members(elems), want.indices(elems) >= 0)
    assert D.is_subgroup_of(G) and D.is_normal_in(G)


def test_derived_subgroup_cap_bounds_the_closure_of_g():
    with pytest.raises(ClosureOverflow):
        derived_subgroup(symmetric_group(4, 13), cap=23)
    assert derived_subgroup(symmetric_group(4, 13), cap=24).order == 12


def test_so3_plus_group_is_an_index_set():
    # SO3(F_7) = PGL2(F_7): G+ = PSL2(F_7) has index 2, read from the mask
    G = sym2_so3_group(7)
    result = nori_points(G)
    plus = result.plus_group
    assert plus._elements is None
    assert result.to_json()["plus_order"] == plus.order == 168
    assert quotient_is_abelian(G, plus)
    assert plus._elements is None  # order and membership closed nothing
    assert int(plus.members(G.closure()).sum()) == 168


def test_index_subgroups_answer_is_normal_in_from_the_mask():
    # G+ of SL2(F_23) is all 6,072 elements; normality reads the mask only
    sl2, s4 = sl2_group(23), symmetric_group(4, 13)
    for G, H in [(sl2, nori_points(sl2).plus_group), (s4, derived_subgroup(s4))]:
        assert H.is_normal_in(G)
        assert H._elements is None


def test_quotient_by_trivial_index_subgroup():
    # no candidate: the trivial group on the identity, so G/1 is G
    for G, abelian in [(cyclic_group(6, 7), True), (symmetric_group(3, 7), False)]:
        H = G.index_subgroup(np.array([], dtype=np.int64))
        assert H.order == 1 and len(H.generators) == 1 and H.generators[0].is_identity()
        assert quotient_is_abelian(G, H) is abelian
