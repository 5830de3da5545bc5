"""The commutant of the derived subgroup without a group closure:
derived_commutant_dim against the commutant of [G, G] closed as the
normal closure of the generator commutators, one Mat at a time
(reference_generated_subgroup), on random small groups over GF(2), GF(3),
GF(5), GF(7), GF(4) and GF(9), and on the groups of the mackey, envelope
and extfield benchmark workloads."""

import importlib.util
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import mackey_corpus
from envlab.fieldcore import (FinMatGroup, Mat, ModuleRep, commutant,
                              generator_commutators, module_of_group)
from envlab.gf import field_make
from envlab.pipeline import derived_commutant_dim
from test_fieldcore import reference_generated_subgroup

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
_spec = importlib.util.spec_from_file_location("bench_workloads",
                                               os.path.join(BENCH, "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]


def oracle_derived(G):
    """[G, G] as the normal closure of the commutators a b a^-1 b^-1 of
    the generators, one Mat at a time."""
    gens = G.generators
    comms = [a @ b @ a.inverse() @ b.inverse() for a in gens for b in gens]
    return reference_generated_subgroup(G.field, G.n, comms, gens)


def oracle_c_derived(G):
    D = oracle_derived(G)
    return None if D.order == 1 else commutant(module_of_group(D))[1]


@st.composite
def small_groups(draw):
    """A group on 1-3 generators of one kind, conjugated by a random
    invertible P = L U.  General matrices, products perm L U (every
    invertible matrix is one), only where GL_n(F_q) is small (q^(n^2) <=
    6561); else upper triangular (so [G, G] is unipotent), monomial or
    diagonal (abelian) ones.  One generator gives a cyclic group."""
    fld = field_make(*draw(st.sampled_from(FIELDS)))
    q, n = fld.q, draw(st.integers(1, 3))
    kinds = ["triangular", "monomial", "diagonal"]
    if q ** (n * n) <= 6561:
        kinds.append("general")
    kind = draw(st.sampled_from(kinds))
    strict = n * (n - 1) // 2

    def entries(low, size):
        return draw(st.lists(st.integers(low, q - 1), min_size=size, max_size=size))

    def diagonal():
        return np.diag(entries(1, n)).astype(np.int64)

    def perm():
        M = fld.zeros(n, n)
        M[draw(st.permutations(range(n))), np.arange(n)] = 1
        return M

    def lower():
        M = fld.eye(n)
        M[np.tril_indices(n, -1)] = entries(0, strict)
        return M

    def upper():
        M = diagonal()
        M[np.triu_indices(n, 1)] = entries(0, strict)
        return M

    def matrix():
        if kind == "general":
            return fld.matmul(fld.matmul(perm(), lower()), upper())
        if kind == "monomial":
            return fld.matmul(perm(), diagonal())
        return upper() if kind == "triangular" else diagonal()

    P = fld.matmul(lower(), upper())
    Pinv = fld.inv_matrix(P)
    gens = [fld.matmul(fld.matmul(P, matrix()), Pinv)
            for _ in range(draw(st.integers(1, 3)))]
    return FinMatGroup(fld, [Mat(fld, g) for g in gens])


@settings(max_examples=80, deadline=None)
@given(small_groups())
def test_derived_commutant_matches_the_closed_derived_subgroup(G):
    assert derived_commutant_dim(G) == oracle_c_derived(G)


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G, _ in mackey_corpus()])
def test_derived_commutant_on_the_mackey_corpus(G):
    assert derived_commutant_dim(G) == oracle_c_derived(G)


def _benchmark_groups():
    """The envelope and extfield groups, conjugated as the workloads do,
    with dim End_[G,G](V): 1 where [G, G] is an absolutely irreducible
    SL2, SO3 = PGL2 (whose derived group PSL2 is irreducible on the
    3-dim module) or SL3; 2 for the tensor square of SL2, whose derived
    group is itself; None for the abelian groups."""
    rng = np.random.default_rng(15)
    out = []

    def add(name, fld, n, gens, want):
        doc = workloads._conjugated(fld, n, gens, rng)
        out.append(pytest.param(FinMatGroup.from_json(doc), want, id=name))

    for ell in (11, 13):
        fld = field_make(ell)
        add(f"SL2(F{ell})", fld, 2, workloads._sl2_gens(fld), 1)
    for ell in (7, 11, 13):
        fld = field_make(ell)
        add(f"SO3(F{ell})", fld, 3, workloads._so3_gens(fld), 1)
    add("SL3(F3)", field_make(3), 3, [np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                                      np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])], 1)
    fld = field_make(11)
    add("SL2(F11)^2", fld, 4, workloads._tensor_square_gens(fld), 2)
    w = fld.least_primitive()
    add("T(F11)", fld, 2, [np.diag([w, 1]), np.diag([1, w])], None)
    add("<diag(w,w^3)>(F11)", fld, 2, [np.diag([w, pow(w, 3, 11)])], None)
    for ell, d in [(3, 2), (2, 3), (2, 4), (5, 2)]:
        fld = field_make(ell, d)
        add(f"SL2(GF{fld.q})", fld, 2, workloads._sl2_gens(fld), 1)
    fld = field_make(3, 2)
    add("SL2(GF9)^2", fld, 4, workloads._tensor_square_gens(fld), 2)
    return out


@pytest.mark.parametrize("G,want", _benchmark_groups())
def test_derived_commutant_on_the_benchmark_groups(G, want):
    assert derived_commutant_dim(G) == want
    if G.field.q <= 11:  # the Mat-loop closure of [G, G] stays small here
        assert oracle_c_derived(G) == want


@pytest.mark.parametrize("G,want", _benchmark_groups())
def test_generator_commutators_list_each_pair_once(G, want):
    # [a, b] for a before b, in pair order; the commutant of those is the
    # commutant of all k^2 ordered pairs, the same rref basis, since
    # [a, a] = 1 and [b, a] = [a, b]^-1 commute with whatever [a, b] does
    gens, fld = G.generators, G.field
    got = generator_commutators(G)
    assert [Mat(fld, c) for c in got] == [a @ b @ a.inverse() @ b.inverse()
                                          for i, a in enumerate(gens) for b in gens[i + 1:]]
    every = np.array([(a @ b @ a.inverse() @ b.inverse()).array for a in gens for b in gens])
    if len(got):
        assert np.array_equal(commutant(ModuleRep(fld, got))[0],
                              commutant(ModuleRep(fld, every))[0])
    else:
        assert (every == fld.eye(G.n)).all() and want is None
