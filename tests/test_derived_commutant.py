"""The commutants of the envelope report without a group closure: the
commutant chain's End_[G,G](V) against the commutant of [G, G] closed as
the normal closure of the generator commutators, one Mat at a time
(reference_generated_subgroup), and against the fixed-point rounds it
replaced (linalg_oracles.derived_commutant_dim); its End_G(V) and
End_G+(V) against the plain commutants of G and G+.  On random small
groups over GF(2), GF(3), GF(5), GF(7), GF(4) and GF(9), with G+ from the
Nori stage or any normal subgroup, and on the groups of the mackey,
envelope and extfield benchmark workloads."""

import importlib.util
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracles
from corpus import mackey_corpus, perm_mat
from envlab.errors import EnvlabError
from envlab.fieldcore import (FinMatGroup, Mat, ModuleRep, commutant,
                              generator_commutators, grow_mask, module_of_group)
from envlab.gf import field_make
from envlab.nori import nori_points
from envlab.pipeline import commutant_chain, derived_subgroup
from test_fieldcore import reference_generated_subgroup
from test_nori import sym2_so3_group

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
    """A group of one kind, conjugated by a random invertible P = L U.
    On 1-3 generators: general matrices, products perm L U (every
    invertible matrix is one), only where GL_n(F_q) is small (q^(n^2) <=
    6561); else upper triangular (so [G, G] is unipotent), monomial or
    diagonal (abelian) ones, where one generator gives a cyclic group.
    Half the time, a group that is never abelian: a Heisenberg group, the
    unipotent x = 1 + a E_12 and y = 1 + b E_23, a, b != 0, with at most
    one more unit upper triangular generator; or S3 x C_ell on five
    coordinates, S3 permuting three of them next to a transvection on
    two, so G+ misses the commutators of S3 where ell > 3."""
    fld = field_make(*draw(st.sampled_from(FIELDS)))
    q, n = fld.q, draw(st.integers(1, 3))
    kinds = ["triangular", "monomial", "diagonal"]
    if q ** (n * n) <= 6561:
        kinds.append("general")
    kind = draw(st.sampled_from(["heisenberg", "s3 x cyclic"]) | st.sampled_from(kinds))
    n = {"heisenberg": 3, "s3 x cyclic": 5}.get(kind, n)
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

    def heisenberg():
        x, y = fld.eye(3), fld.eye(3)
        x[0, 1], y[1, 2] = entries(1, 2)
        return [x, y] + [lower().T for _ in range(draw(st.integers(0, 1)))]

    def s3_times_cyclic():
        swap, cycle, transvection = fld.eye(5), fld.eye(5), fld.eye(5)
        swap[:3, :3] = perm_mat(fld, [1, 0, 2]).array
        cycle[:3, :3] = perm_mat(fld, [1, 2, 0]).array
        transvection[3, 4] = entries(1, 1)[0]
        return [swap, cycle, transvection]

    P = fld.matmul(lower(), upper())
    Pinv = fld.inv_matrix(P)
    if kind == "heisenberg":
        gens = heisenberg()
    elif kind == "s3 x cyclic":
        gens = s3_times_cyclic()
    else:
        gens = [matrix() for _ in range(draw(st.integers(1, 3)))]
    return FinMatGroup(fld, [Mat(fld, fld.matmul(fld.matmul(P, g), Pinv)) for g in gens])


@settings(max_examples=80, deadline=None)
@given(small_groups())
def test_derived_commutant_matches_the_closed_derived_subgroup(G):
    assert commutant_chain(G)[1] == oracle_c_derived(G) \
        == linalg_oracles.derived_commutant_dim(G)


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G, _ in mackey_corpus()])
def test_derived_commutant_on_the_mackey_corpus(G):
    assert commutant_chain(G)[1] == oracle_c_derived(G) \
        == linalg_oracles.derived_commutant_dim(G)


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
    assert commutant_chain(G)[1] == linalg_oracles.derived_commutant_dim(G) == want
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


# the normal subgroups the chain's third entry is tested on: none, G+
# from the Nori stage, G, [G, G] and the centre of G
PLUS = ["none", "nori", "group", "derived", "centre"]
PLUS_CAP = 20000


def plus_of(G, which):
    """The subgroup named by which, or None where the Nori stage fails
    (GF(ell^d), ell < n) or G's closure passes PLUS_CAP."""
    if which == "none":
        return None
    try:
        if which == "nori":
            return nori_points(G, PLUS_CAP).nori_points
        if which == "derived":
            return derived_subgroup(G, PLUS_CAP)
        X = G.closure(PLUS_CAP)
    except EnvlabError:
        return None
    if which == "group":
        return G
    fld = G.field
    central = (fld.matmul(X[:, None], G.gens[None]) == fld.matmul(G.gens[None], X[:, None]))
    return G.index_subgroup(np.flatnonzero(central.all(axis=(1, 2, 3))))


def plain_chain(G, plus):
    """(c_group, c_derived, c_nori) from plain commutants of G and plus and
    the fixed-point rounds for [G, G]."""
    c_nori = None if plus is None or plus.order == 1 else commutant(module_of_group(plus))[1]
    return (commutant(module_of_group(G))[1], linalg_oracles.derived_commutant_dim(G), c_nori)


@settings(max_examples=80, deadline=None)
@given(small_groups(), st.sampled_from(PLUS))
def test_commutant_chain_matches_the_plain_commutants(G, which):
    # abelian groups (c_derived None), reducible triangular and
    # decomposable diagonal ones, G+ = G, [G, G] <= G+ and a centre that
    # misses the commutators
    plus = plus_of(G, which)
    assert commutant_chain(G, plus) == plain_chain(G, plus)


def s3_times_unipotent(fld):
    """S3 on three coordinates next to a unit transvection on two: G+ is
    the order-ell factor and misses the commutators of S3.  Over F_5, V is the
    trivial line, S3's 2-dim irreducible and the uniserial 2-dim module J
    of C_ell, so End_G(V) = 1 + 1 + 2 + 1 + 1 (the last two the maps
    between the line and J); [G, G] = A3 sees three trivial lines and an
    irreducible plane with a 2-dim commutant over F_5, 9 + 2; G+ sees
    three trivial lines and J, 9 + 3 + 3 + 2."""

    def block(top, bottom):
        M = fld.zeros(5, 5)
        M[:3, :3], M[3:, 3:] = top, bottom
        return Mat(fld, M)

    swap, cycle = perm_mat(fld, [1, 0, 2]).array, perm_mat(fld, [1, 2, 0]).array
    u = np.array([[1, 1], [0, 1]])
    return FinMatGroup(fld, [block(swap, fld.eye(2)), block(cycle, fld.eye(2)),
                             block(fld.eye(3), u)])


@pytest.mark.parametrize("make,holds_commutators,want", [
    (lambda: sym2_so3_group(7), True, (1, 1, 1)),  # G+ = PSL2(F_7) of index 2
    (lambda: s3_times_unipotent(field_make(5)), False, (6, 11, 17)),
], ids=["SO3(F7)", "S3xC5(F5)"])
def test_commutant_chain_with_a_proper_g_plus(make, holds_commutators, want):
    G = make()
    plus = nori_points(G).nori_points
    assert 1 < plus.order < G.order
    assert bool(plus.members(generator_commutators(G)).all()) == holds_commutators
    assert commutant_chain(G, plus) == plain_chain(G, plus) == want


@pytest.mark.parametrize("G,want", _benchmark_groups())
def test_commutant_chain_on_the_benchmark_groups(G, want):
    # over GF(ell^d) the Nori stage fails and the chain gets no G+
    try:
        plus = nori_points(G).nori_points
    except EnvlabError:
        plus = None
    assert commutant_chain(G, plus) == plain_chain(G, plus)


def normal_closure(G, x):
    """The normal closure of G's closure element x: the least mask
    holding 1 that right multiplication by x and conjugation by every
    generator map into itself, as derived_subgroup grows [G, G]."""
    fld, elems = G.field, G.closure()
    conj = fld.matmul(fld.matmul(G.gens[:, None], elems), G.gens_inv[:, None])
    mask = np.zeros(len(elems), dtype=bool)
    mask[0] = True
    rows = np.concatenate([G.right_rows([x]), G.indices(conj)])
    return G.index_subgroup(np.flatnonzero(grow_mask(mask, rows)))


def _chain_groups():
    """Non-abelian groups with decomposable permutation modules, G+ of
    index 2, a G+ that misses the commutators (over F_5 and GF(9)), and
    SL2 over GF(4) and GF(9)."""
    groups = [G for _, G, _ in mackey_corpus()]
    groups += [sym2_so3_group(7), s3_times_unipotent(field_make(5)),
               s3_times_unipotent(field_make(3, 2))]
    rng = np.random.default_rng(29)
    for ell, d in [(2, 2), (3, 2)]:
        fld = field_make(ell, d)
        groups.append(FinMatGroup.from_json(
            workloads._conjugated(fld, 2, workloads._sl2_gens(fld), rng)))
    return groups


CHAIN_GROUPS = _chain_groups()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(CHAIN_GROUPS) - 1), st.data())
def test_commutant_chain_on_normal_closures(i, data):
    # the normal closure of one element holds the commutators or not, is
    # trivial, proper or G
    G = CHAIN_GROUPS[i]
    plus = normal_closure(G, data.draw(st.integers(0, G.order - 1)))
    assert commutant_chain(G, plus) == plain_chain(G, plus)


def test_commutant_chain_with_a_normal_subgroup_without_the_commutators_over_gf9():
    # the Nori stage fails over GF(9); the unipotent factor's normal
    # closure stands for G+ and misses the commutators of S3
    G = s3_times_unipotent(field_make(3, 2))
    plus = normal_closure(G, int(G.indices(G.gens[2])))
    assert plus.order == 3
    assert not plus.members(generator_commutators(G)).all()
    assert commutant_chain(G, plus) == plain_chain(G, plus)
