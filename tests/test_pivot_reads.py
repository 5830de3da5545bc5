"""Ranks for dimensions and pivot reads for coordinates and Krylov
relations, against the larger systems they replaced (tests/linalg_oracles.py):
the Krylov and matrix minimal polynomials, the submodule and quotient
actions and invertibility must be byte-equal, and the rank of a Reynolds
sum over a group of order prime to ell must be the dimension of the
fixed space of its Kronecker products, over GF(2), GF(7), GF(13), GF(8)
and GF(9).  Counter guards pin the replaced work out: no inverse in
composition factors, one rref per Lie rank sample, no echelon basis in
the Krylov minimal polynomial."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracles
from corpus import mackey_corpus, perm_mat, sl2_group, symmetric_group
from envlab import fieldcore
from envlab.errors import ValidationError
from envlab.fieldcore import (FinMatGroup, Mat, ModuleRep, _first_relation,
                              _submodule_action, _vector_minpoly, composition_factors,
                              matrix_minpoly, spin)
from envlab.gf import GF, field_make
from envlab.mackey import _reynolds_sum
from envlab.nori import lie_rank_estimate, nori_points

FIELDS = [(2, 1), (7, 1), (13, 1), (2, 3), (3, 2)]  # GF(2, 7, 13, 8, 9)
SETTINGS = settings(max_examples=60, deadline=None)


def matrices(fld, n, count=None):
    """A (count, n, n) stack (an (n, n) matrix without count) of uniform
    entries."""
    shape = (n, n) if count is None else (count, n, n)
    size = int(np.prod(shape))
    return st.lists(st.integers(0, fld.q - 1), min_size=size, max_size=size).map(
        lambda flat: np.array(flat, dtype=np.int64).reshape(shape))


def special_matrix(fld, n, kind, data):
    """A = 0, A = I, a strictly upper triangular (nilpotent) A, or a
    uniform A."""
    if kind == "zero":
        return fld.zeros(n, n)
    if kind == "identity":
        return fld.eye(n)
    A = data.draw(matrices(fld, n))
    return np.triu(A, 1) if kind == "nilpotent" else A


def same_bytes(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b))


@pytest.mark.parametrize("ell,d", FIELDS)
@SETTINGS
@given(data=st.data())
def test_minimal_polynomials_match_the_echelon_and_lcm_oracles(ell, d, data):
    fld = field_make(ell, d)
    n = data.draw(st.integers(1, 6))
    kind = data.draw(st.sampled_from(["zero", "identity", "nilpotent", "uniform"]))
    A = special_matrix(fld, n, kind, data)
    v = np.array(data.draw(st.lists(st.integers(0, fld.q - 1), min_size=n, max_size=n)
                           | st.just([0] * n)), dtype=np.int64)
    got = _vector_minpoly(fld, A, v)
    assert got == linalg_oracles.vector_minpoly(fld, A, v)
    assert all(type(c) is int for c in got)
    assert matrix_minpoly(fld, A) == linalg_oracles.matrix_minpoly(fld, A)
    assert Mat(fld, A).is_invertible() == linalg_oracles.is_invertible(fld, A)


@pytest.mark.parametrize("ell,d", FIELDS)
def test_minimal_polynomials_of_the_edge_cases(ell, d):
    fld = field_make(ell, d)
    for n in (1, 4):
        zero, eye = fld.zeros(n, n), fld.eye(n)
        nil = np.eye(n, k=1, dtype=np.int64)  # one Jordan block: x^n
        assert _vector_minpoly(fld, eye, fld.zeros(n)) == [1]
        assert _vector_minpoly(fld, zero, eye[0]) == [0, 1]
        assert _vector_minpoly(fld, nil, eye[-1]) == [0] * n + [1]
        assert matrix_minpoly(fld, zero) == [0, 1]
        assert matrix_minpoly(fld, eye) == [ell - 1, 1]  # -1 is encoded as ell - 1
        assert matrix_minpoly(fld, nil) == [0] * n + [1]
        for A in (zero, eye, nil):
            assert matrix_minpoly(fld, A) == linalg_oracles.matrix_minpoly(fld, A)
            for v in (fld.zeros(n), eye[0], eye[-1]):
                assert _vector_minpoly(fld, A, v) == linalg_oracles.vector_minpoly(fld, A, v)


def test_first_relation_reads_the_first_dependent_row():
    fld = field_make(7)
    # 3 v0 + 2 v1 = v2, so the relation is v2 - 2 v1 - 3 v0 = 0; the row
    # after it is dependent too, as in every Krylov sequence
    rows = np.array([[1, 0, 0], [0, 1, 0], [3, 2, 0], [1, 1, 0]])
    assert _first_relation(fld, rows) == [4, 5, 1]
    assert _first_relation(fld, np.zeros((2, 3), dtype=np.int64)) == [1]


@st.composite
def reducible_modules(draw, fld):
    """A (k <= 3, n <= 6) action stack with an invariant subspace: block
    upper triangular stacks conjugated by a random invertible matrix, and
    the spin of random seeds inside that subspace, which is a proper
    nonzero invariant subspace."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, 3))
    j = draw(st.integers(1, n - 1))
    blocks = draw(matrices(fld, n, k))
    blocks[:, j:, :j] = 0  # span(e_0, ..., e_{j-1}) is invariant
    P = draw(matrices(fld, n).filter(lambda M: fld.rank(M) == n))
    action = fld.matmul(fld.matmul(P, blocks), fld.inv_matrix(P))
    seeds = draw(st.lists(st.lists(st.integers(0, fld.q - 1), min_size=j, max_size=j),
                          min_size=1, max_size=2).filter(lambda s: np.any(s)))
    inside = np.zeros((len(seeds), n), dtype=np.int64)
    inside[:, :j] = seeds
    rows = spin(fld, action, fld.matmul(inside, P.T)).rows
    return action, np.array(rows)


@pytest.mark.parametrize("ell,d", FIELDS)
@SETTINGS
@given(data=st.data())
def test_submodule_action_matches_completion_and_inverse(ell, d, data):
    fld = field_make(ell, d)
    action, basis = data.draw(reducible_modules(fld))
    n = action.shape[1]
    assert 0 < len(basis) < n
    got = _submodule_action(fld, action, basis)
    assert same_bytes(got, linalg_oracles.submodule_action(fld, action, basis))
    # another basis of the same subspace gives the same stacks
    M = data.draw(matrices(fld, len(basis)).filter(lambda M: fld.rank(M) == len(M)))
    assert same_bytes(_submodule_action(fld, action, fld.matmul(M, basis)), got)
    # widened by a unit vector, the subspace may or may not stay invariant;
    # both answers must agree on which
    wider = np.concatenate([basis, fld.eye(n)[[data.draw(st.integers(0, n - 1))]]])
    if fld.rank(wider) == len(wider):
        try:
            want = linalg_oracles.submodule_action(fld, action, wider)
        except ValidationError:
            with pytest.raises(ValidationError, match="claimed subspace is not invariant"):
                _submodule_action(fld, action, wider)
        else:
            assert same_bytes(_submodule_action(fld, action, wider), want)


# permutation groups of degree 5 by their generators, for the Reynolds
# sums below: C2, C3, C4, C5, V4, S3, D4, D5, A4, S4
PERMUTATION_GROUPS = [
    [[1, 0, 2, 3, 4]], [[1, 2, 0, 3, 4]], [[1, 2, 3, 0, 4]], [[1, 2, 3, 4, 0]],
    [[1, 0, 3, 2, 4], [2, 3, 0, 1, 4]], [[1, 0, 2, 3, 4], [1, 2, 0, 3, 4]],
    [[1, 2, 3, 0, 4], [3, 2, 1, 0, 4]], [[1, 2, 3, 4, 0], [4, 3, 2, 1, 0]],
    [[1, 0, 3, 2, 4], [1, 2, 0, 3, 4]], [[1, 0, 2, 3, 4], [1, 2, 3, 0, 4]],
]


@pytest.mark.parametrize("ell,d", FIELDS)
@SETTINGS
@given(data=st.data())
def test_invariants_dim_matches_the_nullspace_count(ell, d, data):
    # rho (x) sigma^dual over a permutation group K of order prime to ell,
    # for rho and sigma random conjugates of its permutation module, sigma
    # twisted by the sign, and rho (x) rho^dual over the cyclic group of
    # K's first generator: the Reynolds sum has the rank of the fixed
    # space of the Kronecker products, and is nonzero iff that space is
    fld = field_make(ell, d)
    groups = [gens for gens in PERMUTATION_GROUPS
              if FinMatGroup(fld, [perm_mat(fld, p) for p in gens]).order % ell]
    K = FinMatGroup(fld, [perm_mat(fld, p) for p in data.draw(st.sampled_from(groups))])
    elems = K.closure()
    P, Q = (data.draw(matrices(fld, 5).filter(lambda M: fld.rank(M) == 5)) for _ in range(2))
    sign = np.array([1 if np.linalg.det(x) > 0 else int(fld.neg(1)) for x in elems])
    if data.draw(st.booleans()):
        sign[:] = 1
    rho = fld.matmul(fld.matmul(P, elems), fld.inv_matrix(P))
    sigma_dual = fld.mul(sign[:, None, None],
                         fld.matmul(fld.matmul(fld.inv_matrix(Q).T, elems), Q.T))
    cyclic = [0]
    while cyclic[-1] != 0 or len(cyclic) == 1:
        cyclic.append(int(K.indices(fld.matmul(K.gens[0], elems[cyclic[-1]]))))
    rho_dual = fld.matmul(fld.matmul(fld.inv_matrix(P).T, elems), P.T)
    for A, B in [(rho, sigma_dual), (rho[cyclic[1:]], rho_dual[cyclic[1:]])]:
        R = _reynolds_sum(fld, A, B)
        want = linalg_oracles.invariants_dim(ModuleRep(fld, fld.kron(A, B)))
        assert fld.rank(R) == want
        assert R.any() == (want > 0)


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G, _ in mackey_corpus()])
def test_invariants_dim_over_every_element_of_a_group(G):
    # V (x) V at every element, as mackey_irreducible lists an
    # intersection in full: the Reynolds sum over the group has the rank
    # of the fixed space of the stack (384 x 16 on S4), which the
    # generators alone already cut out
    fld, elems = G.field, G.closure()
    rho = ModuleRep(fld, fld.kron(elems, elems))
    on_gens = ModuleRep(fld, fld.kron(G.gens, G.gens))
    assert fld.rank(_reynolds_sum(fld, elems, elems)) \
        == linalg_oracles.invariants_dim(rho) == linalg_oracles.invariants_dim(on_gens)


# -- counter guards --

def counting(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def test_composition_factors_make_no_inverse(monkeypatch):
    rho = linalg_oracles.regular_module(symmetric_group(4, 13), field_make(13))
    inverses = counting(monkeypatch, GF, "inv_matrix")
    factors = composition_factors(rho)
    assert sum(m.dim * k for m, k in factors) == 24
    assert inverses == []


@pytest.mark.parametrize("samples", [1, 25])
def test_lie_rank_estimate_makes_one_rref_per_sample(monkeypatch, samples):
    G = sl2_group(13)
    algebra = nori_points(G).lie_algebra
    rrefs = counting(monkeypatch, GF, "rref")
    report = lie_rank_estimate(algebra, G.field, samples=samples)
    assert (report.derived_dim, report.rank_estimate) == (3, 1)
    # the first sample reaches the floor of 1, where sampling stops
    assert len(rrefs) == report.sample_count == 1


def test_vector_minpoly_builds_no_echelon_basis(monkeypatch):
    fld = field_make(13)
    built = counting(monkeypatch, fieldcore, "EchelonBasis")
    A = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.int64)
    assert _vector_minpoly(fld, A, fld.eye(3)[0]) == [12, 0, 0, 1]
    assert built == []
    spin(fld, A[None], [fld.eye(3)[0]])  # spin still grows an echelon basis
    assert built == [1]
