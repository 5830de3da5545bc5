"""The echelon kernel on python-int rows (GF.row_ops) against the numpy
oracles of tests/linalg_oracles.py: rref, rank, nullspace and inv_matrix,
the incremental echelon basis, spin and lie_closure must be byte-equal
over GF(2), GF(7), GF(13), GF(8), GF(9) and GF(25), and the random
algebra element and Horner evaluation, which no longer multiply by the
identity, must give the same matrices from the same rng draws, Horner
on a stack those of a loop over its matrices.  Counter
guards pin the numpy arithmetic out of the kernel: one GF.matmul per
vector spin pops, no GF.mul/GF.sub in rref or EchelonBasis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracles
from corpus import sl2_group
from envlab.fieldcore import (EchelonBasis, _eval_poly_at_matrix,
                              _random_algebra_element, spin)
from envlab.gf import GF, field_make
from envlab.nori import _log_stack, lie_closure, order_ell_elements
from test_nori import sl3_group, sym2_so3_group
from test_pivot_reads import counting

FIELDS = [(2, 1), (7, 1), (13, 1), (2, 3), (3, 2), (5, 2)]  # GF(2, 7, 13, 8, 9, 25)
SETTINGS = settings(max_examples=40, deadline=None)
SHAPES = [(0, 0), (0, 5), (5, 0), (1, 1), (108, 9), (24, 49)]


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def low_rank(fld, m, n, rank, seed):
    """A uniform m x n matrix of rank at most `rank`: a product of uniform
    m x rank and rank x n factors (the zero matrix when rank is 0)."""
    rng = np.random.default_rng(seed)
    left = rng.integers(0, fld.q, size=(m, rank), dtype=np.int64)
    right = rng.integers(0, fld.q, size=(rank, n), dtype=np.int64)
    return fld.matmul(left, right) if rank else fld.zeros(m, n)


def assert_rref_family_matches(fld, M):
    R, pivots = fld.rref(M)
    want_R, want_pivots = linalg_oracles.rref(fld, M)
    assert same_bytes(R, want_R) and pivots == want_pivots
    assert fld.rank(M) == linalg_oracles.rank(fld, M)
    assert same_bytes(fld.nullspace(M), linalg_oracles.nullspace(fld, M))


@pytest.mark.parametrize("ell,d", FIELDS)
@SETTINGS
@given(m=st.integers(0, 7), n=st.integers(0, 7), rank=st.integers(0, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rref_rank_nullspace_match_the_numpy_oracle(ell, d, m, n, rank, seed):
    fld = field_make(ell, d)
    assert_rref_family_matches(fld, low_rank(fld, m, n, rank, seed))


@pytest.mark.parametrize("ell,d", FIELDS)
@SETTINGS
@given(m=st.integers(0, 7), n=st.integers(0, 7), rank=st.integers(0, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_nullspace_matches_its_numpy_basis_build(ell, d, m, n, rank, seed):
    fld = field_make(ell, d)
    M = low_rank(fld, m, n, rank, seed)
    assert same_bytes(fld.nullspace(M), linalg_oracles.nullspace_on_rref(fld, M))


@pytest.mark.parametrize("ell,d", FIELDS)
@pytest.mark.parametrize("m,n", SHAPES)
def test_nullspace_on_edge_shapes_matches_its_numpy_basis_build(ell, d, m, n):
    fld = field_make(ell, d)
    for rank in {0, 1, min(m, n) // 2, min(m, n)}:
        M = low_rank(fld, m, n, rank, seed=m * n + rank)
        assert same_bytes(fld.nullspace(M), linalg_oracles.nullspace_on_rref(fld, M))


@pytest.mark.parametrize("ell,d", FIELDS)
@pytest.mark.parametrize("m,n", SHAPES)
def test_rref_on_edge_shapes_matches_the_numpy_oracle(ell, d, m, n):
    fld = field_make(ell, d)
    assert_rref_family_matches(fld, fld.zeros(m, n))
    for rank in {1, min(m, n) // 2, min(m, n)}:
        assert_rref_family_matches(fld, low_rank(fld, m, n, rank, seed=m * n + rank))


@pytest.mark.parametrize("ell,d", FIELDS)
@SETTINGS
@given(n=st.integers(0, 8), rank=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_inv_matrix_matches_the_numpy_oracle(ell, d, n, rank, seed):
    fld = field_make(ell, d)
    # full-rank factors of size n are mostly invertible; rank < n never is
    M = low_rank(fld, n, n, min(rank, n), seed)
    try:
        want = linalg_oracles.inv_matrix(fld, M)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fld.inv_matrix(M)
    else:
        assert same_bytes(fld.inv_matrix(M), want)


@pytest.mark.parametrize("M", [[[1, 0, 0], [0, 1, 0]], [[1], [0]], [1, 2], 3,
                               np.zeros((2, 2, 2), dtype=np.int64)])
def test_inv_matrix_rejects_a_non_square_input(M):
    # a 2 x 3 input once returned its last two columns as an "inverse",
    # and a 1-d input raised a numpy AxisError
    with pytest.raises(ValueError, match="square 2-d"):
        field_make(7).inv_matrix(M)


@pytest.mark.parametrize("ell,d", FIELDS)
@SETTINGS
@given(n=st.integers(1, 7), data=st.data())
def test_echelon_basis_matches_the_numpy_oracle(ell, d, n, data):
    fld = field_make(ell, d)
    rank = data.draw(st.integers(0, n))
    vectors = low_rank(fld, data.draw(st.integers(0, 10)), n, rank,
                       data.draw(st.integers(0, 2 ** 32 - 1)))
    got, want = EchelonBasis(fld), linalg_oracles.EchelonBasis(fld)
    for v in vectors:
        a, b = got.add(v), want.add(v)
        assert (a is None) == (b is None)
        assert a is None or same_bytes(a, b)
    assert got.pivots == want.pivots
    assert all(same_bytes(a, b) for a, b in zip(got.rows, want.rows, strict=True))


@pytest.mark.parametrize("ell,d", FIELDS)
@SETTINGS
@given(n=st.integers(1, 6), k=st.integers(1, 3), seeds=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_spin_matches_the_numpy_oracle(ell, d, n, k, seeds, seed):
    fld = field_make(ell, d)
    rng = np.random.default_rng(seed)
    # block upper triangular actions: the first n // 2 coordinates span a
    # submodule
    action = rng.integers(0, fld.q, size=(k, n, n), dtype=np.int64)
    action[:, n // 2:, :n // 2] = 0
    vectors = rng.integers(0, fld.q, size=(seeds, n), dtype=np.int64)
    vectors[:, n // 2:] *= rng.integers(0, 2)  # sometimes inside the submodule
    got = spin(fld, action, vectors)
    want = linalg_oracles.spin(fld, action, vectors)
    assert got.pivots == want.pivots
    assert all(same_bytes(a, b) for a, b in zip(got.rows, want.rows, strict=True))


@pytest.mark.parametrize("make", [lambda: sl2_group(13), lambda: sym2_so3_group(7),
                                  lambda: sl3_group(3)],
                         ids=["SL2(13)", "SO3(7)", "SL3(3)"])
def test_lie_closure_rows_match_the_numpy_oracle_on_nori_algebras(make):
    G = make()
    fld = G.field
    seeds = _log_stack(fld, G.closure()[order_ell_elements(G)])
    got = lie_closure(fld, seeds, G.n)
    want = linalg_oracles.lie_closure(fld, seeds, G.n)
    assert len(got) == len(want) > 0
    assert all(same_bytes(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("ell,d", FIELDS)
@SETTINGS
@given(n=st.integers(1, 5), k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       poly=st.lists(st.integers(0, 24), min_size=1, max_size=5))
def test_algebra_element_and_horner_match_the_identity_products(ell, d, n, k, seed, poly):
    fld = field_make(ell, d)
    mats = np.random.default_rng(seed).integers(0, fld.q, size=(k, n, n), dtype=np.int64)
    mats.setflags(write=False)  # as ModuleRep.action is
    rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    A = _random_algebra_element(fld, mats, n, rng)
    assert same_bytes(A, linalg_oracles.random_algebra_element(fld, mats, n, ref_rng))
    assert rng.integers(0, 2 ** 62) == ref_rng.integers(0, 2 ** 62)  # same draws
    poly = [c % fld.q for c in poly[:-1]] + [1]  # monic, as the MeatAxe's factors are
    assert same_bytes(_eval_poly_at_matrix(fld, poly, A),
                      linalg_oracles.eval_poly_at_matrix(fld, poly, A))
    # a (2, k, n, n) stack at once, as the exp/log series and tame evaluate
    stack = np.stack([mats, fld.matmul(mats, A)])
    want = [linalg_oracles.eval_poly_at_matrix(fld, poly, m) for m in stack.reshape(-1, n, n)]
    assert same_bytes(_eval_poly_at_matrix(fld, poly, stack),
                      np.reshape(want, stack.shape))


@pytest.mark.parametrize("ell,d", [(13, 1), (3, 2)])
def test_spin_makes_one_matmul_per_popped_vector(monkeypatch, ell, d):
    fld = field_make(ell, d)
    rng = np.random.default_rng(5)
    action = rng.integers(0, fld.q, size=(3, 6, 6), dtype=np.int64)
    action[:, 3:, :3] = 0  # the first three coordinates span a submodule
    seed = np.zeros(6, dtype=np.int64)
    seed[1] = 1
    calls = counting(monkeypatch, GF, "matmul")
    basis = spin(fld, action, [seed])
    assert 0 < len(basis.rows) <= 3
    assert len(calls) == len(basis.rows)  # every row is queued and popped once


@pytest.mark.parametrize("ell,d", [(13, 1), (3, 2)])
def test_rref_and_echelon_basis_make_no_array_arithmetic(monkeypatch, ell, d):
    fld = field_make(ell, d)
    M = low_rank(fld, 9, 7, 5, seed=1)
    calls = [counting(monkeypatch, GF, name) for name in ("mul", "sub", "add", "neg")]
    fld.rref(M)
    unitriangular = np.triu(low_rank(fld, 4, 4, 4, seed=3), 1) + fld.eye(4)
    fld.inv_matrix(unitriangular)
    basis = EchelonBasis(fld)
    for v in M:
        basis.add(v)
    assert len(basis.rows) == 5
    assert calls == [[], [], [], []]
