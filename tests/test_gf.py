"""Field arithmetic, canonical moduli, exact linear algebra, and discrete
logs over GF(ell^d)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from envlab.errors import NotPrime, ValidationError
from envlab.gf import GF, field_make, is_prime, least_irreducible, prime_factors


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_factors():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(97) == [97]


def test_field_requires_prime():
    with pytest.raises(NotPrime):
        field_make(6, 1)


def test_field_order_is_bounded_by_int64_products():
    # (p - 1)^2 >= 2^63: the 1 x 1 product of p - 1 with itself used to
    # come back as 4294967087, not 1
    with pytest.raises(ValidationError):
        GF(4294967311)
    with pytest.raises(ValidationError):
        GF(3, 40)  # rejected before any modulus search
    with pytest.raises(ValidationError):
        GF(2, 10 ** 9)  # without computing 2^(10^9)


def test_matmul_rejects_an_overflowing_inner_dimension():
    fld = GF(2147483659)  # (p - 1)^2 < 2^63 <= 4 (p - 1)^2
    p = fld.ell
    assert fld.matmul([[p - 1]], [[p - 1]]).tolist() == [[1]]
    with pytest.raises(ValidationError):
        fld.matmul(np.full((1, 4), p - 1), np.full((4, 1), p - 1))


def test_canonical_moduli():
    # least monic irreducibles under the integer encoding of coefficients
    assert field_make(5, 2).modulus == (2, 0, 1)      # x^2 + 2
    assert field_make(5, 3).modulus == (1, 1, 0, 1)   # x^3 + x + 1
    assert field_make(2, 2).modulus == (1, 1, 1)      # x^2 + x + 1
    assert field_make(3, 2).modulus == (1, 0, 1)      # x^2 + 1


@pytest.mark.parametrize("ell,d,modulus", [
    (2, 3, (1, 1, 0, 1)), (2, 4, (1, 1, 0, 0, 1)), (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
    (3, 2, (1, 0, 1)), (3, 5, (1, 2, 0, 0, 0, 1)), (5, 2, (2, 0, 1)),
    (7, 4, (1, 1, 0, 0, 1)), (2, 16, (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,))])
def test_least_irreducible_of_the_bench_and_test_fields(ell, d, modulus):
    # the moduli of the Rabin test that the distinct-degree search replaced
    assert least_irreducible(ell, d) == modulus


def test_a_prime_field_stores_the_canonical_modulus():
    # every monic linear modulus is irreducible and gives the same encodings
    for modulus in [(0, 1), (3, 1), (10, 1), (14, 12)]:
        fld = GF(11, 1, modulus)
        assert fld.modulus == (0, 1) and fld == field_make(11)
    for bad in [(0, 2), (1, 0, 1), (1,)]:
        with pytest.raises(NotPrime):
            GF(11, 1, bad)


def test_least_irreducible_is_irreducible():
    for ell, d in [(2, 3), (3, 3), (7, 2), (11, 2)]:
        poly = least_irreducible(ell, d)
        assert len(poly) == d + 1 and poly[-1] == 1
        fld = GF(ell, d, tuple(poly))
        # no roots in the prime field for d > 1 is implied by irreducibility;
        # spot-check via the multiplicative order of x
        x_enc = ell  # the element x
        assert fld.order_of(x_enc) > 1


@pytest.mark.parametrize("ell,d", [(5, 1), (5, 2), (7, 2), (2, 3), (3, 2)])
def test_field_axioms(ell, d):
    fld = field_make(ell, d)
    rng = np.random.default_rng(7)
    a, b, c = (np.int64(int(x)) for x in rng.integers(0, fld.q, size=3))
    assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
    assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
    assert fld.add(a, fld.neg(a)) == 0
    for x in range(1, fld.q):
        assert fld.mul(np.int64(x), np.int64(fld.inv(x))) == 1


def test_pow_matches_repeated_mul():
    fld = field_make(7, 2)
    for x in (3, 10, 48):
        acc = 1
        for k in range(1, 6):
            acc = int(fld.mul(np.int64(acc), np.int64(x)))
            assert fld.pow(x, k) == acc


@pytest.mark.parametrize("ell,d", [(7, 1), (5, 2)])
def test_pow_of_zero(ell, d):
    fld = field_make(ell, d)
    assert fld.pow(0, 0) == 1
    for e in (1, 2, fld.q - 1, fld.q):
        assert fld.pow(0, e) == 0


@pytest.mark.parametrize("ell,d", [(5, 1), (5, 2), (7, 2)])
def test_rref_nullspace_rank(ell, d):
    fld = field_make(ell, d)
    rng = np.random.default_rng(11)
    for trial in range(10):
        M = rng.integers(0, fld.q, size=(5, 7)).astype(np.int64)
        R, pivots = fld.rref(M)
        assert len(pivots) == fld.rank(M)
        ns = fld.nullspace(M)
        assert len(ns) == 7 - len(pivots)
        for v in ns:
            prod = fld.matmul(M, v[:, None])
            assert not prod.any()


def nullspace_by_entries(fld, M):
    """The per-entry loop GF.nullspace used to run: free columns get a 1,
    pivot columns the negated entries of the reduced rows."""
    R, pivots = fld.rref(M)
    free = [c for c in range(M.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), M.shape[1]), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = fld.neg(R[r, fc])
    return basis


@pytest.mark.parametrize("ell,d", [(7, 1), (3, 2), (2, 3)])
@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(0, 4), st.integers(0, 5)), data=st.data())
def test_stacked_nullspace_matches_the_entry_loop(ell, d, shape, data):
    fld = field_make(ell, d)
    M = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, fld.q - 1)))
    basis = fld.nullspace(M)
    assert np.array_equal(basis, nullspace_by_entries(fld, M))
    assert basis.shape == (shape[1] - fld.rank(M), shape[1])
    assert not fld.matmul(M, basis.T).any()


@pytest.mark.parametrize("ell,d", [(7, 1), (3, 2), (2, 3)])
def test_nullspace_of_empty_and_full_rank_matrices(ell, d):
    fld = field_make(ell, d)
    for M in (np.zeros((0, 3), dtype=np.int64), np.zeros((2, 0), dtype=np.int64),
              np.zeros((0, 0), dtype=np.int64), fld.eye(3),
              np.array([[1, 2, 0], [0, 1, 1]], dtype=np.int64)):
        basis = fld.nullspace(M)
        assert np.array_equal(basis, nullspace_by_entries(fld, M))
        assert basis.shape == (M.shape[1] - fld.rank(M), M.shape[1])


def test_matrix_inverse():
    fld = field_make(11, 1)
    rng = np.random.default_rng(3)
    for trial in range(10):
        M = rng.integers(0, 11, size=(4, 4)).astype(np.int64)
        if fld.rank(M) < 4:
            continue
        Minv = fld.inv_matrix(M)
        assert np.array_equal(fld.matmul(M, Minv), fld.eye(4))


def test_extension_matmul_against_polynomial_oracle():
    # multiply in F_25 via explicit polynomial arithmetic and compare
    fld = field_make(5, 2)
    a, b = 13, 22  # 3 + 2x and 2 + 4x
    # (3+2x)(2+4x) = 6 + 16x + 8x^2; x^2 = -2 -> 6 - 16 + 16x = -10 + 16x
    expect = ((6 - 16) % 5) + ((16 % 5) * 5)
    assert int(fld.mul(np.int64(a), np.int64(b))) == expect


@pytest.mark.parametrize("ell,d", [(7, 1), (2, 3), (3, 2), (5, 2)])
def test_stacked_matmul_matches_per_matrix_products(ell, d):
    fld = field_make(ell, d)
    rng = np.random.default_rng(ell * 10 + d)
    A = rng.integers(0, fld.q, size=(4, 3, 2)).astype(np.int64)
    B = rng.integers(0, fld.q, size=(5, 2, 3)).astype(np.int64)
    # (element, generator) pairs, as the closure multiplies a frontier
    pairs = fld.matmul(A[:, None], B[None])
    assert pairs.shape == (4, 5, 3, 3)
    for i in range(4):
        for j in range(5):
            assert np.array_equal(pairs[i, j], fld.matmul(A[i], B[j]))
    # one stack against one matrix, on either side
    C = B[0]
    assert np.array_equal(fld.matmul(A, C), np.stack([fld.matmul(a, C) for a in A]))
    D = A[0]
    assert np.array_equal(fld.matmul(B, D), np.stack([fld.matmul(b, D) for b in B]))


@pytest.mark.parametrize("ell,d", [(7, 1), (3, 2), (2, 3)])
def test_add_and_sub_broadcast_a_stack_against_one_matrix(ell, d):
    # over GF(ell^d), d > 1, a (k, n, n) stack against an (n, n) matrix
    # used to fail: the digit planes misaligned the leading axes
    fld = field_make(ell, d)
    rng = np.random.default_rng(ell * 10 + d)
    A = rng.integers(0, fld.q, size=(4, 3, 3)).astype(np.int64)
    B = rng.integers(0, fld.q, size=(3, 3)).astype(np.int64)
    for op in (fld.add, fld.sub):
        assert np.array_equal(op(A, B), np.stack([op(a, B) for a in A]))
        assert np.array_equal(op(B, A), np.stack([op(B, a) for a in A]))


def test_kron_mixed_product():
    fld = field_make(7, 1)
    rng = np.random.default_rng(5)
    A, B, C, D = (rng.integers(0, 7, size=(2, 2)).astype(np.int64) for _ in range(4))
    left = fld.matmul(fld.kron(A, B), fld.kron(C, D))
    right = fld.kron(fld.matmul(A, C), fld.matmul(B, D))
    assert np.array_equal(left, right)


@pytest.mark.parametrize("ell,d", [(7, 1), (5, 2), (2, 3)])
def test_stacked_kron_matches_per_pair_products(ell, d):
    fld = field_make(ell, d)
    rng = np.random.default_rng(ell * 10 + d)
    A = rng.integers(0, fld.q, size=(4, 2, 3)).astype(np.int64)
    B = rng.integers(0, fld.q, size=(4, 3, 2)).astype(np.int64)
    # entry (i p + r, j q + s) of A kron B is a_ij b_rs
    for a, b in zip(A, B):
        want = np.array([[int(fld.mul(a[i, j], b[r, s])) for j in range(3) for s in range(2)]
                         for i in range(2) for r in range(3)], dtype=np.int64)
        assert np.array_equal(fld.kron(a, b), want)
    stacked = fld.kron(A, B)
    assert stacked.shape == (4, 6, 6)
    assert all(np.array_equal(k, fld.kron(a, b)) for k, a, b in zip(stacked, A, B))
    # pairs broadcast like matmul: every A against every B, one B against all A
    pairs = fld.kron(A[:, None], B[None])
    assert pairs.shape == (4, 4, 6, 6)
    assert all(np.array_equal(pairs[i, j], fld.kron(A[i], B[j]))
               for i in range(4) for j in range(4))
    assert np.array_equal(fld.kron(A, B[0]), np.stack([fld.kron(a, B[0]) for a in A]))


def test_least_primitive_and_dlog():
    f25 = field_make(5, 2)
    g = f25.least_primitive()
    assert g == 6
    assert f25.order_of(g) == 24
    for e in [0, 1, 7, 13, 23]:
        assert f25.dlog(f25.pow(g, e)) == e
    f7 = field_make(7, 1)
    assert f7.least_primitive() == 3


def test_order_of_divides_group_order():
    fld = field_make(7, 2)
    for x in range(1, fld.q):
        assert (fld.q - 1) % fld.order_of(x) == 0
