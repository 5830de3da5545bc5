"""Field arithmetic, canonical moduli, exact linear algebra, and discrete
logs over GF(ell^d)."""

import numpy as np
import pytest

from envlab.errors import NotPrime
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


def test_canonical_moduli():
    # least monic irreducibles under the integer encoding of coefficients
    assert field_make(5, 2).modulus == (2, 0, 1)      # x^2 + 2
    assert field_make(5, 3).modulus == (1, 1, 0, 1)   # x^3 + x + 1
    assert field_make(2, 2).modulus == (1, 1, 1)      # x^2 + x + 1
    assert field_make(3, 2).modulus == (1, 0, 1)      # x^2 + 1


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


def test_kron_mixed_product():
    fld = field_make(7, 1)
    rng = np.random.default_rng(5)
    A, B, C, D = (rng.integers(0, 7, size=(2, 2)).astype(np.int64) for _ in range(4))
    left = fld.matmul(fld.kron(A, B), fld.kron(C, D))
    right = fld.kron(fld.matmul(A, C), fld.matmul(B, D))
    assert np.array_equal(left, right)


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
