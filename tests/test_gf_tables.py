"""GF(ell^d), d > 1, multiplies through exp/log tables and adds digit by
digit, as XOR over ell = 2 and as packed base-ell digits otherwise; its
python scalar and row operations add through Zech logarithms.  These tests
hold all of it to the digit-plane kernel it replaced (tests/digit_planes.py):
exhaustive operation tables for every such field with q <= 27, hypothesis
over broadcast stacks and scalars for eight fields up to GF(2^8), stacks
and products whose sums pack again past kmax terms over GF(3^10) and
GF(251^2), long XOR sums over GF(2^16), and a sampled check of GF(2^16),
the largest field the tables serve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from digit_planes import DigitPlaneField
from envlab.errors import ValidationError
from envlab.gf import GF, field_make, prime_factors

SMALL_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]  # every d > 1, q <= 27
FIELDS = [(2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 3), (5, 2), (7, 2)]
# GF(3^10) packs its digits in 6-bit fields, 31 terms at most, and GF(251^2)
# in 10-bit fields, 4 terms at most, so longer sums decode and pack again
LARGE_FIELDS = [(3, 10), (251, 2)]
# (ell, d, least and greatest inner dimension) of matrix products: up to 4
# over FIELDS, then sums past kmax, XOR sums of 16-24 terms over GF(2^16),
# and an empty inner dimension
MATMULS = [pytest.param(ell, d, 0, 4, id=f"{ell}-{d}") for ell, d in FIELDS] + [
    (3, 10, 32, 40), (251, 2, 1, 13), (2, 16, 16, 24), (5, 2, 0, 0)]
SETTINGS = settings(max_examples=40, deadline=None)


def fields(ell, d):
    fld = field_make(ell, d)
    return fld, DigitPlaneField(fld)


def assert_canonical(fld, a):
    a = np.asarray(a)
    assert a.dtype == np.int64
    assert ((0 <= a) & (a < fld.q)).all()


def entries(fld):
    """Encodings, weighted towards 0, 1, -1 and q - 1: 0 has its log past
    the end of the exp table, -1 is where a Zech logarithm is undefined,
    and q - 1 has every digit ell - 1, the largest a packed sum adds."""
    return st.one_of(st.sampled_from([0, 1, fld.ell - 1, fld.q - 1]),
                     st.integers(0, fld.q - 1))


def stacks(fld, shape):
    return hnp.arrays(np.int64, shape, elements=entries(fld))


def dims(lo=1, hi=3):
    return st.integers(lo, hi)


@pytest.mark.parametrize("ell,d", SMALL_FIELDS)
def test_exhaustive_tables_match_digit_planes(ell, d):
    fld, ref = fields(ell, d)
    a, b = np.arange(fld.q)[:, None], np.arange(fld.q)[None, :]
    for name in ("add", "sub", "mul"):
        got = getattr(fld, name)(a, b)
        assert_canonical(fld, got)
        assert np.array_equal(got, getattr(ref, name)(a, b)), name
    assert np.array_equal(fld.neg(a), ref.neg(a))
    assert [fld.inv(x) for x in range(1, fld.q)] == [ref.inv(x) for x in range(1, fld.q)]


@pytest.mark.parametrize("ell,d", FIELDS)
def test_least_primitive_is_the_least_element_of_full_order(ell, d):
    fld, ref = fields(ell, d)
    g = fld.least_primitive()
    assert ref.order_of(g) == fld.q - 1
    assert all(ref.order_of(x) < fld.q - 1 for x in range(1, g))


@pytest.mark.parametrize("ell,d", FIELDS + LARGE_FIELDS)
@SETTINGS
@given(data=st.data())
def test_elementwise_stacks_match_digit_planes(ell, d, data):
    fld, ref = fields(ell, d)
    shape = (data.draw(dims(0)), data.draw(dims()), data.draw(dims()))
    A = data.draw(stacks(fld, shape))
    # a stack against a stack, one matrix or one scalar, on either side
    B = data.draw(st.one_of(stacks(fld, shape), stacks(fld, shape[1:]), entries(fld)))
    for name in ("add", "sub", "mul"):
        for x, y in ((A, B), (B, A)):
            got = getattr(fld, name)(x, y)
            assert_canonical(fld, got)
            assert np.array_equal(got, getattr(ref, name)(x, y)), name
    assert np.array_equal(fld.neg(A), ref.neg(A))
    assert not fld.add(A, ref.neg(A)).any()
    assert not fld.sub(A, A).any()


@pytest.mark.parametrize("ell,d,lo,hi", MATMULS)
@SETTINGS
@given(data=st.data())
def test_matmul_and_kron_stacks_match_digit_planes(ell, d, lo, hi, data):
    fld, ref = fields(ell, d)
    k, m, t, n = data.draw(dims(0)), data.draw(dims()), data.draw(dims(lo, hi)), data.draw(dims())
    A = data.draw(stacks(fld, (k, m, t)))
    B = data.draw(st.one_of(stacks(fld, (k, t, n)), stacks(fld, (t, n))))
    got = fld.matmul(A, B)
    assert_canonical(fld, got)
    assert np.array_equal(got, ref.matmul(A, B))
    # every product q - 1, so every digit sums to t (ell - 1), the most it can
    ones, top = np.ones((m, t), np.int64), np.full((t, n), fld.q - 1)
    assert np.array_equal(fld.matmul(ones, top), ref.matmul(ones, top))
    C = data.draw(stacks(fld, (data.draw(dims()), t, n)))
    assert np.array_equal(fld.matmul(A[:, None], C[None]), ref.matmul(A[:, None], C[None]))
    got = fld.kron(A, B)
    assert_canonical(fld, got)
    assert np.array_equal(got, ref.kron(A, B))


@pytest.mark.parametrize("ell,d", FIELDS)
@SETTINGS
@given(data=st.data())
def test_rref_and_inverse_match_digit_planes(ell, d, data):
    fld, ref = fields(ell, d)
    M = data.draw(stacks(fld, (data.draw(dims(0, 4)), data.draw(dims(0, 5)))))
    if len(M) >= 2:  # a dependent row
        c = data.draw(entries(fld))
        M = np.concatenate([M, ref.add(ref.mul(c, M[0]), M[1])[None]])
    R, pivots = fld.rref(M)
    want_R, want_pivots = ref.rref(M)
    assert_canonical(fld, R)
    assert pivots == want_pivots and np.array_equal(R, want_R)
    S = data.draw(stacks(fld, (data.draw(dims(1, 4)),) * 2))
    try:
        want = ref.inv_matrix(S)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fld.inv_matrix(S)
    else:
        got = fld.inv_matrix(S)
        assert_canonical(fld, got)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("ell,d", FIELDS)
@SETTINGS
@given(data=st.data())
def test_scalar_powers_and_logs_match_digit_planes(ell, d, data):
    fld, ref = fields(ell, d)
    a = data.draw(entries(fld))
    e = data.draw(st.integers(-2 * fld.q, 3 * fld.q))
    assert fld.pow(a, e) == ref.pow(a, e)
    assert 0 <= fld.pow(a, e) < fld.q
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            fld.inv(a)
        return
    assert fld.inv(a) == ref.inv(a)
    assert fld.order_of(a) == ref.order_of(a)
    b = data.draw(st.integers(1, fld.q - 1))
    try:
        want = ref.dlog(b, a)
    except ValueError:
        with pytest.raises(ValueError):
            fld.dlog(b, a)
    else:
        assert fld.dlog(b, a) == want
    assert fld.dlog(b) == ref.dlog(b, fld.least_primitive())


def test_largest_tabled_field_builds_and_multiplies():
    fld = GF(2, 16)
    ref = DigitPlaneField(fld)
    rng = np.random.default_rng(16)
    a, b = rng.integers(0, fld.q, size=(2, 3000))
    a[::7] = 0
    for name in ("add", "sub", "mul"):
        got = getattr(fld, name)(a, b)
        assert_canonical(fld, got)
        assert np.array_equal(got, getattr(ref, name)(a, b)), name
    A, B = rng.integers(0, fld.q, size=(2, 5, 4, 4))
    assert np.array_equal(fld.matmul(A, B), ref.matmul(A, B))
    nonzero = a[a != 0]
    assert (fld.mul(nonzero, [fld.inv(x) for x in nonzero]) == 1).all()
    g, n = fld.least_primitive(), fld.q - 1
    assert all(ref.pow(g, n // p) != 1 for p in prime_factors(n))


def test_fields_above_the_table_bound_are_rejected():
    for ell, d in [(2, 17), (3, 11), (257, 2), (2, 31)]:
        with pytest.raises(ValidationError):
            GF(ell, d)
    with pytest.raises(ValidationError):
        GF(4, 9)  # 4^9 > 2^16: rejected before the primality test
    assert GF(65537).q == 65537  # prime fields keep the int64 bound only
