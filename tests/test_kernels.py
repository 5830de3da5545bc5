"""The three shared kernels against independent oracles: the gf polynomial
kernel against sympy over prime fields and against its defining identities
over GF(9) and GF(25), the test oracle q_rref, the fraction-free adjugate
and the unimodularity test against sympy's exact matrices, the one-elimination spanning subset against the greedy
rank test it replaced, and the echelon-based vector minimal polynomial
against the rank of its Krylov matrix.  sympy is a test-only dependency."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from envlab.charlattice import _adjugate, _is_unimodular, _rank_q, _spanning_subset
from envlab.fieldcore import _vector_minpoly
from envlab.gf import (field_make, poly_divmod, poly_gcd, poly_mul, poly_powmod,
                       poly_sub, poly_trim)
from rational_oracles import q_rref

X = sympy.Symbol("x")
SETTINGS = settings(max_examples=60, deadline=None)


def polys(q, max_len=7, nonzero=False):
    coeffs = st.lists(st.integers(0, q - 1), min_size=1 if nonzero else 0,
                      max_size=max_len).map(poly_trim)
    return coeffs.filter(bool) if nonzero else coeffs


def sym(p, coeffs):
    return sympy.Poly(list(reversed(coeffs)) or [0], X, modulus=p)


@pytest.mark.parametrize("p", [5, 7])
@SETTINGS
@given(data=st.data())
def test_prime_field_kernel_matches_sympy(p, data):
    fld = field_make(p)
    a = data.draw(polys(p))
    b = data.draw(polys(p, nonzero=True))
    assert sym(p, poly_mul(fld, a, b)) == sym(p, a) * sym(p, b)
    q, r = poly_divmod(fld, a, b)
    sq, sr = sym(p, a).div(sym(p, b))
    assert (sym(p, q), sym(p, r)) == (sq, sr)
    g = poly_gcd(fld, a, b)
    assert g[-1] == 1 and sym(p, g) == sympy.gcd(sym(p, a), sym(p, b))
    e = data.draw(st.integers(0, 40))
    assert sym(p, poly_powmod(fld, a, e, b)) == (sym(p, a) ** e).rem(sym(p, b))


@pytest.mark.parametrize("ell,d", [(3, 2), (5, 2)])
@SETTINGS
@given(data=st.data())
def test_extension_field_kernel_identities(ell, d, data):
    fld = field_make(ell, d)
    a = data.draw(polys(fld.q))
    b = data.draw(polys(fld.q, nonzero=True))
    q, r = poly_divmod(fld, a, b)
    assert len(r) < len(b)
    assert poly_sub(fld, a, poly_mul(fld, q, b)) == r
    g = poly_gcd(fld, a, b)
    assert g[-1] == 1
    assert poly_divmod(fld, a, g)[1] == [] and poly_divmod(fld, b, g)[1] == []
    e = data.draw(st.integers(0, 12))
    acc = poly_divmod(fld, [1], b)[1]
    for _ in range(e):
        acc = poly_divmod(fld, poly_mul(fld, acc, a), b)[1]
    assert poly_powmod(fld, a, e, b) == acc


small_ints = st.integers(-4, 4)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda m: st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n),
                       min_size=m, max_size=m))))
def test_q_rref_matches_sympy(rows):
    R, pivots = q_rref(rows)
    SR, spivots = sympy.Matrix(rows).rref()
    assert pivots == list(spivots)
    assert [list(r) for r in R] == [list(SR.row(i)) for i in range(len(pivots))]


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_unimodular_iff_determinant_is_a_unit(T):
    assert _is_unimodular(T) == (abs(sympy.Matrix(T).det()) == 1)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_adjugate_is_the_scaled_inverse(M):
    d, B = _adjugate(M)
    det = sympy.Matrix(M).det()
    assert abs(d) == abs(det)
    if det:
        assert sympy.Matrix(B) == d * sympy.Matrix(M).inv()
    else:
        assert B is None


def _greedy_spanning_subset(weights, s):
    chosen, rows = [], []
    for i, w in enumerate(weights):
        if _rank_q(rows + [w]) == len(rows) + 1:
            chosen.append(i)
            rows.append(w)
            if len(rows) == s:
                return chosen
    return None


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.integers(1, r),
    st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r), max_size=7))))
def test_spanning_subset_matches_greedy_rank_test(case):
    s, weights = case
    assert _spanning_subset(weights, s) == _greedy_spanning_subset(weights, s)


@pytest.mark.parametrize("ell,d", [(7, 1), (3, 2)])
@SETTINGS
@given(data=st.data())
def test_vector_minpoly_against_krylov_rank(ell, d, data):
    fld = field_make(ell, d)
    n = data.draw(st.integers(1, 5))
    entries = st.integers(0, fld.q - 1)
    A = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n)),
                 dtype=np.int64).reshape(n, n)
    v = np.array(data.draw(st.lists(entries, min_size=n, max_size=n).filter(any)),
                 dtype=np.int64)
    p = _vector_minpoly(fld, A, v)
    assert p[-1] == 1
    krylov, acc, pv = [], v, np.zeros(n, dtype=np.int64)
    for k in range(n + 1):
        krylov.append(acc)
        if k < len(p):
            pv = fld.add(pv, fld.mul(p[k], acc))
        acc = fld.matmul(A, acc[:, None])[:, 0]
    assert not pv.any()
    assert len(p) - 1 == fld.rank(np.array(krylov).T)
