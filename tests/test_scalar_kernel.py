"""The scalar polynomial kernel and the MeatAxe's factor search against the
references they replaced: gf.poly_* against the numpy kernel of
tests/numpy_poly.py over prime and extension fields, GF.scalar_ops against
GF.add/mul/neg, composition factors with and without the old kernel
patched in (the same classes as the search-every-piece loop: the kernel
and the seed decide only how fast they are found), the distinct-degree
search (gf.poly_distinct_degree) against the MeatAxe's first DDF loop and
sympy's factorization, the irreducibility test against sympy on every
small monic polynomial, _irreducible_factor against sympy's
factorization, the root scan (fieldcore._roots), which gives x - (the
least root) with no draw, and the distinct-degree search and
Cantor-Zassenhaus where it does not run, and GF.dlog against the BSGS on
one-element numpy products.  sympy is a test-only dependency."""

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import numpy_poly
from corpus import dihedral_group, symmetric_group
from envlab import fieldcore, gf
from envlab.fieldcore import _irreducible_factor, composition_factors
from envlab.gf import field_make
from envlab.mackey import regular_rep
from linalg_oracles import reference_composition_factors, same_classes

FIELDS = [(2, 1), (7, 1), (13, 1), (2, 3), (3, 2), (5, 2)]  # GF(2, 7, 13, 8, 9, 25)
SETTINGS = settings(max_examples=60, deadline=None)
X = sympy.Symbol("x")


def raw_polys(q, max_len=7):
    """Coefficient lists as callers may pass them: empty, constant, or with
    zero leading coefficients."""
    return st.lists(st.integers(0, q - 1), max_size=max_len) | st.lists(
        st.integers(0, q - 1), min_size=1, max_size=3).map(lambda p: p + [0, 0])


def divisors(q, max_len=5):
    return st.lists(st.integers(0, q - 1), min_size=1, max_size=max_len).map(
        gf.poly_trim).filter(bool)


def as_ints(p):
    assert all(type(c) is int for c in p)
    return p


@pytest.mark.parametrize("ell,d", FIELDS)
@SETTINGS
@given(data=st.data())
def test_scalar_kernel_matches_numpy_kernel(ell, d, data):
    fld = field_make(ell, d)
    a, b = data.draw(raw_polys(fld.q)), data.draw(raw_polys(fld.q))
    f = data.draw(divisors(fld.q))
    add, mul, neg = fld.scalar_ops
    for x, y in zip(a, b):
        assert add(x, y) == int(fld.add(x, y))
        assert mul(x, y) == int(fld.mul(x, y))
        assert neg(x) == int(fld.neg(x))
    assert as_ints(gf.poly_trim(list(a))) == numpy_poly.poly_trim(list(a))
    assert as_ints(gf.poly_sub(fld, a, b)) == numpy_poly.poly_sub(fld, a, b)
    assert as_ints(gf.poly_mul(fld, a, b)) == numpy_poly.poly_mul(fld, a, b)
    q, r = gf.poly_divmod(fld, a, f)
    assert (as_ints(q), as_ints(r)) == numpy_poly.poly_divmod(fld, a, f)
    assert as_ints(gf.poly_gcd(fld, a, b)) == numpy_poly.poly_gcd(fld, a, b)
    e = data.draw(st.integers(0, 40))
    assert as_ints(gf.poly_powmod(fld, a, e, f)) == numpy_poly.poly_powmod(fld, a, e, f)
    if len(f) > 1:  # the distinct-degree stage as it was first written
        assert gf.poly_distinct_degree(fld, f) == numpy_poly.irreducible_factor(
            fld, f, None, lambda fld, g, k, rng: (k, as_ints(g)))


@pytest.mark.parametrize("ell,d", FIELDS)
def test_scalar_ops_match_the_array_operations_everywhere(ell, d):
    fld = field_make(ell, d)
    add, mul, neg = fld.scalar_ops
    a, b = np.arange(fld.q)[:, None], np.arange(fld.q)[None, :]
    pairs = [(x, y) for x in range(fld.q) for y in range(fld.q)]
    assert [add(x, y) for x, y in pairs] == fld.add(a, b).ravel().tolist()
    assert [mul(x, y) for x, y in pairs] == fld.mul(a, b).ravel().tolist()
    assert [neg(x) for x in range(fld.q)] == fld.neg(np.arange(fld.q)).tolist()
    assert fld.scalar_ops is fld.scalar_ops  # built once per field


@pytest.mark.parametrize("group,ell,d", [(symmetric_group(4, 13), 13, 1),
                                         (dihedral_group(5, 3), 3, 2)])
def test_composition_factors_draw_the_same_stream_as_the_numpy_kernel(
        group, ell, d, monkeypatch):
    # the old kernel scans no roots, so it draws another stream; both find
    # the classes of the search-every-piece loop, each factor certified
    fld = field_make(ell, d)
    want = reference_composition_factors(regular_rep(group, fld))
    new = composition_factors(regular_rep(group, fld))
    for name in numpy_poly.KERNEL:
        if hasattr(fieldcore, name):
            monkeypatch.setattr(fieldcore, name, getattr(numpy_poly, name))
    monkeypatch.setattr(fieldcore, "_irreducible_factor", lambda fld, p, rng: (
        numpy_poly.irreducible_factor(fld, p, rng, fieldcore._equal_degree_factor)))
    old = composition_factors(regular_rep(group, fld))
    assert same_classes(new, want) and same_classes(old, want)
    assert all(m._witness is not None for m, _ in new + old)
    assert len(new) > 1


def sym(ell, coeffs):
    return sympy.Poly(list(reversed(coeffs)), X, modulus=ell)


@pytest.mark.parametrize("ell", [2, 3, 7, 13])
@SETTINGS
@given(data=st.data())
def test_irreducible_factor_is_a_least_degree_factor(ell, data):
    fld = field_make(ell)
    deg = data.draw(st.integers(1, 8))
    p = data.draw(st.lists(st.integers(0, ell - 1), min_size=deg, max_size=deg)) + [1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
    f = _irreducible_factor(fld, p, rng)
    assert f[-1] == 1
    assert sym(ell, f).is_irreducible
    assert sym(ell, p).rem(sym(ell, f)).is_zero
    assert len(f) - 1 == min(g.degree() for g, _ in sym(ell, p).factor_list()[1])


def monic_polys(ell, top):
    """Every monic polynomial of degree 1 to top over F_ell, low to high."""
    return [[enc // ell ** j % ell for j in range(d)] + [1]
            for d in range(1, top + 1) for enc in range(ell ** d)]


@pytest.mark.parametrize("ell,top", [(2, 8), (3, 5), (5, 4), (7, 3)])
def test_is_irreducible_matches_sympy_on_every_small_monic(ell, top):
    # degree 1 included: every linear polynomial is irreducible
    for p in monic_polys(ell, top):
        assert gf._is_irreducible(p, ell) == sym(ell, p).is_irreducible, p


@pytest.mark.parametrize("ell", [2, 3, 7, 13])
@SETTINGS
@given(data=st.data())
def test_distinct_degree_is_the_least_degree_part_of_sympy_factor_list(ell, data):
    fld = field_make(ell)
    deg = data.draw(st.integers(1, 8))
    p = data.draw(st.lists(st.integers(0, ell - 1), min_size=deg, max_size=deg)) + [1]
    k, g = gf.poly_distinct_degree(fld, p)
    factors = [f for f, _ in sym(ell, p).factor_list()[1]]
    assert k == min(f.degree() for f in factors)
    want = sympy.prod([f for f in factors if f.degree() == k], start=sym(ell, [1]))
    assert sym(ell, as_ints(g)) == want.monic()


def numpy_dlog(fld, b, base):
    """GF.dlog as it was: BSGS on one-element numpy products."""
    n = fld.q - 1
    m = int(n ** 0.5) + 1
    table = {}
    e = 1
    for j in range(m):
        table.setdefault(e, j)
        e = int(fld.mul(np.int64(e), np.int64(base)))
    factor = fld.inv(fld.pow(base, m))
    gamma = int(b)
    for i in range(m + 1):
        if gamma in table:
            return (i * m + table[gamma]) % n
        gamma = int(fld.mul(np.int64(gamma), np.int64(factor)))
    return None


@pytest.mark.parametrize("ell,d", [(3, 2), (5, 2), (2, 8)])
def test_dlog_matches_numpy_products(ell, d):
    fld = field_make(ell, d)
    g = fld.least_primitive()
    # the least primitive element, a non-primitive base and -1
    for base in (g, fld.pow(g, 3), fld.ell - 1):
        for b in range(1, fld.q):
            want = numpy_dlog(fld, b, base)
            if want is None:
                with pytest.raises(ValueError):
                    fld.dlog(b, base)
            else:
                assert fld.dlog(b, base) == want
    assert [fld.dlog(b) for b in range(1, fld.q)] == [
        numpy_dlog(fld, b, g) for b in range(1, fld.q)]


def test_linear_factor_is_returned_at_once():
    fld = field_make(7)
    rng = np.random.default_rng(0)
    p = [3, 1]
    assert _irreducible_factor(fld, p, rng) is p
    assert rng.integers(0, 2 ** 32) == np.random.default_rng(0).integers(0, 2 ** 32)


# GF(2, 3, 5, 13, 4, 8, 9, 16, 25) scan for roots; F_4099 lies above
# ROOT_SCAN_MAX_Q and keeps the distinct-degree search
SCAN_FIELDS = [(2, 1), (3, 1), (5, 1), (13, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2)]


@pytest.mark.parametrize("ell,d", SCAN_FIELDS + [(4099, 1)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_root_scan_replays_the_equal_degree_search(ell, d, data):
    # a monic product of random linear factors, with or without an
    # irreducible quadratic cofactor.  Where the scan runs and p has a
    # root, _irreducible_factor returns x - (the least root) and draws
    # nothing; a p with no root, or a field above ROOT_SCAN_MAX_Q, gets the
    # factor of the distinct-degree search and Cantor-Zassenhaus, and the
    # generator is left where they leave it
    fld = field_make(ell, d)
    element = st.integers(0, fld.q - 1)
    p = [1]
    linear = data.draw(st.lists(element, min_size=0, max_size=8))
    for a in linear:
        p = gf.poly_mul(fld, p, [a, 1])
    if data.draw(st.booleans()) or len(p) < 3:
        quadratic = [data.draw(element), data.draw(element), 1]
        assume(gf.poly_distinct_degree(fld, quadratic)[0] == 2)
        p = gf.poly_mul(fld, p, quadratic)
    seed = data.draw(st.integers(0, 2 ** 32))
    scans, scan = [], fieldcore._roots
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fieldcore, "_roots", lambda *a: scans.append(1) or scan(*a))
        got = _irreducible_factor(fld, p, mine)
    scanned = fld.q <= fieldcore.ROOT_SCAN_MAX_Q
    if scanned and linear:
        least = min(int(fld.neg(a)) for a in linear)
        assert got == [int(fld.neg(least)), 1]
    else:
        k, g = gf.poly_distinct_degree(fld, p)
        assert got == fieldcore._equal_degree_factor(fld, g, k, theirs)
    assert mine.bit_generator.state == theirs.bit_generator.state
    assert len(scans) == scanned


def scalar_value(fld, p, a):
    add, mul, _ = fld.scalar_ops
    v = 0
    for c in reversed(p):
        v = add(mul(v, a), c)
    return v


@pytest.mark.parametrize("ell,d", SCAN_FIELDS)
def test_roots_are_the_zeros_of_the_scan(ell, d):
    # every root in ascending order, as scalar Horner finds them one at a time
    fld = field_make(ell, d)
    p = gf.poly_mul(fld, gf.poly_mul(fld, [fld.q - 1, 1], [1, 1]), [1, 0, 1])
    want = [a for a in range(fld.q) if scalar_value(fld, p, a) == 0]
    assert fieldcore._roots(fld, p).tolist() == want
    assert {int(fld.neg(fld.q - 1)), int(fld.neg(1))} <= set(want)
