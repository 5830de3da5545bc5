"""Tame characters, digit expansions, level changes, and weight multisets."""

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import envlab.fieldcore
from envlab.errors import (NotCompatible, NotDivisor, OrderDivisibleByEll,
                           OutOfRange, ValidationError)
from envlab.fieldcore import Mat, ModuleRep, composition_factors, matrix_minpoly
from envlab.gf import field_make
from envlab.tame import (TameCharacter, TameWeights, _factor_exponent, bounded_weights_check,
                         digits_to_exponent, ell_restricted_digits,
                         level_lower, level_raise, tame_weights_of_rep,
                         unramified_check, view_over_prime_field)


def scalar_rep(ell, value, dim=1):
    fld = field_make(ell, 1)
    return Mat(fld, (np.eye(dim, dtype=np.int64) * value) % ell)


def order_two_char_matrix():
    """Companion matrix over F_5 whose eigen-character is theta_2^13."""
    f5 = field_make(5, 1)
    f25 = field_make(5, 2)
    a = f25.pow(f25.least_primitive(), 13)
    a5 = f25.pow(a, 5)
    tr = int(f25.add(np.int64(a), np.int64(a5)))
    nm = int(f25.mul(np.int64(a), np.int64(a5)))
    return Mat(f5, np.array([[0, (-nm) % 5], [1, tr % 5]], dtype=np.int64))


def test_character_validation():
    with pytest.raises(OutOfRange):
        TameCharacter(5, 2, 24)  # 24 = ell^d - 1 is out of range
    with pytest.raises(OutOfRange):
        TameCharacter(5, 1, -1)
    TameCharacter(5, 2, 23)


def test_digit_examples():
    assert ell_restricted_digits(TameCharacter(5, 2, 13)) == [3, 2]
    assert ell_restricted_digits(TameCharacter(5, 2, 0)) == [0, 0]
    assert ell_restricted_digits(TameCharacter(7, 3, 0)) == [0, 0, 0]


def test_digit_bijection_exhaustive():
    for ell, d in [(5, 1), (5, 2), (5, 3), (7, 2)]:
        seen = set()
        for e in range(ell ** d - 1):
            digits = tuple(ell_restricted_digits(TameCharacter(ell, d, e)))
            assert digits_to_exponent(ell, digits) == e
            assert digits != (ell - 1,) * d
            seen.add(digits)
        assert len(seen) == ell ** d - 1


def test_level_raise_lower_round_trip():
    for ell in (5, 7):
        for d in (1, 2):
            for dd in (1, 2):
                big = d * dd
                for e in range(ell ** d - 1):
                    chi = TameCharacter(ell, d, e)
                    up = level_raise(chi, big)
                    assert level_lower(up, d) == chi


def test_level_lower_errors():
    with pytest.raises(NotDivisor):
        level_lower(TameCharacter(5, 2, 6), 3)
    with pytest.raises(NotCompatible):
        level_lower(TameCharacter(5, 2, 1), 1)
    # d = level is the identity
    chi = TameCharacter(5, 2, 7)
    assert level_lower(chi, 2) == chi


def test_norm_relation_example():
    assert level_raise(TameCharacter(5, 1, 1), 2).exponent == 6
    assert level_lower(TameCharacter(5, 2, 6), 1).exponent == 1


def test_cyclotomic_anchor():
    f5 = field_make(5, 1)
    g = scalar_rep(5, f5.least_primitive())
    assert tame_weights_of_rep(g).digits == (1,)


def test_trivial_rep_weights():
    assert tame_weights_of_rep(scalar_rep(5, 1, dim=3)).digits == (0, 0, 0)


def test_level_two_character_weights():
    m = order_two_char_matrix()
    assert tame_weights_of_rep(m).digits == (2, 3)


def test_direct_sum_union():
    f5 = field_make(5, 1)
    m = order_two_char_matrix()
    g = scalar_rep(5, f5.least_primitive())
    rep = ModuleRep(f5, (m.array,)).direct_sum(ModuleRep(f5, (g.array,)))
    assert tame_weights_of_rep(rep).digits == (1, 2, 3)


def test_frobenius_power_invariance():
    m = order_two_char_matrix()
    m5 = Mat(m.field, np.linalg.matrix_power(m.array, 5) % 5)
    assert tame_weights_of_rep(m).digits == tame_weights_of_rep(m5).digits


def test_wild_part_rejected():
    f5 = field_make(5, 1)
    with pytest.raises(OrderDivisibleByEll):
        tame_weights_of_rep(Mat(f5, np.array([[1, 1], [0, 1]], dtype=np.int64)))


def test_extension_field_viewing():
    f25 = field_make(5, 2)
    h = Mat(f25, np.array([[f25.least_primitive()]], dtype=np.int64))
    prim = view_over_prime_field(h)
    assert prim.dim == 2 and prim.field.d == 1
    # theta_2^1 contributes the digits of 1 at level 2
    assert tame_weights_of_rep(h).digits == (0, 1)


def reference_view_over_prime_field(g):
    """view_over_prime_field as first written: n^2 d scalar products, each
    split into its base-ell digits one at a time."""
    fld = g.field
    n, d = g.n, fld.d
    big = np.zeros((n * d, n * d), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for c in range(d):
                e = int(fld.mul(np.int64(int(g.array[i, j])), np.int64(fld.ell ** c)))
                for r in range(d):
                    big[i * d + r, j * d + c] = e % fld.ell
                    e //= fld.ell
    return big


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]), st.integers(1, 3), st.data())
def test_view_over_prime_field_matches_scalar_loop(field, n, data):
    fld = field_make(*field)
    flat = data.draw(st.lists(st.integers(0, fld.q - 1), min_size=n * n, max_size=n * n))
    g = Mat(fld, np.reshape(flat, (n, n)))
    prim = view_over_prime_field(g)
    assert prim.field == field_make(fld.ell, 1)
    assert np.array_equal(prim.action[0], reference_view_over_prime_field(g))


def reference_tame_weights(rho, twist=0):
    """The weights by the route first written: the composition factors of
    the representation viewed over F_ell, each counted with its
    multiplicity and read through the minimal polynomial of its
    generator."""
    prim = view_over_prime_field(rho)
    ell, digits = prim.field.ell, []
    for factor, mult in composition_factors(prim):
        e, c = _factor_exponent(ell, matrix_minpoly(prim.field, factor.action[0]))
        c = (c + twist * (ell ** e - 1) // (ell - 1)) % (ell ** e - 1)
        digits += ell_restricted_digits(TameCharacter(ell, e, c)) * mult
    return TameWeights(ell, tuple(digits))


def without_search(rho, twist):
    """tame_weights_of_rep with the MeatAxe search made to fail."""
    searched = AssertionError("tame_weights_of_rep ran a MeatAxe search")
    with mock.patch.object(envlab.fieldcore, "_meataxe_search", side_effect=searched):
        return tame_weights_of_rep(rho, twist=twist)


@functools.cache
def irreducible_polynomials(ell, e):
    """The monic irreducible polynomials of degree e <= 3 over F_ell other
    than x, coefficients low to high: the ones with no root."""
    def has_root(c):
        return any(sum(a * x ** j for j, a in enumerate(c + (1,))) % ell == 0
                   for x in range(ell))
    return [list(c) + [1] for c in itertools.product(range(ell), repeat=e)
            if c[0] and (e == 1 or not has_root(c))]


def random_invertible(fld, n, draw):
    """L U for a unit lower triangular L and an upper triangular U with a
    nonzero diagonal."""
    L, U = fld.eye(n), fld.zeros(n, n)
    L[np.tril_indices(n, -1)] = draw(st.lists(st.integers(0, fld.q - 1),
                                              min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    U[np.triu_indices(n)] = draw(st.lists(st.integers(0, fld.q - 1),
                                          min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    U[np.diag_indices(n)] = draw(st.lists(st.integers(1, fld.q - 1), min_size=n, max_size=n))
    return fld.matmul(L, U)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 3), st.data())
def test_weights_from_the_minimal_polynomial_match_the_composition_factors(ell, twist, data):
    # a block diagonal of companion matrices of 1-4 irreducible factors of
    # levels 1-3, repeats allowed, conjugated by a random invertible P
    fld = field_make(ell, 1)
    blocks = data.draw(st.lists(st.integers(1, 3).flatmap(
        lambda e: st.sampled_from(irreducible_polynomials(ell, e))), min_size=1, max_size=4))
    n = sum(len(f) - 1 for f in blocks)
    g, at = fld.zeros(n, n), 0
    for f in blocks:
        e = len(f) - 1
        g[at + 1:at + e, at:at + e - 1] = np.eye(e - 1, dtype=np.int64)
        g[at:at + e, at + e - 1] = fld.neg(np.array(f[:-1]))
        at += e
    P = random_invertible(fld, n, data.draw)
    g = Mat(fld, fld.matmul(fld.matmul(P, g), fld.inv_matrix(P)))
    got = without_search(g, twist)
    assert got == reference_tame_weights(g, twist)
    assert len(got.digits) == n


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]), st.integers(1, 3),
       st.integers(0, 2), st.data())
def test_weights_over_an_extension_field_match_the_composition_factors(field, n, twist, data):
    # a random matrix over GF(ell^d), invertible and semisimple, viewed
    # over F_ell, where its factors may have any level up to n d
    fld = field_make(*field)
    flat = data.draw(st.lists(st.integers(0, fld.q - 1), min_size=n * n, max_size=n * n))
    g = Mat(fld, np.reshape(flat, (n, n)))
    try:
        got = without_search(g, twist)
    except (ValidationError, OrderDivisibleByEll):
        assume(False)
    assert got == reference_tame_weights(g, twist)


def test_twist_and_bound():
    m = order_two_char_matrix()
    assert bounded_weights_check(m, 0, 3)
    assert not bounded_weights_check(m, 0, 2)
    triv = scalar_rep(5, 1)
    assert bounded_weights_check(triv, 0, 0)
    assert tame_weights_of_rep(triv, twist=2).digits == (2,)
    f5 = field_make(5, 1)
    cyc = scalar_rep(5, f5.least_primitive())
    assert not bounded_weights_check(cyc, 0, 0)
    with pytest.raises(OutOfRange):
        bounded_weights_check(triv, -1, 0)


def test_weights_union_and_validation():
    a = TameWeights(5, (1, 3))
    b = TameWeights(5, (0,))
    assert a.union(b).digits == (0, 1, 3)
    with pytest.raises(OutOfRange):
        TameWeights(5, (5,))


def test_unramified_predicate():
    f5 = field_make(5, 1)
    eye = Mat(f5, np.eye(2, dtype=np.int64))
    assert unramified_check([eye, eye])
    assert not unramified_check([eye, scalar_rep(5, 2, dim=2)])
