"""Characters of the tame inertia quotient and their weight data: the
fundamental character of each level, ell-restricted digit expansions,
level raising and lowering along the norm relation, and the weight
multiset of a mod-ell representation of a procyclic group given by one
semisimple matrix.

No local fields appear; the inertia group is modeled abstractly by the
image of a topological generator, which is all the weight multiset
depends on.  The irreducible factors of that matrix are those of its
minimal polynomial (fieldcore._factors), each counted by the nullity of
its value at the matrix, with no MeatAxe search.  A factor's roots are
found by fieldcore._roots, the MeatAxe's root scan: one elementwise
Horner on the vector of all elements of F_{ell^e}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NotCompatible, NotDivisor,
                     OrderDivisibleByEll, OutOfRange, ValidationError)
from .fieldcore import (DEFAULT_SEED, Mat, ModuleRep, _eval_poly_at_matrix, _factors,
                        _roots, matrix_minpoly)
from .gf import field_make, is_prime, poly_gcd, poly_trim


@dataclass(frozen=True)
class TameCharacter:
    """The character theta_level ^ exponent, with 0 <= exponent <= ell^level - 2."""

    ell: int
    level: int
    exponent: int

    def __post_init__(self):
        if not is_prime(self.ell):
            raise ValidationError(f"{self.ell} is not prime")
        if self.level < 1:
            raise ValidationError("level must be positive")
        top = self.ell ** self.level - 1
        if not 0 <= self.exponent <= top - 1:
            raise OutOfRange(
                f"exponent must lie in [0, {top - 1}], got {self.exponent}")


@dataclass(frozen=True)
class TameWeights:
    """Multiset of digits in [0, ell - 1], stored sorted."""

    ell: int
    digits: tuple

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(sorted(int(x) for x in self.digits)))
        for m in self.digits:
            if not 0 <= m <= self.ell - 1:
                raise OutOfRange(f"digit {m} outside [0, {self.ell - 1}]")

    def union(self, other: "TameWeights") -> "TameWeights":
        if self.ell != other.ell:
            raise NotCompatible("weight multisets over different primes")
        return TameWeights(self.ell, self.digits + other.digits)

    def bounded_by(self, n2: int) -> bool:
        return all(m <= n2 for m in self.digits)


def ell_restricted_digits(chi: TameCharacter):
    """Digits [m_0 .. m_{d-1}] with exponent = sum m_j ell^j.  The exponent
    range [0, ell^d - 2] forbids the all-(ell - 1) string, so the expansion
    is plain base-ell and unique."""
    e = chi.exponent
    out = []
    for _ in range(chi.level):
        out.append(e % chi.ell)
        e //= chi.ell
    return out


def digits_to_exponent(ell: int, digits) -> int:
    return sum(m * ell ** j for j, m in enumerate(digits))


def level_raise(chi: TameCharacter, new_level: int) -> TameCharacter:
    """theta_d = theta_D ^ ((ell^D - 1)/(ell^d - 1)) for d | D."""
    if new_level % chi.level != 0:
        raise NotDivisor(f"{chi.level} does not divide {new_level}")
    factor = (chi.ell ** new_level - 1) // (chi.ell ** chi.level - 1)
    return TameCharacter(chi.ell, new_level, chi.exponent * factor)


def level_lower(chi: TameCharacter, d: int) -> TameCharacter:
    """Inverse of level_raise when it exists; NotCompatible otherwise."""
    if chi.level % d != 0:
        raise NotDivisor(f"{d} does not divide {chi.level}")
    factor = (chi.ell ** chi.level - 1) // (chi.ell ** d - 1)
    if chi.exponent % factor != 0:
        raise NotCompatible(
            f"exponent {chi.exponent} is not a multiple of {factor}")
    return TameCharacter(chi.ell, d, chi.exponent // factor)


def _as_single_matrix(rho):
    """(field, array) of a Mat or of a one-generator ModuleRep."""
    if isinstance(rho, Mat):
        return rho.field, rho.array
    if isinstance(rho, ModuleRep):
        if len(rho.action) != 1:
            raise DimensionMismatch("expected a representation of one generator")
        return rho.field, rho.action[0]
    raise ValidationError("expected a Mat or one-generator ModuleRep")


def view_over_prime_field(rho) -> ModuleRep:
    """An n-dim representation over F_{ell^d} as an nd-dim one over F_ell,
    each entry replaced by its multiplication matrix in the power basis."""
    fld, g = _as_single_matrix(rho)
    if fld.d == 1:
        return ModuleRep(fld, g[None])
    sub = field_make(fld.ell, 1)
    n, d, ell = len(g), fld.d, fld.ell
    # [i, j, c, r]: digit r of entry (i, j) times x^c, every entry at once
    powers = ell ** np.arange(d, dtype=np.int64)
    prods = fld.mul(g[:, :, None], powers)
    digits = prods[..., None] // powers % ell
    return ModuleRep(sub, digits.transpose(0, 3, 1, 2).reshape(1, n * d, n * d))


def _is_squarefree(fld, poly):
    der = fld.mul(np.arange(len(poly)) % fld.ell, np.array(poly, dtype=np.int64))
    der = poly_trim(der.tolist()[1:])
    return bool(der) and len(poly_gcd(fld, poly, der)) == 1


def _factor_exponent(ell, poly):
    """For an irreducible degree-e polynomial over F_ell, the discrete log
    of its least root in the canonical F_{ell^e} against the least
    primitive element (0 is no root: the polynomial is irreducible and,
    being the minimal polynomial of an invertible matrix, not x)."""
    e = len(poly) - 1
    ext = field_make(ell, e)
    return e, ext.dlog(int(_roots(ext, poly)[0]))


def tame_weights_of_rep(rho, twist: int = 0) -> TameWeights:
    """Weight multiset of the representation sending a fixed topological
    generator to the given matrix, twisted by the twist-th power of the
    level-one fundamental character.

    Each e-dimensional irreducible factor is a level-e character together
    with its ell-power conjugates and contributes the e base-ell digits of
    its exponent.  Representations over an extension field are first
    viewed over F_ell.  The generator g is semisimple, so the factors are
    the irreducible factors f of its minimal polynomial (fieldcore._factors),
    f occurring nullity f(g) / deg f times: no module is decomposed.
    """
    prim = view_over_prime_field(rho)
    fld = prim.field
    g = prim.action[0]
    if fld.rank(g) < len(g):
        raise ValidationError("generator image must be invertible")
    mp = matrix_minpoly(fld, g)
    if not _is_squarefree(fld, mp):
        raise OrderDivisibleByEll(
            "generator is not semisimple; its order is divisible by ell")
    digits = []
    for f in _factors(fld, mp, DEFAULT_SEED):
        e, c = _factor_exponent(fld.ell, f)
        mult = (len(g) - fld.rank(_eval_poly_at_matrix(fld, f, g))) // e
        if twist:
            shift = twist * (fld.ell ** e - 1) // (fld.ell - 1)
            c = (c + shift) % (fld.ell ** e - 1)
        chi = TameCharacter(fld.ell, e, c)
        digits.extend(ell_restricted_digits(chi) * mult)
    return TameWeights(fld.ell, tuple(digits))


def bounded_weights_check(rho, n1: int, n2: int) -> bool:
    """Whether every tame inertia weight of the twist by the n1-th power
    of the level-one fundamental character lies in [0, n2]."""
    if n1 < 0 or n2 < 0:
        raise OutOfRange("n1 and n2 must be non-negative")
    return tame_weights_of_rep(rho, twist=n1).bounded_by(n2)


def unramified_check(matrices) -> bool:
    """Potential semistability in the unramified model: inertia acts
    trivially, i.e. every supplied matrix is the identity."""
    return all(m.is_identity() for m in matrices)
