"""Exact arithmetic in GF(ell^d) with vectorized matrix algebra.

A field element is stored as a plain integer in [0, ell^d): its base-ell
digits are the coefficients of the element with respect to the power basis
of the canonical modulus.  Matrices and vectors are numpy int64 arrays of
such encodings.  Prime-field work (d = 1) is fully vectorized; extension
fields decompose into d digit planes, so a matrix product costs d^2
prime-field products plus one reduction step.

The canonical modulus of GF(ell^d) is the monic irreducible polynomial of
degree d whose coefficient vector (c_0, ..., c_{d-1}) has the least encoded
value sum(c_j * ell^j).  This makes every field object reproducible from
(ell, d) alone.

This module also holds envlab's one polynomial kernel, the poly_*
functions: dense polynomials over a GF instance, as lists of python-int
encodings, low to high.  The modulus search here runs it over F_ell; the
MeatAxe (fieldcore) and the tame layer import it.
"""

from __future__ import annotations

import functools
from math import prod

import numpy as np

from .errors import DegreeZero, NotPrime


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# -- the polynomial kernel: results are trimmed of zero leading coefficients --

def poly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def poly_sub(fld, a, b):
    n = max(len(a), len(b))
    pad = lambda p: np.array(list(p) + [0] * (n - len(p)), dtype=np.int64)
    return poly_trim(fld.sub(pad(a), pad(b)).tolist())


def poly_mul(fld, a, b):
    if not a or not b:
        return []
    c = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    bv = np.array(b, dtype=np.int64)
    for i, ai in enumerate(a):
        if ai:
            c[i:i + len(b)] = fld.add(c[i:i + len(b)], fld.mul(ai, bv))
    return poly_trim(c.tolist())


def poly_divmod(fld, a, b):
    """(q, r) with a = q b + r and deg r < deg b, for b trimmed and nonzero."""
    m = len(b) - 1
    r = np.array(a, dtype=np.int64)
    bv = np.array(b, dtype=np.int64)
    binv = fld.inv(int(b[-1]))
    quot = [0] * max(0, len(a) - m)
    for off in range(len(a) - 1 - m, -1, -1):
        coef = int(fld.mul(r[off + m], binv))
        if coef:
            quot[off] = coef
            r[off:off + m + 1] = fld.sub(r[off:off + m + 1], fld.mul(coef, bv))
    return poly_trim(quot), poly_trim(r[:m].tolist())


def poly_gcd(fld, a, b):
    """The monic gcd ([] when both are zero)."""
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        a, b = b, poly_divmod(fld, a, b)[1]
    if not a:
        return a
    return fld.mul(np.array(a, dtype=np.int64), fld.inv(int(a[-1]))).tolist()


def poly_powmod(fld, a, e, f):
    """a^e mod f."""
    r = poly_divmod(fld, [1], f)[1]
    a = poly_divmod(fld, a, f)[1]
    while e:
        if e & 1:
            r = poly_divmod(fld, poly_mul(fld, r, a), f)[1]
        a = poly_divmod(fld, poly_mul(fld, a, a), f)[1]
        e >>= 1
    return r


def poly_frobenius_gap(fld, k, f):
    """x^(q^k) - x mod f; f divides it iff every irreducible factor of f
    has degree dividing k."""
    return poly_sub(fld, poly_powmod(fld, [0, 1], fld.q ** k, f), [0, 1])


def _is_irreducible(f, ell):
    """Deterministic test: x^(ell^d) = x mod f and gcd checks at maximal subfields."""
    fp = field_make(ell)
    d = len(f) - 1
    if poly_frobenius_gap(fp, d, f):
        return False
    return all(len(poly_gcd(fp, f, poly_frobenius_gap(fp, d // p, f))) == 1
               for p in prime_factors(d))


def least_irreducible(ell: int, d: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree d over F_ell.

    Returned as the full coefficient tuple (c_0, ..., c_{d-1}, 1); ordering
    is by the encoded value sum(c_j ell^j) of the non-leading coefficients.
    """
    if d == 1:
        return (0, 1)
    for enc in range(ell ** d):
        coeffs = [(enc // ell ** j) % ell for j in range(d)] + [1]
        if _is_irreducible(coeffs, ell):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class GF:
    """The finite field GF(ell^d) with the canonical modulus.

    All array-valued methods accept and return numpy int64 arrays of
    encoded elements and broadcast like ordinary numpy arithmetic.
    """

    def __init__(self, ell: int, d: int = 1, modulus: tuple[int, ...] | None = None):
        if d < 1:
            raise DegreeZero(f"extension degree must be >= 1, got {d}")
        if not is_prime(ell):
            raise NotPrime(f"{ell} is not prime")
        self.ell = ell
        self.d = d
        self.q = ell ** d
        if modulus is None:
            modulus = least_irreducible(ell, d)
        else:
            modulus = tuple(int(c) % ell for c in modulus)
            if len(modulus) != d + 1 or modulus[-1] != 1:
                raise NotPrime(f"modulus must be monic of degree {d}")
            if not _is_irreducible(list(modulus), ell):
                raise NotPrime(f"modulus {modulus} is reducible over F_{ell}")
        self.modulus = modulus
        if d > 1:
            # x^u mod f for u = 0..2d-2, as a (2d-1) x d integer matrix
            fp = field_make(ell)
            red = np.zeros((2 * d - 1, d), dtype=np.int64)
            for u in range(2 * d - 1):
                r = poly_divmod(fp, [0] * u + [1], list(modulus))[1]
                red[u, :len(r)] = r
            self._reduce = red
        self._primitive = None

    # -- identity / representation --

    def __repr__(self):
        return f"GF({self.ell}^{self.d})" if self.d > 1 else f"GF({self.ell})"

    def __eq__(self, other):
        return (isinstance(other, GF)
                and (self.ell, self.d, self.modulus) == (other.ell, other.d, other.modulus))

    def __hash__(self):
        return hash((self.ell, self.d, self.modulus))

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Digit vector (c_0, ..., c_{d-1}) of an encoded element."""
        return tuple((int(a) // self.ell ** j) % self.ell for j in range(self.d))

    def from_coeffs(self, cs) -> int:
        return sum((int(c) % self.ell) * self.ell ** j for j, c in enumerate(cs))

    def _planes(self, a):
        """Decode an encoded array into a stack of d digit planes."""
        a = np.asarray(a, dtype=np.int64)
        return np.stack([(a // self.ell ** j) % self.ell for j in range(self.d)])

    def _encode(self, planes):
        out = np.zeros(planes.shape[1:], dtype=np.int64)
        for j in range(self.d):
            out += planes[j] * self.ell ** j
        return out

    # -- elementwise arithmetic --

    def add(self, a, b):
        if self.d == 1:
            return (np.asarray(a) + np.asarray(b)) % self.ell
        return self._encode((self._planes(a) + self._planes(b)) % self.ell)

    def sub(self, a, b):
        if self.d == 1:
            return (np.asarray(a) - np.asarray(b)) % self.ell
        return self._encode((self._planes(a) - self._planes(b)) % self.ell)

    def neg(self, a):
        if self.d == 1:
            return (-np.asarray(a)) % self.ell
        return self._encode((-self._planes(a)) % self.ell)

    def mul(self, a, b):
        if self.d == 1:
            return (np.asarray(a) * np.asarray(b)) % self.ell
        pa, pb = self._planes(a), self._planes(b)
        shape = np.broadcast_shapes(pa.shape[1:], pb.shape[1:])
        conv = np.zeros((2 * self.d - 1,) + shape, dtype=np.int64)
        for s in range(self.d):
            for t in range(self.d):
                conv[s + t] = (conv[s + t] + pa[s] * pb[t]) % self.ell
        planes = np.tensordot(self._reduce.T, conv, axes=1) % self.ell
        return self._encode(planes)

    def matmul(self, A, B):
        """A @ B, broadcasting over leading axes like numpy: (..., m, k)
        times (..., k, n) stacks of matrices multiply pairwise."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if self.d == 1:
            return (A @ B) % self.ell
        pa, pb = self._planes(A), self._planes(B)
        conv = [0] * (2 * self.d - 1)
        for s in range(self.d):
            for t in range(self.d):
                conv[s + t] = (conv[s + t] + pa[s] @ pb[t]) % self.ell
        planes = np.tensordot(self._reduce.T, np.stack(conv), axes=1) % self.ell
        return self._encode(planes)

    def inv(self, a: int) -> int:
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.d == 1:
            return pow(a, self.ell - 2, self.ell)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if not a:
            return 0 if e else 1
        e %= self.q - 1
        if self.d == 1:
            return pow(int(a), e, self.ell)
        r, base = 1, int(a)
        while e:
            if e & 1:
                r = int(self.mul(np.int64(r), np.int64(base)))
            base = int(self.mul(np.int64(base), np.int64(base)))
            e >>= 1
        return r

    # -- matrix utilities --

    def eye(self, n):
        return np.eye(n, dtype=np.int64)

    def zeros(self, *shape):
        return np.zeros(shape, dtype=np.int64)

    def rref(self, M):
        """Reduced row echelon form.  Returns (R, pivot_columns)."""
        R = np.array(M, dtype=np.int64)
        if R.ndim != 2:
            raise ValueError("rref expects a 2-d array")
        m, n = R.shape
        pivots = []
        row = 0
        for col in range(n):
            if row >= m:
                break
            nz = np.nonzero(R[row:, col])[0]
            if nz.size == 0:
                continue
            p = row + int(nz[0])
            if p != row:
                R[[row, p]] = R[[p, row]]
            inv = self.inv(int(R[row, col]))
            R[row] = self.mul(R[row], np.int64(inv))
            mask = np.nonzero(R[:, col])[0]
            mask = mask[mask != row]
            if mask.size:
                R[mask] = self.sub(R[mask], self.mul(R[mask, col][:, None], R[row][None, :]))
            pivots.append(col)
            row += 1
        return R[:row], pivots

    def rank(self, M) -> int:
        return self.rref(M)[0].shape[0]

    def nullspace(self, M):
        """Basis of the right kernel, as rows of the returned array."""
        M = np.asarray(M, dtype=np.int64)
        m, n = M.shape
        R, pivots = self.rref(M)
        free = [c for c in range(n) if c not in pivots]
        basis = np.zeros((len(free), n), dtype=np.int64)
        for i, fc in enumerate(free):
            basis[i, fc] = 1
            for r, pc in enumerate(pivots):
                basis[i, pc] = self.neg(R[r, fc])
        return basis

    def inv_matrix(self, M):
        M = np.asarray(M, dtype=np.int64)
        n = M.shape[0]
        R, pivots = self.rref(np.concatenate([M, self.eye(n)], axis=1))
        if pivots[:n] != list(range(n)) or R.shape[0] != n:
            raise ZeroDivisionError("matrix is singular")
        return R[:, n:]

    def kron(self, A, B):
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        m, n = A.shape
        p, q = B.shape
        K = self.mul(A[:, None, :, None], B[None, :, None, :])
        return K.reshape(m * p, n * q)

    # -- multiplicative structure --

    def order_of(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        n = self.q - 1
        for p in prime_factors(n):
            while n % p == 0 and self.pow(a, n // p) == 1:
                n //= p
        return n

    def least_primitive(self) -> int:
        """Smallest encoded element generating the multiplicative group."""
        if self._primitive is None:
            n = self.q - 1
            ps = prime_factors(n)
            for g in range(1, self.q):
                if all(self.pow(g, n // p) != 1 for p in ps):
                    self._primitive = g
                    break
        return self._primitive

    def dlog(self, b: int, base: int | None = None) -> int:
        """Discrete log of b to the given base (default: least primitive), by BSGS."""
        if base is None:
            base = self.least_primitive()
        if b == 0:
            raise ZeroDivisionError("discrete log of zero")
        n = self.q - 1
        m = int(n ** 0.5) + 1
        table = {}
        e = 1
        for j in range(m):
            table.setdefault(e, j)
            e = int(self.mul(np.int64(e), np.int64(base)))
        factor = self.inv(self.pow(base, m))
        gamma = int(b)
        for i in range(m + 1):
            if gamma in table:
                return (i * m + table[gamma]) % n
            gamma = int(self.mul(np.int64(gamma), np.int64(factor)))
        raise ValueError(f"{b} is not a power of {base} in {self}")


@functools.lru_cache(maxsize=None)
def field_make(ell: int, d: int = 1) -> GF:
    """The canonical GF(ell^d) (deterministic modulus, cached)."""
    return GF(ell, d)
