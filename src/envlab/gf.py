"""Exact arithmetic in GF(ell^d) with vectorized matrix algebra.

A field element is stored as a plain integer in [0, ell^d): its base-ell
digits are the coefficients of the element with respect to the power basis
of the canonical modulus.  Matrices and vectors are numpy int64 arrays of
such encodings, and every operation is vectorized over them.  A prime
field (d = 1) computes on the integers mod ell.  An extension field
(d > 1, q <= 2^16) builds exp and log tables once, to the base of its
least primitive element, with the log of 0 past the end of the powers: a
product is one gather at a sum of logs, zero factors included.  A sum is
digit-wise mod ell on the encodings (Lidl & Niederreiter, Finite Fields,
ch. 2), with no Zech logarithm: an XOR over ell = 2, and otherwise an
integer sum of the digits packed into bit fields too wide to carry, read
back through small tables.  A matrix product is one broadcast log sum and
one gather over all its products, added over the inner index.  The
encodings do not depend on the tables.

The canonical modulus of GF(ell^d) is the monic irreducible polynomial of
degree d whose coefficient vector (c_0, ..., c_{d-1}) has the least encoded
value sum(c_j * ell^j).  This makes every field object reproducible from
(ell, d) alone.

This module also holds envlab's one polynomial kernel, the poly_*
functions: dense polynomials over a GF instance, as lists of python-int
encodings, low to high, computed one coefficient at a time through the
field's scalar add, mul and neg (GF.scalar_ops): integer operations mod
ell over a prime field, reads of python-list views of the exp, log and
Zech tables otherwise.  The MeatAxe's polynomials mostly have degree at
most 3, where per-coefficient numpy calls cost more than the arithmetic.
poly_distinct_degree, the one least-degree factor search, tests moduli
for irreducibility here; the MeatAxe (fieldcore) and tame import the kernel.

The one echelon kernel works the same way: GF.rref, and through it rank,
nullspace and inv_matrix, eliminate on the rows as lists of python-int
encodings through the row operations axpy and scale (GF.row_ops), which
read the same table views for d > 1; fieldcore.EchelonBasis reduces on
them too.  Nearly all of envlab's echelon inputs have at most 144
entries, where a numpy call per pivot costs more than the arithmetic;
above about 12 x 12 the python rows are the slower ones.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegreeZero, NotPrime, ValidationError


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


# -- the polynomial kernel: lists of python-int encodings, low to high, one
# coefficient at a time through GF.scalar_ops; results are trimmed of zero
# leading coefficients --

def poly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def poly_sub(fld, a, b):
    add, _, neg = fld.scalar_ops
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        if c:
            out[i] = add(out[i], neg(c))
    return poly_trim(out)


def poly_mul(fld, a, b):
    if not a or not b:
        return []
    add, mul, _ = fld.scalar_ops
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                c[j] = add(c[j], mul(ai, bj))
    return poly_trim(c)


def poly_divmod(fld, a, b):
    """(q, r) with a = q b + r and deg r < deg b, for b trimmed and nonzero."""
    add, mul, neg = fld.scalar_ops
    m = len(b) - 1
    r = list(a)
    binv = fld.inv(b[-1])
    quot = [0] * max(0, len(a) - m)
    for off in range(len(a) - 1 - m, -1, -1):
        coef = mul(r[off + m], binv)
        if coef:
            quot[off] = coef
            minus = neg(coef)  # r[off + m] becomes 0 and is not read again
            for j in range(m):
                r[off + j] = add(r[off + j], mul(minus, b[j]))
    return poly_trim(quot), poly_trim(r[:m])


def poly_gcd(fld, a, b):
    """The monic gcd ([] when both are zero)."""
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        a, b = b, poly_divmod(fld, a, b)[1]
    if not a:
        return a
    mul, lead = fld.scalar_ops[1], fld.inv(a[-1])
    return [mul(c, lead) for c in a]


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


def poly_distinct_degree(fld, p):
    """(k, g) for a nonconstant p: the least degree k of an irreducible
    factor and g = gcd(p, x^(q^k) - x), the product of those factors, with
    x^(q^k) mod p carried from k to k + 1 (k = deg p at the latest)."""
    h = [0, 1]
    for k in range(1, len(p)):
        h = poly_powmod(fld, h, fld.q, p)
        g = poly_gcd(fld, p, poly_sub(fld, h, [0, 1]))
        if len(g) > 1:
            return k, g


def _is_irreducible(f, ell):
    """f, of degree at least 1, has no irreducible factor of lower degree."""
    return poly_distinct_degree(field_make(ell), f)[0] == len(f) - 1


def least_irreducible(ell: int, d: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree d over F_ell.

    Returned as the full coefficient tuple (c_0, ..., c_{d-1}, 1); ordering
    is by the encoded value sum(c_j ell^j) of the non-leading coefficients.
    """
    if d == 1:
        return (0, 1)  # no search: _is_irreducible builds F_ell, which asks for this
    for enc in range(ell ** d):
        coeffs = [(enc // ell ** j) % ell for j in range(d)] + [1]
        if _is_irreducible(coeffs, ell):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class GF:
    """The finite field GF(ell^d) with the canonical modulus.

    All array-valued methods accept and return numpy int64 arrays of
    encoded elements and broadcast like ordinary numpy arithmetic.  A
    prime field computes on the integers mod ell, so a product of two
    elements must fit: (q - 1)^2 < 2^63.  GF(ell^d), d > 1, multiplies
    through logarithms to the base g of its least primitive element (the
    MeatAxe convention: Parker 1984; Holt & Rees 1994): exp holds g^i for
    0 <= i < 2(q - 1) and then zeros up to 4(q - 1), and log 0 is
    2(q - 1), so exp[log a + log b] = a b with no zero mask.  Its numpy
    sums go digit by digit with no carry: XOR over ell = 2; over odd ell,
    integer sums of the digits packed into fields of w bits, w the bit
    length of (terms)(ell - 1) capped at 10 and at 63 / d, decoded through
    tables of at most 2^10 entries, and past the cap decoded and packed
    again every kmax terms.  The python scalar and row operations add
    through the Zech logarithms Z(k) = log(1 + g^k), so that
    g^i + g^j = g^(i + Z(j - i)).  The tables hold O(q) entries, so d > 1
    needs q <= 2^16.
    """

    def __init__(self, ell: int, d: int = 1, modulus: tuple[int, ...] | None = None):
        if d < 1:
            raise DegreeZero(f"extension degree must be >= 1, got {d}")
        if d >= 63 or (ell ** d - 1) ** 2 >= 2 ** 63:  # d first: ell ** d may be huge
            raise ValidationError(f"{ell}^{d} is too large a field order for int64 products")
        if d > 1 and ell ** d > 2 ** 16:  # the log tables hold O(q) entries
            raise ValidationError(f"{ell}^{d} is too large a field order for log tables "
                                  f"(d > 1 needs q <= 2^16)")
        if not is_prime(ell):
            raise NotPrime(f"{ell} is not prime")
        self.ell = ell
        self.d = d
        self.q = ell ** d
        if modulus is not None:
            modulus = tuple(int(c) % ell for c in modulus)
            if len(modulus) != d + 1 or modulus[-1] != 1:
                raise NotPrime(f"modulus must be monic of degree {d}")
            if not _is_irreducible(list(modulus), ell):
                raise NotPrime(f"modulus {modulus} is reducible over F_{ell}")
        # the canonical modulus, also for d = 1: F_ell's encodings do not depend on it
        self.modulus = least_irreducible(ell, d) if modulus is None or d == 1 else modulus
        self._primitive = None
        if d > 1:
            self._build_tables()

    def _build_tables(self):
        """The exp, log and Zech tables, built without a field product.
        "Times g" is the F_ell-linear map sum_j g_j C^j, for C the
        companion matrix of the modulus.  The cycle of 1 under it doubles
        in length with each stacked product (g^(i + L) = g^L g^i), so a
        candidate costs its order; the least g whose cycle has length
        q - 1 is primitive, and its cycle is the exp table."""
        ell, d, n = self.ell, self.d, self.q - 1
        place = ell ** np.arange(d, dtype=np.int64)
        companion = np.eye(d, k=-1, dtype=np.int64)  # column j: x * x^j
        companion[:, -1] = np.negative(self.modulus[:d]) % ell
        for g in range(ell, self.q):  # F_ell holds no generator when d > 1
            jump, power = np.zeros((d, d), dtype=np.int64), np.eye(d, dtype=np.int64)
            for c in self.coeffs(g):
                jump = (jump + c * power) % ell
                power = companion @ power % ell
            cycle = np.eye(1, d, dtype=np.int64)  # digit rows of g^0, ..., g^(L - 1)
            while len(cycle) < n:
                more = (cycle @ jump.T % ell)[:n - len(cycle)]  # jump = times g^L
                if (more @ place == 1).any():
                    break  # the cycle closes early: g is not primitive
                cycle = np.concatenate([cycle, more])
                jump = jump @ jump % ell
            else:
                break
        self._primitive = g
        powers = cycle @ place
        # log 0 lies past the end at 2(q - 1), and exp is 0 from there, so
        # a product with a zero factor is a log sum that reads 0
        self._exp = np.concatenate([powers, powers, np.zeros(2 * n + 1, np.int64)])
        self._log = np.full(self.q, 2 * n, dtype=np.int64)
        self._log[powers] = np.arange(n)
        self._zech = self._log[powers - powers % ell + (powers + 1) % ell]
        self._log_minus_one = int(self._log[ell - 1])  # -1 is the encoding ell - 1
        self._zech[self._log_minus_one] = -1  # 1 + g^k = 0: the sum is zero
        self._packings = {}

    def _packing(self, terms):
        """(kmax, pack, pexp, decode) for sums of up to `terms` elements
        over an odd ell: pack[a] holds a's base-ell digits in fields of
        w bits, pexp = pack[exp], and decode reads a sum of at most kmax
        packed elements back to an encoding, through tables of at most
        2^10 entries that each reduce a group of fields mod ell."""
        ell, d = self.ell, self.d
        w = min((max(terms, 2) * (ell - 1)).bit_length(), 10, 63 // d)
        if w not in self._packings:
            digits = np.arange(self.q)[:, None] // ell ** np.arange(d) % ell
            pack = digits @ (1 << w * np.arange(d))
            group, tables = 10 // w, []
            for lo in range(0, d, group):
                k = min(group, d - lo)
                fields = np.arange(1 << w * k)[:, None] >> w * np.arange(k) & (1 << w) - 1
                tables.append((w * lo, fields % ell @ ell ** np.arange(lo, lo + k)))
            low = tables[0][1]

            def decode(S):  # S, an int64 array, is overwritten
                high = [table.take(S >> shift & len(table) - 1) for shift, table in tables[1:]]
                if high:
                    S &= len(low) - 1
                out = low.take(S, out=S, mode="clip")
                for part in high:
                    out += part
                return out

            self._packings[w] = (((1 << w) - 1) // (ell - 1), pack, pack.take(self._exp), decode)
        return self._packings[w]

    def _sum_products(self, logs):
        """The sum over the first axis of the products with these logs
        (overwritten), digit by digit with no carry: XOR over ell = 2, else
        packed digits added as integers, decoded and packed again every
        kmax terms."""
        if self.ell == 2:
            return np.bitwise_xor.reduce(self._exp.take(logs, out=logs, mode="clip"), axis=0)
        kmax, pack, pexp, decode = self._packing(len(logs))
        S = pexp.take(logs, out=logs, mode="clip")
        while len(S) > kmax:
            S = pack.take(decode(np.add.reduceat(S, np.arange(0, len(S), kmax), axis=0)))
        return decode(S.sum(axis=0))

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

    # -- elementwise arithmetic --

    def add(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        if self.d == 1:
            return (a + b) % self.ell
        if self.ell == 2:
            return a ^ b
        _, pack, _, decode = self._packing(2)
        return decode(np.asarray(pack.take(a) + pack.take(b)))  # an array even for scalars

    def sub(self, a, b):
        if self.d == 1:
            return (np.asarray(a) - np.asarray(b)) % self.ell
        return self.add(a, self.neg(b))

    def neg(self, a):
        a = np.asarray(a)
        if self.d == 1:
            return (-a) % self.ell
        if self.ell == 2:
            return a.copy()
        return self._exp.take(self._log.take(a) + self._log_minus_one)

    def mul(self, a, b):
        if self.d == 1:
            return (np.asarray(a) * np.asarray(b)) % self.ell
        return self._exp.take(self._log.take(a) + self._log.take(b))

    @functools.cached_property
    def _table_lists(self):
        """Python-list views of the exp, log and Zech tables (d > 1), made
        once for the scalar and row operations."""
        return self._exp[:2 * (self.q - 1)].tolist(), self._log.tolist(), self._zech.tolist()

    @functools.cached_property
    def scalar_ops(self):
        """(add, mul, neg) on single python-int encodings, for the
        polynomial kernel and dlog.  Over a prime field they are integer
        operations mod ell; over GF(ell^d), d > 1, they read python-list
        views of the exp, log and Zech tables, made on first use."""
        ell = self.ell
        if self.d == 1:
            return (lambda a, b: (a + b) % ell, lambda a, b: a * b % ell,
                    lambda a: -a % ell)
        exp, log, zech = self._table_lists
        minus_one = self._log_minus_one

        def add(a, b):
            if not (a and b):
                return a or b
            la = log[a]
            z = zech[log[b] - la]  # a negative index wraps: Z has period q - 1
            return exp[la + z] if z >= 0 else 0

        def mul(a, b):
            return exp[log[a] + log[b]] if a and b else 0

        def neg(a):
            return exp[log[a] + minus_one] if a else 0

        return add, mul, neg

    @functools.cached_property
    def row_ops(self):
        """(axpy, scale) on rows given as lists of python-int encodings,
        for the echelon kernel: axpy(a, x, y) is the row a x + y and
        scale(a, x) the row a x, for a nonzero scalar a.  Over a prime
        field they are integer operations mod ell; over GF(ell^d), d > 1,
        they read the table views of scalar_ops."""
        ell = self.ell
        if self.d == 1:
            return (lambda a, x, y: [(b + a * c) % ell for c, b in zip(x, y)],
                    lambda a, x: [a * c % ell for c in x])
        exp, log, zech = self._table_lists
        n = self.q - 1

        def axpy(a, x, y):
            la, out = log[a], list(y)
            for j, c in enumerate(x):
                if c:
                    lp = la + log[c]  # log of a c, reduced below q - 1
                    if lp >= n:
                        lp -= n
                    b = y[j]
                    if b:
                        lb = log[b]
                        z = zech[lp - lb]  # a negative index wraps
                        out[j] = exp[lb + z] if z >= 0 else 0
                    else:
                        out[j] = exp[lp]
            return out

        def scale(a, x):
            la = log[a]
            return [exp[la + log[c]] if c else 0 for c in x]

        return axpy, scale

    def matmul(self, A, B):
        """A @ B, broadcasting over leading axes like numpy: (..., m, k)
        times (..., k, n) stacks of matrices multiply pairwise."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if self.d == 1:
            if A.shape[-1] * (self.ell - 1) ** 2 >= 2 ** 63:
                raise ValidationError(f"a sum of {A.shape[-1]} products overflows over {self}")
            return (A @ B) % self.ell
        if A.ndim < 2 or B.ndim < 2 or A.shape[-1] != B.shape[-2]:
            raise ValueError(f"matmul of shapes {A.shape} and {B.shape}")
        # the logs of all products, inner index first, so whole slices add
        A, B = A[(None,) * (B.ndim - A.ndim)], B[(None,) * (A.ndim - B.ndim)]
        lead = range(A.ndim - 2)
        return self._sum_products(np.add(self._log.take(A).transpose(-1, *lead, -2)[..., None],
                                         self._log.take(B).transpose(-2, *lead, -1)[..., None, :],
                                         order="C"))

    def inv(self, a: int) -> int:
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.d == 1:
            return pow(a, self.ell - 2, self.ell)
        exp, log, _ = self._table_lists
        return exp[self.q - 1 - log[a]]

    def pow(self, a: int, e: int) -> int:
        if not a:
            return 0 if e else 1
        e %= self.q - 1
        if self.d == 1:
            return pow(int(a), e, self.ell)
        return int(self._exp[int(self._log[a]) * e % (self.q - 1)])

    # -- matrix utilities --

    def eye(self, n):
        return np.eye(n, dtype=np.int64)

    def zeros(self, *shape):
        return np.zeros(shape, dtype=np.int64)

    def rref(self, M):
        """Reduced row echelon form.  Returns (R, pivot_columns), R an
        int64 array.  Gauss-Jordan on the rows as lists of python ints
        through row_ops: most inputs have a few dozen entries, where a
        numpy call per pivot costs more than the arithmetic."""
        M = np.asarray(M, dtype=np.int64)
        if M.ndim != 2:
            raise ValueError("rref expects a 2-d array")
        m, n = M.shape
        rows = M.tolist()
        axpy, scale = self.row_ops
        neg = self.scalar_ops[2]
        pivots, row = [], 0
        for col in range(n):
            if row == m:
                break
            for p in range(row, m):
                if rows[p][col]:
                    break
            else:
                continue
            top = scale(self.inv(rows[p][col]), rows[p])
            rows[p], rows[row] = rows[row], top
            for i, r in enumerate(rows):
                if r[col] and i != row:
                    rows[i] = axpy(neg(r[col]), top, r)
            pivots.append(col)
            row += 1
        return np.array(rows[:row], dtype=np.int64).reshape(row, n), pivots

    def rank(self, M) -> int:
        return self.rref(M)[0].shape[0]

    def nullspace(self, M):
        """Basis of the right kernel, as rows of the returned array: one
        row per free column c of the rref, 1 at c and minus column c of
        the rref at the pivots, built on python lists."""
        R, pivots = self.rref(M)
        rows, n = R.tolist(), R.shape[1]
        neg = self.scalar_ops[2]
        basis = []
        for c in range(n):
            if c not in pivots:
                v = [0] * n
                v[c] = 1
                for r, p in zip(rows, pivots):
                    v[p] = neg(r[c])
                basis.append(v)
        return np.array(basis, dtype=np.int64).reshape(len(basis), n)

    def inv_matrix(self, M):
        M = np.asarray(M, dtype=np.int64)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"inv_matrix expects a square 2-d array, got shape {M.shape}")
        n = M.shape[0]
        R, pivots = self.rref(np.concatenate([M, self.eye(n)], axis=1))
        if pivots[:n] != list(range(n)) or R.shape[0] != n:
            raise ZeroDivisionError("matrix is singular")
        return R[:, n:]

    def kron(self, A, B):
        """The Kronecker product, broadcasting over leading axes like
        matmul: (..., m, n) and (..., p, q) stacks pair up."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        m, n = A.shape[-2:]
        p, q = B.shape[-2:]
        K = self.mul(A[..., :, None, :, None], B[..., None, :, None, :])
        return K.reshape(K.shape[:-4] + (m * p, n * q))

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
        mul = self.scalar_ops[1]
        table = {}
        e = 1
        for j in range(m):
            table.setdefault(e, j)
            e = mul(e, base)
        factor = self.inv(self.pow(base, m))
        gamma = int(b)
        for i in range(m + 1):
            if gamma in table:
                return (i * m + table[gamma]) % n
            gamma = mul(gamma, factor)
        raise ValueError(f"{b} is not a power of {base} in {self}")


def field_make(ell: int, d: int = 1, modulus=None) -> GF:
    """GF(ell^d), cached: with the canonical modulus by default, else with
    the given one, so a field and its tables are built once per process."""
    return _field_make(ell, d, None if modulus is None else tuple(modulus))


@functools.lru_cache(maxsize=None)
def _field_make(ell, d, modulus):
    return GF(ell, d, modulus)
