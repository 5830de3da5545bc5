"""The numpy polynomial kernel that gf.poly_* replaced, kept as the
reference the scalar kernel is tested against, with the distinct-degree
stage of the MeatAxe as it was first written (x^(q^k) raised from scratch
for each k).

Polynomials are lists of encodings, low to high.  Each function pads its
operands into int64 arrays and computes one coefficient row at a time
through GF.add/sub/mul, vectorized across coefficients.  Results are
trimmed of zero leading coefficients, like the kernel's.
"""

import numpy as np


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
    """x^(q^k) - x mod f."""
    return poly_sub(fld, poly_powmod(fld, [0, 1], fld.q ** k, f), [0, 1])


def irreducible_factor(fld, p, rng, equal_degree_factor):
    """The distinct-degree stage: the first k at which gcd(p, x^(q^k) - x)
    is nontrivial, with x^(q^k) raised from scratch, then the given
    equal-degree splitter."""
    for k in range(1, len(p)):
        g = poly_gcd(fld, p, poly_frobenius_gap(fld, k, p))
        if len(g) - 1 > 0:
            return equal_degree_factor(fld, g, k, rng)
    return p


KERNEL = ("poly_trim", "poly_sub", "poly_mul", "poly_divmod", "poly_gcd",
          "poly_powmod", "poly_frobenius_gap")
