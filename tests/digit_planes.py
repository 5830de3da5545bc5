"""The digit-plane kernel for GF(ell^d), d > 1, kept as the reference that
GF's log/Zech tables are tested against.

An encoded element splits into d digit planes over F_ell, the coefficients
of its power-basis expansion.  A product is d^2 prime-field products of
planes and one reduction by the table of x^u mod f, u < 2d - 1.  Scalar
inverses and powers are square-and-multiply, and rref is Gauss-Jordan
elimination on top of that arithmetic; order_of and dlog search powers one
by one.  Everything here is slow and plain on purpose.
"""

import numpy as np

from envlab.gf import field_make, poly_divmod


class DigitPlaneField:
    """Digit-plane arithmetic for the field of a GF with d > 1 (same ell,
    d and modulus, so the same encodings)."""

    def __init__(self, fld):
        self.ell, self.d, self.q = fld.ell, fld.d, fld.q
        fp = field_make(self.ell)
        self.reduce = np.zeros((2 * self.d - 1, self.d), dtype=np.int64)
        for u in range(2 * self.d - 1):
            r = poly_divmod(fp, [0] * u + [1], list(fld.modulus))[1]
            self.reduce[u, :len(r)] = r

    def planes(self, a):
        a = np.asarray(a, dtype=np.int64)
        return np.stack([(a // self.ell ** j) % self.ell for j in range(self.d)])

    def encode(self, planes):
        out = np.zeros(planes.shape[1:], dtype=np.int64)
        for j in range(self.d):
            out += planes[j] * self.ell ** j
        return out

    def add(self, a, b):
        a, b = np.broadcast_arrays(a, b)  # the digit axis goes in front
        return self.encode((self.planes(a) + self.planes(b)) % self.ell)

    def sub(self, a, b):
        a, b = np.broadcast_arrays(a, b)
        return self.encode((self.planes(a) - self.planes(b)) % self.ell)

    def neg(self, a):
        return self.encode((-self.planes(a)) % self.ell)

    def mul(self, a, b):
        pa, pb = self.planes(a), self.planes(b)
        shape = np.broadcast_shapes(pa.shape[1:], pb.shape[1:])
        conv = np.zeros((2 * self.d - 1,) + shape, dtype=np.int64)
        for s in range(self.d):
            for t in range(self.d):
                conv[s + t] = (conv[s + t] + pa[s] * pb[t]) % self.ell
        return self.encode(np.tensordot(self.reduce.T, conv, axes=1) % self.ell)

    def matmul(self, A, B):
        pa, pb = self.planes(A), self.planes(B)
        conv = [0] * (2 * self.d - 1)
        for s in range(self.d):
            for t in range(self.d):
                conv[s + t] = (conv[s + t] + pa[s] @ pb[t]) % self.ell
        return self.encode(np.tensordot(self.reduce.T, np.stack(conv), axes=1) % self.ell)

    def kron(self, A, B):
        A, B = np.asarray(A), np.asarray(B)
        (m, n), (p, q) = A.shape[-2:], B.shape[-2:]
        K = self.mul(A[..., :, None, :, None], B[..., None, :, None, :])
        return K.reshape(K.shape[:-4] + (m * p, n * q))

    def pow(self, a, e):
        if not a:
            return 0 if e else 1
        r, base, e = 1, int(a), e % (self.q - 1)
        while e:
            if e & 1:
                r = int(self.mul(r, base))
            base = int(self.mul(base, base))
            e >>= 1
        return r

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(a, self.q - 2)

    def rref(self, M):
        R = np.array(M, dtype=np.int64)
        pivots, row = [], 0
        for col in range(R.shape[1]):
            nz = np.nonzero(R[row:, col])[0]
            if not nz.size:
                continue
            p = row + int(nz[0])
            R[[row, p]] = R[[p, row]]
            R[row] = self.mul(R[row], self.inv(int(R[row, col])))
            for r in range(R.shape[0]):
                if r != row and R[r, col]:
                    R[r] = self.sub(R[r], self.mul(R[r, col], R[row]))
            pivots.append(col)
            row += 1
        return R[:row], pivots

    def inv_matrix(self, M):
        n = len(M)
        R, pivots = self.rref(np.concatenate([M, np.eye(n, dtype=np.int64)], axis=1))
        if pivots[:n] != list(range(n)) or len(R) != n:
            raise ZeroDivisionError("matrix is singular")
        return R[:, n:]

    def order_of(self, a):
        if not a:
            raise ZeroDivisionError("zero has no multiplicative order")
        k, x = 1, int(a)
        while x != 1:
            k, x = k + 1, int(self.mul(x, a))
        return k

    def dlog(self, b, base):
        """The least e >= 0 with base^e = b."""
        x = 1
        for e in range(self.q - 1):
            if x == b:
                return e
            x = int(self.mul(x, base))
        raise ValueError(f"{b} is not a power of {base}")
