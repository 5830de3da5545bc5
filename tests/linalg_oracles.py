"""The linear-algebra routines that fieldcore and tame replaced with reads
of one rref, kept as oracles: the Krylov minimal polynomial by an
augmented echelon basis, the submodule and quotient actions by a completed
basis and its inverse, the matrix minimal polynomial as an lcm over unit
vectors, the fixed-space dimension as the size of a nullspace basis, and
invertibility as a caught failure of the inverse."""

import numpy as np

from envlab.errors import ValidationError
from envlab.fieldcore import EchelonBasis
from envlab.gf import poly_divmod, poly_gcd, poly_mul


def vector_minpoly(fld, A, v):
    """Monic minimal polynomial of the vector v under the matrix A.  The rows
    (A^k v | e_k) are echelonized until the first half of one reduces to
    zero; its second half is then the relation sum_j c_j A^j v = 0."""
    n = len(v)
    basis = EchelonBasis(fld)
    cur = v
    for k in range(n + 1):
        row = np.zeros(2 * n + 1, dtype=np.int64)
        row[:n], row[n + k] = cur, 1
        red = basis.add(row)
        if not red[:n].any():
            rel = red[n:n + k + 1]
            return fld.mul(rel, fld.inv(int(rel[k]))).tolist()
        cur = fld.matmul(A, cur[:, None])[:, 0]


def submodule_action(fld, action, basis):
    """Restrict a (k, n, n) action stack to the invariant row-space `basis`
    and form the quotient.  Returns the (sub, quotient) action stacks."""
    k, n = basis.shape
    # complete basis to a full one with unit vectors at the free columns
    R, pivots = fld.rref(basis)
    free = [c for c in range(n) if c not in pivots]
    Q = np.zeros((n, n), dtype=np.int64)
    Q[:k] = R
    for i, c in enumerate(free):
        Q[k + i, c] = 1
    # columns of Q^T are the new basis vectors
    QT = Q.T
    conj = fld.matmul(fld.inv_matrix(QT), fld.matmul(action, QT))
    if conj[:, k:, :k].any():
        raise ValidationError("claimed subspace is not invariant")
    return conj[:, :k, :k], conj[:, k:, k:]


def poly_lcm(fld, a, b):
    """The lcm of monic a and b (monic, as a b / gcd is)."""
    return poly_divmod(fld, poly_mul(fld, a, b), poly_gcd(fld, a, b))[0]


def matrix_minpoly(fld, A):
    """Monic minimal polynomial as the lcm of standard-basis vector
    minimal polynomials, coefficients low to high."""
    n = A.shape[0]
    poly = [1]
    for i in range(n):
        v = np.zeros(n, dtype=np.int64)
        v[i] = 1
        poly = poly_lcm(fld, poly, vector_minpoly(fld, A, v))
        if len(poly) == n + 1:
            break
    return poly


def invariants_dim(rho):
    """Dimension of the simultaneous fixed space of all action matrices."""
    fld, n = rho.field, rho.dim
    return fld.nullspace(fld.sub(rho.action, fld.eye(n)).reshape(-1, n)).shape[0]


def is_invertible(fld, M):
    try:
        fld.inv_matrix(M)
        return True
    except ZeroDivisionError:
        return False
