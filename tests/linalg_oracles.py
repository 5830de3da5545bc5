"""The linear-algebra routines that envlab replaced, kept as oracles: the
numpy Gauss-Jordan rref (with the rank, nullspace and inverse read from
it), the nullspace basis built with numpy writes on GF.rref's output, and the numpy incremental echelon basis (with spin and lie_closure
grown on it) that the python-int row kernel replaced; the random algebra
element and the Horner evaluation that multiplied by the identity; the
truncated exp/log series summed term by term, which Horner replaced; and
the routines that fieldcore and tame replaced with reads of one rref:
the Krylov minimal polynomial by an augmented echelon basis, the
submodule and quotient actions by a completed basis and its inverse, the
matrix minimal polynomial as an lcm over unit vectors, the fixed-space
dimension as the size of a nullspace basis, and invertibility as a
caught failure of the inverse.  Last, composition_factors as it was
before it recognized pieces: every piece searched by the MeatAxe, then
the certified factors grouped into classes by an intertwiner alone."""

import numpy as np

from envlab.errors import ValidationError
from envlab.fieldcore import (DEFAULT_MEATAXE_BUDGET, DEFAULT_SEED, IrreducibleWitness,
                              ModuleRep, _submodule_action, intertwiners, meataxe_split)
from envlab.gf import poly_divmod, poly_gcd, poly_mul


def rref(fld, M):
    """Reduced row echelon form on int64 arrays, one numpy step per pivot:
    (R, pivot_columns)."""
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
        inv = fld.inv(int(R[row, col]))
        R[row] = fld.mul(R[row], np.int64(inv))
        mask = np.nonzero(R[:, col])[0]
        mask = mask[mask != row]
        if mask.size:
            R[mask] = fld.sub(R[mask], fld.mul(R[mask, col][:, None], R[row][None, :]))
        pivots.append(col)
        row += 1
    return R[:row], pivots


def rank(fld, M):
    return rref(fld, M)[0].shape[0]


def nullspace(fld, M):
    """Basis of the right kernel, as rows, from the oracle rref."""
    R, pivots = rref(fld, M)
    n = R.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = fld.neg(R[:, free].T)
    return basis


def nullspace_on_rref(fld, M):
    """GF.nullspace as it read GF.rref's int64 output: np.zeros, a
    fancy-index write of the ones and an array neg at the pivots."""
    R, pivots = fld.rref(M)
    n = R.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = fld.neg(R[:, free].T)
    return basis


def inv_matrix(fld, M):
    """The inverse of a square matrix from the oracle rref of [M | I]."""
    M = np.asarray(M, dtype=np.int64)
    n = M.shape[0]
    R, pivots = rref(fld, np.concatenate([M, fld.eye(n)], axis=1))
    if pivots[:n] != list(range(n)) or R.shape[0] != n:
        raise ZeroDivisionError("matrix is singular")
    return R[:, n:]


class EchelonBasis:
    """An incrementally echelonized row basis on int64 arrays, one numpy
    GF.mul and GF.sub per pivot."""

    def __init__(self, fld):
        self.fld = fld
        self.rows = []
        self.pivots = []

    def reduce(self, v):
        fld = self.fld
        for row, piv in zip(self.rows, self.pivots):
            c = int(v[piv])
            if c:
                v = fld.sub(v, fld.mul(c, row))
        return v

    def add(self, v):
        v = self.reduce(np.asarray(v, dtype=np.int64))
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return None
        piv = int(nz[0])
        v = self.fld.mul(v, self.fld.inv(int(v[piv])))
        self.rows.append(v)
        self.pivots.append(piv)
        return v


def spin(fld, matrices, seeds):
    """The spin on the oracle echelon basis, one GF.matmul per generator."""
    basis = EchelonBasis(fld)
    queue = [row for row in map(basis.add, seeds) if row is not None]
    while queue:
        v = queue.pop()
        for M in matrices:
            row = basis.add(fld.matmul(M, v[:, None])[:, 0])
            if row is not None:
                queue.append(row)
    return basis


def lie_closure(fld, seeds, n):
    """The Lie closure on the oracle echelon basis, one bracket at a time."""
    basis = EchelonBasis(fld)
    rest = np.asarray(seeds, dtype=np.int64).reshape(-1, n * n)
    while (live := np.flatnonzero(rest.any(axis=1))).size:
        row = basis.add(rest[live[0]])
        rest = rest[live[0] + 1:]
        rest = fld.sub(rest, fld.mul(rest[:, basis.pivots[-1], None], row))
    mats = basis.rows
    i = 0
    while i < len(mats):
        a = mats[i].reshape(n, n)
        for b in mats[:i + 1]:
            b = b.reshape(n, n)
            basis.add(fld.sub(fld.matmul(a, b), fld.matmul(b, a)).reshape(-1))
        i += 1
    return [m.reshape(n, n) for m in mats]


def random_algebra_element(fld, matrices, n, rng):
    """A random combination of words, each word started from the identity."""
    acc = np.zeros((n, n), dtype=np.int64)
    for _ in range(int(rng.integers(1, 4))):
        word = fld.eye(n)
        for _ in range(int(rng.integers(1, 4))):
            word = fld.matmul(word, matrices[int(rng.integers(0, len(matrices)))])
        c = np.int64(int(rng.integers(1, fld.q)))
        acc = fld.add(acc, fld.mul(c, word))
    if int(rng.integers(0, 2)):
        acc = fld.add(acc, fld.mul(np.int64(int(rng.integers(0, fld.q))), fld.eye(n)))
    return acc


def eval_poly_at_matrix(fld, poly, A):
    """Horner's rule with every coefficient times the identity."""
    n = A.shape[0]
    acc = np.zeros((n, n), dtype=np.int64)
    for c in reversed(poly):
        acc = fld.matmul(acc, A)
        acc = fld.add(acc, fld.mul(np.int64(int(c)), fld.eye(n)))
    return acc


def series(fld, X, coefs):
    """sum_i coefs[i] X^i on a (..., n, n) stack, one power and one scaled
    term per coefficient: the truncated exp and log series as nori first
    summed them."""
    term = fld.eye(X.shape[-1])
    acc = np.broadcast_to(fld.mul(np.int64(coefs[0]), term), X.shape)
    for c in coefs[1:]:
        term = fld.matmul(term, X)
        acc = fld.add(acc, fld.mul(np.int64(c), term))
    return acc


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


def reference_modules_isomorphic(a, b):
    """A nonzero intertwiner between modules of one dimension, with no
    trace check: exact when a or b is irreducible."""
    return a.dim == b.dim and len(intertwiners(a, b)) > 0


def reference_composition_factors(rho, seed=DEFAULT_SEED, budget=DEFAULT_MEATAXE_BUDGET):
    """Certify every piece, the piece popped i-th with seed + i, then group
    the irreducibles, in the order certified, into classes."""
    fld = rho.field
    irreducibles = []
    stack = [rho.action]
    salt = 0
    while stack:
        sub = ModuleRep(fld, stack.pop())
        verdict = meataxe_split(sub, seed + salt, budget)
        salt += 1
        if isinstance(verdict, IrreducibleWitness):
            irreducibles.append(sub)
        else:
            stack.extend(_submodule_action(fld, sub.action, verdict))
    classes = []
    for m in irreducibles:
        for entry in classes:
            if reference_modules_isomorphic(entry[0], m):
                entry[1] += 1
                break
        else:
            classes.append([m, 1])
    return [(m, k) for m, k in classes]


def same_classes(got, want):
    """Whether two class lists, as composition_factors returns them, hold
    the same iso-classes with the same multiplicities: each class of got
    isomorphic to a different class of want, of its multiplicity."""
    unmatched = list(want)
    for m, k in got:
        match = next((entry for entry in unmatched
                      if entry[1] == k and reference_modules_isomorphic(entry[0], m)), None)
        if match is None:
            return False
        unmatched.remove(match)
    return not unmatched
