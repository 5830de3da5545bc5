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
the certified factors grouped into classes by an intertwiner alone.
And G[ell] as it was found before trace candidates: the (g - 1)^n test
over the whole element stack.  The commutant of [G, G] as the pipeline
found it before the commutant chain: the fixed point of its own rounds
from the generator commutators' commutant, run until K stops shrinking.
And the Lie rank estimate with all its samples drawn, on a derived
algebra closed by lie_closure.  Last, the coset structures of mackey as
they were built before the index tables: the greedy left transversal
and double-coset loops over the closure order, one product per coset,
and the intersection indices with both inverses from word walks of the
dual natural modules.  And the regular representation F[H] as the
permutation matrices that the store spun and read before it gathered
along H.left: built from H.left as a module input, and found by one
product per element and generator as the oracle for H.left."""

import numpy as np

from envlab.errors import ValidationError
from envlab.fieldcore import (DEFAULT_MEATAXE_BUDGET, DEFAULT_SEED, IrreducibleWitness,
                              Mat, ModuleRep, _submodule_action, commutant,
                              generator_commutators, intertwiners, meataxe_split)
from envlab.gf import poly_divmod, poly_gcd, poly_mul
from envlab.mackey import module_value


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


def order_ell_elements(G):
    """G[ell] by the test (g - 1)^n = 0 on every element of G's closure,
    the identity dropped, in closure order."""
    fld, X = G.field, G.closure()
    power = N = fld.sub(X, fld.eye(G.n))
    for _ in range(G.n - 1):
        power = fld.matmul(power, N)
    unipotent = ~power.any(axis=(-2, -1))
    unipotent[0] = False
    return X[unipotent]


def derived_commutant_dim(G):
    """dim End_[G,G](V), or None when [G,G] is trivial, with no group
    closed.  [G,G] is the normal closure of the generator commutators, so
    its commutant is the intersection of the conjugates g K0 g^-1 of
    their commutant K0: the largest subspace of K0 that conjugation by
    every generator maps into itself.  Each round keeps the X in K with
    g X g^-1 in K for every generator g, one rref of K and one nullspace,
    until K stops shrinking."""
    fld, n = G.field, G.n
    comms = generator_commutators(G)
    if (comms == fld.eye(n)).all():
        return None
    K = np.reshape(commutant(ModuleRep(fld, comms))[0], (-1, n * n))
    while True:
        R, pivots = fld.rref(K)
        free = [c for c in range(n * n) if c not in pivots]
        images = fld.matmul(fld.matmul(G.gens[:, None], R.reshape(-1, n, n)),
                            G.gens_inv[:, None]).reshape(len(G.gens), len(R), n * n)
        outside = fld.sub(images[:, :, free], fld.matmul(images[:, :, pivots], R[:, free]))
        keep = fld.nullspace(outside.transpose(0, 2, 1).reshape(-1, len(R)))
        if len(keep) == len(R):
            return len(R)
        K = fld.matmul(keep, R)


def lie_rank_estimate(basis, fld, samples=25, seed=DEFAULT_SEED):
    """(dim, derived dim, min over all samples of dim ker(ad x | derived))
    of a matrix Lie algebra, the derived algebra closed by the oracle
    lie_closure and every one of the samples drawn."""
    n, dim = basis[0].shape[0], len(basis)
    brackets = [fld.sub(fld.matmul(basis[i], basis[j]), fld.matmul(basis[j], basis[i]))
                for i in range(dim) for j in range(i)]
    derived = lie_closure(fld, brackets, n)
    ddim = len(derived)
    if ddim == 0:
        return dim, 0, 0
    D = np.array(derived)
    rng = np.random.default_rng(seed)
    best = ddim
    for _ in range(samples):
        coeffs = rng.integers(0, fld.q, size=ddim)
        x = fld.matmul(coeffs[None], D.reshape(ddim, -1)).reshape(n, n)
        brs = fld.sub(fld.matmul(x, D), fld.matmul(D, x)).reshape(ddim, -1)
        best = min(best, ddim - fld.rank(brs))
    return dim, ddim, best


def greedy_cosets(G, H):
    """(transversal, coset): left coset representatives of H in G, greedy
    in G's closure order, each new one covering its coset t H by one
    product; coset[i] numbers the coset of element i."""
    fld, hs, elems = G.field, H.closure(), G.closure()
    coset = np.full(len(elems), -1)
    reps = []
    for i, t in enumerate(elems):
        if coset[i] < 0:
            coset[G.indices(fld.matmul(t, hs))] = len(reps)
            reps.append(i)
    return elems[reps], coset


def greedy_double_coset_reps(G, H, transversal, coset):
    """The first transversal element of each double coset H t H, covering
    its left cosets h t H by one product each."""
    fld, hs = G.field, H.closure()
    covered = np.zeros(len(transversal), dtype=bool)
    reps = []
    for j, t in enumerate(transversal):
        if not covered[j]:
            covered[coset[G.indices(fld.matmul(hs, t))]] = True
            reps.append(j)
    return transversal[reps]


def dual_walk_intersection_indices(G, H, reps):
    """((conj, x, x_inv), bounds) as SubgroupDatum.intersection_indices
    gives them for the double-coset representatives reps after the
    identity, with (g^-1)^T the dual of G's natural module at g and
    (x^-1)^T that of H's at x, each walked along closure words."""
    fld, hs = G.field, H.closure()
    inv = module_value(ModuleRep(fld, G.gens_inv.transpose(0, 2, 1)), G, reps)
    conj = fld.matmul(fld.matmul(inv.transpose(0, 2, 1)[:, None], hs), reps[:, None])
    where = H.indices(conj)
    inside = where >= 0
    xs = np.nonzero(inside)[1]
    dual = module_value(ModuleRep(fld, H.gens_inv.transpose(0, 2, 1)), H, hs[xs])
    bounds = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
    return (where[inside], xs, H.indices(dual.transpose(0, 2, 1))), bounds


def regular_module(H, fld):
    """The left-regular representation of H over the coefficient field, as
    a module: P_j[H.left[j, i], i] = 1, the permutation matrix of g_j on
    H's closure."""
    perm = H.left
    k, n = perm.shape
    P = np.zeros((k, n, n), dtype=np.int64)
    P[np.arange(k)[:, None], perm, np.arange(n)] = 1
    return ModuleRep(fld, P)


def reference_regular_rep(H):
    """The permutation matrices of H's generators on its closure, one
    product g x per element x and generator g, each found in a dict of the
    elements."""
    elems = [Mat(H.field, x) for x in H.closure()]
    index = {x: i for i, x in enumerate(elems)}
    mats = []
    for g in H.generators:
        P = np.zeros((len(elems), len(elems)), dtype=np.int64)
        for j, x in enumerate(elems):
            P[index[g @ x], j] = 1
        mats.append(P)
    return mats
