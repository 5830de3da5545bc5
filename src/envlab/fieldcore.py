"""Matrices and modules over finite fields: group closure, commutants,
MeatAxe splitting, composition factors, semisimplification.

FinMatGroup.closure is envlab's one closure engine: a breadth-first search
over whole frontiers, one stacked GF.matmul per layer, that keeps the
group as an (N, n, n) element stack with a parent vector for words.  Mat
objects for the elements are built only when a caller iterates the
closure; bulk callers (the unipotence scan in nori) read the stack.

Modules are given by the action matrices of a free generating set; no
relations are checked unless a group closure is materialized.  All values
are immutable after construction; randomized routines take an explicit
seed and a budget of random algebra elements.

EchelonBasis is the one incremental echelon basis: spin, the Krylov
minimal polynomial of the MeatAxe and nori.lie_closure grow one row at a
time on it, while GF.rref stays the batch kernel for whole systems.  The
MeatAxe's polynomial arithmetic is the kernel in gf.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import (ClosureOverflow, DimensionMismatch, RandomBudgetExceeded,
                     ValidationError)
from .gf import (GF, field_make, poly_divmod, poly_frobenius_gap, poly_gcd,
                 poly_mul, poly_powmod, poly_sub, poly_trim)

DEFAULT_SEED = 20240901
DEFAULT_MEATAXE_BUDGET = 200
DEFAULT_CLOSURE_CAP = 10 ** 7


def _key(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.int64).tobytes()


class Mat:
    """An n x n matrix over a finite field.  Hashable and immutable.

    Over a prime field entries are reduced mod ell; over GF(ell^d), d > 1,
    they must already be encodings in [0, ell^d), since reducing mod ell^d
    would not be field arithmetic."""

    __slots__ = ("field", "array", "_hash")

    def __init__(self, fld: GF, array):
        self.field = fld
        a = np.array(array, dtype=np.int64)
        if fld.d == 1:
            a %= fld.ell
        elif a.size and a.view(np.uint64).max() >= fld.q:
            # one comparison: negative entries view as huge unsigned values
            raise ValidationError(f"entries over {fld} must lie in [0, {fld.q})")
        a.setflags(write=False)
        self.array = a
        self._hash = None

    @property
    def n(self):
        return self.array.shape[0]

    def __matmul__(self, other):
        return Mat(self.field, self.field.matmul(self.array, other.array))

    def __eq__(self, other):
        return isinstance(other, Mat) and self.field == other.field \
            and self.array.shape == other.array.shape and (self.array == other.array).all()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(_key(self.array))
        return self._hash

    def __repr__(self):
        return f"Mat({self.field}, {self.array.tolist()})"

    def inverse(self):
        return Mat(self.field, self.field.inv_matrix(self.array))

    def is_identity(self):
        return (self.array == np.eye(self.n, dtype=np.int64)).all()

    def is_invertible(self):
        try:
            self.field.inv_matrix(self.array)
            return True
        except ZeroDivisionError:
            return False

    def order(self, cap: int = 10 ** 6) -> int:
        acc, k = self, 1
        while not acc.is_identity():
            acc = acc @ self
            k += 1
            if k > cap:
                raise ClosureOverflow(f"element order exceeds cap {cap}")
        return k

    @staticmethod
    def identity(fld: GF, n: int) -> "Mat":
        return Mat(fld, np.eye(n, dtype=np.int64))


def _keys(stack) -> list:
    """_key of every matrix in an (N, n, n) int64 stack, in one pass."""
    flat = np.ascontiguousarray(stack, dtype=np.int64).reshape(len(stack), -1)
    return flat.view(np.dtype((np.void, flat.shape[1] * 8))).ravel().tolist()


class _Elements(Sequence):
    """The elements of a closed group, in closure order, as Mat objects
    built the first time a caller indexes or iterates."""

    def __init__(self, fld, stack):
        self._field = fld
        self._stack = stack
        self._mats = None

    def __len__(self):
        return len(self._stack)

    def _materialize(self):
        if self._mats is None:
            self._mats = [Mat(self._field, a) for a in self._stack]
        return self._mats

    def __getitem__(self, i):
        return self._materialize()[i]

    def __iter__(self):
        return iter(self._materialize())


class FinMatGroup:
    """A finite matrix group presented by generators, with explicit closure.

    The closure is kept as an (N, n, n) element stack in breadth-first
    order, with a parent vector: element i > 0 is element parent[i] times
    generator gen[i] (a Schreier vector, Seress 2003), so words come from
    walking the parents."""

    def __init__(self, fld: GF, generators):
        self.field = fld
        self.generators = [g if isinstance(g, Mat) else Mat(fld, g) for g in generators]
        for g in self.generators:
            if not g.is_invertible():
                raise ValidationError("generator is not invertible")
        self.n = self.generators[0].n if self.generators else None
        self._elements = None
        self._stack = None
        self._parent = None
        self._gen = None
        self._index = None

    def closure(self, cap: int = DEFAULT_CLOSURE_CAP):
        """Breadth-first closure over whole frontiers: each layer multiplies
        every frontier element by every generator in one stacked product
        and keeps the new products in (element, generator) order.  Returns
        the elements as a sized sequence of Mat; ClosureOverflow once more
        than cap elements are found."""
        if self._elements is not None:
            return self._elements
        if self.n is None:
            raise ValidationError("group has no generators and no dimension")
        fld, n = self.field, self.n
        gens = np.stack([g.array for g in self.generators])
        k = len(gens)
        frontier = fld.eye(n)[None]
        index = {_key(frontier[0]): 0}
        layers, parents, gen_idx = [frontier], [np.array([0])], [np.array([-1])]
        base = 0  # stack position of frontier[0]
        while len(frontier):
            prods = fld.matmul(frontier[:, None], gens[None]).reshape(-1, n, n)
            fresh = []
            for j, key in enumerate(_keys(prods)):
                if key not in index:
                    index[key] = len(index)
                    fresh.append(j)
            if fresh and len(index) > cap:
                raise ClosureOverflow(f"closure exceeded cap {cap}")
            fresh = np.array(fresh, dtype=np.int64)
            parents.append(base + fresh // k)
            gen_idx.append(fresh % k)
            base += len(frontier)
            frontier = prods[fresh]
            layers.append(frontier)
        self._stack = np.concatenate(layers)
        self._stack.setflags(write=False)
        self._parent = np.concatenate(parents)
        self._gen = np.concatenate(gen_idx)
        self._index = index
        self._elements = _Elements(fld, self._stack)
        return self._elements

    def element_stack(self, cap: int = DEFAULT_CLOSURE_CAP) -> np.ndarray:
        """The closure as a read-only (N, n, n) array, in closure order."""
        self.closure(cap)
        return self._stack

    @property
    def order(self) -> int:
        return len(self.closure())

    def __contains__(self, m: Mat) -> bool:
        self.closure()
        return _key(m.array) in self._index

    def element_index(self, m: Mat) -> int:
        self.closure()
        return self._index[_key(m.array)]

    def word_for(self, m: Mat):
        """A word in the generators (indices) evaluating to m: the
        generators along the parent path from the identity."""
        i = self.element_index(m)
        word = []
        while i:
            word.append(int(self._gen[i]))
            i = int(self._parent[i])
        return tuple(reversed(word))

    def is_subgroup_of(self, other: "FinMatGroup") -> bool:
        other.closure()
        return all(g in other for g in self.generators)

    def is_normal_in(self, other: "FinMatGroup") -> bool:
        """Checked on generators; assumes self is a subgroup of other."""
        self.closure()
        for g in other.generators:
            gi = g.inverse()
            for u in self.generators:
                if (g @ u @ gi) not in self:
                    return False
        return True

    @staticmethod
    def trivial(fld: GF, n: int) -> "FinMatGroup":
        g = FinMatGroup(fld, [Mat.identity(fld, n)])
        return g

    # -- JSON interchange (the fieldcore matrix-group format) --

    @staticmethod
    def from_json(doc) -> "FinMatGroup":
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, dict):
            raise ValidationError("a group must be a JSON object")
        modulus = doc.get("modulus")
        if modulus is not None and not _is_int_list(modulus):
            raise ValidationError("modulus must be a list of integers")
        ell, d = json_int(doc, "ell"), json_int(doc, "d", 1)
        fld = field_make(ell, d) if modulus is None else GF(ell, d, tuple(modulus))
        n = json_int(doc, "n")
        flats = doc.get("generators")
        if n < 1 or not isinstance(flats, list) or not flats:
            raise ValidationError("a group needs n >= 1 and at least one generator")
        return FinMatGroup(fld, [matrix_from_flat(fld, n, flat) for flat in flats])

    def to_json(self) -> dict:
        fld = self.field
        gens = []
        for g in self.generators:
            flat = g.array.reshape(-1).tolist()
            if fld.d > 1:
                flat = [list(fld.coeffs(e)) for e in flat]
            gens.append(flat)
        doc = {"ell": fld.ell, "d": fld.d, "n": self.n, "generators": gens}
        if fld.d > 1:
            doc["modulus"] = list(fld.modulus)
        return doc


def generated_subgroup(fld: GF, n: int, candidates, cap: int = DEFAULT_CLOSURE_CAP,
                       conjugators=()) -> FinMatGroup:
    """The subgroup generated by the candidates; with conjugators, its
    normal closure under them.  A candidate already in the closure built so
    far is skipped, so a long list inside a small group costs a membership
    test each; each new generator queues its conjugates by the conjugators."""
    group = FinMatGroup.trivial(fld, n)
    group.closure(cap)
    gens = []
    conj = [(g, g.inverse()) for g in conjugators]
    work = list(candidates)
    for c in work:
        if c in group:
            continue
        gens.append(c)
        group = FinMatGroup(fld, gens)
        group.closure(cap)
        work.extend(g @ c @ gi for g, gi in conj)
    return group


def json_int(doc: dict, key: str, default=None) -> int:
    """doc[key] (or the default) as an int, or ValidationError."""
    value = doc.get(key, default)
    if not isinstance(value, Integral):
        raise ValidationError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(c, Integral) for c in value)


def matrix_from_flat(fld: GF, n: int, flat) -> Mat:
    """An n x n Mat from a row-major JSON list of n*n entries, each an
    integer (reduced mod q) or, over GF(ell^d), a list of at most d
    coefficients, low to high."""
    if not isinstance(flat, list) or len(flat) != n * n:
        raise ValidationError(f"a matrix must be a list of {n * n} entries")
    entries = []
    for e in flat:
        if isinstance(e, Integral):
            entries.append(int(e) % fld.q)
        elif _is_int_list(e) and len(e) <= fld.d:
            entries.append(fld.from_coeffs(e))
        else:
            raise ValidationError(f"matrix entry {e!r} is neither an integer "
                                  f"nor a list of at most {fld.d} integers")
    return Mat(fld, np.array(entries, dtype=np.int64).reshape(n, n))


@dataclass(frozen=True)
class ModuleRep:
    """A module over a free presentation: one action matrix per generator."""

    field: GF
    action: tuple

    def __post_init__(self):
        object.__setattr__(self, "action", tuple(
            m if isinstance(m, Mat) else Mat(self.field, m) for m in self.action))

    @property
    def dim(self) -> int:
        return self.action[0].n if self.action else 0

    @property
    def matrices(self):
        return [m.array for m in self.action]

    def direct_sum(self, other: "ModuleRep") -> "ModuleRep":
        if self.field != other.field or len(self.action) != len(other.action):
            raise DimensionMismatch("direct sum needs matching field and generator count")
        blocks = []
        for a, b in zip(self.action, other.action):
            m = np.zeros((a.n + b.n, a.n + b.n), dtype=np.int64)
            m[:a.n, :a.n] = a.array
            m[a.n:, a.n:] = b.array
            blocks.append(m)
        return ModuleRep(self.field, tuple(blocks))


def module_of_group(G: FinMatGroup) -> ModuleRep:
    """The natural module of a matrix group (generators acting as themselves)."""
    return ModuleRep(G.field, tuple(G.generators))


# -- intertwiners and commutants --

def intertwiners(rho: ModuleRep, sigma: ModuleRep):
    """Basis of {X : rho(g) X = X sigma(g) for all generators g}.

    Returns a list of (rho.dim x sigma.dim) arrays; its length is
    dim Hom(sigma, rho) in the category of modules over the free algebra.
    """
    if rho.field != sigma.field:
        raise DimensionMismatch("modules live over different fields")
    if len(rho.action) != len(sigma.action):
        raise DimensionMismatch("generator lists differ in length")
    fld = rho.field
    n, m = rho.dim, sigma.dim
    if not rho.action:
        raise DimensionMismatch("empty generator list")
    rows = []
    Im = fld.eye(m)
    In = fld.eye(n)
    for R, S in zip(rho.action, sigma.action):
        # row-major vec: vec(R X) = (R kron I) vec, vec(X S) = (I kron S^T) vec
        rows.append(fld.sub(fld.kron(R.array, Im), fld.kron(In, S.array.T)))
    system = np.concatenate(rows, axis=0)
    basis = fld.nullspace(system)
    return [b.reshape(n, m) for b in basis]


def commutant(rho: ModuleRep):
    """(basis, dim) of the algebra commuting with the module action."""
    basis = intertwiners(rho, rho)
    return basis, len(basis)


def invariants_dim(rho: ModuleRep) -> int:
    """Dimension of the simultaneous fixed space of all action matrices."""
    fld = rho.field
    n = rho.dim
    rows = [fld.sub(m.array, fld.eye(n)) for m in rho.action]
    if not rows:
        return n
    return fld.nullspace(np.concatenate(rows, axis=0)).shape[0]


# -- the MeatAxe: polynomials from the gf kernel, one echelon basis --

def _irreducible_factor(fld, p, rng):
    """One irreducible factor of the monic polynomial p, of least degree."""
    # distinct-degree stage
    for k in range(1, len(p)):
        g = poly_gcd(fld, p, poly_frobenius_gap(fld, k, p))
        if len(g) - 1 > 0:
            return _equal_degree_factor(fld, g, k, rng)
    return p


def _equal_degree_factor(fld, g, k, rng):
    """Cantor-Zassenhaus on a monic product of irreducibles of degree k."""
    while len(g) - 1 > k:
        deg = len(g) - 1
        r = poly_trim(rng.integers(0, fld.q, size=deg).tolist())
        if len(r) < 2:
            continue
        if fld.ell == 2:
            # additive trace splits in characteristic 2, where + is -
            h = t = r
            for _ in range(k * fld.d - 1):
                t = poly_divmod(fld, poly_mul(fld, t, t), g)[1]
                h = poly_sub(fld, h, t)
        else:
            h = poly_sub(fld, poly_powmod(fld, r, (fld.q ** k - 1) // 2, g), [1])
        if not h:
            continue
        d = poly_gcd(fld, g, h)
        if 0 < len(d) - 1 < len(g) - 1:
            other = poly_divmod(fld, g, d)[0]
            g = d if len(d) <= len(other) else other
    return g


class EchelonBasis:
    """An incrementally echelonized row basis: each row is monic at its
    pivot and zero at the pivots of the rows added before it."""

    def __init__(self, fld):
        self.fld = fld
        self.rows = []
        self.pivots = []

    def reduce(self, v):
        """v minus the combination of rows that clears it at every pivot."""
        fld = self.fld
        for row, piv in zip(self.rows, self.pivots):
            c = int(v[piv])
            if c:
                v = fld.sub(v, fld.mul(c, row))
        return v

    def add(self, v):
        """Append the reduced v made monic and return it; None if v lies in
        the span."""
        v = self.reduce(np.asarray(v, dtype=np.int64))
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return None
        piv = int(nz[0])
        v = self.fld.mul(v, self.fld.inv(int(v[piv])))
        self.rows.append(v)
        self.pivots.append(piv)
        return v


def _vector_minpoly(fld, A, v):
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


def spin(fld, matrices, seeds):
    """Echelon basis of the smallest subspace containing the seed vectors
    and closed under the (column) action of the given matrices."""
    basis = EchelonBasis(fld)
    queue = [row for row in map(basis.add, seeds) if row is not None]
    while queue:
        v = queue.pop()
        for M in matrices:
            row = basis.add(fld.matmul(M, v[:, None])[:, 0])
            if row is not None:
                queue.append(row)
    return basis


@dataclass(frozen=True)
class IrreducibleWitness:
    """Norton certificate: p(A) has nullity deg p for an irreducible p, a
    kernel vector spins to the whole space and a transpose-kernel vector
    spins to the whole dual space."""

    algebra_element: object
    factor_degree: int


def _random_algebra_element(fld, matrices, n, rng):
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


def _eval_poly_at_matrix(fld, poly, A):
    n = A.shape[0]
    acc = np.zeros((n, n), dtype=np.int64)
    for c in reversed(poly):
        acc = fld.matmul(acc, A)
        acc = fld.add(acc, fld.mul(np.int64(int(c)), fld.eye(n)))
    return acc


def meataxe_split(rho: ModuleRep, seed: int = DEFAULT_SEED,
                  budget: int = DEFAULT_MEATAXE_BUDGET):
    """Either an IrreducibleWitness or the row basis of a proper nonzero
    invariant subspace (as a numpy array)."""
    fld = rho.field
    n = rho.dim
    if n == 1:
        return IrreducibleWitness(None, 1)
    mats = rho.matrices
    if not mats:
        e1 = np.zeros((1, n), dtype=np.int64)
        e1[0, 0] = 1
        return e1
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        A = _random_algebra_element(fld, mats, n, rng)
        v = np.asarray(rng.integers(0, fld.q, size=n), dtype=np.int64)
        if not v.any():
            v[0] = 1
        p = _vector_minpoly(fld, A, v)
        if len(p) <= 1:
            continue
        p0 = _irreducible_factor(fld, p, rng)
        theta = _eval_poly_at_matrix(fld, p0, A)
        null = fld.nullspace(theta)
        if null.shape[0] == 0:
            continue
        w = spin(fld, mats, [null[0]]).rows
        if 0 < len(w) < n:
            return np.array(w)
        nullT = fld.nullspace(theta.T)
        matsT = [m.T for m in mats]
        wT = spin(fld, matsT, [nullT[0]]).rows
        if 0 < len(wT) < n:
            # annihilator of a proper dual submodule is a proper submodule
            return fld.nullspace(np.array(wT))
        if null.shape[0] == len(p0) - 1:
            return IrreducibleWitness(A, len(p0) - 1)
    raise RandomBudgetExceeded(f"no verdict within {budget} random algebra elements")


def is_irreducible(rho: ModuleRep, seed: int = DEFAULT_SEED,
                   budget: int = DEFAULT_MEATAXE_BUDGET) -> bool:
    return isinstance(meataxe_split(rho, seed, budget), IrreducibleWitness)


def _submodule_action(fld, mats, basis):
    """Restrict a module to the invariant row-space `basis` and form the
    quotient.  Returns (sub_mats, quot_mats)."""
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
    QTinv = fld.inv_matrix(QT)
    subs, quots = [], []
    for M in mats:
        Mp = fld.matmul(QTinv, fld.matmul(M, QT))
        if Mp[k:, :k].any():
            raise ValidationError("claimed subspace is not invariant")
        subs.append(Mp[:k, :k])
        quots.append(Mp[k:, k:])
    return subs, quots


def modules_isomorphic(a: ModuleRep, b: ModuleRep) -> bool:
    """Isomorphism test via a nonzero intertwiner; exact for irreducibles."""
    if a.dim != b.dim:
        return False
    return len(intertwiners(a, b)) > 0


def composition_factors(rho: ModuleRep, seed: int = DEFAULT_SEED,
                        budget: int = DEFAULT_MEATAXE_BUDGET):
    """Multiset of irreducible factors, as a list of (ModuleRep, multiplicity)."""
    fld = rho.field
    irreducibles = []
    stack = [tuple(rho.matrices)]
    salt = 0
    while stack:
        mats = stack.pop()
        sub = ModuleRep(fld, mats)
        verdict = meataxe_split(sub, seed + salt, budget)
        salt += 1
        if isinstance(verdict, IrreducibleWitness):
            irreducibles.append(sub)
        else:
            subs, quots = _submodule_action(fld, list(mats), verdict)
            stack.append(tuple(subs))
            stack.append(tuple(quots))
    classes = []
    for m in irreducibles:
        for entry in classes:
            if modules_isomorphic(entry[0], m):
                entry[1] += 1
                break
        else:
            classes.append([m, 1])
    assert sum(m.dim * k for m, k in classes) == rho.dim
    return [(m, k) for m, k in classes]


def semisimplify(rho: ModuleRep, seed: int = DEFAULT_SEED,
                 budget: int = DEFAULT_MEATAXE_BUDGET) -> ModuleRep:
    """Block-diagonal direct sum of the composition factors."""
    factors = composition_factors(rho, seed, budget)
    acc = None
    for m, k in factors:
        for _ in range(k):
            acc = m if acc is None else acc.direct_sum(m)
    return acc


def splitting_degree(rho: ModuleRep) -> int:
    """For an irreducible module, the degree of its commutant field over the
    base field (1 means absolutely irreducible)."""
    _, dim = commutant(rho)
    return dim


def is_absolutely_irreducible(rho: ModuleRep, seed: int = DEFAULT_SEED,
                              budget: int = DEFAULT_MEATAXE_BUDGET) -> bool:
    """Irreducible with scalar commutant.  The commutant of an irreducible
    module over a finite field is a field extension of the base, so no
    scalar extension is needed to decide absolute irreducibility."""
    return is_irreducible(rho, seed, budget) and commutant(rho)[1] == 1


def extend_scalars(rho: ModuleRep, d: int) -> ModuleRep:
    """View a module over the prime field F_ell inside the canonical
    GF(ell^d).  Entries of prime-field matrices are constants, so the
    embedding is the identity on encodings."""
    if rho.field.d != 1:
        raise ValidationError("extend_scalars starts from a prime field")
    big = field_make(rho.field.ell, d)
    return ModuleRep(big, tuple(m.array for m in rho.action))
