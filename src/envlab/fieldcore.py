"""Matrices and modules over finite fields: group closure, commutants,
MeatAxe splitting, composition factors, semisimplification.

FinMatGroup.closure is envlab's one closure engine: a breadth-first search
over whole frontiers, one stacked GF.matmul per layer, that returns the
group as a read-only (N, n, n) element stack, with a parent vector for
words and the right Cayley table on the generators that its lookups
found.  FinMatGroup.indices, the one membership lookup, maps any stack to
closure indices.  A subgroup of a closed group is found in its index
space (index_subgroup, grow_mask): a mask over the closure grown under
right rows read from the table, with no matrix product; G+, [G, G] and
the joins of mackey.all_subgroups are such index sets.  Stages pass each other
stacks (FinMatGroup.gens, G[ell], induced blocks); a Mat is built only
where a public function takes or returns one matrix.

Modules are given by the action matrices of a free generating set, held
as one read-only (k, m, m) stack, ModuleRep.action, in the encoding that
_canonical gives every matrix; direct sums, intertwiners and the
MeatAxe's submodule and quotient actions are stacked operations on it.
A module is taken to be a representation of the group whose generators
index it: the library checks no relation among the matrices, and the
CLI checks W(x g) = W(x) W(g) over the group's closure.
All values are immutable after construction, apart from the witness a
ModuleRep may store (below); randomized routines take an explicit seed
and a budget of random algebra elements.

EchelonBasis is the one incremental echelon basis: spin and
nori.lie_closure grow one row at a time on it, reducing each row as a
list of python ints through GF.row_ops, the row operations of GF.rref;
spin multiplies each vector it takes from its queue by all generators
in one stacked GF.matmul.  Every other rank or coordinate question is
answered by one GF.rref: a dimension is a rank, a coordinate is a read
at the pivots (the submodule and quotient actions), and a minimal
polynomial is the first relation of a Krylov sequence, read at the
first non-pivot column (_first_relation).  The MeatAxe's polynomial
arithmetic is the kernel in gf, and _eval_poly_at_matrix, a Horner on a
matrix or a stack, is the one evaluation at matrices (also of nori and
tame).  Over a field of at most ROOT_SCAN_MAX_Q elements, a p with a
root has the least-degree factor x - a for its least root a, found with
no draw by one elementwise Horner on the vector of all field elements
(_roots, which tame shares).

Each irreducible is certified once.  meataxe_split stores the
IrreducibleWitness it finds on that ModuleRep object, and a later call on
the same object returns it without drawing from the rng, whatever seed
and budget it is given.  A witness is a proof, so the verdict does not
depend on the seed; the stored witness is the one the first call's seed
found.  The factors that composition_factors returns arrive certified,
and so do the modules of mackey.irreducible_modules, each W^d's W with
the dimension certificate of IrreducibleWitness in place of a search.
A module that split stores nothing, and a fresh ModuleRep with the same
action is tested afresh, so a verdict never depends on which objects
were tested before.  Nor is a factor certified twice within one
decomposition: composition_factors first compares each piece with the
classes it has certified (modules_isomorphic), and an isomorphism to an
irreducible is itself a proof of irreducibility (Holt & Rees 1994), so
only a piece that matches none is searched.  Nor does it search what
needs no search: a certified module comes back as it is, and a piece on
which every generator is a scalar is counted as copies of a line.  The
seed decides how fast the searches find the factors, and which member
stands for each class, never which classes there are;
mackey.irreducible_modules puts its classes in one canonical order.  A
negative seed is a ValidationError (checked_seed) at every entry that
draws from one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from itertools import count, repeat
from numbers import Integral

import numpy as np

from .errors import (ClosureOverflow, DimensionMismatch, RandomBudgetExceeded,
                     ValidationError)
from .gf import (GF, field_make, poly_distinct_degree, poly_divmod, poly_gcd,
                 poly_mul, poly_powmod, poly_sub, poly_trim)

DEFAULT_SEED = 20240901
DEFAULT_MEATAXE_BUDGET = 200
DEFAULT_CLOSURE_CAP = 10 ** 7


def _canonical(fld: GF, array) -> np.ndarray:
    """A read-only int64 copy of an array of field entries, in the one
    encoding: over a prime field entries are reduced mod ell; over
    GF(ell^d), d > 1, they must already be encodings in [0, ell^d), since
    reducing mod ell^d would not be field arithmetic."""
    a = np.array(array, dtype=np.int64)
    if fld.d == 1:
        a %= fld.ell
    elif a.size and a.view(np.uint64).max() >= fld.q:
        # one comparison: negative entries view as huge unsigned values
        raise ValidationError(f"entries over {fld} must lie in [0, {fld.q})")
    a.setflags(write=False)
    return a


class Mat:
    """An n x n matrix over a finite field, canonical as _canonical makes
    it.  Hashable and immutable."""

    __slots__ = ("field", "array", "_hash")

    def __init__(self, fld: GF, array):
        self.field = fld
        self.array = _canonical(fld, array)
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
            self._hash = hash(self.array.tobytes())
        return self._hash

    def __repr__(self):
        return f"Mat({self.field}, {self.array.tolist()})"

    def inverse(self):
        return Mat(self.field, self.field.inv_matrix(self.array))

    def is_identity(self):
        return (self.array == np.eye(self.n, dtype=np.int64)).all()

    def is_invertible(self):
        return self.field.rank(self.array) == self.n

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
    """The byte key of every matrix in an (..., n, n) stack, in one pass:
    the one key format of the closure index."""
    a = np.ascontiguousarray(stack, dtype=np.int64)
    width = a.shape[-2] * a.shape[-1]
    return a.reshape(-1, width).view(f"V{width * 8}").ravel().tolist()


def grow_mask(mask, rows) -> np.ndarray:
    """The least superset of a boolean mask over a closure that the index
    maps rows, a (k, N) array, send into itself: a search from the whole
    mask, one gather per layer.  From a mask holding the identity and the
    right rows of some elements, that is the subgroup they generate with
    the mask."""
    frontier = np.flatnonzero(mask)
    while len(frontier):
        grown = mask.copy()
        grown[rows[:, frontier]] = True
        frontier = np.flatnonzero(grown & ~mask)
        mask = grown
    return mask


class FinMatGroup:
    """A finite matrix group presented by generators, with explicit closure.

    The closure is kept as an (N, n, n) element stack in breadth-first
    order, with a parent vector: element i > 0 is element parent[i] times
    generator gen[i] (a Schreier vector, Seress 2003), so words come from
    walking the parents, and a right Cayley table on the generators:
    _right[i, j] is the index of element i times generator j.  gens holds
    the generators as one read-only (k, n, n) stack.  Generators must be
    invertible; from_json checks those that come from outside.

    A subgroup that index_subgroup found is an index set of its ambient
    group's closure: its order and membership read that mask, with no
    product and no key of its own.  Asked for its closure, it closes its
    generators like any other group."""

    def __init__(self, fld: GF, generators):
        self.field = fld
        self.generators = [g if isinstance(g, Mat) else Mat(fld, g) for g in generators]
        self.n = self.generators[0].n if self.generators else None
        self.gens = np.array([g.array for g in self.generators], dtype=np.int64)
        self.gens.setflags(write=False)
        self._elements = None
        self._parent = None
        self._gen = None
        self._index = None
        self._slot = None
        self._right = None
        self._gens_inv = None
        # an index_subgroup's ambient group and its members there, as a
        # boolean mask over the ambient closure
        self._ambient = None
        self._mask = None
        # subgroups by generator bytes, as mackey.all_subgroups returned them
        # (the group itself under its own generator list, if that class kept it)
        self._subgroups = {}
        # irreducible modules by (coefficient field, seed, regular
        # representation), as mackey.irreducible_modules found them; the
        # groups of one mackey.all_subgroups call share their ambient's
        self._irreducibles = {}
        # the left-regular permutations of the generators, as
        # mackey.regular_rep first read them, for that store's key
        self._regular = None
        # the groups that mackey.clifford_decompose found this one to be a
        # normal subgroup of
        self._normal_in = set()

    @property
    def gens_inv(self) -> np.ndarray:
        """The inverse of every generator, as a read-only (k, n, n) stack
        in the order of gens, computed once."""
        if self._gens_inv is None:
            self._gens_inv = _inverse_stack(self.field, self.gens)
            self._gens_inv.setflags(write=False)
        return self._gens_inv

    def closure(self, cap: int = DEFAULT_CLOSURE_CAP) -> np.ndarray:
        """Breadth-first closure over whole frontiers: each layer multiplies
        every frontier element by every generator in one stacked product
        and keeps the new products in (element, generator) order.  The
        closure index of every product is kept as the right Cayley table
        _right, so no product is looked up twice.  Returns the elements as
        a read-only (N, n, n) stack in that order; ClosureOverflow once
        more than cap elements are found."""
        if self._elements is not None:
            return self._elements
        if self.n is None:
            raise ValidationError("group has no generators and no dimension")
        fld, n, gens = self.field, self.n, self.gens
        k = len(gens)
        frontier = fld.eye(n)[None]
        # key -> the number of the first product that had it, the identity
        # being product 0; one setdefault per product both looks a product
        # up and numbers it if it is new
        index = dict.fromkeys(_keys(frontier), 0)
        layers, parents, gen_idx = [frontier], [np.array([0])], [np.array([-1])]
        numbers = []
        base, made = 0, 1  # base: stack position of frontier[0]
        while len(frontier):
            prods = fld.matmul(frontier[:, None], gens[None]).reshape(-1, n, n)
            got = np.fromiter(map(index.setdefault, _keys(prods), count(made)),
                              np.int64, len(prods))
            if len(index) > cap:
                raise ClosureOverflow(f"closure exceeded cap {cap}")
            fresh = (got == np.arange(made, made + len(prods))).nonzero()[0]
            numbers.append(got)
            made += len(prods)
            parents.append(base + fresh // k)
            gen_idx.append(fresh % k)
            base += len(frontier)
            frontier = prods[fresh]
            layers.append(frontier)
        # product number -> closure index, and -1 at position -1; product p
        # was new where it kept its own number
        numbers = np.concatenate(numbers)
        self._slot = np.full(made + 1, -1)
        self._slot[0] = 0
        self._slot[1:made][numbers == np.arange(1, made)] = np.arange(1, len(index))
        self._right = self._slot[numbers].reshape(-1, k)
        self._parent = np.concatenate(parents)
        self._gen = np.concatenate(gen_idx)
        self._index = index
        self._elements = np.concatenate(layers)
        self._elements.setflags(write=False)
        return self._elements

    @property
    def order(self) -> int:
        if self._mask is not None:
            return int(self._mask.sum())
        return len(self.closure())

    def indices(self, stack) -> np.ndarray:
        """The closure index of every matrix in an (..., n, n) stack, as an
        array of shape stack.shape[:-2]; -1 marks a matrix outside the
        group."""
        self.closure()
        stack = np.asarray(stack, dtype=np.int64)
        keys = _keys(stack)
        found = np.fromiter(map(self._index.get, keys, repeat(-1)), np.int64, len(keys))
        return self._slot[found].reshape(stack.shape[:-2])

    def members(self, stack) -> np.ndarray:
        """Whether each matrix of an (..., n, n) stack lies in the group;
        an index_subgroup reads its mask and closes nothing of its own."""
        if self._ambient is None:
            return self.indices(stack) >= 0
        idx = self._ambient.indices(stack)
        return (idx >= 0) & self._mask[idx]

    def right_rows(self, xs) -> np.ndarray:
        """For each closure index x in xs, the row i -> index of element i
        times element x, as a (len(xs), N) array: the right Cayley table
        composed along the word of x."""
        self.closure()
        rows = []
        for x in xs:
            row = np.arange(len(self._right))
            for j in self._word(x):
                row = self._right[row, j]
            rows.append(row)
        return np.array(rows, dtype=np.int64).reshape(len(rows), len(self._right))

    def index_subgroup(self, candidates) -> "FinMatGroup":
        """The subgroup generated by the elements at an array of closure
        indices, as a mask over this closure.  The next generator is the
        first candidate outside the span so far, and each span grows the
        last one under the generators' right rows (grow_mask).  With no
        candidate outside the identity it is the trivial group on the
        identity."""
        elems = self.closure()
        mask = np.zeros(len(elems), dtype=bool)
        mask[0] = True
        gens, rest = [], np.asarray(candidates, dtype=np.int64)
        while (outside := rest[~mask[rest]]).size:
            gens.append(int(outside[0]))
            mask = grow_mask(mask, self.right_rows(gens))
            rest = outside[1:]
        H = FinMatGroup(self.field, elems[gens or [0]])
        H._ambient, H._mask = self, mask
        return H

    def __contains__(self, m: Mat) -> bool:
        return bool(self.members(m.array))

    def word_for(self, m: Mat):
        """A word in the generators (indices) evaluating to m: the
        generators along the parent path from the identity."""
        i = int(self.indices(m.array))
        if i < 0:
            raise ValidationError("the element does not lie in the group")
        return tuple(self._word(i))

    def _word(self, i) -> list:
        """The generators along the parent path from the identity to
        element i, in order."""
        word = []
        while i:
            word.append(int(self._gen[i]))
            i = self._parent[i]
        return word[::-1]

    def is_subgroup_of(self, other: "FinMatGroup") -> bool:
        return not self.generators or bool(other.members(self.gens).all())

    def is_normal_in(self, other: "FinMatGroup") -> bool:
        """Checked on generators; assumes self is a subgroup of other."""
        if self.n is None:
            raise ValidationError("group has no generators and no dimension")
        fld = self.field
        conj = fld.matmul(fld.matmul(other.gens[:, None], self.gens[None]),
                          other.gens_inv[:, None])
        return bool(self.members(conj).all())

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
        fld = field_make(ell, d, modulus)
        n = json_int(doc, "n")
        flats = doc.get("generators")
        if n < 1 or not isinstance(flats, list) or not flats:
            raise ValidationError("a group needs n >= 1 and at least one generator")
        gens = [matrix_from_flat(fld, n, flat) for flat in flats]
        if not all(g.is_invertible() for g in gens):
            raise ValidationError("generator is not invertible")
        return FinMatGroup(fld, gens)

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


def _inverse_stack(fld: GF, stack) -> np.ndarray:
    """The inverse of every matrix in a (k, n, n) stack, one rref each."""
    inv = [fld.inv_matrix(m) for m in stack]
    return np.array(inv, dtype=np.int64).reshape(np.shape(stack))


def generator_commutators(G: FinMatGroup) -> np.ndarray:
    """a b a^-1 b^-1 for every pair of generators a before b, in row-major
    pair order, as a (k(k - 1)/2, n, n) stack: one stacked product per
    factor.  [a, a] = 1 and [b, a] = [a, b]^-1 would add nothing to the
    subgroup, the normal closure or the commutant they span."""
    fld, gens, inv = G.field, G.gens, G.gens_inv
    a, b = np.triu_indices(len(gens), 1)
    return fld.matmul(fld.matmul(fld.matmul(gens[a], gens[b]), inv[a]), inv[b])


def _is_int(value) -> bool:
    """An integer, and not a JSON true or false (Python's bool is Integral)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def json_int(doc: dict, key: str, default=None) -> int:
    """doc[key] (or the default) as an int, or ValidationError."""
    value = doc.get(key, default)
    if not _is_int(value):
        raise ValidationError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def matrix_from_flat(fld: GF, n: int, flat) -> Mat:
    """An n x n Mat from a row-major JSON list of n*n entries, each an
    integer (reduced mod ell over F_ell, an encoding in [0, q) otherwise)
    or, over GF(ell^d), a list of at most d coefficients, low to high."""
    if not isinstance(flat, list) or len(flat) != n * n:
        raise ValidationError(f"a matrix must be a list of {n * n} entries")
    entries = []
    for e in flat:
        if _is_int(e):
            if fld.d > 1 and not 0 <= e < fld.q:
                raise ValidationError(f"matrix entry {e} lies outside [0, {fld.q}) over {fld}")
            entries.append(int(e) % fld.q)
        elif _is_int_list(e) and len(e) <= fld.d:
            entries.append(fld.from_coeffs(e))
        else:
            raise ValidationError(f"matrix entry {e!r} is neither an integer "
                                  f"nor a list of at most {fld.d} integers")
    return Mat(fld, np.array(entries, dtype=np.int64).reshape(n, n))


@dataclass(frozen=True, eq=False)
class ModuleRep:
    """A module over a free presentation: action[i] is the matrix of
    generator i, all held as one read-only int64 (k, m, m) stack with
    k, m >= 1.  modules_isomorphic is the comparison.  meataxe_split
    stores the IrreducibleWitness it finds in _witness."""

    field: GF
    action: np.ndarray
    _witness: IrreducibleWitness | None = dataclass_field(default=None, init=False,
                                                          repr=False)

    def __post_init__(self):
        a = _canonical(self.field, self.action)
        if a.ndim != 3 or a.shape[1] != a.shape[2] or not a.size:
            raise ValidationError(f"a module action must be a nonempty (k, m, m) "
                                  f"stack, got shape {a.shape}")
        object.__setattr__(self, "action", a)

    @property
    def dim(self) -> int:
        return self.action.shape[1]

    def direct_sum(self, other: "ModuleRep") -> "ModuleRep":
        if self.field != other.field or len(self.action) != len(other.action):
            raise DimensionMismatch("direct sum needs matching field and generator count")
        a, b = self.dim, other.dim
        out = np.zeros((len(self.action), a + b, a + b), dtype=np.int64)
        out[:, :a, :a] = self.action
        out[:, a:, a:] = other.action
        return ModuleRep(self.field, out)


def module_of_group(G: FinMatGroup) -> ModuleRep:
    """The natural module of a matrix group (generators acting as themselves)."""
    return ModuleRep(G.field, G.gens)


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
    # row-major vec: vec(R X) = (R kron I) vec, vec(X S) = (I kron S^T) vec
    system = fld.sub(fld.kron(rho.action, fld.eye(m)),
                     fld.kron(fld.eye(n), sigma.action.transpose(0, 2, 1)))
    basis = fld.nullspace(system.reshape(-1, n * m))
    return [b.reshape(n, m) for b in basis]


def commutant(rho: ModuleRep):
    """(basis, dim) of the algebra commuting with the module action."""
    basis = intertwiners(rho, rho)
    return basis, len(basis)


# -- the MeatAxe: polynomials from the gf kernel, one echelon basis --

# The largest q at which _irreducible_factor looks for roots by evaluating
# at every element of F_q.  Timed against poly_distinct_degree plus
# _equal_degree_factor on polynomials of degree 2 to 24 with roots (best
# of five, 2 shared cores): the scan was 1.4-7x faster at q = 251 and
# q = 4099, and 1.3-17x slower at q = 65521 and q = 2^16.
ROOT_SCAN_MAX_Q = 4096


def _roots(fld, p) -> np.ndarray:
    """The roots of p in F_q, ascending: p evaluated at every element at
    once, by Horner on the vector of them, one GF.mul and one GF.add a
    coefficient."""
    xs = np.arange(fld.q)
    values = np.full(fld.q, p[-1], dtype=np.int64)
    for c in reversed(p[:-1]):
        values = fld.add(fld.mul(values, xs), c)
    return np.flatnonzero(values == 0)


def _irreducible_factor(fld, p, rng):
    """One irreducible factor of the monic polynomial p, of least degree.

    Over F_q with q <= ROOT_SCAN_MAX_Q, a p with roots gives x - a for its
    least root a (_roots), with no draw.  A p with no root, or a larger
    field, takes the distinct-degree search and Cantor-Zassenhaus, whose
    draws from rng decide which factor of that least degree comes back."""
    if len(p) == 2:
        return p  # monic linear
    if fld.q <= ROOT_SCAN_MAX_Q and len(roots := _roots(fld, p)):
        return [fld.scalar_ops[2](int(roots[0])), 1]
    k, g = poly_distinct_degree(fld, p)
    return _equal_degree_factor(fld, g, k, rng)


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
    pivot and zero at the pivots of the rows added before it.  The rows
    are reduced as lists of python ints through GF.row_ops; rows holds
    each added row once more as an int64 array."""

    def __init__(self, fld):
        self.fld = fld
        self.rows = []
        self.pivots = []
        self._lists = []

    def reduce(self, v):
        """v (a list of python ints) minus the combination of rows that
        clears it at every pivot, as a list."""
        axpy, neg = self.fld.row_ops[0], self.fld.scalar_ops[2]
        for row, piv in zip(self._lists, self.pivots):
            if v[piv]:
                v = axpy(neg(v[piv]), row, v)
        return v

    def add(self, v):
        """Append the reduced v made monic and return it as an int64 array;
        None if v lies in the span."""
        v = self.reduce(np.asarray(v, dtype=np.int64).tolist())
        for piv, c in enumerate(v):
            if c:
                break
        else:
            return None
        v = self.fld.row_ops[1](self.fld.inv(v[piv]), v)
        self._lists.append(v)
        self.pivots.append(piv)
        self.rows.append(np.array(v, dtype=np.int64))
        return self.rows[-1]


def _first_relation(fld, rows):
    """The monic relation sum_{j <= k} c_j rows[j] = 0 at the first row k
    in the span of the rows before it, for a sequence in which that row
    exists and every later row is dependent too (a Krylov sequence): one
    rref of the rows as columns, whose pivots are then the first k
    columns, read at column k.  Coefficients low to high."""
    R, pivots = fld.rref(np.asarray(rows).T)
    return fld.neg(R[:, len(pivots)]).tolist() + [1]


def _krylov(fld, A, X):
    """The rows X, A X, ..., A^n X, each flattened, for an n x n matrix A
    and an array X of n rows."""
    seq = [np.asarray(X, dtype=np.int64)]
    for _ in range(len(A)):
        seq.append(fld.matmul(A, seq[-1]))
    return np.reshape(seq, (len(seq), -1))


def _vector_minpoly(fld, A, v):
    """Monic minimal polynomial of the vector v under the matrix A: the
    first relation among v, Av, ..., A^n v."""
    return _first_relation(fld, _krylov(fld, A, np.reshape(v, (-1, 1))))


def spin(fld, matrices, seeds, limit=None):
    """Echelon basis of the smallest subspace containing the seed vectors
    and closed under the (column) action of the given matrices; given a
    limit, the spin stops as soon as the basis has more rows than that."""
    basis = EchelonBasis(fld)
    queue = [row for row in map(basis.add, seeds) if row is not None]
    while queue and (limit is None or len(basis.rows) <= limit):
        images = fld.matmul(matrices, queue.pop()[:, None])[..., 0]
        queue.extend(row for row in map(basis.add, images) if row is not None)
    return basis


@dataclass(frozen=True)
class IrreducibleWitness:
    """A proof that a module is irreducible, of one of two kinds.

    The Norton certificate (block_dim None): p(A) has nullity deg p =
    factor_degree for an irreducible p and the algebra element A, a kernel
    vector spins to the whole space and a transpose-kernel vector spins to
    the whole dual space; a line, (None, 1), needs none of it.

    The dimension certificate (algebra_element None, factor_degree the
    module's dimension d, block_dim = d^2): the module is a d-dimensional
    submodule of the block F[H] e of a primitive central idempotent e
    whose line spans the centre of that block, which is then M_d(F)
    (Wedderburn; a finite division algebra is a field), so W^d for one
    irreducible W of dimension d; a submodule of W^d is some W^c, so one
    of dimension d is W (mackey.irreducible_modules).

    meataxe_split stores a witness on the module it certifies
    (ModuleRep._witness, _certify) and returns the stored one to any later
    call on that module, for every seed."""

    algebra_element: object
    factor_degree: int
    block_dim: int | None = None


def _random_algebra_element(fld, matrices, n, rng):
    acc = np.zeros((n, n), dtype=np.int64)
    for _ in range(int(rng.integers(1, 4))):
        length = int(rng.integers(1, 4))
        word = matrices[int(rng.integers(0, len(matrices)))]
        for _ in range(length - 1):
            word = fld.matmul(word, matrices[int(rng.integers(0, len(matrices)))])
        c = np.int64(int(rng.integers(1, fld.q)))
        acc = fld.add(acc, fld.mul(c, word))
    if int(rng.integers(0, 2)):
        diag = np.diag_indices(n)
        acc[diag] = fld.add(acc[diag], int(rng.integers(0, fld.q)))
    return acc


def _eval_poly_at_matrix(fld, poly, A):
    """p(A) by Horner's rule, each coefficient added on the diagonal, for
    a matrix or a (..., n, n) stack of them at once."""
    i, j = np.diag_indices(A.shape[-1])
    acc = np.zeros(A.shape, dtype=np.int64)
    acc[..., i, j] = poly[-1]
    for c in reversed(poly[:-1]):
        acc = fld.matmul(acc, A)
        acc[..., i, j] = fld.add(acc[..., i, j], c)
    return acc


def checked_seed(seed: int) -> int:
    """The seed, or ValidationError if it is negative: numpy's generators
    take no negative seed, and a seed is checked before any draw or stored
    verdict could hide it."""
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return seed


def meataxe_split(rho: ModuleRep, seed: int = DEFAULT_SEED,
                  budget: int = DEFAULT_MEATAXE_BUDGET):
    """Either an IrreducibleWitness or the row basis of a proper nonzero
    invariant subspace (as a numpy array).  A witness is stored on rho,
    and a later call on rho returns it for any valid seed and budget."""
    checked_seed(seed)
    if rho._witness is None:
        verdict = _meataxe_search(rho, seed, budget)
        if not isinstance(verdict, IrreducibleWitness):
            return verdict
        _certify(rho, verdict)
    return rho._witness


def _certify(rho: ModuleRep, witness: IrreducibleWitness) -> ModuleRep:
    """rho, with witness stored as its proof of irreducibility."""
    object.__setattr__(rho, "_witness", witness)
    return rho


def _meataxe_search(rho, seed, budget):
    fld = rho.field
    n = rho.dim
    if n == 1:
        return IrreducibleWitness(None, 1)
    mats = rho.action
    rng = np.random.default_rng(checked_seed(seed))
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
        wT = spin(fld, mats.transpose(0, 2, 1), [nullT[0]]).rows
        if 0 < len(wT) < n:
            # annihilator of a proper dual submodule is a proper submodule
            return fld.nullspace(np.array(wT))
        if null.shape[0] == len(p0) - 1:
            return IrreducibleWitness(A, len(p0) - 1)
    raise RandomBudgetExceeded(f"no verdict within {budget} random algebra elements")


def is_irreducible(rho: ModuleRep, seed: int = DEFAULT_SEED,
                   budget: int = DEFAULT_MEATAXE_BUDGET) -> bool:
    return isinstance(meataxe_split(rho, seed, budget), IrreducibleWitness)


def _submodule_action(fld, action, basis):
    """Restrict a (k, n, n) action stack to the invariant row-space `basis`
    and form the quotient, in the basis of the rref rows R of `basis`
    followed by the unit vectors at its free columns.  R is the identity
    at its pivot columns, so every coordinate is a read there: the
    submodule action is (A R^T)[pivots], and the quotient action is
    A[free, free] - R[:, free]^T A[pivots, free].  Returns the (sub,
    quotient) action stacks."""
    R, pivots = fld.rref(basis)
    free = [c for c in range(R.shape[1]) if c not in pivots]
    image = fld.matmul(action, R.T)
    sub = image[:, pivots]
    if not np.array_equal(image, fld.matmul(R.T, sub)):
        raise ValidationError("claimed subspace is not invariant")
    above = fld.matmul(R[:, free].T, action[:, pivots][:, :, free])
    return sub, fld.sub(action[:, free][:, :, free], above)


def _traces(fld: GF, stack) -> np.ndarray:
    """The trace of every matrix of an (..., m, m) stack, summed with
    GF.add."""
    diagonal = np.diagonal(stack, axis1=-2, axis2=-1)
    trace = diagonal[..., 0]
    for j in range(1, diagonal.shape[-1]):
        trace = fld.add(trace, diagonal[..., j])
    return trace


def modules_isomorphic(a: ModuleRep, b: ModuleRep) -> bool:
    """Whether a nonzero intertwiner from b to a exists, for modules of one
    dimension.  Exact when a or b is irreducible: the image or the kernel
    of a nonzero hom is a submodule, so the hom is an isomorphism.  Each
    generator's trace is an invariant, so the intertwiner system is
    solved only when every trace agrees."""
    if a.dim != b.dim:
        return False
    if (a.field == b.field and len(a.action) == len(b.action)
            and not np.array_equal(_traces(a.field, a.action), _traces(b.field, b.action))):
        return False
    return len(intertwiners(a, b)) > 0


def composition_factors(rho: ModuleRep, seed: int = DEFAULT_SEED,
                        budget: int = DEFAULT_MEATAXE_BUDGET):
    """Multiset of irreducible factors, as a list of (ModuleRep,
    multiplicity), one class per iso-class in the order its first member
    was certified, that member standing for it.  That order and those
    members depend on the seed; the classes and multiplicities do not.

    Pieces are split off a stack, rho itself first, and only a piece that
    no rule below answers is searched, the i-th search with seed + i:
    - rho is popped as the object it is, so a certified rho comes back as
      its own single class, and meataxe_split returns its stored witness;
    - a piece on which every generator acts as a scalar c is dim copies of
      the 1 x 1 class (c);
    - any other piece is first compared with the classes found so far.
      Those are irreducible, so a match is exact (modules_isomorphic) and
      is counted with no search."""
    fld = rho.field
    classes = []
    stack = [rho]
    searches = 0
    while stack:
        piece = stack.pop()
        line = piece.action[:, :1, :1]
        if np.array_equal(piece.action, line * np.eye(piece.dim, dtype=np.int64)):
            known = next((entry for entry in classes
                          if np.array_equal(entry[0].action, line)), None)
            if known:
                known[1] += piece.dim
            else:
                one = piece if piece.dim == 1 else ModuleRep(fld, line)
                meataxe_split(one, seed, budget)  # a line: no draw
                classes.append([one, piece.dim])
            continue
        known = next((entry for entry in classes if modules_isomorphic(entry[0], piece)),
                     None)
        if known:
            known[1] += 1
            continue
        verdict = meataxe_split(piece, seed + searches, budget)
        searches += 1
        if isinstance(verdict, IrreducibleWitness):
            classes.append([piece, 1])
        else:
            stack.extend(ModuleRep(fld, a) for a in _submodule_action(fld, piece.action, verdict))
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
    return ModuleRep(big, rho.action)
