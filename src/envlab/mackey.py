"""Induction and restriction for modules over finite matrix groups,
Frobenius reciprocity, Mackey's irreducibility criterion with double-coset
certificates, and Clifford decomposition of a restriction to a normal
subgroup.

A subgroup module is a ModuleRep whose action stack is indexed by the
subgroup's generator list, one matrix per generator (else
DimensionMismatch); module_value evaluates it on a whole stack of
elements along their closure words.  Cosets, double cosets (unions of left
cosets), conjugates, induced blocks and the regular representation are
stacked products over the closures, read back by FinMatGroup.indices;
a SubgroupDatum labels each ambient element with its left coset and keeps
its transversal as a stack.  Modules and transversals stay stacks; a Mat
is built only where a public value is one matrix, as when the failing_rep
of a MackeyVerdict is read.  all_subgroups enumerates subgroups as rows
of one boolean mask matrix over the closure of the ambient group, which
is the only group it closes, joining all the pairs of a round in one
grow_mask, and records each group it returns on the ambient group by its
generator bytes: subgroup_datum and clifford_decompose, given one of
those generator lists, take that group and whatever closure it already
has.  The class of G itself is G, whenever it kept G's generator list,
and G's own list always gives G.  G's right Cayley table covers only its
generators (N x k); there is no |G| x |G| table, nor an |H| x |H| one.

irreducible_modules splits the regular representation F[H] along the
centre Z(F[H]): the class sums, whose structure constants are counted on
H's closure indices, split Z into ideals, over a splitting field into
the lines of the primitive central idempotents (Dixon 1967).  The block
F[H] e of such a line is M_d(F) (Wedderburn), W^d for one irreducible W,
and right multiplication commutes with the left action, so an
eigenspace of one generator's right action, read off H's right Cayley
table with no product, is W when its dimension is d; that dimension is
W's certificate, and no MeatAxe search is made.  Only a block where no
generator has an eigenvalue of multiplicity one in W (Q8 over F_3) is
cut down to dimension d by MeatAxe splits (Holt & Rees 1994).

Nothing a session has answered is searched again, and neither an answer
nor its order depends on the seed.  irreducible_modules sorts its
modules into one canonical order and stores them, each with its
witness and the line of its central idempotent, by coefficient field,
seed and regular representation, in a store that the groups of one
all_subgroups call share with G; so G after its classes, and a class
whose regular representation another had (S4's two C2 classes), search
nothing, and each group keeps the permutations that key the store.

Both verdicts are linear algebra on that split algebra, with no search,
wherever char F does not divide the orders involved.  A SubgroupDatum keeps
its double-coset intersections and the H-indices of their elements and
inverses, so mackey_irreducible evaluates only W, in one word walk, and
tests each intersection by one Reynolds product, a sum of Kronecker
products whose rank is the dimension of the invariants.
clifford_decompose reads the shape of Res_N V from the ranks of V at
N's stored central idempotents, one word walk and one product for all
of them; V over N = G is its own factor, and a field that does not
split N, or one whose characteristic divides |N|, takes
composition_factors instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import count

import numpy as np

from .errors import (CharDividesIndex, DimensionMismatch, NotIrreducible,
                     NotNormal, NotSemisimple, ValidationError)
from .fieldcore import (DEFAULT_SEED, ROOT_SCAN_MAX_Q, FinMatGroup, IrreducibleWitness, Mat,
                        ModuleRep, _certify, _eval_poly_at_matrix, _first_relation,
                        _inverse_stack, _irreducible_factor, _krylov, _roots,
                        _submodule_action, _traces, checked_seed, composition_factors,
                        grow_mask, intertwiners, is_irreducible, meataxe_split,
                        modules_isomorphic, spin)
from .gf import GF, poly_divmod


def module_value(W: ModuleRep, H: FinMatGroup, stack) -> np.ndarray:
    """W at every element of an (..., n, n) stack of elements of H, as an
    (..., m, m) stack (_value_at their closure indices)."""
    if len(W.action) != len(H.gens):
        raise DimensionMismatch("one action matrix per generator of the group")
    idx = H.indices(stack)
    if (idx < 0).any():
        raise ValidationError("the element does not lie in the group")
    return _value_at(W, H, idx)


def _value_at(W: ModuleRep, H: FinMatGroup, idx) -> np.ndarray:
    """W at the elements of H's closure at an array of indices, as a stack
    of matrices of that shape: the product of W over each word_for word,
    all walked at once up the parent vector, applying W(gen[x]) on the
    left."""
    fld = W.field
    # gen[0] = -1 at the identity selects the identity appended here
    mats = np.concatenate([W.action, fld.eye(W.dim)[None]])
    out = mats[H._gen[idx]]
    idx = H._parent[idx]
    while idx.any():
        out = fld.matmul(mats[H._gen[idx]], out)
        idx = H._parent[idx]
    return out


def restrict(V: ModuleRep, G: FinMatGroup, H: FinMatGroup) -> ModuleRep:
    """The module of G viewed over the generators of a subgroup H: V
    itself, certificate and all, when H is G."""
    if H is G and len(V.action) == len(G.gens):
        return V
    if not H.generators or not H.is_subgroup_of(G):
        raise ValidationError("H is not a subgroup of G")
    return ModuleRep(V.field, module_value(V, G, H.gens))


@dataclass
class SubgroupDatum:
    """A subgroup with a left transversal of its ambient group, as a
    read-only (index, n, n) stack; coset[i] is the position in the
    transversal of the left coset that holds ambient element i.

    Built on first use and kept for every W that mackey_irreducible
    tests: the double-coset intersections as stacks (intersections), and
    next to them the closure indices in H that W is evaluated at
    (intersection_indices)."""

    ambient: FinMatGroup
    subgroup: FinMatGroup
    transversal: np.ndarray
    coset: np.ndarray

    @property
    def index(self) -> int:
        return len(self.transversal)

    @property
    def intersections(self) -> list:
        """(g, g^-1 x g, x) over x in gHg^-1 n H, as two stacks in H's
        closure order, for every double-coset representative g after the
        first, the identity."""
        return self._intersected[0]

    @property
    def intersection_indices(self):
        """((conj, x, x_inv), bounds): the closure indices in H of g^-1 x g,
        of x and of x^-1, as three arrays that run through the entries of
        intersections in their order, entry i at bounds[i]:bounds[i + 1]."""
        return self._intersected[1:]

    @cached_property
    def _intersected(self):
        """intersections, and the arrays of intersection_indices.  Both
        inverses are one word walk: (g^-1)^T is the dual of G's natural
        module at g, and (x^-1)^T that of H's at x."""
        G, H, fld = self.ambient, self.subgroup, self.ambient.field
        hs, reps = H.closure(), double_coset_reps(self)[1:]
        dual = ModuleRep(fld, G.gens_inv.transpose(0, 2, 1))
        inv = module_value(dual, G, reps).transpose(0, 2, 1)
        conj = fld.matmul(fld.matmul(inv[:, None], hs), reps[:, None])
        where = H.indices(conj)
        inside = where >= 0
        xs = np.nonzero(inside)[1]
        dual = ModuleRep(fld, H.gens_inv.transpose(0, 2, 1))
        xs_inv = H.indices(_value_at(dual, H, xs).transpose(0, 2, 1))
        stacks = [(g, c[i], hs[i]) for g, c, i in zip(reps, conj, inside)]
        bounds = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
        return stacks, (where[inside], xs, xs_inv), bounds


def _subgroup(G: FinMatGroup, gens) -> FinMatGroup:
    """The subgroup of G on a generator list: G itself on G's list, the
    group that all_subgroups returned for that list, with its closure if
    it has one, else a fresh group."""
    H = FinMatGroup(G.field, list(gens))
    key = H.gens.tobytes()
    return G if key == G.gens.tobytes() else G._subgroups.get(key, H)


def subgroup_datum(ambient: FinMatGroup, subgroup_gens) -> SubgroupDatum:
    """Build the datum, choosing left coset representatives greedily from
    the closure order (the identity represents the subgroup itself)."""
    fld = ambient.field
    H = _subgroup(ambient, subgroup_gens)
    if not H.is_subgroup_of(ambient):
        raise ValidationError("generators do not lie in the ambient group")
    hs, elems = H.closure(), ambient.closure()
    coset = np.full(ambient.order, -1)
    reps = []
    for i, t in enumerate(elems):
        if coset[i] < 0:
            coset[ambient.indices(fld.matmul(t, hs))] = len(reps)
            reps.append(i)
    transversal = elems[reps]
    transversal.setflags(write=False)
    datum = SubgroupDatum(ambient, H, transversal, coset)
    assert datum.index * H.order == ambient.order
    return datum


def induce(sub: SubgroupDatum, W: ModuleRep) -> ModuleRep:
    """Ind_H^G W as block matrices over the transversal: the (i, j) block
    of g is W(t_i^{-1} g t_j) for the one i whose coset t_i H holds g t_j,
    else zero."""
    G, H = sub.ambient, sub.subgroup
    fld, gf = W.field, G.field
    k = sub.index
    if fld.ell and k % fld.ell == 0:
        raise CharDividesIndex(f"characteristic {fld.ell} divides the index {k}")
    m, r, ts = W.dim, len(G.gens), sub.transversal
    gt = gf.matmul(G.gens[:, None], ts)
    rows = sub.coset[G.indices(gt)]
    blocks = module_value(W, H, gf.matmul(_inverse_stack(gf, ts)[rows], gt))
    big = np.zeros((r, k, m, k, m), dtype=np.int64)
    # block (rows[x, j], j) of generator x, for every x and j in one scatter
    big[np.arange(r)[:, None], rows, :, np.arange(k), :] = blocks
    return ModuleRep(fld, big.reshape(r, k * m, k * m))


def frobenius_reciprocity_dim(sub: SubgroupDatum, W: ModuleRep,
                              V: ModuleRep):
    """(dim Hom_G(V, Ind W), dim Hom_H(Res V, W)); the two agree."""
    ind = induce(sub, W)
    lhs = len(intertwiners(V, ind))
    res = restrict(V, sub.ambient, sub.subgroup)
    rhs = len(intertwiners(res, W))
    return lhs, rhs


def dual_module(W: ModuleRep) -> ModuleRep:
    return ModuleRep(W.field, _inverse_stack(W.field, W.action).transpose(0, 2, 1))


def double_coset_reps(sub: SubgroupDatum):
    """One representative per double coset H g H, identity first, as a
    stack: its first element in the ambient closure order, which heads its
    left coset and so is in the transversal.  H g H is the union of the
    cosets h g H."""
    G, fld = sub.ambient, sub.ambient.field
    hs = sub.subgroup.closure()
    covered = np.zeros(sub.index, dtype=bool)
    reps = []
    for j, t in enumerate(sub.transversal):
        if not covered[j]:
            covered[sub.coset[G.indices(fld.matmul(hs, t))]] = True
            reps.append(j)
    return sub.transversal[reps]


@dataclass
class MackeyVerdict:
    """failing is the (field, array) of the double-coset representative
    where condition (II') fails; failing_rep is that one matrix as a Mat."""

    irreducible: bool
    reason: str
    failing: tuple | None = None
    invariant_dim: int | None = None

    @property
    def failing_rep(self) -> Mat | None:
        return None if self.failing is None else Mat(*self.failing)

    def __bool__(self):
        return self.irreducible


def mackey_irreducible(sub: SubgroupDatum, W: ModuleRep,
                       seed: int = DEFAULT_SEED) -> MackeyVerdict:
    """Mackey's criterion: Ind_H^G W is irreducible iff W is irreducible
    and, for every double-coset representative g outside H, the module
    gW (x) W^dual over K = gHg^-1 n H has no invariants.  W is evaluated
    once, at the indices that sub keeps for every intersection (g^-1 x g,
    and x^-1, since W^dual(x) = W(x^-1)^T for a representation W of H, as
    the criterion presumes).  char F does not divide |K|, so the Reynolds
    sum P = sum_x W(g^-1 x g) (x) W(x^-1)^T over K is |K| times the
    projection onto the invariants (Serre, Linear Representations of
    Finite Groups, 7.4): they are nonzero iff P is, and their dimension
    is rank P, read only at the first g where P is nonzero, where the
    test stops."""
    G, H = sub.ambient, sub.subgroup
    fld, gf = W.field, G.field
    if len(W.action) != len(H.gens):  # index 1 evaluates W nowhere
        raise DimensionMismatch("one action matrix per subgroup generator")
    if fld.ell and G.order % fld.ell == 0:
        raise NotSemisimple(
            f"characteristic {fld.ell} divides the group order {G.order}")
    if not is_irreducible(W, seed=seed):
        return MackeyVerdict(False, "W is reducible over H")
    (conj, _, x_inv), bounds = sub.intersection_indices
    values = _value_at(W, H, np.concatenate([conj, x_inv]))
    dual = values[len(conj):].transpose(0, 2, 1)
    for (g, _, _), lo, hi in zip(sub.intersections, bounds, bounds[1:]):
        P = _reynolds_sum(fld, values[lo:hi], dual[lo:hi])
        if P.any():
            return MackeyVerdict(False, "condition (II') fails", (gf, g), fld.rank(P))
    return MackeyVerdict(True, "criterion satisfied")


def _reynolds_sum(fld: GF, A, B) -> np.ndarray:
    """sum_x A_x (x) B_x over an (n, m, m) and an (n, k, k) stack, as one
    product of their value rows, sum_x a_x^T b_x, whose (i, j, l, p) entry
    sum_x A_x[i, j] B_x[l, p] is realigned to the Kronecker order
    (i, l, j, p)."""
    (n, m, _), k = A.shape, B.shape[-1]
    P = fld.matmul(A.reshape(n, m * m).T, B.reshape(n, k * k))
    return P.reshape(m, m, k, k).transpose(0, 2, 1, 3).reshape(m * k, m * k)


@dataclass
class CliffordShape:
    e: int
    f: int
    factors: list

    def __post_init__(self):
        dims = {m.dim for m in self.factors}
        if len(dims) != 1:
            raise ValidationError("Clifford factors must share one dimension")


def clifford_decompose(G: FinMatGroup, n_gens, V: ModuleRep,
                       seed: int = DEFAULT_SEED) -> CliffordShape:
    """Shape of Res_N V for a normal subgroup N and irreducible V: e
    distinct conjugate factors, each with common multiplicity f.

    When char F does not divide |N| and the centre of F[N] splits into
    lines (_stored_irreducibles), the primitive central idempotent b_i of
    each irreducible U_i of N projects V onto its U_i-isotypic part
    (Clifford 1937), so V(b_i) = sum_x b_i(x) V(x) over N's closure, all
    of them from one word walk of V over N's elements and one product,
    is nonzero for the e factors, and rank V(b_i) = f dim U_i.  A line V,
    or V over N = G, is its own one factor, Res_N V; any other case takes
    composition_factors on Res_N V.  That N is a normal subgroup of G is
    checked once per pair and remembered on N."""
    N = _subgroup(G, n_gens)
    if G not in N._normal_in:
        if not N.is_subgroup_of(G) or not N.is_normal_in(G):
            raise NotNormal("N is not a normal subgroup of G")
        N._normal_in.add(G)
    if not is_irreducible(V, seed=seed):
        raise NotIrreducible("V is not irreducible")
    fld = V.field
    if V.dim == 1 or N is G:
        return CliffordShape(1, 1, [restrict(V, G, N)])
    lines = None
    if not (fld.ell and N.order % fld.ell == 0):
        modules, lines = _stored_irreducibles(N, fld, seed)
    if lines is None:
        classes = composition_factors(restrict(V, G, N), seed=seed)
    else:
        values = module_value(V, G, N.closure()).reshape(N.order, -1)
        images = fld.matmul(lines, values).reshape(-1, V.dim, V.dim)
        classes = [(U, fld.rank(b) // U.dim) for U, b in zip(modules, images) if b.any()]
    shapes = {(k, m.dim) for m, k in classes}
    if len(shapes) != 1 or sum(k * m.dim for m, k in classes) != V.dim:
        raise ValidationError("restriction is not of Clifford shape")
    (f, _), = shapes
    return CliffordShape(len(classes), f, [m for m, _ in classes])


def conjugate_module(U: ModuleRep, G: FinMatGroup, N: FinMatGroup,
                     g: Mat) -> ModuleRep:
    """The g-conjugate of an N-module: x acts by U(g^-1 x g)."""
    fld = G.field
    conj = fld.matmul(fld.matmul(fld.inv_matrix(g.array), N.gens), g.array)
    return ModuleRep(U.field, module_value(U, N, conj))


def clifford_blocks_transitive(G: FinMatGroup, n_gens,
                               shape: CliffordShape) -> bool:
    """Whether conjugation by G permutes the iso-classes of factors
    transitively (single orbit)."""
    N = _subgroup(G, n_gens)
    e = shape.e
    reached = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for g in G.generators:
            conj = conjugate_module(shape.factors[i], G, N, g)
            for j in range(e):
                if j not in reached and modules_isomorphic(shape.factors[j], conj):
                    reached.add(j)
                    frontier.append(j)
    return len(reached) == e


def _mask_keys(masks) -> list:
    """The byte key of every row of a boolean (k, N) mask array: its
    packed bits."""
    packed = np.packbits(masks, axis=-1)
    return packed.view(f"V{packed.shape[-1]}").ravel().tolist()


def _number_new(index: dict, keys) -> np.ndarray:
    """The positions in keys of the keys new to index, first occurrences
    only, in order; index numbers them on from its length, in that order."""
    start = len(index)
    got = np.fromiter(map(index.setdefault, keys, count(start)), np.int64, len(keys))
    fresh = np.flatnonzero(got == np.arange(start, start + len(keys)))
    index.update(zip([keys[p] for p in fresh], count(start)))
    return fresh


def all_subgroups(G: FinMatGroup, up_to_conjugacy: bool = True):
    """Every subgroup of a small group, found by closing the cyclic
    subgroups under pairwise joins; optionally one per conjugacy class.

    Subgroups are rows of one boolean (K, N) mask matrix over G's closure,
    the only group closed, in the order they are found, each keyed by its
    packed bits and kept with a generator list.  The powers of all
    elements take one stacked product per step, and give each element's
    inverse for the conjugacy test.  Each round joins, in pair order,
    every unordered pair that is not nested and has a member found in the
    round before: one product of the mask matrix with its complement tests
    the nesting of all pairs, the joins start from the unions of their
    rows, and one grow_mask grows them all over as many disjoint copies
    of G's index space, under the right rows of their generators, read
    from G's right Cayley table (FinMatGroup.right_rows) once per element
    that some generator list holds.  A new subgroup keeps the generators
    of the first pair that reaches it.  Up to conjugacy, a subgroup is
    kept unless it is among the conjugates g H g^-1 of one kept before
    it, which are its row gathered along a table of conjugation.  A
    subgroup whose generator list is G's is returned as G itself, with
    its closure, and every group returned shares G's module store
    (irreducible_modules)."""
    fld, elems = G.field, G.closure()
    N = len(elems)
    # powers[k][x]: the index of x^k, from x^0 = 1 until every x has
    # reached 1 again
    powers, step, done = [np.zeros(N, np.int64), np.arange(N)], elems, np.arange(N) == 0
    while not done.all():
        step = fld.matmul(step, elems)
        powers.append(G.indices(step))
        done |= powers[-1] == 0
    powers = np.array(powers)
    cyclic = np.zeros((N, N), dtype=bool)
    cyclic[np.arange(N)[:, None], powers.T] = True
    index = {}  # packed mask -> row of masks
    first = _number_new(index, _mask_keys(cyclic))
    masks, gens = cyclic[first], [[x] for x in first.tolist()]
    # the right row of every generator element, at slot[x] of rows
    slot, rows = np.full(N, -1), np.empty((0, N), np.int64)
    joined = 0  # pairs among the first `joined` subgroups are done
    while len(masks) > joined:
        K = len(masks)
        outside = masks.astype(np.int64) @ ~masks.T  # |A \ B| for rows A, B
        later = np.arange(K) > np.arange(K)[:, None]
        a, b = np.nonzero(later & (outside > 0) & (outside.T > 0) & (np.arange(K) >= joined))
        if len(a):
            width = max(map(len, gens))
            padded = np.zeros((K, width), np.int64)  # the identity pads
            for i, xs in enumerate(gens):
                padded[i, :len(xs)] = xs
            pair_gens = np.concatenate([padded[a], padded[b]], axis=1)
            missing = np.flatnonzero((slot < 0) & np.isin(np.arange(N), pair_gens))
            slot[missing] = np.arange(len(rows), len(rows) + len(missing))
            rows = np.concatenate([rows, G.right_rows(missing.tolist())])
            # pair p's rows shifted into the p-th copy of the index space
            table = rows[slot[pair_gens]] + np.arange(0, len(a) * N, N)[:, None, None]
            grown = grow_mask((masks[a] | masks[b]).ravel(),
                              table.transpose(1, 0, 2).reshape(2 * width, -1))
            grown = grown.reshape(-1, N)
            fresh = _number_new(index, _mask_keys(grown))
            masks = np.concatenate([masks, grown[fresh]])
            gens += [gens[i] + gens[j] for i, j in zip(a[fresh].tolist(), b[fresh].tolist())]
        joined = K
    if up_to_conjugacy:
        # the first subgroup of each class in the order above; the rest
        # are among the conjugates g H g^-1 of one already kept, and
        # y lies in g H g^-1 where g^-1 y g = conj[g, y] lies in H
        # x^-1 is the power of x just before the first 1 after x^0
        inverses = elems[powers[(powers[1:] == 0).argmax(0), np.arange(N)]]
        conj = G.indices(fld.matmul(fld.matmul(inverses[:, None], elems[None]),
                                    elems[:, None]))
        seen, kept = set(), []
        for i, key in enumerate(index):
            if key not in seen:
                seen.update(_mask_keys(masks[i][conj]))
                kept.append(gens[i])
        gens = kept
    # one Mat per generator element, shared by the generator lists
    mats = {x: Mat(fld, elems[x]) for x in dict.fromkeys(x for xs in gens for x in xs)}
    groups = [FinMatGroup(fld, [mats[x] for x in xs]) for xs in gens]
    own = G.gens.tobytes()
    groups = [G if H.gens.tobytes() == own else H for H in groups]
    G._subgroups.update((H.gens.tobytes(), H) for H in groups)
    for H in groups:
        H._irreducibles = G._irreducibles
    return groups


def _regular_permutations(H: FinMatGroup) -> np.ndarray:
    """For each generator h of H, the closure index of h x for every
    element x: the left-regular representation as a (k, |H|) array, kept
    on H."""
    if H._regular is None:
        H._regular = H.indices(H.field.matmul(H.gens[:, None], H.closure()))
        H._regular.setflags(write=False)
    return H._regular


def regular_rep(H: FinMatGroup, fld: GF) -> ModuleRep:
    """Left-regular representation of H over an arbitrary coefficient
    field (permutation matrices on the element list)."""
    perm = _regular_permutations(H)
    k, n = perm.shape
    P = np.zeros((k, n, n), dtype=np.int64)
    P[np.arange(k)[:, None], perm, np.arange(n)] = 1
    return ModuleRep(fld, P)


def _class_sums(H: FinMatGroup, fld: GF):
    """(cls, M): the conjugacy class number of every element of H's
    closure, the classes numbered in the order of their first elements,
    and the action of every class sum K_i on the centre Z(F[H]), in the
    basis of the class sums, as an (r, r, r) stack over fld.

    All of it is index arithmetic on H's closure: conjugation x -> g^-1 x g
    by each generator g reads the right Cayley table and the inverse of
    the left-regular permutation; class labels are least indices spread
    along it until they stop changing.  K_i K_j = sum_l a[i, j, l] K_l
    where a[i, j, l] counts the u with u^-1 in C_i and u z_l in C_j, for
    the first element z_l of C_l: one right row per class, and one
    bincount over |H| r indices."""
    perm = _regular_permutations(H)
    k, N = perm.shape
    rows = np.arange(k)[:, None]
    left_inv = np.empty_like(perm)
    left_inv[rows, perm] = np.arange(N)
    conj = left_inv[rows, H._right.T]
    label = np.arange(N)
    while not np.array_equal(low := np.minimum(label, label[conj].min(axis=0)), label):
        label = low[low]
    reps, cls = np.unique(label, return_inverse=True)
    r = len(reps)
    right = H.right_rows(reps.tolist())  # right[l, u]: the index of u z_l
    inverse_class = cls[right.argmin(axis=1)][cls]  # the class of u^-1
    a = np.bincount(((inverse_class * r + cls[right]) * r + np.arange(r)[:, None]).ravel(),
                    minlength=r ** 3).reshape(r, r, r)
    return cls, a.transpose(0, 2, 1) % fld.ell


def _factors(fld: GF, p, seed: int) -> list:
    """The monic irreducible factors of a monic squarefree p: x - a for
    each root a, all read in one scan over a field of at most
    ROOT_SCAN_MAX_Q elements, then those of what is left, one
    _irreducible_factor at a time, drawing from an rng seeded with
    seed."""
    roots = _roots(fld, p).tolist() if fld.q <= ROOT_SCAN_MAX_Q else []
    factors = [[fld.scalar_ops[2](a), 1] for a in roots]
    if len(roots) < len(p) - 1:
        p = reduce(lambda rest, f: poly_divmod(fld, rest, f)[0], factors, p)
        rng = np.random.default_rng(seed)
        while len(p) > 1:
            factors.append(f := _irreducible_factor(fld, p, rng))
            p = poly_divmod(fld, p, f)[0]
    return factors


def _central_blocks(H: FinMatGroup, fld: GF, seed: int) -> list:
    """The blocks of Z(F[H]) that the class sums split it into, each the
    row basis of an ideal of Z, written over H's closure (the entry of an
    element being the coefficient of its class sum).  Each class sum
    in turn splits every block of more than one dimension into the
    kernels of the irreducible factors of its minimal polynomial there
    (squarefree, since Z is semisimple when char F does not divide |H|).
    Over a splitting field every class sum is a scalar on each simple
    summand of Z, and central characters differ at some class sum, so
    the blocks end as r lines, each the span of a primitive central
    idempotent."""
    cls, M = _class_sums(H, fld)
    # lines, and larger blocks as (basis, the class sums on its span)
    lines, blocks = [], [(fld.eye(len(M)), M)]
    for i in range(1, len(M)):
        split = []
        for basis, action in blocks:
            A = action[i]
            p = _first_relation(fld, _krylov(fld, A, fld.eye(len(A))))
            if len(p) == 2:
                split.append((basis, action))
                continue
            for f in _factors(fld, p, seed):
                kernel = fld.nullspace(_eval_poly_at_matrix(fld, f, A))
                if len(kernel) == 1:
                    lines.append(fld.matmul(kernel, basis))
                else:
                    # an rref basis is the identity at its pivots, where
                    # coordinates are read
                    kernel, pivots = fld.rref(kernel)
                    split.append((fld.matmul(kernel, basis),
                                  fld.matmul(action, kernel.T)[:, pivots]))
        blocks = split
    return [basis[:, cls] for basis in lines + [basis for basis, _ in blocks]]


def _right_eigenspace(H: FinMatGroup, block: ModuleRep, d: int, pivots, line, seed: int):
    """The rows of a submodule W, in block coordinates, of the block W^d
    of a primitive central idempotent e, d >= 2, cut out by the right
    action of F[H]; None if no generator's right action has an eigenvalue
    of multiplicity one in W.

    The block F[H] e is M_d(F) with F[H] acting on the left, and right
    multiplication commutes with that action, so the eigenspace of an
    eigenvalue lambda of right multiplication by h is a submodule, W^c
    for the multiplicity c of lambda in W(h).  For each generator h_j in
    order, the line's right translates e h_j^k, k <= d, are its row
    scattered along the right Cayley table H._right[:, j] k times, read
    in block coordinates at the pivots of the block's rref rows, with no
    product.  Their first relation is the minimal polynomial p of right
    multiplication by h_j, whose degree is at most d, since e generates
    the block as a right module.  p is squarefree (char F does not divide
    |H|), so the lambda-eigenspace is the image of right multiplication
    by p / (x - lambda), the left ideal spun from e (p / (x - lambda))(h_j).
    The first root lambda, in the order of _factors, whose eigenspace has
    dimension d gives W; a spin is cut off once it passes d."""
    fld = block.field
    for right in H._right.T:
        translates = [line]
        for _ in range(d):
            translates.append(np.empty_like(line))
            translates[-1][right] = translates[-2]
        coords = np.array(translates)[:, pivots]
        p = _first_relation(fld, coords)
        for f in _factors(fld, p, seed):
            if len(f) == 2:
                q = poly_divmod(fld, p, f)[0]
                u = fld.matmul(np.array([q], dtype=np.int64), coords[:len(q)])[0]
                rows = spin(fld, block.action, [u], limit=d).rows
                if len(rows) == d:
                    return np.array(rows)
    return None


def _isotypic_constituent(block: ModuleRep, d: int, searches) -> ModuleRep:
    """The irreducible W of an isotypic module W^d, for a block where no
    generator's right action has an eigenvalue of multiplicity one in W:
    the smaller part of each MeatAxe split (a submodule of W^d, or its
    quotient, is some W^c), each search taking the next seed of
    searches, down to a piece of dimension d, which is W."""
    fld, piece = block.field, block
    while piece.dim > d:
        parts = _submodule_action(fld, piece.action, meataxe_split(piece, next(searches)))
        piece = ModuleRep(fld, min(parts, key=lambda part: part.shape[-1]))
    return piece


def irreducible_modules(H: FinMatGroup, fld: GF, seed: int = DEFAULT_SEED):
    """One module per iso-class of irreducibles of H over the coefficient
    field, for char F prime to |H|, split or not: each irreducible is a
    constituent of the regular representation F[H], which is semisimple.

    F[H] is first split along its centre (_central_blocks): the block of
    a central ideal B is the left ideal F[H] B, spun from B's elements
    under the regular action.  A line B is spanned by a primitive central
    idempotent, whose block is W^d for one irreducible W of dimension d:
    an eigenspace of the right action of a generator (_right_eigenspace),
    or else the piece of dimension d that MeatAxe splits leave
    (_isotypic_constituent), the i-th search of the call taking seed + i;
    either way W is stored with the dimension certificate of
    IrreducibleWitness.  A larger B (only over a field that does not
    split H) takes composition_factors on its block.  The modules are
    sorted by dimension and then by the trace at every element of H's
    closure, in closure order, read from one word walk of their direct
    sum.  The trace functions of non-isomorphic irreducibles are
    linearly independent, so no two keys tie, and the order is the same
    for every seed.

    The modules depend on nothing but the field, the seed and the
    regular representation's action, so they are stored by those, with
    the lines of their central idempotents (_stored_irreducibles), in
    H._irreducibles, which the groups of one all_subgroups call share with
    their ambient group: a later call, on H or on a group whose regular
    representation is the same matrices (two classes of C2, say, which
    number their closures alike), returns a new list of the same, already
    certified, modules.  The action is keyed by its permutations, which H
    keeps, so the regular representation is built, and its centre split,
    only for a key not stored yet."""
    return list(_stored_irreducibles(H, fld, seed)[0])


def _stored_irreducibles(H: FinMatGroup, fld: GF, seed: int):
    """(modules, lines) as H._irreducibles stores them: the modules of
    irreducible_modules, and next to them, row i for module i, the line
    of its primitive central idempotent over H's closure as an (r, |H|)
    array, or None when some block of the centre is not a line."""
    if fld.ell and H.order % fld.ell == 0:
        raise NotSemisimple(
            f"characteristic {fld.ell} divides the group order {H.order}")
    perm = _regular_permutations(H)
    key = (fld, seed, perm.shape, perm.tobytes())
    if key not in H._irreducibles:
        reg = regular_rep(H, fld).action
        searches = count(checked_seed(seed))
        modules, bases = [], _central_blocks(H, fld, seed)
        for basis in bases:
            span, pivots = fld.rref(spin(fld, reg, basis).rows)
            block = ModuleRep(fld, fld.matmul(reg, span.T)[:, pivots])
            if len(basis) > 1:
                modules += [m for m, _ in composition_factors(block, seed=seed)]
                continue
            d = math.isqrt(block.dim)
            assert block.dim == d * d
            if d == 1:
                meataxe_split(block, next(searches))  # a line: no draw
                modules.append(block)
                continue
            eigen = _right_eigenspace(H, block, d, pivots, basis[0], seed)
            W = (_isotypic_constituent(block, d, searches) if eigen is None
                 else ModuleRep(fld, _submodule_action(fld, block.action, eigen)[0]))
            modules.append(_certify(W, IrreducibleWitness(None, d, block.dim)))
        values = _value_at(reduce(ModuleRep.direct_sum, modules), H, np.arange(perm.shape[1]))
        ends = np.cumsum([m.dim for m in modules])
        blocks = [values[:, hi - m.dim:hi, hi - m.dim:hi] for m, hi in zip(modules, ends)]
        sort_keys = [(m.dim, tuple(_traces(fld, b).tolist())) for m, b in zip(modules, blocks)]
        assert len(set(sort_keys)) == len(sort_keys)
        order = sorted(range(len(modules)), key=sort_keys.__getitem__)
        rows = np.concatenate(bases)
        lines = rows[order] if len(rows) == len(bases) else None
        H._irreducibles[key] = [modules[i] for i in order], lines
    return H._irreducibles[key]
