"""Induction and restriction for modules over finite matrix groups,
Frobenius reciprocity, Mackey's irreducibility criterion with double-coset
certificates, and Clifford decomposition of a restriction to a normal
subgroup.

A subgroup module is a ModuleRep whose action stack is indexed by the
subgroup's generator list, one matrix per generator (else
DimensionMismatch); module_value evaluates it on a whole stack of
elements along their closure words.  Left cosets and double cosets are
orbits of index maps on the ambient closure, labelled by least_labels,
and inverses and left products are read off the index tables of
FinMatGroup, all with no product, as is the regular representation
F[H], whose generators act by gathers along H.left and are never
matrices; conjugates by a double-coset representative and induced
blocks are stacked products read back by FinMatGroup.indices.  A SubgroupDatum reads the right rows
of H's generators, labels the ambient elements with their left cosets
and keeps its transversal as a stack, each only when first read (by
induce and double_coset_reps).
Modules and transversals stay stacks; a Mat is built only where a public
value is one matrix, as when the failing_rep of a MackeyVerdict is read.
all_subgroups enumerates subgroups as rows of one boolean mask matrix
over the closure of the ambient group, which is the only group it
closes, joining the pairs of a round by grow_mask in chunks of bounded
size, and records each group it returns on the ambient group by its
generator shape and bytes:
subgroup_datum and clifford_decompose, given one of those generator
lists, take that group and whatever closure it already has.  The class
of G itself is G, whenever it kept G's generator list, and G's own list
always gives G.  Only all_subgroups reads a |G| x |G| right table;
every other stage reads the N x k tables of the generators.

irreducible_modules reads the lines of an abelian H whose exponent e
divides q - 1 off H's right Cayley table: its irreducibles are its |H|
characters H -> F^x (Serre, Linear Representations of Finite Groups,
3.1), found one generator at a time as logs of e-th roots of unity, with
no centre split.  Every other H takes the centre route, which splits
F[H] along its centre Z(F[H]): the class sums, whose structure
constants are counted on H's closure indices, split Z into its simple
summands, over a splitting field into the lines of the primitive
central idempotents (Dixon 1967), and each summand keeps its primitive
central idempotent e.  The block
F[H] e of a summand D, a field of degree k over F, is M_c(D)
(Wedderburn), W^c for one irreducible W of dimension ck, and right
multiplication commutes with the left action, so the kernel of a factor
of the minimal polynomial of one element's right action, read off H's
right Cayley table with no product, is W when its dimension is ck; one
element per conjugacy class is tried, that dimension is W's
certificate, and no MeatAxe search is made.  Only a block that no class
cuts (Q8 over F_3) takes composition_factors (Holt & Rees 1994).

Nothing a session has answered is searched again, and neither an answer
nor its order depends on the seed.  irreducible_modules sorts its
modules into one canonical order, by characters read off those
idempotents, and stores them, each with its witness, its primitive
central idempotent and its character, by coefficient field, seed and
left table H.left, in a store that the groups of one all_subgroups call
share with G; so G after its classes, and a class whose left table
another had (S4's two C2 classes), search nothing.

Both verdicts read those characters mod ell from the stores, with no
search and no double coset, and neither builds a store or walks a
module for its character: the dimension of a space of homs is, mod ell,
the inner product of two characters (Serre, Linear Representations of
Finite Groups, 7.2).  Each has two routes.  For a W that H's store
holds, mackey_irreducible fuses the characters of H's store into G's
classes, one product per subgroup datum, and compares <Ind chi, Ind
chi>_G with <chi, chi>_H: a difference proves that Ind W is reducible,
and equality proves it irreducible while (index - 1) dim W < ell; past
that bound, and for every other W, the datum's double-coset
intersections decide, one Reynolds product per intersection, as they
find the failing representative and invariant_dim of a failure when
those are read.  Where N's store holds N's modules, G's store holds V
and dim V < ell, clifford_decompose reads the rank of V at each of N's
central idempotents b as the trace sum_x b(x) chi_V(x), one product per
(G, N) for all of G's stored modules; every other case takes the
composition factors of Res_N V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

import numpy as np

from .errors import (CharDividesIndex, DimensionMismatch, NotIrreducible,
                     NotNormal, NotSemisimple, ValidationError)
from .fieldcore import (DEFAULT_SEED, EchelonBasis, FinMatGroup, IrreducibleWitness, Mat,
                        ModuleRep, _canonical, _certify, _eval_poly_at_matrix, _factors,
                        _first_relation, _inverse_stack, _read_only, _submodule_action,
                        checked_seed, composition_factors, grow_mask, intertwiners,
                        is_irreducible, least_labels, matrix_minpoly, modules_isomorphic, spin)
from .gf import GF, poly_divmod

# The most entries of one join table of all_subgroups: a round joins its
# pairs in chunks whose (pairs, 2 width, |G|) tables stay below this.
JOIN_ENTRIES = 1 << 20


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
    itself, certificate and all, when H is G.  A generator of H outside G
    is a ValidationError (module_value)."""
    if H is G and len(V.action) == len(G.gens):
        return V
    if not H.generators:
        raise ValidationError("H is not a subgroup of G")
    return ModuleRep(V.field, module_value(V, G, H.gens))


@dataclass
class SubgroupDatum:
    """A subgroup of an ambient group, of index |G| / |H|, with what the
    stages that read its cosets need, each built on first read: rows, the
    right rows of the subgroup's generators over the ambient closure,
    whose orbits are the left cosets; reps, the least ambient closure
    index of each coset, ascending; coset[i], the position in reps of the
    coset that holds ambient element i; and the transversal, the elements
    at reps as a read-only (index, n, n) stack.

    The double-coset intersections, as stacks (intersections), and the
    closure indices in H that W is evaluated at there
    (intersection_indices), are built only for the Reynolds route of
    mackey_irreducible, and kept for every W it tests.  So are the
    excesses resG - resH of the characters that H's store holds, fused
    into G's classes by the first verdict that reads them."""

    ambient: FinMatGroup
    subgroup: FinMatGroup
    _excesses: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def index(self) -> int:
        return self.ambient.order // self.subgroup.order

    @cached_property
    def rows(self) -> np.ndarray:
        G = self.ambient
        return G.right_rows(G.indices(self.subgroup.gens))

    @cached_property
    def _cosets(self):
        """(reps, coset): the left cosets x H, the orbits of rows, each
        represented by its least closure index (the identity represents
        the subgroup itself), numbered in that order."""
        reps, coset = np.unique(least_labels(self.rows), return_inverse=True)
        assert len(reps) == self.index
        return reps, coset

    reps = property(lambda self: self._cosets[0])
    coset = property(lambda self: self._cosets[1])

    @cached_property
    def transversal(self) -> np.ndarray:
        return _read_only(self.ambient.closure()[self.reps])

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
        """intersections, and the arrays of intersection_indices; g^-1 is
        read from G.inverse and x^-1 from H.inverse."""
        G, H, fld = self.ambient, self.subgroup, self.ambient.field
        hs, reps = H.closure(), double_coset_reps(self)[1:]
        inv = G.closure()[G.inverse[G.indices(reps)]]
        conj = fld.matmul(fld.matmul(inv[:, None], hs), reps[:, None])
        where = H.indices(conj)
        inside = where >= 0
        xs = np.nonzero(inside)[1]
        xs_inv = H.inverse[xs]
        stacks = [(g, c[i], hs[i]) for g, c, i in zip(reps, conj, inside)]
        bounds = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
        return stacks, (where[inside], xs, xs_inv), bounds


def _subgroup(G: FinMatGroup, gens) -> FinMatGroup:
    """The subgroup of G on a generator list, Mats or arrays: G itself on
    G's list, the group that all_subgroups returned for that list, with
    its closure if it has one, else a fresh group, the only one built.
    The list is keyed by the shape and bytes of its canonical arrays
    (_gens_key)."""
    gens = list(gens)
    key = _gens_key(np.array([g.array if isinstance(g, Mat) else _canonical(G.field, g)
                              for g in gens], dtype=np.int64))
    H = G if key == _gens_key(G.gens) else G._subgroups.get(key)
    return FinMatGroup(G.field, gens) if H is None else H


def _gens_key(stack: np.ndarray) -> tuple:
    """The registry key of a generator stack: its shape and its bytes, so
    that matrices of another size with the same entries miss."""
    return stack.shape, stack.tobytes()


def subgroup_datum(ambient: FinMatGroup, subgroup_gens) -> SubgroupDatum:
    """The datum of the subgroup on a generator list (_subgroup), once its
    generators are found in the ambient group."""
    H = _subgroup(ambient, subgroup_gens)
    if not H.is_subgroup_of(ambient):
        raise ValidationError("generators do not lie in the ambient group")
    return SubgroupDatum(ambient, H)


def induce(sub: SubgroupDatum, W: ModuleRep) -> ModuleRep:
    """Ind_H^G W as block matrices over the transversal: the (i, j) block
    of g is W(t_i^{-1} g t_j) for the one i whose coset t_i H holds g t_j,
    else zero."""
    G, H = sub.ambient, sub.subgroup
    fld, gf = W.field, G.field
    k = sub.index
    if fld.ell and k % fld.ell == 0:
        raise CharDividesIndex(f"characteristic {fld.ell} divides the index {k}")
    m, r, elems = W.dim, len(G.gens), G.closure()
    gt = G.left[:, sub.reps]
    rows = sub.coset[gt]
    blocks = module_value(W, H, gf.matmul(elems[G.inverse[sub.reps]][rows], elems[gt]))
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
    stack: its least closure index, which heads its left coset and so is
    in the transversal, in ascending order.  H g H is the orbit of g under
    right multiplication by H's generators (sub.rows) and left
    multiplication by their inverses, h^-1 x = (x^-1 h)^-1."""
    G, rows, inv = sub.ambient, sub.rows, sub.ambient.inverse
    labels = least_labels(np.concatenate([rows, inv[rows[:, inv]]]))
    return G.closure()[np.flatnonzero(labels == np.arange(len(labels)))]


class MackeyVerdict:
    """Whether Ind_H^G W is irreducible, and why.  failing is the (field,
    array) of the double-coset representative where condition (II')
    fails, and invariant_dim the dimension of the invariants there;
    failing_rep is that one matrix as a Mat.  Of a failure that the
    residue proved, the two are found by the Reynolds route (reynolds)
    when one of them is first read."""

    def __init__(self, irreducible: bool, reason: str, failing: tuple | None = None,
                 invariant_dim: int | None = None, reynolds=None):
        self.irreducible, self.reason, self._reynolds = irreducible, reason, reynolds
        if reynolds is None:
            self.failing, self.invariant_dim = failing, invariant_dim

    def __getattr__(self, name):
        # reached only while a residue-proved failure has not read them yet
        if name not in ("failing", "invariant_dim") or self._reynolds is None:
            raise AttributeError(name)
        found = self._reynolds()
        self.failing, self.invariant_dim = found.failing, found.invariant_dim
        return getattr(self, name)

    @property
    def failing_rep(self) -> Mat | None:
        return None if self.failing is None else Mat(*self.failing)

    def __bool__(self):
        return self.irreducible


def mackey_irreducible(sub: SubgroupDatum, W: ModuleRep,
                       seed: int = DEFAULT_SEED) -> MackeyVerdict:
    """Mackey's criterion: Ind_H^G W is irreducible iff W is irreducible
    and, for every double-coset representative g outside H, the module
    gW (x) W^dual over K = gHg^-1 n H has no invariants (condition (II')).

    By Mackey's formula and Frobenius reciprocity, dim End_G(Ind W) is
    k = dim End_H(W) plus the dimensions of those invariants, and it is at
    most index k, since Res_H Ind W has dimension index m, m = dim W >= k.
    For modules M, N over F, char F prime to |G|, dim Hom_G(M, N) is
    <chi_M, chi_N>_G mod ell, the trace of the Reynolds projection (Serre,
    Linear Representations of Finite Groups, 7.2-7.4).  So with the
    residues resG = <Ind chi, Ind chi>_G and resH = <chi, chi>_H, the
    excess resG - resH is the sum of the invariant dimensions mod ell, of
    a number from 0 to (index - 1) k: resG != resH proves that (II')
    fails, and resG = resH proves that it holds where (index - 1) m <
    ell.  The excesses are read for the W that H's store holds, from the
    characters stored with them.  Of a failure, failing and invariant_dim
    are found when read.  Where resG = resH and (index - 1) m >= ell (C7
    in D7 over F_3, k = m = 6), and for every W that H's store does not
    hold, the Reynolds route decides (_reynolds_verdict), exactly for
    every irreducible W; no store is built and no W is walked for its
    character."""
    G, H = sub.ambient, sub.subgroup
    fld = W.field
    if len(W.action) != len(H.gens):  # index 1 evaluates W nowhere
        raise DimensionMismatch("one action matrix per subgroup generator")
    if fld.ell and G.order % fld.ell == 0:
        raise NotSemisimple(
            f"characteristic {fld.ell} divides the group order {G.order}")
    if not is_irreducible(W, seed=seed):
        return MackeyVerdict(False, "W is reducible over H")
    key, characters, row = _stored_position(H, W, seed)
    if row is None:
        return _reynolds_verdict(sub, W)
    if key not in sub._excesses:
        sub._excesses[key] = _excesses(G, H, fld, characters)
    if sub._excesses[key][row]:
        return MackeyVerdict(False, "condition (II') fails",
                             reynolds=lambda: _reynolds_verdict(sub, W))
    if (sub.index - 1) * W.dim < fld.ell:
        return MackeyVerdict(True, "criterion satisfied")
    return _reynolds_verdict(sub, W)


def _reynolds_verdict(sub: SubgroupDatum, W: ModuleRep) -> MackeyVerdict:
    """Condition (II') for an irreducible W, one double coset at a time.
    W is evaluated once, at the indices that sub keeps for every
    intersection (g^-1 x g, and x^-1, since W^dual(x) = W(x^-1)^T).  char
    F does not divide |K|, so the Reynolds sum P = sum_x W(g^-1 x g) (x)
    W(x^-1)^T over K is |K| times the projection onto the invariants
    (Serre 7.4): they are nonzero iff P is, and their dimension is rank
    P, read only at the first g where P is nonzero, where the test
    stops."""
    fld, H = W.field, sub.subgroup
    (conj, _, x_inv), bounds = sub.intersection_indices
    values = _value_at(W, H, np.concatenate([conj, x_inv]))
    dual = values[len(conj):].transpose(0, 2, 1)
    for (g, _, _), lo, hi in zip(sub.intersections, bounds, bounds[1:]):
        P = _reynolds_sum(fld, values[lo:hi], dual[lo:hi])
        if P.any():
            return MackeyVerdict(False, "condition (II') fails", (sub.ambient.field, g),
                                 fld.rank(P))
    return MackeyVerdict(True, "criterion satisfied")


def _stored_position(H: FinMatGroup, W: ModuleRep, seed: int):
    """(key, characters, i): the store key of W's field and the seed, and
    where H's store holds W itself under it, the characters stored there
    and W's position among the modules; else (key, None, None).  It builds
    no store."""
    key = _store_key(H, W.field, seed)
    modules, _, characters = H._irreducibles.get(key, ((), None, None))
    return key, characters, next((i for i, U in enumerate(modules) if U is W), None)


def _excesses(G: FinMatGroup, H: FinMatGroup, fld: GF, chars) -> np.ndarray:
    """resG - resH of each character of H, given as the rows of an
    (r, |H|) array over H's closure, in the field of its values.

    H's classes fuse into G's classes C, and Ind chi(C) = |G| / (|H| |C|)
    S[C], S[C] the sum of chi over H n C: S = X Inc, X the characters and
    Inc the incidence of H's elements (as G indices) and G's classes, one
    product for all of them.  resG = sum_C (|G| / (|H|^2 |C|)) S[C]
    S[C^-1] and resH = sum_x (1 / |H|) chi(x) chi(x^-1) are then both
    read off one row-by-row product of [S, X] and its weighted gather at
    the inverses."""
    ell, (reps, cls) = fld.ell, G.classes
    inc = np.zeros((H.order, len(reps)), np.int64)
    inc[np.arange(H.order), cls[G.indices(H.closure())]] = 1
    S = fld.matmul(chars, inc)
    weights = [G.order * pow(H.order ** 2 * int(c), -1, ell) % ell for c in np.bincount(cls)]
    weights += [-pow(H.order, -1, ell) % ell] * H.order
    at_inverses = np.concatenate([S[:, cls[G.inverse[reps]]], chars[:, H.inverse]], axis=1)
    sums = np.concatenate([S, chars], axis=1)
    return fld.matmul(sums[:, None], fld.mul(at_inverses, np.array(weights))[:, :, None])[:, 0, 0]


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

    The trace route: where N's store holds N's modules
    (irreducible_modules, for V's field and the seed), G's store holds V
    itself, and dim V < ell, the primitive central idempotent b_i of each
    irreducible U_i of N projects V onto its U_i-isotypic part (Clifford
    1937), so V(b_i) = sum_x b_i(x) V(x) over N's closure is an
    idempotent, nonzero for the e factors, of rank f dim U_i.  Its trace
    sum_x b_i(x) chi_V(x) is that rank mod ell, so the rank itself
    (_block_traces), and the factors are N's stored modules.  Every other
    case (an N whose store was never built, a V from outside G's store,
    dim V >= ell, or char F dividing |N|) takes composition_factors on
    Res_N V, whose factors may depend on the seed; e, f and the factor
    dimensions do not.  A line, or V over N = G, draws no random element
    on either route, and no route builds a store.  That N is a normal
    subgroup of G is checked once per pair and remembered on N."""
    N = _subgroup(G, n_gens)
    if G not in N._normal_in:
        if not N.is_subgroup_of(G) or not N.is_normal_in(G):
            raise NotNormal("N is not a normal subgroup of G")
        N._normal_in.add(G)
    if not is_irreducible(V, seed=seed):
        raise NotIrreducible("V is not irreducible")
    traced = _block_traces(G, N, V, seed) if V.dim < V.field.ell else None
    if traced is None:
        classes = composition_factors(restrict(V, G, N), seed=seed)
    else:
        classes = [(U, int(r) // U.dim) for U, r in zip(*traced) if r]
    shapes = {(k, m.dim) for m, k in classes}
    if len(shapes) != 1 or sum(k * m.dim for m, k in classes) != V.dim:
        raise ValidationError("restriction is not of Clifford shape")
    (f, _), = shapes
    return CliffordShape(len(classes), f, [m for m, _ in classes])


def _block_traces(G: FinMatGroup, N: FinMatGroup, V: ModuleRep, seed: int):
    """(modules, traces): N's stored modules, and tr V(b_i) = sum_x b_i(x)
    chi_V(x) over N for the central idempotent b_i of each, where N's
    store holds its modules and G's store holds V itself, for V's field
    and the seed; else None.  The traces are V's column of one (r_N, r_G)
    product of N's idempotents with the characters of G's stored modules
    read at N's elements, made once per (G, N) and kept on N."""
    fld = V.field
    stored = N._irreducibles.get(_store_key(N, fld, seed))
    key, characters, column = _stored_position(G, V, seed)
    if stored is None or column is None:
        return None
    modules, idempotents, _ = stored
    kept = vars(N).setdefault("_block_traces", {})
    if (G, key) not in kept:
        kept[G, key] = fld.matmul(idempotents, characters[:, G.indices(N.closure())].T)
    return modules, kept[G, key][:, column]


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
    packed bits and kept with a generator list.  One right table of G,
    right[x, i] the index of i x (FinMatGroup.right_rows of every
    element), gives the powers of all elements, one gather per step, the
    join rows and the conjugates, with no product.  Each round joins, in
    pair order, every unordered pair that is not nested and has a member
    found in the round before: one product of the mask matrix with its
    complement tests the nesting of all pairs, the joins start from the
    unions of their rows, and grow_mask grows them over as many disjoint
    copies of G's index space, under the right rows of their generators,
    in chunks of pairs whose tables hold at most JOIN_ENTRIES entries.  A
    new subgroup keeps the generators of the first pair that reaches it.
    Up to conjugacy, a subgroup is kept unless it is among the conjugates
    g H g^-1 of one kept before it, which are its row gathered along
    g^-1 y g, read from the right table and G.inverse.  A subgroup whose
    generator list is G's is returned as G itself, with its closure, and
    every group returned shares G's module store (irreducible_modules)."""
    fld, elems = G.field, G.closure()
    N = len(elems)
    right = G.right_rows(range(N))  # right[x, i]: the index of i x
    # powers[k][x]: the index of x^k, from x^0 = 1 until every x has
    # reached 1 again
    powers, done = [np.zeros(N, np.int64), np.arange(N)], np.arange(N) == 0
    while not done.all():
        powers.append(right[np.arange(N), powers[-1]])
        done |= powers[-1] == 0
    powers = np.array(powers)
    cyclic = np.zeros((N, N), dtype=bool)
    cyclic[np.arange(N)[:, None], powers.T] = True
    index = {}  # packed mask -> row of masks
    first = _number_new(index, _mask_keys(cyclic))
    masks, gens = cyclic[first], [[x] for x in first.tolist()]
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
            step, new = max(1, JOIN_ENTRIES // (2 * width * N)), [masks]
            for lo in range(0, len(a), step):  # in pair order, a bounded table at a time
                pa, pb = a[lo:lo + step], b[lo:lo + step]
                pair_gens = np.concatenate([padded[pa], padded[pb]], axis=1)
                # pair p's rows shifted into the p-th copy of the index space
                table = right[pair_gens] + np.arange(0, len(pa) * N, N)[:, None, None]
                grown = grow_mask((masks[pa] | masks[pb]).ravel(),
                                  table.transpose(1, 0, 2).reshape(2 * width, -1))
                grown = grown.reshape(-1, N)
                fresh = _number_new(index, _mask_keys(grown))
                new.append(grown[fresh])
                gens += [gens[i] + gens[j] for i, j in zip(pa[fresh].tolist(), pb[fresh].tolist())]
            masks = np.concatenate(new)
        joined = K
    if up_to_conjugacy:
        # the first subgroup of each class in the order above; the rest
        # are among the conjugates g H g^-1 of one already kept, and
        # y lies in g H g^-1 where g^-1 y g = conj[g, y] lies in H, and
        # g^-1 y = (y^-1 g)^-1
        # take keeps the row-major layout whose rows _mask_keys views as bytes
        conj = right[np.arange(N)[:, None], G.inverse[right.take(G.inverse, axis=1)]]
        seen, kept = set(), []
        for i, key in enumerate(index):
            if key not in seen:
                seen.update(_mask_keys(masks[i][conj]))
                kept.append(gens[i])
        gens = kept
    # one Mat per generator element, shared by the generator lists
    mats = {x: Mat(fld, elems[x]) for x in dict.fromkeys(x for xs in gens for x in xs)}
    groups = [FinMatGroup(fld, [mats[x] for x in xs]) for xs in gens]
    own = _gens_key(G.gens)
    groups = [G if _gens_key(H.gens) == own else H for H in groups]
    G._subgroups.update((_gens_key(H.gens), H) for H in groups)
    for H in groups:
        H._irreducibles = G._irreducibles
    return groups


def _class_sums(H: FinMatGroup, fld: GF):
    """(cls, inverse_class, M): the conjugacy class number of every
    element of H's closure, the classes numbered in the order of their
    first elements (so K_0 is the identity), the class number of every
    element's inverse, and the action of every class sum K_i on the
    centre Z(F[H]), in the basis of the class sums, as an (r, r, r) stack
    over fld.

    All of it is index arithmetic on H's closure: the classes are
    H.classes, and inverse_class reads H.inverse.  K_i K_j =
    sum_l a[i, j, l] K_l where a[i, j, l] counts the u with u^-1 in C_i
    and u z_l in C_j, for the first element z_l of C_l: one right row per
    class, and one bincount over |H| r indices."""
    reps, cls = H.classes
    r = len(reps)
    right = H.right_rows(reps.tolist())  # right[l, u]: the index of u z_l
    inverse_class = cls[H.inverse]
    a = np.bincount(((inverse_class * r + cls[right]) * r + np.arange(r)[:, None]).ravel(),
                    minlength=r ** 3).reshape(r, r, r)
    return cls, inverse_class, a.transpose(0, 2, 1) % fld.ell


def _central_blocks(H: FinMatGroup, fld: GF, seed: int):
    """(bases, idempotents, at_inverses): the blocks B of Z(F[H]) that the
    class sums split it into, each the row basis of an ideal of Z, and
    one row per block for its primitive central idempotent e_B, at every
    element x of H's closure and at x^-1, all written over H's closure
    (the entry of an element being the coefficient of its class sum).

    Each class sum in turn splits every block of more than one dimension
    into the kernels of the irreducible factors of its minimal polynomial
    there (squarefree, since Z is semisimple when char F does not divide
    |H|).  Over a splitting field every class sum is a scalar on each
    simple summand of Z, and central characters differ at some class
    sum, so the blocks end as r lines.  Over any field they end as the
    simple summands of Z: the class sums span Z, and a product of two
    fields is not spanned by elements whose minimal polynomials are all
    irreducible.  The identity K_0 is the sum of the e_B, each in the
    span of its own block: its coordinates in the basis of all the
    blocks' rows, one inv_matrix of them, read block by block."""
    cls, inverse_class, M = _class_sums(H, fld)
    # lines, and larger blocks as (basis, the class sums on its span)
    lines, blocks = [], [(fld.eye(len(M)), M)]
    for i in range(1, len(M)):
        split = []
        for basis, action in blocks:
            A = action[i]
            p = matrix_minpoly(fld, A)
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
    bases = lines + [basis for basis, _ in blocks]
    rows = np.concatenate(bases)
    parts = np.zeros((len(bases), len(rows)), np.int64)  # row B: 1's coordinates on B
    parts[np.repeat(np.arange(len(bases)), list(map(len, bases))),
          np.arange(len(rows))] = fld.inv_matrix(rows)[0]
    idempotents = fld.matmul(parts, rows)
    return [basis[:, cls] for basis in bases], idempotents[:, cls], idempotents[:, inverse_class]


def _right_cut(H: FinMatGroup, block: ModuleRep, k: int, e, pivots, seed: int):
    """The irreducible W of the block F[H] e of a primitive central
    idempotent e whose centre has degree k over F, certified, cut out by
    the right action of F[H]; None if no conjugacy class of H cuts it.

    The block is M_c(D), its centre D a field of degree k (Wedderburn; a
    finite division algebra is a field), so W^c with dim W = w = ck, and
    w^2 = k dim block; a block of dimension w is W.  Right multiplication
    commutes with the left action, so for an element h, and an
    irreducible factor f of the minimal polynomial p of right
    multiplication by h, the kernel of f(h) is a submodule W^j: the image
    of right multiplication by (p / f)(h), the left ideal spun from
    e (p / f)(h).  f splits over D into factors of degree
    deg f / gcd(deg f, k), each with a kernel of at least that dimension
    over D, so j = 1 only where deg f divides k, and no other f is tried.
    Right multiplication by g^-1 h g is conjugate to that by h, so only
    the least element of each class other than the identity's is tried
    (H.classes), in ascending order, the generators among them first.
    The translates e h^i, i <= w, are e's row scattered along h's right
    row i times, read in block coordinates at the pivots of the block's
    rref rows, with no product; their first relation is p, of degree at
    most w, since the block acts faithfully on W.  A spin is cut off once
    it passes w rows, and the first of w rows is W, with the dimension
    certificate IrreducibleWitness(None, w, dim block): a submodule of
    W^c of dimension w is W."""
    fld = block.field
    w = math.isqrt(k * block.dim)
    assert w * w == k * block.dim
    witness = IrreducibleWitness(None, w, block.dim)
    if w == block.dim:
        return _certify(block, witness)
    for x in H.classes[0][1:]:
        right = H.right_rows([x])[0]
        translates = [e]
        for _ in range(w):
            translates.append(np.empty_like(e))
            translates[-1][right] = translates[-2]
        coords = np.array(translates)[:, pivots]
        p = _first_relation(fld, coords)
        for f in _factors(fld, p, seed):
            if k % (len(f) - 1) == 0:
                q = poly_divmod(fld, p, f)[0]
                u = fld.matmul(np.array([q], dtype=np.int64), coords[:len(q)])[0]
                rows = spin(fld, block.action, [u], limit=w).rows
                if len(rows) == w:
                    cut = _submodule_action(fld, block.action, np.array(rows))[0]
                    return _certify(ModuleRep(fld, cut), witness)
    return None


def irreducible_modules(H: FinMatGroup, fld: GF, seed: int = DEFAULT_SEED):
    """One module per iso-class of irreducibles of H over the coefficient
    field, for char F prime to |H|, split or not: each irreducible is a
    constituent of the regular representation F[H], which is semisimple.

    An abelian H whose exponent e divides q - 1 takes the line route
    (_line_store): F^x holds the e-th roots of unity, so every
    irreducible is one of the |H| characters chi: H -> F^x, read off H's
    right Cayley table, each stored as the 1 x 1 module chi(g_j) with the
    certificate IrreducibleWitness(None, 1, 1), with no centre split.
    Lines, their idempotents and their characters are canonical, so the
    store holds the bytes the centre route would.

    On the centre route (_centre_store), every other H, F[H] is first
    split along its centre (_central_blocks): the block of a simple
    summand B of Z, of dimension k (a line, k = 1, wherever F splits H),
    is the left ideal F[H] B, spun from B's elements by the generators,
    each a gather along its row of H.left, and read in the same way, with
    no matrix of F[H]; it is W^c for one irreducible W of dimension ck.
    W is the block itself where c = 1, and else the kernel of a factor of
    the right action of one element of some conjugacy class
    (_right_cut); either way W is stored with the dimension certificate
    of IrreducibleWitness.  Only a block that no class cuts goes to
    composition_factors, whose W keeps the certificate its search found.
    The modules are sorted by dimension and then by the trace at every
    element x of H's closure, in closure order, read off the idempotent e
    of W's block as (|H| k / dim W) e(x^-1), k the dimension of B (Serre,
    Linear Representations of Finite Groups, 6.3, summed over the k
    Galois conjugates of a non-split W).  The trace functions of
    non-isomorphic irreducibles are linearly independent, so no two keys
    tie, and the order is the same for every seed.

    The modules depend on nothing but the field, the seed and the
    left-regular permutations H.left, so they are stored by those, with
    their primitive central idempotents and their characters, the sort
    keys, which the Mackey and Clifford verdicts read but never build, in
    H._irreducibles, which the groups of one all_subgroups call share with
    their ambient group: a later call, on H or on a group with the same
    left table (two classes of C2, say, which number their closures
    alike), returns a new list of the same, already certified, modules,
    and a store, by either route, is built only for a key not stored
    yet."""
    return list(_stored_irreducibles(H, fld, seed)[0])


def _store_key(H: FinMatGroup, fld: GF, seed: int) -> tuple:
    """The key of H's modules in H._irreducibles: the coefficient field,
    the seed (checked_seed) and the left-regular permutations H.left, the
    table that the centre route gathers F[H] along."""
    perm = H.left
    return fld, checked_seed(seed), perm.shape, perm.tobytes()


def _stored_irreducibles(H: FinMatGroup, fld: GF, seed: int):
    """(modules, idempotents, characters) as H._irreducibles stores them:
    the modules of irreducible_modules, and next to them, row i for
    module i, its primitive central idempotent and its character over
    H's closure, as two read-only (r, |H|) arrays.  An abelian H whose
    exponent divides q - 1 takes the line route (_line_store), every other
    H the centre route (_centre_store); both store the same bytes where
    both apply, since lines, their idempotents and their characters are
    canonical.  A negative seed is a ValidationError (checked_seed),
    whether or not the store holds the modules for another seed."""
    if fld.ell and H.order % fld.ell == 0:
        raise NotSemisimple(
            f"characteristic {fld.ell} divides the group order {H.order}")
    key = _store_key(H, fld, seed)
    if key not in H._irreducibles:
        e = _split_exponent(H, fld)
        H._irreducibles[key] = _centre_store(H, fld, seed) if e is None else _line_store(H, fld, e)
    return H._irreducibles[key]


def _sorted_store(modules, idempotents, characters):
    """The store entry of the modules, sorted by dimension and then by
    character, entry by entry, with their idempotent and character rows
    as read-only arrays; no two keys tie."""
    keys = np.column_stack([[m.dim for m in modules], characters])
    order = np.lexsort(keys.T[::-1])
    assert (np.diff(keys[order], axis=0) != 0).any(axis=1).all()
    return ([modules[i] for i in order], _read_only(np.asarray(idempotents)[order]),
            _read_only(np.asarray(characters)[order]))


def _centre_store(H: FinMatGroup, fld: GF, seed: int):
    """The store entry of H over fld, from the central blocks of the
    regular representation (irreducible_modules), for any H with char F
    prime to |H|.  Each block is spun and read by gathers: g_j v is
    v[back[j]], back[j] the inverse of g_j's row of H.left."""
    back = np.argsort(H.left, axis=1)
    modules, characters = [], []
    bases, idempotents, at_inverses = _central_blocks(H, fld, seed)
    for basis, e, e_inv in zip(bases, idempotents, at_inverses):
        echelon = EchelonBasis(fld)
        queue = [row for row in map(echelon.add, basis) if row is not None]
        while queue:
            queue.extend(row for row in map(echelon.add, queue.pop()[back]) if row is not None)
        span, pivots = fld.rref(echelon.rows)
        block = ModuleRep(fld, span.T[back[:, pivots]])
        W = _right_cut(H, block, len(basis), e, pivots, seed)
        if W is None:  # no class cuts the block (Q8 over F_3)
            (W, _), = composition_factors(block, seed=seed)
        modules.append(W)
        # the trace of W at x is (|H| k / dim W) e(x^-1), k = dim B
        characters.append(fld.mul(H.order * len(basis) // W.dim % fld.ell, e_inv))
    return _sorted_store(modules, idempotents, characters)


def _split_exponent(H: FinMatGroup, fld: GF) -> int | None:
    """The exponent e of H where H is abelian and e divides q - 1, so that
    F^x holds the e-th roots of unity and every irreducible of H over F
    is a line; else None.  Both are read off H's right Cayley table: H is
    abelian where its generators commute, and each generator's order is
    the length of its walk along its own column back to the identity."""
    H.closure()
    right, k = H._right, len(H.gens)
    at = right[0]  # the closure index of every generator
    if not np.array_equal(right[at], right[at].T):
        return None
    x, orders = at, np.ones(k, np.int64)
    while x.any():
        orders += x > 0
        x = np.where(x > 0, right[x, np.arange(k)], 0)
    e = math.lcm(*orders.tolist())
    return e if (fld.q - 1) % e == 0 else None


def _line_store(H: FinMatGroup, fld: GF, e: int):
    """The store entry of an abelian H of exponent e dividing q - 1: its
    |H| characters chi: H -> F^x (Serre, Linear Representations of Finite
    Groups, 3.1), each the 1 x 1 module chi(g_j), certified as a line by
    IrreducibleWitness(None, 1, 1), with idempotent |H|^-1 chi(x^-1) (6.3)
    and character chi.  No regular representation is formed and no centre
    split.

    Characters are logs to the base zeta = w^((q - 1) / e), w the field's
    least primitive element, mod e, found one generator at a time with no
    product: a character of H_j = <g_1, ..., g_j> extends to H_(j+1) in
    exactly m ways, the roots a of m a = log chi(g^m) mod e, m the least
    power of g = g_(j+1) in H_j, and the extension is log chi(x) + i a on
    the coset H_j g^i, i < m, read down g's column of the right table.
    All characters extend at once, as (characters, elements) arrays."""
    right, N = H._right, H.order
    members = np.zeros(1, np.int64)  # H_j's closure indices, coset by coset
    where = np.full(N, -1)  # the position in members of each element of H_j
    where[0] = 0
    logs = np.zeros((1, 1), np.int64)  # logs[c, i]: log chi_c(members[i])
    for j in range(len(H.gens)):
        cosets = [members]  # H_j g^i: coset i starts at g^i
        while where[(power := right[cosets[-1][0], j])] < 0:
            cosets.append(right[cosets[-1], j])
        m = len(cosets)
        if m == 1:
            continue
        # m divides the order of g, which divides e, and m a = log chi(g^m)
        # has the m roots a_0 + t e / m, a_0 = log chi(g^m) / m
        roots = logs[:, where[power]][:, None] // m + np.arange(m) * (e // m)
        steps = roots[:, :, None] * np.arange(m)  # [c, t, i]: i a_t
        logs = (logs[:, None, None, :] + steps[..., None]) % e
        logs = logs.reshape(-1, m * len(members))
        members = np.concatenate(cosets)
        where[members] = np.arange(len(members))
    zeta = fld.pow(fld.least_primitive(), (fld.q - 1) // e)
    characters = np.array([fld.pow(zeta, i) for i in range(e)], np.int64)[logs[:, where]]
    idempotents = fld.mul(fld.inv(N % fld.ell), characters[:, H.inverse])
    witness = IrreducibleWitness(None, 1, 1)
    modules = [_certify(ModuleRep(fld, chi[right[0]][:, None, None]), witness)
               for chi in characters]
    return _sorted_store(modules, idempotents, characters)
