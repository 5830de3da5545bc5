"""Induction and restriction for modules over finite matrix groups,
Frobenius reciprocity, Mackey's irreducibility criterion with double-coset
certificates, and Clifford decomposition of a restriction to a normal
subgroup.

A subgroup module is a ModuleRep whose action stack is indexed by the
subgroup's generator list, one matrix per generator (else
DimensionMismatch); module_value evaluates it on a whole stack of
elements along their closure words.  Cosets, double cosets (unions of left
cosets), conjugates, induced blocks, duals and the regular representation
are stacked products over the closures, read back by FinMatGroup.indices;
a SubgroupDatum labels each ambient element with its left coset and keeps
its transversal as a stack.  Modules and transversals stay stacks; a Mat
is built only where a public value is one matrix, as when the failing_rep
of a MackeyVerdict is read.  all_subgroups enumerates subgroups as sets of
closure indices of the ambient group, which is the only group it closes,
and records each group it returns on the ambient group by its generator
bytes: subgroup_datum and clifford_decompose, given one of those
generator lists, take that group and whatever closure it already has.
The class of G itself is G, whenever it kept G's generator list.
G's right Cayley table covers only its generators (N x k); there is no
|G| x |G| table.

irreducible_modules decomposes a group's regular representation once per
coefficient field and seed, and stores the modules on the group: a
session that asks for G's irreducibles after those of each subgroup
class, G among them, searches nothing the second time, and every module
it is handed carries the witness that certified it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CharDividesIndex, DimensionMismatch, NotIrreducible,
                     NotNormal, NotSemisimple, ValidationError)
from .fieldcore import (DEFAULT_SEED, FinMatGroup, Mat, ModuleRep, _inverse_stack,
                        composition_factors, grow_mask, intertwiners,
                        invariants_dim, is_irreducible, modules_isomorphic)
from .gf import GF


def module_value(W: ModuleRep, H: FinMatGroup, stack) -> np.ndarray:
    """W at every element of an (..., n, n) stack of elements of H, as an
    (..., m, m) stack: the product of W over each word_for word, all walked
    at once up the parent vector, applying W(gen[x]) on the left."""
    fld = W.field
    if len(W.action) != len(H.gens):
        raise DimensionMismatch("one action matrix per generator of the group")
    idx = H.indices(stack)
    if (idx < 0).any():
        raise ValidationError("the element does not lie in the group")
    # gen[0] = -1 at the identity selects the identity appended here
    mats = np.concatenate([W.action, fld.eye(W.dim)[None]])
    out = mats[H._gen[idx]]
    idx = H._parent[idx]
    while idx.any():
        out = fld.matmul(mats[H._gen[idx]], out)
        idx = H._parent[idx]
    return out


def restrict(V: ModuleRep, G: FinMatGroup, H: FinMatGroup) -> ModuleRep:
    """The module of G viewed over the generators of a subgroup H."""
    if not H.generators or not H.is_subgroup_of(G):
        raise ValidationError("H is not a subgroup of G")
    return ModuleRep(V.field, module_value(V, G, H.gens))


@dataclass
class SubgroupDatum:
    """A subgroup with a left transversal of its ambient group, as a
    read-only (index, n, n) stack; coset[i] is the position in the
    transversal of the left coset that holds ambient element i."""

    ambient: FinMatGroup
    subgroup: FinMatGroup
    transversal: np.ndarray
    coset: np.ndarray

    @property
    def index(self) -> int:
        return len(self.transversal)


def _subgroup(G: FinMatGroup, gens) -> FinMatGroup:
    """The subgroup of G on a generator list: the group that all_subgroups
    returned for that list, with its closure if it has one, else a fresh
    group."""
    H = FinMatGroup(G.field, list(gens))
    return G._subgroups.get(H.gens.tobytes(), H)


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
    gW (x) W^dual over gHg^-1 n H has no invariants."""
    G, H = sub.ambient, sub.subgroup
    fld, gf = W.field, G.field
    if len(W.action) != len(H.gens):  # index 1 evaluates W nowhere
        raise DimensionMismatch("one action matrix per subgroup generator")
    if fld.ell and G.order % fld.ell == 0:
        raise NotSemisimple(
            f"characteristic {fld.ell} divides the group order {G.order}")
    if not is_irreducible(W, seed=seed):
        return MackeyVerdict(False, "W is reducible over H")
    wdual = dual_module(W)
    hs = H.closure()
    for g in double_coset_reps(sub)[1:]:  # the first, the identity, spans H
        # x in gHg^-1 n H, listed in full, with g^-1 x g
        conj = gf.matmul(gf.matmul(gf.inv_matrix(g), hs), g)
        inside = H.indices(conj) >= 0
        mats = fld.kron(module_value(W, H, conj[inside]), module_value(wdual, H, hs[inside]))
        inv = invariants_dim(ModuleRep(fld, mats))
        if inv > 0:
            return MackeyVerdict(False, "condition (II') fails", (gf, g), inv)
    return MackeyVerdict(True, "criterion satisfied")


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
    distinct conjugate factors, each with common multiplicity f."""
    N = _subgroup(G, n_gens)
    if not N.is_subgroup_of(G) or not N.is_normal_in(G):
        raise NotNormal("N is not a normal subgroup of G")
    if not is_irreducible(V, seed=seed):
        raise NotIrreducible("V is not irreducible")
    res = restrict(V, G, N)
    classes = composition_factors(res, seed=seed)
    mults = {k for _, k in classes}
    dims = {m.dim for m, _ in classes}
    if len(mults) != 1 or len(dims) != 1:
        raise ValidationError("restriction is not of Clifford shape")
    e = len(classes)
    f = mults.pop()
    d = dims.pop()
    assert e * f * d == V.dim
    return CliffordShape(e, f, [m for m, _ in classes])


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


def all_subgroups(G: FinMatGroup, up_to_conjugacy: bool = True):
    """Every subgroup of a small group, found by closing the cyclic
    subgroups under pairwise joins; optionally one per conjugacy class.

    Subgroups are sets of closure indices of G, the only group closed.
    The powers of all elements take one stacked product per step, and
    give each element's inverse for the conjugacy test; a join
    is grow_mask from the union of two subgroups under right
    multiplication by their generators, one index row per generator
    element, read from G's right Cayley table (FinMatGroup.right_rows).
    Each unordered, non-nested pair is joined once, and a new subgroup
    keeps the generators of the first pair that reaches it.  A subgroup
    whose generator list is G's is returned as G itself, with its
    closure."""
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
    subs = {}  # frozenset of element indices -> generator element indices
    for x, cyclic in enumerate(powers.T.tolist()):
        subs.setdefault(frozenset(cyclic), [x])
    rows = {}  # generator element x -> index of y x for every y

    def join(start, gens):
        missing = [x for x in gens if x not in rows]
        rows.update(zip(missing, G.right_rows(missing)))
        mask = np.zeros(N, dtype=bool)
        mask[list(start)] = True
        mask = grow_mask(mask, np.array([rows[x] for x in gens]))
        return frozenset(np.flatnonzero(mask).tolist())

    joined = 0  # pairs among the first `joined` subgroups are done
    while len(subs) > joined:
        keys = list(subs)
        for i, key in enumerate(keys):
            for other in keys[max(i + 1, joined):]:
                if key <= other or other <= key:
                    continue
                gens = subs[key] + subs[other]
                new = join(key | other, gens)
                if new not in subs:
                    subs[new] = gens
        joined = len(keys)
    if up_to_conjugacy:
        # the first subgroup of each class in the order above; the rest
        # are among the conjugates g H g^-1 of one already kept
        # x^-1 is the power of x just before the first 1 after x^0
        inverses = elems[powers[(powers[1:] == 0).argmax(0), np.arange(N)]]
        seen, kept = set(), {}
        for key, gens in subs.items():
            if key in seen:
                continue
            conj = fld.matmul(fld.matmul(elems[:, None], elems[sorted(key)][None]),
                              inverses[:, None])
            seen.update(map(frozenset, G.indices(conj).tolist()))
            kept[key] = gens
        subs = kept
    # one Mat per generator element, shared by the generator lists
    mats = {x: Mat(fld, elems[x])
            for x in dict.fromkeys(x for gens in subs.values() for x in gens)}
    groups = [FinMatGroup(fld, [mats[x] for x in gens]) for gens in subs.values()]
    own = G.gens.tobytes()
    groups = [G if H.gens.tobytes() == own else H for H in groups]
    G._subgroups.update((H.gens.tobytes(), H) for H in groups)
    return groups


def regular_rep(H: FinMatGroup, fld: GF) -> ModuleRep:
    """Left-regular representation of H over an arbitrary coefficient
    field (permutation matrices on the element list)."""
    elems = H.closure()
    k, n = len(H.gens), len(elems)
    P = np.zeros((k, n, n), dtype=np.int64)
    P[np.arange(k)[:, None], H.indices(H.field.matmul(H.gens[:, None], elems)),
      np.arange(n)] = 1
    return ModuleRep(fld, P)


def irreducible_modules(H: FinMatGroup, fld: GF, seed: int = DEFAULT_SEED):
    """One module per iso-class of irreducibles of H over the coefficient
    field, from the regular representation.  Complete when the field is a
    splitting field of characteristic prime to |H|.  The modules are
    stored on H by (field, seed); a later call returns a new list of the
    same, already certified, modules."""
    if fld.ell and H.order % fld.ell == 0:
        raise NotSemisimple(
            f"characteristic {fld.ell} divides the group order {H.order}")
    if (fld, seed) not in H._irreducibles:
        reg = regular_rep(H, fld)
        H._irreducibles[fld, seed] = [m for m, _ in composition_factors(reg, seed=seed)]
    return list(H._irreducibles[fld, seed])
