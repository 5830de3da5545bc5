"""Induction and restriction for modules over finite matrix groups,
Frobenius reciprocity, Mackey's irreducibility criterion with double-coset
certificates, and Clifford decomposition of a restriction to a normal
subgroup.

A subgroup module is a ModuleRep whose action matrices are indexed by the
subgroup's generator list; values at arbitrary elements come from the
cached closure words, so everything here assumes the groups are small
enough to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CharDividesIndex, DimensionMismatch, NotIrreducible,
                     NotNormal, NotSemisimple, ValidationError)
from .fieldcore import (DEFAULT_SEED, FinMatGroup, Mat, ModuleRep, _key,
                        composition_factors, intertwiners, invariants_dim,
                        is_irreducible, modules_isomorphic)
from .gf import GF


def module_value(W: ModuleRep, H: FinMatGroup, h: Mat) -> np.ndarray:
    """W evaluated at an arbitrary element of H, via a closure word."""
    fld = W.field
    out = fld.eye(W.dim)
    for gi in H.word_for(h):
        out = fld.matmul(out, W.matrices[gi])
    return out


def restrict(V: ModuleRep, G: FinMatGroup, H: FinMatGroup) -> ModuleRep:
    """The module of G viewed over the generators of a subgroup H."""
    if not H.is_subgroup_of(G):
        raise ValidationError("H is not a subgroup of G")
    return ModuleRep(V.field, tuple(module_value(V, G, h) for h in H.generators))


@dataclass
class SubgroupDatum:
    """A subgroup with a left transversal of its ambient group."""

    ambient: FinMatGroup
    subgroup: FinMatGroup
    transversal: list

    @property
    def index(self) -> int:
        return len(self.transversal)


def subgroup_datum(ambient: FinMatGroup, subgroup_gens) -> SubgroupDatum:
    """Build the datum, choosing left coset representatives greedily from
    the closure order (the identity represents the subgroup itself)."""
    H = FinMatGroup(ambient.field, list(subgroup_gens))
    if not H.is_subgroup_of(ambient):
        raise ValidationError("generators do not lie in the ambient group")
    covered = set()
    reps = []
    h_elems = H.closure()
    for t in ambient.closure():
        k = _key(t.array)
        if k in covered:
            continue
        reps.append(t)
        for h in h_elems:
            covered.add(_key((t @ h).array))
    datum = SubgroupDatum(ambient, H, reps)
    assert datum.index * H.order == ambient.order
    return datum


def induce(sub: SubgroupDatum, W: ModuleRep) -> ModuleRep:
    """Ind_H^G W as block matrices over the transversal: the (i, j) block
    of g is W(t_i^{-1} g t_j) when that element lies in H, else zero."""
    G, H, T = sub.ambient, sub.subgroup, sub.transversal
    fld = W.field
    if len(W.action) != len(H.generators):
        raise DimensionMismatch("one action matrix per subgroup generator")
    k = sub.index
    if fld.ell and k % fld.ell == 0:
        raise CharDividesIndex(f"characteristic {fld.ell} divides the index {k}")
    m = W.dim
    t_inv = [t.inverse() for t in T]
    mats = []
    for g in G.generators:
        big = np.zeros((k * m, k * m), dtype=np.int64)
        for j in range(k):
            gt = g @ T[j]
            for i in range(k):
                h = t_inv[i] @ gt
                if h in H:
                    big[i * m:(i + 1) * m, j * m:(j + 1) * m] = module_value(W, H, h)
                    break
        mats.append(big)
    return ModuleRep(fld, tuple(mats))


def frobenius_reciprocity_dim(sub: SubgroupDatum, W: ModuleRep,
                              V: ModuleRep):
    """(dim Hom_G(V, Ind W), dim Hom_H(Res V, W)); the two agree."""
    ind = induce(sub, W)
    lhs = len(intertwiners(V, ind))
    res = restrict(V, sub.ambient, sub.subgroup)
    rhs = len(intertwiners(res, W))
    return lhs, rhs


def dual_module(W: ModuleRep) -> ModuleRep:
    fld = W.field
    return ModuleRep(fld, tuple(
        fld.inv_matrix(m).T.copy() for m in W.matrices))


def double_coset_reps(sub: SubgroupDatum):
    """One representative per double coset H g H, identity first."""
    G, H = sub.ambient, sub.subgroup
    h_elems = H.closure()
    covered = set()
    reps = []
    for g in G.closure():
        if _key(g.array) in covered:
            continue
        reps.append(g)
        for a in h_elems:
            ag = a @ g
            for b in h_elems:
                covered.add(_key((ag @ b).array))
    return reps


@dataclass
class MackeyVerdict:
    irreducible: bool
    reason: str
    failing_rep: Mat | None = None
    invariant_dim: int | None = None

    def __bool__(self):
        return self.irreducible


def mackey_irreducible(sub: SubgroupDatum, W: ModuleRep,
                       seed: int = DEFAULT_SEED) -> MackeyVerdict:
    """Mackey's criterion: Ind_H^G W is irreducible iff W is irreducible
    and, for every double-coset representative g outside H, the module
    gW (x) W^dual over gHg^-1 n H has no invariants."""
    G, H = sub.ambient, sub.subgroup
    fld = W.field
    if fld.ell and G.order % fld.ell == 0:
        raise NotSemisimple(
            f"characteristic {fld.ell} divides the group order {G.order}")
    if not is_irreducible(W, seed=seed):
        return MackeyVerdict(False, "W is reducible over H")
    wdual = dual_module(W)
    h_elems = H.closure()
    for g in double_coset_reps(sub):
        if g in H:
            continue
        ginv = g.inverse()
        # gHg^-1 n H, listed in full (these groups are tiny)
        k_elems = [x for x in h_elems if (ginv @ x @ g) in H]
        mats = []
        for x in k_elems:
            left = module_value(W, H, ginv @ x @ g)
            right = module_value(wdual, H, x)
            mats.append(fld.kron(left, right))
        inv = invariants_dim(ModuleRep(fld, tuple(mats)))
        if inv > 0:
            return MackeyVerdict(False, "condition (II') fails", g, inv)
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
    N = FinMatGroup(G.field, list(n_gens))
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
    ginv = g.inverse()
    return ModuleRep(U.field, tuple(
        module_value(U, N, ginv @ n @ g) for n in N.generators))


def clifford_blocks_transitive(G: FinMatGroup, n_gens,
                               shape: CliffordShape) -> bool:
    """Whether conjugation by G permutes the iso-classes of factors
    transitively (single orbit)."""
    N = FinMatGroup(G.field, list(n_gens))
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
    subgroups under pairwise joins; optionally one per conjugacy class."""
    elems = G.closure()
    subs = {}  # frozenset of element indices -> generator list

    def record(gens):
        H = FinMatGroup(G.field, gens)
        key = frozenset(G.element_index(x) for x in H.closure())
        if key not in subs:
            subs[key] = gens
        return key

    record([Mat.identity(G.field, G.n)])
    for g in elems:
        record([g])
    while True:
        before = len(subs)
        pairs = list(subs.items())
        for key, gens in pairs:
            for other, ogens in pairs:
                if key <= other or other <= key:
                    continue
                record(gens + ogens)
        if len(subs) == before:
            break
    groups = [FinMatGroup(G.field, gens) for gens in subs.values()]
    if not up_to_conjugacy:
        return groups
    seen = set()
    out = []
    for H in groups:
        orbit = []
        for g in elems:
            gi = g.inverse()
            conj = frozenset(G.element_index(g @ x @ gi) for x in H.closure())
            orbit.append(conj)
        canon = min(orbit, key=lambda s: tuple(sorted(s)))
        if canon not in seen:
            seen.add(canon)
            out.append(H)
    return out


def regular_rep(H: FinMatGroup, fld: GF) -> ModuleRep:
    """Left-regular representation of H over an arbitrary coefficient
    field (permutation matrices on the element list)."""
    elems = H.closure()
    n = len(elems)
    mats = []
    for g in H.generators:
        P = np.zeros((n, n), dtype=np.int64)
        for j, x in enumerate(elems):
            P[H.element_index(g @ x), j] = 1
        mats.append(P)
    return ModuleRep(fld, tuple(mats))


def irreducible_modules(H: FinMatGroup, fld: GF, seed: int = DEFAULT_SEED):
    """One module per iso-class of irreducibles of H over the coefficient
    field, from the regular representation.  Complete when the field is a
    splitting field of characteristic prime to |H|."""
    if fld.ell and H.order % fld.ell == 0:
        raise NotSemisimple(
            f"characteristic {fld.ell} divides the group order {H.order}")
    reg = regular_rep(H, fld)
    return [m for m, _ in composition_factors(reg, seed=seed)]
