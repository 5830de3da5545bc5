"""Envelope reports: given a finite matrix group standing in for a mod-ell
monodromy image, collect its finite-level observables (exponential closure
orders, commutant dimensions, composition factor dimensions, Lie rank
estimate, optional tame weights) and evaluate the named predicate checks.
Also the case-elimination driver over formal-character predicates.

The Nori stage closes G only; G+ is an index set of G's closure, as is
[G, G] when derived_subgroup is asked for it.  The three commutants of
the report are one chain (commutant_chain) and close no group: one
intertwiner system gives K0, the commutant of the generator commutators,
and End_G(V), End_[G,G](V) and End_G+(V) are solved in nested subspaces
of it, each with as many unknowns as the space it is solved in has
dimensions.  End_G(V) is the part of K0 that commutes with G's
generators; End_[G,G](V) is the largest subspace of K0 that conjugation
by every generator maps into itself, found in rounds that stop once it
shrinks to End_G(V); End_G+(V) is solved inside End_[G,G](V) when G+
holds the generator commutators, as it does when G/G+ is abelian.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .charlattice import fc_predicates, has_affine_triple
from .errors import EnvlabError, UnknownPredicate, ValidationError
from .fieldcore import (DEFAULT_CLOSURE_CAP, DEFAULT_SEED, FinMatGroup,
                        ModuleRep, checked_seed, commutant, composition_factors,
                        generator_commutators, grow_mask, module_of_group)
from .nori import lie_rank_estimate, nori_points, quotient_is_abelian
from .smallrep import table_a
from .tame import tame_weights_of_rep

REPORT_VERSION = 1


def derived_subgroup(G: FinMatGroup, cap: int = DEFAULT_CLOSURE_CAP) -> FinMatGroup:
    """[G, G] as an index set of G's closure, which cap bounds.  The
    generator commutators normally generate it, so it is the least mask
    holding 1 that right multiplication by them and conjugation by every
    generator (G.conjugation) map into itself: one grow_mask, after which
    index_subgroup picks the generators.  envelope_report does not call
    it: commutant_chain gets the commutant without a closure."""
    elems = G.closure(cap)
    rows = np.concatenate([G.right_rows(G.indices(generator_commutators(G))),
                           G.conjugation])
    mask = np.zeros(len(elems), dtype=bool)
    mask[0] = True
    return G.index_subgroup(np.flatnonzero(grow_mask(mask, rows)))


def _commuting_dim(fld, K, gens) -> int:
    """dim of the X in the row span of K, a (r, n^2) array, with g X = X g
    for every g of a (k, n, n) stack: r minus the rank of the r rows
    g K_i - K_i g, each read over every g, so r unknowns."""
    n = gens.shape[-1]
    B = K.reshape(-1, n, n)
    system = fld.sub(fld.matmul(gens[:, None], B), fld.matmul(B, gens[:, None]))
    return len(K) - fld.rank(system.transpose(1, 0, 2, 3).reshape(len(K), -1))


def commutant_chain(G: FinMatGroup, plus: FinMatGroup | None = None):
    """(dim End_G(V), dim End_[G,G](V), dim End_G+(V)) from at most one
    intertwiner system, K0 the commutant of the generator commutators.
    End_G(V) lies in K0 and is the part of it that commutes with G's
    generators.  [G,G] is the normal closure of the commutators, so its
    commutant is the largest subspace of K0 that conjugation by every
    generator maps into itself: each round keeps the X in K with
    g X g^-1 in K for every g, one rref of K and one nullspace, until K
    stops shrinking or shrinks to End_G(V), which lies in every round's
    K.  When every generator commutator lies in the normal subgroup plus,
    [G,G] <= plus <= G and End_plus(V) is solved inside End_[G,G](V);
    else inside all of M_n.  The second entry is None when [G,G] is
    trivial, where K0 is M_n; the third when plus is None or trivial.  It
    closes no group of its own, so --cap cannot make it fail."""
    fld, n = G.field, G.n
    comms = generator_commutators(G)
    everything = fld.eye(n * n)
    abelian = bool((comms == fld.eye(n)).all())
    K = everything if abelian else np.reshape(
        commutant(ModuleRep(fld, comms))[0], (-1, n * n))
    c_group = _commuting_dim(fld, K, G.gens)
    while not abelian and len(K) > c_group:
        R, pivots = fld.rref(K)
        free = [c for c in range(n * n) if c not in pivots]
        images = fld.matmul(fld.matmul(G.gens[:, None], R.reshape(-1, n, n)),
                            G.gens_inv[:, None]).reshape(len(G.gens), len(R), n * n)
        # what each image has outside span K, read at the free columns of R
        outside = fld.sub(images[:, :, free], fld.matmul(images[:, :, pivots], R[:, free]))
        # the coefficients a, as rows, with a . outside[g] = 0 for every g
        keep = fld.nullspace(outside.transpose(0, 2, 1).reshape(-1, len(R)))
        if len(keep) == len(R):
            break
        K = fld.matmul(keep, R)
    c_derived = None if abelian else len(K)
    if plus is None or plus.order == 1:
        c_nori = None
    elif plus.order == G.order:
        c_nori = c_group
    else:
        inside = K if plus.members(comms).all() else everything
        c_nori = _commuting_dim(fld, inside, plus.gens)
    return c_group, c_derived, c_nori


@dataclass
class EnvelopeReport:
    digest: str
    seed: int
    cap: int
    nori: object
    commutant_dims: dict
    factor_dims: list
    quotient_order: int
    lie_rank: object
    tame: object
    predicates: dict
    warnings: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def to_json(self):
        doc = {
            "version": REPORT_VERSION,
            "digest": self.digest,
            "seed": self.seed,
            "cap": self.cap,
            "commutant_dims": self.commutant_dims,
            "factor_dims": self.factor_dims,
            "quotient_order": self.quotient_order,
            "predicates": self.predicates,
            "warnings": list(self.warnings),
            "failures": list(self.failures),
        }
        if self.nori is not None:
            doc["nori"] = self.nori.to_json()
        if self.lie_rank is not None:
            doc["lie_rank"] = {
                "dim": self.lie_rank.dim,
                "derived_dim": self.lie_rank.derived_dim,
                "rank_estimate": self.lie_rank.rank_estimate,
            }
        if self.tame is not None:
            doc["tame_weights"] = list(self.tame.digits)
        return doc


def _digest(G: FinMatGroup) -> str:
    blob = json.dumps(G.to_json(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def envelope_report(G: FinMatGroup, seed: int = DEFAULT_SEED,
                    cap: int = DEFAULT_CLOSURE_CAP) -> EnvelopeReport:
    """Run the whole observable battery on one group.  Sub-step errors are
    recorded as failure entries rather than raised, so a report always
    comes back for valid input; a negative seed is a ValidationError.
    When G+ is all of G, its commutant is G's, and is not computed again."""
    checked_seed(seed)
    digest = _digest(G)
    failures = []
    rho = module_of_group(G)

    def stage(name, fn, *args, **kwargs):
        """fn(*args, **kwargs), or None with the failure recorded under name."""
        try:
            return fn(*args, **kwargs)
        except EnvlabError as ex:
            failures.append(f"{name}: {type(ex).__name__}: {ex}")
            return None

    result = stage("nori", nori_points, G, cap)
    warnings = [] if result is None else list(result.warnings)
    quotient_order = 0 if result is None else result.quotient_order
    c_group, c_derived, c_nori = commutant_chain(
        G, None if result is None else result.nori_points)
    factors = stage("factors", composition_factors, rho, seed=seed)
    factor_dims = sorted(d for m, k in factors or [] for d in [m.dim] * k)
    lie_rank = None
    if result is not None and result.lie_algebra:
        lie_rank = stage("lie_rank", lie_rank_estimate, result.lie_algebra, G.field, seed=seed)
    tame = stage("tame", tame_weights_of_rep, rho) if len(G.generators) == 1 else None
    predicates = {
        "irreducible": c_group == 1,
        "commutant_match": c_nori is not None and c_group == c_nori,
        "quotient_prime_to_ell": None if result is None
        else quotient_order % G.field.ell != 0,
    }
    if result is not None:
        predicates["quotient_abelian"] = quotient_is_abelian(
            result.nori_points, result.plus_group)
    return EnvelopeReport(
        digest=digest, seed=seed, cap=cap, nori=result,
        commutant_dims={"group": c_group, "nori_points": c_nori,
                        "derived_subgroup": c_derived},
        factor_dims=factor_dims, quotient_order=quotient_order,
        lie_rank=lie_rank, tame=tame, predicates=predicates,
        warnings=warnings, failures=failures)


# constraint name -> (takes an integer value, test on a Table-A row, the
# formal-character predicates of its row and the value)
_CONSTRAINTS = {
    "rank": (True, lambda row, p, value: row.formal_char.rank == value),
    "zero_weight_count": (True, lambda row, p, value: p.zero_weight_count == value),
    "self_dual": (False, lambda row, p, value: row.self_dual),
    "symmetric": (False, lambda row, p, value: p.is_symmetric),
    "antipodal_free": (False, lambda row, p, value: p.antipodal_pair_free),
    "affine_triple": (False, lambda row, p, value: has_affine_triple(row.formal_char)),
    "no_affine_triple": (False,
                         lambda row, p, value: not has_affine_triple(row.formal_char)),
}


def _parse_constraint(text: str):
    """(test, value): a valued name needs an integer value, a flag takes
    none and gets None."""
    name, eq, value = text.partition("=")
    name = name.strip()
    if name not in _CONSTRAINTS:
        raise UnknownPredicate(f"unknown constraint {name!r}")
    valued, test = _CONSTRAINTS[name]
    if not valued:
        if eq:
            raise ValidationError(f"constraint {name!r} takes no value")
        return test, None
    try:
        return test, int(value)
    except ValueError:
        raise ValidationError(
            f"constraint {name!r} needs an integer value, got {value!r}") from None


def eliminate_cases(n: int, constraints):
    """Filter table_a(n) by named predicates on each row's formal
    character, each row tested against the constraints in order until one
    fails.  Vocabulary: the names of _CONSTRAINTS, as rank=3 for a
    valued one and self_dual for a flag."""
    parsed = [_parse_constraint(raw) for raw in constraints]
    out = []
    for row in table_a(n):
        p = fc_predicates(row.formal_char)
        if all(test(row, p, value) for test, value in parsed):
            out.append(row)
    return out
