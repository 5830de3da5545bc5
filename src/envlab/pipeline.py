"""Envelope reports: given a finite matrix group standing in for a mod-ell
monodromy image, collect its finite-level observables (exponential closure
orders, commutant dimensions, composition factor dimensions, Lie rank
estimate, optional tame weights) and evaluate the named predicate checks.
Also the case-elimination driver over formal-character predicates.

The Nori stage closes G only; G+ is an index set of G's closure, as is
[G, G] when derived_subgroup is asked for it.  The derived stage of the
report closes no group: derived_commutant_dim finds End_[G,G](V) as the
largest subspace of the generator commutators' commutant that
conjugation by every generator maps into itself, so --cap cannot make it
fail.
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
    generator map into itself: one grow_mask, after which index_subgroup
    picks the generators.  envelope_report does not call it:
    derived_commutant_dim gets the commutant without a closure."""
    fld, elems = G.field, G.closure(cap)
    conj = fld.matmul(fld.matmul(G.gens[:, None], elems), G.gens_inv[:, None])
    rows = np.concatenate([G.right_rows(G.indices(generator_commutators(G))),
                           G.indices(conj)])
    mask = np.zeros(len(elems), dtype=bool)
    mask[0] = True
    return G.index_subgroup(np.flatnonzero(grow_mask(mask, rows)))


def derived_commutant_dim(G: FinMatGroup) -> int | None:
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
        # what each image has outside span K, read at the free columns of R
        outside = fld.sub(images[:, :, free], fld.matmul(images[:, :, pivots], R[:, free]))
        # the coefficients a, as rows, with a . outside[g] = 0 for every g
        keep = fld.nullspace(outside.transpose(0, 2, 1).reshape(-1, len(R)))
        if len(keep) == len(R):
            return len(R)
        K = fld.matmul(keep, R)


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
    warnings = []
    rho = module_of_group(G)
    result = None
    lie_rank = None
    quotient_order = 0
    try:
        result = nori_points(G, cap)
        warnings.extend(result.warnings)
        quotient_order = result.quotient_order
    except EnvlabError as ex:
        failures.append(f"nori: {type(ex).__name__}: {ex}")
    c_group = commutant(rho)[1]
    c_nori = None
    if result is not None and result.nori_points.order > 1:
        c_nori = (c_group if result.nori_points.order == G.order
                  else commutant(module_of_group(result.nori_points))[1])
    c_derived = derived_commutant_dim(G)
    try:
        factors = composition_factors(rho, seed=seed)
        factor_dims = sorted(
            d for m, k in factors for d in [m.dim] * k)
    except EnvlabError as ex:
        factors = None
        factor_dims = []
        failures.append(f"factors: {type(ex).__name__}: {ex}")
    if result is not None and result.lie_algebra:
        try:
            lie_rank = lie_rank_estimate(result.lie_algebra, G.field, seed=seed)
        except EnvlabError as ex:
            failures.append(f"lie_rank: {type(ex).__name__}: {ex}")
    tame = None
    if len(G.generators) == 1:
        try:
            tame = tame_weights_of_rep(rho)
        except EnvlabError as ex:
            failures.append(f"tame: {type(ex).__name__}: {ex}")
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
