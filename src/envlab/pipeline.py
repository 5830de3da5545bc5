"""Envelope reports: given a finite matrix group standing in for a mod-ell
monodromy image, collect its finite-level observables (exponential closure
orders, commutant dimensions, composition factor dimensions, Lie rank
estimate, optional tame weights) and evaluate the named predicate checks.
Also the case-elimination driver over formal-character predicates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .charlattice import fc_predicates, has_affine_triple
from .errors import EnvlabError, UnknownPredicate, ValidationError
from .fieldcore import (DEFAULT_CLOSURE_CAP, DEFAULT_SEED, FinMatGroup,
                        commutant, composition_factors, generated_subgroup,
                        module_of_group)
from .nori import lie_rank_estimate, nori_points, quotient_is_abelian
from .smallrep import table_a
from .tame import tame_weights_of_rep

REPORT_VERSION = 1


def derived_subgroup(G: FinMatGroup, cap: int = DEFAULT_CLOSURE_CAP) -> FinMatGroup:
    """Normal closure of the generator commutators (the derived subgroup,
    since the commutators normally generate it)."""
    comms = [a @ b @ a.inverse() @ b.inverse()
             for a in G.generators for b in G.generators]
    return generated_subgroup(G.field, G.n, comms, cap, conjugators=G.generators)


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
                    cap: int = DEFAULT_CLOSURE_CAP,
                    expected_rank: int | None = None) -> EnvelopeReport:
    """Run the whole observable battery on one group.  Sub-step errors are
    recorded as failure entries rather than raised, so a report always
    comes back for valid input."""
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
        c_nori = commutant(module_of_group(result.nori_points))[1]
    c_derived = None
    try:
        derived = derived_subgroup(G, cap)
        if derived.order > 1:
            c_derived = commutant(module_of_group(derived))[1]
    except EnvlabError as ex:
        failures.append(f"derived: {type(ex).__name__}: {ex}")
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
        "quotient_prime_to_ell": quotient_order % G.field.ell != 0
        if quotient_order else True,
    }
    if result is not None:
        predicates["quotient_abelian"] = quotient_is_abelian(
            result.nori_points, result.plus_group)
    if expected_rank is not None:
        predicates["rank_matches"] = (
            lie_rank is not None and lie_rank.rank_estimate == expected_rank)
    return EnvelopeReport(
        digest=digest, seed=seed, cap=cap, nori=result,
        commutant_dims={"group": c_group, "nori_points": c_nori,
                        "derived_subgroup": c_derived},
        factor_dims=factor_dims, quotient_order=quotient_order,
        lie_rank=lie_rank, tame=tame, predicates=predicates,
        warnings=warnings, failures=failures)


_VALUED_CONSTRAINTS = ("rank", "zero_weight_count")
_FLAG_CONSTRAINTS = ("self_dual", "symmetric", "antipodal_free",
                     "affine_triple", "no_affine_triple")


def _parse_constraint(text: str):
    """(name, value): a valued name needs an integer value, a flag takes
    none and gets None."""
    name, eq, value = text.partition("=")
    name = name.strip()
    if name in _FLAG_CONSTRAINTS:
        if eq:
            raise ValidationError(f"constraint {name!r} takes no value")
        return name, None
    if name not in _VALUED_CONSTRAINTS:
        raise UnknownPredicate(f"unknown constraint {name!r}")
    try:
        return name, int(value)
    except ValueError:
        raise ValidationError(
            f"constraint {name!r} needs an integer value, got {value!r}") from None


def eliminate_cases(n: int, constraints):
    """Filter table_a(n) by named predicates on each row's formal
    character.  Vocabulary: rank=k, zero_weight_count=k, self_dual,
    symmetric, antipodal_free, affine_triple, no_affine_triple."""
    parsed = [_parse_constraint(raw) for raw in constraints]
    rows = table_a(n)
    out = []
    for row in rows:
        p = fc_predicates(row.formal_char)
        keep = True
        for name, value in parsed:
            if name == "rank":
                ok = row.formal_char.rank == value
            elif name == "zero_weight_count":
                ok = p.zero_weight_count == value
            elif name == "self_dual":
                ok = row.self_dual
            elif name == "symmetric":
                ok = p.is_symmetric
            elif name == "antipodal_free":
                ok = p.antipodal_pair_free
            elif name == "affine_triple":
                ok = has_affine_triple(row.formal_char)
            else:  # no_affine_triple, the last name _parse_constraint admits
                ok = not has_affine_triple(row.formal_char)
            if not ok:
                keep = False
                break
        if keep:
            out.append(row)
    return out
