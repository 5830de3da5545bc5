"""Envelope reports and Table-A case elimination."""

import json

import numpy as np
import pytest

from corpus import diagonal_torus, mackey_corpus, sl2_group
from envlab.errors import UnknownPredicate, ValidationError
from envlab.fieldcore import FinMatGroup, Mat
from envlab.gf import field_make
from envlab.pipeline import derived_subgroup, eliminate_cases, envelope_report
from envlab.smallrep import table_a


DERIVED_ORDERS = {"S3/F7": 3, "C6/F7": 1, "D4/F5": 2, "Q8/F5": 2,
                  "D5/F11": 5, "D6/F7": 3, "A4/F7": 4, "S4/F13": 12}


@pytest.mark.parametrize("G,order", [pytest.param(G, DERIVED_ORDERS[name], id=name)
                                     for name, G, _ in mackey_corpus()])
def test_derived_subgroup_order(G, order):
    D = derived_subgroup(G)
    assert D.order == order
    assert D.is_subgroup_of(G) and D.is_normal_in(G)


def test_derived_subgroup_of_abelian_is_trivial():
    assert derived_subgroup(diagonal_torus(11)).order == 1


def test_envelope_cap_bounds_every_closure(monkeypatch):
    cold_caps, sizes = [], []
    original = FinMatGroup.closure

    def recorded(self, *cap):
        if self._elements is None:
            cold_caps.append(cap[0] if cap else "default")
        out = original(self, *cap)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(FinMatGroup, "closure", recorded)
    report = envelope_report(sl2_group(11), cap=100)
    assert set(cold_caps) == {100}
    # the Nori stage's closure overflows, so none may complete
    assert max(sizes, default=0) <= 100
    # the derived stage closes no group, so the cap cannot stop it
    assert report.commutant_dims["derived_subgroup"] == 1
    assert [f.split(":")[0] for f in report.failures] == ["nori"]
    assert all("ClosureOverflow" in f for f in report.failures)


def test_sl2_report():
    report = envelope_report(sl2_group(11))
    assert report.failures == []
    assert report.commutant_dims == {
        "group": 1, "nori_points": 1, "derived_subgroup": 1}
    assert report.factor_dims == [2]
    assert report.quotient_order == 1
    assert report.nori.nori_points.order == sl2_group(11).order
    assert report.lie_rank.rank_estimate == 1
    assert report.predicates["irreducible"]
    assert report.predicates["commutant_match"]
    assert report.predicates["quotient_abelian"]


def test_torus_report():
    report = envelope_report(diagonal_torus(11))
    assert report.commutant_dims["group"] == 2
    assert report.commutant_dims["nori_points"] is None
    assert report.factor_dims == [1, 1]
    assert report.nori.nori_points.order == 1
    assert not report.predicates["irreducible"]


def test_tensor_square_report_flags_reducibility():
    # std (x) std of SL_2(F_11) inside GL_4, scrambled by conjugation
    fld = field_make(11, 1)
    rng = np.random.default_rng(17)
    while True:
        P = rng.integers(0, 11, size=(4, 4)).astype(np.int64)
        if fld.rank(P) == 4:
            break
    Pinv = fld.inv_matrix(P)
    gens = []
    for g in sl2_group(11).generators:
        t = fld.kron(g.array, g.array)
        gens.append(Mat(fld, fld.matmul(fld.matmul(P, t), Pinv)))
    G = FinMatGroup(fld, gens)
    report = envelope_report(G)
    assert report.factor_dims == [1, 3]
    assert not report.predicates["irreducible"]


def test_report_determinism():
    a = envelope_report(sl2_group(11)).to_json()
    b = envelope_report(sl2_group(11)).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_single_generator_reports_tame_weights():
    fld = field_make(5, 1)
    G = FinMatGroup(fld, [Mat(fld, np.array([[2]], dtype=np.int64))])
    report = envelope_report(G)
    assert report.tame is not None
    assert report.tame.digits == (1,)


def test_eliminate_examples():
    assert [r.label for r in eliminate_cases(4, ["rank=1"])] == ["(4A1)"]
    assert [r.label for r in eliminate_cases(6, ["self_dual", "rank=3"])] == \
        ["(6A3)", "(6C3)"]
    assert [r.label for r in eliminate_cases(5, ["zero_weight_count=0"])] == \
        ["(5A4)"]


def test_eliminate_empty_constraints_is_identity():
    for n in range(2, 7):
        assert {r.label for r in eliminate_cases(n, [])} == \
            {r.label for r in table_a(n)}


def test_eliminate_affine_predicates():
    survivors = {r.label for r in eliminate_cases(6, ["no_affine_triple"])}
    assert "(2A1⊗3A1)" not in survivors
    assert "(6A3)" in survivors
    with_triple = {r.label for r in eliminate_cases(6, ["affine_triple"])}
    assert "(2A1⊗3A1)" in with_triple and "(6A1)" in with_triple


def test_eliminate_unknown_predicate():
    with pytest.raises(UnknownPredicate):
        eliminate_cases(4, ["bogus=1"])


def test_envelope_report_rejects_a_negative_seed():
    with pytest.raises(ValidationError, match="seed"):
        envelope_report(sl2_group(11), seed=-1)
