"""CLI inputs and outputs validated against the JSON schemas in
docs/schemas/ (jsonschema is a test-only dependency)."""

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from corpus import diagonal_torus, sl2_group
from envlab.cli import run
from envlab.gf import field_make

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
SCHEMAS = {doc["$id"]: doc for doc in
           (json.loads(p.read_text()) for p in sorted(SCHEMA_DIR.glob("*.json")))}
REGISTRY = Registry().with_resources(
    (uri, Resource.from_contents(doc)) for uri, doc in SCHEMAS.items())


def validate(doc, schema_id):
    Draft202012Validator(SCHEMAS[schema_id], registry=REGISTRY).validate(doc)


def test_schemas_are_valid():
    for doc in SCHEMAS.values():
        Draft202012Validator.check_schema(doc)


@pytest.mark.parametrize("command,schema_id", [
    ("nori", "envlab/nori-report"), ("envelope", "envlab/envelope-report")])
@pytest.mark.parametrize("make", [lambda: sl2_group(11), lambda: diagonal_torus(11)],
                         ids=["SL2(11)", "torus(11)"])
def test_cli_output_matches_schema(tmp_path, capsys, make, command, schema_id):
    group = make().to_json()
    validate(group, "envlab/group")
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group))
    assert run([command, "--input", str(path)]) == 0
    validate(json.loads(capsys.readouterr().out), schema_id)


def test_envelope_report_under_a_low_cap_matches_schema(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(sl2_group(11).to_json()))
    assert run(["envelope", "--input", str(path), "--cap", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    validate(doc, "envlab/envelope-report")
    # the derived stage closes no group, so only the Nori stage overflows
    assert doc["commutant_dims"]["derived_subgroup"] == 1
    assert [f.split(":")[0] for f in doc["failures"]] == ["nori"]


def test_failed_nori_stage_leaves_quotient_predicate_null(tmp_path, capsys):
    # SL2(GF(9)): the upper and lower transvections and diag(w, w^-1)
    fld = field_make(3, 2)
    w = fld.least_primitive()
    gens = [[1, 1, 0, 1], [1, 0, 1, 1], [w, 0, 0, fld.inv(w)]]
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"ell": 3, "d": 2, "n": 2, "generators": gens}))
    assert run(["envelope", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    validate(doc, "envlab/envelope-report")
    assert any(f.startswith("nori:") for f in doc["failures"])
    assert doc["quotient_order"] == 0
    assert doc["predicates"]["quotient_prime_to_ell"] is None
