"""CLI inputs and outputs validated against the JSON schemas in
docs/schemas/ (jsonschema is a test-only dependency)."""

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from corpus import diagonal_torus, sl2_group
from envlab.cli import run

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
    assert doc["commutant_dims"]["derived_subgroup"] is None
    assert any(f.startswith("derived: ClosureOverflow") for f in doc["failures"])
