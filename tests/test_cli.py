"""Command-line round trips, formats, and exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import diagonal_torus, heisenberg_mod3_group, sl2_group
from envlab.cli import run


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def read_lines(capsys):
    return capsys.readouterr().out


def test_tame_digits(capsys):
    assert run(["tame", "--ell", "5", "--d", "2", "--e", "13"]) == 0
    doc = json.loads(read_lines(capsys))
    assert doc["digits"] == [3, 2]


def test_tame_usage_error():
    assert run(["tame", "--ell", "5"]) == 64


def test_table_a_counts(capsys):
    assert run(["table-a", "--n", "5"]) == 0
    doc = json.loads(read_lines(capsys))
    assert len(doc["rows"]) == 3


def test_table_a_csv(capsys):
    assert run(["table-a", "--n", "5", "--format", "csv"]) == 0
    lines = read_lines(capsys).strip().splitlines()
    assert lines[0].startswith("case,")
    assert len(lines) == 4


def test_nori_torus(tmp_path, capsys):
    path = write_json(tmp_path / "torus.json", diagonal_torus(11).to_json())
    assert run(["nori", "--input", path]) == 0
    doc = json.loads(read_lines(capsys))
    assert doc["nori_order"] == 1
    assert doc["quotient_order"] == 1


def test_envelope_deterministic_bytes(tmp_path, capsys):
    path = write_json(tmp_path / "sl2.json", sl2_group(11).to_json())
    assert run(["envelope", "--input", path]) == 0
    first = read_lines(capsys)
    assert run(["envelope", "--input", path]) == 0
    second = read_lines(capsys)
    assert first == second
    doc = json.loads(first)
    assert doc["predicates"]["irreducible"] is True


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    assert run(["tame", "--ell", "5", "--d", "2", "--e", "13",
                "--output", str(out)]) == 0
    assert json.loads(out.read_text())["digits"] == [3, 2]


def test_formal_char_subcommand(tmp_path, capsys):
    doc = {"rank": 2,
           "weights": [[1, 0], [-1, 0], [0, 1], [0, -1]],
           "other": {"rank": 2,
                     "weights": [[1, 1], [1, -1], [-1, 1], [-1, -1]]}}
    path = write_json(tmp_path / "fc.json", doc)
    assert run(["formal-char", "--input", path]) == 0
    out = json.loads(read_lines(capsys))
    assert out["equivalent"] is True
    assert out["symmetric"] is True


def test_mackey_subcommand(tmp_path, capsys):
    def pm(p):
        n = len(p)
        M = [[0] * n for _ in range(n)]
        for j, i in enumerate(p):
            M[i][j] = 1
        return [x for row in M for x in row]
    doc = {"group": {"ell": 11, "d": 1, "n": 5,
                     "generators": [pm([1, 2, 3, 4, 0]), pm([0, 4, 3, 2, 1])]},
           "subgroup": [pm([1, 2, 3, 4, 0])],
           "module_field": {"ell": 11, "d": 1},
           "module": [[3]]}
    path = write_json(tmp_path / "mk.json", doc)
    assert run(["mackey", "--input", path]) == 0
    out = json.loads(read_lines(capsys))
    assert out["irreducible"] is True
    assert out["induced_dim"] == 2


def test_clifford_subcommand(tmp_path, capsys):
    G = heisenberg_mod3_group(7)
    x, y = G.generators
    z = x @ y @ x.inverse() @ y.inverse()
    doc = {"group": G.to_json(),
           "normal": [z.array.reshape(-1).tolist()],
           "module_field": {"ell": 7, "d": 1},
           "module": [x.array.reshape(-1).tolist(),
                      y.array.reshape(-1).tolist()]}
    path = write_json(tmp_path / "cl.json", doc)
    assert run(["clifford", "--input", path]) == 0
    out = json.loads(read_lines(capsys))
    assert (out["e"], out["f"]) == (1, 3)


def test_eliminate_subcommand(capsys):
    assert run(["eliminate", "--n", "6",
                "--constraints", "self_dual,rank=3"]) == 0
    out = json.loads(read_lines(capsys))
    assert out["surviving"] == ["(6A3)", "(6C3)"]


@pytest.mark.parametrize("constraints", [
    "rank=x", "rank=2.5", "affine_triple=", "bogus=2.5", "rank",
    "zero_weight_count", "self_dual=0", "self_dual,rank=",
])
def test_malformed_constraint_is_validation_error(capsys, constraints):
    assert run(["eliminate", "--n", "6", "--constraints", constraints]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] in ("ValidationError", "UnknownPredicate")


CONSTRAINT_TOKENS = ["rank", "zero_weight_count", "self_dual", "symmetric",
                     "antipodal_free", "affine_triple", "no_affine_triple",
                     "=", "=1", "=0", "=-2", "=2.5", "=x", " ", ","]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(CONSTRAINT_TOKENS), st.text(max_size=6)),
                max_size=6).map("".join))
def test_eliminate_constraints_fuzz_never_raises(constraints):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["eliminate", "--n", "4", f"--constraints={constraints}"])
    assert code in (0, 1)
    if code == 0:
        assert json.loads(out.getvalue())["n"] == 4
    else:
        assert "error" in json.loads(err.getvalue())


def test_missing_input_is_validation_error(tmp_path):
    assert run(["nori", "--input", str(tmp_path / "nope.json")]) == 1


def test_malformed_json_is_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["nori", "--input", str(bad)]) == 1


def _mackey_doc_without_module_field():
    return {"group": {"ell": 7, "n": 2, "generators": [[0, 1, 1, 0]]},
            "subgroup": [[1, 0, 0, 1]], "module": [[1]]}


@pytest.mark.parametrize("command,doc", [
    ("nori", {"ell": 7, "n": 2, "generators": [[1, 1, 0]]}),
    ("nori", {"ell": 7, "n": 2, "generators": []}),
    ("envelope", {"ell": 7, "n": 2, "generators": [[1, "x", 0, 1]]}),
    ("envelope", {"ell": 7, "n": 2, "generators": [[1, 1.5, 0, 1]]}),
    ("nori", [1, 2, 3]),
    ("mackey", _mackey_doc_without_module_field()),
    ("mackey", dict(_mackey_doc_without_module_field(),
                    module_field={"ell": 7}, module=[[1, 2]])),
    ("formal-char", {"rank": 1, "weights": 5}),
    ("formal-char", {"rank": "x", "weights": [[1]]}),
    ("formal-char", {"rank": 1, "weights": [["a"]]}),
    ("formal-char", {"rank": 1, "weights": [[1], [-1]], "other": [1, 2]}),
], ids=["wrong-length", "no-generators", "non-integer", "float-entry",
        "not-an-object", "no-module-field", "non-square-module",
        "fc-weights-not-a-list", "fc-rank-not-integer", "fc-weight-entry-not-integer",
        "fc-other-not-an-object"])
def test_malformed_input_is_validation_error(tmp_path, capsys, command, doc):
    path = write_json(tmp_path / "bad.json", doc)
    assert run([command, "--input", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"


def test_unknown_subcommand_is_usage_error():
    assert run(["definitely-not-a-command"]) == 64


def test_cap_exhaustion_is_resource_error(tmp_path):
    path = write_json(tmp_path / "sl2.json", sl2_group(11).to_json())
    assert run(["nori", "--input", path, "--cap", "10"]) == 2


def test_env_overrides(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ENVLAB_FORMAT", "text")
    # parser defaults are read at build time, so rebuild through run()
    assert run(["tame", "--ell", "5", "--d", "2", "--e", "13"]) == 0
    out = read_lines(capsys)
    assert "digits" in out and not out.startswith("{")
