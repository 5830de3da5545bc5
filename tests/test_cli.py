"""Command-line round trips, formats, and exit codes."""

import contextlib
import io
import json
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import diagonal_torus, heisenberg_mod3_group, perm_mat, sl2_group, symmetric_group
from envlab.cli import build_parser, run


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
    ("mackey", dict(_mackey_doc_without_module_field(),
                    module_field={"ell": 7}, module=[[0]])),
    ("clifford", {"group": {"ell": 3, "n": 1, "generators": [[2]]}, "normal": [[2]],
                  "module_field": {"ell": 3}, "module": [[]]}),
    ("envelope", {"ell": 7, "n": 2, "generators": [[1, 1, 1, 1]]}),
    ("mackey", dict(_mackey_doc_without_module_field(),
                    group={"ell": 7, "n": 2, "generators": [[1, 1, 1, 1]]},
                    module_field={"ell": 7})),
    ("clifford", {"group": {"ell": 7, "n": 2, "generators": [[0, 1, 1, 0]]},
                  "normal": [], "module_field": {"ell": 7}, "module": [[1]]}),
], ids=["wrong-length", "no-generators", "non-integer", "float-entry",
        "not-an-object", "no-module-field", "non-square-module",
        "fc-weights-not-a-list", "fc-rank-not-integer", "fc-weight-entry-not-integer",
        "fc-other-not-an-object", "singular-module", "empty-module-matrix",
        "singular-generator", "mackey-singular-generator",
        "empty-normal"])
def test_malformed_input_is_validation_error(tmp_path, capsys, command, doc):
    path = write_json(tmp_path / "bad.json", doc)
    assert run([command, "--input", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"


def test_clifford_module_needs_one_matrix_per_generator(tmp_path, capsys):
    doc = {"group": {"ell": 3, "n": 1, "generators": [[1], [2]]}, "normal": [[2]],
           "module_field": {"ell": 3}, "module": [[1]]}
    assert run(["clifford", "--input", write_json(tmp_path / "cl.json", doc)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "DimensionMismatch"


@pytest.mark.parametrize("subgroup,module", [
    ([[1, 0, 2, 3], [0, 1, 3, 2]], [[12]]),
    ([[1, 0, 2, 3], [0, 1, 3, 2]], [[12], [12], [5]]),
    ([[1, 0, 2, 3], [1, 2, 3, 0]], [[1]]),
], ids=["short", "long", "index-1"])
def test_mackey_module_needs_one_matrix_per_generator(tmp_path, capsys, subgroup, module):
    G = symmetric_group(4, 13)
    doc = {"group": G.to_json(),
           "subgroup": [perm_mat(G.field, p).array.reshape(-1).tolist() for p in subgroup],
           "module_field": {"ell": 13}, "module": module}
    assert run(["mackey", "--input", write_json(tmp_path / "mk.json", doc)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "DimensionMismatch"


# S3 over F_7 on a transposition and a 3-cycle
S3_F7 = {"ell": 7, "n": 3, "generators": [[0, 1, 0, 1, 0, 0, 0, 0, 1],
                                          [0, 0, 1, 1, 0, 0, 0, 1, 0]]}
TRANSPOSITION, THREE_CYCLE = S3_F7["generators"]


@pytest.mark.parametrize("command,doc,want", [
    ("mackey", {"group": S3_F7, "subgroup": [TRANSPOSITION], "module_field": {"ell": 7},
                "module": [[2]]}, None),
    ("clifford", {"group": S3_F7, "normal": [THREE_CYCLE], "module_field": {"ell": 7},
                  "module": [[2], [3]]}, None),
    ("mackey", {"group": S3_F7, "subgroup": [TRANSPOSITION], "module_field": {"ell": 7},
                "module": [[6]]}, {"index": 3, "induced_dim": 3, "irreducible": False,
                                   "reason": "condition (II') fails"}),
    ("clifford", {"group": S3_F7, "normal": [THREE_CYCLE], "module_field": {"ell": 7},
                  "module": [[6], [1]]}, {"e": 1, "f": 1, "factor_dim": 1}),
], ids=["mackey-2-squared-is-not-1", "clifford-2-squared-is-not-1",
        "mackey-sign-of-c2", "clifford-sign-of-s3"])
def test_module_must_be_a_representation(tmp_path, capsys, command, doc, want):
    # W(x g) = W(x) W(g) over the closure: 2^2 = 4 is no value of a
    # transposition, while the sign characters pass and are answered
    code = run([command, "--input", write_json(tmp_path / "rep.json", doc)])
    out, err = capsys.readouterr()
    if want is None:
        assert code == 1
        assert json.loads(err) == {"error": "ValidationError", "message":
                                   "the module is not a representation of the group"}
    else:
        assert code == 0 and json.loads(out) == want


def test_unknown_subcommand_is_usage_error():
    assert run(["definitely-not-a-command"]) == 64


def test_cap_exhaustion_is_resource_error(tmp_path):
    path = write_json(tmp_path / "sl2.json", sl2_group(11).to_json())
    assert run(["nori", "--input", path, "--cap", "10"]) == 2


@pytest.mark.parametrize("command,key", [("mackey", "subgroup"), ("clifford", "normal")])
def test_mackey_and_clifford_honour_cap(tmp_path, capsys, command, key):
    # SL2(F_37) has 50,616 elements; the cap stops its closure at 100
    doc = {"group": {"ell": 37, "n": 2, "generators": [[1, 1, 0, 1], [1, 0, 1, 1]]},
           key: [[1, 1, 0, 1]], "module_field": {"ell": 37}, "module": [[1]]}
    path = write_json(tmp_path / "sl2.json", doc)
    assert run([command, "--input", path, "--cap", "100"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ClosureOverflow"


def test_huge_ell_fails_fast(tmp_path, capsys):
    doc = {"ell": 1000000000000000003, "n": 2, "generators": [[1, 1, 0, 1]]}
    start = time.perf_counter()
    assert run(["nori", "--input", write_json(tmp_path / "big.json", doc)]) == 1
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


def test_extension_field_above_the_table_bound_fails_fast(tmp_path, capsys):
    # GF(2^17): q > 2^16 is rejected before the modulus search
    doc = {"ell": 2, "d": 17, "n": 2, "generators": [[1, 1, 0, 1]]}
    start = time.perf_counter()
    assert run(["envelope", "--input", write_json(tmp_path / "gf2_17.json", doc)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "ValidationError"


def test_envelope_threshold_warning_stays_in_the_report(tmp_path, capsys):
    # SO3(F_7): Sym^2 of the SL2 unit transvections and diag(3, 1, 5)
    so3 = {"ell": 7, "n": 3, "generators": [[1, 2, 1, 0, 1, 1, 0, 0, 1],
                                            [1, 0, 0, 1, 1, 0, 1, 2, 1],
                                            [3, 0, 0, 0, 1, 0, 0, 0, 5]]}
    path = write_json(tmp_path / "so3.json", so3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["envelope", "--input", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["warnings"] == [
        "ell=7 is below the default threshold 12 for n=3; "
        "exponential-generation properties are only asserted above it"]


def test_env_overrides(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ENVLAB_FORMAT", "text")
    # the environment is read on every run()
    assert run(["tame", "--ell", "5", "--d", "2", "--e", "13"]) == 0
    out = read_lines(capsys)
    assert "digits" in out and not out.startswith("{")


TAME = ["tame", "--ell", "5", "--d", "2", "--e", "13"]
TAME_JSON = '{"d":2,"digits":[3,2],"e":13,"ell":5}\n'


def test_env_changes_between_runs_are_honoured(tmp_path, monkeypatch, capsys):
    assert run(TAME) == 0
    assert read_lines(capsys) == TAME_JSON
    monkeypatch.setenv("ENVLAB_FORMAT", "text")
    assert run(TAME) == 0
    assert read_lines(capsys) == "d: 2\ndigits: [3, 2]\ne: 13\nell: 5\n"
    assert run(TAME + ["--format", "json"]) == 0  # a flag beats the environment
    assert read_lines(capsys) == TAME_JSON
    monkeypatch.setenv("ENVLAB_FORMAT", "json")
    out = tmp_path / "out.json"
    monkeypatch.setenv("ENVLAB_OUTPUT", str(out))
    assert run(TAME) == 0
    assert read_lines(capsys) == "" and out.read_text() == TAME_JSON
    monkeypatch.delenv("ENVLAB_OUTPUT")
    group = write_json(tmp_path / "sl2.json", sl2_group(11).to_json())
    assert run(["envelope", "--input", group, "--seed", "5", "--cap", "100"]) == 0
    by_flags = read_lines(capsys)
    monkeypatch.setenv("ENVLAB_SEED", "5")
    monkeypatch.setenv("ENVLAB_CAP", "100")
    assert run(["envelope", "--input", group]) == 0
    assert read_lines(capsys) == by_flags
    assert json.loads(by_flags)["seed"] == 5 and json.loads(by_flags)["cap"] == 100
    assert build_parser() is build_parser()


@pytest.mark.parametrize("flag,value", [("seed", "abc"), ("cap", "1e3"),
                                        ("format", "yaml"), ("seed", ""), ("seed", "-1")])
def test_malformed_env_value_is_usage_error(monkeypatch, capsys, flag, value):
    assert run(TAME + [f"--{flag}", value]) == 64
    capsys.readouterr()
    monkeypatch.setenv(f"ENVLAB_{flag.upper()}", value)
    assert run(TAME) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: ENVLAB_{flag.upper()}: invalid")
    assert "Traceback" not in captured.err


def test_negative_seed_is_usage_error_before_the_meataxe(tmp_path, capsys):
    # numpy's generators take no negative seed; the envelope draws from one
    path = write_json(tmp_path / "sl2.json", sl2_group(11).to_json())
    assert run(["envelope", "--input", path, "--seed", "-1"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "invalid seed value: '-1'" in captured.err


SL2_11 = {"ell": 11, "d": 1, "n": 2, "generators": [[1, 1, 0, 1], [1, 0, 1, 1]]}


def test_prime_field_modulus_gives_the_same_bytes(tmp_path, capsys):
    # every monic linear modulus is irreducible; F_11 stores the canonical one
    assert run(["nori", "--input", write_json(tmp_path / "plain.json", SL2_11)]) == 0
    want = read_lines(capsys)
    for modulus in ([0, 1], [4, 1]):
        path = write_json(tmp_path / "modulus.json", dict(SL2_11, modulus=modulus))
        assert run(["nori", "--input", path]) == 0
        assert read_lines(capsys) == want


@pytest.mark.parametrize("modulus", [[0, 2], [1, 0, 1]])
def test_non_monic_or_wrong_degree_modulus_exits_1(tmp_path, capsys, modulus):
    path = write_json(tmp_path / "modulus.json", dict(SL2_11, modulus=modulus))
    assert run(["nori", "--input", path]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NotPrime"


@pytest.mark.parametrize("entry", [-1, 9, 10])
def test_extension_field_integer_entry_outside_the_encodings_exits_1(tmp_path, capsys, entry):
    # over GF(9) an integer entry is an encoding: -1 is not 8 (= 2 + 2x)
    doc = {"ell": 3, "d": 2, "n": 2, "generators": [[1, entry, 0, 1]]}
    assert run(["envelope", "--input", write_json(tmp_path / "gf9.json", doc)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "[0, 9)" in err["message"]
    doc["generators"] = [[1, 8, 0, 1]]
    assert run(["envelope", "--input", write_json(tmp_path / "gf9.json", doc)]) == 0


# -- fuzzing the JSON inputs: any document exits 0, 1 or 2, never a traceback --

def json_values(max_int):
    return st.recursive(
        st.none() | st.booleans() | st.integers(-3, max_int) | st.floats(-2, 2, width=16)
        | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=8)


def _paths(doc, prefix=()):
    """The key path of every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def corrupted(draw, doc, max_int=40):
    """The valid doc itself, or with one value anywhere in it replaced by an
    arbitrary JSON value, or with one key or entry removed, or replaced
    whole."""
    how = draw(st.sampled_from(["keep", "keep", "replace", "drop", "whole"]))
    paths = list(_paths(doc))
    if how == "whole":
        return draw(json_values(max_int))
    if how == "keep" or not paths:
        return doc
    *head, last = draw(st.sampled_from(paths))
    parent = doc
    for key in head:
        parent = parent[key]
    if how == "drop":
        del parent[last]
    else:
        parent[last] = draw(json_values(max_int))
    return doc


@st.composite
def invertible(draw, q, n):
    """A row-permuted upper triangular matrix with a nonzero diagonal, as a
    row-major list of encodings."""
    rows = [[draw(st.integers(1, q - 1)) if j == i else
             draw(st.integers(0, q - 1)) if j > i else 0 for j in range(n)]
            for i in range(n)]
    return [x for i in draw(st.permutations(range(n))) for x in rows[i]]


def matrices(q, n, count):
    return st.lists(invertible(q, n), min_size=count, max_size=count)


# (ell, d, largest n).  SMALL_FUZZ_FIELDS keeps the mackey and clifford
# groups to a few hundred elements, so each example stays fast
FUZZ_FIELDS = [(2, 1, 3), (3, 1, 3), (5, 1, 3), (7, 1, 2), (11, 1, 2), (13, 1, 2),
               (2, 2, 2), (2, 3, 2), (3, 2, 2), (5, 2, 1)]
SMALL_FUZZ_FIELDS = [(2, 1, 3), (3, 1, 2), (5, 1, 1), (7, 1, 1), (2, 2, 1)]


@st.composite
def group_docs(draw, fields=FUZZ_FIELDS, count=None):
    ell, d, top = draw(st.sampled_from(fields))
    n = draw(st.integers(1, top))
    doc = {"ell": ell, "n": n,
           "generators": draw(matrices(ell ** d, n, count or draw(st.integers(1, 3))))}
    if d > 1 or draw(st.booleans()):
        doc["d"] = d
    return doc


@st.composite
def module_problems(draw, sub_key):
    """A group, a subset of its generators (a subgroup; for clifford, a
    normal one when the subset is all of them) and a module with one
    matrix per subgroup (mackey) or group (clifford) generator."""
    group = draw(group_docs(SMALL_FUZZ_FIELDS))
    gens = group["generators"]
    sub = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=len(gens)))
    ell = group["ell"]
    count = len(sub) if sub_key == "subgroup" else len(gens)
    doc = {"group": group, sub_key: sub, "module_field": {"ell": ell, "d": 1},
           "module": draw(matrices(ell, draw(st.integers(1, 2)), count))}
    return draw(corrupted(doc, max_int=4))


@st.composite
def formal_chars(draw, depth=1):
    rank = draw(st.integers(0, 3))
    doc = {"rank": rank, "weights": draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=rank, max_size=rank), max_size=6))}
    if depth and draw(st.booleans()):
        doc["other"] = draw(formal_chars(depth=0))
    return doc


FUZZ_INPUTS = {
    "nori": group_docs().flatmap(corrupted),
    "envelope": group_docs().flatmap(corrupted),
    "tame": group_docs(count=1).flatmap(corrupted),
    "formal-char": formal_chars().flatmap(corrupted),
    "mackey": module_problems("subgroup"),
    "clifford": module_problems("normal"),
}


@pytest.mark.parametrize("command", sorted(FUZZ_INPUTS))
def test_json_input_fuzz_never_raises(tmp_path_factory, command):
    path = tmp_path_factory.mktemp(command) / "input.json"

    @settings(max_examples=60, deadline=None)
    @given(FUZZ_INPUTS[command])
    def check(doc):
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, "--input", str(path), "--cap", "500"])
        assert code in (0, 1, 2)
        if code:
            assert "error" in json.loads(err.getvalue())
        else:
            json.loads(out.getvalue())

    check()
