"""Command-line front end.  One subcommand per module, batch only:

    envlab nori --input group.json
    envlab envelope --input group.json
    envlab formal-char --input weights.json
    envlab table-a --n 5 --format csv
    envlab tame --ell 5 --d 2 --e 13
    envlab tame --input rep.json --twist 1
    envlab mackey --input problem.json
    envlab clifford --input problem.json
    envlab eliminate --n 6 --constraints self_dual,rank=3

Exit codes: 0 success, 1 validation error, 2 resource cap hit, 64 usage.
Flags --seed/--cap/--format/--output fall back to ENVLAB_SEED,
ENVLAB_CAP, ENVLAB_FORMAT, ENVLAB_OUTPUT, read on every run; a malformed
value is a usage error, as the same bad flag is.  Reports are
deterministic: same input and seed give byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .charlattice import (FormalCharacter, fc_equivalent, fc_normalize,
                          fc_predicates, has_affine_triple)
from .errors import DimensionMismatch, ResourceError, UsageError, ValidationError
from .fieldcore import (DEFAULT_CLOSURE_CAP, DEFAULT_SEED, FinMatGroup,
                        ModuleRep, _is_int_list, json_int, matrix_from_flat)
from .gf import field_make
from .mackey import _value_at, clifford_decompose, mackey_irreducible, subgroup_datum
from .nori import nori_points
from .pipeline import eliminate_cases, envelope_report
from .smallrep import table_a
from .tame import TameCharacter, ell_restricted_digits, tame_weights_of_rep


_FORMATS = ("json", "text", "csv")


def seed(raw: str) -> int:
    """The type of --seed and ENVLAB_SEED: numpy's generators take no negative seed."""
    if (value := int(raw)) < 0:
        raise ValueError(raw)
    return value


# (flag, type, default) of the flags that fall back to ENVLAB_<FLAG>
_ENV_FLAGS = (("output", str, None), ("seed", seed, DEFAULT_SEED),
              ("cap", int, DEFAULT_CLOSURE_CAP), ("format", str, "json"))


def _resolve_env(args):
    """Fill each of those flags left unset from its environment variable,
    else from its default."""
    for flag, cast, default in _ENV_FLAGS:
        if getattr(args, flag) is not None:
            continue
        name = "ENVLAB_" + flag.upper()
        raw = os.environ.get(name)
        if raw is None:
            value = default
        else:
            try:
                value = cast(raw)
            except ValueError:
                raise UsageError(f"{name}: invalid {cast.__name__} value: {raw!r}") from None
            if flag == "format" and value not in _FORMATS:
                raise UsageError(f"{name}: invalid choice: {raw!r} "
                                 f"(choose from {', '.join(_FORMATS)})")
        setattr(args, flag, value)


def _emit(doc, args, csv_rows=None, text_lines=None):
    fmt = args.format
    if fmt == "json":
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    elif fmt == "csv":
        if csv_rows is None:
            raise UsageError("csv format is not available for this subcommand")
        payload = "\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n"
    else:
        lines = text_lines if text_lines is not None else [
            f"{k}: {v}" for k, v in sorted(doc.items())]
        payload = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _load_input(args):
    if not args.input:
        raise UsageError("--input is required for this subcommand")
    with open(args.input) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("the input must be a JSON object")
    return doc


def _mats_from(fld, n, flats):
    if not isinstance(flats, list):
        raise ValidationError("expected a list of matrices")
    return [matrix_from_flat(fld, n, flat) for flat in flats]


def _module_from(doc, key="module"):
    mf = doc.get("module_field")
    if not isinstance(mf, dict):
        raise ValidationError("the input needs a module_field object")
    fld = field_make(json_int(mf, "ell"), json_int(mf, "d", 1))
    flats = doc[key]
    if not isinstance(flats, list) or not flats or not isinstance(flats[0], list) \
            or not flats[0]:
        raise ValidationError(f"{key} must be a non-empty list of non-empty matrices")
    mats = _mats_from(fld, math.isqrt(len(flats[0])), flats)
    if not all(m.is_invertible() for m in mats):
        raise ValidationError("a group module's action matrices must be invertible")
    return ModuleRep(fld, [m.array for m in mats])


def _check_representation(W: ModuleRep, H: FinMatGroup):
    """ValidationError unless W(x g) = W(x) W(g) for every element x of
    H's closure and generator g: one word walk and the right Cayley table."""
    if len(W.action) != len(H.gens):
        raise DimensionMismatch("one action matrix per generator of the group")
    values = _value_at(W, H, np.arange(len(H.closure())))
    if not np.array_equal(values[H._right], W.field.matmul(values[:, None], W.action[None])):
        raise ValidationError("the module is not a representation of the group")


def _cmd_nori(args):
    G = FinMatGroup.from_json(_load_input(args))
    result = nori_points(G, cap=args.cap)
    _emit(result.to_json(), args)


def _cmd_envelope(args):
    G = FinMatGroup.from_json(_load_input(args))
    report = envelope_report(G, seed=args.seed, cap=args.cap)
    _emit(report.to_json(), args)


def _formal_char_from(doc):
    if not isinstance(doc, dict):
        raise ValidationError("a formal character must be a JSON object")
    rank = json_int(doc, "rank")
    weights = doc.get("weights")
    if not isinstance(weights, list) or not all(map(_is_int_list, weights)):
        raise ValidationError("weights must be a list of integer lists")
    return FormalCharacter(rank, tuple(tuple(w) for w in weights))


def _cmd_formal_char(args):
    doc = _load_input(args)
    fc = fc_normalize(_formal_char_from(doc))
    p = fc_predicates(fc)
    out = {
        "rank": fc.rank,
        "weights": [list(w) for w in fc.sorted_weights()],
        "zero_weight_count": p.zero_weight_count,
        "symmetric": p.is_symmetric,
        "antipodal_free": p.antipodal_pair_free,
        "affine_triple": has_affine_triple(fc),
    }
    if "other" in doc:
        out["equivalent"] = fc_equivalent(fc, _formal_char_from(doc["other"]))
    _emit(out, args)


def _cmd_table_a(args):
    rows = table_a(args.n)
    docs = [r.to_json() for r in rows]
    header = ["case", "group", "rep", "dim", "self_dual", "rank",
              "zero_weight_count"]
    csv_rows = [header] + [[d[k] for k in header] for d in docs]
    text = [f"{d['case']} {d['group']} {d['rep']} dim={d['dim']} "
            f"self_dual={d['self_dual']}" for d in docs]
    _emit({"n": args.n, "rows": docs}, args, csv_rows=csv_rows, text_lines=text)


def _cmd_tame(args):
    if args.input:
        doc = _load_input(args)
        G = FinMatGroup.from_json(doc)
        if len(G.generators) != 1:
            raise ValidationError("tame input must have exactly one generator")
        w = tame_weights_of_rep(G.generators[0], twist=args.twist)
        _emit({"ell": w.ell, "digits": list(w.digits)}, args)
        return
    if args.ell is None or args.d is None or args.e is None:
        raise UsageError("tame needs either --input or all of --ell/--d/--e")
    chi = TameCharacter(args.ell, args.d, args.e)
    _emit({"ell": args.ell, "d": args.d, "e": args.e,
           "digits": ell_restricted_digits(chi)}, args)


def _cmd_mackey(args):
    doc = _load_input(args)
    G = FinMatGroup.from_json(doc["group"])
    G.closure(args.cap)  # every later closure is of a subgroup of G
    sub_gens = _mats_from(G.field, G.n, doc["subgroup"])
    sub = subgroup_datum(G, sub_gens)
    W = _module_from(doc)
    _check_representation(W, sub.subgroup)
    verdict = mackey_irreducible(sub, W, seed=args.seed)
    out = {
        "irreducible": verdict.irreducible,
        "reason": verdict.reason,
        "index": sub.index,
        "induced_dim": sub.index * W.dim,
    }
    _emit(out, args)


def _cmd_clifford(args):
    doc = _load_input(args)
    G = FinMatGroup.from_json(doc["group"])
    G.closure(args.cap)
    n_gens = _mats_from(G.field, G.n, doc["normal"])
    V = _module_from(doc)
    _check_representation(V, G)
    shape = clifford_decompose(G, n_gens, V, seed=args.seed)
    _emit({"e": shape.e, "f": shape.f,
           "factor_dim": shape.factors[0].dim}, args)


def _cmd_eliminate(args):
    constraints = [c for c in (args.constraints or "").split(",") if c]
    rows = eliminate_cases(args.n, constraints)
    docs = [r.to_json() for r in rows]
    csv_rows = [["case"]] + [[d["case"]] for d in docs]
    _emit({"n": args.n, "constraints": constraints,
           "surviving": [d["case"] for d in docs]}, args,
          csv_rows=csv_rows,
          text_lines=[d["case"] for d in docs] or ["(none)"])


@functools.cache
def build_parser():
    """The argument parser, built once per process; flags that fall back to
    the environment default to None and are resolved by run()."""
    parser = argparse.ArgumentParser(prog="envlab")
    sub = parser.add_subparsers(dest="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input")
    common.add_argument("--output")
    common.add_argument("--seed", type=seed)
    common.add_argument("--cap", type=int)
    common.add_argument("--format", choices=_FORMATS)
    sub.add_parser("nori", parents=[common]).set_defaults(func=_cmd_nori)
    sub.add_parser("envelope", parents=[common]).set_defaults(func=_cmd_envelope)
    sub.add_parser("formal-char", parents=[common]).set_defaults(func=_cmd_formal_char)
    p = sub.add_parser("table-a", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_table_a)
    p = sub.add_parser("tame", parents=[common])
    p.add_argument("--ell", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--twist", type=int, default=0)
    p.set_defaults(func=_cmd_tame)
    sub.add_parser("mackey", parents=[common]).set_defaults(func=_cmd_mackey)
    sub.add_parser("clifford", parents=[common]).set_defaults(func=_cmd_clifford)
    p = sub.add_parser("eliminate", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--constraints", default="")
    p.set_defaults(func=_cmd_eliminate)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code == 0 else 64
    if not getattr(args, "func", None):
        parser.print_help()
        return 64
    try:
        _resolve_env(args)
        args.func(args)
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 64
    except ResourceError as ex:
        print(json.dumps({"error": type(ex).__name__, "message": str(ex)}),
              file=sys.stderr)
        return 2
    except (ValidationError, FileNotFoundError, KeyError,
            json.JSONDecodeError) as ex:
        print(json.dumps({"error": type(ex).__name__, "message": str(ex)}),
              file=sys.stderr)
        return 1
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
