"""Regenerate bench/expected.json: the Mackey verdicts of the `mackey`
workload, each checked against the brute-force oracle (Ind_H^G W is
irreducible iff the commutant of the induced module is one-dimensional).

The benchmark compares its outputs with this file and never runs the
oracle itself.  Run from the repository root:

    python3 bench/make_expected.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import mackey_corpus, mackey_session, mackey_triples  # noqa: E402

import envlab.fieldcore as fc  # noqa: E402
from envlab.gf import field_make  # noqa: E402
from envlab.mackey import all_subgroups, induce, irreducible_modules, subgroup_datum  # noqa: E402


def oracle_triples(G, fld):
    out = []
    for H in all_subgroups(G):
        sub = subgroup_datum(G, H.generators)
        for W in irreducible_modules(H, fld):
            out.append([H.order, W.dim, fc.commutant(induce(sub, W))[1] == 1])
    return sorted(out)


def main():
    expected = {}
    for name, ell, gens in mackey_corpus():
        doc = {"ell": ell, "n": gens[0].shape[0],
               "generators": [g.reshape(-1).tolist() for g in gens]}
        G = fc.FinMatGroup.from_json(doc)
        triples = mackey_triples(mackey_session(doc))
        brute = oracle_triples(G, field_make(ell, 1))
        if triples != brute:
            raise SystemExit(f"{name}: Mackey verdicts disagree with the oracle")
        expected[name] = {"order": G.order, "triples": triples}
        print(f"{name}: order {G.order}, {len(triples)} (H, W) pairs agree with the oracle")
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(expected.items())]
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        fh.write('{"mackey": {\n' + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    main()
