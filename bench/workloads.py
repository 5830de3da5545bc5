"""The four benchmark workloads: inputs drawn from a seed, the job that runs
each input through envlab, and the output checks.

Every matrix group is conjugated by a random P in GL_n drawn from the
workload seed, and the job order of each pass is shuffled with the same
seed; envlab only ever sees the generated JSON.  The checks compare each
output with facts that hold for every conjugate of the input and do not
come from envlab itself: group orders, composition-factor dimensions,
commutant dimensions, the table-A rows and the Mackey verdicts stored in
expected.json (verified once against the brute-force induction oracle by
make_expected.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import envlab.cli
import envlab.fieldcore
import envlab.gf
import envlab.mackey
import envlab.smallrep

HERE = os.path.dirname(os.path.abspath(__file__))

# table_a's lru_cache wrapper, captured before tracing replaces the name.
_TABLE_A = envlab.smallrep.table_a


class JobFailed(Exception):
    """An envlab CLI job exited with a non-zero code."""


class Job:
    """One unit of work.  `run` returns the output bytes that are hashed;
    `check` returns a list of problems with a decoded output; `recorded`
    picks the report fields that are kept but not asserted."""

    def __init__(self, name, run, check, recorded=None, before=None):
        self.name = name
        self.run = run
        self.check = check
        self.recorded = recorded or (lambda out: {})
        self.before = before


# -- matrices over GF(ell^d), as integer-encoded numpy arrays --

def _random_gl(fld, n, rng):
    while True:
        P = rng.integers(0, fld.q, size=(n, n)).astype(np.int64)
        if fld.rank(P) == n:
            return P


def _conjugated(fld, n, gens, rng):
    """The group JSON of P g P^-1 over the generators g, for a random P."""
    P = _random_gl(fld, n, rng)
    Pinv = fld.inv_matrix(P)
    flats = []
    for g in gens:
        g = np.asarray(g, dtype=np.int64).reshape(n, n)
        flats.append(fld.matmul(fld.matmul(P, g), Pinv).reshape(-1).tolist())
    doc = {"ell": fld.ell, "n": n, "generators": flats}
    if fld.d > 1:
        doc["d"] = fld.d
    return doc


def _sl2_gens(fld):
    """Upper and lower unit transvections; over GF(ell^d), d > 1, also
    diag(w, w^-1) for a primitive w, whose square generates the field."""
    gens = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
    if fld.d > 1:
        w = fld.least_primitive()
        gens.append([[w, 0], [0, fld.inv(w)]])
    return [np.array(g, dtype=np.int64) for g in gens]


def _sym2(g, ell):
    """Action of g in SL2 on the quadratic forms x^2, xy, y^2."""
    (p, q), (r, s) = (int(v) for v in g[0]), (int(v) for v in g[1])
    return np.array([[p * p, 2 * p * q, q * q],
                     [p * r, p * s + q * r, q * s],
                     [r * r, 2 * r * s, s * s]], dtype=np.int64) % ell


def _so3_gens(fld):
    """Sym^2 of the SL2 transvections (generating Omega_3 = PSL2) and
    diag(w, 1, w^-1) for a primitive w: all of SO3(F_ell) = PGL2(F_ell)."""
    w = fld.least_primitive()
    return [_sym2(g, fld.ell) for g in _sl2_gens(fld)] + [
        np.diag([w, 1, fld.inv(w)]).astype(np.int64)]


def _tensor_square_gens(fld):
    return [fld.kron(g, g) for g in _sl2_gens(fld)]


def _sl2_order(q):
    return q * (q * q - 1)


# -- CLI jobs --

def _cli_runner(argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = envlab.cli.run(argv)
        if rc != 0:
            raise JobFailed(f"envlab {' '.join(argv)} exited {rc}")
        return buf.getvalue().encode()
    return run


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _envelope_job(name, doc, path, facts):
    """A CLI `envelope` job on one group.  `facts` holds what is known
    about the group independently of envlab: its order, the sorted
    composition-factor dimensions, the commutant dimension, and where it
    is a fact, the order of G+ (the subgroup generated by the elements of
    order ell), of the Nori group, and the tame weights."""
    with open(path, "w") as fh:
        json.dump(doc, fh)

    def check(out):
        problems = []
        _expect(problems, "factor_dims", out["factor_dims"], facts["factor_dims"])
        _expect(problems, "commutant_dims.group", out["commutant_dims"]["group"],
                facts["commutant"])
        # the order is not in the report; close the group once, outside timing
        order = envlab.fieldcore.FinMatGroup.from_json(doc).order
        _expect(problems, "group order", order, facts["order"])
        if doc.get("d", 1) == 1:
            _expect(problems, "failures", out["failures"], [])
            nori = out.get("nori", {})
            for key in ("plus_order", "nori_order"):
                if key in facts:
                    _expect(problems, "nori." + key, nori.get(key), facts[key])
        elif any(not f.startswith("nori: ") for f in out["failures"]):
            problems.append(f"failures beyond the Nori stage: {out['failures']}")
        if "tame" in facts:
            _expect(problems, "tame_weights", sorted(out.get("tame_weights", [])),
                    facts["tame"])
        return problems

    def recorded(out):
        keep = {"quotient_order": out["quotient_order"]}
        keep.update({k: v for k, v in out["predicates"].items()
                     if k.startswith("quotient_")})
        if "nori" in out and "nori_order" not in facts:
            keep["nori_order"] = out["nori"]["nori_order"]
        return keep

    return Job(name, _cli_runner(["envelope", "--input", path]), check, recorded)


def _envelope_jobs(seed, input_dir):
    gf = envlab.gf
    jobs = []

    def add(name, fld, n, gens, facts):
        i = len(jobs)
        rng = np.random.default_rng([seed, i])
        path = os.path.join(input_dir, f"envelope-{i}.json")
        jobs.append(_envelope_job(name, _conjugated(fld, n, gens, rng), path, facts))

    for ell in (11, 13, 17, 19, 23):
        fld = gf.GF(ell)
        order = _sl2_order(ell)
        add(f"SL2(F{ell})", fld, 2, _sl2_gens(fld),
            {"order": order, "factor_dims": [2], "commutant": 1,
             "plus_order": order, "nori_order": order})
    for ell in (7, 11, 13):
        fld = gf.GF(ell)
        order = _sl2_order(ell)
        add(f"SO3(F{ell})", fld, 3, _so3_gens(fld),
            {"order": order, "factor_dims": [3], "commutant": 1,
             "plus_order": order // 2})
    fld = gf.GF(3)
    sl3 = [np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
           np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])]
    add("SL3(F3)", fld, 3, sl3,
        {"order": 5616, "factor_dims": [3], "commutant": 1, "plus_order": 5616})
    fld = gf.GF(11)
    add("SL2(F11)^2", fld, 4, _tensor_square_gens(fld),
        {"order": _sl2_order(11) // 2, "factor_dims": [1, 3], "commutant": 2,
         "plus_order": _sl2_order(11) // 2})
    w = fld.least_primitive()
    add("T(F11)", fld, 2, [np.diag([w, 1]), np.diag([1, w])],
        {"order": 100, "factor_dims": [1, 1], "commutant": 2,
         "plus_order": 1, "nori_order": 1})
    # one generator: the tame path; w and w^3 have tame weights 1 and 3
    add("<diag(w,w^3)>(F11)", fld, 2, [np.diag([w, pow(w, 3, 11)])],
        {"order": 10, "factor_dims": [1, 1], "commutant": 2,
         "plus_order": 1, "nori_order": 1, "tame": [1, 3]})
    return jobs


def _extfield_jobs(seed, input_dir):
    jobs = []
    for i, (ell, d, square) in enumerate(
            [(3, 2, False), (2, 3, False), (2, 4, False), (5, 2, False),
             (3, 2, True)]):
        fld = envlab.gf.GF(ell, d)
        rng = np.random.default_rng([seed, i])
        if square:
            name, n, gens = f"SL2(GF{fld.q})^2", 4, _tensor_square_gens(fld)
            facts = {"order": _sl2_order(fld.q) // 2, "factor_dims": [1, 3],
                     "commutant": 2}
        else:
            name, n, gens = f"SL2(GF{fld.q})", 2, _sl2_gens(fld)
            facts = {"order": _sl2_order(fld.q), "factor_dims": [2],
                     "commutant": 1}
        path = os.path.join(input_dir, f"extfield-{i}.json")
        jobs.append(_envelope_job(name, _conjugated(fld, n, gens, rng), path, facts))
    return jobs


# -- the Mackey/Clifford library session --

def _perm(n, images):
    M = np.zeros((n, n), dtype=np.int64)
    for j, i in enumerate(images):
        M[i, j] = 1
    return M


def _cycle(n):
    return _perm(n, [(i + 1) % n for i in range(n)])


def mackey_corpus():
    """(name, ell, generators): the groups of the induction sweeps, each
    over a field of characteristic prime to its order that splits it."""
    i5 = 2  # 2^2 = -1 in F_5
    return [
        ("S3/F7", 7, [_perm(3, [1, 0, 2]), _cycle(3)]),
        ("C6/F7", 7, [_cycle(6)]),
        ("D4/F5", 5, [_cycle(4), _perm(4, [(-i) % 4 for i in range(4)])]),
        ("Q8/F5", 5, [np.array([[i5, 0], [0, 5 - i5]]), np.array([[0, 4], [1, 0]])]),
        ("D5/F11", 11, [_cycle(5), _perm(5, [(-i) % 5 for i in range(5)])]),
        ("D6/F7", 7, [_cycle(6), _perm(6, [(-i) % 6 for i in range(6)])]),
        ("A4/F7", 7, [_perm(4, [1, 0, 3, 2]), _perm(4, [1, 2, 0, 3])]),
        ("S4/F13", 13, [_perm(4, [1, 0, 2, 3]), _cycle(4)]),
    ]


def mackey_session(doc):
    """All subgroups up to conjugacy, the Mackey verdict for every
    (H, irreducible W of H), and the Clifford shape of every irreducible
    V of G restricted to every normal N.  Module-attribute calls, so that
    tracing sees them."""
    mk = envlab.mackey
    G = envlab.fieldcore.FinMatGroup.from_json(doc)
    fld = envlab.gf.field_make(G.field.ell, 1)
    subs = mk.all_subgroups(G)
    verdicts = []
    for H in subs:
        sub = mk.subgroup_datum(G, H.generators)
        row = []
        for W in mk.irreducible_modules(H, fld):
            v = mk.mackey_irreducible(sub, W)
            row.append([W.dim, v.irreducible, v.reason])
        verdicts.append([H.order, sub.index, row])
    irreps = mk.irreducible_modules(G, fld)
    shapes = []
    for N in subs:
        if not N.is_normal_in(G):
            continue
        row = []
        for V in irreps:
            s = mk.clifford_decompose(G, N.generators, V)
            row.append([V.dim, s.e, s.f, s.factors[0].dim])
        shapes.append([N.order, row])
    return {"order": G.order, "mackey": verdicts, "clifford": shapes}


def mackey_triples(out):
    """The verdicts as a sorted list of [|H|, dim W, irreducible]; it does
    not depend on the conjugate or on the enumeration order."""
    return sorted([h, w[0], w[1]] for h, _, row in out["mackey"] for w in row)


def _mackey_jobs(seed, input_dir):
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)["mackey"]
    jobs = []
    for i, (name, ell, gens) in enumerate(mackey_corpus()):
        rng = np.random.default_rng([seed, i])
        n = gens[0].shape[0]
        doc = _conjugated(envlab.gf.GF(ell), n, gens, rng)
        want = expected[name]

        def run(doc=doc):
            return json.dumps(mackey_session(doc), sort_keys=True,
                              separators=(",", ":")).encode()

        def check(out, want=want):
            problems = []
            _expect(problems, "group order", out["order"], want["order"])
            _expect(problems, "Mackey verdicts", mackey_triples(out), want["triples"])
            for n_order, row in out["clifford"]:
                for dim, e, f, fdim in row:
                    if e * f * fdim != dim:
                        problems.append(f"Clifford |N|={n_order}: "
                                        f"{e}*{f}*{fdim} != dim V = {dim}")
            return problems

        jobs.append(Job(name, run, check))
    return jobs


# -- table A, case elimination and formal characters (no field work) --

TABLE_A_LABELS = {
    2: ["(2A1)"],
    3: ["(3A1)", "(3A2)"],
    4: ["(4A1)", "(4A3)", "(4B2)", "(2A1⊗2A1)"],
    5: ["(5A1)", "(5A4)", "(5B2)"],
    6: ["(6A1)", "(6A2)", "(6A3)", "(6A5)", "(6C3)", "(2A1⊗3A1)", "(2A1⊗3A2)"],
}
NOT_SELF_DUAL = {"(3A2)", "(4A3)", "(5A4)", "(6A2)", "(6A5)", "(2A1⊗3A2)"}
HAS_ZERO_WEIGHT = {"(3A1)", "(5A1)", "(5B2)"}  # each exactly once

ELIMINATE = [
    (4, "rank=1", ["(4A1)"]),
    (6, "self_dual,rank=3", ["(6A3)", "(6C3)"]),
    (5, "zero_weight_count=0", ["(5A4)"]),
]

# Weights in Dynkin-label coordinates, written out from the root data.
CHARACTERS = {
    "(4A1)": [[3], [1], [-1], [-3]],
    "(4B2)": [[0, 1], [1, -1], [-1, 1], [0, -1]],
    "(2A1⊗2A1)": [[1, 1], [1, -1], [-1, 1], [-1, -1]],
    "(6A3)": [[0, 1, 0], [1, -1, 1], [1, 0, -1], [-1, 0, 1], [-1, 1, -1],
              [0, -1, 0]],
    "(6C3)": [[1, 0, 0], [-1, 0, 0], [-1, 1, 0], [1, -1, 0], [0, -1, 1],
              [0, 1, -1]],
}
FORMAL_CHAR = [("(4B2)", "(2A1⊗2A1)", True), ("(6A3)", "(6C3)", True),
               ("(4A1)", "(4B2)", False)]


def _random_unimodular(rank, rng):
    """Random sign flips and row additions: a random change of lattice
    basis, which no formal-character invariant may notice."""
    T = np.diag(rng.choice([-1, 1], size=rank)).astype(np.int64)
    for _ in range(2 * rank if rank > 1 else 0):
        i, j = rng.choice(rank, size=2, replace=False)
        T[i] += int(rng.choice([-1, 1])) * T[j]
    return T


def _scrambled(weights, rng):
    W = np.array(weights, dtype=np.int64)
    W = W @ _random_unimodular(W.shape[1], rng).T
    return W[rng.permutation(len(W))].tolist()


def _table_a_jobs(seed, input_dir):
    jobs = []
    clear = _TABLE_A.cache_clear
    for n, labels in TABLE_A_LABELS.items():
        def check(out, n=n, labels=labels):
            problems = []
            rows = out["rows"]
            _expect(problems, f"table A n={n} labels", sorted(r["case"] for r in rows),
                    sorted(labels))
            for r in rows:
                _expect(problems, f"{r['case']} self_dual", r["self_dual"],
                        r["case"] not in NOT_SELF_DUAL)
                _expect(problems, f"{r['case']} zero_weight_count",
                        r["zero_weight_count"], int(r["case"] in HAS_ZERO_WEIGHT))
                _expect(problems, f"{r['case']} dim", r["dim"], n)
            return problems
        jobs.append(Job(f"table-a n={n}", _cli_runner(["table-a", "--n", str(n)]),
                        check, before=clear))
    for n, constraints, want in ELIMINATE:
        def check(out, want=want):
            problems = []
            _expect(problems, "surviving", sorted(out["surviving"]), sorted(want))
            return problems
        jobs.append(Job(f"eliminate n={n} {constraints}",
                        _cli_runner(["eliminate", "--n", str(n),
                                     "--constraints", constraints]),
                        check, before=clear))
    for i, (a, b, verdict) in enumerate(FORMAL_CHAR):
        rng = np.random.default_rng([seed, i])
        doc = {"rank": len(CHARACTERS[a][0]),
               "weights": _scrambled(CHARACTERS[a], rng),
               "other": {"rank": len(CHARACTERS[b][0]),
                         "weights": _scrambled(CHARACTERS[b], rng)}}
        name = f"formal-char {a}/{b}"
        path = os.path.join(input_dir, f"formal-char-{i}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)

        def check(out, verdict=verdict, zeros=int(a in HAS_ZERO_WEIGHT)):
            problems = []
            _expect(problems, "equivalent", out["equivalent"], verdict)
            _expect(problems, "zero_weight_count", out["zero_weight_count"], zeros)
            return problems
        jobs.append(Job(name, _cli_runner(["formal-char", "--input", path]),
                        check, before=clear))
    return jobs


_BUILDERS = {"envelope": _envelope_jobs, "extfield": _extfield_jobs,
             "mackey": _mackey_jobs, "table-a": _table_a_jobs}


def build_jobs(workload, seed, input_dir):
    """The jobs of one pass, in definition order; inputs go to input_dir."""
    os.makedirs(input_dir, exist_ok=True)
    return _BUILDERS[workload](seed, input_dir)
