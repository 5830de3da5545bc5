"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
to the real stdout so the verdicts survive pytest capture."""

import time

import numpy as np

from corpus import (diagonal_torus, mackey_corpus, sl2_group)
from envlab.charlattice import fc_equivalent, fc_predicates, has_affine_triple
from envlab.fieldcore import Mat, commutant
from envlab.gf import field_make
from envlab.mackey import (all_subgroups, clifford_blocks_transitive,
                           clifford_decompose, induce, irreducible_modules,
                           mackey_irreducible, subgroup_datum)
from envlab.nori import (nilpotent_exp, nori_points, one_param_subgroup,
                         plus_subgroup, unipotent_log)
from envlab.smallrep import table_a
from envlab.tame import TameCharacter, digits_to_exponent, ell_restricted_digits, tame_weights_of_rep


def report(capfd, num, name, ok):
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"ACCEPTANCE {num} {name}: {verdict}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_table_a_regeneration(capfd):
    table_a.cache_clear()
    start = time.perf_counter()
    rows_by_n = {n: table_a(n) for n in range(2, 7)}
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    counts = [len(rows_by_n[n]) for n in range(2, 7)]
    ok &= sum(counts) == 17
    ok &= counts == [1, 2, 4, 3, 7]
    flags = {r.label: r.self_dual for n in rows_by_n for r in rows_by_n[n]}
    expected_flags = {
        "(2A1)": True, "(3A1)": True, "(3A2)": False,
        "(4A1)": True, "(4A3)": False, "(4B2)": True, "(2A1⊗2A1)": True,
        "(5A1)": True, "(5A4)": False, "(5B2)": True,
        "(6A1)": True, "(6A2)": False, "(6A3)": True, "(6A5)": False,
        "(6C3)": True, "(2A1⊗3A1)": True, "(2A1⊗3A2)": False,
    }
    ok &= flags == expected_flags
    zeros = {r.label: fc_predicates(r.formal_char).zero_weight_count
             for n in rows_by_n for r in rows_by_n[n]}
    ok &= zeros["(3A1)"] == 1 and zeros["(5B2)"] == 1 and zeros["(4B2)"] == 0
    report(capfd, 1, "table A regeneration", ok)


def test_criterion_2_nori_correctness(capfd):
    start = time.perf_counter()
    ok = True
    for ell in (5, 7, 11, 13):
        G = sl2_group(ell)
        ok &= plus_subgroup(G).order == G.order
        result = nori_points(G)
        ok &= result.nori_points.order == G.order
        ok &= result.quotient_order == 1 <= 2 ** (2 - 1)
    torus = nori_points(diagonal_torus(11))
    ok &= torus.nori_points.order == 1
    ok &= (time.perf_counter() - start) < 120.0
    report(capfd, 2, "Nori correctness", ok)


def test_criterion_3_exp_log_round_trip(capfd):
    start = time.perf_counter()
    rng = np.random.default_rng(20240901)
    ok = True
    count = 0
    while count < 1000:
        ell = int(rng.choice([5, 7, 11]))
        n = int(rng.integers(2, 5))
        fld = field_make(ell, 1)
        N = np.triu(rng.integers(0, ell, size=(n, n)).astype(np.int64), k=1)
        P = rng.integers(0, ell, size=(n, n)).astype(np.int64)
        if fld.rank(P) < n:
            continue
        x = fld.add(fld.eye(n), N)
        x = Mat(fld, fld.matmul(fld.matmul(P, x), fld.inv_matrix(P)))
        ok &= nilpotent_exp(unipotent_log(x)) == x
        powers = one_param_subgroup(x)
        t, s = (int(v) for v in rng.integers(0, ell, size=2))
        ok &= powers[t] @ powers[s] == powers[(t + s) % ell]
        count += 1
    ok &= (time.perf_counter() - start) < 10.0
    report(capfd, 3, "exp/log round trip", ok)


def test_criterion_4_digit_bijection(capfd):
    start = time.perf_counter()
    ok = True
    for ell, d in [(5, 1), (5, 2), (5, 3), (7, 2)]:
        seen = set()
        for e in range(ell ** d - 1):
            digits = tuple(ell_restricted_digits(TameCharacter(ell, d, e)))
            ok &= digits_to_exponent(ell, digits) == e
            ok &= digits != (ell - 1,) * d
            seen.add(digits)
        ok &= len(seen) == ell ** d - 1
    ok &= (time.perf_counter() - start) < 5.0
    report(capfd, 4, "ell-restricted bijection", ok)


def test_criterion_5_mackey_oracle_equivalence(capfd):
    start = time.perf_counter()
    ok = True
    tuples = 0
    for name, G, fld in mackey_corpus():
        for H in all_subgroups(G):
            sub = subgroup_datum(G, H.generators)
            for W in irreducible_modules(H, fld):
                verdict = bool(mackey_irreducible(sub, W))
                brute = commutant(induce(sub, W))[1] == 1
                ok &= verdict == brute
                tuples += 1
    ok &= tuples > 100
    ok &= (time.perf_counter() - start) < 600.0
    report(capfd, 5, f"Mackey oracle equivalence ({tuples} tuples)", ok)


def test_criterion_6_clifford_shape(capfd):
    ok = True
    for name, G, fld in mackey_corpus():
        normals = [H for H in all_subgroups(G) if H.is_normal_in(G)]
        irreps = irreducible_modules(G, fld)
        for N in normals:
            for V in irreps:
                shape = clifford_decompose(G, N.generators, V)
                dims = {m.dim for m in shape.factors}
                ok &= len(dims) == 1
                ok &= shape.e * shape.f * dims.pop() == V.dim
                ok &= clifford_blocks_transitive(G, N.generators, shape)
    report(capfd, 6, "Clifford shape", ok)


def test_criterion_7_commutant_law(capfd):
    rng = np.random.default_rng(20240901)
    corpus = mackey_corpus()
    _, s4, f13 = corpus[-1]
    irreps = irreducible_modules(s4, f13)
    ok = all(commutant(m)[1] == 1 for m in irreps)
    for trial in range(50):
        picks = rng.integers(0, len(irreps), size=int(rng.integers(1, 4)))
        mults = {}
        rho = None
        for i in picks:
            mults[int(i)] = mults.get(int(i), 0) + 1
            rho = irreps[int(i)] if rho is None else rho.direct_sum(irreps[int(i)])
        expect = sum(m * m for m in mults.values())
        ok &= commutant(rho)[1] == expect
    report(capfd, 7, "commutant law", ok)


def test_criterion_8_formal_character_facts(capfd):
    rows4 = {r.label: r for r in table_a(4)}
    rows6 = {r.label: r for r in table_a(6)}
    ok = fc_equivalent(rows4["(4B2)"].formal_char,
                       rows4["(2A1⊗2A1)"].formal_char)
    ok &= fc_equivalent(rows6["(6A3)"].formal_char, rows6["(6C3)"].formal_char)
    ok &= not fc_equivalent(rows4["(4A1)"].formal_char,
                            rows4["(4B2)"].formal_char)
    ok &= has_affine_triple(rows6["(2A1⊗3A1)"].formal_char)
    from envlab.charlattice import FormalCharacter
    sl3_std_plus_dual = FormalCharacter(2, ((1, 0), (-1, 1), (0, -1),
                                            (-1, 0), (1, -1), (0, 1)))
    ok &= not has_affine_triple(sl3_std_plus_dual)
    report(capfd, 8, "formal character facts", ok)


def test_criterion_9_tame_cyclotomic_anchor(capfd):
    fld = field_make(5, 1)
    g = Mat(fld, np.array([[fld.least_primitive()]], dtype=np.int64))
    ok = tame_weights_of_rep(g).digits == (1,)
    report(capfd, 9, "tame cyclotomic anchor", ok)
