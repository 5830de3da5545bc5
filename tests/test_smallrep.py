"""Root data, Weyl dimensions, Freudenthal multiplicities, and the
regenerated case table.  The dominant-weight Freudenthal recursion is
checked against the all-weights recursion it replaced, and the pruned
enumeration of small representations against a brute-force box."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlab import smallrep
from envlab.charlattice import fc_equivalent, fc_predicates, q_rref
from envlab.errors import NotDominant, OutOfRange, ValidationError
from envlab.smallrep import (IrrepLabel, RootDatum, _factor_reps_up_to,
                             dual_highest_weight, freudenthal_weights,
                             is_self_dual, simple_factor, table_a,
                             weyl_dimension)


def test_family_rank_floors():
    with pytest.raises(ValidationError):
        simple_factor("B", 1)
    with pytest.raises(ValidationError):
        simple_factor("C", 2)
    with pytest.raises(ValidationError):
        simple_factor("D", 3)
    with pytest.raises(ValidationError):
        simple_factor("E", 6)


def test_positive_root_counts():
    # |Phi+| = r(r+1)/2 for A_r, r^2 for B_r/C_r, r(r-1) for D_r
    assert len(simple_factor("A", 3).positive_roots) == 6
    assert len(simple_factor("B", 2).positive_roots) == 4
    assert len(simple_factor("C", 3).positive_roots) == 9
    assert len(simple_factor("D", 4).positive_roots) == 12


def test_weyl_dimensions_known_values():
    a1 = simple_factor("A", 1)
    assert [a1.weyl_dimension((k,)) for k in range(6)] == [1, 2, 3, 4, 5, 6]
    a2 = simple_factor("A", 2)
    assert a2.weyl_dimension((1, 0)) == 3
    assert a2.weyl_dimension((1, 1)) == 8
    assert a2.weyl_dimension((2, 0)) == 6
    b2 = simple_factor("B", 2)
    assert b2.weyl_dimension((1, 0)) == 5
    assert b2.weyl_dimension((0, 1)) == 4
    c3 = simple_factor("C", 3)
    assert c3.weyl_dimension((1, 0, 0)) == 6
    assert c3.weyl_dimension((0, 1, 0)) == 14
    d4 = simple_factor("D", 4)
    assert d4.weyl_dimension((1, 0, 0, 0)) == 8
    assert d4.weyl_dimension((0, 0, 0, 1)) == 8  # spin


def test_weyl_dimension_rejects_negative_labels():
    with pytest.raises(NotDominant):
        simple_factor("A", 2).weyl_dimension((-1, 0))


def test_freudenthal_total_matches_weyl_dim():
    cases = [("A", 2, (1, 1)), ("A", 2, (2, 1)), ("B", 2, (1, 1)),
             ("C", 3, (1, 0, 0)), ("D", 4, (0, 1, 0, 0)), ("A", 1, (5,))]
    for fam, r, labels in cases:
        f = simple_factor(fam, r)
        mults = f.weight_multiplicities(labels)
        assert sum(mults.values()) == f.weyl_dimension(labels)


def test_freudenthal_weyl_invariance():
    f = simple_factor("B", 2)
    mults = f.weight_multiplicities((1, 1))
    for mu, m in mults.items():
        for a in f.simple_roots:
            k = sum(x * y for x, y in zip(mu, f.coroot(a)))
            refl = tuple(x - k * y for x, y in zip(mu, a))
            assert mults[refl] == m


def test_adjoint_zero_weight_multiplicity_is_rank():
    a2 = simple_factor("A", 2)
    mults = a2.weight_multiplicities((1, 1))
    zero = tuple(Fraction(0) for _ in range(a2.ambient))
    assert mults[zero] == 2


def test_make_dominant():
    a2 = simple_factor("A", 2)
    lam = a2.weight_from_labels((1, 2))
    neg = tuple(-x for x in lam)
    dom = a2.make_dominant(neg)
    assert a2.dynkin_labels(dom) == (2, 1)


def test_duality():
    a2 = RootDatum((("A", 2),))
    std = IrrepLabel(a2, ((1, 0),))
    assert dual_highest_weight(std) == ((0, 1),)
    assert not is_self_dual(std)
    assert is_self_dual(IrrepLabel(a2, ((1, 1),)))
    b2 = RootDatum((("B", 2),))
    assert is_self_dual(IrrepLabel(b2, ((0, 1),)))


def test_freudenthal_formal_character_counts():
    rep = IrrepLabel(RootDatum((("A", 1), ("A", 1))), ((1,), (2,)))
    assert weyl_dimension(rep) == 6
    fc = freudenthal_weights(rep)
    assert fc.n == 6
    assert fc.rank == 2


def test_table_a_out_of_range():
    with pytest.raises(OutOfRange):
        table_a(7)
    with pytest.raises(OutOfRange):
        table_a(1)


def test_table_a_row_sets():
    expect = {
        2: {"(2A1)"},
        3: {"(3A1)", "(3A2)"},
        4: {"(4A1)", "(4A3)", "(4B2)", "(2A1⊗2A1)"},
        5: {"(5A1)", "(5A4)", "(5B2)"},
        6: {"(6A1)", "(6A2)", "(6A3)", "(6A5)", "(6C3)",
            "(2A1⊗3A1)", "(2A1⊗3A2)"},
    }
    for n, labels in expect.items():
        rows = table_a(n)
        assert {r.label for r in rows} == labels
        for r in rows:
            assert r.dim == n
            assert r.formal_char.n == n


def test_table_a_group_names():
    rows = {r.label: r for r in table_a(4)}
    assert rows["(4B2)"].group_name == "Sp_4"
    assert rows["(2A1⊗2A1)"].group_name == "SO_4"
    rows6 = {r.label: r for r in table_a(6)}
    assert rows6["(6A3)"].group_name == "SO_6"
    assert rows6["(6C3)"].group_name == "Sp_6"


def test_table_a_self_duality_matches_symmetry():
    for n in range(2, 7):
        for row in table_a(n):
            assert row.self_dual == fc_predicates(row.formal_char).is_symmetric


def test_table_a_zero_weight_counts():
    zero_of = {}
    for n in range(2, 7):
        for row in table_a(n):
            zero_of[row.label] = fc_predicates(row.formal_char).zero_weight_count
    assert zero_of["(3A1)"] == 1
    assert zero_of["(5B2)"] == 1
    assert zero_of["(4B2)"] == 0
    assert zero_of["(4A1)"] == 0
    assert zero_of["(5A1)"] == 1


def test_octahedron_equivalence():
    rows = {r.label: r for r in table_a(6)}
    assert fc_equivalent(rows["(6A3)"].formal_char, rows["(6C3)"].formal_char)
    assert not fc_equivalent(rows["(6A3)"].formal_char, rows["(6A5)"].formal_char)


def test_dual_pairs_appear_once():
    # SL_4 std and its dual are one row, not two
    labels = [r.label for r in table_a(4)]
    assert labels.count("(4A3)") == 1


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _in_positive_root_cone(f, v):
    """v is a non-negative combination of the simple roots."""
    n = len(f.simple_roots)
    R, pivots = q_rref([[a[j] for a in f.simple_roots] + [v[j]]
                        for j in range(f.ambient)])
    return n not in pivots and all(row[n] >= 0 for row in R)


def _all_weights_freudenthal(f, labels):
    """The reference: Freudenthal at every candidate lam - sum c_i alpha_i,
    level by level, each alpha-string ending at the first term that is
    neither a known weight nor below lam in the root cone."""
    lam = f.weight_from_labels(labels)
    lam_rho = tuple(x + y for x, y in zip(lam, f.rho))
    norm_lam = _dot(lam_rho, lam_rho)
    known = {lam: 1}
    frontier = [lam]
    while frontier:
        candidates = {tuple(x - y for x, y in zip(v, a))
                      for v in frontier for a in f.simple_roots}
        nxt = []
        for mu in sorted(candidates):
            if mu in known:
                continue
            mu_rho = tuple(x + y for x, y in zip(mu, f.rho))
            denom = norm_lam - _dot(mu_rho, mu_rho)
            if denom == 0:
                continue
            total = Fraction(0)
            for a in f.positive_roots:
                k = 1
                while True:
                    up = tuple(x + k * y for x, y in zip(mu, a))
                    m_up = known.get(f.make_dominant(up), 0)
                    if m_up == 0 and not _in_positive_root_cone(
                            f, tuple(x - y for x, y in zip(lam, up))):
                        break
                    total += 2 * m_up * _dot(up, a)
                    k += 1
            m = total / denom
            assert m.denominator == 1
            if m > 0:
                known[mu] = int(m)
                nxt.append(mu)
        frontier = nxt
    return {v: m for mu, m in known.items() if f.make_dominant(mu) == mu
            for v in f.weyl_orbit(mu)}


@pytest.mark.parametrize("fam,r,labels", [
    ("A", 1, (5,)), ("A", 2, (1, 1)), ("A", 2, (2, 1)), ("A", 3, (1, 0, 1)),
    ("B", 2, (1, 1)), ("B", 2, (2, 0)), ("C", 3, (1, 0, 0)), ("B", 3, (0, 0, 1)),
])
def test_dominant_freudenthal_matches_all_weights_reference(fam, r, labels):
    f = simple_factor(fam, r)
    assert f.weight_multiplicities(labels) == _all_weights_freudenthal(f, labels)


@pytest.mark.parametrize("max_dim", [4, 6])
@pytest.mark.parametrize("fam,r", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                   ("B", 2), ("B", 3), ("C", 3), ("D", 4)])
def test_factor_reps_match_brute_force_box(fam, r, max_dim):
    # V(lam) has the distinct weights lam - k alpha_i (0 <= k <= m_i), so its
    # dimension is at least 1 + sum(m_i): labels summing to >= max_dim are out
    f = simple_factor(fam, r)
    expect = []
    for labels in itertools.product(range(max_dim), repeat=r):
        if 0 < sum(labels) < max_dim:
            d = f.weyl_dimension(labels)
            if d <= max_dim:
                expect.append((labels, d))
    assert _factor_reps_up_to(f, max_dim) == expect


def test_table_a_enumerates_each_factor_once(monkeypatch):
    calls = []

    def counted(factor, max_dim):
        calls.append((factor.family, factor.rank, max_dim))
        return _factor_reps_up_to(factor, max_dim)

    monkeypatch.setattr(smallrep, "_factor_reps_up_to", counted)
    table_a.cache_clear()
    try:
        for n in range(2, 7):
            table_a(n)
    finally:
        table_a.cache_clear()
    assert len(calls) == len(set(calls)) == 34


SMALL_REPS = [(fam, r, labels)
              for fam, ranks in (("A", range(1, 6)), ("B", range(2, 5)),
                                 ("C", range(3, 5)), ("D", range(4, 6)))
              for r in ranks
              for labels, _ in _factor_reps_up_to(simple_factor(fam, r), 40)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_REPS))
def test_multiplicities_sum_to_weyl_dimension_and_are_weyl_invariant(case):
    fam, r, labels = case
    f = simple_factor(fam, r)
    mults = f.weight_multiplicities(labels)
    assert sum(mults.values()) == f.weyl_dimension(labels)
    for mu, m in mults.items():
        for a, c in zip(f.simple_roots, f.coroots):
            k = _dot(mu, c)
            assert mults[tuple(x - k * y for x, y in zip(mu, a))] == m


def _fraction_weyl_dimension(f, labels):
    """The Weyl dimension formula in orthogonal coordinates, with exact
    fractions: the reference for the integer coroot-pairing version."""
    lam = f.weight_from_labels(labels)
    num = den = Fraction(1)
    for a in f.positive_roots:
        num *= _dot(tuple(x + y for x, y in zip(lam, f.rho)), a)
        den *= _dot(f.rho, a)
    assert (num / den).denominator == 1
    return int(num / den)


def _labels_up_to(f, max_dim):
    """Every dominant label (zero included) with reference Weyl dimension
    <= max_dim, by a DFS that stops at the first probe above it (the
    dimension is monotone in each label)."""
    out = []

    def rec(prefix):
        for m in itertools.count():
            labels = tuple(prefix + [m] + [0] * (f.rank - len(prefix) - 1))
            if _fraction_weyl_dimension(f, labels) > max_dim:
                out.append(labels)  # the first probe above, checked too
                return
            if len(prefix) + 1 < f.rank:
                rec(prefix + [m])
            else:
                out.append(labels)
    rec([])
    return out


@pytest.mark.parametrize("fam,r", [(fam, r) for fam, ranks in (
    ("A", range(1, 7)), ("B", range(2, 6)), ("C", range(3, 6)), ("D", range(4, 6)))
    for r in ranks])
def test_weyl_dimension_matches_fraction_formula(fam, r):
    f = simple_factor(fam, r)
    for labels in _labels_up_to(f, 120):
        assert f.weyl_dimension(labels) == _fraction_weyl_dimension(f, labels)
