"""The integer Table-A path against the exact-rational code it replaced
(tests/rational_oracles.py): the Cartan-matrix root data against the
orthogonal realization, Dynkin-label Freudenthal multiplicities and
duals, the divisor-pruned enumeration against the full product, the
fraction-free lattice matching and commuting map, and a guard that
table A, from the root data on, builds no Fraction."""

import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envlab import smallrep
from envlab.charlattice import (_adjugate, _mat_mul, _solve_commuting_map,
                                _unimodular_match, fc_dual, fc_equivalent)
from envlab.errors import SearchBudgetExceeded
from envlab.smallrep import _combos_of_dim, _factor_reps_up_to, simple_factor, table_a
from rational_oracles import OrthogonalFactor, unimodular_match

# the fourteen simple factors of rank <= 5
FACTORS = [(fam, r) for fam, ranks in (("A", range(1, 6)), ("B", range(2, 6)),
                                       ("C", range(3, 6)), ("D", range(4, 6)))
           for r in ranks]
# every dominant label of Weyl dimension <= 300, the zero label included
LABELS = {key: [(0,) * key[1]] + [lab for lab, _ in
                                  _factor_reps_up_to(simple_factor(*key), 300)]
          for key in FACTORS}


@pytest.mark.parametrize("fam,r", [(fam, r) for fam, ranks in (
    ("A", range(1, 7)), ("B", range(2, 7)), ("C", range(3, 7)), ("D", range(4, 7)))
    for r in ranks])
def test_cartan_root_data_match_the_orthogonal_realization(fam, r):
    f, o = simple_factor(fam, r), OrthogonalFactor(fam, r)
    assert f.cartan == o.cartan
    assert len(f.positive_roots) == len(set(f.positive_roots))
    assert set(f.positive_roots) == {o.int_labels(a) for a in o.positive_roots}
    # the Gram matrices agree up to one positive scale
    scale = f._gram[0][0] / o.gram[0][0]
    assert scale > 0
    assert [[scale * x for x in row] for row in o.gram] == [list(row) for row in f._gram]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FACTORS).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(LABELS[key]))))
def test_label_multiplicities_and_duals_match_the_orthogonal_oracle(case):
    key, labels = case
    f = simple_factor(*key)
    o = OrthogonalFactor(*key)
    assert f.weight_multiplicities(labels) == o.in_labels(o.weight_multiplicities(labels))
    minus = tuple(-x for x in o.weight_from_labels(labels))
    assert f.make_dominant(tuple(-m for m in labels)) == o.int_labels(o.make_dominant(minus))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(1, 12), max_size=5), max_size=4),
       st.integers(1, 60))
def test_combos_of_dim_is_the_filtered_product(dims, n):
    reps = [[(("rep", i), d) for i, d in enumerate(ds)] for ds in dims]
    full = [c for c in itertools.product(*reps) if prod(d for _, d in c) == n]
    assert _combos_of_dim(reps, n) == full


def test_table_a_matches_the_full_product_enumeration(monkeypatch):
    table_a.cache_clear()
    pruned = {n: table_a(n) for n in range(2, 7)}

    def full_product(reps, n):
        return [c for c in itertools.product(*reps) if prod(d for _, d in c) == n]

    monkeypatch.setattr(smallrep, "_combos_of_dim", full_product)
    table_a.cache_clear()
    try:
        for n in range(2, 7):
            assert table_a(n) == pruned[n]
    finally:
        table_a.cache_clear()


def _table_a_pairs():
    """(a, b) of Table-A characters with the same dimension and rank."""
    rows = [r for n in range(2, 7) for r in table_a(n)]
    return [(a.formal_char, b.formal_char) for a in rows for b in rows
            if (a.dim, a.formal_char.rank) == (b.dim, b.formal_char.rank)]


PAIRS = _table_a_pairs()


def _scrambled(weights, rng):
    """The weights under a random unimodular map, in a random order."""
    s = len(weights[0])
    T = [[rng.choice((-1, 1)) * int(i == j) for j in range(s)] for i in range(s)]
    for _ in range(2 * s if s > 1 else 0):
        i, j = rng.sample(range(s), 2)
        sign = rng.choice((-1, 1))
        T[i] = [x + sign * y for x, y in zip(T[i], T[j])]
    out = [tuple(sum(t * x for t, x in zip(row, w)) for row in T) for w in weights]
    rng.shuffle(out)
    return out


def _outcome(search):
    """Every certificate the search yields, and whether it ran out of budget."""
    found = []
    try:
        for T in search:
            found.append(T)
    except SearchBudgetExceeded:
        return found, True
    return found, False


def test_inequivalent_pairs_exhaust_the_search_as_the_oracle_does():
    inequivalent = [(a, b) for a, b in PAIRS if not fc_equivalent(a, b)]
    # (2A1⊗3A1)/(6A2), (2A1⊗3A2)/(6A3) and (2A1⊗3A2)/(6C3), both ways round
    assert len(inequivalent) == 6
    for a, b in inequivalent:
        n = len(b.weights) ** a.rank
        for budget in (n - 1, n):
            want = ([], budget < n)
            assert _outcome(_unimodular_match(a.weights, b.weights, a.rank, budget)) == want
            assert _outcome(unimodular_match(a.weights, b.weights, a.rank, budget)) == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PAIRS), st.integers(0, 2 ** 32 - 1), st.data())
def test_certificates_match_the_rational_oracle(pair, seed, data):
    rng = random.Random(seed)
    a = _scrambled(pair[0].weights, rng)
    b = _scrambled(pair[1].weights, rng)
    s = pair[0].rank
    n = len(b) ** s  # the number of candidates
    budget = data.draw(st.one_of(st.just(n), st.integers(1, n + 1)), label="budget")
    got = _outcome(_unimodular_match(a, b, s, budget))
    assert got == _outcome(unimodular_match(a, b, s, budget))


def _random_unimodular(s, rng):
    return _scrambled([tuple(int(i == j) for j in range(s)) for i in range(s)], rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda s: st.tuples(
    st.just(s), st.integers(s, 4), st.integers(0, 2 ** 32 - 1))))
def test_commuting_map_recovers_the_unimodular_map(case):
    s, r, seed = case
    rng = random.Random(seed)
    while True:
        Ra = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(s)]
        if _adjugate(_mat_mul(Ra, [list(c) for c in zip(*Ra)]))[0]:
            break  # full row rank
    T0, S = _random_unimodular(s, rng), _random_unimodular(r, rng)
    d, adj = _adjugate(S)
    S_inv = [[x // d for x in row] for row in adj]
    Rb = _mat_mul(_mat_mul(T0, Ra), S_inv)
    assert _solve_commuting_map(Ra, Rb, S, s) == [list(row) for row in T0]
    Rc = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(s)]
    T = _solve_commuting_map(Ra, Rc, S, s)
    assert T is None or _mat_mul(T, Ra) == _mat_mul(Rc, S)


def test_table_a_and_fc_equivalent_build_no_fraction(monkeypatch):
    table_a.cache_clear()
    rows = {r.label: r for r in table_a(6)}
    table_a.cache_clear()
    simple_factor.cache_clear()  # the root data are built under the guard too
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic's path from Python 3.12
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, n, d: made.append((n, d)) or coprime(n, d)))
    Fraction(1, 2) + Fraction(1, 3)
    assert made  # the guard sees a construction
    made.clear()
    try:
        assert [r.label for r in table_a(6)] == list(rows)
        a3, c3 = rows["(6A3)"].formal_char, rows["(6C3)"].formal_char
        assert fc_equivalent(a3, c3) and fc_equivalent(fc_dual(a3), c3)
        assert not fc_equivalent(a3, rows["(2A1⊗3A2)"].formal_char)
    finally:
        table_a.cache_clear()
    assert made == []
