"""composition_factors recognizes a piece isomorphic to a factor it has
certified instead of searching it: against the loop that searched every
piece (tests/linalg_oracles.py), on regular representations and on direct
sums of random GL_n conjugates of the corpus groups' natural modules, over
F_ell and GF(9).  And modules_isomorphic, which compares field traces
before it solves for an intertwiner, against the intertwiner alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import mackey_corpus
from envlab.fieldcore import ModuleRep, composition_factors, modules_isomorphic
from envlab.gf import field_make
from envlab.mackey import regular_rep
from linalg_oracles import reference_composition_factors, reference_modules_isomorphic

CORPUS = mackey_corpus()
F9 = field_make(3, 2)


def random_invertible(fld, m, rng):
    while True:
        M = rng.integers(0, fld.q, size=(m, m)).astype(np.int64)
        if fld.rank(M) == m:
            return M


def conjugate(rho, P):
    fld = rho.field
    return ModuleRep(fld, fld.matmul(fld.matmul(P, rho.action), fld.inv_matrix(P)))


@st.composite
def modules(draw):
    """(module, seed): the regular representation of a corpus group, or a
    direct sum of one to three random conjugates of its natural module,
    over the corpus field or GF(9); the natural module's entries are
    encodings below 9 either way."""
    _, G, fld = draw(st.sampled_from(CORPUS))
    fld = draw(st.sampled_from([fld, F9]))
    if draw(st.booleans()):
        rho = regular_rep(G, fld)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        natural = ModuleRep(fld, G.gens)
        rho = conjugate(natural, random_invertible(fld, natural.dim, rng))
        for _ in range(draw(st.integers(0, 2))):
            rho = rho.direct_sum(conjugate(natural, random_invertible(fld, natural.dim, rng)))
    return rho, draw(st.integers(0, 2 ** 20))


def summary(factors):
    return [(m.action.tobytes(), m.dim, k) for m, k in factors]


@settings(max_examples=25, deadline=None)
@given(modules())
def test_composition_factors_match_the_search_every_piece_loop(case):
    rho, seed = case
    got = composition_factors(rho, seed=seed)
    assert summary(got) == summary(reference_composition_factors(rho, seed=seed))
    assert all(m._witness is not None for m, _ in got)


@pytest.mark.parametrize("entry", CORPUS, ids=[name for name, _, _ in CORPUS])
def test_regular_representations_match_the_search_every_piece_loop(entry):
    # every corpus group, over its field and GF(9), at two seeds: the
    # recognized pieces, S4's above all, must not shift a later search's seed
    _, G, fld = entry
    for coefficients in (fld, F9):
        reg = regular_rep(G, coefficients)
        for seed in (0, 1):
            assert summary(composition_factors(reg, seed=seed)) \
                == summary(reference_composition_factors(reg, seed=seed))


def irreducibles(G, fld):
    return [m for m, _ in composition_factors(regular_rep(G, fld))]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(CORPUS), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_modules_isomorphic_matches_the_intertwiner_alone(entry, over_f9, draw):
    _, G, fld = entry
    fld = F9 if over_f9 else fld
    rng = np.random.default_rng(draw)
    factors = irreducibles(G, fld)
    for i, S in enumerate(factors):
        # a random base change is isomorphic; another class is not
        T = conjugate(S, random_invertible(fld, S.dim, rng))
        assert modules_isomorphic(S, T) and reference_modules_isomorphic(S, T)
        for j, U in enumerate(factors):
            assert modules_isomorphic(S, U) == reference_modules_isomorphic(S, U) == (i == j)
        # a random module of the same dimension, against an irreducible
        R = ModuleRep(fld, rng.integers(0, fld.q, size=S.action.shape))
        assert modules_isomorphic(S, R) == reference_modules_isomorphic(S, R)
        assert modules_isomorphic(R, S) == reference_modules_isomorphic(R, S)


def integer_traces(rho):
    return np.trace(rho.action, axis1=1, axis2=2)


def test_traces_are_summed_in_the_field():
    # GF(9) = F_3[x]/(x^2 + 1), an encoding c0 + 3 c1 standing for
    # c0 + c1 x.  Isomorphic modules whose integer trace sums differ, and
    # non-isomorphic ones whose integer trace sums agree
    rng = np.random.default_rng(9)
    _, G, _ = CORPUS[3]  # Q8
    S = max(irreducibles(G, F9), key=lambda m: m.dim)
    assert S.dim == 2
    for _ in range(100):
        T = conjugate(S, random_invertible(F9, 2, rng))
        if not np.array_equal(integer_traces(S), integer_traces(T)):
            break
    else:
        raise AssertionError("no base change moved an integer trace sum")
    assert modules_isomorphic(S, T) and reference_modules_isomorphic(S, T)
    # diag(1, x) has trace 1 + x; diag(2, 2) has trace 1: both sum to 4
    a = ModuleRep(F9, [np.diag([1, 3])])
    b = ModuleRep(F9, [np.diag([2, 2])])
    assert np.array_equal(integer_traces(a), integer_traces(b))
    assert not modules_isomorphic(a, b) and not reference_modules_isomorphic(a, b)
    # 1-dimensional modules are irreducible, and isomorphic exactly when
    # their entries are equal
    for c in (0, 1, 3, 6):
        one = ModuleRep(F9, [[[c]]])
        for d in (0, 1, 3, 6):
            other = ModuleRep(F9, [[[d]]])
            assert modules_isomorphic(one, other) == reference_modules_isomorphic(one, other) \
                == (c == d)
