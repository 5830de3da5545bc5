"""composition_factors recognizes a piece isomorphic to a factor it has
certified instead of searching it, counts a scalar piece as copies of its
1 x 1 class and returns a certified module as it is: against the classes
of the loop that searched every piece (tests/linalg_oracles.py), on regular
representations, on direct sums of random GL_n conjugates of the corpus
groups' natural modules, over F_ell and GF(9), on restrictions to the
trivial group and to centres, and on sums with scalar blocks.  And
modules_isomorphic, which compares field traces before it solves for an
intertwiner, against the intertwiner alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envlab.fieldcore
from corpus import mackey_corpus
from envlab.fieldcore import FinMatGroup, ModuleRep, composition_factors, modules_isomorphic
from envlab.gf import field_make
from envlab.mackey import irreducible_modules, restrict
from linalg_oracles import (reference_composition_factors, reference_modules_isomorphic,
                            regular_module, same_classes)

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
        rho = regular_module(G, fld)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        natural = ModuleRep(fld, G.gens)
        rho = conjugate(natural, random_invertible(fld, natural.dim, rng))
        for _ in range(draw(st.integers(0, 2))):
            rho = rho.direct_sum(conjugate(natural, random_invertible(fld, natural.dim, rng)))
    return rho, draw(st.integers(0, 2 ** 20))


def summary(factors):
    return [(m.action.tobytes(), m.dim, k) for m, k in factors]


def assert_reference_classes(rho, seed):
    # the classes and multiplicities of the search-every-piece loop, each
    # factor certified; which member stands for a class, and the order of
    # the classes, follow the seed
    got = composition_factors(rho, seed=seed)
    assert same_classes(got, reference_composition_factors(rho, seed=seed))
    assert all(m._witness is not None for m, _ in got)


@settings(max_examples=25, deadline=None)
@given(modules())
def test_composition_factors_match_the_search_every_piece_loop(case):
    assert_reference_classes(*case)


@pytest.mark.parametrize("entry", CORPUS, ids=[name for name, _, _ in CORPUS])
def test_regular_representations_match_the_search_every_piece_loop(entry):
    # every corpus group, over its field and GF(9), at two seeds: the
    # recognized pieces, S4's above all, must neither lose nor merge a class
    _, G, fld = entry
    for coefficients in (fld, F9):
        reg = regular_module(G, coefficients)
        for seed in (0, 1):
            assert_reference_classes(reg, seed)


def irreducibles(G, fld):
    return [m for m, _ in composition_factors(regular_module(G, fld))]


def centre(G):
    """The centre of a corpus group whose centre has order 2, on its one
    non-identity element."""
    elems = G.closure()
    fld = G.field
    central = [x for x in elems[1:]
               if np.array_equal(fld.matmul(G.gens, x), fld.matmul(x, G.gens))]
    assert len(central) == 1
    return FinMatGroup(fld, central)


@pytest.mark.parametrize("entry", CORPUS, ids=[name for name, _, _ in CORPUS])
def test_restrictions_to_scalar_subgroups_match_the_search_every_piece_loop(entry):
    # each irreducible V restricted to the trivial group is dim V copies of
    # the trivial line; restricted to the centre of D4, Q8 or D6 it is
    # dim V copies of one character, which the reference splits in
    # 2 dim V - 1 pieces
    name, G, fld = entry
    subgroups = [FinMatGroup.trivial(G.field, G.n)]
    if name in ("D4/F5", "Q8/F5", "D6/F7"):
        subgroups.append(centre(G))
    for V in irreducible_modules(G, fld):
        for H in subgroups:
            res = restrict(V, G, H)
            for seed in (0, 1):
                got = composition_factors(res, seed=seed)
                assert summary(got) == summary(reference_composition_factors(res, seed=seed))
                assert len(got) == 1 and got[0][1] == V.dim


@pytest.mark.parametrize("entry", CORPUS, ids=[name for name, _, _ in CORPUS])
def test_scalar_blocks_keep_every_later_seed(entry):
    # a scalar block of dimension 2 or 3 before and after the regular
    # representation: counted as dim copies of its character with no
    # search, it joins the regular representation's class of that
    # character, and the searches after it still find every class
    _, G, fld = entry
    reg = regular_module(G, fld)
    character = [m for m in irreducibles(G, fld) if m.dim == 1][-1]
    for d in (2, 3):
        block = ModuleRep(fld, character.action * np.eye(d, dtype=np.int64))
        for rho in (block.direct_sum(reg), reg.direct_sum(block),
                    block.direct_sum(reg).direct_sum(block)):
            for seed in (0, 1):
                assert_reference_classes(rho, seed)


def test_a_certified_module_comes_back_as_itself(monkeypatch):
    # S4 over F_13: each irreducible, 1- to 3-dimensional, is its own one
    # class, the same object, and no random algebra element is drawn
    fc = envlab.fieldcore
    _, G, fld = CORPUS[-1]
    modules = irreducibles(G, fld)
    draws, draw = [], fc._random_algebra_element
    monkeypatch.setattr(fc, "_random_algebra_element",
                        lambda *a: draws.append(1) or draw(*a))
    for V in modules:
        for seed in (0, 1, 7):
            [(got, k)] = composition_factors(V, seed=seed)
            assert got is V and k == 1
    assert draws == [] and sorted(V.dim for V in modules) == [1, 1, 2, 3, 3]


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
