"""Truncated exp/log, one-parameter subgroups, and exponentially generated
closures."""

import warnings
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracles
from corpus import closure_mats, diagonal_torus, sl2_group
from envlab.errors import CharTooSmall, NotUnipotent, ValidationError
from envlab.fieldcore import (DEFAULT_SEED, EchelonBasis, FinMatGroup, Mat, commutant,
                              module_of_group)
from envlab.gf import field_make, least_irreducible
from envlab.nori import (_exp_stack, _log_stack, default_ell_threshold, is_unipotent,
                         lie_closure, lie_rank_estimate, nilpotent_exp, nori_points,
                         one_param_subgroup, order_ell_elements, plus_subgroup,
                         quotient_is_abelian, unipotent_log)


def random_unipotent(fld, n, rng):
    """Conjugated upper unitriangular matrix."""
    N = np.triu(rng.integers(0, fld.ell, size=(n, n)).astype(np.int64), k=1)
    x = fld.add(fld.eye(n), N)
    while True:
        P = rng.integers(0, fld.ell, size=(n, n)).astype(np.int64)
        if fld.rank(P) == n:
            break
    return Mat(fld, fld.matmul(fld.matmul(P, x), fld.inv_matrix(P)))


def test_explicit_log_example():
    fld = field_make(7, 1)
    x = Mat(fld, np.array([[1, 1, 4], [0, 1, 1], [0, 0, 1]], dtype=np.int64))
    N = unipotent_log(x)
    assert nilpotent_exp(N) == x
    # log of unitriangular stays strictly upper triangular
    assert not np.tril(N.array).any()


@pytest.mark.parametrize("ell", [5, 7, 11])
def test_exp_log_round_trip(ell):
    fld = field_make(ell, 1)
    rng = np.random.default_rng(100 + ell)
    for n in (2, 3, 4):
        for _ in range(20):
            x = random_unipotent(fld, n, rng)
            assert is_unipotent(x)
            assert nilpotent_exp(unipotent_log(x)) == x


def test_one_param_additivity():
    fld = field_make(7, 1)
    rng = np.random.default_rng(9)
    x = random_unipotent(fld, 3, rng)
    powers = one_param_subgroup(x)
    assert len(powers) == 7
    assert powers[0].is_identity() and powers[1] == x
    for t in range(7):
        for s in range(7):
            assert powers[t] @ powers[s] == powers[(t + s) % 7]


def test_log_rejects_non_unipotent():
    fld = field_make(7, 1)
    with pytest.raises(NotUnipotent):
        unipotent_log(Mat(fld, np.array([[2, 0], [0, 1]], dtype=np.int64)))


def test_char_too_small():
    fld = field_make(3, 1)
    x = Mat(fld, np.eye(4, dtype=np.int64))
    with pytest.raises(CharTooSmall):
        unipotent_log(x)


@pytest.mark.parametrize("ell", [5, 11])
def test_sl2_is_exponentially_generated(ell):
    G = sl2_group(ell)
    plus = plus_subgroup(G)
    assert plus.order == G.order
    result = nori_points(G)
    assert bool(result.warnings) == (ell < default_ell_threshold(2))
    assert result.nori_points.order == G.order
    assert result.quotient_order == 1
    assert len(result.lie_algebra) == 3  # sl_2
    assert quotient_is_abelian(result.nori_points, result.plus_group)


def test_quotient_by_itself_forms_no_commutator(monkeypatch):
    # S/S is trivial, so the report's quotient_abelian needs no membership test
    result = nori_points(sl2_group(11))
    monkeypatch.setattr("envlab.nori.generator_commutators", None)
    assert quotient_is_abelian(result.nori_points, result.plus_group)


def test_torus_has_no_unipotents():
    G = diagonal_torus(11)
    assert order_ell_elements(G).shape == (0,)
    result = nori_points(G)
    assert result.nori_points.order == 1
    assert result.lie_algebra == []


def test_threshold_warning_content():
    assert default_ell_threshold(2) == 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the message goes to the result only
        result = nori_points(sl2_group(5))
    assert result.warnings == ["ell=5 is below the default threshold 8 for n=2; "
                               "exponential-generation properties are only asserted above it"]
    # at or above the threshold no warning fires
    result = nori_points(sl2_group(13))
    assert not result.warnings


def test_lie_closure_of_sl2_triangulars():
    fld = field_make(11, 1)
    e = np.array([[0, 1], [0, 0]], dtype=np.int64)
    f = np.array([[0, 0], [1, 0]], dtype=np.int64)
    basis = lie_closure(fld, [e, f], 2)
    assert len(basis) == 3  # brackets generate the diagonal h


def test_lie_rank_of_sl2():
    result = nori_points(sl2_group(13))
    report = lie_rank_estimate(result.lie_algebra, result.nori_points.field)
    assert report.dim == 3
    assert report.derived_dim == 3
    assert report.rank_estimate == 1


def test_lie_rank_estimate_rejects_a_negative_seed():
    result = nori_points(sl2_group(13))
    with pytest.raises(ValidationError, match="seed"):
        lie_rank_estimate(result.lie_algebra, result.nori_points.field, seed=-1)


def test_commutant_matches_group_on_sl2():
    G = sl2_group(13)
    result = nori_points(G)
    assert commutant(module_of_group(G))[1] == \
        commutant(module_of_group(result.nori_points))[1] == 1


def sym2_so3_group(ell):
    """SO3(F_ell) = PGL2(F_ell): Sym^2 of the SL2 unit transvections, plus
    diag(w, 1, w^-1) for the least primitive w."""
    fld = field_make(ell, 1)
    w = fld.least_primitive()
    return FinMatGroup(fld, [
        Mat(fld, np.array([[1, 2, 1], [0, 1, 1], [0, 0, 1]], dtype=np.int64)),
        Mat(fld, np.array([[1, 0, 0], [1, 1, 0], [1, 2, 1]], dtype=np.int64)),
        Mat(fld, np.diag([w, 1, fld.inv(w)]).astype(np.int64)),
    ])


def sl3_group(ell):
    """SL3(F_ell) from the unit transvections e12, e21, e23, e32."""
    fld = field_make(ell, 1)
    gens = []
    for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        m = np.eye(3, dtype=np.int64)
        m[i, j] = 1
        gens.append(Mat(fld, m))
    return FinMatGroup(fld, gens)


def one_param_closure(G):
    """Reference: the group generated by every one-parameter subgroup
    exp(t log x) over x in G[ell], re-closed whenever a candidate falls
    outside the group built so far."""
    group = FinMatGroup.trivial(G.field, G.n)
    gens = []
    for x in G.closure()[order_ell_elements(G)]:
        for c in one_param_subgroup(Mat(G.field, x)):
            if c not in group:
                gens.append(c)
                group = FinMatGroup(G.field, gens)
    return group


@pytest.mark.parametrize("make,order,plus_order", [
    (lambda: sl2_group(5), 120, 120),
    (lambda: sl2_group(7), 336, 336),
    (lambda: sym2_so3_group(7), 336, 168),
    (lambda: sl3_group(3), 5616, 5616),
    (lambda: diagonal_torus(11), 100, 1),
], ids=["SL2(5)", "SL2(7)", "SO3(7)", "SL3(3)", "torus(11)"])
def test_nori_points_match_one_param_closure(make, order, plus_order):
    G = make()
    assert G.order == order
    result = nori_points(G)
    assert result.nori_points is result.plus_group
    assert result.nori_points.order == plus_order
    assert set(closure_mats(result.nori_points)) == set(closure_mats(one_param_closure(G)))
    assert result.quotient_order == 1


NORI_CORPUS = [
    pytest.param(lambda: sl2_group(11), id="SL2(11)"),
    pytest.param(lambda: sym2_so3_group(7), id="SO3(7)"),
    pytest.param(lambda: sym2_so3_group(11), id="SO3(11)"),
    pytest.param(lambda: sl3_group(3), id="SL3(3)"),
    pytest.param(lambda: diagonal_torus(11), id="torus(11)"),
]


def reference_is_unipotent(fld, x):
    """(x - 1)^k for k = 1..n, one matrix at a time."""
    N = fld.sub(x, fld.eye(len(x)))
    acc = N
    for _ in range(len(x) - 1):
        acc = fld.matmul(acc, N)
    return not acc.any()


def reference_lie_closure(fld, seeds, n):
    """lie_closure as first written: every seed added to the basis in turn."""
    basis = EchelonBasis(fld)
    for s in seeds:
        basis.add(np.reshape(s, -1))
    mats = basis.rows
    i = 0
    while i < len(mats):
        a = mats[i].reshape(n, n)
        for b in mats[:i + 1]:
            b = b.reshape(n, n)
            basis.add(fld.sub(fld.matmul(a, b), fld.matmul(b, a)).reshape(-1))
        i += 1
    return [m.reshape(n, n) for m in mats]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 4), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_exp_and_log_stacks_match_the_term_by_term_series(ell, n, k, seed):
    # random nilpotent stacks: conjugated strictly upper triangular matrices
    fld, n = field_make(ell), min(n, ell)  # the series need ell >= n
    rng = np.random.default_rng(seed)
    N = np.stack([fld.sub(random_unipotent(fld, n, rng).array, fld.eye(n))
                  for _ in range(k)])
    exp_coefs = [fld.inv(factorial(i) % ell) for i in range(n)]
    log_coefs = [0] + [int(fld.neg(fld.inv(i))) for i in range(1, n)]
    X = fld.add(fld.eye(n), N)
    assert np.array_equal(_exp_stack(fld, N), linalg_oracles.series(fld, N, exp_coefs))
    assert np.array_equal(_log_stack(fld, X),
                          linalg_oracles.series(fld, fld.sub(fld.eye(n), X), log_coefs))


def unitriangular_group(ell, n):
    """The upper unitriangular group from the unit transvections
    e_{i, i+1}: every element is unipotent."""
    fld = field_make(ell, 1)
    gens = []
    for i in range(n - 1):
        m = np.eye(n, dtype=np.int64)
        m[i, i + 1] = 1
        gens.append(Mat(fld, m))
    return FinMatGroup(fld, gens)


def torus_group(ell, n):
    """The diagonal torus of GL_n(F_ell): no element but 1 is unipotent."""
    fld = field_make(ell, 1)
    w = fld.least_primitive()
    return FinMatGroup(fld, [Mat(fld, np.diag([w if j == i else 1 for j in range(n)]))
                             for i in range(n)])


def singer_group(ell, n):
    """The cyclic group of the companion matrix of an irreducible of degree
    n >= 2, of order prime to ell: no element but 1 is unipotent."""
    fld = field_make(ell, 1)
    coeffs = least_irreducible(ell, n)
    m = np.zeros((n, n), dtype=np.int64)
    m[1:, :-1] = np.eye(n - 1, dtype=np.int64)
    m[:, -1] = [fld.neg(c) for c in coeffs[:-1]]
    return FinMatGroup(fld, [Mat(fld, m)])


def conjugated(G, rng):
    """The group generated by P g P^-1 over G's generators, for a random
    invertible P."""
    fld = G.field
    while True:
        P = rng.integers(0, fld.ell, size=(G.n, G.n)).astype(np.int64)
        if fld.rank(P) == G.n:
            break
    gens = fld.matmul(fld.matmul(P, G.gens), fld.inv_matrix(P))
    return FinMatGroup(fld, [Mat(fld, g) for g in gens])


# (name, maker, which non-identity elements are unipotent)
G_ELL_FAMILIES = (
    [(f"SL2({ell})", lambda ell=ell: sl2_group(ell), "some") for ell in (2, 3, 5, 7, 11)]
    + [(f"SO3({ell})", lambda ell=ell: sym2_so3_group(ell), "some") for ell in (3, 5, 7)]
    + [("SL3(3)", lambda: sl3_group(3), "some")]
    + [(f"UT{n}({ell})", lambda ell=ell, n=n: unitriangular_group(ell, n), "all")
       for ell, n in ((2, 2), (3, 3), (5, 3), (7, 3), (5, 4))]
    + [(f"T{n}({ell})", lambda ell=ell, n=n: torus_group(ell, n), "none")
       for ell, n in ((3, 3), (7, 2), (11, 2), (7, 3))]
    + [(f"Singer{n}({ell})", lambda ell=ell, n=n: singer_group(ell, n), "none")
       for ell, n in ((2, 2), (3, 3), (7, 2), (5, 3), (7, 3))])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(G_ELL_FAMILIES), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_trace_candidates_keep_the_whole_stack_unipotents(family, conjugate, seed):
    # a unipotent has trace n, so testing (g - 1)^n = 0 on the elements of
    # trace n mod ell alone finds the same G[ell], in the same order
    _, make, kind = family
    G = make()
    if conjugate:
        G = conjugated(G, np.random.default_rng(seed))
    unis = G.closure()[order_ell_elements(G)]
    assert np.array_equal(unis, linalg_oracles.order_ell_elements(G))
    if kind != "some":
        assert len(unis) == (G.order - 1 if kind == "all" else 0)


@pytest.mark.parametrize("make", NORI_CORPUS)
def test_stacked_scan_and_logs_match_per_element(make):
    G = make()
    fld = G.field
    expect = [g for g in closure_mats(G)
              if not g.is_identity() and reference_is_unipotent(fld, g.array)]
    kept = order_ell_elements(G)
    assert not kept.flags.writeable
    unis = G.closure()[kept]
    assert np.array_equal(unis, np.array([g.array for g in expect]).reshape(-1, G.n, G.n))
    assert all(is_unipotent(g) for g in expect)
    logs = [unipotent_log(x).array for x in expect]
    result = nori_points(G)
    algebra = reference_lie_closure(fld, logs, G.n)
    assert len(result.lie_algebra) == len(algebra)
    assert all(np.array_equal(a, b) for a, b in zip(result.lie_algebra, algebra))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.data())
def test_lie_closure_rows_match_seeds_added_in_order(ell, n, data):
    fld = field_make(ell, 1)
    seeds = [np.array(data.draw(st.lists(st.integers(0, ell - 1), min_size=n * n,
                                         max_size=n * n)), dtype=np.int64).reshape(n, n)
             for _ in range(data.draw(st.integers(0, 8)))]
    got = lie_closure(fld, seeds, n)
    want = reference_lie_closure(fld, seeds, n)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def reference_lie_rank_estimate(basis, fld, samples=25, seed=DEFAULT_SEED):
    """lie_rank_estimate as first written: the coordinates of each bracket
    [x, b] from its own rref, every sample drawn.  The sample count is the
    number of samples at which the running minimum first reaches the floor
    max(1, derived dim - (n^2 - n)), where lie_rank_estimate stops drawing
    (all of them if it never does)."""
    def coords_in_span(basis_mats, M):
        B = np.array([b.reshape(-1) for b in basis_mats], dtype=np.int64)
        R, pivots = fld.rref(np.concatenate([B.T, M.reshape(-1, 1)], axis=1))
        k = len(basis_mats)
        if k in pivots:
            return None
        coords = np.zeros(k, dtype=np.int64)
        for r, p in enumerate(pivots):
            coords[p] = R[r, k]
        return coords

    n = basis[0].shape[0]
    brackets = [fld.sub(fld.matmul(basis[i], basis[j]), fld.matmul(basis[j], basis[i]))
                for i in range(len(basis)) for j in range(i)]
    derived = lie_closure(fld, brackets, n)
    ddim = len(derived)
    rng = np.random.default_rng(seed)
    best = ddim
    minima = [best]  # the running minimum after each sample
    for _ in range(samples):
        coeffs = rng.integers(0, fld.q, size=ddim)
        x = np.zeros((n, n), dtype=np.int64)
        for c, b in zip(coeffs, derived):
            x = fld.add(x, fld.mul(np.int64(int(c)), b))
        ad = np.zeros((ddim, ddim), dtype=np.int64)
        for j, b in enumerate(derived):
            coords = coords_in_span(derived, fld.sub(fld.matmul(x, b), fld.matmul(b, x)))
            if coords is None:
                break
            ad[:, j] = coords
        else:
            best = min(best, ddim - fld.rank(ad))
        minima.append(best)
    floor = max(1, ddim - (n * n - n))
    return (len(basis), ddim, best, minima.index(floor) if floor in minima else samples)


@pytest.mark.parametrize("make", NORI_CORPUS[:4])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_lie_rank_estimate_matches_per_bracket_coordinates(make, seed):
    G = make()
    algebra = nori_points(G).lie_algebra
    report = lie_rank_estimate(algebra, G.field, seed=seed)
    assert (report.dim, report.derived_dim, report.rank_estimate,
            report.sample_count) == reference_lie_rank_estimate(algebra, G.field, seed=seed)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_lie_rank_estimate_stops_at_the_floor_with_the_all_samples_estimate(ell, n, seed,
                                                                            data):
    # a Lie algebra closed from 1-3 random seeds; the sampled minimum never
    # falls below max(1, derived dim - (n^2 - n)), so stopping there keeps
    # the estimate that all 25 samples give
    fld = field_make(ell, 1)
    seeds = [np.array(data.draw(st.lists(st.integers(0, ell - 1), min_size=n * n,
                                         max_size=n * n)), dtype=np.int64).reshape(n, n)
             for _ in range(data.draw(st.integers(1, 3)))]
    algebra = lie_closure(fld, seeds, n)
    if not algebra:
        return
    report = lie_rank_estimate(algebra, fld, seed=seed)
    want = linalg_oracles.lie_rank_estimate(algebra, fld, seed=seed)
    assert (report.dim, report.derived_dim, report.rank_estimate) == want
    floor = max(1, report.derived_dim - (n * n - n)) if report.derived_dim else 0
    assert report.sample_count == 25 or report.rank_estimate == floor


def test_lie_rank_estimate_of_a_line_has_no_derived_algebra():
    # one basis element: no pair to bracket, and [L, L] = 0
    fld = field_make(7, 1)
    e = np.array([[0, 1], [0, 0]], dtype=np.int64)
    report = lie_rank_estimate([e], fld)
    assert (report.dim, report.derived_dim, report.rank_estimate,
            report.sample_count) == (1, 0, 0, 0)


def test_lie_rank_estimate_of_sl3_stops_at_its_floor_after_one_sample():
    # sl3 has dimension 8 and a centralizer of every x in gl3 has dimension
    # at least 3, so no sample reads below 8 - 6 = 2, the rank of sl3
    G = sl3_group(3)
    algebra = nori_points(G).lie_algebra
    report = lie_rank_estimate(algebra, G.field)
    assert (report.dim, report.derived_dim, report.rank_estimate,
            report.sample_count) == (8, 8, 2, 1)
    assert linalg_oracles.lie_rank_estimate(algebra, G.field) == (8, 8, 2)


def test_nori_points_looks_no_element_up(monkeypatch):
    # G+ comes from the closure indices of G[ell], and index_subgroup
    # composes one right row per generator it picks
    G = sl2_group(23)
    G.closure()
    looked_up, composed = [], []
    indices, right_rows = FinMatGroup.indices, FinMatGroup.right_rows
    monkeypatch.setattr(FinMatGroup, "indices",
                        lambda self, stack: looked_up.append(1) or indices(self, stack))
    monkeypatch.setattr(FinMatGroup, "right_rows",
                        lambda self, xs: composed.append(len(xs)) or right_rows(self, xs))
    result = nori_points(G)
    assert result.plus_group.order == G.order
    assert looked_up == []
    assert composed == [1] * len(result.plus_group.generators)
