"""Truncated exp/log, one-parameter subgroups, and exponentially generated
closures."""

import numpy as np
import pytest

from corpus import diagonal_torus, sl2_group
from envlab.errors import CharTooSmall, NotUnipotent
from envlab.fieldcore import FinMatGroup, Mat, commutant, module_of_group
from envlab.gf import field_make
from envlab.nori import (default_ell_threshold, is_unipotent, lie_closure,
                         lie_rank_estimate, nilpotent_exp, nori_points,
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
    assert not np.tril(N.mat.array).any()


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
    if ell < default_ell_threshold(2):
        with pytest.warns(UserWarning):
            result = nori_points(G)
    else:
        result = nori_points(G)
    assert result.nori_points.order == G.order
    assert result.quotient_order == 1
    assert len(result.lie_algebra) == 3  # sl_2
    assert quotient_is_abelian(result.nori_points, result.plus_group)


def test_torus_has_no_unipotents():
    G = diagonal_torus(11)
    assert order_ell_elements(G) == []
    result = nori_points(G)
    assert result.nori_points.order == 1
    assert result.lie_algebra == []


def test_threshold_warning_content():
    assert default_ell_threshold(2) == 8
    with pytest.warns(UserWarning):
        result = nori_points(sl2_group(5))
    assert result.warnings
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
    for x in order_ell_elements(G):
        for c in one_param_subgroup(x):
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
    result = nori_points(G, collect_warnings=False)
    assert result.nori_points is result.plus_group
    assert result.nori_points.order == plus_order
    assert set(result.nori_points.closure()) == set(one_param_closure(G).closure())
    assert result.quotient_order == 1
