"""Shared constructors for the test suite: permutation matrices, the small
group zoo, and the curated group/field corpus for the induction sweeps.

Coefficient fields are chosen coprime to the group order and large enough
to split every subgroup (q = 1 mod the group exponent), so ordinary
character theory applies throughout.
"""

import numpy as np

from envlab.fieldcore import FinMatGroup, Mat
from envlab.gf import field_make


def perm_mat(fld, perm):
    n = len(perm)
    M = np.zeros((n, n), dtype=np.int64)
    for j, i in enumerate(perm):
        M[i, j] = 1
    return Mat(fld, M)


def closure_mats(G):
    """The closure of G as a list of Mat, in closure order."""
    return [Mat(G.field, x) for x in G.closure()]


def cyclic_group(n, ell):
    fld = field_make(ell, 1)
    return FinMatGroup(fld, [perm_mat(fld, [(i + 1) % n for i in range(n)])])


def dihedral_group(n, ell):
    fld = field_make(ell, 1)
    rot = perm_mat(fld, [(i + 1) % n for i in range(n)])
    flip = perm_mat(fld, [(-i) % n for i in range(n)])
    return FinMatGroup(fld, [rot, flip])


def symmetric_group(n, ell):
    fld = field_make(ell, 1)
    swap = perm_mat(fld, [1, 0] + list(range(2, n)))
    cycle = perm_mat(fld, [(i + 1) % n for i in range(n)])
    return FinMatGroup(fld, [swap, cycle])


def alternating_group_4(ell):
    fld = field_make(ell, 1)
    # (0 1)(2 3) and (0 1 2)
    a = perm_mat(fld, [1, 0, 3, 2])
    b = perm_mat(fld, [1, 2, 0, 3])
    return FinMatGroup(fld, [a, b])


def quaternion_group(ell):
    """Q8 in its 2-dim realization over a field with a square root of -1."""
    fld = field_make(ell, 1)
    i_sqrt = next(x for x in range(2, ell) if (x * x) % ell == ell - 1)
    i_mat = Mat(fld, np.array([[i_sqrt, 0], [0, ell - i_sqrt]], dtype=np.int64))
    j_mat = Mat(fld, np.array([[0, ell - 1], [1, 0]], dtype=np.int64))
    return FinMatGroup(fld, [i_mat, j_mat])


def quaternion_group_sl2(ell):
    """Q8 in SL2(F_ell) for an odd ell: i = [[0, -1], [1, 0]] and
    j = [[a, b], [b, -a]] with a^2 + b^2 = -1, which every F_ell solves.
    Over F_3 and F_7, where -1 is not a square, no element outside the
    centre has an eigenvalue in F_ell."""
    fld = field_make(ell, 1)
    a, b = next((a, b) for a in range(ell) for b in range(ell) if (a * a + b * b + 1) % ell == 0)
    i_mat = Mat(fld, np.array([[0, ell - 1], [1, 0]], dtype=np.int64))
    j_mat = Mat(fld, np.array([[a, b], [b, (-a) % ell]], dtype=np.int64))
    return FinMatGroup(fld, [i_mat, j_mat])


def heisenberg_mod3_group(ell=7):
    """Order-27 Heisenberg group in its 3-dim representation over F_ell,
    ell = 1 mod 3 (cube roots of unity exist)."""
    fld = field_make(ell, 1)
    w = next(x for x in range(2, ell) if pow(x, 3, ell) == 1)
    x = Mat(fld, np.diag(np.array([1, w, (w * w) % ell], dtype=np.int64)))
    y = perm_mat(fld, [1, 2, 0])
    return FinMatGroup(fld, [x, y])


def sl2_group(ell):
    fld = field_make(ell, 1)
    return FinMatGroup(fld, [
        Mat(fld, np.array([[1, 1], [0, 1]], dtype=np.int64)),
        Mat(fld, np.array([[1, 0], [1, 1]], dtype=np.int64)),
    ])


def diagonal_torus(ell):
    fld = field_make(ell, 1)
    g = fld.least_primitive()
    return FinMatGroup(fld, [
        Mat(fld, np.array([[g, 0], [0, 1]], dtype=np.int64)),
        Mat(fld, np.array([[1, 0], [0, g]], dtype=np.int64)),
    ])


def mackey_corpus():
    """(name, group, coefficient field) tuples for the induction sweeps."""
    entries = [
        ("S3/F7", symmetric_group(3, 7), field_make(7, 1)),
        ("C6/F7", cyclic_group(6, 7), field_make(7, 1)),
        ("D4/F5", dihedral_group(4, 5), field_make(5, 1)),
        ("Q8/F5", quaternion_group(5), field_make(5, 1)),
        ("D5/F11", dihedral_group(5, 11), field_make(11, 1)),
        ("D6/F7", dihedral_group(6, 7), field_make(7, 1)),
        ("A4/F7", alternating_group_4(7), field_make(7, 1)),
        ("S4/F13", symmetric_group(4, 13), field_make(13, 1)),
    ]
    return entries
