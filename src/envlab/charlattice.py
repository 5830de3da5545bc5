"""Formal characters and bi-characters as multisets of integer weight
vectors, with sum / tensor / dual operations and equivalence up to a
unimodular change of lattice basis.

No field appears here: the invariant content of a diagonalizable subgroup
of GL_n is the subtorus of the diagonal torus it generates, and that is
pure lattice data.  Equivalence is decided by a bounded search for a
unimodular map matching the weight multisets; the certificate (when found)
is the map itself.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import SearchBudgetExceeded, ValidationError

DEFAULT_EQUIV_BUDGET = 10 ** 6


# -- small exact linear algebra over Z --

def _bareiss(rows):
    """Fraction-free Gauss-Jordan elimination over Z (Bareiss, Math. Comp.
    22, 1968): (the nonzero rows of an echelon form, and their pivot
    columns).  Each step divides exactly by the previous pivot, so every
    entry stays an integer minor of the input.  When it completes, every
    pivot equals the last one, which is +-det for a nonsingular square
    input (the sign of the row swaps)."""
    A = [list(r) for r in rows]
    pivots, prev = [], 1
    for col in range(len(A[0]) if A else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(A)) if A[i][col]), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        top = A[r]
        piv = top[col]
        for i, row in enumerate(A):
            if i != r:
                c = row[col]
                A[i] = [(piv * x - c * y) // prev for x, y in zip(row, top)]
        prev = piv
        pivots.append(col)
        if len(pivots) == len(A):
            break
    return A[:len(pivots)], pivots


def _rank_q(rows):
    return len(_bareiss(rows)[1])


def _det(M):
    """+-det M for a square integer matrix."""
    R, pivots = _bareiss(M)
    return R[-1][pivots[-1]] if len(pivots) == len(M) else 0


def _adjugate(M):
    """(d, B) with d = +-det M and B = d M^-1, for a square integer matrix,
    from one fraction-free elimination of [M | I]; (0, None) if M is
    singular.  The signs agree, so B / d is the inverse."""
    n = len(M)
    R, pivots = _bareiss([list(row) + [int(i == j) for j in range(n)]
                          for i, row in enumerate(M)])
    if pivots[-1] >= n:
        return 0, None
    return R[-1][pivots[-1]], [r[n:] for r in R]


def _is_unimodular(T):
    """An integer matrix is unimodular iff its determinant is +-1."""
    return abs(_det(T)) == 1


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _mat_vec(A, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def row_hnf(rows):
    """Row-style Hermite normal form basis of the lattice generated by the
    given integer rows.  Pivots positive, entries above a pivot reduced to
    [0, pivot)."""
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    basis = []
    for col in range(ncols):
        if not work:
            break
        # gcd out the column until at most one row has a nonzero entry there
        while sum(1 for r in work if r[col] != 0) > 1:
            nz = sorted((r for r in work if r[col] != 0), key=lambda r: abs(r[col]))
            a = nz[0]
            for r in nz[1:]:
                q = r[col] // a[col]
                for j in range(ncols):
                    r[j] -= q * a[j]
            work = [r for r in work if any(r)]
        piv = next((r for r in work if r[col] != 0), None)
        if piv is not None:
            work = [r for r in work if r is not piv]
            if piv[col] < 0:
                piv = [-x for x in piv]
            basis.append(piv)
    # reduce above-pivot entries
    for i in reversed(range(len(basis))):
        piv_col = next(j for j, x in enumerate(basis[i]) if x != 0)
        for k in range(i):
            q = basis[k][piv_col] // basis[i][piv_col]
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    return [tuple(r) for r in basis]


def _coords_in_basis(basis, pivots, w):
    """Integer coordinates of w in a HNF basis (rows) with the given pivot
    columns, or raises."""
    coords = [0] * len(basis)
    rem = list(map(int, w))
    for i, (b, piv) in enumerate(zip(basis, pivots)):
        c, r = divmod(rem[piv], b[piv])
        if r:
            raise ValidationError("weight not in lattice spanned by basis")
        if c:
            coords[i] = c
            rem = [x - c * y for x, y in zip(rem, b)]
    if any(rem):
        raise ValidationError("weight not in lattice spanned by basis")
    return tuple(coords)


@dataclass(frozen=True)
class FormalCharacter:
    """A multiset of n integer weight vectors of a common length (rank)."""

    rank: int
    weights: tuple  # tuple of int tuples, multiset

    def __post_init__(self):
        if self.rank < 0:
            raise ValidationError(f"a formal character's rank must be >= 0, got {self.rank}")
        ws = tuple(tuple(int(x) for x in w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        for w in ws:
            if len(w) != self.rank:
                raise ValidationError("weight length differs from the stated rank")

    @property
    def n(self) -> int:
        return len(self.weights)

    def sorted_weights(self):
        return tuple(sorted(self.weights, key=_grlex_key))


def _grlex_key(w):
    return (sum(abs(x) for x in w), w)


def fc_normalize(fc: FormalCharacter) -> FormalCharacter:
    """Re-express the weights in a Hermite basis of their own Z-span and
    sort graded-lexicographically.  Idempotent; the span of the output
    weights is the full Z^s."""
    basis = row_hnf(fc.weights)
    s = len(basis)
    if s == 0:
        return FormalCharacter(0, tuple(() for _ in fc.weights))
    pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
    new = [_coords_in_basis(basis, pivots, w) for w in fc.weights]
    new.sort(key=_grlex_key)
    return FormalCharacter(s, tuple(new))


def fc_dual(fc: FormalCharacter) -> FormalCharacter:
    return FormalCharacter(fc.rank, tuple(tuple(-x for x in w) for w in fc.weights))


def fc_sum(a: FormalCharacter, b: FormalCharacter) -> FormalCharacter:
    """Direct sum: each side zero-padded into Z^(ra+rb), then normalized."""
    ws = [w + (0,) * b.rank for w in a.weights]
    ws += [(0,) * a.rank + w for w in b.weights]
    return fc_normalize(FormalCharacter(a.rank + b.rank, tuple(ws)))


def fc_tensor(a: FormalCharacter, b: FormalCharacter) -> FormalCharacter:
    """External tensor: pairwise coordinate concatenation, then normalized."""
    ws = [wa + wb for wa in a.weights for wb in b.weights]
    return fc_normalize(FormalCharacter(a.rank + b.rank, tuple(ws)))


@dataclass(frozen=True)
class FcPredicates:
    zero_weight_count: int
    is_symmetric: bool
    antipodal_pair_free: bool


def fc_predicates(fc: FormalCharacter) -> FcPredicates:
    cnt = Counter(fc.weights)
    zero = (0,) * fc.rank
    neg = Counter({tuple(-x for x in w): k for w, k in cnt.items()})
    sym = cnt == neg
    apf = all(tuple(-x for x in w) not in cnt for w in cnt if w != zero)
    return FcPredicates(cnt.get(zero, 0), sym, apf)


def has_affine_triple(fc: FormalCharacter) -> bool:
    """True if some two distinct weights w1 != w2 and a weight w3 satisfy
    w1 + w2 = 2 w3 (all drawn from the multiset)."""
    ws = set(fc.weights)
    for w1, w2 in itertools.combinations(ws, 2):
        mid = tuple(a + b for a, b in zip(w1, w2))
        if all(x % 2 == 0 for x in mid) and tuple(x // 2 for x in mid) in ws:
            return True
    return False


def _spanning_subset(weights, s):
    """Indices of s weights forming a Q-basis of the span, taken greedily
    (the pivot columns of the weights as columns), or None if none do."""
    pivots = _bareiss(list(zip(*weights)))[1]
    return pivots[:s] if len(pivots) >= s else None


def _unimodular_match(a_weights, b_weights, s, budget):
    """Yield unimodular integer maps T (s x s, rows) with T * multiset(a)
    == multiset(b).  Consumes from the candidate budget; raises
    SearchBudgetExceeded when it runs out before any decision.

    A candidate sends the basis columns A of a to columns U of b, so
    T = U A^-1 = U adj / d with d = +-det A: T is integral iff d divides
    U adj, and unimodular iff |det U| = |d|."""
    base_idx = _spanning_subset(a_weights, s)
    if base_idx is None:
        raise ValidationError("weights do not span the stated rank")
    d, adj = _adjugate([[a_weights[i][r] for i in base_idx] for r in range(s)])
    sorted_b = sorted(b_weights, key=_grlex_key)
    tried = 0
    b_list = list(b_weights)
    for combo in itertools.product(range(len(b_list)), repeat=s):
        tried += 1
        if tried > budget:
            raise SearchBudgetExceeded(
                f"equivalence search exhausted {budget} candidates; verdict undecided")
        U_cols = [[b_list[c][r] for c in combo] for r in range(s)]
        if abs(_det(U_cols)) != abs(d):
            continue
        UA = _mat_mul(U_cols, adj)
        if any(x % d for row in UA for x in row):
            continue
        T = [[x // d for x in row] for row in UA]
        mapped = sorted((_mat_vec(T, w) for w in a_weights), key=_grlex_key)
        if mapped == sorted_b:
            yield T


def fc_equivalence_certificate(a: FormalCharacter, b: FormalCharacter,
                               budget: int = DEFAULT_EQUIV_BUDGET):
    """A unimodular map carrying a onto b after normalization, or None."""
    if a.n != b.n:
        return None
    na, nb = fc_normalize(a), fc_normalize(b)
    if na.rank != nb.rank:
        return None
    if na.rank == 0:
        return []
    try:
        return next(_unimodular_match(na.weights, nb.weights, na.rank, budget))
    except StopIteration:
        return None


def fc_equivalent(a: FormalCharacter, b: FormalCharacter,
                  budget: int = DEFAULT_EQUIV_BUDGET) -> bool:
    """Same ambient dimension and a unimodular lattice map matching the
    weight multisets.  Raises SearchBudgetExceeded (verdict undecided) if
    the candidate search is exhausted without a certificate; with ambient
    dimension <= 6 and rank <= 5 the search always terminates."""
    return fc_equivalence_certificate(a, b, budget) is not None


@dataclass(frozen=True)
class FormalBiCharacter:
    """Weights in Z^r together with a surjective restriction Z^r -> Z^s
    (the torus and its semisimple-part subtorus)."""

    rank_T: int
    rank_Tss: int
    restriction: tuple   # s x r integer matrix, rows
    weights: tuple

    def __post_init__(self):
        res = tuple(tuple(int(x) for x in row) for row in self.restriction)
        object.__setattr__(self, "restriction", res)
        ws = tuple(tuple(int(x) for x in w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(res) != self.rank_Tss or any(len(r) != self.rank_T for r in res):
            raise ValidationError("restriction matrix shape mismatch")
        if _rank_q(res) != self.rank_Tss and self.rank_Tss > 0:
            raise ValidationError("restriction matrix is not of full row rank")
        if ws and _rank_q([list(w) for w in ws] or [[0] * self.rank_T]) != self.rank_T:
            raise ValidationError("weights must span Q^rank_T (the torus they cut out)")

    def restricted(self, w):
        return _mat_vec(self.restriction, w)


def bifc_equivalent(a: FormalBiCharacter, b: FormalBiCharacter,
                    budget: int = DEFAULT_EQUIV_BUDGET) -> bool:
    """Unimodular maps on source and target commuting with the restriction
    maps and matching the weight multisets together with their restricted
    images."""
    if len(a.weights) != len(b.weights):
        return False
    if a.rank_T != b.rank_T or a.rank_Tss != b.rank_Tss:
        return False
    s = a.rank_Tss
    if a.rank_T == 0:
        return True
    # combined vectors (w, res w) must match under a block map diag(S, T)
    b_comb = [w + b.restricted(w) for w in b.weights]
    r = a.rank_T
    # search S on the full weights; for each match derive T from the
    # commuting condition T Ra = Rb S and verify it on the combined data
    for S in _unimodular_match(list(a.weights), list(b.weights), r, budget):
        T = _solve_commuting_map(a.restriction, b.restriction, S, s)
        if T is None:
            continue
        mapped = sorted((_mat_vec(S, w) + _mat_vec(T, a.restricted(w))
                         for w in a.weights), key=_grlex_key)
        target = sorted(b_comb, key=_grlex_key)
        if mapped == target:
            return True
    return False


def _solve_commuting_map(Ra, Rb, S, s):
    """Unimodular T with T Ra = Rb S, if one exists."""
    if s == 0:
        return []
    RbS = _mat_mul(Rb, S)
    # through the right inverse Ra^T (Ra Ra^T)^-1 = Ra^T adj / d
    RaT = [list(col) for col in zip(*Ra)]
    d, adj = _adjugate(_mat_mul(Ra, RaT))
    if d == 0:
        return None
    N = _mat_mul(_mat_mul(RbS, RaT), adj)
    # integrality and exactness
    if any(x % d for row in N for x in row):
        return None
    T = [[x // d for x in row] for row in N]
    if _mat_mul(T, Ra) != RbS:
        return None
    return T if _is_unimodular(T) else None
