"""Exponential generation of finite matrix groups in characteristic ell:
truncated exp/log, one-parameter subgroups, the normal subgroup G+
generated by order-ell elements, and the F_ell-points of the exponentially
generated closure together with its matrix Lie algebra.

Requires ell >= n so that the truncated series terminate and invert each
other on unipotent matrices.  Then exp(t log x) = x^t, so the closure
generated by all one-parameter subgroups over G[ell] is G+ itself.

G[ell] is found from trace candidates, then the nilpotence test on them:
a unipotent has trace n, so (g - 1)^n = 0 is tested only on the closure's
elements of trace n mod ell.  G[ell] comes as its closure indices, the
candidates of G+, which is an index set of G's closure
(FinMatGroup.index_subgroup): G is the only group the Nori stage closes.
The stack of G[ell] read at those indices is the input of the stacked
log series.
exp and log are polynomials of degree below n, evaluated on whole stacks
by fieldcore's Horner; lie_closure reduces all seeds at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import CharTooSmall, EmptyAlgebra, NotUnipotent
from .fieldcore import (DEFAULT_CLOSURE_CAP, DEFAULT_SEED, EchelonBasis,
                        FinMatGroup, Mat, _eval_poly_at_matrix, checked_seed,
                        generator_commutators)
from .gf import GF


def default_ell_threshold(n: int) -> int:
    """Smallest ell at which the exponential-generation properties are
    asserted by the tests.  The true constant is not effective here; 4n is
    a workable desk-scale default."""
    return 4 * n


@dataclass
class NoriResult:
    plus_group: FinMatGroup
    nori_points: FinMatGroup
    lie_algebra: list
    warnings: list

    @property
    def quotient_order(self) -> int:
        return self.nori_points.order // self.plus_group.order

    def to_json(self):
        doc = {
            "plus_order": self.plus_group.order,
            "nori_order": self.nori_points.order,
            "quotient_order": self.quotient_order,
            "lie_dim": len(self.lie_algebra),
            "warnings": list(self.warnings),
        }
        return doc


def _check_char(fld: GF, n: int):
    if fld.d != 1:
        raise NotUnipotent("exp/log work over the prime field F_ell")
    if fld.ell < n:
        raise CharTooSmall(f"need ell >= n, got ell={fld.ell}, n={n}")


def _nilpotent_mask(fld, N):
    """N^n == 0 for every N of a (..., n, n) stack, at once."""
    power = N
    for _ in range(N.shape[-1] - 1):
        power = fld.matmul(power, N)
    return ~power.any(axis=(-2, -1))


def unipotent_log(x: Mat) -> Mat:
    """Truncated series -sum_{i=1}^{ell-1} (1-x)^i / i on a unipotent x."""
    fld = x.field
    _check_char(fld, x.n)
    if not is_unipotent(x):
        raise NotUnipotent("(x - 1)^n != 0")
    return Mat(fld, _log_stack(fld, x.array))


def nilpotent_exp(N: Mat) -> Mat:
    """Truncated series sum_{i=0}^{ell-1} N^i / i! on a nilpotent N."""
    fld = N.field
    _check_char(fld, N.n)
    if not _nilpotent_mask(fld, N.array):
        raise NotUnipotent("N^n != 0")
    return Mat(fld, _exp_stack(fld, N.array))


def _log_stack(fld, X):
    """The series of unipotent_log on a (..., n, n) stack of unipotents."""
    n = X.shape[-1]
    coefs = [0] + [fld.neg(fld.inv(i)) for i in range(1, n)]
    return _eval_poly_at_matrix(fld, coefs, fld.sub(fld.eye(n), X))


def _exp_stack(fld, N):
    """The series of nilpotent_exp on a (..., n, n) stack of nilpotents."""
    coefs = [fld.inv(factorial(i) % fld.ell) for i in range(N.shape[-1])]
    return _eval_poly_at_matrix(fld, coefs, N)


def is_unipotent(x: Mat) -> bool:
    fld = x.field
    return bool(_nilpotent_mask(fld, fld.sub(x.array, fld.eye(x.n))))


def order_ell_elements(G: FinMatGroup, cap: int = DEFAULT_CLOSURE_CAP) -> np.ndarray:
    """G[ell]: the non-trivial unipotent elements of G, as a read-only
    ascending array of their indices in G's closure, found from trace
    candidates, then the nilpotence test on them; G.closure()[indices] is
    the stack of them in closure order.  A unipotent has trace n, so only
    the elements of trace n mod ell are tested."""
    fld = G.field
    _check_char(fld, G.n)
    X = G.closure(cap)
    # the identity heads the closure order
    candidates = 1 + np.flatnonzero(
        X[1:].trace(axis1=-2, axis2=-1) % fld.ell == G.n % fld.ell)
    kept = candidates[_nilpotent_mask(fld, fld.sub(X[candidates], fld.eye(G.n)))]
    kept.setflags(write=False)
    return kept


def one_param_subgroup(x: Mat):
    """The ell matrices x^t = exp(t log x) for t in F_ell."""
    fld = x.field
    N = unipotent_log(x).array
    ts = np.arange(fld.ell, dtype=np.int64)[:, None, None]
    return [Mat(fld, e) for e in _exp_stack(fld, fld.mul(ts, N))]


def plus_subgroup(G: FinMatGroup, cap: int = DEFAULT_CLOSURE_CAP) -> FinMatGroup:
    """The subgroup generated by the order-ell elements (normal in G), as
    an index set of G's closure."""
    return G.index_subgroup(order_ell_elements(G, cap))


def _echelon_span(fld: GF, seeds, n: int) -> EchelonBasis:
    """The echelon basis of the span of n x n seeds, reduced all at once:
    each step adds the first seed whose residual is nonzero and clears the
    new pivot from the seeds after it, so the rows are those of adding
    every seed in order."""
    basis = EchelonBasis(fld)
    rest = np.asarray(seeds, dtype=np.int64).reshape(-1, n * n)
    while (live := np.flatnonzero(rest.any(axis=1))).size:
        row = basis.add(rest[live[0]])
        rest = rest[live[0] + 1:]
        rest = fld.sub(rest, fld.mul(rest[:, basis.pivots[-1], None], row))
    return basis


def lie_closure(fld: GF, seeds, n: int):
    """Bracket-and-span closure of a set of n x n matrices, as a basis list.

    The seeds are reduced all at once (_echelon_span).  The brackets of
    each basis row with the rows up to it are one stacked product, added
    in order."""
    basis = _echelon_span(fld, seeds, n)
    mats = basis.rows
    i = 0
    while i < len(mats):
        a, bs = mats[i].reshape(n, n), np.reshape(mats[:i + 1], (-1, n, n))
        for bracket in fld.sub(fld.matmul(a, bs), fld.matmul(bs, a)).reshape(i + 1, -1):
            basis.add(bracket)
        i += 1
    return [m.reshape(n, n) for m in mats]


def nori_points(G: FinMatGroup, cap: int = DEFAULT_CLOSURE_CAP) -> NoriResult:
    """F_ell-points of the group generated by the one-parameter subgroups
    over G[ell], with the associated Lie algebra and the order of the
    quotient by its own plus-subgroup.

    Since exp(t log x) = x^t when ell >= n, that group is G+, generated by
    G[ell] itself; the Lie algebra is spanned by brackets of the logs of
    G[ell]."""
    fld = G.field
    n = G.n
    warns = []
    if fld.ell < default_ell_threshold(n):
        warns.append(f"ell={fld.ell} is below the default threshold {default_ell_threshold(n)} "
                     f"for n={n}; exponential-generation properties are only asserted above it")
    kept = order_ell_elements(G, cap)
    plus = G.index_subgroup(kept)
    algebra = lie_closure(fld, _log_stack(fld, G.closure(cap)[kept]), n)
    return NoriResult(plus_group=plus, nori_points=plus, lie_algebra=algebra,
                      warnings=warns)


def quotient_is_abelian(S: FinMatGroup, S_plus: FinMatGroup) -> bool:
    """S/S_plus abelian, checked via generator commutators (S_plus normal).
    S/S is trivial, so S_plus is S needs no check."""
    return S_plus is S or bool(S_plus.members(generator_commutators(S)).all())


@dataclass(frozen=True)
class LieRankReport:
    dim: int
    derived_dim: int
    rank_estimate: int
    sample_count: int


def lie_rank_estimate(basis, fld: GF, samples: int = 25,
                      seed: int = DEFAULT_SEED) -> LieRankReport:
    """(dim, derived dim, sampled rank upper bound) of a matrix Lie algebra.

    The basis must span a Lie algebra L, as lie_closure returns it; then
    [L, L] is the span of the brackets of the basis, which is itself
    bracket-closed, and its rows are those lie_closure would give.
    rank_estimate is min over sampled x in [L, L] of dim ker(ad x | [L, L]),
    which is the derived dimension minus the rank of the brackets [x, b]
    over the derived basis b, one GF.rank per sample; it is an upper bound
    for the reductive rank, not a certificate.  No sample falls below the
    floor max(1, derived dim - (n^2 - n)): a nonzero x lies in its own
    centralizer, x = 0 gives the derived dimension, and every x in gl_n
    has a centralizer of dimension at least n, which meets [L, L] in at
    least derived dim + n - n^2 dimensions.  So sampling stops once the
    minimum reaches the floor, with the same estimate as all samples give;
    sample_count is the number of samples drawn.
    """
    rng = np.random.default_rng(checked_seed(seed))
    if not basis:
        raise EmptyAlgebra("zero Lie algebra")
    n = basis[0].shape[0]
    dim = len(basis)
    B = np.array(basis, dtype=np.int64)
    products = fld.matmul(B[:, None], B[None])  # [i, j] = b_i b_j
    i, j = np.tril_indices(dim, -1)  # the pairs j < i, by i then j
    derived = _echelon_span(fld, fld.sub(products[i, j], products[j, i]), n).rows
    ddim = len(derived)
    if ddim == 0:
        return LieRankReport(dim, 0, 0, 0)
    D = np.array(derived).reshape(ddim, n, n)
    floor = max(1, ddim - (n * n - n))
    best, drawn = ddim, 0
    while drawn < samples and best > floor:
        drawn += 1
        coeffs = rng.integers(0, fld.q, size=ddim)
        x = fld.matmul(coeffs[None], D.reshape(ddim, -1)).reshape(n, n)
        # the derived algebra is closed under brackets, so ad x maps it into
        # itself and the rank of ad x is the rank of the brackets [x, b]
        brs = fld.sub(fld.matmul(x, D), fld.matmul(D, x)).reshape(ddim, -1)
        best = min(best, ddim - fld.rank(brs))
    return LieRankReport(dim, ddim, best, drawn)
