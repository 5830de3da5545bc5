"""The exact-rational Table-A routines that the integer path replaced, kept
as test oracles.  The library derives each simple factor's root data from
its Cartan matrix; OrthogonalFactor builds the factor's orthogonal
realization from (family, rank) alone, with the roots listed by their
coordinate patterns and Freudenthal over Fractions.  Lattice matching goes
through Fraction inverses from q_rref, the reduced row echelon form over Q.
Each gives what the routine it replaced gave for the same input."""

import itertools
from fractions import Fraction
from math import lcm

from envlab.charlattice import _bareiss, _grlex_key, _mat_mul, _mat_vec, _spanning_subset
from envlab.errors import NotDominant, SearchBudgetExceeded, ValidationError
from envlab.smallrep import _dot, _vadd, _vsub


def _vscale(c, a):
    return tuple(c * x for x in a)


def q_rref(rows):
    """Gauss-Jordan elimination over Q: (the nonzero rows of the reduced
    row echelon form, as Fractions, and their pivot columns).  Each row is
    scaled to integers, which leaves the row space alone, and eliminated
    by charlattice._bareiss."""
    scaled = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        scaled.append([int(x * den) for x in row])
    R, pivots = _bareiss(scaled)
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(R, pivots)], pivots


class OrthogonalFactor:
    """A simple factor of type A_r, B_r, C_r or D_r in its orthogonal
    realization, as Fractions: the simple roots, the fundamental weights
    and the positive roots (e_i - e_j for i < j; for B, C and D also
    e_i + e_j, and e_i for B, 2 e_i for C), with the Cartan matrix and the
    Gram matrix of the fundamental weights read from them."""

    def __init__(self, family, rank):
        r, F = rank, Fraction
        n = self.ambient = r + 1 if family == "A" else r
        e = lambda i: tuple(F(int(j == i)) for j in range(n))
        ones = lambda k: tuple(F(int(j < k)) for j in range(n))  # e_0 + ... + e_(k-1)
        half = tuple(F(1, 2) for _ in range(n))
        chain = [_vsub(e(i), e(i + 1)) for i in range(n - 1)]
        pairs = list(itertools.combinations(range(n), 2))
        self.positive_roots = [_vsub(e(i), e(j)) for i, j in pairs]
        self.fundamental_weights = [ones(i + 1) for i in range(r)]
        if family == "A":
            self.simple_roots = chain
            self.fundamental_weights = [_vsub(ones(i + 1), _vscale(F(i + 1, n), ones(n)))
                                        for i in range(r)]
        else:
            self.positive_roots += [_vadd(e(i), e(j)) for i, j in pairs]
            if family == "B":
                self.simple_roots = chain + [e(r - 1)]
                self.positive_roots += [e(i) for i in range(r)]
                self.fundamental_weights[-1] = half
            elif family == "C":
                self.simple_roots = chain + [_vscale(2, e(r - 1))]
                self.positive_roots += [_vscale(2, e(i)) for i in range(r)]
            else:  # D
                self.simple_roots = chain + [_vadd(e(r - 2), e(r - 1))]
                self.fundamental_weights[-2:] = [half[:-1] + (F(-1, 2),), half]
        self.coroots = [self.coroot(a) for a in self.simple_roots]
        self.rho = _vscale(Fraction(1, 2),
                           tuple(sum(c) for c in zip(*self.positive_roots)))
        self.cartan = [self.int_labels(a) for a in self.simple_roots]
        self.gram = [[_dot(u, v) for v in self.fundamental_weights]
                     for u in self.fundamental_weights]

    @staticmethod
    def coroot(alpha):
        return _vscale(Fraction(2, _dot(alpha, alpha)), alpha)

    def dynkin_labels(self, mu):
        return tuple(_dot(mu, c) for c in self.coroots)

    def int_labels(self, mu):
        labels = self.dynkin_labels(mu)
        assert all(x.denominator == 1 for x in map(Fraction, labels))
        return tuple(int(x) for x in labels)

    def weight_from_labels(self, labels):
        acc = tuple(Fraction(0) for _ in range(self.ambient))
        for m, w in zip(labels, self.fundamental_weights):
            acc = _vadd(acc, _vscale(Fraction(m), w))
        return acc

    def make_dominant(self, mu):
        mu = tuple(mu)
        while True:
            for a, c in zip(self.simple_roots, self.coroots):
                k = _dot(mu, c)
                if k < 0:
                    mu = _vsub(mu, _vscale(k, a))
                    break
            else:
                return mu

    def weyl_orbit(self, mu):
        seen = {tuple(mu)}
        frontier = [tuple(mu)]
        while frontier:
            nxt = []
            for v in frontier:
                for a, c in zip(self.simple_roots, self.coroots):
                    w = _vsub(v, _vscale(_dot(v, c), a))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return seen

    def weight_multiplicities(self, labels):
        """Freudenthal over the dominant weights in orthogonal coordinates:
        {orthogonal weight: multiplicity}."""
        if any(m < 0 for m in labels):
            raise NotDominant(f"labels {labels} are not dominant")
        lam = self.weight_from_labels(labels)
        dominant, stack = {lam}, [lam]
        while stack:
            v = stack.pop()
            for a in self.positive_roots:
                mu = _vsub(v, a)
                if mu not in dominant and min(self.dynkin_labels(mu)) >= 0:
                    dominant.add(mu)
                    stack.append(mu)

        def norm_rho(mu):
            mu_rho = _vadd(mu, self.rho)
            return _dot(mu_rho, mu_rho)

        norm_lam = norm_rho(lam)
        mults = {lam: 1}
        for mu in sorted(dominant - {lam}, key=norm_rho, reverse=True):
            total = Fraction(0)
            for a in self.positive_roots:
                up = _vadd(mu, a)
                while (m_up := mults.get(self.make_dominant(up))) is not None:
                    total += 2 * m_up * _dot(up, a)
                    up = _vadd(up, a)
            m = total / (norm_lam - norm_rho(mu))
            assert m.denominator == 1
            mults[mu] = int(m)
        return {v: m for mu, m in mults.items() for v in self.weyl_orbit(mu)}

    def in_labels(self, mults):
        """{orthogonal weight: m} re-keyed by integer Dynkin labels."""
        return {self.int_labels(mu): m for mu, m in mults.items()}


def q_matinv(M):
    """Inverse of a square matrix of Fractions/ints, or None if singular."""
    n = len(M)
    R, pivots = q_rref([list(row) + [int(i == j) for j in range(n)]
                        for i, row in enumerate(M)])
    return [r[n:] for r in R] if pivots[-1] < n else None


def is_unimodular(T):
    """An integer matrix is unimodular iff its inverse exists and is integral."""
    inv = q_matinv(T)
    return inv is not None and all(x.denominator == 1 for row in inv for x in row)


def unimodular_match(a_weights, b_weights, s, budget):
    """The candidate search of charlattice._unimodular_match with T = U A^-1
    over Fractions."""
    base_idx = _spanning_subset(a_weights, s)
    if base_idx is None:
        raise ValidationError("weights do not span the stated rank")
    A_cols = [[a_weights[i][r] for i in base_idx] for r in range(s)]
    Ainv = q_matinv(A_cols)
    sorted_b = sorted(b_weights, key=_grlex_key)
    tried = 0
    b_list = list(b_weights)
    for combo in itertools.product(range(len(b_list)), repeat=s):
        tried += 1
        if tried > budget:
            raise SearchBudgetExceeded(
                f"equivalence search exhausted {budget} candidates; verdict undecided")
        U_cols = [[b_list[c][r] for c in combo] for r in range(s)]
        T = _mat_mul(U_cols, Ainv)
        if any(Fraction(x).denominator != 1 for row in T for x in row):
            continue
        T = [[int(x) for x in row] for row in T]
        if not is_unimodular(T):
            continue
        mapped = sorted((_mat_vec(T, w) for w in a_weights), key=_grlex_key)
        if mapped == sorted_b:
            yield T
