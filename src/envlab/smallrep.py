"""Root data of classical type and small rank, weight multiplicities by
Freudenthal over dominant weights, the Weyl dimension formula,
self-duality, and the enumeration of connected semisimple subgroups of
GL_n (2 <= n <= 6) that act irreducibly, with the standard case labels
such as (4B2) or (2A1x3A1).

Simple factors are realized in orthogonal coordinates (exact Fraction
arithmetic); weights are exported to the lattice layer in the basis of
fundamental weights, so every exported coordinate vector is integral.
Families are restricted to A_r (r>=1), B_r (r>=2), C_r (r>=3), D_r (r>=4)
to avoid the low-rank coincidences (B1=C1=A1, C2=B2, D2=A1A1, D3=A3); the
classical isogeny names (SO_4, SO_5, SO_6, Sp_4) enter through a fixed
alias table on the simply connected enumeration.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .charlattice import FormalCharacter, fc_normalize, fc_predicates
from .errors import NotDominant, OutOfRange, ValidationError


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vscale(c, a):
    return tuple(c * x for x in a)


class SimpleFactor:
    """One simple factor (family, rank) in its orthogonal realization."""

    def __init__(self, family: str, rank: int):
        if family not in "ABCD":
            raise ValidationError(f"unknown family {family!r}")
        minimum = {"A": 1, "B": 2, "C": 3, "D": 4}[family]
        if rank < minimum:
            raise ValidationError(
                f"{family}{rank} duplicates a lower-rank type; use ranks >= {minimum}")
        self.family = family
        self.rank = rank
        r = rank
        F = Fraction
        if family == "A":
            self.ambient = r + 1
            e = lambda i: tuple(F(int(j == i)) for j in range(r + 1))
            self.simple_roots = [_vsub(e(i), e(i + 1)) for i in range(r)]
            total = tuple(F(1) for _ in range(r + 1))
            self.fundamental_weights = [
                _vsub(tuple(F(int(j < i + 1)) for j in range(r + 1)),
                      _vscale(F(i + 1, r + 1), total))
                for i in range(r)]
        else:
            self.ambient = r
            e = lambda i: tuple(F(int(j == i)) for j in range(r))
            if family == "B":
                self.simple_roots = [_vsub(e(i), e(i + 1)) for i in range(r - 1)] + [e(r - 1)]
                self.fundamental_weights = [
                    tuple(F(int(j < i + 1)) for j in range(r)) for i in range(r - 1)
                ] + [tuple(F(1, 2) for _ in range(r))]
            elif family == "C":
                self.simple_roots = [_vsub(e(i), e(i + 1)) for i in range(r - 1)] \
                    + [_vscale(F(2), e(r - 1))]
                self.fundamental_weights = [
                    tuple(F(int(j < i + 1)) for j in range(r)) for i in range(r)]
            else:  # D
                self.simple_roots = [_vsub(e(i), e(i + 1)) for i in range(r - 1)] \
                    + [_vadd(e(r - 2), e(r - 1))]
                fw = [tuple(F(int(j < i + 1)) for j in range(r)) for i in range(r - 2)]
                fw.append(tuple(F(1, 2) if j < r - 1 else F(-1, 2) for j in range(r)))
                fw.append(tuple(F(1, 2) for j in range(r)))
                self.fundamental_weights = fw
        self.coroots = [self.coroot(a) for a in self.simple_roots]
        self.positive_roots = self._positive_roots()
        self.rho = _vscale(Fraction(1, 2),
                           tuple(sum(c) for c in zip(*self.positive_roots)))
        # each positive coroot in the simple coroots: <omega_i, alpha^vee> =
        # c_i, so <lam + rho, alpha^vee> = sum (m_i + 1) c_i; rho has all
        # labels 1, so the Weyl denominator is prod sum c_i
        self._coroot_coords = [
            tuple(int(_dot(w, self.coroot(a))) for w in self.fundamental_weights)
            for a in self.positive_roots]
        self._weyl_denominator = prod(map(sum, self._coroot_coords))

    def _positive_roots(self):
        """Close the simple roots under addition within the root system."""
        roots = set(self.simple_roots)
        frontier = list(roots)
        while frontier:
            nxt = []
            for a in frontier:
                for b in self.simple_roots:
                    c = _vadd(a, b)
                    if c not in roots and self._is_root(c):
                        roots.add(c)
                        nxt.append(c)
            frontier = nxt
        return sorted(roots)

    def _is_root(self, v):
        """Membership test by the family's coordinate patterns."""
        nz = [x for x in v if x != 0]
        if self.family == "A":
            return sorted(nz) == [-1, 1] and sum(v) == 0
        if self.family == "B":
            return sorted(map(abs, nz)) in ([1], [1, 1])
        if self.family == "C":
            return sorted(map(abs, nz)) in ([2], [1, 1])
        return sorted(map(abs, nz)) == [1, 1]

    def coroot(self, alpha):
        return _vscale(Fraction(2, _dot(alpha, alpha)), alpha)

    def dynkin_labels(self, mu):
        return tuple(_dot(mu, c) for c in self.coroots)

    def weight_from_labels(self, labels):
        acc = tuple(Fraction(0) for _ in range(self.ambient))
        for m, w in zip(labels, self.fundamental_weights):
            acc = _vadd(acc, _vscale(Fraction(m), w))
        return acc

    def make_dominant(self, mu):
        """The dominant Weyl-chamber representative of mu."""
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
                    k = _dot(v, c)
                    w = _vsub(v, _vscale(k, a))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return seen

    def weyl_dimension(self, labels) -> int:
        if any(m < 0 for m in labels):
            raise NotDominant(f"labels {labels} are not dominant")
        num = prod(sum((m + 1) * ci for m, ci in zip(labels, c))
                   for c in self._coroot_coords)
        dim, rem = divmod(num, self._weyl_denominator)
        assert rem == 0
        return dim

    def weight_multiplicities(self, labels):
        """Freudenthal's formula over the dominant weights only, expanded to
        all weights by the Weyl group.  Returns {orthogonal weight:
        multiplicity}."""
        if any(m < 0 for m in labels):
            raise NotDominant(f"labels {labels} are not dominant")
        lam = self.weight_from_labels(labels)
        # Subtracting positive roots while staying dominant reaches every
        # dominant mu <= lam (Stembridge 1998, Cor. 2.7), and each of them is
        # a weight of V(lam).
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
        # Every term mu + k alpha has a dominant conjugate with a larger
        # |. + rho|^2, so it is already in the table when mu comes up; and
        # alpha-strings are unbroken, so the first term missing from the
        # table ends the string.
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


_FACTOR_CACHE = {}


def simple_factor(family: str, rank: int) -> SimpleFactor:
    key = (family, rank)
    if key not in _FACTOR_CACHE:
        _FACTOR_CACHE[key] = SimpleFactor(family, rank)
    return _FACTOR_CACHE[key]


@dataclass(frozen=True)
class RootDatum:
    """A product of simple factors, canonically sorted."""

    factors: tuple  # tuple of (family, rank)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(sorted(
            (str(f), int(r)) for f, r in self.factors)))

    @property
    def rank(self):
        return sum(r for _, r in self.factors)

    def parts(self):
        return [simple_factor(f, r) for f, r in self.factors]


@dataclass(frozen=True)
class IrrepLabel:
    """(root datum, dominant highest weight in fundamental-weight labels,
    one label tuple per factor)."""

    datum: RootDatum
    highest_weight: tuple  # tuple of per-factor label tuples

    def __post_init__(self):
        hw = tuple(tuple(int(x) for x in part) for part in self.highest_weight)
        object.__setattr__(self, "highest_weight", hw)
        for (f, r), part in zip(self.datum.factors, hw):
            if len(part) != r:
                raise ValidationError("label length differs from factor rank")
            if any(m < 0 for m in part):
                raise NotDominant(f"labels {part} are not dominant")


def weyl_dimension(rep: IrrepLabel) -> int:
    dim = 1
    for factor, labels in zip(rep.datum.parts(), rep.highest_weight):
        dim *= factor.weyl_dimension(labels)
    return dim


def freudenthal_weights(rep: IrrepLabel) -> FormalCharacter:
    """All weights with multiplicity, exported in fundamental-weight
    (Dynkin label) coordinates, concatenated across factors."""
    per_factor = []
    for factor, labels in zip(rep.datum.parts(), rep.highest_weight):
        mults = factor.weight_multiplicities(labels)
        per_factor.append([(factor.dynkin_labels(mu), m) for mu, m in mults.items()])
    combined = [((), 1)]
    for fw in per_factor:
        combined = [(w + lw, m * lm) for w, m in combined for lw, lm in fw]
    weights = []
    for w, m in combined:
        assert all(x.denominator == 1 for x in map(_as_fraction, w))
        weights.extend([tuple(int(x) for x in w)] * m)
    return FormalCharacter(rep.datum.rank, tuple(weights))


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def dual_highest_weight(rep: IrrepLabel) -> tuple:
    """Per-factor labels of the dual representation: the dominant
    representative of minus the highest weight."""
    out = []
    for factor, labels in zip(rep.datum.parts(), rep.highest_weight):
        lam = factor.weight_from_labels(labels)
        dual = factor.make_dominant(_vscale(Fraction(-1), lam))
        out.append(tuple(int(x) for x in factor.dynkin_labels(dual)))
    return tuple(out)


def is_self_dual(rep: IrrepLabel) -> bool:
    return dual_highest_weight(rep) == rep.highest_weight


@dataclass(frozen=True)
class TableARow:
    label: str
    group_name: str
    rep_name: str
    datum: RootDatum
    rep: IrrepLabel
    dim: int
    self_dual: bool
    formal_char: FormalCharacter

    def to_json(self):
        p = fc_predicates(self.formal_char)
        return {
            "case": self.label,
            "group": self.group_name,
            "rep": self.rep_name,
            "dim": self.dim,
            "self_dual": self.self_dual,
            "rank": self.formal_char.rank,
            "zero_weight_count": p.zero_weight_count,
        }


def _factor_reps_up_to(factor: SimpleFactor, max_dim: int):
    """All nonzero dominant labels with Weyl dimension <= max_dim, in
    lexicographic order.  The dimension is monotone in each label
    coordinate, so a DFS that stops at the first zero-padded probe above
    max_dim is exhaustive; at the last coordinate the probe is the leaf."""
    out = []
    r = factor.rank
    def rec(prefix):
        for m in itertools.count():
            labels = prefix + [m] + [0] * (r - len(prefix) - 1)
            d = factor.weyl_dimension(labels)
            if d > max_dim:
                return
            if len(prefix) + 1 < r:
                rec(prefix + [m])
            elif any(labels):
                out.append((tuple(labels), d))
    rec([])
    return out


def _root_data_up_to_rank(max_rank: int):
    """All multisets of simple factors with total rank <= max_rank."""
    singles = []
    for fam, mn in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
        for r in range(mn, max_rank + 1):
            singles.append((fam, r))
    data = []
    def rec(start, remaining, acc):
        if acc:
            data.append(tuple(acc))
        for i in range(start, len(singles)):
            f, r = singles[i]
            if r <= remaining:
                rec(i, remaining - r, acc + [singles[i]])
    rec(0, max_rank, [])
    return data


_REP_NAME_ALIASES = {
    # (family, rank, labels) -> (group name, rep name)
    ("B", 2, (1, 0)): ("SO_5", "std"),
    ("B", 2, (0, 1)): ("Sp_4", "std"),
    ("C", 3, (1, 0, 0)): ("Sp_6", "std"),
    ("A", 3, (0, 1, 0)): ("SO_6", "std"),
}


def _factor_names(family, rank, labels):
    key = (family, rank, tuple(labels))
    if key in _REP_NAME_ALIASES:
        return _REP_NAME_ALIASES[key]
    if family == "A":
        group = f"SL_{rank + 1}"
        if labels == tuple(int(i == 0) for i in range(rank)) \
                or labels == tuple(int(i == rank - 1) for i in range(rank)):
            return group, "std"
        if rank == 1:
            k = labels[0]
            return group, f"S^{k}(std)" if k > 1 else "std"
        if sum(labels) == 2 and (labels[0] == 2 or labels[-1] == 2):
            return group, "S^2(std)"
        return group, f"V({','.join(map(str, labels))})"
    group = {"B": f"Spin_{2 * rank + 1}", "C": f"Sp_{2 * rank}", "D": f"Spin_{2 * rank}"}[family]
    return group, f"V({','.join(map(str, labels))})"


def _row_label(datum, dims):
    toks = [f"{d}{f}{r}" for (f, r), d in zip(datum.factors, dims)]
    return "(" + "⊗".join(toks) + ")"


@functools.lru_cache(maxsize=None)
def table_a(n: int):
    """All connected semisimple subgroups of GL_n acting irreducibly, up to
    isomorphism of the faithful representation, identifying a
    representation with its dual, for 2 <= n <= 6."""
    if not 2 <= n <= 6:
        raise OutOfRange(f"n must be in 2..6, got {n}")
    rows = []
    seen = set()
    factor_reps = {}
    for factors in _root_data_up_to_rank(n - 1):
        datum = RootDatum(factors)
        for key in datum.factors:
            if key not in factor_reps:
                factor_reps[key] = _factor_reps_up_to(simple_factor(*key), n)
        for combo in itertools.product(*(factor_reps[key] for key in datum.factors)):
            dims = [d for _, d in combo]
            total = 1
            for d in dims:
                total *= d
            if total != n:
                continue
            labels = tuple(lab for lab, _ in combo)
            rep = IrrepLabel(datum, labels)
            dual = dual_highest_weight(rep)
            key_direct = tuple(sorted(zip(datum.factors, labels)))
            key_dual = tuple(sorted(zip(datum.factors, dual)))
            key = min(key_direct, key_dual)
            if key in seen:
                continue
            seen.add(key)
            fc = fc_normalize(freudenthal_weights(rep))
            gnames, rnames = [], []
            for (f, r), lab in zip(datum.factors, labels):
                g, rp = _factor_names(f, r, lab)
                gnames.append(g)
                rnames.append(rp)
            if datum.factors == (("A", 1), ("A", 1)) and labels == ((1,), (1,)):
                group_name, rep_name = "SO_4", "std"
            else:
                group_name = "×".join(gnames)
                rep_name = "⊗".join(rnames) if len(rnames) > 1 else rnames[0]
            rows.append(TableARow(
                label=_row_label(datum, dims),
                group_name=group_name,
                rep_name=rep_name,
                datum=datum,
                rep=rep,
                dim=n,
                self_dual=(dual == labels),
                formal_char=fc,
            ))
    rows.sort(key=lambda r: (len(r.datum.factors), r.datum.factors, r.rep.highest_weight))
    return rows
