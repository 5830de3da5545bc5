"""Root data of classical type and small rank, weight multiplicities by
Freudenthal over dominant weights, the Weyl dimension formula,
self-duality, and the enumeration of connected semisimple subgroups of
GL_n (2 <= n <= 6) that act irreducibly, with the standard case labels
such as (4B2) or (2A1x3A1).

Every weight is an integer vector of Dynkin labels (coordinates in the
basis of fundamental weights).  Each simple factor's root data come from
its Cartan matrix: reflections are its rows, the positive roots are the
simple roots closed by height through root strings, and Freudenthal's
formula uses the Gram matrix of the fundamental weights, the Cartan
matrix's adjugate scaled by the root lengths, so all the work is on
Python ints.
Families are restricted to A_r (r>=1), B_r (r>=2), C_r (r>=3), D_r (r>=4)
to avoid the low-rank coincidences (B1=C1=A1, C2=B2, D2=A1A1, D3=A3); the
classical isogeny names (SO_4, SO_5, SO_6, Sp_4) enter through a fixed
alias table on the simply connected enumeration.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod

from .charlattice import FormalCharacter, _adjugate, fc_normalize, fc_predicates
from .errors import NotDominant, OutOfRange, ValidationError


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


class SimpleFactor:
    """One simple factor (family, rank), derived from its Cartan matrix:
    every method takes and returns integer Dynkin labels."""

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
        # row i is alpha_i in labels, C[i][j] = <alpha_i, alpha_j^vee>, so the
        # simple reflection is s_i(mu) = mu - mu_i C[i].  A_r's path; B_r's
        # last root is short, C_r's is long, and D_r's hangs from the third
        # last.  half[i] is (alpha_i, alpha_i) / 2 with the short roots at 1.
        cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(r)]
                  for i in range(r)]
        half = [1] * r
        if family == "B":
            cartan[r - 2][r - 1] = -2
            half[:r - 1] = [2] * (r - 1)
        elif family == "C":
            cartan[r - 1][r - 2] = -2
            half[r - 1] = 2
        elif family == "D":
            cartan[r - 1][r - 2] = cartan[r - 2][r - 1] = 0
            cartan[r - 1][r - 3] = cartan[r - 3][r - 1] = -1
        self.cartan = [tuple(row) for row in cartan]
        # the positive roots by height: the alpha_i-string through beta runs
        # p steps down and p - beta_i steps up, so beta + alpha_i is a root
        # iff p > beta_i, and every root below beta is already known
        self.positive_roots, level, known = [], self.cartan, set(self.cartan)
        while level:
            self.positive_roots += level
            nxt = []
            for beta in level:
                for k, a in zip(beta, self.cartan):
                    p, down = 0, _vsub(beta, a)
                    while down in known:
                        p, down = p + 1, _vsub(down, a)
                    if p > k and (up := _vadd(beta, a)) not in known:
                        known.add(up)
                        nxt.append(up)
            level = nxt
        # the Gram matrix of the fundamental weights up to one positive
        # scale: (omega_i, omega_j) = (C^-1)_ij half[j], and the adjugate is
        # d C^-1 with d = +-det C.  Freudenthal's quotient and the Weyl
        # dimension only need inner products up to a common scale.
        d, adj = _adjugate(self.cartan)
        sign = 1 if d > 0 else -1
        self._gram = [tuple(sign * x * h for x, h in zip(row, half)) for row in adj]
        # scale * (omega_i, alpha) for each positive root alpha, and
        # <omega_i, alpha^vee> = 2 (omega_i, alpha) / (alpha, alpha), column
        # i over all alpha.  <lam + rho, alpha^vee> = sum (m_i + 1) <omega_i,
        # alpha^vee>, so the Weyl denominator is prod <rho, alpha^vee>
        self._root_pairings = [tuple(_dot(row, a) for row in self._gram)
                               for a in self.positive_roots]
        coroot_coords = [tuple(2 * x // _dot(a, ga) for x in ga)
                         for a, ga in zip(self.positive_roots, self._root_pairings)]
        self._coroot_columns = list(zip(*coroot_coords))
        self._rho_pairings = [sum(c) for c in coroot_coords]
        self._weyl_denominator = prod(self._rho_pairings)

    def _norm_rho(self, mu):
        """scale * |mu + rho|^2; rho has all labels 1."""
        shifted = [m + 1 for m in mu]
        return _dot(shifted, [_dot(row, shifted) for row in self._gram])

    def make_dominant(self, mu):
        """The dominant Weyl-chamber representative of mu."""
        mu = tuple(mu)
        while True:
            for k, row in zip(mu, self.cartan):
                if k < 0:
                    mu = tuple(x - k * c for x, c in zip(mu, row))
                    break
            else:
                return mu

    def weyl_orbit(self, mu):
        seen = {tuple(mu)}
        frontier = [tuple(mu)]
        while frontier:
            nxt = []
            for v in frontier:
                for k, row in zip(v, self.cartan):
                    w = tuple(x - k * c for x, c in zip(v, row))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return seen

    def weyl_dimension(self, labels) -> int:
        if min(labels) < 0:
            raise NotDominant(f"labels {labels} are not dominant")
        pairings = self._rho_pairings
        for m, column in zip(labels, self._coroot_columns):
            if m:
                pairings = [p + m * c for p, c in zip(pairings, column)]
        dim, rem = divmod(prod(pairings), self._weyl_denominator)
        assert rem == 0
        return dim

    def weight_multiplicities(self, labels):
        """Freudenthal's formula over the dominant weights only, expanded to
        all weights by the Weyl group.  Returns {Dynkin labels:
        multiplicity}."""
        if min(labels) < 0:
            raise NotDominant(f"labels {labels} are not dominant")
        lam = tuple(labels)
        # Subtracting positive roots while staying dominant reaches every
        # dominant mu <= lam (Stembridge 1998, Cor. 2.7), and each of them is
        # a weight of V(lam).
        dominant, stack = {lam}, [lam]
        while stack:
            v = stack.pop()
            for a in self.positive_roots:
                mu = _vsub(v, a)
                if mu not in dominant and min(mu) >= 0:
                    dominant.add(mu)
                    stack.append(mu)
        norm = {mu: self._norm_rho(mu) for mu in dominant}
        norm_lam = norm[lam]
        mults = {lam: 1}
        # Every term mu + k alpha has a dominant conjugate with a larger
        # |. + rho|^2, so it is already in the table when mu comes up; and
        # alpha-strings are unbroken, so the first term missing from the
        # table ends the string.  Both sides carry the Gram scale, so the
        # quotient is exact.
        for mu in sorted(dominant - {lam}, key=norm.get, reverse=True):
            total = 0
            for a, pairing in zip(self.positive_roots, self._root_pairings):
                up = _vadd(mu, a)
                while (m_up := mults.get(self.make_dominant(up))) is not None:
                    total += 2 * m_up * _dot(up, pairing)
                    up = _vadd(up, a)
            m, rem = divmod(total, norm_lam - norm[mu])
            assert rem == 0
            mults[mu] = m
        return {v: m for mu, m in mults.items() for v in self.weyl_orbit(mu)}


@functools.cache
def simple_factor(family: str, rank: int) -> SimpleFactor:
    return SimpleFactor(family, rank)


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
    """All weights with multiplicity, in fundamental-weight (Dynkin label)
    coordinates, concatenated across factors."""
    combined = [((), 1)]
    for factor, labels in zip(rep.datum.parts(), rep.highest_weight):
        mults = factor.weight_multiplicities(labels)
        combined = [(w + lw, m * lm) for w, m in combined for lw, lm in mults.items()]
    weights = [w for w, m in combined for _ in range(m)]
    return FormalCharacter(rep.datum.rank, tuple(weights))


def dual_highest_weight(rep: IrrepLabel) -> tuple:
    """Per-factor labels of the dual representation: the dominant
    representative of minus the highest weight."""
    return tuple(factor.make_dominant(tuple(-m for m in labels))
                 for factor, labels in zip(rep.datum.parts(), rep.highest_weight))


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


def _combos_of_dim(reps, n):
    """The tuples taking one (labels, dim) from each list in reps whose
    dimensions multiply to n, in itertools.product order: a rep is kept
    only while its dimension divides what is left of n."""
    if not reps:
        return [()] if n == 1 else []
    return [(rep,) + rest for rep in reps[0] if n % rep[1] == 0
            for rest in _combos_of_dim(reps[1:], n // rep[1])]


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
        for combo in _combos_of_dim([factor_reps[key] for key in datum.factors], n):
            dims = [d for _, d in combo]
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
