"""Twisted symbol ring over a tower and the rank matrices built from it.

A symbol is a finite left combination  sum_mu  lambda_mu phi_mu  with
lambda_mu in the fraction field of the tower (stored as a numerator element
plus an explicit p-power denominator exponent, so congruence tests stay
exact).  Multiplication twists scalars past the Frobenius letters:

    (lambda phi_mu) (rho phi_nu) = lambda * phi_mu(rho) * phi_{mu nu}.

Evaluation sends a symbol to the additive operator  alpha |-> sum
lambda_mu phi_mu(alpha); it is a ring homomorphism on denominator-free
symbols.

The module also lays out, once over any coefficient ring, the 6 x 7
coefficient matrix of the six canonical order-2 character symbols (rows:
psi_{1,2}, phi_1 psi_{1,2}, phi_2 psi_{1,2}, psi_{11,1}, psi_{22,2},
psi_{11,22}; columns: the basis phi_1^2, phi_2^2, phi_1 phi_2, phi_2 phi_1,
phi_1, phi_2, 1): ``gamma_matrix`` fills ``gamma_rows`` with tower values
and tests/test_sertate.py with sertate's parameter slots.  Every k x k
minor is taken exactly, from one subset DP per row set.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import (CertificateFailure, FamilyMismatch, MissingClass,
                     PrecisionExhausted)
from .tower import (INF, QElement, Tower, TowerElement,
                    frobenius_word_apply)
from .words import word_to_string


class Symbol:
    """Finite map word -> QElement coefficient over a fixed family."""

    __slots__ = ("tower", "gammas", "terms")

    def __init__(self, tower: Tower, gammas, terms=None):
        self.tower = tower
        self.gammas = tuple(gammas)
        t = {}
        for w, c in (terms or {}).items():
            if isinstance(c, TowerElement):
                c = QElement(c, 0)
            if not c.num.is_zero():
                t[tuple(w)] = c
        self.terms = t

    def _check(self, other: "Symbol"):
        if self.tower is not other.tower or self.gammas != other.gammas:
            raise FamilyMismatch("symbols over different families")

    @classmethod
    def scalar(cls, tower, gammas, c) -> "Symbol":
        return cls(tower, gammas, {(): c})

    def __add__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        self._check(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            t[w] = t[w] + c if w in t else c
        return Symbol(self.tower, self.gammas, t)

    def __neg__(self):
        return Symbol(self.tower, self.gammas,
                      {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        return self + (-other)

    def __repr__(self):
        return f"Symbol({ {word_to_string(w): c for w, c in self.terms.items()} })"


def sym_mul(s1: Symbol, s2: Symbol) -> Symbol:
    """Product in the twisted ring; left-linear in ``s1``."""
    s1._check(s2)
    t = {}
    for w1, c1 in s1.terms.items():
        for w2, c2 in s2.terms.items():
            w = w1 + w2
            twisted = QElement(
                frobenius_word_apply(s1.tower, s1.gammas, w1, c2.num), c2.den)
            add = c1 * twisted
            t[w] = t[w] + add if w in t else add
    return Symbol(s1.tower, s1.gammas, t)


def sym_eval(s: Symbol, alpha: TowerElement) -> QElement:
    """Apply the operator sum lambda_mu phi_mu to ``alpha``."""
    acc = QElement(s.tower.zero(alpha.prec), 0)
    for w, c in sorted(s.terms.items()):
        acc = acc + c * frobenius_word_apply(s.tower, s.gammas, w, alpha)
    if acc.certified_precision() < 1:
        raise PrecisionExhausted("denominators consumed the precision budget")
    return acc


class PMatrix:
    """Matrix of QElement entries sharing one tower, with a working precision."""

    def __init__(self, entries, precision: int):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        self.precision = precision

    def submatrix(self, rows, cols) -> "PMatrix":
        return PMatrix([[self.entries[i][j] for j in cols] for i in rows],
                       self.precision)

    def det(self) -> QElement:
        """Exact determinant, see :func:`subset_det`."""
        return subset_det(self.entries,
                          QElement(self.entries[0][0].tower.one(), 0))


def subset_minors(rows, one) -> dict:
    """Every k x k minor of a k x n matrix (k <= n), keyed by column mask.

    Subset DP (Laplace): ``prev[mask]`` is the signed sum over assignments
    of the rows so far to the columns in ``mask``; adding column ``col``
    flips the sign once per used column above it, so only the relative
    order of the columns counts.  The ring's elements need ``is_zero()``.

    A product with a zero factor (a zero entry, or the value of a mask that
    only zeros reached) is not formed.  Over a ring without precision it
    adds nothing.  Over QElement the zero val * x still counts: it has den
    val.den + x.den and the precision of its less precise factor.  A sum of
    QElements ends with den = D the largest den, precision P the least,
    and numerator sum num_i p^(D - den_i) mod p^P, in any order.  So each
    mask keeps the largest den and the least precision of the products
    skipped into it, and adds one zero at them when the row ends; a mask
    that only zeros reached is that zero.  Every minor keeps the numerator,
    precision and den of the full sum.
    """
    n = len(rows[0]) if rows else 0
    prev = {0: one}
    for row in rows:
        cur, skipped = {}, {}
        zero_cols = [x.is_zero() for x in row]
        for mask, val in prev.items():
            val_zero = val.is_zero()
            for col in range(n):
                if mask & (1 << col):
                    continue
                newmask = mask | (1 << col)
                if val_zero or zero_cols[col]:
                    skipped[newmask] = _skip(skipped.get(newmask), val,
                                             row[col])
                    continue
                term = val * row[col]
                if bin(mask >> (col + 1)).count("1") % 2:
                    term = -term
                cur[newmask] = cur[newmask] + term if newmask in cur else term
        for mask, zero in skipped.items():
            if isinstance(zero, tuple):
                zero = QElement(one.tower.zero(zero[1]), zero[0])
            cur[mask] = cur[mask] + zero if mask in cur else zero
        prev = cur
    return prev


def _skip(acc, val, x):
    """Fold the zero product val * x into ``acc`` (None at first) without
    forming it: over QElement the pair (den, prec) of the zero that the
    skipped products sum to, over any other ring a zero of the ring."""
    if not isinstance(val, QElement):
        return x if x.is_zero() else val
    den, prec = val.den + x.den, min(val.num.prec, x.num.prec)
    if acc is None:
        return den, prec
    return max(den, acc[0]), min(prec, acc[1])


def subset_det(rows, one):
    """Determinant of a square matrix, the one minor of subset_minors."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise CertificateFailure("determinant of a non-square matrix")
    return subset_minors(rows, one)[(1 << n) - 1]


_GAMMA_BASIS = ("11", "22", "12", "21", "1", "2", "")


def gamma_rows(primary, secondary, zero) -> list:
    """The six symbol rows on _GAMMA_BASIS over any coefficient ring.

    Row psi_{mu,nu} holds primary(nu) at mu, -primary(mu) at nu and
    secondary(mu, nu) at the empty word.  Rows two and three are phi_j
    psi_{1,2}: each coefficient moves from w to jw and is read with twist
    j ("" for none).
    """
    def row(mu, nu, j=""):
        cols = {j + mu: primary(nu, j), j + nu: -primary(mu, j),
                j: secondary(mu, nu, j)}
        return [cols.get(w, zero) for w in _GAMMA_BASIS]

    return [row("1", "2"), row("1", "2", "1"), row("1", "2", "2"),
            row("11", "1"), row("22", "2"), row("11", "22")]


def gamma_matrix(fvals: dict, tower: Tower, precision: int) -> PMatrix:
    """Coefficient matrix of the six canonical order-2 character symbols.

    ``fvals`` maps string keys to tower elements (or QElements): the scaled
    primary classes "ft_1", "ft_2", "ft_11", "ft_22", the secondary classes
    "f_1,2", "f_11,1", "f_22,2", "f_11,22" and the twists "ft_1@1",
    "ft_2@1", "f_1,2@1", "ft_1@2", "ft_2@2", "f_1,2@2" used by rows two and
    three.  The first key read and absent raises MissingClass.
    """
    def q(key, j):
        key += "@" + j if j else ""
        if key not in fvals:
            raise MissingClass(key)
        v = fvals[key]
        return v if isinstance(v, QElement) else QElement(v, 0)

    rows = gamma_rows(lambda mu, j: q(f"ft_{mu}", j),
                      lambda mu, nu, j: q(f"f_{mu},{nu}", j),
                      QElement(tower.zero(), 0))
    return PMatrix(rows, precision)


def pmatrix_rank_minors(M: PMatrix, k: int):
    """Rank lower bound from the k x k minors, with valuation certificates.

    A minor counts as nonvanishing iff its valuation is below the matrix
    precision; p-adic rank can only ever be certified from below, so the
    bound is ``k`` when some k-minor is nonvanishing and 0 (no information)
    otherwise.
    """
    if k > min(M.rows, M.cols):
        raise ValueError("minor size exceeds matrix dimensions")
    one = QElement(M.entries[0][0].tower.one(), 0)
    reports = []
    rank_lb = 0
    for rows in combinations(range(M.rows), k):
        minors = subset_minors([M.entries[i] for i in rows], one)
        for cols in combinations(range(M.cols), k):
            v = minors[sum(1 << j for j in cols)].valuation()
            vanishing = (v == INF) or v >= M.precision
            if not vanishing:
                rank_lb = k
            reports.append({
                "rows": list(rows), "cols": list(cols),
                "valuation": None if v == INF else str(Fraction(v)),
                "vanishing": vanishing,
            })
    return rank_lb, reports
