"""Sparse truncated series in T and delta_mu T, and the jet algebras.

A series ring adjoins to a coefficient ring one etale coordinate T together
with one variable delta_mu T per nonempty word mu of length <= r over n
directions, D(n, r) variables in total.  Elements (``SparseSeries``) are
sparse polynomials: a map from monomials (tuples of (variable index,
exponent), sorted) to coefficients, plus one global p-power denominator
exponent.  Monomials of total degree above the configured bound D are
discarded by every operation, so results are exact only for output
monomials of degree <= D; operations state this contract rather than
hiding it.  Two rings share this class: the jet ring here (tower-element
coefficients, ``JetElement``) and the exact Serre-Tate ring of
``frobjet.sertate`` (rational coefficients, pi = p, ``STSeries``).

The prolongation endomorphism for direction i acts on coefficients through
the ring's Frobenius (phi^(gamma_i) on a tower), on T by
T -> T^p + pi * delta_i T and on delta_mu T by
delta_mu T -> (delta_mu T)^p + pi * delta_(i mu) T; the derivation is
recovered as delta_i = (phi_i - (.)^p) / pi, which makes the non-additive
derivation axioms hold by construction.

Because phi images of single variables are two-term sums, powers expand by
plain binomials whose terms carry growing pi-powers; coefficients falling
below the working precision are pruned immediately, which is what keeps
high-degree expansions small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (FamilyMismatch, NotTopologicallyNilpotent, OrderOverflow,
                     PrecisionExhausted)
from .tower import (FrobeniusIndex, QElement, Tower, TowerElement,
                    frobenius_apply, pi_derivation, valuation)
from .words import words_up_to, word_to_string


@dataclass(frozen=True)
class JetRingConfig:
    """Shape of a truncated jet ring: directions, order, degree bound."""

    tower: Tower
    n: int
    r: int
    D: int
    gammas: tuple

    def __post_init__(self):
        if len(self.gammas) != self.n:
            raise FamilyMismatch("need one Frobenius index per direction")
        object.__setattr__(self, "gammas", tuple(self.gammas))


class SeriesRing:
    """Variable table and coefficient ring of the sparse series below.

    Variable v stands for delta_w T with w = ``var_words[v]``; index 0 is
    T itself, the empty word.  Subclasses set ``series_type`` (their
    SparseSeries subclass) and ``scalar_types`` (what ``from_int`` takes),
    and supply ``from_int``, ``is_zero`` and ``frobenius(i, c)``; pi^j
    comes from a table built here for j <= D, so a ring is read-only.
    """

    def __init__(self, p: int, n: int, r: int, D: int, one, pi):
        self.p, self.n, self.r, self.D = p, n, r, D
        self.var_words = words_up_to(n, r)
        self.word_to_var = {w: v for v, w in enumerate(self.var_words) if w}
        pows = [one, pi]
        while len(pows) <= D:
            pows.append(pows[-1] * pi)
        self._pi_pows = tuple(pows)

    def pi_pow(self, j: int):
        """pi^j for 0 <= j <= max(D, 1)."""
        return self._pi_pows[j]

    def element(self, terms, den: int = 0) -> "SparseSeries":
        return self.series_type(self, terms, den)

    def zero(self) -> "SparseSeries":
        return self.element({})

    def one(self) -> "SparseSeries":
        return self.scalar(self.from_int(1))

    def scalar(self, a) -> "SparseSeries":
        return self.element({(): a})

    def variable(self, idx: int) -> "SparseSeries":
        return self.element({((idx, 1),): self.from_int(1)})

    def T(self) -> "SparseSeries":
        return self.variable(0)

    def var_index(self, word) -> int:
        """Index of the variable delta_w T; OrderOverflow outside the ring."""
        w = tuple(word)
        if w not in self.word_to_var:
            bad = [i for i in w if not 1 <= i <= self.n]
            raise OrderOverflow(
                f"direction {bad[0]} in word {w} is outside 1..{self.n}"
                if bad else f"word {w} exceeds order {self.r}")
        return self.word_to_var[w]


class SparseSeries:
    """Sparse truncated polynomial num / p^den over a SeriesRing.

    ``terms`` maps monomials (sorted tuples of (variable, exponent)) of
    total degree <= D to nonzero coefficients; every operation truncates
    again.  ``den`` is a global p-power denominator exponent.  Sums take
    the ring's ``scalar_types`` through ``ring.from_int``, a factor of those
    types multiplies every coefficient, and other operands are refused.
    """

    __slots__ = ("ring", "terms", "den")

    def __init__(self, ring: SeriesRing, terms, den: int = 0):
        self.ring = ring
        self.den = den
        D, is_zero = ring.D, ring.is_zero
        self.terms = {m: c for m, c in terms.items()
                      if _degree(m) <= D and not is_zero(c)}

    def _coerce(self, other):
        """``other`` as a series, or None when its type is foreign here."""
        if isinstance(other, self.ring.scalar_types):
            return self.ring.scalar(self.ring.from_int(other))
        return other if isinstance(other, SparseSeries) else None

    def scale(self, a) -> "SparseSeries":
        return type(self)(self.ring,
                          {m: c * a for m, c in self.terms.items()}, self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.ring is not other.ring:
            raise FamilyMismatch("series from different rings")
        d = max(self.den, other.den)
        p = self.ring.p
        a = self if self.den == d else self.scale(p ** (d - self.den))
        b = other if other.den == d else other.scale(p ** (d - other.den))
        t = dict(a.terms)
        for m, c in b.terms.items():
            t[m] = t[m] + c if m in t else c
        return type(self)(self.ring, t, d)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.ring,
                          {m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __mul__(self, other):
        if isinstance(other, self.ring.scalar_types):
            return self.scale(other)
        if not isinstance(other, SparseSeries):
            return NotImplemented
        if self.ring is not other.ring:
            raise FamilyMismatch("series from different rings")
        return type(self)(self.ring,
                          series_mul(self.terms, other.terms, self.ring.D),
                          self.den + other.den)

    def __pow__(self, n: int):
        """Square-and-multiply through the product above."""
        if n < 0:
            raise ValueError(f"negative power {n} of a truncated series")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def truncate(self, D: int) -> "SparseSeries":
        """Restriction to monomials of total degree <= D (<= ring's D)."""
        return type(self)(self.ring,
                          {m: c for m, c in self.terms.items()
                           if _degree(m) <= D},
                          self.den)


class JetElement(SparseSeries):
    """Jet-ring element: tower-element numerators over p^den."""

    __slots__ = ()
    # bound in this class's own body, not inherited: the span tracer
    # (perfbench/spans.py) wraps the product per class through __dict__
    __mul__ = __rmul__ = SparseSeries.__mul__

    def integrality_report(self):
        """Per-monomial check that the true coefficient num/p^den is integral."""
        p = self.ring.tower.p
        report = {}
        for m, c in sorted(self.terms.items()):
            ok = all(x % p ** min(self.den, c.prec) == 0
                     for row in c.coeffs for x in row)
            report[_mono_str(self.ring, m)] = ok
        return report

    def to_dict(self):
        return {
            "den": self.den,
            "terms": [
                {"mono": [[v, e] for v, e in m], "coeff": c.to_dict()}
                for m, c in sorted(self.terms.items())],
        }

    def __repr__(self):
        parts = [f"{_mono_str(self.ring, m)}" for m in sorted(self.terms)]
        return f"JetElement(den={self.den}, monomials={parts[:8]}...)"


class JetRing(SeriesRing):
    """Jet ring of a JetRingConfig: coefficients are tower elements."""

    series_type = JetElement
    scalar_types = int
    is_zero = staticmethod(TowerElement.is_zero)

    def __init__(self, cfg: JetRingConfig):
        self.cfg = cfg
        self.tower = cfg.tower
        super().__init__(cfg.tower.p, cfg.n, cfg.r, cfg.D, cfg.tower.one(),
                         cfg.tower.pi())
        self.from_int = cfg.tower.from_int
        self._frob = [FrobeniusIndex(g) for g in cfg.gammas]

    def frobenius(self, i: int, c: TowerElement) -> TowerElement:
        """phi^(gamma_i) on a coefficient."""
        return frobenius_apply(self.tower, self._frob[i - 1], c)


# ---------------------------------------------------------------------------
# the kernel on term maps: monomials (sorted tuples of (variable,
# exponent)) to coefficients of a SeriesRing
# ---------------------------------------------------------------------------

def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _degree(mono) -> int:
    return sum(e for _, e in mono)


def series_mul(t1: dict, t2: dict, D: int) -> dict:
    """Product of two term maps, dropping monomials of degree above D."""
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    right = [(_degree(m), m, c) for m, c in t2.items()]
    out = {}
    for m1, c1 in t1.items():
        room = D - _degree(m1)
        for d2, m2, c2 in right:
            if d2 > room:
                continue
            m = _mono_mul(m1, m2)
            c = c1 * c2
            out[m] = out[m] + c if m in out else c
    return out


def _mono_str(ring, m):
    if not m:
        return "1"
    return "*".join((f"d{word_to_string(ring.var_words[v])}" if v else "T")
                    + (f"^{e}" if e > 1 else "") for v, e in m)


def phi_endomorphism(ring: SeriesRing, i: int, F: SparseSeries
                     ) -> SparseSeries:
    """Prolongation endomorphism for direction i (1-based), on either ring.

    Coefficients go through ``ring.frobenius(i, .)``, T to T^p + pi delta_i T
    and delta_mu T to (delta_mu T)^p + pi delta_(i mu) T.  Raises
    OrderOverflow when F involves a word of length r already, since the
    image would need length r + 1.
    """
    if not 1 <= i <= ring.n:
        raise FamilyMismatch(f"direction {i} outside the family")
    p, D = ring.p, ring.D
    images = {}

    def image_terms(v: int, e: int):
        # [(degree, scalar, mono)] for (image of variable v)^e, only the
        # terms C(e, j) pi^j of degree p (e - j) + j <= D, which need
        # j >= (p e - D) / (p - 1)
        if (v, e) in images:
            return images[(v, e)]
        iw = (i,) + ring.var_words[v]
        succ = ring.word_to_var.get(iw)
        if succ is None:
            raise OrderOverflow(
                f"word {iw} exceeds the configured order r = {ring.r}")
        out = []
        for j in range(max(-(-(p * e - D) // (p - 1)), 0), e + 1):
            scalar = ring.from_int(math.comb(e, j)) * ring.pi_pow(j)
            if ring.is_zero(scalar):
                continue
            mono = []
            if e - j:
                mono.append((v, p * (e - j)))
            if j:
                mono.append((succ, j))
            mono = tuple(sorted(mono))
            out.append((_degree(mono), scalar, mono))
        images[(v, e)] = out
        return out

    total = {}
    for mono, coeff in F.terms.items():
        acc = {(): ring.frobenius(i, coeff)}
        for v, e in mono:
            imgs = image_terms(v, e)
            nxt = {}
            for m0, c0 in acc.items():
                room = D - _degree(m0)
                for d1, scalar, m1 in imgs:
                    if d1 > room:
                        continue
                    c = c0 * scalar
                    if ring.is_zero(c):
                        continue
                    m = _mono_mul(m0, m1)
                    nxt[m] = nxt[m] + c if m in nxt else c
            acc = nxt
            if not acc:
                break
        for m, c in acc.items():
            total[m] = total[m] + c if m in total else c
    return ring.element(total, F.den)


def phi_word(ring: SeriesRing, word, F: SparseSeries) -> SparseSeries:
    """phi_mu = phi_{i_1} o ... o phi_{i_s}: innermost letter acts first."""
    for letter in reversed(tuple(word)):
        F = phi_endomorphism(ring, letter, F)
    return F


def delta_operator(ring: JetRing, i: int, F: JetElement) -> JetElement:
    """delta_i F = (phi_i F - F^p) / pi, certified one digit lower."""
    p = ring.tower.p
    G = phi_endomorphism(ring, i, F) - F ** p
    if G.den:
        # F had a denominator: F^p scaled it by p*den, realign first
        raise PrecisionExhausted(
            "delta of a non-integral jet element is not supported")
    terms = {}
    for m, c in G.terms.items():
        terms[m] = c.divide_by_pi()
    return JetElement(ring, terms, G.den)


def eval_jet(ring: JetRing, F: JetElement, a: TowerElement) -> QElement:
    """Evaluate F at the point T = a, delta_mu T = delta_mu(a).

    Requires v(a) > 0.  The truncated polynomial is evaluated exactly, so
    the value is certified to the precision the tower arithmetic keeps (one
    digit less per pi-derivation of ``a``) less ``F.den``, as a value of that
    polynomial; no bound on the discarded tail is applied, and one is the
    caller's to make.
    """
    v = valuation(a)
    if not v > 0:
        raise NotTopologicallyNilpotent(
            "point evaluation requires positive valuation")
    cfg = ring.cfg
    values = {(): a}

    def delta_value(word):
        if word in values:
            return values[word]
        head, rest = word[0], word[1:]
        inner = delta_value(rest)
        val = pi_derivation(ring.tower, FrobeniusIndex(cfg.gammas[head - 1]),
                            inner)
        values[word] = val
        return val

    total = ring.tower.zero()
    for mono, coeff in F.terms.items():
        term = coeff
        for var, e in mono:
            base = delta_value(ring.var_words[var])
            term = term * base ** e
        total = total + term
    q = QElement(total, F.den)
    if q.certified_precision() < 1:
        raise PrecisionExhausted("evaluation consumed the precision budget")
    return q
