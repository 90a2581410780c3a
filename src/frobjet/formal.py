"""Formal group laws and logarithms of elliptic curves and the unit group.

Curves are short Weierstrass, y^2 = x^3 + a4 x + a6, over Z_p with p >= 5
and unit discriminant.  All series work happens in the chart t = -x/y:
the auxiliary series w(t) (= -1/y) solves w = t^3 + a4 t w^2 + a6 w^3 and is
computed by Newton iteration; the invariant differential dx/(2y) expands as
(t w' - w)/(2w) dt, normalized so its leading coefficient is 1.  The
logarithm l(T) = sum b_m/m T^m stores only the integral numerators b_m.

The group law F(T1, T2) comes from the chord construction: the slope
lambda = (w(t2) - w(t1))/(t2 - t1) is a polynomial identity (no division),
the third intersection of the chord with the cubic is read off from the
degree-3 coefficient ratio, and negation in this chart is t -> -t.

Every series here runs on the one Kronecker product kernel of
:mod:`frobjet.polyutils` (the logarithm needs degree p^2 * Nmax for the
congruence checks).  A bivariate series of total degree <= D is packed by
T1 -> X^(D+2), T2 -> X^(D+1) into a univariate list of length (D+1)^2.

The jet-side constructions evaluate phi_mu on the logarithm inside a
truncated jet ring and read off character series; coefficients carry one
global p-power denominator so integrality claims stay checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import polyutils as pu
from .errors import (BadReduction, CertificateFailure, DistinctWordsRequired,
                     FamilyMismatch, IntegralityViolation,
                     NotTopologicallyNilpotent, OrderOverflow,
                     PrecisionExhausted, SeriesTooShort)
from .jets import JetElement, JetRing, phi_word
from .tower import TowerElement, n_of_pi_from, valuation


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + a4 x + a6 over Z_p, good reduction required."""

    p: int
    a4: int
    a6: int
    label: str = ""

    def __post_init__(self):
        if self.p < 5:
            raise BadReduction("short Weierstrass machinery needs p >= 5")
        if self.discriminant_unit() is False:
            raise BadReduction(
                f"discriminant of {self.label or (self.a4, self.a6)} "
                f"vanishes mod {self.p}")

    def discriminant_unit(self) -> bool:
        return (4 * self.a4 ** 3 + 27 * self.a6 ** 2) % self.p != 0

    def fpoly(self):
        return [self.a6, self.a4, 0, 1]


@dataclass
class LogSeries:
    """Logarithm sum b_m/m T^m; stores b_1..b_D as residues mod p^prec."""

    p: int
    prec: int
    b: list  # index m, b[0] unused

    @property
    def degree(self) -> int:
        return len(self.b) - 1

    def to_json_obj(self):
        return {"p": self.p, "prec": self.prec, "b": self.b[1:]}

    @classmethod
    def from_json_obj(cls, d) -> "LogSeries":
        return cls(d["p"], d["prec"], [0] + list(d["b"]))


def curve_w_series(curve: WeierstrassCurve, n: int, mod: int) -> list:
    """w(t) with w = t^3 + a4 t w^2 + a6 w^3, to length ``n`` mod ``mod``.

    Newton iteration with a tracked correct-degree bound: the seed t^3 is
    exact through degree 6 and each step at truncation 2m doubles the bound
    (the derivative 1 - 2 a4 t w - 3 a6 w^2 is a unit series).  A final
    residual check guards the bookkeeping.
    """
    n = max(n, 4)
    a4, a6 = curve.a4 % mod, curve.a6 % mod

    def residual(w, length):
        w2 = pu.ser_mul(w, w, mod, length)
        w3 = pu.ser_mul(w2, w, mod, length)
        val = list(w[:length]) + [0] * max(0, length - len(w))
        val[3] = (val[3] - 1) % mod
        for i, c in enumerate(w2[:length - 1]):
            val[i + 1] = (val[i + 1] - a4 * c) % mod
        for i, c in enumerate(w3[:length]):
            val[i] = (val[i] - a6 * c) % mod
        dphi = [1] + [0] * (length - 1)
        for i, c in enumerate(w[:length - 1]):
            dphi[i + 1] = (dphi[i + 1] - 2 * a4 * c) % mod
        for i, c in enumerate(w2[:length]):
            dphi[i] = (dphi[i] - 3 * a6 * c) % mod
        return val, dphi

    w = [0, 0, 0, 1]
    m = 7
    while m < n:
        length = min(2 * m, n)
        w = (w + [0] * length)[:length]
        val, dphi = residual(w, length)
        corr = pu.ser_mul(val, pu.ser_inv(dphi, mod, length), mod, length)
        w = [(a - b) % mod for a, b in
             zip(w, corr + [0] * (length - len(corr)))]
        m = length + 1 if 2 * (m - 1) >= length else 2 * (m - 1)
    w = (w + [0] * n)[:n]
    val, _ = residual(w, n)
    if any(val):
        raise CertificateFailure(
            "Newton iteration for w(t) failed to converge")
    return w


def formal_log(curve: WeierstrassCurve, D: int, prec: int) -> LogSeries:
    """Logarithm of the curve normalized so b_1 = 1 (omega = dx/2y).

    Needs every 1/m for m <= D to stay within the precision budget, so
    floor(log_p D) must be below ``prec``.
    """
    p = curve.p
    dmax = pu.floor_log(p, D)
    if prec <= dmax:
        raise PrecisionExhausted(
            f"denominators up to p^{dmax} do not fit in prec {prec}")
    mod = p ** prec
    n = D + 4
    w = curve_w_series(curve, n, mod)
    # omega = (t w' - w)/(2 w) dt; both sides divisible by t^3
    tw_minus = [((i - 1) * c) % mod for i, c in enumerate(w)]
    num = [tw_minus[i + 3] % mod for i in range(n - 3)]
    den = [w[i + 3] % mod for i in range(n - 3)]
    inv2 = pu.modinv(2, mod)
    omega = pu.ser_mul(num, pu.ser_inv(den, mod, D), mod, D)
    omega = [(c * inv2) % mod for c in omega]
    b = [0] * (D + 1)
    for m in range(1, D + 1):
        b[m] = omega[m - 1]
    if b[1] != 1:
        raise CertificateFailure("logarithm does not start with T")
    return LogSeries(p, prec, b)


def gm_log(p: int, D: int, prec: int) -> LogSeries:
    """Logarithm of the multiplicative group: b_m = (-1)^(m+1)."""
    mod = p ** prec
    return LogSeries(p, prec,
                     [0] + [(1 if m % 2 else mod - 1) for m in range(1, D + 1)])


# ---------------------------------------------------------------------------
# bivariate group law
# ---------------------------------------------------------------------------

class FormalGroupLaw:
    """Truncated group law F(T1, T2), coefficients mod p^prec, degree <= D."""

    def __init__(self, p: int, prec: int, D: int, coeffs: dict):
        self.p, self.prec, self.D = p, prec, D
        self.coeffs = {k: v % p ** prec for k, v in coeffs.items()
                       if v % p ** prec}

    def coefficient(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    def add_points(self, a: TowerElement, b: TowerElement) -> TowerElement:
        """Evaluate the law at tower points of positive valuation."""
        if not (valuation(a) > 0 and valuation(b) > 0):
            raise NotTopologicallyNilpotent(
                "the formal group only sees points of positive valuation")
        t = a.tower
        out = t.zero()
        pows_a = {0: t.one()}
        pows_b = {0: t.one()}
        for (i, j), c in sorted(self.coeffs.items()):
            if i not in pows_a:
                pows_a[i] = a ** i
            if j not in pows_b:
                pows_b[j] = b ** j
            out = out + pows_a[i] * pows_b[j] * c
        return out

    def to_dict(self):
        return {"p": self.p, "prec": self.prec, "D": self.D,
                "coeffs": {f"{i},{j}": c
                           for (i, j), c in sorted(self.coeffs.items())}}


def _pack(a: dict, D: int) -> list:
    """Kronecker image of a bivariate series of total degree <= D.

    T1 -> X^(D+2), T2 -> X^(D+1) sends T1^i T2^j to index (i+j)(D+1) + i:
    injective on total degree <= D, while every higher degree lands at index
    >= (D+1)^2, so truncated bivariate products are ``ser_mul`` at that n.
    """
    out = [0] * (D + 1) ** 2
    for (i, j), c in a.items():
        out[(i + j) * (D + 1) + i] = c
    return out


def _unpack(a: list, D: int) -> dict:
    return {(i, s - i): a[s * (D + 1) + i] for s in range(D + 1)
            for i in range(s + 1) if a[s * (D + 1) + i]}


def formal_group_law(curve: WeierstrassCurve | None, D: int, prec: int,
                     p: int | None = None) -> FormalGroupLaw:
    """Group law via the chord construction; ``curve=None`` gives the
    built-in multiplicative law T1 + T2 + T1*T2."""
    if D < 1:
        raise SeriesTooShort(f"group law needs degree D >= 1, got {D}")
    if curve is None:
        if p is None:
            raise FamilyMismatch("the multiplicative group law needs p")
        return FormalGroupLaw(p, prec, D,
                              {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    p = curve.p
    mod = p ** prec
    n = (D + 1) ** 2
    w = curve_w_series(curve, D + 2, mod)
    # lambda = sum_k w_k * (t1^(k-1) + t1^(k-2) t2 + ... + t2^(k-1))
    lam = _pack({(a_, k - 1 - a_): w[k] for k in range(1, D + 2)
                 for a_ in range(k)}, D)
    # nu = w(t1) - lambda * t1; multiplying by t1 shifts by D + 2
    w1 = _pack({(i, 0): w[i] for i in range(D + 1)}, D)
    nu = [(x - y) % mod for x, y in zip(w1, [0] * (D + 2) + lam)]
    lam2 = pu.ser_mul(lam, lam, mod, n)
    lam3 = pu.ser_mul(lam2, lam, mod, n)
    A = [(curve.a4 * x + curve.a6 * y) % mod for x, y in zip(lam2, lam3)]
    A[0] = (A[0] + 1) % mod
    B = pu.ser_mul([(2 * curve.a4 * x + 3 * curve.a6 * y) % mod
                    for x, y in zip(lam, lam2)], nu, mod, n)
    F = pu.ser_mul(B, pu.ser_inv(A, mod, n), mod, n)
    # F = t1 + t2 + B/A, with t1 at index D + 2 and t2 at D + 1
    F[D + 2] = (F[D + 2] + 1) % mod
    F[D + 1] = (F[D + 1] + 1) % mod
    return FormalGroupLaw(p, prec, D, _unpack(F, D))


# ---------------------------------------------------------------------------
# exact-rational reversion (exponential) for oracle checks
# ---------------------------------------------------------------------------

def log_coefficients_exact(log: LogSeries, D: int) -> list:
    """Fractions b_m/m, m <= D, lifting the stored residues."""
    return [Fraction(0)] + [Fraction(log.b[m], m) for m in range(1, D + 1)]


def exp_series(log: LogSeries, D: int) -> list:
    """Compositional inverse of the logarithm as exact Fractions e_1..e_D.

    Solves l(e(T)) = T coefficient by coefficient; denominators pick up
    p-powers of size about D/(p-1), which is why this stays an oracle for
    modest degrees rather than a production path.
    """
    lc = log_coefficients_exact(log, D)
    e = [Fraction(0), Fraction(1)]
    for k in range(2, D + 1):
        # coefficient of T^k in sum_m lc[m] * e(T)^m with e_k = 0
        coeff = Fraction(0)
        powers = [None, list(e) + [Fraction(0)]]
        cur = powers[1]
        for m in range(2, k + 1):
            cur = _ser_mul_frac(cur, powers[1], k + 1)
            coeff += lc[m] * (cur[k] if k < len(cur) else 0)
        e.append(-coeff)
    return e


def _ser_mul_frac(a, b, n):
    out = [Fraction(0)] * n
    for i, c in enumerate(a[:n]):
        if c == 0:
            continue
        for j, d in enumerate(b[:n - i]):
            if d:
                out[i + j] += c * d
    return out


def scaled_log_coefficients(log: LogSeries, D: int, dmax: int,
                            mod: int) -> list:
    """p^dmax * b_m/m mod ``mod`` at index m = 1..D (index 0 is 0).

    Needs dmax >= floor(log_p D), so that every 1/m clears.
    """
    if log.degree < D:
        raise PrecisionExhausted(f"log series degree {log.degree} < {D}")
    p = log.p
    out = [0] * (D + 1)
    for m in range(1, D + 1):
        v = pu.vp(m, p)
        out[m] = (log.b[m] * p ** (dmax - v)
                  * pu.modinv(m // p ** v, mod)) % mod
    return out


def compose_log_with_law(log: LogSeries, law: FormalGroupLaw, D: int):
    """l(F(T1,T2)) - l(T1) - l(T2) as a bivariate dict scaled by p^dmax.

    Returns (dict, dmax); the homomorphism law holds iff every entry is
    divisible by p^dmax at the working precision.
    """
    if D < 1:
        raise SeriesTooShort(f"log composition needs degree D >= 1, got {D}")
    p = log.p
    mod = p ** log.prec
    dmax = pu.floor_log(p, D)
    c = scaled_log_coefficients(log, D, dmax, mod)
    n = (D + 1) ** 2
    F = _pack({k: v % mod for k, v in law.coeffs.items() if sum(k) <= D}, D)
    # Horner: (...((c_D F + c_{D-1}) F + c_{D-2}) F ... + c_1) F
    acc = [(c[D] * x) % mod for x in F]
    for m in range(D - 1, 0, -1):
        acc[0] = (acc[0] + c[m]) % mod
        acc = pu.ser_mul(acc, F, mod, n)
    for m in range(1, D + 1):
        for k in (m * (D + 2), m * (D + 1)):
            acc[k] = (acc[k] - c[m]) % mod
    return _unpack(acc, D), dmax


# ---------------------------------------------------------------------------
# jet-side constructions
# ---------------------------------------------------------------------------

def log_jet(log: LogSeries, ring: JetRing) -> JetElement:
    """The logarithm as a jet element with global denominator p^dmax."""
    tower = ring.tower
    p = tower.p
    D = ring.cfg.D
    dmax = pu.floor_log(p, D)
    prec = min(log.prec, tower.K)
    c = scaled_log_coefficients(log, D, dmax, p ** prec)
    terms = {((0, m),): tower.from_int(c[m], prec)
             for m in range(1, D + 1) if c[m]}
    return JetElement(ring, terms, dmax)


def l_mu_series(log: LogSeries, mu, ring: JetRing):
    """(L, Ltilde): phi_mu applied to the logarithm, constant term dropped.

    L keeps the raw denominator; Ltilde = p^N * L (N the tower's pole bound)
    must come out integral, which is asserted coefficientwise; a failure
    signals an implementation bug, not bad input.
    """
    mu = tuple(mu)
    if len(mu) > ring.cfg.r:
        raise OrderOverflow(
            f"word {mu} longer than configured order {ring.cfg.r}")
    lj = log_jet(log, ring)
    L = phi_word(ring, mu, lj)
    L = JetElement(ring, {m: c for m, c in L.terms.items()
                          if all(v != 0 for v, _ in m)}, L.den)
    N = n_of_pi_from(ring.tower.p, ring.tower.e)
    if N >= 0:
        Lt = L.scale_int(ring.tower.p ** N)
    else:
        Lt = JetElement(ring, L.terms, L.den - N)
    Lt = _normalize_integral(Lt)
    return L, Lt


def _normalize_integral(F: JetElement) -> JetElement:
    p = F.ring.tower.p
    den = F.den
    terms = dict(F.terms)
    for _ in range(den):
        try:
            nxt = {m: c.divide_by_p() for m, c in terms.items()}
        except PrecisionExhausted:
            raise IntegralityViolation(
                "scaled character series has a non-integral coefficient")
        terms = nxt
        den -= 1
    return JetElement(F.ring, terms, den)


def psi_series(ft_mu: TowerElement, ft_nu: TowerElement,
               f_mu_nu: TowerElement, mu, nu, log: LogSeries,
               ring: JetRing):
    """Character series (ft_nu phi_mu - ft_mu phi_nu + f_{mu,nu}) l(T) / p.

    Returns (jet element, integrality report); integrality of every
    coefficient is the expected outcome for correctly matched inputs but is
    reported, never assumed.
    """
    mu, nu = tuple(mu), tuple(nu)
    if mu == nu:
        raise DistinctWordsRequired("need two distinct words")
    lj = log_jet(log, ring)
    A = phi_word(ring, mu, lj).scale(ft_nu)
    B = phi_word(ring, nu, lj).scale(ft_mu)
    C = lj.scale(f_mu_nu)
    psi = A - B + C
    psi = JetElement(ring, psi.terms, psi.den + 1)
    return psi, psi.integrality_report()
