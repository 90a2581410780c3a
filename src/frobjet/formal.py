"""Formal group laws and logarithms of elliptic curves and the unit group.

Curves are short Weierstrass, y^2 = x^3 + a4 x + a6, over Z_p with p >= 5
and unit discriminant.  All series work happens in the chart t = -x/y:
the auxiliary series w(t) (= -1/y) solves w = t^3 + a4 t w^2 + a6 w^3.
With a1 = a3 = 0, [-1](t) = -t, so w is odd: w(t) = t^3 W(t^2), where
W(s) = 1 + a4 s^2 W^2 + a6 s^3 W^3 is solved by Newton iteration at half
the length, on the lengths ceil(n / 2^j) of ``polyutils.newton_lengths``,
so that the last step lands on n exactly.  The invariant differential
dx/(2y) expands as (t w' - w)/(2w) dt, whose coefficient (W + s W')/W is
a series in s = t^2 with leading coefficient 1; it is read off W and the
W^2 and W^3 that W's certificate computes, with no further product (see
``formal_log``).  The logarithm l(T) = sum b_m/m T^m stores only the
integral numerators b_m, and is odd: b_m = 0 for every even m.

The group law F(T1, T2) comes from the chord construction: the slope
lambda = (w(t2) - w(t1))/(t2 - t1) is a polynomial identity (no division),
the third intersection of the chord with the cubic is read off from the
degree-3 coefficient ratio, and negation in this chart is t -> -t.

Every series here runs on the one Kronecker product kernel of
:mod:`frobjet.polyutils` (the logarithm needs degree p^2 * Nmax for the
congruence checks).  A curve's law and log are odd, so every bivariate
series the group law multiplies has one parity r of total degree, and is
packed on those degrees alone: T1^i T2^j in row (i + j - r)/2 of D + 1
entries (``_pack``), half the (D + 1)^2 that every degree would take.  A
product of which only the degrees <= d can reach the result is cut at the
last row of degree <= d (``_mul``), and ``ser_mul`` skips the leading
zeros of each operand, so a series costs nothing below its first row.

The jet-side constructions evaluate phi_mu on the logarithm inside a
truncated jet ring and read off character series; coefficients carry one
global p-power denominator so integrality claims stay checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polyutils as pu
from .errors import (BadReduction, CertificateFailure, DistinctWordsRequired,
                     FamilyMismatch, IntegralityViolation, NotOdd,
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

    def check_prime(self, p: int):
        """Raise FamilyMismatch unless this is a logarithm at the prime p."""
        if self.p != p:
            raise FamilyMismatch(f"log at p = {self.p}, not at p = {p}")


def _one_minus(x: list, y: list, c4: int, c6: int, n: int, mod: int) -> list:
    """1 - c4 s^2 x - c6 s^3 y mod (s^n, mod)."""
    out = [1] + [0] * (n - 1)
    for i, c in enumerate(x[:max(n - 2, 0)]):
        out[i + 2] = (out[i + 2] - c4 * c) % mod
    for i, c in enumerate(y[:max(n - 3, 0)]):
        out[i + 3] = (out[i + 3] - c6 * c) % mod
    return out


def _curve_w_half(curve: WeierstrassCurve, n: int, mod: int) -> tuple:
    """(W, W^2, W^3) to lengths n, n and max(n - 3, 0), for ``n`` >= 1,
    where W = 1 + a4 s^2 W^2 + a6 s^3 W^3.

    Newton on G(W) = W - 1 - a4 s^2 W^2 - a6 s^3 W^3, lifting W from length
    m to the next of ``pu.newton_lengths(n)``, at most 2m.  V = 1/G'(W) is
    carried along: one Newton update V += V (1 - G'V) per step brings it
    to length m, which is enough for the correction W -= V G(W) from m to
    m2 <= 2m because G(W) = O(s^m).  The certificate squares and cubes
    the returned W again, so it does not trust the products of the last
    step that it checks; those W^2 and W^3 are what ``formal_log`` reads
    beside W.
    """
    a4, a6 = curve.a4 % mod, curve.a6 % mod

    def residual(W, lo, hi):
        """(G(W) on the indices lo..hi-1, W^2 to length hi, W^3 to length
        hi - 3)."""
        W2 = pu.ser_mul(W, W, mod, hi)
        W3 = pu.ser_mul(W2, W, mod, max(hi - 3, 0))
        G = W[lo:hi] + [0] * (hi - max(len(W), lo))
        if lo == 0:
            G[0] -= 1
        for shift, c, X in ((2, a4, W2), (3, a6, W3)):
            start = max(lo, shift)
            for i, x in enumerate(X[start - shift:max(hi - shift, 0)],
                                  start - lo):
                G[i] -= c * x
        return [c % mod for c in G], W2, W3

    W, V, m = [1], [1], 1
    for m2 in pu.newton_lengths(n):
        G, W2, _ = residual(W, m, m2)
        h = len(V)  # E = G'V = 1 + O(s^h)
        E = pu.ser_mul(_one_minus(W, W2, 2 * a4, 3 * a6, m, mod), V, mod, m)
        V = V + pu.ser_mul(V, [(-c) % mod for c in E[h:]], mod, m - h)
        W = W + [(-c) % mod for c in pu.ser_mul(V, G, mod, m2 - m)]
        m = m2
    G, W2, W3 = residual(W, 0, n)
    if any(G):
        raise CertificateFailure(
            "Newton iteration for W(s) failed to converge")
    return W, W2, W3


def curve_w_series(curve: WeierstrassCurve, n: int, mod: int) -> list:
    """w(t) with w = t^3 + a4 t w^2 + a6 w^3: exactly ``n`` coefficients.

    w is odd, w(t) = t^3 W(t^2), so w_(2k+3) = W_k and every other
    coefficient is 0.
    """
    if n < 1:
        raise SeriesTooShort(f"w(t) needs length n >= 1, got {n}")
    w = [0] * n
    odd = range(3, n, 2)
    if odd:
        w[3::2] = _curve_w_half(curve, len(odd), mod)[0]
    return w


def formal_log(curve: WeierstrassCurve, D: int, prec: int) -> LogSeries:
    """Logarithm of the curve normalized so b_1 = 1 (omega = dx/2y).

    With s = t^2 and w = t^3 W(s), omega = (t w' - w)/(2w) dt is the even
    series (W + s W')/W, and b_(2k+1) = omega_k while every even b_m is 0.
    The inverse is read off the equation for W: 1/W = 1 - a4 s^2 W -
    a6 s^3 W^2 mod s^n, exact because the certificate of ``_curve_w_half``
    has proved G(W) = 0 mod s^n.  Expanding (W + s W')/W with
    W W' = (W^2)'/2 and W^2 W' = (W^3)'/3 leaves no product to take:

        omega_k = (k + 1) W_k - (k/2) a4 W^2_(k-2) - (k/3) a6 W^3_(k-3),

    with W^2 and W^3 the certificate's own, and 2 and 3 units as p >= 5.
    Needs every 1/m for m <= D to stay within the precision budget, so
    floor(log_p D) must be below ``prec``.
    """
    if D < 1:
        raise SeriesTooShort(f"logarithm needs degree D >= 1, got {D}")
    p = curve.p
    dmax = pu.floor_log(p, D)
    if prec <= dmax:
        raise PrecisionExhausted(
            f"denominators up to p^{dmax} do not fit in prec {prec}")
    mod = p ** prec
    n = (D + 1) // 2  # one omega_k per odd m <= D
    W, W2, W3 = _curve_w_half(curve, n, mod)
    inv6 = pu.modinv(6, mod)
    h4, h6 = 3 * curve.a4 * inv6 % mod, 2 * curve.a6 * inv6 % mod  # a4/2, a6/3
    b = [0] * (D + 1)
    b[1::2] = [((k + 1) * w - k * (h4 * x2 + h6 * x3)) % mod
               for k, (w, x2, x3) in enumerate(zip(W, [0, 0] + W2,
                                                   [0, 0, 0] + W3))]
    if b[1] != 1:
        raise CertificateFailure("logarithm does not start with T")
    return LogSeries(p, prec, b)


# ---------------------------------------------------------------------------
# bivariate group law
# ---------------------------------------------------------------------------

class FormalGroupLaw:
    """Truncated group law F(T1, T2), coefficients mod p^prec, degree <= D."""

    def __init__(self, p: int, prec: int, D: int, coeffs: dict):
        self.p, self.prec, self.D = p, prec, D
        mod = p ** prec
        self.coeffs = {k: v % mod for k, v in coeffs.items() if v % mod}

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


def _pack(a: dict, D: int, r: int) -> list:
    """Kronecker image of a bivariate series of total degree <= D whose
    terms all have a total degree of parity r.

    T1^i T2^j goes to index ((i + j - r)/2)(D + 1) + i, which is T1 ->
    X^(D+2), T2 -> X^(D+1) with the rows of the other parity left out:
    ((D - r)//2 + 1)(D + 1) entries, past which every higher degree lands.
    """
    out = [0] * (((D - r) // 2 + 1) * (D + 1))
    for (i, j), c in a.items():
        out[(i + j - r) // 2 * (D + 1) + i] = c
    return out


def _unpack(a: list, D: int, r: int) -> dict:
    return {(i, s - i): x for s in range(r, D + 1, 2) for i in range(s + 1)
            if (x := a[(s - r) // 2 * (D + 1) + i])}


def _mul(a: list, ra: int, b: list, rb: int, D: int, mod: int, d: int):
    """``_pack`` of the product of packs of parities ra, rb to degree d.
    Two odd terms' indices add up to one row below their product's, so an
    odd-by-odd product is cut a row early and shifted up a row."""
    n = ((d - (ra ^ rb)) // 2 + 1) * (D + 1)
    if ra and rb:
        return [0] * (D + 1) + pu.ser_mul(a, b, mod, n - D - 1)
    return pu.ser_mul(a, b, mod, n)


def formal_group_law(curve: WeierstrassCurve, D: int,
                     prec: int) -> FormalGroupLaw:
    """Group law of the curve via the chord construction; lambda, its
    powers and A are even, nu, B and F odd, as w is (see ``_pack``)."""
    if D < 1:
        raise SeriesTooShort(f"group law needs degree D >= 1, got {D}")
    p = curve.p
    mod = p ** prec
    w = curve_w_series(curve, D + 2, mod)
    # lambda = sum_k w_k * (t1^(k-1) + t1^(k-2) t2 + ... + t2^(k-1)), k odd
    lam = _pack({(a_, k - 1 - a_): w[k] for k in range(1, D + 2, 2)
                 for a_ in range(k)}, D, 0)
    # nu = w(t1) - lambda * t1; multiplying by t1 shifts by 1
    w1 = _pack({(i, 0): w[i] for i in range(1, D + 1, 2)}, D, 1)
    nu = [(x - y) % mod for x, y in zip(w1, [0] + lam)]
    lam2 = _mul(lam, 0, lam, 0, D, mod, D)
    lam3 = _mul(lam2, 0, lam, 0, D, mod, D)
    A = [(curve.a4 * x + curve.a6 * y) % mod for x, y in zip(lam2, lam3)]
    A[0] = (A[0] + 1) % mod
    B = _mul([(2 * curve.a4 * x + 3 * curve.a6 * y) % mod
              for x, y in zip(lam, lam2)], 0, nu, 1, D, mod, D)
    # B has v leading zeros, so F = B/A reads 1/A only below len(B) - v
    v = next((i for i, x in enumerate(B) if x), len(B) - 1)
    F = _mul(B, 1, pu.ser_inv(A, mod, len(B) - v), 0, D, mod, D)
    F[0], F[1] = (F[0] + 1) % mod, (F[1] + 1) % mod  # F = t2 + t1 + B/A
    return FormalGroupLaw(p, prec, D, _unpack(F, D, 1))


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
    divisible by p^dmax mod p^min(log.prec, law.prec).  A law and a log of
    different primes raise ``FamilyMismatch``; a law with a term of even
    total degree, or a log with an even b_m != 0, raises ``NotOdd``: a
    curve's law and log are odd, and the packs rely on it.

    l(F) = F sum_k c_(2k+1) G^k runs by Horner in G = F^2 from the top
    k = (D - 1) // 2 down: the product at step k is multiplied by G another
    k - 1 times, and G = O(deg 2) since F = T1 + T2 + ..., so only its
    degrees <= D - 2k + 2 can land at degree <= D, and it is cut at that
    odd row: from 2(D + 1) entries at the top step to all of F's at k = 1.
    """
    if D < 1:
        raise SeriesTooShort(f"log composition needs degree D >= 1, got {D}")
    log.check_prime(law.p)
    p = log.p
    mod = p ** min(log.prec, law.prec)
    dmax = pu.floor_log(p, D)
    c = scaled_log_coefficients(log, D, dmax, mod)
    if any((i + j) % 2 == 0 for i, j in law.coeffs) or any(log.b[2::2]):
        raise NotOdd("log composition needs an odd law and an odd log")
    F = _pack({k: v % mod for k, v in law.coeffs.items() if sum(k) <= D},
              D, 1)
    G = _mul(F, 1, F, 1, D, mod, D)
    acc = [0] * (D + 1)
    for k in range((D - 1) // 2, -1, -1):
        acc = [(a + c[2 * k + 1] * x) % mod for a, x in zip(acc, F)]
        if k:
            acc = _mul(acc, 1, G, 0, D, mod, D - 2 * k + 2)
    for m in range(1, D + 1, 2):  # T1^m and T2^m, in row (m - 1)/2
        for k in ((m - 1) // 2 * (D + 1) + m, (m - 1) // 2 * (D + 1)):
            acc[k] = (acc[k] - c[m]) % mod
    return _unpack(acc, D, 1), dmax


# ---------------------------------------------------------------------------
# jet-side constructions
# ---------------------------------------------------------------------------

def log_jet(log: LogSeries, ring: JetRing) -> JetElement:
    """The logarithm as a jet element with global denominator p^dmax."""
    tower = ring.tower
    log.check_prime(tower.p)
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
    Lt = (L.scale(ring.tower.p ** N) if N >= 0
          else JetElement(ring, L.terms, L.den - N))
    return L, _normalize_integral(Lt)


def _normalize_integral(F: JetElement) -> JetElement:
    terms = dict(F.terms)
    for _ in range(F.den):
        try:
            terms = {m: c.divide_by_p() for m, c in terms.items()}
        except PrecisionExhausted:
            raise IntegralityViolation(
                "scaled character series has a non-integral coefficient")
    return JetElement(F.ring, terms, min(F.den, 0))


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
