"""Frobenius on the first de Rham cohomology of an ordinary curve over Z_p.

The matrix is computed by Monsky-Washnitzer reduction on the odd part of the
cohomology of y^2 = f(x), f = x^3 + a4 x + a6, with basis omega = dx/y and
eta = x dx/y (Kedlaya, arXiv:math/0105031).  The Frobenius lift sends x to
x^p and y to y^p (1 + E)^(1/2) with E = (f(x^p) - f(x)^p) / f(x)^p, so

    phi(x^i dx/y) = p x^(pi + p - 1) y^(-p) (1+E)^(-1/2) dx,

a sum of forms A(x) dx / y^(2m+1) after expanding the binomial series.  Each
pole level reduces through the relations

    A = a f + b f'            (Bezout, disc(f) a unit)
    b f' dx/y^(2m+1) ~ (2/(2m-1)) b' dx/y^(2m-1)

and at level zero the exact forms d(x^s y) kill all numerator degrees >= 2.

A quotient by f goes down a level unchanged, so a term entering at level m
may enter at the top level m_top times f^(m_top - m).  Both columns share
the combined numerator H = sum_k p c_k N^k (f^p)^(k_max - k), N = f(x^p) -
f^p; column i is x^(pi + p - 1) H, expanded in f once as sum_j d_j f^j +
Q f^m_top.  The level loop carries a numerator of degree <= 1, adding
d_(m_top - m) at level m and Q at level zero: O(1) work per level.

Every polynomial is a list of integers mod p^M.  The only denominators that
p divides are the 2m - 1 and the level-zero leading factors 2s + 3; the
numerator is held as p^E times the exact one, E counting the p-powers
divided out so far, and M = K + L where L bounds E in advance: the sum of
v_p(2m - 1) over every pole level and of v_p(2s + 3) over every level-zero
step the degree bound allows (cf. Harvey, arXiv:math/0610973).  The result
equals the exact rational reduction of the truncated series mod p^K.

The binomial series stops at a depth read off Kedlaya's precision lemmas
(arXiv:math/0105031, section 4): term k is divisible by p^(k+1), and its
class has denominator at most p^(1 + floor(log_p(2k + 1))), the larger of
the pole-level loss and the level-zero loss, not their sum (see
kedlaya_frobenius).  So k_max + 1 is the least k >= 0 with
k - floor(log_p(2k + 1)) >= K, and every dropped term is 0 mod p^K; at
(p, K) = (5, 4), (5, 6), (7, 4), (7, 6), (11, 4) and (11, 6) that gives
k_max = 4, 6, 4, 6, 3 and 6.  The matrix is certified against det = p,
trace = a_p (from an exhaustive point count) and F(omega) = 0 mod p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import polyutils as pu
from .errors import (BadReduction, CertificateFailure,
                     PrecisionBudgetExceeded, PrecisionTooLow,
                     SupersingularInput)
from .formal import WeierstrassCurve


def count_points_ap(curve: WeierstrassCurve) -> int:
    """Trace of Frobenius a_p = p + 1 - #E(F_p), by exhaustive count."""
    p = curve.p
    if (4 * curve.a4 ** 3 + 27 * curve.a6 ** 2) % p == 0:
        raise BadReduction("curve has bad reduction at p")
    ap = 0
    for x in range(p):
        v = (x * x * x + curve.a4 * x + curve.a6) % p
        if v == 0:
            continue
        chi = 1 if pow(v, (p - 1) // 2, p) == 1 else -1
        ap -= chi
    if ap * ap > 4 * p:
        raise CertificateFailure("Hasse bound violated -- counting bug")
    return ap


@dataclass
class DeRhamData:
    """2x2 Frobenius matrix mod p^prec in the basis (dx/y, x dx/y),
    with the symplectic pairing normalized to <omega, eta> = 1."""

    p: int
    prec: int
    matrix: list  # [[a, b], [c, d]] acting on column vectors
    ap: int

    def __post_init__(self):
        pk = self.p ** self.prec
        a, b = self.matrix[0]
        c, d = self.matrix[1]
        if (a * d - b * c - self.p) % pk:
            raise PrecisionBudgetExceeded("det(F) != p at working precision")
        if (a + d - self.ap) % pk:
            raise PrecisionBudgetExceeded("trace(F) != a_p at working precision")
        if self.ap % self.p == 0:
            raise SupersingularInput("a_p = 0 mod p: not ordinary")
        if a % self.p or c % self.p:  # F(Fil^1) lies in p H^1 (Mazur)
            raise CertificateFailure("F(omega) is not divisible by p")

    def unit_root(self) -> int:
        """Unit eigenvalue of X^2 - a_p X + p, congruent to a_p mod p."""
        pk = self.p ** self.prec
        u = self.ap % pk
        for _ in range(self.prec + 2):
            u = (self.ap - self.p * pu.modinv(u, pk)) % pk
        if (u * u - self.ap * u + self.p) % pk:
            raise CertificateFailure("unit root fails X^2 - a_p X + p = 0")
        return u

    def frobenius_power_on_omega(self, s: int):
        """Coordinates of F^s applied to omega, mod p^prec."""
        pk = self.p ** self.prec
        vec = [1, 0]
        for _ in range(s):
            a, b = self.matrix[0]
            c, d = self.matrix[1]
            vec = [(a * vec[0] + b * vec[1]) % pk,
                   (c * vec[0] + d * vec[1]) % pk]
        return vec


# ---------------------------------------------------------------------------
# Monsky-Washnitzer reduction over Z/p^M
# ---------------------------------------------------------------------------

def kedlaya_frobenius(curve: WeierstrassCurve, K: int,
                      series_pad: int | None = None) -> DeRhamData:
    """Frobenius matrix on H^1_dR to absolute precision K.

    The binomial series keeps the terms k <= k_max.  Term k is
    p c_k x^(pi + p - 1) N^k dx / y^(p(2k + 1)) with N = 0 mod p, so it is
    p^(k+1) times an integral form of pole order 2m + 1 = p(2k + 1).
    Kedlaya's precision lemmas (Counting points on hyperelliptic curves
    using Monsky-Washnitzer cohomology, 2001, section 4; the same bookkeeping
    in Harvey, Kedlaya's algorithm in larger characteristic, 2007) bound
    what its reduction loses: at most floor(log_p(p(2k + 1))) =
    1 + floor(log_p(2k + 1)) digits on the pole levels, and at most
    floor(log_p(2d - 1)) <= 1 at level zero, where the degree d is at most
    (p + 1)/2.  The two losses never meet on one piece of the numerator:
      - the carry S that the pole levels divide has degree <= 1, and level
        zero never divides it;
      - Q, the quotient by f^m_top, is integral, and only level zero
        reduces it;
      - the last pole step d(b/y) adds a pole at infinity only of eta's
        order, which level zero never reduces.
    So each term's class has denominator p^max(1 + floor(log_p(2k + 1)), 1)
    and term k adds a multiple of p^(k - floor(log_p(2k + 1))) to the
    matrix.  That exponent never decreases as k grows (p >= 5), and
    k_max + 1 is the least k >= 0 at which it reaches K: every dropped term
    is 0 mod p^K, and k_max may be below K (3 at p = 11, K = 4).
    ``series_pad`` replaces this depth by k_max = K + series_pad.  The
    certification step (det = p, trace = a_p) raises
    PrecisionBudgetExceeded when a depth is too shallow to pass it.
    """
    if K < 1:
        raise PrecisionTooLow(f"precision K = {K} must be >= 1")
    p = curve.p
    ap = count_points_ap(curve)
    if ap % p == 0:
        raise SupersingularInput(
            f"{curve.label or (curve.a4, curve.a6)} is supersingular at {p}")
    if series_pad is None:
        k_max = 0
        while k_max + 1 - pu.floor_log(p, 2 * k_max + 3) < K:
            k_max += 1
    else:
        k_max = K + series_pad
    m_top = p * k_max + (p - 1) // 2
    # Level m = pk + (p-1)/2 receives x^(pi + p - 1) N^k, deg N <= 3p, of
    # degree at most 3m + pi - (p-1)/2 <= 3m + (p+1)/2; each reduction step
    # lowers the degree by 3 (down to 1), so level zero has degree <= top.
    top = (p + 1) // 2
    loss = (sum(pu.vp(2 * m - 1, p) for m in range(1, m_top + 1))
            + sum(pu.vp(2 * s + 3, p) for s in range(top - 1)))
    P = p ** (K + loss)

    a4, a6 = curve.a4, curve.a6
    f = [c % P for c in curve.fpoly()]
    # u f + v f' = 1 over Z_p: D = 4 a4^3 + 27 a6^2 is a unit at good
    # reduction (count_points_ap has checked it)
    dinv = pu.modinv(4 * a4 ** 3 + 27 * a6 ** 2, P)
    u = [27 * a6 * dinv % P, -18 * a4 * dinv % P]
    v = [4 * a4 * a4 * dinv % P, -9 * a6 * dinv % P, 6 * a4 * dinv % P]
    fpow = [1]
    for _ in range(p):
        fpow = pu.ser_mul(fpow, f, P, len(fpow) + 3)
    # N(x) = f(x^p) - f(x)^p, every coefficient divisible by p; x^(3p)
    # cancels, so N is trimmed shorter than f^p
    N = pu.trim([((0 if i % p else f[i // p]) - c) % P
                 for i, c in enumerate(fpow)])
    if any(c % p for c in N):
        raise CertificateFailure("f(x^p) - f(x)^p is not divisible by p")
    # H = sum_k p c_k N^k (f^p)^(k_max - k), c_k = (-1)^k C(2k, k) / 4^k,
    # so p c_k N^k = C(2k, k) p n^k with n = -N/4.  f^p and n are packed
    # once for every Horner step, each with its own length as the term
    # bound.  No partner is packed twice: p n is not n, and the first
    # partner [p] of both products meets two different bounds
    inv4 = pu.modinv(4, P)
    n = [-c * inv4 % P for c in N]
    fpow_packed = pu.Packed(fpow, P, len(fpow))
    n_packed = pu.Packed(n, P, len(n))
    H, pnk = [], [p]
    for k in range(k_max + 1):
        H = pu.padd(pu.fixed_mul(H, fpow_packed, len(H) + 3 * p),
                    [math.comb(2 * k, k) * c % P for c in pnk], P)
        if k < k_max:
            pnk = pu.fixed_mul(pnk, n_packed, len(pnk) + 3 * p)
    expansions = pu.fadic_expand([[0] * (p * i + p - 1) + H for i in (0, 1)],
                                 f, m_top, P)
    # r of degree <= 2 is a f + b f' with r v = bq f + b, a = r u + bq f' of
    # degree <= 1 (u f + v f' = 1); steps[j] holds (a, b') for r = x^j
    steps = []
    for r in ([1], [0, 1], [0, 0, 1]):
        [((b,), bq)] = pu.fadic_expand([pu.ser_mul(r, v, P, 5)], f, 1, P)
        a = pu.padd(pu.ser_mul(r, u, P, 4),
                    pu.ser_mul(bq, [a4 % P, 0, 3], P, 4), P)
        if len(a) > 2:
            raise CertificateFailure("u f + v f' is not 1")
        steps.append((a + [0] * (2 - len(a)), [b[1], 2 * b[2] % P]))
    # carry = p^E R mod P, R the exact numerator at this level less the
    # digits to come; 2m - 1 = p^e w, so a + (2/(2m-1)) b' is p^e a + (2/w) b'
    carries, E = [[0, 0], [0, 0]], 0
    for m in range(m_top, 0, -1):
        e = pu.vp(2 * m - 1, p)
        scale, pe = p ** e, p ** E
        two_w = 2 * pu.modinv((2 * m - 1) // scale, P)
        rows = [[(scale * a[i] + two_w * b[i]) % P for a, b in steps]
                for i in (0, 1)]
        for S, (digits, _) in zip(carries, expansions):
            r = [c + pe * d for c, d in zip(S + [0], digits[m_top - m])]
            S[:] = [sum(x * y for x, y in zip(row, r)) % P for row in rows]
        E += e
    # level zero: 2 d(x^s y) = (2s x^(s-1) f + x^s f') dx/y has
    # (2s + 3) x^(s+2) + (2s + 1) a4 x^s + 2s a6 x^(s-1) as numerator;
    # it kills degree s + 2, for every degree the bound allows
    cols = [pu.padd(S, [p ** E * c for c in Q], P)
            for S, (_, Q) in zip(carries, expansions)]
    if max(map(len, cols)) > top + 1:
        raise CertificateFailure("level-zero numerator exceeds its bound")
    cols = [S + [0] * (top + 1 - len(S)) for S in cols]
    for s in range(top - 2, -1, -1):
        e = pu.vp(2 * s + 3, p)
        scale = p ** e
        inv = pu.modinv((2 * s + 3) // scale, P)
        for S in cols:
            c = S[s + 2] * inv
            S[:] = [x * scale % P for x in S]
            S[s + 2] = 0
            S[s] = (S[s] - c * (2 * s + 1) * a4) % P
            if s:
                S[s - 1] = (S[s - 1] - c * 2 * s * a6) % P
        E += e

    pk = p ** K
    matrix = [[0, 0], [0, 0]]
    pe = p ** E
    for j, S in enumerate(cols):
        for i in (0, 1):
            val = S[i]
            if val % pe:
                raise PrecisionBudgetExceeded(
                    "reduction left a p-denominator: increase series_pad")
            matrix[i][j] = (val // pe) % pk
    return DeRhamData(p=p, prec=K, matrix=matrix, ap=ap)


class CrystallineClasses:
    """Tabulated values (1/p) <F^r omega, F^s omega> for the repeated-letter
    words of a base-Z_p setting, where every direction acts identically."""

    def __init__(self, drd: DeRhamData, r: int):
        self.drd = drd
        self.r = r
        self.p = drd.p
        self.prec = drd.prec - 1
        pk = drd.p ** drd.prec
        self._omega_img = {s: drd.frobenius_power_on_omega(s)
                           for s in range(r + 1)}
        self._pk = pk

    def _class(self, words, what: str) -> int:
        """(1/p) <F^s1 omega, F^s2 omega> mod p^(prec) for the lengths s1, s2
        of ``words`` (s2 = 0 for one word); ``what`` names the pairing."""
        s = [len(tuple(w)) for w in words]
        if not all(1 <= x <= self.r for x in s):
            raise ValueError("word length outside table range")
        (a1, b1), (a2, b2) = (self._omega_img[x] for x in (s + [0])[:2])
        val = (a1 * b2 - b1 * a2) % self._pk
        if val % self.p:
            raise CertificateFailure(f"{what} not divisible by p")
        return (val // self.p) % (self._pk // self.p)

    def f(self, mu) -> int:
        """Primary class for the word ``mu`` (only its length matters here),
        as an integer mod p^(prec)."""
        return self._class([mu], "phi(omega)")

    def f_pair(self, mu, nu) -> int:
        """Secondary class for the word pair, antisymmetric by construction."""
        return self._class([mu, nu], "class pairing")


def crystalline_classes(drd: DeRhamData, r: int) -> CrystallineClasses:
    return CrystallineClasses(drd, r)
