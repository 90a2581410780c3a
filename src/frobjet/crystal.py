"""Frobenius on the first de Rham cohomology of an ordinary curve over Z_p.

The matrix is computed by Monsky-Washnitzer reduction on the odd part of the
cohomology of y^2 = f(x), f = x^3 + a4 x + a6, with basis omega = dx/y and
eta = x dx/y.  The Frobenius lift sends x to x^p and y to
y^p (1 + E)^(1/2) with E = (f(x^p) - f(x)^p) / f(x)^p, so

    phi(x^i dx/y) = p x^(pi + p - 1) y^(-p) (1+E)^(-1/2) dx,

a sum of forms A(x) dx / y^(2m+1) after expanding the binomial series.  Each
pole level reduces through the exact relations

    A = a f + b f'            (Bezout, disc(f) a unit)
    b f' dx/y^(2m+1) ~ (2/(2m-1)) b' dx/y^(2m-1)

and at level zero exact forms d(x^s y) kill all numerator degrees >= 2.  The
whole reduction runs in exact rational arithmetic (denominators stay away
from p up to the certified precision); the binomial series is truncated at a
depth that leaves the requested precision intact, and the result is
certified against det = p and trace = a_p (from an exhaustive point count)
before being reduced mod p^K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import polyutils as pu
from .errors import (BadReduction, CertificateFailure,
                     PrecisionBudgetExceeded, SupersingularInput)
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

    def to_json_obj(self):
        return {"p": self.p, "prec": self.prec, "matrix": self.matrix,
                "ap": self.ap}


# ---------------------------------------------------------------------------
# exact-rational polynomial helpers (dense Fraction lists)
# ---------------------------------------------------------------------------

def _ftrim(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _fadd(a, b):
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return _ftrim(out)


def _fmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
    return _ftrim(out)


def _fscale(a, c):
    return _ftrim([x * c for x in a])


def _fdivmod(a, b):
    """Exact division with remainder by ``b`` (leading coeff invertible in Q)."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db] / lead
        if c:
            q[i] = c
            for j, d in enumerate(b):
                a[i + j] -= c * d
    return _ftrim(q), _ftrim(a)


def _fderiv(a):
    return _ftrim([i * c for i, c in enumerate(a)][1:])


def kedlaya_frobenius(curve: WeierstrassCurve, K: int,
                      series_pad: int | None = None) -> DeRhamData:
    """Frobenius matrix on H^1_dR to absolute precision K.

    ``series_pad`` extends the binomial-series depth beyond the default
    K + log_p-sized padding; the certification step (det = p, trace = a_p)
    raises PrecisionBudgetExceeded when the default is ever insufficient.
    """
    p = curve.p
    ap = count_points_ap(curve)
    if ap % p == 0:
        raise SupersingularInput(
            f"{curve.label or (curve.a4, curve.a6)} is supersingular at {p}")
    # 2 + ceil(log_p(6p(K + 6))); 6p(K + 6) is even, so never a power of p
    pad = series_pad if series_pad is not None else (
        3 + pu.floor_log(p, 6 * p * (K + 6)))
    k_max = K + pad
    f = [Fraction(c) for c in curve.fpoly()]
    fprime = _fderiv(f)
    u_bez, v_bez = _bezout_exact(f, fprime)
    # N(x) = f(x^p) - f(x)^p, every coefficient divisible by p
    fxp = [Fraction(0)] * (3 * p + 1)
    for i, c in enumerate(curve.fpoly()):
        fxp[i * p] = Fraction(c)
    fp = [Fraction(1)]
    for _ in range(p):
        fp = _fmul(fp, f)
    N = _fadd(fxp, _fscale(fp, -1))
    if any(c.denominator != 1 or c.numerator % p for c in N):
        raise CertificateFailure("f(x^p) - f(x)^p is not divisible by p")

    cols = []
    for i in (0, 1):
        levels = {}
        Nk = [Fraction(1)]
        for k in range(k_max + 1):
            ck = Fraction((-1) ** k * math.comb(2 * k, k), 4 ** k)
            m = p * k + (p - 1) // 2
            xpow = [Fraction(0)] * (p * i + p - 1) + [Fraction(1)]
            contrib = _fscale(_fmul(xpow, Nk), Fraction(p) * ck)
            if m in levels:
                levels[m] = _fadd(levels[m], contrib)
            else:
                levels[m] = contrib
            if k < k_max:
                Nk = _fmul(Nk, N)
        # reduce pole order down to zero
        m_top = max(levels)
        R = []
        for m in range(m_top, 0, -1):
            R = _fadd(R, levels.get(m, []))
            if not R:
                continue
            bq, b = _fdivmod(_fmul(R, v_bez), f)
            a = _fadd(_fmul(R, u_bez), _fmul(bq, fprime))
            R = _fadd(a, _fscale(_fderiv(b), Fraction(2, 2 * m - 1)))
        R = _fadd(R, levels.get(0, []))
        # level zero: d(x^s y) = (s x^(s-1) f + x^s f'/2) dx/y kills the
        # top coefficient, whose degree is s + 2 with leading factor s + 3/2
        while len(R) > 2:
            s = len(R) - 3
            rel = _fscale(_xshift(fprime, s), Fraction(1, 2))
            if s > 0:
                rel = _fadd(rel, _fscale(_xshift(f, s - 1), Fraction(s)))
            R = _fadd(R, _fscale(rel, -R[-1] / rel[-1]))
        R = R + [Fraction(0)] * (2 - len(R))
        cols.append(R)

    pk = p ** K
    matrix = [[0, 0], [0, 0]]
    for j, col in enumerate(cols):
        for i in (0, 1):
            val = col[i]
            if val.denominator % p == 0:
                raise PrecisionBudgetExceeded(
                    "reduction left a p-denominator: increase series_pad")
            matrix[i][j] = (val.numerator * pu.modinv(val.denominator, pk)) % pk
    return DeRhamData(p=p, prec=K, matrix=matrix, ap=ap)


def _xshift(a, s):
    return [Fraction(0)] * s + list(a)


def _bezout_exact(f, g):
    """(u, v) with u f + v g = 1 over Q, exact extended Euclid."""
    r0, r1 = list(f), list(g)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = _fdivmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _fadd(u0, _fscale(_fmul(q, u1), -1))
        v0, v1 = v1, _fadd(v0, _fscale(_fmul(q, v1), -1))
    if len(r0) != 1:
        raise CertificateFailure("f and f' are not coprime")
    c = r0[0]
    return _fscale(u0, 1 / c), _fscale(v0, 1 / c)


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

    def _pair(self, s1: int, s2: int) -> int:
        a1, b1 = self._omega_img[s1]
        a2, b2 = self._omega_img[s2]
        return (a1 * b2 - b1 * a2) % self._pk

    def f(self, mu) -> int:
        """Primary class for the word ``mu`` (only its length matters here),
        as an integer mod p^(prec)."""
        s = len(tuple(mu))
        if not 1 <= s <= self.r:
            raise ValueError("word length outside table range")
        val = self._pair(s, 0)
        if val % self.p:
            raise CertificateFailure("phi(omega) not divisible by p")
        return (val // self.p) % (self._pk // self.p)

    def f_pair(self, mu, nu) -> int:
        """Secondary class for the word pair, antisymmetric by construction."""
        s1, s2 = len(tuple(mu)), len(tuple(nu))
        if not (1 <= s1 <= self.r and 1 <= s2 <= self.r):
            raise ValueError("word length outside table range")
        val = self._pair(s1, s2)
        if val % self.p:
            raise CertificateFailure("class pairing not divisible by p")
        return (val // self.p) % (self._pk // self.p)


def crystalline_classes(drd: DeRhamData, r: int) -> CrystallineClasses:
    return CrystallineClasses(drd, r)
