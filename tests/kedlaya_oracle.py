"""Differential oracles for ``frobjet.crystal.kedlaya_frobenius``.

``kedlaya_frobenius`` is the reduction as it ran before it moved to Z/p^M:
every polynomial is a list of ``fractions.Fraction``, so no precision is ever
lost and the result is the exact rational matrix of the truncated series,
reduced mod p^K at the end.  It is slow (seconds at p = 11, K = 6).

``kedlaya_frobenius_zp`` is the Z/p^M reduction as it ran before the single
f-adic expansion: with the same M and E, it divides the whole numerator by f
again at every pole level, O(m_top^2) coefficient steps.  It is fast enough
to compare whole matrices over many seeded cases.
"""

from __future__ import annotations

import math
from fractions import Fraction

from frobjet import polyutils as pu
from frobjet.crystal import DeRhamData, count_points_ap
from frobjet.errors import (CertificateFailure, PrecisionBudgetExceeded,
                            PrecisionTooLow, SupersingularInput)
from frobjet.formal import WeierstrassCurve


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


# ---------------------------------------------------------------------------
# the same reduction over Z/p^M, dividing the whole numerator at every level
# ---------------------------------------------------------------------------

def kedlaya_frobenius_zp(curve: WeierstrassCurve, K: int,
                      series_pad: int | None = None) -> DeRhamData:
    """Frobenius matrix on H^1_dR to absolute precision K.

    ``series_pad`` extends the binomial-series depth beyond the default
    K + log_p-sized padding; the certification step (det = p, trace = a_p)
    raises PrecisionBudgetExceeded when the default is ever insufficient.
    """
    if K < 1:
        raise PrecisionTooLow(f"precision K = {K} must be >= 1")
    p = curve.p
    ap = count_points_ap(curve)
    if ap % p == 0:
        raise SupersingularInput(
            f"{curve.label or (curve.a4, curve.a6)} is supersingular at {p}")
    # 2 + ceil(log_p(6p(K + 6))); 6p(K + 6) is even, so never a power of p
    pad = series_pad if series_pad is not None else (
        3 + pu.floor_log(p, 6 * p * (K + 6)))
    k_max = K + pad
    half = (p - 1) // 2
    m_top = p * k_max + half
    # Level m = pk + (p-1)/2 receives x^(pi + p - 1) N^k with deg N <= 3p,
    # of degree at most 3m + pi - (p-1)/2 <= 3m + (p+1)/2; each reduction
    # step lowers the degree by 3 (down to 1), so level zero has degree
    # at most top.
    top = (p + 1) // 2
    loss = (sum(pu.vp(2 * m - 1, p) for m in range(1, m_top + 1))
            + sum(pu.vp(2 * s + 3, p) for s in range(top - 1)))
    P = p ** (K + loss)

    a4, a6 = curve.a4, curve.a6
    f = [c % P for c in curve.fpoly()]
    fprime = [a4 % P, 0, 3]
    # u f + v f' = 1 over Z_p: D = 4 a4^3 + 27 a6^2 is a unit at good
    # reduction (count_points_ap has checked it)
    dinv = pu.modinv(4 * a4 ** 3 + 27 * a6 ** 2, P)
    u = [27 * a6 * dinv % P, -18 * a4 * dinv % P]
    v = [4 * a4 * a4 * dinv % P, -9 * a6 * dinv % P, 6 * a4 * dinv % P]
    # N(x) = f(x^p) - f(x)^p, every coefficient divisible by p; kept at its
    # structural length 3p + 1 so that the degree bound above holds
    N = [0] * (3 * p + 1)
    for i, c in enumerate(f):
        N[i * p] = c
    fpow = [1]
    for _ in range(p):
        fpow = pu.ser_mul(fpow, f, P, len(fpow) + 3)
    N = [(c - d) % P for c, d in zip(N, fpow)]
    if any(c % p for c in N):
        raise CertificateFailure("f(x^p) - f(x)^p is not divisible by p")
    # p c_k N^k with c_k = (-1)^k C(2k, k) / 4^k, shared by both columns
    inv4 = pu.modinv(4, P)
    terms = []
    Nk = [1]
    for k in range(k_max + 1):
        ck = (-1) ** k * math.comb(2 * k, k) * pow(inv4, k, P)
        terms.append([p * ck * c % P for c in Nk])
        if k < k_max:
            Nk = pu.ser_mul(Nk, N, P, len(Nk) + 3 * p)

    cols = []
    for i in (0, 1):
        shift = [0] * (p * i + p - 1)
        # S = p^E R mod P, R the exact numerator at the current pole level
        S, E = [], 0
        for m in range(m_top, 0, -1):
            k, rest = divmod(m - half, p)
            if not rest:
                pe = p ** E
                S = pu.padd(S, shift + [pe * c for c in terms[k]], P)
            # S = q f + r and r v = bq f + b give S = a f + b f' with
            # a = q + r u + bq f'; 2m - 1 = p^e w, so the next level's
            # numerator a + (2/(2m-1)) b' is held as p^e a + (2/w) b'
            q, r = pu.pdivmod_monic(S, f, P)
            bq, b = pu.pdivmod_monic(pu.ser_mul(r, v, P, 5), f, P)
            a = pu.padd(q, pu.padd(pu.ser_mul(r, u, P, 4),
                                   pu.ser_mul(bq, fprime, P, 4), P), P)
            e = pu.vp(2 * m - 1, p)
            scale = p ** e
            two_w = 2 * pu.modinv((2 * m - 1) // scale, P)
            S = pu.padd([c * scale for c in a],
                        [c * j * two_w for j, c in enumerate(b)][1:], P)
            E += e
        # level zero: 2 d(x^s y) = (2s x^(s-1) f + x^s f') dx/y has
        # (2s + 3) x^(s+2) + (2s + 1) a4 x^s + 2s a6 x^(s-1) as numerator;
        # it kills degree s + 2, for every degree the bound allows
        if len(S) > top + 1:
            raise CertificateFailure("level-zero numerator exceeds its bound")
        S = S + [0] * (top + 1 - len(S))
        for s in range(top - 2, -1, -1):
            e = pu.vp(2 * s + 3, p)
            scale = p ** e
            c = S[s + 2] * pu.modinv((2 * s + 3) // scale, P)
            S = [x * scale % P for x in S]
            S[s + 2] = 0
            S[s] = (S[s] - c * (2 * s + 1) * a4) % P
            if s:
                S[s - 1] = (S[s - 1] - c * 2 * s * a6) % P
            E += e
        cols.append((S, E))

    pk = p ** K
    matrix = [[0, 0], [0, 0]]
    for j, (S, E) in enumerate(cols):
        pe = p ** E
        for i in (0, 1):
            val = S[i]
            if val % pe:
                raise PrecisionBudgetExceeded(
                    "reduction left a p-denominator: increase series_pad")
            matrix[i][j] = (val // pe) % pk
    return DeRhamData(p=p, prec=K, matrix=matrix, ap=ap)
