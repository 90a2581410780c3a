"""Differential oracles for ``frobjet.formal``.

``curve_w_series`` and ``formal_log`` are the logarithm as it ran before it
moved onto the odd half w(t) = t^3 W(t^2): Newton on the full t-series,
with a fresh inverse of the derivative at every step.  The tests compare
``LogSeries.b`` against it list by list.

The bivariate arithmetic is the group law as it ran before it moved onto
the Kronecker-packed univariate kernel: every series is a sparse dict keyed
by ``(i, j)``, multiplied term by term with total degree capped at ``D``.
It is slow and is kept here only so the tests can compare
``formal_group_law`` and ``compose_log_with_law`` against it key by key.
Its composition takes any law and log, also the G_m law T1 + T2 + T1 T2
and ``gm_log``, which are not odd and which ``compose_log_with_law``
refuses.

``log_numerators`` writes the logarithm down in closed form, with neither
Newton nor a series product: the route of the tests to ``formal_log`` that
shares no code with it.

``exp_series`` reverts the logarithm over exact Fractions, an independent
route to the group law at small degree.

``gm_log`` is the logarithm of the multiplicative group as a ``LogSeries``,
b_m = (-1)^(m+1): the input of the group-law tests on G_m and, through
``formal.scaled_log_coefficients``, the route by which the unit character
took its coefficients before the tower built them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from frobjet import polyutils as pu
from frobjet.errors import (CertificateFailure, FamilyMismatch,
                            PrecisionExhausted)
from frobjet.formal import FormalGroupLaw, LogSeries, WeierstrassCurve


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


def log_numerators(curve: WeierstrassCurve, D: int, mod: int) -> list:
    """[0, b_1, ..., b_D] of ``formal_log`` mod ``mod``, from the closed form.

    In the chart t = -x/y, omega = dx/2y = sum_m [x^(2m)] f(x)^m t^(2m) dt
    for f = x^3 + a4 x + a6, so b_(2m+1) = [x^(2m)] f^m: the terms
    x^(3i) (a4 x)^j a6^k of f^m with i + j + k = m and 3i + j = 2m, that is
    2j + 3k = m and i = j + 2k, each with its multinomial coefficient.
    Every even b_m is 0.
    """
    b = [0] * (D + 1)
    for m in range((D + 1) // 2):
        total = 0
        for k in range(m % 2, m // 3 + 1, 2):  # j = (m - 3k)/2 whole
            j = (m - 3 * k) // 2
            total += (factorial(m) // (factorial(j + 2 * k) * factorial(j)
                                       * factorial(k))
                      * curve.a4 ** j * curve.a6 ** k)
        b[2 * m + 1] = total % mod
    return b


def gm_log(p: int, D: int, prec: int) -> LogSeries:
    """Logarithm of the multiplicative group, log(1 + T): b_m = (-1)^(m+1)
    mod p^prec."""
    mod = p ** prec
    return LogSeries(p, prec,
                     [0] + [(1 if m % 2 else mod - 1) for m in range(1, D + 1)])


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


def _biv_mul(a: dict, b: dict, mod: int, D: int) -> dict:
    out = {}
    for (i1, j1), c1 in a.items():
        if c1 == 0:
            continue
        for (i2, j2), c2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j > D:
                continue
            key = (i, j)
            out[key] = (out.get(key, 0) + c1 * c2) % mod
    return {k: v for k, v in out.items() if v}


def _biv_add(a: dict, b: dict, mod: int) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = (out.get(k, 0) + v) % mod
    return {k: v for k, v in out.items() if v}


def _biv_scal(a: dict, c: int, mod: int) -> dict:
    return {k: (v * c) % mod for k, v in a.items() if (v * c) % mod}


def _biv_inv_unit(a: dict, mod: int, D: int) -> dict:
    """Inverse of a series with constant term 1 (geometric expansion)."""
    u = dict(a)
    u.pop((0, 0), None)
    u = _biv_scal(u, -1, mod)
    out = {(0, 0): 1}
    term = {(0, 0): 1}
    order = min((i + j for i, j in u), default=D + 1)
    for _ in range(D // max(order, 1) + 1):
        term = _biv_mul(term, u, mod, D)
        if not term:
            break
        out = _biv_add(out, term, mod)
    return out


def formal_group_law(curve: WeierstrassCurve | None, D: int, prec: int,
                     p: int | None = None) -> FormalGroupLaw:
    """Group law via the chord construction; ``curve=None`` gives the
    built-in multiplicative law T1 + T2 + T1*T2."""
    if curve is None:
        if p is None:
            raise FamilyMismatch("the multiplicative group law needs p")
        return FormalGroupLaw(p, prec, D,
                              {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    p = curve.p
    mod = p ** prec
    w = curve_w_series(curve, D + 2, mod)
    # lambda = sum_k w_k * (t1^(k-1) + t1^(k-2) t2 + ... + t2^(k-1))
    lam = {}
    for k in range(1, min(len(w), D + 2)):
        c = w[k]
        if c == 0:
            continue
        for a_ in range(k):
            b_ = k - 1 - a_
            if a_ + b_ <= D:
                lam[(a_, b_)] = (lam.get((a_, b_), 0) + c) % mod
    w1 = {(i, 0): c for i, c in enumerate(w) if c}
    nu = _biv_add(w1, _biv_scal(_biv_mul(lam, {(1, 0): 1}, mod, D), -1, mod),
                  mod)
    lam2 = _biv_mul(lam, lam, mod, D)
    lam3 = _biv_mul(lam2, lam, mod, D)
    A = _biv_add({(0, 0): 1},
                 _biv_add(_biv_scal(lam2, curve.a4, mod),
                          _biv_scal(lam3, curve.a6, mod), mod), mod)
    B = _biv_add(_biv_scal(_biv_mul(lam, nu, mod, D), 2 * curve.a4, mod),
                 _biv_scal(_biv_mul(lam2, nu, mod, D), 3 * curve.a6, mod),
                 mod)
    F = _biv_add({(1, 0): 1, (0, 1): 1},
                 _biv_mul(B, _biv_inv_unit(A, mod, D), mod, D), mod)
    return FormalGroupLaw(p, prec, D, F)


def compose_log_with_law(log: LogSeries, law: FormalGroupLaw, D: int):
    """l(F(T1,T2)) - l(T1) - l(T2) as a bivariate dict scaled by p^dmax.

    Returns (dict, dmax); the homomorphism law holds iff every entry is
    divisible by p^dmax at the working precision p^min(log.prec, law.prec),
    the lower of the two certificates.
    """
    p = log.p
    mod = p ** min(log.prec, law.prec)
    dmax = pu.floor_log(p, D)
    scale = p ** dmax
    F = {k: v for k, v in law.coeffs.items() if sum(k) <= D}
    acc = {}
    power = {(0, 0): 1}
    for m in range(1, D + 1):
        power = _biv_mul(power, F, mod, D)
        bm = log.b[m] % mod
        if bm == 0:
            continue
        c = (bm * (scale // p ** pu.vp(m, p)) *
             pu.modinv(m // p ** pu.vp(m, p), mod)) % mod
        acc = _biv_add(acc, _biv_scal(power, c, mod), mod)
    for m in range(1, D + 1):
        bm = log.b[m] % mod
        if bm == 0:
            continue
        c = (bm * (scale // p ** pu.vp(m, p)) *
             pu.modinv(m // p ** pu.vp(m, p), mod)) % mod
        for key in ((m, 0), (0, m)):
            acc[key] = (acc.get(key, 0) - c) % mod
    return {k: v for k, v in acc.items() if v}, dmax
