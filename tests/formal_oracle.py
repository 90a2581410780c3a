"""Differential oracle for ``frobjet.formal`` group-law series.

This is the bivariate arithmetic as it ran before the group law moved onto
the Kronecker-packed univariate kernel: every series is a sparse dict keyed
by ``(i, j)``, multiplied term by term with total degree capped at ``D``.
It is slow and is kept here only so the tests can compare
``formal_group_law`` and ``compose_log_with_law`` against it key by key.
"""

from __future__ import annotations

from frobjet import polyutils as pu
from frobjet.errors import FamilyMismatch
from frobjet.formal import (FormalGroupLaw, LogSeries, WeierstrassCurve,
                            curve_w_series)


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
    divisible by p^dmax at the working precision.
    """
    p = log.p
    mod = p ** log.prec
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
