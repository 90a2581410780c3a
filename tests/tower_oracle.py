"""Slow oracles for the tower multiply, the character logarithm and the
zeta tables.

``schoolbook_mul`` is ``TowerElement.__mul__`` and ``sequential_log1p`` is
``characters._log1p`` as they ran before the packed multiply and the
Paterson-Stockmeyer evaluation.  The multiply loops over every pair of
entries, scaling by p where pi^(j1 + j2) wraps past pi^e, and reduces the
zeta-rows k >= f through ``zred2``.  The logarithm multiplies by z once per
term and stops at the first power that is zero mod p^prec.
``ratio_character`` is ``characters.gm_character_eval`` as it ran before it
dropped the inverse: the logarithm of the quotient phi_i(x)/x^p itself.
``zeta_tables`` builds ``zpow`` and ``zred2`` as ``Tower`` did before they
came from ``polyutils.pdivmod_monic``: it multiplies by x mod g by hand,
one power after the other.  They are kept here only so that the tests can
compare the fast paths against them.
"""

from __future__ import annotations

from frobjet import polyutils as pu
from frobjet.errors import CertificateFailure, LogDivergence
from frobjet.tower import (INF, QElement, TowerElement, frobenius_apply,
                           n_of_pi_from, valuation)


def schoolbook_mul(self, other):
    """f^2 e^2 schoolbook product, one reduction per update."""
    if isinstance(other, int):
        pk = self.tower.p ** self.prec
        return TowerElement(
            self.tower,
            [[(other * a) % pk for a in row] for row in self.coeffs],
            self.prec)
    self._check(other)
    t = self.tower
    prec = min(self.prec, other.prec)
    pk = t.p ** prec
    f, e = t.f, t.e
    acc = [[0] * e for _ in range(2 * f - 1)]
    for j1 in range(e):
        cola = [self.coeffs[i][j1] for i in range(f)]
        if not any(cola):
            continue
        for j2 in range(e):
            colb = [other.coeffs[i][j2] for i in range(f)]
            if not any(colb):
                continue
            jj = j1 + j2
            scale = t.p if jj >= e else 1
            jr = jj % e
            for i1 in range(f):
                a = cola[i1]
                if a == 0:
                    continue
                a = a * scale
                for i2 in range(f):
                    b = colb[i2]
                    if b:
                        acc[i1 + i2][jr] = (acc[i1 + i2][jr] + a * b) % pk
    out = [[0] * e for _ in range(f)]
    for k in range(2 * f - 1):
        rowk = acc[k]
        if not any(rowk):
            continue
        red = t.zred2[k]
        for i in range(f):
            ri = red[i]
            if ri:
                for j in range(e):
                    if rowk[j]:
                        out[i][j] = (out[i][j] + ri * rowk[j]) % pk
    return TowerElement(t, out, prec)


def sequential_log1p(z: TowerElement) -> QElement:
    """log(1 + z) = sum (-1)^(n+1) z^n / n as num / p^dmax, v(z) > 0.

    The sum runs until n/e - v_p(n) comfortably exceeds the certified
    precision of z.
    """
    vz = valuation(z)
    if vz != INF and not vz > 0:
        raise LogDivergence("log(1 + z) needs v(z) > 0")
    tower, prec = z.tower, z.prec
    p = tower.p
    nmax = tower.e * (prec + 2) + 1
    dmax = max((pu.vp(n, p) for n in range(p, nmax + 1, p)), default=0)
    pk = p ** prec
    acc = tower.zero(prec)
    zn = tower.one(prec)
    for n in range(1, nmax + 1):
        zn = zn * z
        if zn.is_zero():
            break
        v = pu.vp(n, p) if n % p == 0 else 0
        c = (pu.modinv(n // p ** v, pk) * p ** (dmax - v)) % pk
        if n % 2 == 0:
            c = -c
        acc = acc + zn * c
    return QElement(acc, dmax)


def ratio_character(tower, idx, x):
    """psi_i(x) = p^N log(1 + (phi_i(x) - x^p) (x^p)^(-1)) for a unit x."""
    p = tower.p
    xp = x ** p
    out = sequential_log1p((frobenius_apply(tower, idx, x) - xp)
                           * xp.inverse())
    N = n_of_pi_from(p, tower.e)
    if N >= 0:
        return QElement(out.num * p ** N, out.den)
    return QElement(out.num, out.den - N)


def zeta_tables(t):
    """(zpow, zred2) of the tower ``t``, from its ``g``, one multiplication
    by x mod g per power; raises CertificateFailure unless zeta^e = 1."""
    def _mul_by_x(vec):
        f, pK = t.f, t.pK
        out = [0] * f
        carry = vec[f - 1]
        for i in range(f - 1, 0, -1):
            out[i] = vec[i - 1]
        if carry:
            for i in range(f):
                out[i] = (out[i] - carry * t.g[i]) % pK
        return [c % pK for c in out]

    e, f = t.e, t.f
    one = [1] + [0] * (f - 1)
    zpow = [one]
    cur = one
    for _ in range(1, e):
        cur = _mul_by_x(cur)
        zpow.append(cur)
    nxt = _mul_by_x(zpow[e - 1])
    if nxt != one:
        raise CertificateFailure("zeta^e != 1 after Hensel lifting")
    return zpow, [zpow[k % e] for k in range(2 * f - 1)]
