"""Slow oracle for the Serre-Tate series form.

``psi_series_form_sparse`` is ``sertate.psi_series_form`` as it ran before
the integer-row evaluation: z and each of its powers z^n are sparse
``STSeries`` products over exact Fractions.  It is kept here only so that
the tests can compare the fast path against it term by term.
"""

from __future__ import annotations

import math
from fractions import Fraction

from frobjet.sertate import STRing, STSeries


def psi_series_form_sparse(ring: STRing, i: int, sign_exponent_offset: int
                           ) -> STSeries:
    """The explicit series (1/p) sum_n (-1)^(n + off) (p^n/n) z^n with
    z = delta_i(1+T) / (1+T)^p; offset 1 reproduces psi_st_series, offset 0
    is the competing sign convention (kept so the discrepancy is testable).
    """
    p, D = ring.p, ring.D
    # delta_i(1+T) = delta_i T + C_p(1, T)
    cp = {((0, j),): Fraction(-math.comb(p, j), p) for j in range(1, p)}
    z_num = ring.delta_var((i,)) + STSeries(ring, cp)
    # (1+T)^(-p) = sum_k (-1)^k C(p+k-1, k) T^k
    inv = STSeries(ring, {((0, k),) if k else ():
                          Fraction((-1) ** k * math.comb(p + k - 1, k))
                          for k in range(D + 1)})
    z = z_num * inv
    acc = ring.zero()
    zk = ring.one()
    for n in range(1, D + 1):
        zk = zk * z
        acc = acc + zk * Fraction((-1) ** (n + sign_exponent_offset)
                                  * p ** n, n)
    return acc * Fraction(1, p)
