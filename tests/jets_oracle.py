"""Slow oracle for the prolongation endomorphism.

``full_phi_endomorphism`` is ``jets.phi_endomorphism`` as it ran before the
image of a variable power was cut to the terms of degree at most D: it
builds every binomial term C(e, j) pi^j of (T^p + pi delta T)^e and drops
those above D only where it uses them.  It is kept here only so that the
tests can compare the fast path against it.

``remainder_pi_power`` is the pi-power of the prolongation remainder
identity phi_mu T = pi^w(mu) * delta_mu T + (lower order).
"""

from __future__ import annotations

import math

from frobjet.errors import FamilyMismatch, OrderOverflow
from frobjet.jets import SeriesRing, SparseSeries, _degree, _mono_mul
from frobjet.tower import Tower, TowerElement, frobenius_word_apply


def remainder_pi_power(tower: Tower, gammas, mu: tuple) -> TowerElement:
    """pi^w(mu) = prod over the proper prefixes nu of mu of phi_nu(pi),
    the empty prefix included: pi * phi_(i1)(pi) * ... for mu = i1 i2 ..."""
    return math.prod((frobenius_word_apply(tower, gammas, mu[:k], tower.pi())
                      for k in range(len(mu))), start=tower.one())


def full_phi_endomorphism(ring: SeriesRing, i: int, F: SparseSeries
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
        # [(degree, scalar, mono)] for (image of variable v)^e
        if (v, e) in images:
            return images[(v, e)]
        iw = (i,) + ring.var_words[v]
        succ = ring.word_to_var.get(iw)
        if succ is None:
            raise OrderOverflow(
                f"word {iw} exceeds the configured order r = {ring.r}")
        out = []
        for j in range(e + 1):
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
