"""Slow oracles for the symbol-matrix minors and the pairing.

``leibniz_det`` is the permutation-sum determinant: one product per
permutation, every entry multiplied (zeros too), so its certified precision
and denominator follow the same rules as the subset DP in
``symbols.subset_minors``.  ``six_product_pairing`` is ``characters.pairing``
as it ran before the pairing became a 2 x 2 determinant of primary classes:
the expansion into six ring products.  They are kept here only so that the
tests can compare the fast paths against them.
"""

from __future__ import annotations

from itertools import permutations

from frobjet.tower import frobenius_word_apply


def leibniz_det(rows):
    """sum over permutations s of sign(s) * rows[0][s(0)] * ... ."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        inversions = sum(perm[a] > perm[b]
                         for a in range(n) for b in range(a + 1, n))
        if inversions % 2:
            term = -term
        total = term if total is None else total + term
    return total


def six_product_pairing(ctx, alpha, beta):
    t = ctx.tower
    p = t.p
    r, s = len(ctx.mu), len(ctx.nu)
    amu = frobenius_word_apply(t, ctx.gammas, ctx.mu, alpha)
    anu = frobenius_word_apply(t, ctx.gammas, ctx.nu, alpha)
    bmu = frobenius_word_apply(t, ctx.gammas, ctx.mu, beta)
    bnu = frobenius_word_apply(t, ctx.gammas, ctx.nu, beta)
    return (bnu * amu - bmu * anu
            + (alpha * bmu - beta * amu) * p ** s
            + (beta * anu - alpha * bnu) * p ** r)
