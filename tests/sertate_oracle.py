"""Slow oracles for the Serre-Tate series form and the class expansions.

``psi_series_form_sparse`` is ``sertate.psi_series_form`` as it ran before
the integer-row evaluation: z and each of its powers z^n are sparse
``STSeries`` products over exact Fractions.  It is kept here only so that
the tests can compare the fast path against it term by term.

``st_expansion`` looks a class up in the hand-typed table of closed forms
(``_build_expansions``) that ``sertate.st_expansion`` used before it built
each expansion from the primary and secondary rules, and
``beta_expansion`` is the parameter-slot expansion as it was written then.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from frobjet.errors import UnknownForm
from frobjet.sertate import PsiPoly, STRing, STSeries


def psi_series_form_sparse(ring: STRing, i: int, sign_exponent_offset: int
                           ) -> STSeries:
    """The explicit series (1/p) sum_n (-1)^(n + off) (p^n/n) z^n with
    z = delta_i(1+T) / (1+T)^p; offset 1 reproduces psi_st_series, offset 0
    is the competing sign convention (kept so the discrepancy is testable).
    """
    p, D = ring.p, ring.D
    # delta_i(1+T) = delta_i T + C_p(1, T)
    cp = {((0, j),): Fraction(-math.comb(p, j), p) for j in range(1, p)}
    z_num = ring.variable(ring.var_index((i,))) + STSeries(ring, cp)
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


def _psi(i: int, word: str = "") -> tuple:
    return ("psi", i, word)


def _S(i, w="", c=1, p=0, v=1):
    return PsiPoly.slot(_psi(i, w), c_exp=c, p_exp=p, value=v)


def _build_expansions():
    """Closed-form expansions of every order <= 2 class, in Psi slots."""
    P = {}
    P["f_1"] = _S(1)
    P["f_11"] = _S(1, "1") + _S(1, "", p=1)
    P["f_12"] = _S(2, "1") + _S(1, "", p=1)
    P["f_11,1"] = _S(1, "1", p=1)
    P["f_1,2"] = _S(1, "", p=1) - _S(2, "", p=1)
    P["f_11,22"] = (_S(1, "1", p=2) + _S(1, "", p=3)
                    - _S(2, "2", p=2) - _S(2, "", p=3))
    P["f_12,1"] = _S(2, "1", p=1)
    P["f_12,21"] = (_S(2, "1", p=2) + _S(1, "", p=3)
                    - _S(1, "2", p=2) - _S(2, "", p=3))
    P["f_11,2"] = _S(1, "1", p=1) + _S(1, "", p=2) - _S(2, "", p=2)
    P["f_11,12"] = _S(1, "1", p=2) - _S(2, "1", p=2)
    P["f_12,2"] = _S(2, "1", p=1) + _S(1, "", p=2) - _S(2, "", p=2)
    P["f_11,21"] = (_S(1, "1", p=2) - _S(1, "2", p=2)
                    + _S(1, "", p=3) - _S(2, "", p=3))
    # unit forms on the ordinary locus expand to 1
    P["fdel1"] = PsiPoly.const(1)
    P["fdel2"] = PsiPoly.const(1)
    P["finv1"] = PsiPoly.const(1)
    P["finv2"] = PsiPoly.const(1)
    # index swaps of everything above
    for key, val in list(P.items()):
        P[_swap_id(key)] = val.swap12()
    return P


def _swap_id(form_id: str) -> str:
    return form_id.translate(str.maketrans("12", "21"))


_EXPANSIONS = _build_expansions()


def st_expansion(form_id: str) -> PsiPoly:
    """Expansion of a class by id ("f_1", "f_12,21", ...); pairs not in the
    table resolve through antisymmetry f_{mu,nu} = -f_{nu,mu}."""
    if form_id in _EXPANSIONS:
        return _EXPANSIONS[form_id]
    m = re.fullmatch(r"f_(\d+),(\d+)", form_id)
    if m:
        flipped = f"f_{m.group(2)},{m.group(1)}"
        if flipped in _EXPANSIONS:
            return -_EXPANSIONS[flipped]
    raise UnknownForm(form_id)


def beta_expansion(form_id: str) -> PsiPoly:
    """Parameter-slot version: primary b_mu = beta^phi_mu - p^|mu| beta,
    secondary b_mu,nu = p^|nu| beta^phi_mu - p^|mu| beta^phi_nu (c = 1
    convention, common power of p stripped)."""
    def bslot(word: str, p_exp=0, v=1):
        return PsiPoly.slot(("beta", 0, word), p_exp=p_exp, value=v)

    m = re.fullmatch(r"b_(\d+)", form_id)
    if m:
        mu = m.group(1)
        return bslot(mu) - bslot("", p_exp=len(mu))
    m = re.fullmatch(r"b_(\d+),(\d+)", form_id)
    if m:
        mu, nu = m.group(1), m.group(2)
        return bslot(mu, p_exp=len(nu)) - bslot(nu, p_exp=len(mu))
    raise UnknownForm(form_id)
