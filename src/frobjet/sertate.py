"""Deformation-parameter expansions and the symbolic identity engine.

Everything here lives over the base p (unramified directions), where the
expansion of each modular-type class in the deformation coordinate T is a
universal linear combination of the fundamental series

    Psi_i = (1/p) (phi_i - p) log(1 + T)

and its phi-twists.  Two exact layers implement this:

``STSeries``
    truncated series over exact rationals in T and the variables
    delta_mu T: the ``frobjet.jets`` series class over ``STRing``, where
    the prolongations act by T -> T^p + p delta_i T.  Used for the
    fundamental series, the canonical derivation
    (1 + T^phi_mu) d/d(delta_mu T), and their defining identities.  The
    one exception is ``psi_series_form``, the power-series route to Psi_i:
    it bypasses the sparse STSeries product and writes down each power of
    delta_i T of its result in closed form.

``PsiPoly``
    polynomials over Q in commuting slot variables (the twists Psi_i^phi_mu,
    or the parameter slots beta^phi_mu) and the indeterminates c and p, each
    coefficient kept as given: an int from every program input.  The catalog
    of quadratic/cubic relations between the classes reduces to the zero
    PsiPoly, c-homogeneity checked first: no conclusion depends on the unit c.

``st_expansion`` builds each class from its primary, a sum of phi-twisted
Psi slots, and the secondary rule f_mu,nu = p^|nu| f_mu - p^|mu| f_nu, which
``beta_expansion`` shares.  The relation catalog is data (data/relations.json)
mapping relation ids to signed products of form ids with optional twists.
Every relation is verified together with its 1 <-> 2 index swap.

The tower-valued evaluations (``st_f_values``) specialize the same two
rules at a parameter value beta of positive valuation; with the convention
c = 1 they feed the coefficient-matrix checks and the congruence tests.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from fractions import Fraction
from importlib import resources

from .errors import UnknownForm, UnknownRelation
from .jets import (SeriesRing, SparseSeries, _mono_mul, phi_endomorphism,
                   phi_word)
from .tower import (Tower, TowerElement, check_beta, frobenius_word_apply,
                    n_of_pi_from, primary_class)
from .words import word_from_string


# ---------------------------------------------------------------------------
# exact truncated series in T, delta_mu T over Q (pi = p)
# ---------------------------------------------------------------------------

class STSeries(SparseSeries):
    """Exact series: Fraction coefficients, den always 0."""

    __slots__ = ()
    # bound in this class's own body, not inherited: the span tracer
    # (perfbench/spans.py) wraps the product per class through __dict__
    __mul__ = __rmul__ = SparseSeries.__mul__

    def __eq__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self.terms == other.terms

    def derivative(self, var: int) -> "STSeries":
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            if var not in d:
                continue
            e = d[var]
            if e == 1:
                del d[var]
            else:
                d[var] = e - 1
            key = tuple(sorted(d.items()))
            out[key] = out.get(key, Fraction(0)) + c * e
        return STSeries(self.ring, out)

    def substitute(self, var: int, value: "STSeries") -> "STSeries":
        """Replace one variable by a series (truncation applies)."""
        out = self.ring.zero()
        pows = {0: self.ring.one()}
        for m, c in self.terms.items():
            rest = tuple((v, e) for v, e in m if v != var)
            e = dict(m).get(var, 0)
            if e not in pows:
                pows[e] = value ** e
            out = out + (STSeries(self.ring, {rest: c}) * pows[e])
        return out

    def __repr__(self):
        return f"STSeries({len(self.terms)} terms)"


class STRing(SeriesRing):
    """Shape of the exact expansion ring: directions n, order r, degree D.

    Coefficients are exact rationals, pi = p, and every Frobenius fixes
    them.
    """

    series_type = STSeries
    scalar_types = (int, Fraction)
    from_int = staticmethod(Fraction)
    is_zero = staticmethod(operator.not_)

    def __init__(self, p: int, n: int, r: int, D: int):
        super().__init__(p, n, r, D, Fraction(1), Fraction(p))

    @staticmethod
    def frobenius(i: int, c: Fraction) -> Fraction:
        return c

    def log1p(self):
        """log(1 + T) = sum (-1)^(m+1) T^m / m, truncated at D."""
        return STSeries(self, {((0, m),): Fraction((-1) ** (m + 1), m)
                               for m in range(1, self.D + 1)})


def psi_st_series(ring: STRing, i: int) -> STSeries:
    """The fundamental series (1/p)(phi_i - p) log(1 + T)."""
    L = ring.log1p()
    return (phi_endomorphism(ring, i, L) - Fraction(ring.p) * L) * Fraction(1, ring.p)


def psi_series_form(ring: STRing, i: int, sign_exponent_offset: int
                    ) -> STSeries:
    """The explicit series (1/p) sum_n (-1)^(n + off) (p^n/n) z^n with
    z = delta_i(1+T) / (1+T)^p; offset 1 reproduces psi_st_series, offset 0
    is the competing sign convention (kept so the discrepancy is testable).

    With delta = delta_i T, delta_i(1+T) = delta + C_p(1, T) and C_p(1, T)
    = (1 + T^p - (1+T)^p)/p, so 1 + p z = (1 + T^p + p delta)/(1+T)^p.  At
    offset 1 the sum is (1/p) log(1 + p z), and
    log(1 + T^p + p delta) = log(1 + T^p) + log(1 + p delta/(1 + T^p)), so
    the delta^k row is, in closed form,

        (-1)^(k+1) (p^(k-1)/k) (1 + T^p)^(-k)    for k >= 1,
        (1/p) log(1 + T^p) - log(1 + T)         for k = 0;

    offset 0 is the negation.  Every z^n has total degree >= n, so the
    terms n > D never reach degree D and the closed form cut at D equals the
    sum cut at n = D.  The coefficients are built directly, O(D^2/p)
    Fractions, in the order of increasing delta- and then T-degree.
    """
    p, D = ring.p, ring.D
    v = ring.var_index((i,))
    sign = 1 if sign_exponent_offset % 2 else -1    # (-1)^(off + 1)
    terms = {}
    for a in range(1, D + 1):
        # -log(1 + T) at T^a, plus (1/p) log(1 + T^p) at a = p m
        c = Fraction((-1) ** a, a)
        if a % p == 0:
            m = a // p
            c += Fraction((-1) ** (m + 1), a)
        if c:
            terms[((0, a),)] = sign * c
    for k in range(1, D + 1):
        dk = ((v, k),)
        lead = sign * (-1) ** (k + 1) * p ** (k - 1)
        # (1 + T^p)^(-k) = sum_m (-1)^m C(k + m - 1, m) T^(p m)
        for m in range((D - k) // p + 1):
            terms[((0, p * m),) + dk if m else dk] = Fraction(
                lead * (-1) ** m * math.comb(k + m - 1, m), k)
    return STSeries(ring, terms)


def serre_operator(ring: STRing, mu, F: STSeries) -> STSeries:
    """The canonical derivation (1 + T^phi_mu) dF/d(delta_mu T)."""
    v = ring.var_index(mu)
    Tphi = phi_word(ring, mu, ring.T())
    return (ring.one() + Tphi) * F.derivative(v)


# ---------------------------------------------------------------------------
# PsiPoly: exact polynomials in slot variables and the indeterminates c, p
# ---------------------------------------------------------------------------

class PsiPoly:
    """Sparse polynomial; monomial = (c_exp, p_exp, ((slot, exp), ...)),
    coefficient an int or a Fraction, kept as given."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, value=1, p_exp=0) -> "PsiPoly":
        return cls({(0, p_exp, ()): value})

    @classmethod
    def slot(cls, name, c_exp=0, p_exp=0, value=1) -> "PsiPoly":
        return cls({(c_exp, p_exp, ((name, 1),)): value})

    def __add__(self, other):
        if not isinstance(other, PsiPoly):
            return NotImplemented
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t.get(m, 0) + c
        return PsiPoly(t)

    def __neg__(self):
        return PsiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PsiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PsiPoly):
            return NotImplemented
        out = {}
        for (c1, p1, v1), a1 in self.terms.items():
            for (c2, p2, v2), a2 in other.terms.items():
                m = (c1 + c2, p1 + p2, _mono_mul(v1, v2))
                out[m] = out.get(m, 0) + a1 * a2
        return PsiPoly(out)

    def is_zero(self) -> bool:
        return not self.terms

    def c_degrees(self):
        return sorted({m[0] for m in self.terms})

    def twist(self, word: str) -> "PsiPoly":
        """Apply phi_word: slot words get ``word`` prepended ("" is the
        identity); c and p are fixed."""
        return self._rename(lambda kind, i, w: (kind, i, word + w))

    def swap12(self) -> "PsiPoly":
        """Exchange the two directions everywhere (indices and words)."""
        flip = str.maketrans("12", "21")
        return self._rename(lambda kind, i, w: (kind, {1: 2, 2: 1}.get(i, i),
                                                w.translate(flip)))

    def _rename(self, slot) -> "PsiPoly":
        """Send every slot (kind, i, w) to ``slot(kind, i, w)``; c and p are
        fixed, and monomials that meet are summed."""
        out = {}
        for (ce, pe, vars_), a in self.terms.items():
            m = (ce, pe, tuple(sorted((slot(*v), e) for v, e in vars_)))
            out[m] = out.get(m, 0) + a
        return PsiPoly(out)

    def __repr__(self):
        if not self.terms:
            return "PsiPoly(0)"
        bits = []
        for (ce, pe, vars_), a in sorted(self.terms.items()):
            s = [str(a)]
            if ce:
                s.append(f"c^{ce}")
            if pe:
                s.append(f"p^{pe}")
            for (kind, i, w), e in vars_:
                tag = f"{kind}{i}" + (f"^({w})" if w else "")
                s.append(tag if e == 1 else f"{tag}**{e}")
            bits.append("*".join(s))
        return "PsiPoly(" + " + ".join(bits) + ")"


def _swap_id(form_id: str) -> str:
    return form_id.translate(str.maketrans("12", "21"))


def _expand(form_id: str, prefix: str, word: str, primary) -> PsiPoly:
    """The class "<prefix>_mu" or "<prefix>_mu,nu", each word matching the
    regex ``word``: the primary x_mu = primary(mu), or the secondary
    p^|nu| x_mu - p^|mu| x_nu."""
    m = re.fullmatch(rf"{prefix}_({word})(?:,({word}))?", form_id)
    if not m:
        raise UnknownForm(form_id)
    mu, nu = m.groups()
    return primary(mu) if nu is None else (
        PsiPoly.const(1, p_exp=len(nu)) * primary(mu)
        - PsiPoly.const(1, p_exp=len(mu)) * primary(nu))


@functools.lru_cache(maxsize=None)
def st_expansion(form_id: str) -> PsiPoly:
    """Expansion in Psi slots, cached per id, of a primary "f_mu" or a
    secondary "f_mu,nu" (mu != nu) over the words of length 1 or 2 in
    {1, 2}.  The primary f_mu = (1/p)(phi_mu - p^|mu|) log(1 + T) is
    c sum_k p^(s-k) Psi_(i_k)^(phi_(i_1 ... i_(k-1))) for mu = i_1 ... i_s;
    the unit forms fdel1, fdel2, finv1, finv2 expand to 1."""
    if form_id in ("fdel1", "fdel2", "finv1", "finv2"):
        return PsiPoly.const(1)
    if re.fullmatch(r"f_(\d+),\1", form_id):     # f_mu,mu is no class
        raise UnknownForm(form_id)
    return _expand(form_id, "f", "[12]{1,2}", lambda mu: sum(
        (PsiPoly.slot(("psi", int(i), mu[:k]), c_exp=1,
                      p_exp=len(mu) - 1 - k) for k, i in enumerate(mu)),
        PsiPoly()))


def beta_expansion(form_id: str) -> PsiPoly:
    """Parameter-slot version over any digit words (c = 1 convention): the
    primary b_mu = beta^phi_mu - p^|mu| beta and the secondary rule, which
    leaves p^|nu| beta^phi_mu - p^|mu| beta^phi_nu."""
    return _expand(form_id, "b", r"\d+", lambda mu: (
        PsiPoly.slot(("beta", 0, mu))
        - PsiPoly.slot(("beta", 0, ""), p_exp=len(mu))))


# ---------------------------------------------------------------------------
# relation catalog
# ---------------------------------------------------------------------------

_COEFF_RE = re.compile(r"^(-)?(?:(\d+)|p(?:\^(\d+))?)$")


def _parse_coeff(s: str) -> PsiPoly:
    m = _COEFF_RE.match(s)
    if not m:
        raise ValueError(f"bad coefficient literal {s!r}")
    neg, num, pexp = m.groups()
    if num is not None:
        poly = PsiPoly.const(int(num))
    else:
        poly = PsiPoly.const(1, p_exp=int(pexp) if pexp else 1)
    return -poly if neg else poly


def load_relation_catalog() -> dict:
    data = resources.files("frobjet.data").joinpath("relations.json")
    return json.loads(data.read_text())


def verify_identity(relation_id: str, catalog: dict | None = None) -> dict:
    """Reduce one cataloged relation (and its index swap) symbolically.

    Returns {"relation", "status", "residual", "c_homogeneous",
    "swap_status"}; status is "zero" exactly when the substituted polynomial
    vanishes identically with c and p indeterminate.
    """
    catalog = catalog or load_relation_catalog()
    if relation_id not in catalog:
        raise UnknownRelation(relation_id)
    entry = catalog[relation_id]
    expander = beta_expansion if entry.get("slots") == "beta" else st_expansion

    def reduce_terms(terms):
        total = PsiPoly()
        c_degs = set()
        for coeff_str, factors in terms:
            term = _parse_coeff(coeff_str)
            for form_id, twist in factors:
                term = term * expander(form_id).twist(twist)
            degs = term.c_degrees()
            c_degs.update(degs if degs else [0])
            total = total + term
        return total, c_degs

    total, c_degs = reduce_terms(entry["terms"])
    swapped = [[c, [[_swap_id(f), _swap_id(tw)] for f, tw in fs]]
               for c, fs in entry["terms"]]
    total_sw, _ = reduce_terms(swapped)
    return {
        "relation": relation_id,
        "status": "zero" if total.is_zero() else "nonzero",
        "residual": repr(total),
        "c_homogeneous": len(c_degs) <= 1,
        "swap_status": "zero" if total_sw.is_zero() else "nonzero",
    }


def verify_all_identities() -> list:
    catalog = load_relation_catalog()
    return [verify_identity(rid, catalog) for rid in catalog]


# ---------------------------------------------------------------------------
# tower-valued specializations
# ---------------------------------------------------------------------------

def st_f_values(tower: Tower, gammas, beta: TowerElement, mu, nu=None):
    """Class value at parameter beta, convention c = 1.

    Primary: beta^phi_mu - p^|mu| beta.  Secondary (nu given):
    p^|nu| beta^phi_mu - p^|mu| beta^phi_nu.  The caller scales by
    p^(N(pi)+1) where the symbol normalization requires it; see st_f_table.
    """
    check_beta(tower, beta)
    fmu = primary_class(tower, gammas, mu, beta)
    if nu is None:
        return fmu
    fnu = primary_class(tower, gammas, nu, beta)
    return fmu * tower.p ** len(nu) - fnu * tower.p ** len(mu)


def st_f_table(tower: Tower, gammas, beta: TowerElement) -> dict:
    """All entries the 6 x 7 coefficient matrix needs, at parameter beta.

    Scaled primaries carry p^(N+1) ("ft_*"); the secondary entries carry the
    same p^(N+1) so each matrix row is exactly a symbol coefficient vector
    (one common scale per row never changes minor vanishing, but mixing
    scaled and unscaled entries would).
    """
    check_beta(tower, beta)
    N = n_of_pi_from(tower.p, tower.e)
    scale = tower.p ** (N + 1)
    table = {}
    for mu in ("1", "2", "11", "22"):
        table[f"ft_{mu}"] = st_f_values(
            tower, gammas, beta, word_from_string(mu)) * scale
    for mu, nu in (("1", "2"), ("11", "1"), ("22", "2"), ("11", "22")):
        table[f"f_{mu},{nu}"] = st_f_values(
            tower, gammas, beta, word_from_string(mu),
            word_from_string(nu)) * scale
    for key in ("ft_1", "ft_2", "f_1,2"):
        for j in (1, 2):
            table[f"{key}@{j}"] = frobenius_word_apply(
                tower, gammas, (j,), table[key])
    return table
