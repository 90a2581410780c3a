"""Exact arithmetic in ramified towers R = W[pi] with pi^(l^m) = p.

Representation
--------------
Fix an odd prime p, a prime l != p, a level m >= 0 and e := l^m.  Let zeta be
a primitive e-th root of unity and W = Z_p[zeta] the unramified ring it
generates; its degree f equals the multiplicative order of p mod e.  The
tower ring is

    R = W[pi] / (pi^e - p),

a free Z_p-module with basis  zeta^i * pi^j  (i < f, j < e).  An element is
stored as an f x e integer matrix of residues mod p^prec, where ``prec`` is
the absolute precision actually certified for that element.  The minimal
polynomial g of zeta is the Hensel lift mod p^K of an irreducible factor of
the e-th cyclotomic polynomial mod p; products of zeta-powers reduce through
tables of x^t mod g, each one ``polyutils.pdivmod_monic``.

A product runs on ``polyutils.FoldRows``: each zeta-row, a polynomial in
pi of degree < e, is packed as one integer of e limbs, with no gap limbs.
Row k of the product is the integer sum of the row products x_i y_j,
i + j = k, and pi^(e+j) folds to p pi^j on that whole integer; the rows come
back e limbs each, every limb reduced mod p^prec as it is read.  The
zeta-rows k >= f then reduce through ``zred2``, each multiple reduced as it
is added.  ``Tower.product_rows`` is this product, its rows residues;
``TowerElement.__mul__`` and the character logarithm both call it.  Each
element keeps its packed rows in one slot, so an operand used again at the
same modulus p^k is packed once.  At f = e = 1 a product is one integer
product.

Frobenius family
----------------
The automorphism tau fixes W and sends pi to zeta*pi; phi fixes pi and sends
zeta to zeta^p (the p-power map on residues).  The family used throughout is
phi^(gamma) := tau^gamma o phi, indexed by an integer gamma >= 0.  A word
mu = i_1...i_s over directions with exponents (gamma_1, ..., gamma_n) acts as

    phi_mu = tau^(gamma_{i_1} + p*gamma_{i_2} + ... + p^(s-1)*gamma_{i_s}) o phi^s,

which is what :func:`words.check_monomial_independence` exploits.

Precision accounting
--------------------
Binary operations certify min(prec_a, prec_b); division by pi or p costs one
digit.  Zero tests mean "congruent to 0 mod p^prec", never exact vanishing.
Elements are immutable.  A Tower fills all its tables when it is built,
the zeta tables and the table of the logarithm coefficients
(-1)^(n+1) / n for n < e K, so a built Tower is read-only and everything
can be shared freely between threads.  The packed slot is filled lazily
with a value that depends only on the coefficients and the modulus, so a
racing fill writes an equal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import polyutils as pu
from .errors import (BetaTooLarge, CertificateFailure, FamilyMismatch,
                     NotAUnit, NotEisensteinCompatible, PrecisionExhausted,
                     PrecisionTooLow, UnreducedCoefficients)

INF = math.inf


@dataclass(frozen=True)
class TowerConfig:
    """Parameters of a tower level: base prime, ramification and precision."""

    p: int
    l: int
    m: int
    f: int
    K: int


@dataclass(frozen=True)
class FrobeniusIndex:
    """Selects the automorphism tau^gamma o phi from the l-tower family."""

    gamma: int


class Tower:
    """Ring context for R = W[pi]/(pi^e - p) at fixed absolute precision."""

    def __init__(self, config: TowerConfig):
        p, l, m, f, K = config.p, config.l, config.m, config.f, config.K
        if not pu.is_prime(p) or p == 2:
            raise NotEisensteinCompatible(f"p = {p} must be an odd prime")
        if not pu.is_prime(l) or l == p:
            raise NotEisensteinCompatible(f"l = {l} must be a prime != p")
        if m < 0:
            raise NotEisensteinCompatible("tower level m must be >= 0")
        if K < 2:
            raise PrecisionTooLow("absolute precision K must be >= 2")
        e = l ** m
        if (p ** f - 1) % e != 0:
            raise NotEisensteinCompatible(
                f"l^m = {e} does not divide p^f - 1 = {p ** f - 1}")
        d = pu.multiplicative_order(p, e)
        if f != d:
            raise NotEisensteinCompatible(
                f"unramified degree f = {f} must equal ord(p mod l^m) = {d}")
        self.config = config
        self.p, self.e, self.f, self.K = p, e, f, K
        self.pK = p ** K
        self._mul_moduli = [p ** k for k in range(K + 1)]
        self._build_zeta_tables()
        # _log_table[n] = ((-1)^(n+1) (n / p^v)^(-1) mod p^K, v = v_p(n)) for
        # 0 < n < e K, every index a logarithm on this tower can reach
        self._log_table = [(0, 0)]
        for n in range(1, e * K):
            v = pu.vp(n, p)
            u = pu.modinv(n // p ** v, self.pK)
            self._log_table.append((u if n % 2 else self.pK - u, v))

    def _build_zeta_tables(self):
        p, e, f, K = self.p, self.e, self.f, self.K
        phi_lm = pu.cyclotomic_prime_power(self.config.l, self.config.m)
        g0 = pu.equal_degree_factor(phi_lm, f, p)
        # lift the factorization of x^e - 1 (not just of the cyclotomic
        # polynomial) so that zeta^e = 1 holds exactly mod p^K
        xe1 = [0] * (e + 1)
        xe1[0], xe1[e] = -1, 1
        self.g = pu.hensel_lift_factor(xe1, g0, p, K)
        if len(self.g) - 1 != f:
            raise CertificateFailure("lifted zeta polynomial has wrong degree")
        # zpow[t] = column vector of zeta^t = x^t mod g for t < e; zeta^e = 1
        zpow = []
        for t in range(e + 1):
            r = pu.pdivmod_monic([0] * t + [1], self.g, self.pK)[1]
            zpow.append(r + [0] * (f - len(r)))
        if zpow.pop() != zpow[0]:
            raise CertificateFailure("zeta^e != 1 after Hensel lifting")
        self.zpow = zpow
        # reduction table for products: zred2[k] = zeta^k mod g, k <= 2f-2
        # (zeta^e = 1, so 2f - 2 >= e wraps around)
        self.zred2 = [zpow[k % e] for k in range(2 * f - 1)]

    # -- element constructors ------------------------------------------------

    def _prec(self, prec) -> int:
        """``prec`` clamped to K (None means K), before anything is reduced."""
        prec = self.K if prec is None else min(prec, self.K)
        if prec < 1:
            raise PrecisionExhausted("element precision dropped below 1")
        return prec

    def zero(self, prec=None) -> "TowerElement":
        return _element(self, [[0] * self.e for _ in range(self.f)],
                        self._prec(prec))

    def one(self, prec=None) -> "TowerElement":
        return self.from_int(1, prec)

    def from_int(self, n: int, prec=None) -> "TowerElement":
        if not isinstance(n, int):
            raise TypeError(f"from_int takes an int, not {type(n).__name__}")
        prec = self._prec(prec)
        c = [[0] * self.e for _ in range(self.f)]
        c[0][0] = n % (self.p ** prec)
        return _element(self, c, prec)

    def pi(self, prec=None) -> "TowerElement":
        prec = self._prec(prec)
        c = [[0] * self.e for _ in range(self.f)]
        if self.e == 1:
            c[0][0] = self.p % (self.p ** prec)
        else:
            c[0][1] = 1
        return _element(self, c, prec)

    def zeta(self, prec=None) -> "TowerElement":
        prec = self._prec(prec)
        c = [[0] * self.e for _ in range(self.f)]
        if self.f == 1:
            c[0][0] = self.zpow[1 % self.e][0] % (self.p ** prec)
        else:
            c[1][0] = 1
        return _element(self, c, prec)

    def element(self, coeffs, prec=None) -> "TowerElement":
        pk = self.p ** self._prec(prec)
        try:
            rows = [[c % pk for c in row] for row in coeffs]
        except TypeError:
            raise UnreducedCoefficients("not a coefficient matrix") from None
        return TowerElement(self, rows, prec)

    def random_element(self, rng, prec=None) -> "TowerElement":
        prec = self._prec(prec)
        pk = self.p ** prec
        return _element(
            self,
            [[rng.randrange(pk) for _ in range(self.e)] for _ in range(self.f)],
            prec)

    def random_unit(self, rng, prec=None) -> "TowerElement":
        while True:
            a = self.random_element(rng, prec)
            if valuation(a) == 0:
                return a

    def teichmuller(self, a: "TowerElement") -> "TowerElement":
        """Teichmuller representative of the W-part residue of ``a``.

        Requires ``a`` to lie in W (zero pi-part); iterates x -> x^(p^f),
        gaining at least one certified digit per step, so it settles within
        prec + 1 steps, else a CertificateFailure.
        """
        if any(a.coeffs[i][j] % a.tower.p ** a.prec
               for i in range(self.f) for j in range(1, self.e)):
            raise ValueError("Teichmuller lift needs an element of W")
        x = a
        q = self.p ** self.f
        for _ in range(a.prec + 1):
            nxt = x ** q
            if nxt == x:
                return nxt
            x = nxt
        raise CertificateFailure(
            f"x -> x^(p^f) did not settle in {a.prec + 1} steps")

    # -- products and logarithm coefficients --------------------------------

    def product_rows(self, x: pu.FoldRows, y: pu.FoldRows) -> list:
        """The f zeta-rows of the product of two elements packed mod the same
        p^k as ``x`` and ``y`` (c = p), reduced mod p^k.  The product's rows
        k >= f reduce through ``zred2``."""
        e, f, pk = self.e, self.f, x.mod
        # zeta^k pi^j of the product, pi^e folded to p, is flat[k e + j]
        flat = x.mul(y)
        rows = [flat[s:s + e] for s in range(0, (2 * f - 1) * e, e)]
        out = rows[:f]
        for k in range(f, 2 * f - 1):
            rowk = rows[k]
            for r, oi in zip(self.zred2[k], out):
                if r:
                    for j in range(e):
                        oi[j] = (oi[j] + r * rowk[j]) % pk
        return out

    def log_coefficients(self, N: int, dmax: int, prec: int) -> list:
        """c_n = p^dmax (-1)^(n+1) / n mod p^prec at index n = 1..N (index 0
        is 0), read off the table built with the tower.  Needs N < e K and
        dmax >= v_p(n) for every n <= N."""
        table = self._log_table
        if N >= len(table):
            raise CertificateFailure(
                f"log coefficients reach n = {len(table) - 1}, not {N}")
        pk = self.p ** prec
        scale = [self.p ** (dmax - v) for v in range(dmax + 1)]
        return [0] + [u * scale[v] % pk for u, v in table[1:N + 1]]

    def __repr__(self):
        c = self.config
        return (f"Tower(p={c.p}, l={c.l}, m={c.m}, f={c.f}, K={c.K})")


def build_tower(config: TowerConfig) -> Tower:
    """Validate the configuration and construct the ring context."""
    return Tower(config)


class TowerElement:
    """Immutable element of a tower, coefficients reduced mod p^prec.

    The constructor clamps prec to K and takes only an f x e matrix of
    residues in [0, p^prec); :meth:`Tower.element` reduces any integers.
    """

    __slots__ = ("tower", "coeffs", "prec", "_packed")

    def __init__(self, tower: Tower, coeffs, prec: int):
        prec = tower._prec(prec)
        pk = tower.p ** prec
        rows = tuple(map(tuple, coeffs))
        if (len(rows) != tower.f or any(len(row) != tower.e for row in rows)
                or not all(0 <= c < pk for row in rows for c in row)):
            raise UnreducedCoefficients(
                f"need {tower.f} x {tower.e} residues mod p^{prec}")
        self.tower, self.prec, self.coeffs = tower, prec, rows
        self._packed = None

    # -- helpers ---------------------------------------------------------

    def _check(self, other):
        if self.tower is not other.tower:
            raise FamilyMismatch("elements from different towers")

    def at_precision(self, prec: int) -> "TowerElement":
        prec = self.tower._prec(min(prec, self.prec))
        pk = self.tower.p ** prec
        return _element(
            self.tower, [[c % pk for c in row] for row in self.coeffs], prec)

    def is_zero(self) -> bool:
        """Congruent to 0 mod p^prec (never a claim of exact vanishing)."""
        return all(c == 0 for row in self.coeffs for c in row)

    def equals(self, other, precision: int | None = None) -> bool:
        """Agreement modulo p^precision (clipped to the shared precision)."""
        diff = self - other
        target = diff.prec if precision is None else min(precision, diff.prec)
        pk = self.tower.p ** target
        return all(c % pk == 0 for row in diff.coeffs for c in row)

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        self._check(other)
        return (self - other).is_zero()

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self.tower.from_int(other, self.prec)
        elif not isinstance(other, TowerElement):
            return NotImplemented
        self._check(other)
        prec = min(self.prec, other.prec)
        pk = self.tower.p ** prec
        c = [[(a + b) % pk for a, b in zip(ra, rb)]
             for ra, rb in zip(self.coeffs, other.coeffs)]
        return _element(self.tower, c, prec)

    __radd__ = __add__

    def __neg__(self):
        pk = self.tower.p ** self.prec
        return _element(
            self.tower, [[(-a) % pk for a in row] for row in self.coeffs],
            self.prec)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.tower.from_int(other, self.prec)
        elif not isinstance(other, TowerElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def _packed_at(self, pk: int) -> pu.FoldRows:
        """The zeta-rows packed mod ``pk`` for products mod pi^e - p; kept
        in the slot until asked for at another modulus."""
        packed = self._packed
        if packed is None or packed.mod != pk:
            packed = self._packed = pu.FoldRows(self.coeffs, pk, self.tower.p)
        return packed

    def __mul__(self, other):
        t = self.tower
        if isinstance(other, int):
            pk = t._mul_moduli[self.prec]
            return _element(
                t, [[(other * a) % pk for a in row] for row in self.coeffs],
                self.prec)
        if not isinstance(other, TowerElement):
            return NotImplemented
        self._check(other)
        prec = min(self.prec, other.prec)
        pk = t._mul_moduli[prec]
        if t.f * t.e == 1:
            return _element(
                t, [[self.coeffs[0][0] * other.coeffs[0][0] % pk]], prec)
        x = self._packed_at(pk)
        y = x if other is self else other._packed_at(pk)
        return _element(t, t.product_rows(x, y), prec)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power {n} of a tower element")
        if n == 0:
            return self.tower.one(self.prec)
        # left to right over the bits below the top one
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def inverse(self) -> "TowerElement":
        """Inverse of a unit, by residue inversion plus Newton lifting."""
        if valuation(self) != 0:
            raise NotAUnit("inverse requires valuation 0")
        t = self.tower
        p, f, e = t.p, t.f, t.e
        # the inverse of the W-part's residue in F_p[zeta] starts the lift
        w0 = [self.coeffs[i][0] % p for i in range(f)]
        s, _ = pu.fp_ext_bezout(pu.trim(w0), [c % p for c in t.g], p)
        inv_w = [[0] * e for _ in range(f)]
        for i, c in enumerate(s[:f]):
            inv_w[i][0] = c
        x = _element(t, inv_w, 1)
        # Newton: x <- x (2 - a x).  At precision 1, v_pi(1 - a x) >= 1
        # doubles each step, so ceil(log2 e) steps invert a mod p; then each
        # step lifts from k to the next length of pu.newton_lengths(prec),
        # with a and x built once per precision and step, so each packs once
        lengths = [1] * (e - 1).bit_length() + pu.newton_lengths(self.prec)
        a_at = {k: self.at_precision(k) for k in set(lengths)}
        for k in lengths:
            x = _element(t, x.coeffs, k)
            x = x * (2 - a_at[k] * x)
        return x.at_precision(self.prec)

    # -- pi / p division -----------------------------------------------------

    def divide_by_pi(self) -> "TowerElement":
        t = self.tower
        p, f, e = t.p, t.f, t.e
        if any(self.coeffs[i][0] % p for i in range(f)):
            raise PrecisionExhausted("element is not divisible by pi")
        prec = self.prec - 1
        if prec < 1:
            raise PrecisionExhausted("no certified digits left after pi-division")
        pk = p ** prec
        c = [[0] * e for _ in range(f)]
        for i in range(f):
            for j in range(1, e):
                c[i][j - 1] = self.coeffs[i][j] % pk
            c[i][e - 1] = (c[i][e - 1] + (self.coeffs[i][0] // p)) % pk
        return _element(t, c, prec)

    def divide_by_p(self) -> "TowerElement":
        t = self.tower
        if any(c % t.p for row in self.coeffs for c in row):
            raise PrecisionExhausted("element is not divisible by p")
        prec = self.prec - 1
        if prec < 1:
            raise PrecisionExhausted("no certified digits left after p-division")
        pk = t.p ** prec
        c = [[(a // t.p) % pk for a in row] for row in self.coeffs]
        return _element(t, c, prec)

    def to_dict(self):
        return {"coeffs": [list(r) for r in self.coeffs], "prec": self.prec}

    def __repr__(self):
        return f"TowerElement({self.to_dict()['coeffs']} @ prec {self.prec})"


def _element(tower: Tower, rows, prec: int) -> TowerElement:
    """Unchecked constructor: rows reduced mod p^prec, 1 <= prec <= K."""
    a = object.__new__(TowerElement)
    a.tower, a.prec, a.coeffs = tower, prec, tuple(map(tuple, rows))
    a._packed = None
    return a


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def apply_automorphism(a: TowerElement, tau_exp: int, frob_exp: int
                       ) -> TowerElement:
    """Apply tau^tau_exp o phi^frob_exp (phi first).

    On basis monomials: zeta^i pi^j -> zeta^(p^frob_exp * i + tau_exp * j) pi^j.
    No precision is lost.
    """
    t = a.tower
    e, f = t.e, t.f
    pk = t.p ** a.prec
    pb = pow(t.p, frob_exp, e)
    out = [[0] * e for _ in range(f)]
    for i in range(f):
        for j in range(e):
            c = a.coeffs[i][j]
            if c == 0:
                continue
            red = t.zpow[(pb * i + tau_exp * j) % e]
            for k in range(f):
                if red[k]:
                    out[k][j] = (out[k][j] + c * red[k]) % pk
    return _element(t, out, a.prec)


def frobenius_apply(tower: Tower, idx: FrobeniusIndex, a: TowerElement
                    ) -> TowerElement:
    """phi^(gamma) = tau^gamma o phi: zeta -> zeta^p, pi -> zeta^gamma pi."""
    if a.tower is not tower:
        raise FamilyMismatch("element does not belong to this tower")
    return apply_automorphism(a, idx.gamma % tower.e, 1)


def raise_if_bad_word(gammas, word):
    for i in word:
        if not 1 <= i <= len(gammas):
            raise FamilyMismatch(f"direction {i} outside the family")


def frobenius_word_apply(tower: Tower, gammas, word, a: TowerElement
                         ) -> TowerElement:
    """Apply phi_mu for a word mu = (i_1, ..., i_s) over the family."""
    c, s = word_exponents_for(tower.p, gammas, word)
    return apply_automorphism(a, c % tower.e, s)


def primary_class(tower: Tower, gammas, word, a: TowerElement
                  ) -> TowerElement:
    """f_mu(a) = phi_mu(a) - p^|mu| a; no check on the valuation of a."""
    return (frobenius_word_apply(tower, gammas, word, a)
            - a * tower.p ** len(word))


def word_exponents_for(p: int, gammas, word) -> tuple:
    """(tau-exponent, phi-exponent) of phi_{i_1} o ... o phi_{i_s}.

    The tau exponent c(mu) = gamma_{i_1} + p*gamma_{i_2} + ... is kept as an
    exact integer; reduction mod l^m happens only at application time.
    """
    raise_if_bad_word(gammas, word)
    c = 0
    pk = 1
    for i in word:
        c += gammas[i - 1] * pk
        pk *= p
    return c, len(word)


def pi_derivation(tower: Tower, idx: FrobeniusIndex, a: TowerElement
                  ) -> TowerElement:
    """delta a = (phi^(gamma)(a) - a^p) / pi, certified one digit lower."""
    b = frobenius_apply(tower, idx, a) - a ** tower.p
    return b.divide_by_pi()


def pi_valuation(a: TowerElement):
    """v_pi(a) = e * v_p(a), an integer, or +inf when a = 0 mod p^prec.

    The basis zeta^i pi^j is orthonormal: v_pi(a) is the minimum of
    e * v_p(coefficient) + j over nonzero entries.
    """
    p, e = a.tower.p, a.tower.e
    return min((e * pu.vp(c, p) + j for row in a.coeffs
                for j, c in enumerate(row) if c), default=INF)


def valuation(a: TowerElement):
    """v_p(a) in (1/e)Z, or +inf when a = 0 mod p^prec."""
    v = pi_valuation(a)
    return v if v == INF else Fraction(v, a.tower.e)


def check_beta(tower: Tower, beta: TowerElement):
    """Raise BetaTooLarge unless beta lies in the disc v > 1/(p-1)."""
    v = valuation(beta)
    if not v > Fraction(1, tower.p - 1):
        raise BetaTooLarge(f"need v > 1/(p-1) = 1/{tower.p - 1}, got {v}")


def n_of_pi_from(p: int, e: int) -> int:
    """Smallest integer N with v_p(pi^n / n) >= -N for all n >= 1, where
    pi^e = p."""
    best = None
    k = 0
    while True:
        # ceil(k - p^k/e) = -floor((p^k - k*e)/e), no floats involved
        val = -((p ** k - k * e) // e)
        if best is None or val > best:
            best = val
        # p^k/e - k is eventually strictly increasing; stop once safely past
        if p ** k > e * (k + 2) and k >= 2:
            break
        k += 1
    return best


# ---------------------------------------------------------------------------
# elements of the fraction field with explicit p-power denominators
# ---------------------------------------------------------------------------

class QElement:
    """num / p^den with num a TowerElement: keeps congruence tests exact."""

    __slots__ = ("num", "den")

    def __init__(self, num: TowerElement, den: int = 0):
        self.num = num
        self.den = den

    @property
    def tower(self):
        return self.num.tower

    def valuation(self):
        v = valuation(self.num)
        return v if v == INF else v - self.den

    def certified_precision(self) -> int:
        return self.num.prec - self.den

    def is_zero(self) -> bool:
        """The numerator is 0 mod p^prec (never a claim of exact vanishing)."""
        return self.num.is_zero()

    def __add__(self, other):
        if not isinstance(other, QElement):
            return NotImplemented
        d = max(self.den, other.den)
        a, b = (x.num if x.den == d else x.num * self.tower.p ** (d - x.den)
                for x in (self, other))
        return QElement(a + b, d)

    def __neg__(self):
        return QElement(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, QElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TowerElement):
            other = QElement(other, 0)
        elif not isinstance(other, QElement):
            return NotImplemented
        return QElement(self.num * other.num, self.den + other.den)

    def normalized(self) -> "QElement":
        """Cancel p-powers shared by the numerator and the denominator."""
        q = self
        while q.den > 0:
            try:
                q = QElement(q.num.divide_by_p(), q.den - 1)
            except PrecisionExhausted:
                break
        return q

    def __repr__(self):
        return f"QElement({self.num!r} / p^{self.den})"
