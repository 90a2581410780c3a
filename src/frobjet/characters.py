"""End-user character computations over a tower level.

This module packages the operations a verification run actually calls:

* the multiplicative-group character  x -> p^N log(phi_i(x) / x^p)  on units,
  an additive-in-products map whose symbol is p^(N+1) (phi_i - p).  It is
  computed as  p^N (phi_i - p)(log x^(q-1)) / (q - 1)  with q = p^f, the
  size of the residue field: x^(q-1) is a 1-unit, so no inverse is taken,
  and q - 1 is prime to p, so the division is one scalar inverse mod p^prec.
  The logarithm is ``tower.log1p``, which owns the tower's packed rows, its
  row product and its table of log coefficients;
* the term-by-term congruence check on logarithm coefficients driven by a
  scaled class triple (the order-(r,s) analogue of the classical
  Atkin--Swinnerton-Dyer integrality conditions);
* the antisymmetric bilinear pairing attached to a word pair, the kernel
  dimension of alpha -> <alpha, beta> over the finite tower level (a
  Q_p-linear map, decided by exact row reduction with valuation pivoting),
  and the two-route reciprocity equality;
* a one-variable Strassman zero-count bound over Z_p, and the exact count
  of the zeros of a polynomial by Hensel recursion on residue classes,
  which raises PrecisionExhausted when a class is still unresolved at the
  requested depth.

All randomized callers are expected to pass seeded RNGs; everything here is
deterministic given its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import polyutils as pu
from .errors import (DistinctWordsRequired, NotAUnit, PrecisionExhausted,
                     SeriesTooShort, ZeroSeries)
from .formal import LogSeries
from .linalg import padic_nullspace
from .tower import (INF, FrobeniusIndex, QElement, Tower, TowerElement,
                    check_beta, frobenius_apply, log1p, n_of_pi_from,
                    primary_class, raise_if_bad_word, valuation)


def gm_character_eval(tower: Tower, idx: FrobeniusIndex, x: TowerElement
                      ) -> QElement:
    """psi_i(x) = p^N log(phi_i(x)/x^p) for a unit x; additive in products.

    Computed without an inverse as

        psi_i(x) = p^N (phi_i - p)(log x^(q-1)) / (q - 1),   q = p^f:

    x^(q-1) is a 1-unit, phi_i(omega) = omega^p on Teichmuller lifts omega
    and log kills roots of unity, so both sides agree on x = omega u for
    every 1-unit u.  q - 1 is prime to p, so the division is one scalar
    inverse mod p^prec.  On zeta-powers and Teichmuller lifts x^(q-1) = 1
    exactly and the logarithm returns at once.
    """
    if valuation(x) != 0:
        raise NotAUnit("the multiplicative character is defined on units")
    p, q1 = tower.p, tower.p ** tower.f - 1
    out = log1p(x ** q1 - 1)
    num = frobenius_apply(tower, idx, out.num) - out.num * p
    num = num * pu.modinv(q1, p ** num.prec)
    N = n_of_pi_from(p, tower.e)
    if N >= 0:
        return QElement(num * p ** N, out.den)
    return QElement(num, out.den - N)


def asd_check(log: LogSeries, fvals: dict, mu, nu, Nmax: int,
              tower: Tower, gammas) -> list:
    """Congruence report for the scaled class triple against the logarithm.

    ``fvals`` holds tower elements "ft_mu", "ft_nu", "f_mu_nu".  For each
    N <= Nmax the combination

        ft_nu phi_mu(b_N)/N - ft_mu phi_nu(b_{p^(r-s) N})/(p^(r-s) N)
                            + f_mu_nu b_{p^r N}/(p^r N)

    must land in p * (integral elements); an entry passes when its valuation
    is >= 1 with a precision certificate of at least 2 (below that the claim
    would be vacuous).  The words must differ: f_{mu,mu} is not a class, and
    every combination for mu = nu would vanish identically.  A logarithm at
    another prime than the tower's is refused with FamilyMismatch.
    """
    mu, nu = tuple(mu), tuple(nu)
    r, s = len(mu), len(nu)
    if mu == nu:
        raise DistinctWordsRequired("asd words must differ")
    if r < s:
        raise DistinctWordsRequired("need |mu| >= |nu|")
    p = tower.p
    log.check_prime(p)
    if log.degree < p ** r * Nmax:
        raise SeriesTooShort(
            f"need logarithm degree >= {p ** r * Nmax}, have {log.degree}")
    raise_if_bad_word(gammas, mu + nu)
    ft_mu, ft_nu, f_mu_nu = fvals["ft_mu"], fvals["ft_nu"], fvals["f_mu_nu"]
    out = []
    for N in range(1, Nmax + 1):
        pieces = []
        for coeff, b_index, extra_p in (
                (ft_nu, N, 0),
                (-ft_mu, p ** (r - s) * N, r - s),
                (f_mu_nu, p ** r * N, r)):
            # b-coefficients live in Z_p, so every family member fixes them
            b = log.b[b_index]
            vN = pu.vp(N, p)
            unit = N // p ** vN
            den = extra_p + vN
            num = coeff * tower.from_int(b) * pu.modinv(unit, p ** tower.K)
            pieces.append(QElement(num, den))
        total = pieces[0] + pieces[1] + pieces[2]
        v = total.valuation()
        cert = total.certified_precision()
        out.append({
            "N": N,
            "valuation": None if v == INF else str(Fraction(v)),
            "certificate": cert,
            "pass": bool((v == INF or v >= 1) and cert >= 2),
        })
    return out


@dataclass(frozen=True)
class PairingContext:
    """Tower, family and the two distinct words of lengths in {1, 2}."""

    tower: Tower
    gammas: tuple
    mu: tuple
    nu: tuple

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(self.gammas))
        object.__setattr__(self, "mu", tuple(self.mu))
        object.__setattr__(self, "nu", tuple(self.nu))
        if self.mu == self.nu:
            raise DistinctWordsRequired("pairing words must differ")
        if not (1 <= len(self.mu) <= 2 and 1 <= len(self.nu) <= 2):
            raise ValueError("word lengths must be 1 or 2")


def pairing(ctx: PairingContext, alpha: TowerElement, beta: TowerElement
            ) -> TowerElement:
    """<alpha, beta> = f_mu(alpha) f_nu(beta) - f_nu(alpha) f_mu(beta) for
    the context's word pair, with f_mu(x) = phi_mu(x) - p^|mu| x; bilinear
    over Q_p and antisymmetric both in the arguments and in the words."""
    def f(word, x):
        return primary_class(ctx.tower, ctx.gammas, word, x)

    return (f(ctx.mu, alpha) * f(ctx.nu, beta)
            - f(ctx.nu, alpha) * f(ctx.mu, beta))


def kernel_dimension(ctx: PairingContext, beta: TowerElement) -> dict:
    """Dimension of {alpha : <alpha, beta> = 0} on the finite tower level.

    The level is a Q_p-space of dimension f*e with basis zeta^i pi^j; the
    map alpha -> <alpha, beta> is Q_p-linear because the family fixes Q_p.
    Row reduction mod p^K with valuation pivoting yields the nullity plus
    witnesses and a precision certificate.
    """
    t = ctx.tower
    n = t.f * t.e
    basis = [_from_flat(t, [int(k == j) for k in range(n)]) for j in range(n)]
    # row i e + j holds the zeta^i pi^j coefficients of <b, beta>
    columns = [sum(pairing(ctx, b, beta).coeffs, ()) for b in basis]
    data = padic_nullspace(list(zip(*columns)), t.p, t.K)
    # a kernel vector is its witness's coordinate vector in the same basis
    data["witnesses"] = [_from_flat(t, vec) for vec in data["kernel"]]
    return data


def _from_flat(tower: Tower, flat) -> TowerElement:
    """The element whose zeta^i pi^j coefficient is flat[i e + j] mod p^K."""
    e = tower.e
    return tower.element([flat[i:i + e] for i in range(0, len(flat), e)])


def reciprocity_check(ctx: PairingContext, alpha: TowerElement,
                      beta: TowerElement) -> bool:
    """<alpha, beta>_{mu,nu} equals <beta, alpha>_{nu,mu}, both routes
    evaluated independently; arguments must sit inside the convergence
    region v > 1/(p-1)."""
    t = ctx.tower
    check_beta(t, alpha)
    check_beta(t, beta)
    lhs = pairing(ctx, alpha, beta)
    flipped = PairingContext(t, ctx.gammas, ctx.nu, ctx.mu)
    rhs = pairing(flipped, beta, alpha)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Strassman counting over Z_p
# ---------------------------------------------------------------------------

@dataclass
class RestrictedSeries:
    """Coefficients a_0..a_M of a series over Z_p whose tail is certified to
    have valuation >= tail_valuation (and eventually to grow)."""

    p: int
    coeffs: list
    tail_valuation: int

    def valuations(self):
        return [None if c == 0 else pu.vp(c, self.p) for c in self.coeffs]


def strassman_count(series: RestrictedSeries):
    """(N*, data): N* is the largest index attaining the minimal coefficient
    valuation, an upper bound for the number of zeros in Z_p.  The tail
    bound must clear the minimum, else the stored window cannot certify."""
    vals = series.valuations()
    finite = [(v, i) for i, v in enumerate(vals) if v is not None]
    if not finite:
        raise ZeroSeries("all stored coefficients vanish")
    vmin = min(v for v, _ in finite)
    if series.tail_valuation <= vmin:
        raise SeriesTooShort(
            "tail valuation bound does not clear the stored minimum")
    nstar = max(i for v, i in finite if v == vmin)
    return nstar, {"min_valuation": vmin, "attained_at":
                   [i for v, i in finite if v == vmin]}


def count_roots_zp(series: RestrictedSeries, depth: int = 12) -> int:
    """Number of zeros in Z_p of f = sum a_n x^n, by exact Hensel recursion.

    Divide f by its content and expand f(r + p y) = f(r) + p f'(r) y + ...
    for each class r mod p.  The class holds no zero when p does not divide
    f(r), and exactly one (Hensel's lemma) when p divides f(r) but not
    f'(r).  Otherwise p divides every coefficient of f(r + p y), and the
    class holds the zeros of f(r + p y) / p^v, counted one level down.
    Level k sees the classes mod p^k; a class still unresolved at level
    ``depth`` (zeros that agree mod p^depth, or a multiple zero) raises
    PrecisionExhausted, and the zero polynomial raises ZeroSeries.
    """
    if not any(series.coeffs):
        raise ZeroSeries("the zero polynomial vanishes on all of Z_p")
    p = series.p

    def count(f, level):
        content = gcd(*f)
        f = [a // content for a in f]
        found = 0
        for r in range(p):
            # g = f(r + p y) by Horner; g[0] = f(r) and g[1] = p f'(r)
            g = []
            for a in reversed(f):
                g = [r * x + p * y for x, y in zip(g + [0], [0] + g)]
                g[0] += a
            if g[0] % p:
                continue
            if g[1] % p ** 2:
                found += 1
            elif level >= depth:
                raise PrecisionExhausted(
                    f"a class mod p^{depth} holds a multiple zero or zeros "
                    "that agree to that depth")
            else:
                found += count(g, level + 1)
        return found

    return count(series.coeffs, 1)
