"""Integer-coefficient polynomial and power-series helpers.

Polynomials are plain Python lists ``[a0, a1, ...]`` (index = degree) with the
convention that trailing zeros are trimmed and ``[]`` is the zero polynomial.
All modular routines keep coefficients reduced into ``[0, mod)``.

Long series (curve logarithms to degree several thousand) and tower
elements are multiplied by Kronecker substitution: a list is packed once
into big integers, and the product is CPython's native big-int product with
its limbs read back, each reduced as it is read.  ``Packed`` and
``packed_mul`` do this for truncated series; ``FoldRows`` for the rows of a
matrix multiplied mod X^e - c, each row product folded on the whole
integer, and ``fold_combine`` for an integer combination of such matrices,
one integer sum and one read-back per row.
"""

from __future__ import annotations

import functools
import random
from itertools import zip_longest
from math import gcd
from operator import mul

from .errors import CertificateFailure, DivisionByZero


def trim(a: list) -> list:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def padd(a, b, mod):
    return trim([(x + y) % mod for x, y in zip_longest(a, b, fillvalue=0)])


def psub(a, b, mod):
    return padd(a, [-c for c in b], mod)


def _divide_monic(a: list, low: list, d: int, mod: int) -> None:
    """Divide ``a`` in place by the monic x^d + sum c_j x^j, given by the
    pairs (j, c_j) of ``low`` with c_j != 0 mod ``mod``: a[d:] becomes the
    quotient, reduced, and a[:d] the remainder, not yet reduced."""
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] = a[i] % mod
        for j, cj in low:
            a[i - d + j] -= c * cj


def pdivmod_monic(a, b, mod):
    """Divide by a monic polynomial ``b``; returns (quotient, remainder)."""
    if not b:
        raise DivisionByZero("division by zero polynomial")
    if b[-1] % mod != 1:
        raise CertificateFailure("divisor must be monic")
    a, d = list(a), len(b) - 1
    _divide_monic(a, [(j, c % mod) for j, c in enumerate(b[:-1]) if c % mod],
                  d, mod)
    return trim(a[d:]), trim([c % mod for c in a[:d]])


def fp_monic(a, p):
    a = trim([c % p for c in a])
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


def fp_gcd(a, b, p):
    a, b = trim([c % p for c in a]), trim([c % p for c in b])
    while b:
        _, r = pdivmod_monic(a, fp_monic(b, p), p)
        a, b = b, trim(r)
    return fp_monic(a, p)


def fp_ext_bezout(a, b, p):
    """Return (s, t) with ``s*a + t*b = 1`` over GF(p); requires coprimality."""
    r0, r1 = trim([c % p for c in a]), trim([c % p for c in b])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        lead = pow(r1[-1], p - 2, p)
        q, r = pdivmod_monic(r0, [(c * lead) % p for c in r1], p)
        q = [(c * lead) % p for c in q]
        r0, r1 = r1, trim(r)
        s0, s1 = s1, psub(s0, ser_mul(q, s1, p, len(q) + len(s1)), p)
        t0, t1 = t1, psub(t0, ser_mul(q, t1, p, len(q) + len(t1)), p)
    if len(r0) != 1:
        raise ValueError("polynomials are not coprime mod p")
    inv = pow(r0[0], p - 2, p)
    return [(c * inv) % p for c in s0], [(c * inv) % p for c in t0]


def fp_powmod(base, e, modpoly, p):
    result = [1]
    base = pdivmod_monic(base, modpoly, p)[1]
    while e:
        if e & 1:
            prod = ser_mul(result, base, p, len(result) + len(base))
            result = pdivmod_monic(prod, modpoly, p)[1]
        square = ser_mul(base, base, p, 2 * len(base))
        base = pdivmod_monic(square, modpoly, p)[1]
        e >>= 1
    return result


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def multiplicative_order(a: int, n: int) -> int:
    """Order of ``a`` in (Z/n)^*; n = 1 gives order 1."""
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    k, x = 1, a % n
    while x != 1:
        x = (x * a) % n
        k += 1
    return k


def cyclotomic_prime_power(l: int, m: int) -> list:
    """Coefficients of the (l^m)-th cyclotomic polynomial, l prime."""
    if m == 0:
        return [-1, 1]
    # x^(l^m) - 1 divided by x^(l^(m-1)) - 1: sum of x^(j*l^(m-1)), j < l
    step = l ** (m - 1)
    out = [0] * (step * (l - 1) + 1)
    for j in range(l):
        out[j * step] = 1
    return trim(out)


# each Cantor-Zassenhaus try splits a product of equal-degree factors with
# probability about 1/2; the towers of p < 60, l^m <= 130 need at most 9
EDF_TRIES = 64


def equal_degree_factor(poly, d: int, p: int) -> list:
    """One monic irreducible degree-``d`` factor of a squarefree ``poly``
    over GF(p), all of whose irreducible factors have degree ``d``
    (Cantor-Zassenhaus splitting, seeded so the factor is deterministic).
    A ``poly`` not split after EDF_TRIES tries raises ``ValueError``."""
    rng = random.Random(0xC2)
    poly = fp_monic(poly, p)
    if len(poly) - 1 == d:
        return poly
    for _ in range(EDF_TRIES):
        r = [rng.randrange(p) for _ in range(len(poly) - 1)]
        r = trim(r)
        if len(r) < 2:
            continue
        g = fp_gcd(poly, r, p)
        if 1 < len(g) < len(poly):
            cand = g
        else:
            h = fp_powmod(r, (p ** d - 1) // 2, poly, p)
            h = psub(h, [1], p)
            cand = fp_gcd(poly, h, p)
            if not (1 < len(cand) < len(poly)):
                continue
        # cand is monic and, like poly, a product of degree-d factors
        if len(cand) - 1 == d:
            return cand
        poly = cand
    raise ValueError(f"no degree-{d} factor split off in {EDF_TRIES} tries: "
                     f"the polynomial is not a product of degree-{d} factors")


def hensel_lift_factor(f, g0, p: int, K: int) -> list:
    """Lift a monic factor ``g0`` of ``f`` from mod p to mod p^K.

    ``f`` must be monic with integer coefficients and ``f = g0*h0 mod p``
    with gcd(g0, h0) = 1 mod p.  Linear lifting, one digit per step, is
    plenty fast at the precisions used here.
    """
    g0 = fp_monic(g0, p)
    h0, rem = pdivmod_monic([c % p for c in f], g0, p)
    if trim(rem):
        raise CertificateFailure("g0 does not divide f mod p")
    s, t = fp_ext_bezout(g0, h0, p)
    g = list(g0)
    h = list(h0)
    pk = p
    for _ in range(K - 1):
        mod_next = pk * p
        gh = ser_mul(g, h, mod_next, len(g) + len(h))
        err = psub([c % mod_next for c in f], gh, mod_next)
        if any(c % pk for c in err):
            raise CertificateFailure("Hensel lift lost its congruence")
        e = [(c // pk) % p for c in err]
        # solve u*h + v*g = e mod p with deg u < deg g
        u = pdivmod_monic(ser_mul(t, e, p, len(t) + len(e)), g, p)[1]
        num = psub(e, ser_mul(u, h, p, len(u) + len(h)), p)
        v, r = pdivmod_monic(num, g, p)
        if trim(r):
            raise CertificateFailure("Hensel correction left a remainder")
        g = padd(g, [(c * pk) % mod_next for c in u], mod_next)
        h = padd(h, [(c * pk) % mod_next for c in v], mod_next)
        pk = mod_next
    return g


# ---------------------------------------------------------------------------
# Kronecker-substitution power series over Z/mod (dense int lists, index =
# degree).  ``n`` below is the truncation length: results keep degrees < n.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)   # tower packs repeat (p^k, (1 + p) f e)
def _limb_bytes(mod: int, nterms: int) -> int:
    """Whole bytes that hold (mod - 1)^2 * nterms, at least one."""
    return max((((mod - 1) ** 2 * nterms).bit_length() + 7) // 8, 1)


KS2_MIN_TERMS = 32   # the term bound from which Packed takes two points
KRONECKER_MIN_TERMS = 8   # the shorter length from which ser_mul packs
# up to this many limbs _pack and _unpack shift them in and out one by one;
# from about there on a byte string costs less
SHIFT_LIMBS_MAX = 24


def _pack(a: list, mod: int, w: int) -> int:
    """sum (a_i mod ``mod``) * 2^(8 w i): the residues in w-byte limbs."""
    if len(a) <= SHIFT_LIMBS_MAX:
        s, big = 8 * w, 0
        for c in reversed(a):
            big = (big << s) | c % mod
        return big
    return int.from_bytes(
        b"".join([(c % mod).to_bytes(w, "little") for c in a]), "little")


def _unpack(x: int, w: int, size: int, count: int, mod: int) -> list:
    """The first ``count`` w-byte limbs of ``x`` < 2^(8 w size), each
    reduced mod ``mod`` as it is read."""
    if count <= SHIFT_LIMBS_MAX:
        s = 8 * w
        mask = (1 << s) - 1
        return [(x >> k & mask) % mod for k in range(0, s * count, s)]
    raw = x.to_bytes(w * size, "little")
    fb = int.from_bytes     # looked up once, not once per limb
    return [fb(raw[k:k + w], "little") % mod
            for k in range(0, count * w, w)]


class Packed:
    """The residues mod ``mod`` of a nonempty list, packed for products with
    lists packed at the same modulus and term ``bound`` (the shorter
    operand's length) in limbs of w = ``_limb_bytes(mod, bound)`` bytes: a
    product coefficient sums at most ``bound`` products, and ``packed_mul``
    reduces each limb mod ``mod`` as it reads it back.  ``big`` is the
    polynomial A of the residues at 2^(8w) and ``minus`` None; from
    ``KS2_MIN_TERMS`` on, where the halved multiply saves more than the
    extra packing costs, they are A(2^s) and A(-2^s) with s = 4w bits,
    A_even(2^2s) +- 2^s A_odd(2^2s) (Harvey's KS2, arXiv:0712.4046).

    A list that several products share is packed once, with its own length
    as the term bound, and ``fixed_mul`` packs only each partner: f^p and
    -N/4 in Kedlaya's Horner loop, each f^h less its leading 1 and each
    reversed inverse in ``fadic_expand``, and each Newton iterate of
    ``ser_inv``.
    """

    __slots__ = ("mod", "bound", "length", "w", "big", "minus")

    def __init__(self, a: list, mod: int, bound: int):
        self.mod, self.bound, self.length = mod, bound, len(a)
        self.w = w = _limb_bytes(mod, bound)
        if bound < KS2_MIN_TERMS:
            self.big, self.minus = _pack(a, mod, w), None
        else:
            even = _pack(a[0::2], mod, w)
            odd = _pack(a[1::2], mod, w) << 4 * w
            self.big, self.minus = even + odd, even - odd


def packed_mul(x: Packed, y: Packed, n: int) -> list:
    """First ``n`` coefficients of the product of two lists packed at the
    same modulus and term bound, reduced mod that modulus.  At
    +-2^s the half sum of the two products holds the even coefficients and
    the half difference, shifted down s + 1 bits, the odd ones; only product
    coefficients are read back, so a residue need not fit in s bits.
    ``x is y`` squares."""
    la, lb, w = x.length, y.length, x.w
    if x.mod != y.mod or x.bound != y.bound or min(la, lb) > x.bound:
        raise CertificateFailure("operands packed for different products")
    size = min(la + lb - 1, n)
    mod = x.mod
    if x.minus is None:
        return _unpack(x.big * y.big, w, la + lb, size, mod)
    pp, pm = x.big * y.big, x.minus * y.minus
    half = (la + 1) // 2 + (lb + 1) // 2
    out = [0] * size
    out[0::2] = _unpack((pp + pm) >> 1, w, half, (size + 1) // 2, mod)
    out[1::2] = _unpack((pp - pm) >> (4 * w + 1), w, half, size // 2, mod)
    return out


class FoldRows:
    """The residues mod ``mod`` of a nonempty list of r equally long rows,
    each a polynomial in X of degree < e, packed for products mod X^e - ``c``
    (c >= 0) with matrices packed at the same modulus, c and shape.  Row i
    is its own integer, the residues at 2^(8w) in e limbs of w =
    ``_limb_bytes(mod, (1 + c) r e)`` bytes, with no gap limbs: a folded
    coefficient c_j + c c_(e+j) of a product row is at most (1 + c) r e
    times (mod - 1)^2.  ``mul`` and ``fold_combine`` read each limb back
    reduced mod ``mod``.
    """

    __slots__ = ("mod", "c", "e", "w", "rows")

    def __init__(self, rows, mod: int, c: int):
        e = len(rows[0])
        self.mod, self.c, self.e = mod, c, e
        self.w = w = _limb_bytes(mod, (1 + c) * len(rows) * e)
        self.rows = [_pack(row, mod, w) for row in rows]

    def mul(self, other: "FoldRows") -> list:
        """The r + r' - 1 rows sum_{i+j=k} x_i y_j mod X^e - c of the product
        with ``other`` (r' rows), flattened and reduced mod ``mod``.  Each
        row sum P, of 2e - 1 limbs, folds as one integer,
        (P & low) + c (P >> 8we): the limbs of X^(e+j) land on X^j, c times.
        Zero rows are skipped, ``other is self`` squares (each x_i x_j,
        i < j, once and doubled), and the folded rows are read back at once,
        e limbs each."""
        if other.w != self.w or other.c != self.c or other.e != self.e:
            raise CertificateFailure("rows packed for different products")
        xs, ys, w, e = self.rows, other.rows, self.w, self.e
        size = len(xs) + len(ys) - 1
        sums = [0] * size
        if other is self:
            for i, x in enumerate(xs):
                if x:
                    sums[2 * i] += x * x
                    for j in range(i + 1, len(xs)):
                        if xs[j]:
                            sums[i + j] += x * xs[j] << 1
        else:
            for i, x in enumerate(xs):
                if x:
                    for k, y in enumerate(ys, i):
                        if y:
                            sums[k] += x * y
        shift = 8 * w * e
        low, c, acc = (1 << shift) - 1, self.c, 0
        for prod in reversed(sums):
            acc = (acc << shift) + (prod & low) + c * (prod >> shift)
        return _unpack(acc, w, size * e, size * e, self.mod)


def fold_combine(packs: list, cs) -> list:
    """sum_k cs[k] x_k of matrices ``packs`` packed as ``FoldRows`` at one
    modulus, c and shape, reduced mod that modulus: its rows, each one
    integer sum read back once.  A limb holds (1 + c) r e (mod - 1)^2, so
    at most (1 + c) r e coefficients 0 <= c_k < mod fit, and at most one
    per matrix: ``cs`` may be shorter than ``packs``, never longer."""
    x = packs[0]
    top = min(len(packs), (1 + x.c) * len(x.rows) * x.e)
    if len(cs) > top:
        raise CertificateFailure(
            f"{len(cs)} coefficients for a sum of at most {top}")
    w, e, mod = x.w, x.e, x.mod
    # zip over a list: zip(*generator) resizes its argument tuple, and the
    # resized tuples fill CPython's tuple free lists, call after call
    return [_unpack(sum(map(mul, cs, rows)), w, e, e, mod)
            for rows in zip(*[y.rows for y in packs])]


def kron_mul(a: list, b: list, mod: int, n: int) -> list:
    """``packed_mul`` of two nonempty lists, each packed with the term bound
    min(len a, len b): the first ``n`` coefficients of their product,
    reduced mod ``mod``; ``a is b`` packs once and squares."""
    x = Packed(a, mod, min(len(a), len(b)))
    return packed_mul(x, x if a is b else Packed(b, mod, x.bound), n)


def fixed_mul(a: list, y: Packed, n: int) -> list:
    """``packed_mul`` of ``a[:n]``, packed with ``y``'s term bound, and a
    list packed once as ``y``: their truncated product, reduced mod
    ``y.mod``.  ``y`` packed with its own length as the bound serves a
    partner of any length.  The product has min(len a + y.length - 1, n)
    entries, as in ``ser_mul``.
    """
    a = a[:n]
    if not a:
        return []
    return packed_mul(Packed(a, y.mod, y.bound), y, n)


def ser_mul(a: list, b: list, mod: int, n: int) -> list:
    """Truncated product of dense coefficient lists modulo ``mod``: its
    min(len a + len b - 1, n) entries, reduced.  The leading entries of
    each operand that are 0 mod ``mod``, za and zb of them, come back as
    the product's first za + zb zeros without being multiplied, and each
    operand is cut to what the rest of the product reads; a square
    (``a is b``) stays one list through the cuts, so it packs once."""
    size = min(len(a) + len(b) - 1, n)
    if size <= 0 or not a or not b:
        return []
    square = a is b
    za, top = 0, min(len(a), size)
    while za < top and a[za] % mod == 0:
        za += 1
    zb = za
    if not square:
        zb, top = 0, min(len(b), size - za)
        while zb < top and b[zb] % mod == 0:
            zb += 1
    z = za + zb
    a = a[za:size - zb]
    b = a if square else b[zb:size - za]
    if not a or not b:
        return [0] * size
    if min(len(a), len(b)) < KRONECKER_MIN_TERMS:
        out = [0] * size
        for i, c in enumerate(a, z):
            if c == 0:
                continue
            for j in range(min(len(b), size - i)):
                out[i + j] = (out[i + j] + c * b[j]) % mod
        return out
    out = kron_mul(a, b, mod, size - z)
    return [0] * z + out if z else out


def fadic_expand(nums: list, f: list, n: int, mod: int) -> list:
    """[([d_0, ..., d_(n-1)], Q), ...], one pair per numerator a in ``nums``,
    with a = sum d_j f^j + Q f^n mod ``mod``, for a monic ``f`` of degree d;
    each digit has d entries, Q is trimmed.  Divide and conquer (von zur
    Gathen-Gerhard, Modern Computer Algebra, ch. 9): one division by f^h,
    h = n // 2, through the inverse of its reversal; short pieces are
    divided by f digit by digit in ``pdivmod_monic``'s loop.  The numerators
    share the powers of f and these inverses; the longest is expanded first,
    so every inverse is built once, at the greatest length any needs.  The
    fixed operand of each product, f^h less its leading 1 or an inverse, is
    packed once and multiplied by ``fixed_mul``; an inverse rebuilt longer,
    deep in the recursion of a numerator shorter than f^n, is packed again.
    """
    d = len(f) - 1
    low = [(j, c % mod) for j, c in enumerate(f[:-1]) if c % mod]
    # pows[h] = f^h; lows[h] = f^h less its leading 1 and invs[h] =
    # 1/rev(f^h) to some length, both packed with their lengths as bounds
    pows, lows, invs = {1: [c % mod for c in f]}, {}, {}

    def power(h):
        if h not in pows:
            # f^h = (x^(dj) + f^j less its leading 1) f^(h-j), j = h // 2
            j = h // 2
            pows[h] = padd(fixed_mul(power(h - j), power_low(j), d * h),
                           [0] * (d * j) + power(h - j), mod)
        return pows[h]

    def power_low(h):
        if h not in lows:
            lows[h] = Packed(power(h)[:d * h], mod, d * h)
        return lows[h]

    def expand(a, n):
        h = n // 2
        if n <= 8 or len(a) <= d * h:
            digits = []
            for _ in range(n):
                _divide_monic(a, low, d, mod)
                digits.append([c % mod for c in a[:d]] + [0] * (d - len(a)))
                a = a[d:]
            return digits, trim(a)
        L = len(a) - d * h
        if h not in invs or invs[h].length < L:
            # 1/rev(f^h) = rev(f^(H-h))/rev(f^H) from a cached H > h
            H = min((H for H in invs if H > h and invs[H].length >= L),
                    default=0)
            inv = (fixed_mul(power(H - h)[::-1], invs[H], L) if H
                   else ser_inv(power(h)[::-1], mod, L))
            invs[h] = Packed(inv, mod, len(inv))
        q = fixed_mul(a[::-1], invs[h], L)[::-1]
        qf = fixed_mul(q, power_low(h), d * h)
        r = [(x - y) % mod for x, y in zip(a, qf)]
        hi, Q = expand(q, n - h)
        return expand(r, h)[0] + hi, Q

    out = [None] * len(nums)
    for k in sorted(range(len(nums)), key=lambda k: -len(nums[k])):
        out[k] = expand([c % mod for c in nums[k]], n)
    return out


def newton_lengths(n: int) -> list:
    """The lengths ceil(n / 2^j) > 1 in increasing order, the schedule of a
    Newton lift from length 1 to ``n``: each length is at most twice the one
    before, the last is ``n``, and there are as many as doubling from 1
    takes, each no longer than the doubled length at the same step
    (ceil(n / 2^(K - i)) <= min(2^i, n) for n <= 2^K).  Empty for n <= 1.
    """
    out = []
    while n > 1:
        out.append(n)
        n = (n + 1) // 2
    return out[::-1]


def ser_inv(a: list, mod: int, n: int) -> list:
    """Inverse of a series with unit constant term, to length ``n``: Newton
    x <- x (2 - a x) on the lengths of ``newton_lengths``.  An iterate x
    long enough for ``ser_mul`` to pack is packed once for both of its
    products, with the term bound len(x); a shorter one takes ``ser_mul``'s
    schoolbook loop."""
    c0 = a[0] % mod
    inv0 = modinv(c0, mod)
    x = [inv0]
    for k in newton_lengths(n):
        short = len(x) < KRONECKER_MIN_TERMS
        X = None if short else Packed(x, mod, len(x))
        ax = ser_mul(a[:k], x, mod, k) if short else fixed_mul(a[:k], X, k)
        two_minus = [(-c) % mod for c in ax]
        two_minus[0] = (two_minus[0] + 2) % mod
        x = (ser_mul(two_minus, x, mod, k) if short
             else fixed_mul(two_minus, X, k))
    return x[:n]


def modinv(a: int, mod: int) -> int:
    try:
        return pow(a, -1, mod)
    except ValueError:
        raise DivisionByZero(
            f"{a % mod} not invertible mod {mod}") from None


def floor_log(p: int, n: int) -> int:
    """Largest k with p^k <= n, in integers (0 when n < p)."""
    k, q = 0, p
    while q <= n:
        k += 1
        q *= p
    return k


def vp_capped(x: int, p: int, cap: int) -> int:
    """v_p(x mod p^cap), read as cap when x = 0 mod p^cap."""
    x %= p ** cap
    return cap if x == 0 else vp(x, p)


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
