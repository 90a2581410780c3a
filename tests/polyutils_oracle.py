"""Slow oracles for the Kronecker product and the division by a monic
polynomial.

``kron_mul_one_point`` is ``polyutils.kron_mul`` as it ran before the
two-point evaluation: both lists packed at 2^(8w) with a limb of one spare
byte over the product bound and at least 4 bytes, and one native product.
``pdivmod_monic`` is ``polyutils.pdivmod_monic`` as it ran before it shared
``fadic_expand``'s in-place loop: it subtracts every divisor coefficient,
the leading 1 included, and reduces at every update.  They are kept here
only so that the tests can compare the fast paths against them.
"""

from __future__ import annotations

from frobjet.errors import CertificateFailure, DivisionByZero
from frobjet.polyutils import trim


def _limb_bytes(mod: int, nterms: int) -> int:
    prodmax = (mod - 1) * (mod - 1) * max(nterms, 1)
    width = (prodmax.bit_length() + 7) // 8 + 1
    return max(width, 4)


def kron_mul_one_point(a: list, b: list, mod: int, n: int) -> list:
    """First ``n`` coefficients of the product of the residues mod ``mod`` of
    two nonempty coefficient lists, as exact integers; inputs are not cut.

    Kronecker substitution: each list is packed into one big integer with
    limbs wide enough that no product coefficient spills into the next, and
    the limbs of the native product are read back.  Callers reduce.
    """
    w = _limb_bytes(mod, min(len(a), len(b)))
    abig = int.from_bytes(
        b"".join([(c % mod).to_bytes(w, "little") for c in a]), "little")
    bbig = int.from_bytes(
        b"".join([(c % mod).to_bytes(w, "little") for c in b]), "little")
    raw = (abig * bbig).to_bytes(w * (len(a) + len(b)), "little")
    return [int.from_bytes(raw[k:k + w], "little")
            for k in range(0, min(len(a) + len(b) - 1, n) * w, w)]


def pdivmod_monic(a, b, mod):
    """Divide by a monic polynomial ``b``; returns (quotient, remainder)."""
    if not b:
        raise DivisionByZero("division by zero polynomial")
    if b[-1] % mod != 1:
        raise CertificateFailure("divisor must be monic")
    a = [c % mod for c in a]
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    r = list(a)
    for i in range(len(a) - db - 1, -1, -1):
        c = r[i + db] % mod
        if c:
            q[i] = c
            for j, d in enumerate(b):
                r[i + j] = (r[i + j] - c * d) % mod
    return trim(q), trim(r)
