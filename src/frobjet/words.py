"""Free monoid of direction words and the ring of integral weights.

A word is a tuple of letters from {1, ..., n}; the empty tuple is the monoid
identity.  Serialized form is the digit string ("" for the identity, "12"
for the two-letter word 1,2).  A weight is a finite integer combination of
words; weights multiply through word concatenation.  Exponentiation of ring
elements by a weight means prod_mu phi_mu(x)^(m_mu).  The words of length
<= r act pairwise differently when their exponent pairs from
``tower.word_exponents_for`` are distinct.
"""

from __future__ import annotations

from itertools import product

from .errors import EmptyWord, NotAUnit
from .tower import (Tower, TowerElement, frobenius_word_apply, valuation,
                    word_exponents_for)

Word = tuple


def word_from_string(s: str) -> Word:
    return tuple(int(ch) for ch in s)


def word_to_string(w: Word) -> str:
    return "".join(str(i) for i in w)


def words_up_to(n: int, r: int) -> list:
    """All words of length <= r, ordered by length then lexicographically.

    The count is 1 + n + n^2 + ... + n^r; the ordering is the canonical one
    used for matrix layouts everywhere in the package.
    """
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    out = [()]
    for s in range(1, r + 1):
        out.extend(product(range(1, n + 1), repeat=s))
    return out


class Weight:
    """Finite map word -> integer, an element of the integral symbol ring."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = dict(terms or {})
        self.terms = {w: m for w, m in t.items() if m != 0}

    @classmethod
    def one(cls) -> "Weight":
        return cls({(): 1})

    def degree(self) -> int:
        return sum(self.terms.values())

    def __add__(self, other):
        t = dict(self.terms)
        for w, m in other.terms.items():
            t[w] = t.get(w, 0) + m
        return Weight(t)

    def __neg__(self):
        return Weight({w: -m for w, m in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Weight({w: m * other for w, m in self.terms.items()})
        t = {}
        for w1, m1 in self.terms.items():
            for w2, m2 in other.terms.items():
                w = w1 + w2
                t[w] = t.get(w, 0) + m1 * m2
        return Weight(t)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Weight) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_dict(self):
        return {word_to_string(w): m for w, m in sorted(self.terms.items())}

    def __repr__(self):
        return f"Weight({self.to_dict()})"


def cocycle_weight(mu: Word) -> Weight:
    """The weight 1 + phi_{i1} + phi_{i1 i2} + ... + phi_{i1 ... i_(r-1)}.

    This is the pi-power weight appearing in the prolongation remainder
    identity phi_mu T = pi^w(mu) * delta_mu T + (lower order).
    """
    if len(mu) == 0:
        raise EmptyWord("cocycle weight needs a nonempty word")
    terms = {(): 1}
    for k in range(1, len(mu)):
        terms[tuple(mu[:k])] = terms.get(tuple(mu[:k]), 0) + 1
    return Weight(terms)


def lambda_pow(lam: TowerElement, w: Weight, tower: Tower, gammas
               ) -> TowerElement:
    """lam^w = prod over words mu of phi_mu(lam)^(m_mu).

    Negative exponents require lam to be a unit; non-units are accepted when
    every exponent is nonnegative.
    """
    v = valuation(lam)
    if v != 0 and any(m < 0 for m in w.terms.values()):
        raise NotAUnit(
            "negative weight exponents require a unit base element")
    out = tower.one(lam.prec)
    for mu, m in sorted(w.terms.items()):
        factor = frobenius_word_apply(tower, gammas, mu, lam)
        out = out * (factor ** m if m >= 0 else factor.inverse() ** (-m))
    return out


def check_monomial_independence(tower: Tower, gammas, r: int):
    """Whether all words of length <= r act pairwise differently.

    A word mu acts as tau^(c(mu)) o phi^(|mu|) with the exact integer
    exponent c(mu) = sum_j p^(j-1) gamma_{i_j}; two words act identically on
    the full l-tower (through pi and the Teichmuller generator zeta of W)
    iff their (length, c) pairs agree.  Returns (independent, witness) where
    witness maps each word to its exponent pair.
    """
    if len(set(gammas)) != len(gammas):
        return False, {"duplicate_gammas": list(gammas)}
    witness = {}
    seen = {}
    ok = True
    for word in words_up_to(len(gammas), r):
        c, s = word_exponents_for(tower.p, gammas, word)
        key = (s, c)
        witness[word_to_string(word)] = {"length": s, "tau_exponent": c}
        if key in seen and seen[key] != word:
            ok = False
        seen.setdefault(key, word)
    return ok, witness
