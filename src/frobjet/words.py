"""Free monoid of direction words.

A word is a tuple of letters from {1, ..., n}; the empty tuple is the monoid
identity.  Serialized form is the digit string ("" for the identity, "12"
for the two-letter word 1,2).  The words of length <= r act pairwise
differently when their exponent pairs from ``tower.word_exponents_for`` are
distinct.
"""

from __future__ import annotations

from itertools import product

from .tower import Tower, word_exponents_for


def word_from_string(s: str) -> tuple:
    return tuple(int(ch) for ch in s)


def word_to_string(w: tuple) -> str:
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
