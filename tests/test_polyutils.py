import random

import pytest
from hypothesis import given, settings, strategies as st

from frobjet import polyutils as pu

MOD = 11 ** 19


def double_loop(a, b, mod, n):
    out = [0] * n
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            if i + j < n:
                out[i + j] += c * d
    return [c % mod for c in out[:max(0, min(len(a) + len(b) - 1, n))]]


@pytest.mark.parametrize("la, lb", [
    (3, 3), (7, 7), (8, 8), (9, 9), (7, 400), (8, 400), (400, 34), (1, 9),
    (40, 39)])
@pytest.mark.parametrize("cut", [0, 1, 5])
def test_ser_mul_both_branches(la, lb, cut):
    """The schoolbook branch (shorter operand below 8) and the Kronecker
    branch against a plain double loop, truncated and not."""
    rng = random.Random(la * 1000 + lb)
    a = [rng.randrange(-MOD, MOD) for _ in range(la)]
    b = [rng.randrange(MOD) for _ in range(lb)]
    n = la + lb - 1 - cut * (la + lb) // 8
    assert pu.ser_mul(a, b, MOD, n) == double_loop(a, b, MOD, n)


def repeated_division(a, f, n, mod):
    d = len(f) - 1
    digits = []
    for _ in range(n):
        a, r = pu.pdivmod_monic(a, f, mod)
        digits.append(r + [0] * (d - len(r)))
    return digits, pu.trim([c % mod for c in a])


FADIC_CASES = sorted({(d, n, length) for d in (1, 2, 3, 4)
                      for n in (0, 1, 2, 9, 17, 50)
                      for length in (0, 1, d - 1, d * n, d * n + 1,
                                     d * n + 7)})


@pytest.mark.parametrize("d, n, length", FADIC_CASES)
def test_fadic_expand_matches_repeated_division(d, n, length):
    """One numerator alone, and the same one between a shorter and a longer
    numerator that share its powers of f and inverses."""
    rng = random.Random(d * 10000 + n * 100 + length)
    for mod in (7, 5 ** 9, MOD):
        f = [rng.randrange(mod) for _ in range(d)] + [1]
        nums = [[rng.randrange(-mod, mod) for _ in range(k)]
                for k in (length, length // 2, length + d + 3)]
        want = [repeated_division(a, f, n, mod) for a in nums]
        assert pu.fadic_expand(nums[:1], f, n, mod) == want[:1]
        assert pu.fadic_expand(nums, f, n, mod) == want


@pytest.mark.parametrize("a4, a6", [(2, 5), (0, 3), (4, 0)])
@pytest.mark.parametrize("n", [0, 1, 8, 9, 126])
def test_fadic_expand_curve_cubic(a4, a6, n):
    """The monic cubic of the curves, over the Kedlaya modulus, with two
    inputs a little longer than f^n, p apart, as the two Kedlaya columns."""
    rng = random.Random(n)
    f = [a6, a4, 0, 1]
    a = [rng.randrange(MOD) for _ in range(3 * n + 10)]
    nums = [a, [0] * 7 + a]
    assert pu.fadic_expand(nums, f, n, MOD) == [
        repeated_division(x, f, n, MOD) for x in nums]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 40),
       st.lists(st.integers(0, 200), min_size=1, max_size=4),
       st.integers(0, 2 ** 32))
def test_fadic_expand_shares_inverses(d, n, lengths, seed):
    """Several numerators in one call equal one call each, in input order,
    and invert no more reversed powers of f than the longest alone."""
    rng = random.Random(seed)
    mod = 5 ** 9
    f = [rng.randrange(mod) for _ in range(d)] + [1]
    nums = [[rng.randrange(-mod, mod) for _ in range(k)] for k in lengths]
    calls = []
    inv = pu.ser_inv

    def counting(*args):
        calls.append(args)
        return inv(*args)

    pu.ser_inv = counting
    try:
        together = pu.fadic_expand(nums, f, n, mod)
        shared = len(calls)
        del calls[:]
        pu.fadic_expand([max(nums, key=len)], f, n, mod)
        alone = len(calls)
    finally:
        pu.ser_inv = inv
    assert together == [pu.fadic_expand([a], f, n, mod)[0] for a in nums]
    assert shared == alone


@pytest.mark.parametrize("p, cap", [(3, 1), (5, 4), (7, 6)])
def test_vp_capped(p, cap):
    """v_p(x mod p^cap): cap at 0 and at multiples of p^cap, 0 at units,
    the true valuation in between, also for negative x."""
    assert pu.vp_capped(0, p, cap) == cap
    for k in (1, 2, p + 1, -1):
        assert pu.vp_capped(k * p ** cap, p, cap) == cap
        assert pu.vp_capped(k * p ** (cap + 3), p, cap) == cap
    for u in (1, 2, p - 1, p + 1, -1, -(p + 1)):
        assert pu.vp_capped(u, p, cap) == 0
    for v in range(cap):
        assert pu.vp_capped((p + 1) * p ** v, p, cap) == v
        assert pu.vp_capped(-(p ** v), p, cap) == v
