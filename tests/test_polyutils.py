import random

import pytest
from hypothesis import example, given, settings, strategies as st

from frobjet import polyutils as pu
from frobjet.errors import (CertificateFailure, DivisionByZero,
                            FrobjetError)
from polyutils_oracle import kron_mul_one_point
from polyutils_oracle import pdivmod_monic as pdivmod_monic_oracle

MOD = 11 ** 19
# the moduli of the benchmark's long series and towers
BENCH_MODS = (11 ** 10, 11 ** 19, 7 ** 30, 5 ** 40)
KS2 = pu.KS2_MIN_TERMS


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


@pytest.mark.parametrize("mod", BENCH_MODS)
@pytest.mark.parametrize("la, lb", [
    (KS2 - 1, KS2 - 1), (KS2 - 1, 3 * KS2), (KS2, KS2), (KS2, 3 * KS2 + 1),
    (2 * KS2 + 1, 2 * KS2 + 1)])
def test_kron_mul_worst_case_limb(mod, la, lb):
    """All-(mod - 1) operands: the middle coefficients reach the bound
    (mod - 1)^2 * min(la, lb) that the limb is sized to, on the one-point
    path and the two-point path, and the limb has no spare byte.  The
    product comes back reduced; a carry out of a limb would shift a residue
    by 2^(8w), which an odd modulus > 2 sees."""
    a, b = [mod - 1] * la, [mod - 1] * lb
    bound = (mod - 1) ** 2 * min(la, lb)
    w = pu._limb_bytes(mod, min(la, lb))
    assert 256 ** (w - 1) <= bound < 256 ** w

    def exact(la, lb):
        # coefficient k sums the pairs i + j = k, i < la, j < lb
        return [(mod - 1) ** 2 * (min(k, la - 1) - max(0, k - lb + 1) + 1)
                for k in range(la + lb - 1)]

    assert max(exact(la, lb)) == bound
    got = pu.kron_mul(a, b, mod, la + lb - 1)
    assert got == [c % mod for c in exact(la, lb)]
    assert pu.kron_mul(a, a, mod, 2 * la) == [c % mod for c in exact(la, la)]


@pytest.mark.parametrize("n", [
    1, pu.SHIFT_LIMBS_MAX, pu.SHIFT_LIMBS_MAX + 1, 3 * pu.SHIFT_LIMBS_MAX])
def test_pack_and_unpack_on_both_sides_of_shift_limit(n):
    """Limbs shifted in and out one by one, and as a byte string from
    SHIFT_LIMBS_MAX + 1 on, against a plain sum: any integers go in as
    residues and come back out, all of them or a prefix; limbs that hold
    residues mod mod^2 come back reduced mod ``mod``."""
    mod = 7 ** 30
    w = pu._limb_bytes(mod, 16)
    rng = random.Random(n)
    a = [rng.randrange(-2 * mod, 2 * mod) for _ in range(n)]
    big = pu._pack(a, mod, w)
    assert big == sum((c % mod) << (8 * w * i) for i, c in enumerate(a))
    assert pu._unpack(big, w, n, n, mod) == [c % mod for c in a]
    assert pu._unpack(big, w, n + 1, n // 2, mod) == [
        c % mod for c in a[:n // 2]]
    wide = pu._pack(a, mod ** 2, w)
    assert pu._unpack(wide, w, n, n, mod) == [c % mod for c in a]
    assert pu._unpack(wide, w, n, n, mod ** 2) == [c % mod ** 2 for c in a]


def test_limb_bytes_mod_one():
    assert pu._limb_bytes(1, 1) == pu._limb_bytes(1, 500) == 1


SHAPES = st.one_of(
    st.tuples(st.integers(1, 2 * KS2 + 8), st.integers(1, 2 * KS2 + 8)),
    st.sampled_from([(16, 150), (150, 16), (30, 120), (120, 30),
                     (KS2 - 1, KS2), (KS2, KS2 - 1)]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 2 ** 64, 2 ** 64 + 1]), SHAPES,
       st.sampled_from(["small", "below", "at", "above"]), st.booleans(),
       st.data())
def test_kron_mul_matches_oracle(mod, shape, where, square, data):
    """kron_mul and ser_mul against the one-point oracle and the double
    loop: both sides of the two-point threshold, lopsided shapes, negative
    and unreduced inputs, n below, at and above the full product length,
    and ``a is b``."""
    la, lb = (shape[0], shape[0]) if square else shape
    entries = st.integers(-3 * mod - 3, 3 * mod + 3)
    a = data.draw(st.lists(entries, min_size=la, max_size=la))
    b = a if square else data.draw(st.lists(entries, min_size=lb,
                                            max_size=lb))
    full = la + lb - 1
    n = {"small": data.draw(st.integers(0, 3)),
         "below": data.draw(st.integers(max(full - 8, 0), full - 1)),
         "at": full, "above": full + data.draw(st.integers(1, 8))}[where]
    want = double_loop(a, b, mod, n)
    got = pu.kron_mul(a, b, mod, n)
    assert got == [c % mod for c in kron_mul_one_point(a, b, mod, n)]
    assert got == want
    assert pu.ser_mul(a, b, mod, n) == want


def test_kron_mul_longest_log_product():
    """The longest product of the log-congruence benchmark, 2,421 terms
    mod 11^10, and its square, against the one-point oracle."""
    rng = random.Random(2421)
    mod = 11 ** 10
    a = [rng.randrange(mod) for _ in range(2421)]
    b = [rng.randrange(-mod, 2 * mod) for _ in range(2421)]
    for x, y in ((a, b), (a, a)):
        assert pu.kron_mul(x, y, mod, 4841) == [
            c % mod for c in kron_mul_one_point(x, y, mod, 4841)]
    assert pu.ser_mul(b, b, mod, 2421) == [
        c % mod for c in kron_mul_one_point(b, b, mod, 2421)]


class CountingInt(int):
    """An int whose products are logged as squares (``x * x`` on one
    object) or not."""

    log = []

    def __mul__(self, other):
        self.log.append(other is self)
        return int(self) * int(other)


@pytest.mark.parametrize("length", [KS2, 3 * KS2])
def test_ser_mul_square_packs_once(monkeypatch, length):
    """A square at or above the two-point threshold packs its operand once
    and makes two squarings; a product of two lists packs each once and
    makes two products."""
    calls = []

    class Counting(pu.Packed):
        def __init__(self, a, mod, bound):
            super().__init__(a, mod, bound)
            calls.append(len(a))
            self.big, self.minus = CountingInt(self.big), CountingInt(
                self.minus)

    monkeypatch.setattr(pu, "Packed", Counting)
    monkeypatch.setattr(CountingInt, "log", [])
    rng = random.Random(length)
    a = [rng.randrange(MOD) for _ in range(length)]
    assert pu.ser_mul(a, a, MOD, 2 * length) == double_loop(
        a, a, MOD, 2 * length)
    assert calls == [length] and CountingInt.log == [True, True]
    del calls[:], CountingInt.log[:]
    pu.ser_mul(a, list(a), MOD, 2 * length)
    assert calls == [length, length] and CountingInt.log == [False, False]


def zero_led(rng, zeros, length):
    """``length`` entries: the first ``zeros`` are 0 mod MOD (0, +-MOD or
    2 MOD), the next is not, the rest are any integers."""
    head = [rng.choice([0, MOD, -MOD, 2 * MOD]) for _ in range(zeros)]
    tail = [rng.randrange(1, MOD) + rng.choice([0, MOD, -MOD])]
    tail += [rng.randrange(-MOD, 2 * MOD) for _ in range(length - zeros - 1)]
    return (head + tail)[:length]


KMIN = pu.KRONECKER_MIN_TERMS


@pytest.mark.parametrize("la, lb", [
    (KMIN - 1, KMIN - 1), (KMIN, KMIN), (KMIN + 1, 40), (KS2 - 1, KS2),
    (KS2, KS2), (KS2 + 1, 3 * KS2), (3 * KS2, KMIN), (100, 100)])
@pytest.mark.parametrize("za, zb", [
    (1, 0), (0, 3), (2, 5), ("half", 0), (0, "half"), ("half", "half"),
    ("last", "last"), ("all", 0), (0, "all"), ("all", "all")])
def test_ser_mul_skips_leading_zeros(la, lb, za, zb):
    """Leading entries 0 mod MOD in one operand, in both, and in all of
    them, with the cut operands on both sides of KRONECKER_MIN_TERMS and
    KS2_MIN_TERMS: the product against the one-point oracle, for n below,
    at and past the zeros' reach za + zb and the full length."""
    def count(z, length):
        return {"half": length // 2, "last": length - 1,
                "all": length}.get(z, z)

    za, zb = count(za, la), count(zb, lb)
    rng = random.Random(la * 10 ** 6 + lb * 10 ** 3 + za * 10 + zb)
    a, b = zero_led(rng, za, la), zero_led(rng, zb, lb)
    full = la + lb - 1
    for n in sorted({0, 1, za + zb - 1, za + zb, za + zb + 1, full // 2,
                     full - 1, full, full + 5}):
        want = [c % MOD for c in kron_mul_one_point(a, b, MOD, n)]
        assert len(want) == max(min(full, n), 0)
        assert pu.ser_mul(a, b, MOD, n) == want
        assert pu.ser_mul(a, a, MOD, n) == [
            c % MOD for c in kron_mul_one_point(a, a, MOD, n)]


@pytest.mark.parametrize("za, zb", [(5, 5), (10, 3), (0, 7)])
def test_ser_mul_packs_only_past_the_zeros(monkeypatch, za, zb):
    """Each operand is packed from its first entry that is not 0 mod MOD
    up to what the kept product reads, a square ``a is b`` once, with two
    squarings, and one ``ser_mul`` call makes no other."""
    calls, packed = [], []
    mul = pu.ser_mul

    class Counting(pu.Packed):
        def __init__(self, a, mod, bound):
            super().__init__(a, mod, bound)
            packed.append(len(a))
            self.big, self.minus = CountingInt(self.big), CountingInt(
                self.minus)

    monkeypatch.setattr(pu, "Packed", Counting)
    monkeypatch.setattr(CountingInt, "log", [])
    monkeypatch.setattr(pu, "ser_mul",
                        lambda *args: calls.append(1) or mul(*args))
    rng = random.Random(za * 100 + zb)
    length = 3 * KS2
    a, b = zero_led(rng, za, length), zero_led(rng, zb, length)
    n = 2 * length - 8
    assert pu.ser_mul(a, a, MOD, n) == double_loop(a, a, MOD, n)
    assert packed == [min(length, n - za) - za]
    assert CountingInt.log == [True, True]
    del packed[:], CountingInt.log[:]
    assert pu.ser_mul(a, b, MOD, n) == double_loop(a, b, MOD, n)
    assert packed == [min(length, n - zb) - za, min(length, n - za) - zb]
    assert CountingInt.log == [False, False] and len(calls) == 2


@pytest.mark.parametrize("bound", [3, KS2])
def test_packed_mul_zero_operand_multiplies_nothing(bound):
    """A list of residues that are all 0 gives zeros of the product's
    length, on both sides of KS2."""
    a = pu.Packed([MOD, 0, -2 * MOD] + [0] * (bound - 3), MOD, bound)
    b = pu.Packed(list(range(1, 2 * bound)), MOD, bound)
    assert (b.minus is None) == (bound < KS2)
    assert pu.packed_mul(a, b, 4 * bound) == [0] * (3 * bound - 2)
    assert pu.packed_mul(b, a, bound) == [0] * bound


@pytest.mark.parametrize("other", [
    lambda a: pu.Packed(a, MOD + 1, 5), lambda a: pu.Packed(a, MOD, 6),
    lambda a: pu.Packed(a + [1], MOD, 5)])
def test_packed_mul_mismatch_raises(other):
    """Operands packed at another modulus or term bound, or both longer
    than the bound that sized the limb, are refused, not misread."""
    a = [MOD - 1] * 5
    x = pu.Packed(a + [1] * 10, MOD, 5)
    with pytest.raises(CertificateFailure):
        pu.packed_mul(x, other(a + [1] * 10), 40)
    assert pu.packed_mul(x, pu.Packed(a, MOD, 5), 40) == pu.kron_mul(
        a + [1] * 10, a, MOD, 40)


def fold_loop(x, y, mod, c):
    """The rows sum_{i+j=k} x_i y_j mod X^e - c of the residues, flattened
    and reduced mod ``mod``, by a loop over every pair of entries."""
    e = len(x[0])
    out = [[0] * e for _ in range(len(x) + len(y) - 1)]
    for i, xi in enumerate(x):
        for k, yk in enumerate(y):
            for a, u in enumerate(xi):
                for b, v in enumerate(yk):
                    scale = c if a + b >= e else 1
                    out[i + k][(a + b) % e] += (u % mod) * (v % mod) * scale
    return [v % mod for row in out for v in row]


@pytest.mark.parametrize("mod", BENCH_MODS)
@pytest.mark.parametrize("r, e, c", [
    (1, 1, 7), (1, 2, 7), (1, 4, 5), (2, 4, 7), (2, 8, 7), (3, 7, 11),
    (4, 5, 13), (2, 16, 7), (3, 3, 0)])
def test_fold_rows_worst_case_limb(mod, r, e, c):
    """All-(mod - 1) rows, the largest sums a limb must hold, against the
    loop: a product of two packs, a square, and a pack with a zero row.  The
    rows come back reduced, so every modulus here is odd and > 2: a carry
    out of a limb shifts a residue by 2^(8w)."""
    x = [[mod - 1] * e for _ in range(r)]
    a, b = pu.FoldRows(x, mod, c), pu.FoldRows(x, mod, c)
    assert a.mul(b) == a.mul(a) == fold_loop(x, x, mod, c)
    holes = [[0] * e] + x[1:]
    z = pu.FoldRows(holes, mod, c)
    assert z.mul(a) == a.mul(z) == fold_loop(holes, x, mod, c)
    assert z.mul(z) == fold_loop(holes, holes, mod, c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_fold_rows_matches_loop(data):
    """Rows of any integers, reduced at packing, some rows all 0 mod
    ``mod``; both operands of one shape, as in the tower."""
    mod = data.draw(st.sampled_from([1, 2, 7 ** 3, 5 ** 40]))
    r, e = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 9))
    c = data.draw(st.integers(0, 13))
    entries = st.integers(-2 * mod, 2 * mod)

    def matrix():
        return [data.draw(st.sampled_from([[0] * e, [mod] * e]))
                if data.draw(st.booleans()) else
                data.draw(st.lists(entries, min_size=e, max_size=e))
                for _ in range(r)]
    x, y = matrix(), matrix()
    a, b = pu.FoldRows(x, mod, c), pu.FoldRows(y, mod, c)
    assert a.mul(b) == fold_loop(x, y, mod, c)
    assert a.mul(a) == fold_loop(x, x, mod, c)


@pytest.mark.parametrize("other", [
    lambda x: pu.FoldRows(x, MOD ** 2, 7), lambda x: pu.FoldRows(x, MOD, 6),
    lambda x: pu.FoldRows([row + [1] for row in x], MOD, 7)])
def test_fold_rows_mismatch_raises(other):
    """Rows packed at another modulus, fold constant or row length are
    refused, not misread."""
    x = [[MOD - 1] * 4, [3] * 4]
    a = pu.FoldRows(x, MOD, 7)
    with pytest.raises(CertificateFailure):
        a.mul(other(x))
    with pytest.raises(CertificateFailure):
        other(x).mul(a)


def combine_loop(packs, cs, mod):
    """sum_k cs[k] (packs[k] mod ``mod``), row by row and entry by entry,
    term by term, reduced mod ``mod``."""
    out = [[0] * len(packs[0][0]) for _ in packs[0]]
    for c, x in zip(cs, packs):
        for i, row in enumerate(x):
            for j, v in enumerate(row):
                out[i][j] += c * (v % mod)
    return [[v % mod for v in row] for row in out]


@pytest.mark.parametrize("mod", (7, 7 ** 2) + BENCH_MODS)
@pytest.mark.parametrize("r, n", [(1, 1), (2, 16), (5, 16), (15, 16),
                                  (16, 8), (3, 30)])
def test_packed_vectors_worst_case_limb(mod, r, n):
    """``fold_combine`` of all-(mod - 1) matrices of n entries packed with
    c = r - 1, with all-(mod - 1) coefficients, as many as a limb holds:
    (1 + c) n = r n of them, every entry r n (mod - 1)^2, the most a limb
    must hold, and the limb has no spare byte.  The sum comes back
    reduced; every modulus here is odd and > 2."""
    rows, e = (2, n // 2) if n % 2 == 0 else (1, n)
    x = [[mod - 1] * e for _ in range(rows)]
    packs = [pu.FoldRows(x, mod, r - 1) for _ in range(r * n)]
    bound = r * n * (mod - 1) ** 2
    assert 256 ** (packs[0].w - 1) <= bound < 256 ** packs[0].w
    cs = [mod - 1] * (r * n)
    got = pu.fold_combine(packs, cs)
    assert got == combine_loop([x] * (r * n), cs, mod) == [
        [bound % mod] * e] * rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_packed_vectors_match_loop(data):
    """``fold_combine`` of matrices of any integers, reduced at packing, and
    any number of coefficients up to the number of matrices or the most a
    limb holds."""
    mod = data.draw(st.sampled_from([1, 2, 7 ** 3, 5 ** 40]))
    k, rows = data.draw(st.integers(1, 16)), data.draw(st.integers(1, 3))
    e, c = data.draw(st.integers(1, 10)), data.draw(st.integers(0, 7))
    entries = st.integers(-2 * mod, 2 * mod)
    x = [[data.draw(st.lists(entries, min_size=e, max_size=e))
          for _ in range(rows)] for _ in range(k)]
    top = min(k, (1 + c) * rows * e)
    cs = data.draw(st.lists(st.integers(0, mod - 1), max_size=top))
    packs = [pu.FoldRows(m, mod, c) for m in x]
    assert pu.fold_combine(packs, cs) == combine_loop(x, cs, mod)


def test_packed_vectors_refuse_more_terms():
    """More coefficients than packed matrices: refused, not misread."""
    x = [[MOD - 1] * 4, [3] * 4]
    packs = [pu.FoldRows(x, MOD, 7)] * 2
    with pytest.raises(CertificateFailure):
        pu.fold_combine(packs, [MOD - 1] * 3)


@pytest.mark.parametrize("rows, e, c", [(1, 1, 0), (1, 3, 2), (2, 4, 7)])
def test_fold_combine_refuses_past_its_limb(rows, e, c):
    """(1 + c) rows e all-(mod - 1) terms fill a limb exactly; one more
    would overflow it and is refused, even with a matrix to spare."""
    mod = 7 ** 3
    top = (1 + c) * rows * e
    x = [[mod - 1] * e for _ in range(rows)]
    packs = [pu.FoldRows(x, mod, c)] * (top + 2)
    assert pu.fold_combine(packs, [mod - 1] * top) == [
        [top * (mod - 1) ** 2 % mod] * e] * rows
    with pytest.raises(CertificateFailure):
        pu.fold_combine(packs, [mod - 1] * (top + 1))


@st.composite
def monic_division(draw):
    """(a, b, mod): b monic mod ``mod`` of degree 0..5, its leading entry
    and the other entries possibly negative, unreduced or 0 mod ``mod``."""
    mod = draw(st.sampled_from((5, 7 ** 10, 11 ** 19)))
    entry = st.one_of(st.sampled_from((0, mod, -mod)),
                      st.integers(-2 * mod, 2 * mod))
    d = draw(st.integers(0, 5))
    b = draw(st.lists(entry, min_size=d, max_size=d))
    b.append(draw(st.sampled_from((1, 1 + mod, 1 - mod))))
    return draw(st.lists(entry, max_size=2 * d + 6)), b, mod


@settings(max_examples=400, deadline=None, derandomize=True)
@given(monic_division())
@example(([], [1], 5))
@example(([], [3, 0, 1], 7 ** 10))
@example(([-4, 12], [2, 0, -3, 1], 11 ** 19))
@example(([5, 10, 5], [0, 1], 5))
def test_pdivmod_monic_matches_oracle(case):
    """The shared in-place loop against the division that subtracts every
    divisor coefficient; the caller's list is left as it was."""
    a, b, mod = case
    kept = list(a)
    assert pu.pdivmod_monic(a, b, mod) == pdivmod_monic_oracle(a, b, mod)
    assert a == kept


def test_one_division_loop(monkeypatch):
    """pdivmod_monic divides once through the shared loop, and a leaf of
    fadic_expand once per digit."""
    calls = []
    loop = pu._divide_monic
    monkeypatch.setattr(pu, "_divide_monic",
                        lambda *args: calls.append(1) or loop(*args))
    pu.pdivmod_monic(list(range(9)), [3, 0, 1], 7)
    assert len(calls) == 1
    pu.fadic_expand([list(range(9))], [3, 0, 1], 5, 7)
    assert len(calls) == 6


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


def series_inverse(a, mod, n):
    """1/a mod s^n, coefficient by coefficient, for a with a_0 = 1."""
    b = []
    for k in range(n):
        b.append(((k == 0) - sum(a[i] * b[k - i]
                                 for i in range(1, min(k, len(a) - 1) + 1)))
                 % mod)
    return b


class RecordingPacked(pu.Packed):
    """A Packed that logs (residues, term bound) of every value built."""

    log = []

    def __init__(self, a, mod, bound):
        super().__init__(a, mod, bound)
        self.log.append((tuple(c % mod for c in a), bound))


@pytest.mark.parametrize("d, n", [(1, 18), (2, 20), (3, 24)])
def test_fadic_expand_repacks_an_inverse_rebuilt_longer(monkeypatch, d, n):
    """A numerator shorter than f^n but longer than 3/4 of it needs
    1/rev(f^h1), h1 = n // 4, first short, in its quotient's branch, then
    longer, in its remainder's: the inverse is built again and packed again
    at the new length.  Mixed-length numerators in one call still match
    repeated division digit by digit."""
    monkeypatch.setattr(pu, "Packed", RecordingPacked)
    monkeypatch.setattr(RecordingPacked, "log", [])
    rng = random.Random(d * 100 + n)
    mod = 5 ** 9
    f = [rng.randrange(mod) for _ in range(d)] + [1]
    nums = [[rng.randrange(-mod, mod) for _ in range(k)]
            for k in (d * n * 5 // 6, d * n * 7 // 8, 4)]
    assert pu.fadic_expand(nums, f, n, mod) == [
        repeated_division(a, f, n, mod) for a in nums]
    h0 = n // 2
    h1 = h0 // 2
    first = max(map(len, nums)) - d * h0 - d * h1
    again = d * (h0 - h1)
    assert 0 < first < again
    fh = [1]
    for _ in range(h1):
        fh = double_loop(fh, f, mod, len(fh) + d)
    inv = tuple(series_inverse(fh[::-1], mod, again))
    packed = RecordingPacked.log
    assert (inv[:first], first) in packed and (inv, again) in packed


def test_ser_inv_packs_each_iterate_once(monkeypatch):
    """Each Newton iterate x long enough for ser_mul to pack is packed once
    for both products of its step, with the term bound len(x), and each
    partner with the same bound; shorter iterates pack nothing."""
    monkeypatch.setattr(pu, "Packed", RecordingPacked)
    monkeypatch.setattr(RecordingPacked, "log", [])
    rng = random.Random(5)
    a = [1] + [rng.randrange(MOD) for _ in range(99)]
    inv = pu.ser_inv(a, MOD, 100)
    assert inv == series_inverse(a, MOD, 100)
    steps = [m for m in [1] + pu.newton_lengths(100)[:-1]
             if m >= pu.KRONECKER_MIN_TERMS]
    packed = RecordingPacked.log
    assert steps == [13, 25, 50]
    assert [bound for _, bound in packed] == [m for m in steps
                                              for _ in range(3)]
    assert packed[0::3] == [(tuple(inv[:m]), m) for m in steps]


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


def test_newton_lengths_properties():
    """ceil(n / 2^j) > 1 in increasing order: each length at most twice the
    one before, the last n, as many steps as doubling from 1 and none
    longer than the doubled length min(2^(i+1), n) at the same step."""
    for n in range(5001):
        lengths = pu.newton_lengths(n)
        if n <= 1:
            assert lengths == []
            continue
        assert lengths[-1] == n
        assert len(lengths) == (n - 1).bit_length()
        assert all(k > 1 for k in lengths)
        assert all(a < b <= 2 * a for a, b in zip([1] + lengths, lengths))
        assert all(k <= min(2 ** (i + 1), n) for i, k in enumerate(lengths))


@pytest.mark.parametrize("mod", (7, 11 ** 10, 5 ** 40))
def test_ser_inv_at_every_length(mod):
    """a * a^-1 = 1 mod s^n at every length up to 70 and at the benchmark's
    long ones, the product taken by the one-point oracle."""
    rng = random.Random(mod)
    a = [rng.randrange(mod) for _ in range(2421)]
    a[0] = rng.randrange(1, 7)
    assert pu.ser_inv(a, mod, 0) == []
    for n in list(range(1, 71)) + [501, 981, 2421]:
        inv = pu.ser_inv(a, mod, n)
        assert len(inv) == n
        prod = kron_mul_one_point(a[:n], inv, mod, n)
        assert [c % mod for c in prod] == [1] + [0] * (n - 1)


class TestTypedErrors:
    def test_modinv_of_non_unit(self):
        with pytest.raises(DivisionByZero) as err:
            pu.modinv(14, 7 ** 3)
        assert isinstance(err.value, FrobjetError)
        assert isinstance(err.value, ZeroDivisionError)

    def test_division_by_zero_polynomial(self):
        with pytest.raises(DivisionByZero) as err:
            pu.pdivmod_monic([1, 2, 3], [], 7)
        assert isinstance(err.value, FrobjetError)
        assert isinstance(err.value, ZeroDivisionError)


def test_equal_degree_factor_bounded(monkeypatch):
    """x^2 + 1 is irreducible mod 7, so no try splits it into degree-1
    factors: the search raises after EDF_TRIES tries instead of looping."""
    powmods = []
    powmod = pu.fp_powmod
    monkeypatch.setattr(pu, "fp_powmod",
                        lambda *args: powmods.append(1) or powmod(*args))
    with pytest.raises(ValueError, match="not a product of degree-1"):
        pu.equal_degree_factor([1, 0, 1], 1, 7)
    assert 0 < len(powmods) <= pu.EDF_TRIES


@pytest.mark.parametrize("p, l, m, d", [(7, 2, 5, 4), (5, 13, 1, 4),
                                        (3, 2, 4, 4), (11, 5, 1, 1)])
def test_equal_degree_factor_splits(p, l, m, d):
    """A factor of the cyclotomic polynomial of degree ord(p mod l^m)."""
    phi = pu.cyclotomic_prime_power(l, m)
    g = pu.equal_degree_factor(phi, d, p)
    assert len(g) == d + 1 and g[-1] == 1
    assert not pu.trim(pu.pdivmod_monic(phi, g, p)[1])
