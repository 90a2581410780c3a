import random
import subprocess
import sys
from pathlib import Path

import pytest

import frobjet

from frobjet import polyutils as pu
from frobjet.crystal import (DeRhamData, count_points_ap,
                             crystalline_classes, kedlaya_frobenius)
from frobjet.errors import (BadReduction, CertificateFailure,
                            PrecisionBudgetExceeded, PrecisionTooLow,
                            SupersingularInput)
from frobjet.formal import WeierstrassCurve

import kedlaya_oracle

CURVES = [WeierstrassCurve(5, 1, 1, "5a"), WeierstrassCurve(7, 1, 3, "7a"),
          WeierstrassCurve(7, 2, 1, "7b"), WeierstrassCurve(11, 2, 5, "11a"),
          WeierstrassCurve(11, 1, 1, "11b")]

_DRD_CACHE = {}


def drd_for(curve, K=10):
    key = (curve.p, curve.a4, curve.a6, K)
    if key not in _DRD_CACHE:
        _DRD_CACHE[key] = kedlaya_frobenius(curve, K)
    return _DRD_CACHE[key]


def brute_count(curve):
    """Exhaustive affine count plus the point at infinity."""
    p = curve.p
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, 0)
        squares[y * y % p] += 1
    total = 1
    for x in range(p):
        v = (x ** 3 + curve.a4 * x + curve.a6) % p
        total += squares.get(v, 0)
    return total


class TestPointCount:
    def test_frozen_value(self):
        # y^2 = x^3 + x + 1 over F_5 has 9 points, so trace -3
        assert count_points_ap(WeierstrassCurve(5, 1, 1)) == -3

    def test_against_square_table_oracle(self):
        for cur in CURVES:
            assert count_points_ap(cur) == cur.p + 1 - brute_count(cur)

    def test_supersingular_flagged(self):
        # x^3 + 1 is supersingular for p = 2 mod 3
        assert count_points_ap(WeierstrassCurve(5, 0, 1)) % 5 == 0

    def test_quadratic_twist_negates(self):
        # twist by a non-residue d: (a4, a6) -> (d^2 a4, d^3 a6)
        p = 7
        d = 3  # non-residue mod 7
        base = WeierstrassCurve(p, 1, 3)
        twist = WeierstrassCurve(p, d * d * 1 % p + 0, (d ** 3 * 3) % p)
        assert count_points_ap(twist) == -count_points_ap(base)

    def test_bad_reduction(self):
        # disc = 4*(-3)^3 + 27*4 = 0 mod 11, caught at construction
        with pytest.raises(BadReduction):
            WeierstrassCurve(11, 11 - 3, 2)


class TestKedlaya:
    @pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.label)
    def test_trace_det_certified(self, curve):
        K = 10
        drd = drd_for(curve, K)
        p = curve.p
        a, b = drd.matrix[0]
        c, d = drd.matrix[1]
        assert (a + d - drd.ap) % p ** K == 0
        assert (a * d - b * c - p) % p ** K == 0

    @pytest.mark.parametrize("K", [0, -3])
    def test_precision_below_one_rejected(self, K):
        with pytest.raises(PrecisionTooLow):
            kedlaya_frobenius(WeierstrassCurve(5, 1, 1), K)

    def test_supersingular_rejected(self):
        with pytest.raises(SupersingularInput):
            kedlaya_frobenius(WeierstrassCurve(5, 0, 1), 8)

    def test_unit_root_newton_oracle(self):
        drd = drd_for(WeierstrassCurve(5, 1, 1))
        u = drd.unit_root()
        p, K = 5, 10
        assert u % p == drd.ap % p
        assert (u * u - drd.ap * u + p) % p ** K == 0
        assert u % p != 0

    def test_series_truncation_stability(self):
        # deepening the binomial series must not move the matrix
        cur = WeierstrassCurve(7, 1, 3)
        d1 = kedlaya_frobenius(cur, 8)
        d2 = kedlaya_frobenius(cur, 8, series_pad=8)
        assert d1.matrix == d2.matrix

    def test_precision_consistency(self):
        # a deeper run agrees with a shallower one on the shared digits
        cur = WeierstrassCurve(5, 1, 1)
        lo = drd_for(cur, 10)
        hi = kedlaya_frobenius(cur, 13)
        for i in range(2):
            for j in range(2):
                assert (hi.matrix[i][j] - lo.matrix[i][j]) % 5 ** 10 == 0

    def test_frobenius_pairing_compatibility(self):
        # <Fa, Fb> = p <a, b> is exactly det F = p on a 2-dim space
        drd = drd_for(WeierstrassCurve(11, 2, 5), 9)
        a, b = drd.matrix[0]
        c, d = drd.matrix[1]
        assert (a * d - b * c) % 11 ** 9 == 11

    def test_data_validation(self):
        with pytest.raises(PrecisionBudgetExceeded):
            DeRhamData(p=5, prec=4, matrix=[[1, 0], [0, 1]], ap=2)

    @pytest.mark.parametrize("matrix", [[[1, -5], [1, 0]], [[0, -5], [1, 1]]])
    def test_mazur_check(self, matrix):
        # det = 5 and trace = 1, but the omega column (a, c) is not 0 mod 5
        with pytest.raises(CertificateFailure):
            DeRhamData(p=5, prec=4, matrix=matrix, ap=1)


def random_ordinary_curve(p, seed):
    rng = random.Random(seed)
    while True:
        a4, a6 = rng.randrange(p), rng.randrange(1, p)
        if (4 * a4 ** 3 + 27 * a6 ** 2) % p and count_points_ap(
                WeierstrassCurve(p, a4, a6)) % p:
            return WeierstrassCurve(p, a4, a6, f"random-{p}-{seed}")


ORACLE_CASES = (
    [(c, 4, None) for c in CURVES + [WeierstrassCurve(5, 1, 0, "5-cm")]]
    + [(random_ordinary_curve(p, seed), K, None)
       for p, K, seed in [(5, 3, 1), (5, 6, 2), (7, 4, 3), (7, 3, 4),
                          (11, 3, 5)]]
    + [(WeierstrassCurve(5, 2, 1, "5-pad8"), 4, 8)])


@pytest.mark.parametrize("curve, K, pad", ORACLE_CASES,
                         ids=lambda c: getattr(c, "label", None))
def test_matches_fraction_oracle(curve, K, pad):
    """The Z/p^M reduction against the exact-Fraction one, entry by entry:
    det = p and trace = a_p do not pin an off-diagonal entry whose opposite
    entry is divisible by p."""
    assert (kedlaya_frobenius(curve, K, series_pad=pad).matrix
            == kedlaya_oracle.kedlaya_frobenius(
                curve, K, series_pad=pad).matrix)


def zero_coefficient_curve(p, seed):
    """An ordinary curve with a4 = 0 (p = 1 mod 3) or a6 = 0 (p = 1 mod 4),
    alternating by seed where both exist; a random one where neither does."""
    kinds = [k for k, ok in (("a4", p % 3 == 1), ("a6", p % 4 == 1)) if ok]
    if not kinds:
        return random_ordinary_curve(p, seed)
    kind = kinds[seed % len(kinds)]
    rng = random.Random(seed)
    while True:
        c = rng.randrange(1, p)
        curve = WeierstrassCurve(p, 0 if kind == "a4" else c,
                                 c if kind == "a4" else 0,
                                 f"{kind}=0-{p}-{seed}")
        if count_points_ap(curve) % p:
            return curve


ZP_ORACLE_CASES = [
    (curve, K) for p in (5, 7, 11, 13, 17) for K in list(range(1, 11)) + [20]
    for curve in ([random_ordinary_curve(p, 100 * p + K)]
                  + [zero_coefficient_curve(p, K)] * (K != 20))]


@pytest.mark.parametrize("curve, K", ZP_ORACLE_CASES,
                         ids=lambda c: getattr(c, "label", None))
def test_matches_zp_oracle(curve, K):
    """The single f-adic expansion against the Z/p^M reduction that divides
    the whole numerator at every pole level: whole matrices, list-equal."""
    assert (kedlaya_frobenius(curve, K, series_pad=8).matrix
            == kedlaya_oracle.kedlaya_frobenius_zp(
                curve, K, series_pad=8).matrix)


DEPTH_CASES = [
    (curve, K) for p in (5, 7, 11, 13, 17) for K in range(1, 13)
    for curve in (random_ordinary_curve(p, 1000 * p + K),
                  zero_coefficient_curve(p, 1000 * p + K))]


@pytest.mark.parametrize("curve, K", DEPTH_CASES,
                         ids=lambda c: getattr(c, "label", None))
def test_default_depth_matches_deeper_series(curve, K):
    """The default series depth against two terms more than the padding
    K + 3 + floor(log_p(6p(K + 6))) it replaced: whole matrices, list-equal."""
    p = curve.p
    deeper = 5 + pu.floor_log(p, 6 * p * (K + 6))
    assert (kedlaya_frobenius(curve, K).matrix
            == kedlaya_frobenius(curve, K, series_pad=deeper).matrix)


def test_default_depth_at_benchmark_settings(monkeypatch):
    """m_top = p k_max + (p - 1)/2 for the default depth: k_max = 4, 6, 4,
    6, 3 and 6 at (p, K) = (5, 4), (5, 6), (7, 4), (7, 6), (11, 4) and
    (11, 6)."""
    tops = []
    expand = pu.fadic_expand

    def spy(nums, f, n, mod):
        tops.append(n)
        return expand(nums, f, n, mod)

    monkeypatch.setattr(pu, "fadic_expand", spy)
    seen = []
    for curve in (CURVES[0], CURVES[1], CURVES[3]):
        for K in (4, 6):
            tops.clear()
            kedlaya_frobenius(curve, K)
            seen.append(tops[0])
    assert seen == [22, 32, 31, 45, 38, 71]


def test_each_list_packed_once_at_benchmark_settings(monkeypatch):
    """One call at each benchmark (p, K) packs no (list, modulus, term
    bound) twice: f^p and n = -N/4 once for the whole Horner loop, and in
    fadic_expand each f^h less its leading 1 and each inverse once, shared
    by every product that multiplies by it."""
    packs = []

    class Counting(pu.Packed):
        def __init__(self, a, mod, bound):
            super().__init__(a, mod, bound)
            packs.append((tuple(c % mod for c in a), mod, bound))

    monkeypatch.setattr(pu, "Packed", Counting)
    for curve in (CURVES[0], CURVES[1], CURVES[3]):
        for K in (4, 6):
            packs.clear()
            kedlaya_frobenius(curve, K)
            assert packs and len(set(packs)) == len(packs), (curve.p, K)


def test_reduction_divides_nothing_by_f(monkeypatch):
    calls = []
    divide = pu.pdivmod_monic

    def counting(*args):
        calls.append(args)
        return divide(*args)

    monkeypatch.setattr(pu, "pdivmod_monic", counting)
    kedlaya_frobenius(WeierstrassCurve(11, 2, 5), 6)
    assert calls == []


def twisted_matrix_agrees(matrix, twisted, u, p, K):
    """Whether ``twisted``, the matrix of (u^4 a4, u^6 a6), is
    [[a, u^2 b], [u^-2 c, d]] mod p^K for ``matrix`` = [[a, b], [c, d]].

    (x, y) -> (u^2 x, u^3 y) is an isomorphism over Z_p from the curve onto
    y^2 = x^3 + u^4 a4 x + u^6 a6; it pulls the twist's (dx/y, x dx/y) back
    to (u^-1 dx/y, u x dx/y), and Frobenius commutes with it.
    """
    pk = p ** K
    (a, b), (c, d) = matrix
    u2 = u * u
    want = [[a % pk, u2 * b % pk], [c * pow(u2, -1, pk) % pk, d % pk]]
    return want == [[x % pk for x in row] for row in twisted]


TWIST_CURVES = CURVES + [random_ordinary_curve(p, seed)
                         for p, seed in [(5, 11), (7, 12), (11, 13)]]


@pytest.mark.parametrize("u", [2, 3])
@pytest.mark.parametrize("curve", TWIST_CURVES, ids=lambda c: c.label)
def test_isomorphic_twist(curve, u):
    """Pins b and c, which det = p and trace = a_p do not.  The twisted
    coefficients stay unreduced: reducing them mod p changes the lift."""
    p, K = curve.p, 6
    twisted = WeierstrassCurve(p, u ** 4 * curve.a4, u ** 6 * curve.a6)
    assert twisted_matrix_agrees(drd_for(curve, K).matrix,
                                 kedlaya_frobenius(twisted, K).matrix,
                                 u, p, K)


def test_isomorphic_twist_catches_off_diagonal_error():
    # y^2 = x^3 + 2x + 1 at p = 5: c = 0 mod 5, so b + 5^3 keeps det = p
    curve, K = WeierstrassCurve(5, 2, 1), 4
    drd = drd_for(curve, K)
    (a, b), (c, d) = drd.matrix
    wrong = DeRhamData(p=5, prec=K, matrix=[[a, b + 5 ** 3], [c, d]],
                       ap=drd.ap)
    twisted = kedlaya_frobenius(WeierstrassCurve(5, 2 ** 4 * 2, 2 ** 6), K)
    assert twisted_matrix_agrees(drd.matrix, twisted.matrix, 2, 5, K)
    assert not twisted_matrix_agrees(wrong.matrix, twisted.matrix, 2, 5, K)


class TestCrystallineClasses:
    @pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.label)
    def test_remark_relations(self, curve):
        p = curve.p
        drd = drd_for(curve)
        cc = crystalline_classes(drd, 3)
        pk = p ** 8
        assert (cc.f("11") - drd.ap * cc.f("1")) % pk == 0
        assert (cc.f_pair("11", "1") - p * cc.f("1")) % pk == 0

    def test_alternating(self):
        drd = drd_for(WeierstrassCurve(5, 1, 1))
        cc = crystalline_classes(drd, 2)
        assert cc.f_pair("1", "1") == 0
        assert (cc.f_pair("11", "1") + cc.f_pair("1", "11")) % 5 ** 9 == 0

    def test_canonical_lift_vanishing(self):
        # y^2 = x^3 + x with p = 1 mod 4 is ordinary with split Frobenius
        drd = drd_for(WeierstrassCurve(5, 1, 0))
        cc = crystalline_classes(drd, 2)
        assert cc.f("1") % 5 ** 8 == 0

    def test_equal_directions_structure(self):
        # all directions share the matrix: same-length words coincide and
        # equal-length pairs pair to zero
        drd = drd_for(WeierstrassCurve(7, 1, 3))
        cc = crystalline_classes(drd, 2)
        assert cc.f((1,)) == cc.f((2,))
        assert cc.f_pair((1,), (2,)) == 0
        assert cc.f_pair((1, 1), (2, 2)) == 0

    def test_word_length_ranges(self):
        """f takes one word and f_pair two, each of length 1..r."""
        cc = crystalline_classes(drd_for(WeierstrassCurve(5, 1, 1)), 2)
        for call in (lambda: cc.f(""), lambda: cc.f("111"),
                     lambda: cc.f_pair("1", ""), lambda: cc.f_pair("", "1"),
                     lambda: cc.f_pair("111", "1"),
                     lambda: cc.f_pair("11", "222")):
            with pytest.raises(ValueError, match="outside table range"):
                call()
        assert cc.f("11") == cc.f((2, 1))
        assert cc.f_pair("1", "11") == cc.f_pair((2,), (1, 2))


class TestCertificatesUnderOptimize:
    def test_typed_error_survives_python_O(self):
        # det = p and trace = a_p hold, but F omega = omega + eta is not
        # divisible by p, so the constructor raises
        code = (
            "import sys\n"
            "from frobjet.crystal import DeRhamData, crystalline_classes\n"
            "from frobjet.errors import CertificateFailure\n"
            "assert sys.flags.optimize\n"
            "try:\n"
            "    drd = DeRhamData(5, 4, [[1, -5], [1, 0]], 1)\n"
            "    print(crystalline_classes(drd, 2).f('1'))\n"
            "except CertificateFailure:\n"
            "    print('CertificateFailure')\n")
        src = str(Path(frobjet.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": src})
        assert out.stdout.strip() == "CertificateFailure"
