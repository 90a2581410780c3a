import functools
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from frobjet import polyutils as pu
from frobjet.errors import (CertificateFailure, FamilyMismatch, NotAUnit,
                            NotEisensteinCompatible, PrecisionExhausted,
                            PrecisionTooLow, UnreducedCoefficients)
from frobjet.tower import (INF, FrobeniusIndex, QElement, TowerConfig,
                           TowerElement, apply_automorphism, build_tower,
                           frobenius_apply, frobenius_word_apply,
                           n_of_pi_from, pi_derivation, pi_valuation,
                           valuation, word_exponents_for)
from frobjet.words import check_monomial_independence

from tower_oracle import schoolbook_mul, zeta_tables


@pytest.fixture(scope="module")
def t7():
    return build_tower(TowerConfig(7, 2, 1, 1, 10))


@pytest.fixture(scope="module")
def t3():
    # m = 0: pi = p = 3, the base ring
    return build_tower(TowerConfig(3, 2, 0, 1, 10))


@pytest.fixture(scope="module")
def t5():
    return build_tower(TowerConfig(5, 3, 1, 2, 10))


def mult_order(a, n):
    if n == 1:
        return 1
    k, x = 1, a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k


class TestBuildTower:
    def test_pi_squared_is_p(self, t7):
        assert t7.pi() * t7.pi() == t7.from_int(7)

    def test_zeta2_is_minus_one(self, t7):
        assert t7.zeta() == t7.from_int(-1)

    def test_l3_divides_p_minus_one(self):
        t = build_tower(TowerConfig(7, 3, 1, 1, 10))
        z = t.zeta()
        assert z ** 3 == t.one()
        assert not z == t.one()

    def test_f2_matches_multiplicative_order(self, t5):
        # independent oracle: order of 5 mod 3
        assert mult_order(5, 3) == 2 == t5.f
        assert t5.zeta() ** 3 == t5.one()
        assert t5.pi() ** 3 == t5.from_int(5)

    def test_rejects_wrong_f(self):
        with pytest.raises(NotEisensteinCompatible):
            build_tower(TowerConfig(5, 3, 1, 1, 10))

    def test_rejects_non_divisible(self):
        # 8 does not divide 5^1 - 1 = 4
        with pytest.raises(NotEisensteinCompatible):
            build_tower(TowerConfig(5, 2, 3, 1, 10))

    def test_rejects_low_precision(self):
        with pytest.raises(PrecisionTooLow):
            build_tower(TowerConfig(7, 2, 1, 1, 1))

    def test_rejects_p_equals_l(self):
        with pytest.raises(NotEisensteinCompatible):
            build_tower(TowerConfig(7, 7, 1, 1, 10))

    @pytest.mark.parametrize("cfg", [(7, 2, 1, 1, 8), (5, 3, 1, 2, 8),
                                     (3, 5, 1, 4, 6), (7, 3, 1, 1, 6),
                                     (11, 3, 1, 2, 6), (13, 5, 1, 4, 4)])
    def test_zeta_reduction_table(self, cfg):
        """zred2[k] is x^k mod g by plain long division, also where
        2f - 2 >= e and the table wraps around zeta^e = 1."""
        t = build_tower(TowerConfig(*cfg))
        for k, row in enumerate(t.zred2):
            rem = [0] * k + [1]
            for top in range(k, t.f - 1, -1):
                c = rem[top]
                for i, gi in enumerate(t.g):
                    rem[top - t.f + i] -= c * gi
            want = [c % t.pK for c in rem[:t.f]] + [0] * max(t.f - k - 1, 0)
            assert row == want[:t.f]

    @pytest.mark.parametrize("cfg", [(11, 5, 1, 1, 6), (7, 2, 5, 4, 6)])
    def test_zeta_factor_after_repeated_splitting(self, cfg):
        """Phi_e has four degree-f factors mod p here, so equal-degree
        factoring splits a proper factor again before it reaches degree f."""
        t = build_tower(TowerConfig(*cfg))
        assert len(t.g) - 1 == t.f
        z = t.zeta()
        assert z ** t.e == t.one()
        assert not z ** (t.e // cfg[1]) == t.one()


class TestConstructors:
    """Precision above K is clamped before the coefficients are reduced, so
    what is stored is a residue mod p^K and ``is_zero`` can trust it."""

    @pytest.fixture(scope="class")
    def t4(self):
        return build_tower(TowerConfig(7, 2, 1, 1, 4))

    def assert_reduced(self, a, prec=4):
        assert a.prec == prec
        assert all(0 <= c < 7 ** prec for row in a.coeffs for c in row)

    def test_from_int(self, t4):
        a = t4.from_int(7 ** 4, 5)
        self.assert_reduced(a)
        assert a.is_zero() and a == t4.zero()
        assert valuation(a) == INF

    @pytest.mark.parametrize("n", [Fraction(1, 2), Fraction(3), 2.0, "1"])
    def test_from_int_refuses_non_int(self, t4, n):
        with pytest.raises(TypeError):
            t4.from_int(n)

    def test_element(self, t4):
        a = t4.element([[7 ** 4, 7 ** 5 + 3]], 6)
        self.assert_reduced(a)
        assert a.coeffs == ((0, 3),)
        assert valuation(a) == Fraction(1, 2)

    def test_zero(self, t4):
        a = t4.zero(9)
        self.assert_reduced(a)
        assert a.is_zero()

    def test_pi(self, t4, t3):
        self.assert_reduced(t4.pi(9))
        assert t4.pi(9).coeffs == ((0, 1),)
        assert t3.pi(12).coeffs == ((3,),) and t3.pi(12).prec == t3.K

    def test_zeta(self, t4):
        a = t4.zeta(9)
        self.assert_reduced(a)
        assert a.coeffs == ((7 ** 4 - 1, 0),)

    def test_random_element(self, t4):
        rng = random.Random(0)
        for _ in range(20):
            self.assert_reduced(t4.random_element(rng, 9))

    def test_precision_below_one(self, t4):
        for make in (lambda: t4.from_int(1, 0), lambda: t4.zero(-1),
                     lambda: t4.element([[1, 1]], 0),
                     lambda: TowerElement(t4, [[1, 1]], 0)):
            with pytest.raises(PrecisionExhausted):
                make()

    @pytest.mark.parametrize("coeffs, prec", [
        ([[7 ** 4, 0]], 4), ([[7 ** 4, 0]], 5), ([[-1, 0]], 4),
        ([[7, 0]], 1), ([[1, 2, 3]], 4), ([[1, 2], [3, 4]], 4)])
    def test_public_constructor_rejects(self, t4, coeffs, prec):
        with pytest.raises(UnreducedCoefficients):
            TowerElement(t4, coeffs, prec)

    def test_public_constructor_clamps(self, t4):
        a = TowerElement(t4, [[7 ** 4 - 1, 5]], 9)
        assert a.prec == 4 and a.coeffs == ((7 ** 4 - 1, 5),)

    @pytest.mark.parametrize("coeffs", [
        [[1, 2, 3]], [[1]], [[1, 2], [3, 4]], [], [1, 2], 5])
    def test_element_rejects_shape(self, t4, coeffs):
        with pytest.raises(UnreducedCoefficients):
            t4.element(coeffs)

    # A stored {"coeffs", "prec"} record: the shape check holds at an
    # explicit precision too.
    @pytest.mark.parametrize("d", [
        {"coeffs": [[1, 2, 3]], "prec": 4}, {"coeffs": [[1]], "prec": 4},
        {"coeffs": [[[1], [2]]], "prec": 4}])
    def test_element_from_dict_rejects_shape(self, t4, d):
        with pytest.raises(UnreducedCoefficients):
            t4.element(d["coeffs"], d["prec"])


class TestQElementAdd:
    def test_equal_den_makes_no_product(self, t5, monkeypatch):
        rng = random.Random(3)
        a, b = (QElement(t5.random_element(rng), 2) for _ in range(2))
        want = a.num + b.num
        calls = []
        mul = TowerElement.__mul__

        def counting(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(TowerElement, "__mul__", counting)
        s = a + b
        assert calls == [] and s.den == 2 and s.num == want

    def test_unequal_den_scales_one_side(self, t5):
        rng = random.Random(4)
        x, y = t5.random_element(rng), t5.random_element(rng)
        for s in (QElement(x, 1) + QElement(y, 3),
                  QElement(y, 3) + QElement(x, 1)):
            assert s.den == 3 and s.num == x * 25 + y


class TestForeignOperands:
    """TowerElement against every operand kind, on both sides of * + -:
    a cell computes, raises FamilyMismatch or raises TypeError."""

    OPS = {"*": operator.mul, "+": operator.add, "-": operator.sub}

    @pytest.fixture(scope="class")
    def tower(self):
        return build_tower(TowerConfig(7, 2, 2, 2, 14))

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("kind", ["int", "Fraction", "str", "QElement",
                                      "other-tower"])
    def test_matrix(self, tower, t7, kind, op):
        a = tower.one() * 3
        other = {"int": 3, "Fraction": Fraction(1, 2), "str": "a",
                 "QElement": QElement(tower.one(), 1),
                 "other-tower": t7.one()}[kind]
        fn = self.OPS[op]
        # (a op other, other op a)
        want = {"int": (None, None),
                "Fraction": (TypeError, TypeError),
                "str": (TypeError, TypeError),
                "QElement": (TypeError, None if op == "*" else TypeError),
                "other-tower": (FamilyMismatch, FamilyMismatch)}[kind]
        for (left, right), exc in zip(((a, other), (other, a)), want):
            if exc is None:
                fn(left, right)
            else:
                with pytest.raises(exc):
                    fn(left, right)

    def test_int_cells_compute(self, tower):
        a = tower.one() * 3
        assert a * 2 == 2 * a == tower.from_int(6, tower.K)
        assert a + 2 == 2 + a == tower.from_int(5, tower.K)
        assert a - 2 == tower.one() and 2 - a == -tower.one()
        q = QElement(tower.one(), 1) * a
        assert q.den == 1 and q.num == a


class TestFrobenius:
    def test_gamma0_fixes_pi(self, t7):
        assert frobenius_apply(t7, FrobeniusIndex(0), t7.pi()) == t7.pi()

    def test_gamma1_twists_pi(self, t7):
        got = frobenius_apply(t7, FrobeniusIndex(1), t7.pi())
        assert got == t7.zeta() * t7.pi()

    def test_fixes_rationals(self, t7):
        a = t7.from_int(123456)
        for g in (0, 1, 2):
            assert frobenius_apply(t7, FrobeniusIndex(g), a) == a

    def test_lift_property_mod_pi(self, t5):
        # phi(a) = a^p mod pi, at every precision
        rng = random.Random(5)
        for _ in range(10):
            a = t5.random_element(rng)
            diff = frobenius_apply(t5, FrobeniusIndex(1), a) - a ** t5.p
            v = valuation(diff)
            assert v == INF or v >= Fraction(1, t5.e)

    def test_composition_exponent(self, t7):
        # phi^(g) o phi^(g') acts on pi as tau^(g + p g') o phi^2
        g, gp = 1, 1
        lhs = frobenius_apply(t7, FrobeniusIndex(g),
                              frobenius_apply(t7, FrobeniusIndex(gp),
                                              t7.pi()))
        rhs = apply_automorphism(t7.pi(), (g + 7 * gp) % t7.e, 2)
        assert lhs == rhs

    def test_braid_relation_on_pi_and_zeta(self, t5):
        # s1 tau = tau^p s1 with s1 = phi, tau the level generator
        def s1(x):
            return apply_automorphism(x, 0, 1)

        def tau(x, k=1):
            return apply_automorphism(x, k, 0)

        for x in (t5.pi(), t5.zeta()):
            assert s1(tau(x)) == tau(s1(x), t5.p)

    def test_word_application_matches_iteration(self, t5):
        rng = random.Random(17)
        gammas = (0, 1)
        a = t5.random_element(rng)
        word = (1, 2, 2)
        # phi_mu = phi_{i_1} o phi_{i_2} o ... (innermost letter first)
        expected = a
        for letter in reversed(word):
            expected = frobenius_apply(
                t5, FrobeniusIndex(gammas[letter - 1]), expected)
        assert frobenius_word_apply(t5, gammas, word, a) == expected


class TestPiDerivation:
    def test_kills_zero_and_one(self, t7):
        idx = FrobeniusIndex(1)
        assert pi_derivation(t7, idx, t7.zero()).is_zero()
        assert pi_derivation(t7, idx, t7.one()).is_zero()

    def test_fermat_quotient(self, t3):
        # pi = p = 3, phi = id on Z_3: delta(2) = (2 - 2^3)/3 = -2
        got = pi_derivation(t3, FrobeniusIndex(0), t3.from_int(2))
        assert got == t3.from_int(-2)

    def test_sum_rule(self, t7):
        # delta(x+y) = delta x + delta y + (p/pi) C_p(x, y), 50 random pairs
        rng = random.Random(1)
        idx = FrobeniusIndex(1)
        p = t7.p
        p_over_pi = t7.pi() ** (t7.e - 1)
        from math import comb
        for _ in range(50):
            x = t7.random_element(rng)
            y = t7.random_element(rng)
            cp = t7.zero()
            for j in range(1, p):
                cp = cp + (x ** j) * (y ** (p - j)) * (-(comb(p, j) // p))
            lhs = pi_derivation(t7, idx, x + y)
            rhs = (pi_derivation(t7, idx, x) + pi_derivation(t7, idx, y)
                   + p_over_pi * cp)
            assert lhs == rhs

    def test_product_rule(self, t5):
        rng = random.Random(2)
        idx = FrobeniusIndex(1)
        for _ in range(25):
            x = t5.random_element(rng)
            y = t5.random_element(rng)
            dx = pi_derivation(t5, idx, x)
            dy = pi_derivation(t5, idx, y)
            lhs = pi_derivation(t5, idx, x * y)
            rhs = x ** t5.p * dy + y ** t5.p * dx + t5.pi() * dx * dy
            assert lhs == rhs

    def test_precision_decrement(self, t7):
        a = t7.random_element(random.Random(3))
        assert pi_derivation(t7, FrobeniusIndex(0), a).prec == a.prec - 1


class TestValuation:
    def test_basic_values(self, t7):
        assert valuation(t7.from_int(7)) == 1
        assert valuation(t7.pi()) == Fraction(1, 2)
        assert valuation(t7.zero()) == INF

    def test_pi_cubed_times_unit(self, t7):
        u = t7.random_unit(random.Random(4))
        assert valuation(t7.pi() ** 3 * u) == Fraction(3, 2)

    def test_pi_valuation_is_integral(self, t7):
        u = t7.random_unit(random.Random(4))
        assert pi_valuation(t7.pi() ** 3 * u) == 3
        assert pi_valuation(t7.from_int(49)) == 4
        assert pi_valuation(t7.zero()) == INF

    def test_multiplicative(self, t5):
        rng = random.Random(5)
        for _ in range(20):
            a, b = t5.random_element(rng), t5.random_element(rng)
            va, vb = valuation(a), valuation(b)
            if va == INF or vb == INF or va + vb >= t5.K:
                continue
            assert valuation(a * b) == va + vb


class TestInverse:
    def test_unit_inverse(self, t5):
        rng = random.Random(6)
        for _ in range(10):
            u = t5.random_unit(rng)
            assert u * u.inverse() == t5.one()

    def test_nonunit_rejected(self, t5):
        with pytest.raises(NotAUnit):
            t5.pi().inverse()

    def test_divide_by_pi_requires_divisibility(self, t7):
        with pytest.raises(PrecisionExhausted):
            t7.one().divide_by_pi()


class TestNOfPi:
    def test_base_case(self):
        assert n_of_pi_from(7, 1) == -1
        assert n_of_pi_from(3, 1) == -1

    def test_unramified_below_log_p(self):
        # for e = 1 the bound is -1 (and e = 1 < log p for every odd p);
        # under the v_p reading, e >= 2 already forces N >= 0 via n = 1
        for p in (3, 5, 7, 11, 13):
            assert n_of_pi_from(p, 1) == -1

    def test_p3_e2(self):
        assert n_of_pi_from(3, 2) == 0

    def test_e2_large_p(self):
        # v_p(pi/1) = 1/2 < 1, so N = -1 is impossible once e > 1
        assert n_of_pi_from(11, 2) == 0

    def test_tower_method(self, t7):
        # the bound tower-info reports; e = 2: v_p(pi) = 1/2 forces N = 0
        assert n_of_pi_from(t7.p, t7.e) == 0

    def test_brute_force_agreement(self):
        # oracle: scan v_p(pi^n / n) over a modest range
        def brute(p, e, nmax):
            best = None
            for n in range(1, nmax + 1):
                v = 0
                m = n
                while m % p == 0:
                    m //= p
                    v += 1
                val = -((n - v * e) // e)  # ceil(v - n/e)
                best = val if best is None else max(best, val)
            return best

        for p, e in [(3, 1), (3, 2), (3, 4), (5, 2), (5, 3), (7, 2), (7, 4)]:
            assert n_of_pi_from(p, e) == brute(p, e, p ** 4)


class TestMonomialIndependence:
    def test_distinct_gammas_independent(self):
        t = build_tower(TowerConfig(7, 2, 2, 2, 8))
        ok, wit = check_monomial_independence(t, (0, 1), 2)
        assert ok
        assert wit["12"]["tau_exponent"] == 7  # 0 + 7*1

    def test_duplicate_gammas(self, t7):
        ok, _ = check_monomial_independence(t7, (0, 0), 2)
        assert not ok

    def test_shared_exponent_dependent(self, t7):
        # 12 and 31 both act as tau^7 o phi^2: 0 + 7*1 = 7 + 7*0
        ok, wit = check_monomial_independence(t7, (0, 1, 7), 2)
        assert not ok
        assert wit["12"] == wit["31"] == {"length": 2, "tau_exponent": 7}

    def test_single_generator_free(self, t7):
        ok, _ = check_monomial_independence(t7, (1,), 4)
        assert ok

    def test_action_oracle_at_deep_level(self):
        # exhaustive comparison of word actions on pi at a level deep
        # enough to separate every exponent that occurs
        t = build_tower(TowerConfig(7, 2, 4, 2, 8))
        gammas = (0, 1)
        r = 2
        from frobjet.words import words_up_to
        actions = {}
        for w in words_up_to(2, r):
            c, s = word_exponents_for(t.p, gammas, w)
            key = (s, c % t.e)
            actions.setdefault(key, []).append(w)
        assert all(len(v) == 1 for v in actions.values())
        ok, _ = check_monomial_independence(t, gammas, r)
        assert ok


class TestRingAxioms:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 40), st.integers(0, 2 ** 40),
           st.integers(0, 2 ** 40))
    def test_distributivity(self, x, y, z):
        t = build_tower(TowerConfig(5, 2, 1, 1, 8))
        rng = random.Random(x ^ y)
        a = t.element([[x % 5 ** 8, y % 5 ** 8]])
        b = t.element([[z % 5 ** 8, x % 5 ** 8]])
        c = t.random_element(rng)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a


class TestPower:
    def _count_muls(self, monkeypatch):
        calls = []
        mul = TowerElement.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)
        monkeypatch.setattr(TowerElement, "__mul__", counted)
        return calls

    @pytest.mark.parametrize("n, muls", [(1, 0), (2, 1), (7, 4), (8, 3),
                                         (13, 5)])
    def test_multiply_count(self, t5, monkeypatch, n, muls):
        x = t5.random_element(random.Random(n))
        calls = self._count_muls(monkeypatch)
        x ** n
        assert len(calls) == muls

    def test_matches_repeated_product(self, t5):
        x = t5.random_element(random.Random(11))
        acc = t5.one()
        for n in range(12):
            assert x ** n == acc
            acc = acc * x

    def test_negative_power_refused(self, t5):
        with pytest.raises(ValueError):
            t5.one() ** -1


def test_elements_are_not_hashable(t5):
    """Equality is relative to precision, so an element has no hash."""
    with pytest.raises(TypeError):
        hash(t5.one())


def test_teichmuller_that_never_settles_is_a_bug(t5, monkeypatch):
    """x -> x^(p^f) gains a digit a step, so an iteration that has not
    settled after prec + 1 steps is a bug, never a result."""
    monkeypatch.setattr(TowerElement, "__pow__", lambda x, n: x + 1)
    with pytest.raises(CertificateFailure):
        t5.teichmuller(t5.from_int(2))


# the four towers of the benchmark's ramified-characters workload
BENCH_TOWERS = [(7, 2, 1, 1, 16), (7, 2, 2, 2, 14), (7, 2, 3, 2, 30),
                (5, 2, 2, 1, 40)]
Z, PI = sympy.symbols("z pi")
# 2f - 2 >= e wraps the reduction table; Phi_e splits into several factors
ZETA_TOWERS = BENCH_TOWERS + [(3, 5, 1, 4, 6), (13, 5, 1, 4, 4),
                              (11, 5, 1, 1, 6), (7, 2, 5, 4, 6)]


@pytest.mark.parametrize("cfg", ZETA_TOWERS, ids=str)
def test_zeta_tables_match_oracle(cfg):
    """zpow and zred2 from pdivmod_monic against one multiplication by x
    mod g per power."""
    t = build_tower(TowerConfig(*cfg))
    assert (t.zpow, t.zred2) == zeta_tables(t)


def test_zeta_order_certificate(monkeypatch):
    """A lifted g that is off in its last digit fails zeta^e = 1."""
    lift = pu.hensel_lift_factor

    def off(f, g0, p, K):
        g = lift(f, g0, p, K)
        return [(g[0] + p ** (K - 1)) % p ** K] + g[1:]
    monkeypatch.setattr(pu, "hensel_lift_factor", off)
    with pytest.raises(CertificateFailure, match="zeta\\^e"):
        build_tower(TowerConfig(7, 2, 2, 2, 14))


@functools.cache
def bench_tower(cfg):
    return build_tower(TowerConfig(*cfg))


def draw_element(data, t):
    pk = t.p ** t.K
    return t.element([data.draw(st.lists(st.integers(0, pk - 1),
                                         min_size=t.e, max_size=t.e))
                      for _ in range(t.f)])


def sympy_product(t, a, b):
    """a*b reduced by the Groebner basis [g(z), pi^e - p], read mod p^K.

    The leading terms z^f and pi^e are coprime, so the basis is Groebner
    and the remainder is the normal form with deg_z < f, deg_pi < e.
    """
    def expr(x):
        return sum(c * Z ** i * PI ** j for i, row in enumerate(x.coeffs)
                   for j, c in enumerate(row))
    g = sum(c * Z ** i for i, c in enumerate(t.g))
    _, r = sympy.reduced(sympy.expand(expr(a) * expr(b)),
                         [g, PI ** t.e - t.p], Z, PI)
    out = [[0] * t.e for _ in range(t.f)]
    for (i, j), c in sympy.Poly(r, Z, PI).terms():
        out[i][j] = int(c) % t.pK
    return out


@pytest.mark.parametrize("cfg", BENCH_TOWERS, ids=str)
class TestSympyOracle:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mul(self, cfg, data):
        t = bench_tower(cfg)
        a, b = draw_element(data, t), draw_element(data, t)
        assert [list(row) for row in (a * b).coeffs] == sympy_product(t, a, b)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_inverse(self, cfg, data):
        t = bench_tower(cfg)
        a = draw_element(data, t)
        if not any(row[0] % t.p for row in a.coeffs):
            a = a + 1   # a unit: its W-part is nonzero mod p
        one = [[0] * t.e for _ in range(t.f)]
        one[0][0] = 1
        assert sympy_product(t, a, a.inverse()) == one


# ---------------------------------------------------------------------------
# the packed multiply against the schoolbook one it replaced
# ---------------------------------------------------------------------------

# the benchmark towers, the f*e = 1 base ring of the log workload, a tower
# of long rows (e = 16), and two with f >= 3 zeta-rows, the second of which
# wraps zred2 (2f - 2 >= e)
ORACLE_TOWERS = BENCH_TOWERS + [(7, 2, 0, 1, 10), (7, 2, 4, 2, 8),
                                (11, 7, 1, 3, 8), (13, 5, 1, 4, 4)]


def draw_operand(data, t):
    """A dense element, a monomial c zeta^i pi^j, or one with zero rows and
    columns, at a precision drawn from 1..K."""
    prec = data.draw(st.integers(1, t.K))
    pk = t.p ** prec
    coeffs = [[data.draw(st.integers(0, pk - 1)) for _ in range(t.e)]
              for _ in range(t.f)]
    kind = data.draw(st.sampled_from(["dense", "monomial", "holes"]))
    if kind == "monomial":
        i, j = data.draw(st.integers(0, t.f - 1)), data.draw(
            st.integers(0, t.e - 1))
        c = data.draw(st.sampled_from([1, coeffs[i][j]]))
        coeffs = [[0] * t.e for _ in range(t.f)]
        coeffs[i][j] = c
    elif kind == "holes":
        rows = data.draw(st.sets(st.integers(0, t.f - 1)))
        cols = data.draw(st.sets(st.integers(0, t.e - 1)))
        coeffs = [[0 if i in rows or j in cols else c
                   for j, c in enumerate(row)]
                  for i, row in enumerate(coeffs)]
    return t.element(coeffs, prec)


@pytest.mark.parametrize("cfg", ORACLE_TOWERS, ids=str)
class TestSchoolbookOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mul(self, cfg, data):
        t = bench_tower(cfg)
        a, b = draw_operand(data, t), draw_operand(data, t)
        got, want = a * b, schoolbook_mul(a, b)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_square(self, cfg, data):
        a = draw_operand(data, bench_tower(cfg))
        got, want = a * a, schoolbook_mul(a, a)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_reused_operand(self, cfg, data):
        """One operand object in products at the drawn precisions of the
        others, in turn: what it packed at one modulus is not read at
        another."""
        t = bench_tower(cfg)
        a = draw_operand(data, t)
        for _ in range(4):
            b = draw_operand(data, t)
            for x, y in ((a, b), (b, a), (a, a), (a, t.one())):
                got, want = x * y, schoolbook_mul(x, y)
                assert (got.coeffs, got.prec) == (want.coeffs, want.prec)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_valuation(self, cfg, data):
        t = bench_tower(cfg)
        a = draw_operand(data, t)
        vals = [Fraction(pu.vp(c, t.p)) + Fraction(j, t.e)
                for row in a.coeffs for j, c in enumerate(row) if c]
        assert valuation(a) == (min(vals) if vals else INF)


@pytest.mark.parametrize("cfg", ORACLE_TOWERS, ids=str)
def test_worst_case_limb(cfg):
    """Every residue p^k - 1, at every precision k, the largest a limb of
    the packed rows must hold: products, squares, and a product with an
    operand at K, which packs at p^k as p^k - 1 again."""
    t = bench_tower(cfg)
    top = t.element([[t.pK - 1] * t.e for _ in range(t.f)])
    for k in range(1, t.K + 1):
        a = t.element([[t.p ** k - 1] * t.e for _ in range(t.f)], k)
        b = t.element(a.coeffs, k)
        for x, y in ((a, b), (a, a), (a, top), (top, a)):
            assert_oracle(x * y, x, y)


@pytest.mark.parametrize("cfg", ORACLE_TOWERS, ids=str)
def test_inverse_at_every_precision(cfg):
    """u * u^-1 = 1 at every precision 1..K, the product taken by the
    schoolbook oracle."""
    t = bench_tower(cfg)
    rng = random.Random(sum(cfg))
    for prec in range(1, t.K + 1):
        for _ in range(3):
            u = t.random_unit(rng, prec)
            got = schoolbook_mul(u, u.inverse())
            one = t.one(prec)
            assert (got.coeffs, got.prec) == (one.coeffs, one.prec)


def rows(x):
    """The zeta-rows that the product packs for ``x``."""
    return [list(row) for row in x.coeffs]


@pytest.fixture
def packs(monkeypatch):
    """The rows of every matrix packed into a pu.FoldRows value, with its
    modulus, in call order."""
    calls = []

    class Counting(pu.FoldRows):
        def __init__(self, a, mod, c):
            calls.append(([list(row) for row in a], mod))
            super().__init__(a, mod, c)

    monkeypatch.setattr(pu, "FoldRows", Counting)
    return calls


def assert_oracle(got, a, b):
    want = schoolbook_mul(a, b)
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


def test_square_packs_once(packs):
    """A square packs its one operand once; a product of two elements that
    were never multiplied packs each."""
    t = bench_tower((7, 2, 3, 2, 30))
    rng = random.Random(30)
    x, y, z = (t.random_element(rng) for _ in range(3))
    assert_oracle(x * x, x, x)
    assert packs == [(rows(x), t.pK)]
    del packs[:]
    assert_oracle(y * z, y, z)
    assert packs == [(rows(y), t.pK), (rows(z), t.pK)]


def test_power_packs_base_once(packs):
    """x^13 squares x, x^3, x^6 and multiplies by x twice: the base is
    packed once, and each of the five operands once."""
    t = bench_tower((7, 2, 3, 2, 30))
    x = t.random_element(random.Random(13))
    got = x ** 13
    want = functools.reduce(schoolbook_mul, [x] * 13)
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
    lists = [a for a, _ in packs]
    assert lists.count(rows(x)) == 1
    assert len(packs) == 5


def test_inverse_packs_each_iterate_once(packs):
    """Each Newton step packs x, a and 2 - a x once: 3 packs in each of the
    8 steps at (7, 2, 3, 2, 30), less a at precision 1 in the second and
    third of the three steps mod p, and no (list, modulus) pair twice."""
    t = bench_tower((7, 2, 3, 2, 30))
    u = t.random_unit(random.Random(1))
    inv = u.inverse()
    assert len(packs) == 22
    assert len({(tuple(map(tuple, a)), mod) for a, mod in packs}) == 22
    assert_oracle(u * inv, u, inv)


def test_packed_operand_reused(packs):
    """Once x * x has run, x * y packs only y, and x * y again nothing."""
    t = bench_tower((7, 2, 3, 2, 30))
    rng = random.Random(31)
    x, y = t.random_element(rng), t.random_element(rng)
    assert_oracle(x * x, x, x)
    del packs[:]
    assert_oracle(x * y, x, y)
    assert packs == [(rows(y), t.pK)]
    del packs[:]
    assert_oracle(x * y, x, y)
    assert packs == []


@pytest.mark.parametrize("cfg", BENCH_TOWERS, ids=str)
def test_zero_operand_costs_nothing(cfg):
    """A product with an operand that is zero mod p^prec is zero at the
    minimum precision, also when that operand only vanishes at the lower
    precision of the other."""
    t = bench_tower(cfg)
    rng = random.Random(sum(cfg))
    x = t.random_element(rng)
    zero = t.zero(3)
    p3 = t.element([[c * t.p ** 3 for c in row]
                    for row in t.random_element(rng).coeffs])
    low = t.random_element(rng, 3)
    for a, b in ((x, zero), (zero, x), (zero, zero), (p3, low), (low, p3)):
        got = a * b
        assert (got.coeffs, got.prec) == (t.zero(3).coeffs, 3)
        assert_oracle(got, a, b)
    assert_oracle(x * p3, x, p3)


@pytest.mark.parametrize("cfg", BENCH_TOWERS, ids=str)
def test_mixed_precision_repacks(cfg, packs):
    """x at K, then by an element at precision 5, then at K again: each
    product packs x at its own modulus and matches the oracle."""
    t = bench_tower(cfg)
    rng = random.Random(sum(cfg) + 1)
    x, y = t.random_element(rng), t.random_element(rng)
    low = t.random_element(rng, 5)
    for b in (y, low, y, low):
        assert_oracle(x * b, x, b)
    moduli = [mod for a, mod in packs if a == rows(x)]
    assert moduli == [t.pK, t.p ** 5, t.pK, t.p ** 5]


@pytest.mark.parametrize("cfg", BENCH_TOWERS, ids=str)
def test_inverse_mod_p_by_newton(cfg, monkeypatch):
    """Mod p the inverse takes ceil(log2 e) Newton steps of two products
    each, where a geometric series in the nilpotent part took e + 1."""
    t = bench_tower(cfg)
    u = t.random_unit(random.Random(sum(cfg)))
    at_one = []
    mul = TowerElement.__mul__

    def counting(self, other):
        if isinstance(other, TowerElement) and min(self.prec,
                                                   other.prec) == 1:
            at_one.append(1)
        return mul(self, other)

    monkeypatch.setattr(TowerElement, "__mul__", counting)
    inv = u.inverse()
    assert len(at_one) == 2 * (t.e - 1).bit_length()
    got = schoolbook_mul(u, inv)
    assert (got.coeffs, got.prec) == (t.one().coeffs, t.K)

