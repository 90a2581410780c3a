import random
from fractions import Fraction

import pytest

import frobjet.polyutils as pu
from frobjet import formal
from frobjet.crystal import crystalline_classes, kedlaya_frobenius
from frobjet.errors import (BadReduction, CertificateFailure,
                            DistinctWordsRequired, PrecisionExhausted,
                            SeriesTooShort)
from frobjet.formal import (FormalGroupLaw, WeierstrassCurve,
                            compose_log_with_law, curve_w_series,
                            formal_group_law, formal_log, l_mu_series,
                            psi_series)
from frobjet.jets import JetRing, JetRingConfig, eval_jet
from frobjet.tower import TowerConfig, build_tower, n_of_pi_from

import formal_oracle
from formal_oracle import exp_series, gm_log, log_coefficients_exact
from test_crystal import random_ordinary_curve

CM5 = WeierstrassCurve(5, 1, 0, "cm5")
C7 = WeierstrassCurve(7, 1, 3, "c7")


# a6 = 0 and a4 = 0 included: A and B then each lose a term
ORACLE_CURVES = (
    [CM5, WeierstrassCurve(5, 1, 1, "5a"), C7,
     WeierstrassCurve(7, 0, 1, "7-a4zero"), WeierstrassCurve(11, 2, 5, "11a"),
     WeierstrassCurve(13, 3, 0, "13-a6zero")]
    + [random_ordinary_curve(p, seed)
       for p, seed in [(5, 11), (7, 12), (11, 13), (13, 14)]])
ORACLE_DEGREES = (1, 2, 6, 9, 10, 12, 24)


class TestGroupLaw:
    def test_multiplicative_builtin(self):
        law = FormalGroupLaw(5, 10, 6, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
        assert law.coeffs[1, 1] == 1
        assert law.coeffs[1, 0] == 1 and law.coeffs[0, 1] == 1
        assert len(law.coeffs) == 3

    def test_neutral_section(self):
        law = formal_group_law(CM5, 10, 10)
        for (i, j), c in law.coeffs.items():
            if j == 0:
                assert (i, c) == (1, 1)

    def test_commutative(self):
        law = formal_group_law(C7, 10, 10)
        for (i, j), c in law.coeffs.items():
            assert law.coeffs.get((j, i), 0) == c

    def test_linear_truncation(self):
        law = formal_group_law(CM5, 9, 10)
        assert all(i + j == 1 or i + j >= 4 for (i, j) in law.coeffs)

    def test_associativity_mod_degree(self):
        # trivariate substitution oracle at degree 7
        D = 7
        p, prec = 5, 10
        mod = p ** prec
        law = formal_group_law(CM5, D, prec)

        def tri_mul(a, b):
            out = {}
            for k1, c1 in a.items():
                for k2, c2 in b.items():
                    k = tuple(x + y for x, y in zip(k1, k2))
                    if sum(k) <= D:
                        out[k] = (out.get(k, 0) + c1 * c2) % mod
            return {k: v for k, v in out.items() if v}

        def subst(outer_pos, inner):
            # F(inner, z) when outer_pos = 0, F(x, inner) when 1
            acc = {}
            for (i, j), c in law.coeffs.items():
                term = {(0, 0, 0): c}
                for _ in range(i):
                    term = tri_mul(term, inner if outer_pos == 0 else
                                   {(1, 0, 0): 1})
                for _ in range(j):
                    term = tri_mul(term, {(0, 0, 1): 1} if outer_pos == 0
                                   else inner)
                for k, v in term.items():
                    acc[k] = (acc.get(k, 0) + v) % mod
            return {k: v for k, v in acc.items() if v}

        Fxy = {}
        for (i, j), c in law.coeffs.items():
            Fxy[(i, j, 0)] = c
        Fyz = {}
        for (i, j), c in law.coeffs.items():
            Fyz[(0, i, j)] = c
        lhs = subst(0, Fxy)   # F(F(x,y), z)
        rhs = subst(1, Fyz)   # F(x, F(y,z))
        keys = set(lhs) | set(rhs)
        assert all((lhs.get(k, 0) - rhs.get(k, 0)) % mod == 0 for k in keys)

    def test_chord_matches_log_oracle(self):
        # independent route: e(l(t1) + l(t2)) with exact rationals
        D, prec = 8, 10
        law = formal_group_law(CM5, D, prec)
        log = formal_log(CM5, D, prec)
        e = exp_series(log, D)
        lc = log_coefficients_exact(log, D)

        def fmul(a, b):
            out = {}
            for k1, c1 in a.items():
                for k2, c2 in b.items():
                    k = (k1[0] + k2[0], k1[1] + k2[1])
                    if sum(k) <= D:
                        out[k] = out.get(k, Fraction(0)) + c1 * c2
            return out

        s = {}
        for m in range(1, D + 1):
            if lc[m]:
                s[(m, 0)] = s.get((m, 0), Fraction(0)) + lc[m]
                s[(0, m)] = s.get((0, m), Fraction(0)) + lc[m]
        acc, power = {}, {(0, 0): Fraction(1)}
        for m in range(1, D + 1):
            power = fmul(power, s)
            if e[m]:
                for k, v in power.items():
                    acc[k] = acc.get(k, Fraction(0)) + e[m] * v
        mod = 5 ** 8
        for i in range(D + 1):
            for j in range(D + 1 - i):
                want = law.coeffs.get((i, j), 0)
                got = acc.get((i, j), Fraction(0))
                assert got.denominator % 5
                lifted = got.numerator * pu.modinv(got.denominator, mod)
                assert (lifted - want) % mod == 0

    @pytest.mark.parametrize("curve", ORACLE_CURVES, ids=lambda c: c.label)
    def test_matches_dict_oracle(self, curve):
        """The Kronecker-packed law and residual against the sparse-dict
        arithmetic, key by key, also with the compose degree off law.D."""
        log = formal_log(curve, 26, 12)
        for D in ORACLE_DEGREES:
            law = formal_group_law(curve, D, 10)
            assert law.coeffs == formal_oracle.formal_group_law(
                curve, D, 10).coeffs
            for Dc in sorted({max(1, D - 3), D, D + 2}):
                assert (compose_log_with_law(log, law, Dc)
                        == formal_oracle.compose_log_with_law(log, law, Dc))

    @pytest.mark.parametrize("D", [1, 2, 3, 24, 25])
    def test_compose_horner_shrinks_with_degree(self, monkeypatch, D):
        """G = F^2 is taken at n = (D + 1)^2; the product of the Horner
        step at index k, which G multiplies k - 1 more times, asks only for
        its degrees <= D - 2k + 2, the (D - 2k + 3)(D + 1) coefficients
        below; the result is the dict oracle's.  An odd D is where a
        curve's odd law and log have terms at that top degree."""
        log, law = formal_log(C7, 26, 10), formal_group_law(C7, D, 10)
        asked, ser_mul = [], pu.ser_mul

        def recording(a, b, mod, n):
            asked.append(n)
            return ser_mul(a, b, mod, n)

        monkeypatch.setattr(pu, "ser_mul", recording)
        got = compose_log_with_law(log, law, D)
        monkeypatch.undo()
        assert asked == [(D + 1) ** 2] + [(D - 2 * k + 3) * (D + 1)
                                          for k in range(D // 2, 0, -1)]
        assert got == formal_oracle.compose_log_with_law(log, law, D)

    @pytest.mark.parametrize("curve", [C7, WeierstrassCurve(7, 0, 1)],
                             ids=lambda c: f"a4={c.a4}")
    @pytest.mark.parametrize("D", [1, 4, 5, 6, 7, 24])
    def test_group_law_inverts_a_to_what_b_reads(self, monkeypatch, curve,
                                                 D):
        """B = (2 a4 lambda + 3 a6 lambda^2) nu starts at T1 T2^4 (T1 T2^6
        when a4 = 0), index v = 5(D + 1) + 1 (7(D + 1) + 1), so 1/A is
        taken to n - v; a B that is 0 below degree D + 1 still takes 1/A
        to length 1.  The law is the dict oracle's."""
        low = 5 if curve.a4 else 7
        n = (D + 1) ** 2
        v = low * (D + 1) + 1 if D >= low else n - 1
        lengths, ser_inv = [], pu.ser_inv

        def recording(a, mod, k):
            lengths.append(k)
            return ser_inv(a, mod, k)

        monkeypatch.setattr(pu, "ser_inv", recording)
        law = formal_group_law(curve, D, 10)
        monkeypatch.undo()
        assert lengths == [n - v]
        assert law.coeffs == formal_oracle.formal_group_law(
            curve, D, 10).coeffs

    @pytest.mark.parametrize("D", [1, 3, 8])
    def test_multiplicative_matches_dict_oracle(self, D):
        law = FormalGroupLaw(5, 10, 5, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
        log = gm_log(5, 8, 10)
        assert (compose_log_with_law(log, law, D)
                == formal_oracle.compose_log_with_law(log, law, D))

    @pytest.mark.parametrize("D", [0, -1])
    def test_degree_below_one_rejected(self, D):
        with pytest.raises(SeriesTooShort):
            formal_group_law(C7, D, 10)
        law = formal_group_law(C7, 4, 10)
        with pytest.raises(SeriesTooShort):
            compose_log_with_law(formal_log(C7, 4, 10), law, D)

    def test_log_shorter_than_degree_rejected(self):
        law = formal_group_law(C7, 6, 10)
        with pytest.raises(PrecisionExhausted):
            compose_log_with_law(formal_log(C7, 4, 10), law, 6)

    def test_bad_reduction_rejected(self):
        with pytest.raises(BadReduction):
            WeierstrassCurve(5, 0, 0)

    def test_add_points_homomorphic_log(self):
        t = build_tower(TowerConfig(5, 2, 0, 1, 10))
        law = formal_group_law(CM5, 12, 10)
        log = formal_log(CM5, 60, 10)
        rng = random.Random(3)
        a = t.from_int(5 * rng.randrange(5 ** 8))
        b = t.from_int(5 * rng.randrange(5 ** 8))
        c = law.add_points(a, b)

        dmax = 2  # covers v_5(m) for m <= 60

        def log_at(x):
            # p^dmax * l(x), so every 1/m clears denominators
            acc, xn = t.zero(), t.one()
            for m in range(1, 61):
                xn = xn * x
                v = pu.vp(m, 5) if m % 5 == 0 else 0
                u = m // 5 ** v
                acc = acc + xn * (log.b[m] * 5 ** (dmax - v)
                                  * pu.modinv(u, 5 ** 10))
            return acc

        lhs = log_at(c)
        rhs = log_at(a) + log_at(b)
        assert lhs.equals(rhs, precision=8)


class TestFormalLog:
    def test_gm_signs(self):
        g = gm_log(5, 8, 10)
        assert g.b[1:5] == [1, 5 ** 10 - 1, 1, 5 ** 10 - 1]

    def test_b1_normalized(self):
        for cur in (CM5, C7):
            assert formal_log(cur, 10, 10).b[1] == 1

    def test_log_additive_on_law(self):
        law = formal_group_law(C7, 12, 12)
        log = formal_log(C7, 12, 12)
        resid, dmax = compose_log_with_law(log, law, 12)
        assert all(v % 7 ** (12 - dmax - 1) == 0 for v in resid.values())

    def test_exp_inverts_log(self):
        log = formal_log(C7, 9, 10)
        e = exp_series(log, 9)
        lc = log_coefficients_exact(log, 9)
        comp = [Fraction(0)] * 10
        power = [Fraction(0)] + [c for c in e[1:]] + [Fraction(0)]
        cur = list(power)
        for m in range(1, 10):
            if m > 1:
                cur = [sum((cur[i] * power[k - i] for i in range(k + 1)),
                           Fraction(0)) for k in range(10)]
            for k in range(10):
                comp[k] += lc[m] * cur[k]
        assert comp[1] == 1 and all(comp[k] == 0 for k in range(2, 10))

    def test_precision_budget(self):
        with pytest.raises(PrecisionExhausted):
            formal_log(CM5, 30, 2)

    @pytest.mark.parametrize("D", [0, -1])
    def test_degree_below_one_rejected(self, D):
        with pytest.raises(SeriesTooShort):
            formal_log(C7, D, 10)

    def test_residual_check_catches_lost_convergence(self, monkeypatch):
        """With G' replaced by 1, Newton gains two coefficients per step
        instead of doubling; the final residual check must see it."""
        one_minus = formal._one_minus

        def no_derivative(x, y, c4, c6, n, mod):
            if (c4, c6) == (2 * C7.a4, 3 * C7.a6):
                return [1] + [0] * (n - 1)
            return one_minus(x, y, c4, c6, n, mod)

        monkeypatch.setattr(formal, "_one_minus", no_derivative)
        with pytest.raises(CertificateFailure):
            formal_log(C7, 200, 10)

    @pytest.mark.parametrize("where", ["m-2", "m-1", "n-3"])
    @pytest.mark.parametrize("n", [100, 2421])
    def test_certificate_catches_bad_last_square(self, monkeypatch, n, where):
        """An error in one upper coefficient of the last Newton step's W^2
        (W of length m squared to length n) moves W off the solution; the
        certificate squares the returned W again and must see it."""
        curve, mod = WeierstrassCurve(11, 3, 5), 11 ** 10
        ser_mul = pu.ser_mul

        def bad_last_square(a, b, mod_, k):
            out = ser_mul(a, b, mod_, k)
            if a is b and len(a) < k == n:
                i = {"m-2": len(a) - 2, "m-1": len(a) - 1, "n-3": n - 3}[where]
                out[i] = (out[i] + 1) % mod_
            return out

        monkeypatch.setattr(pu, "ser_mul", bad_last_square)
        with pytest.raises(CertificateFailure):
            formal._curve_w_half(curve, n, mod)

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 2421])
    def test_squares_follow_newton_lengths(self, monkeypatch, n):
        """W is squared once per Newton step, on the lengths of
        newton_lengths(n), and once more at length n by the certificate."""
        lengths = []
        ser_mul = pu.ser_mul

        def recording(a, b, mod, k):
            if a is b:
                lengths.append(k)
            return ser_mul(a, b, mod, k)

        monkeypatch.setattr(pu, "ser_mul", recording)
        formal._curve_w_half(C7, n, 7 ** 10)
        assert lengths == pu.newton_lengths(n) + [n]

    def test_w_series_exact_length(self):
        mod = 7 ** 10
        for n in range(1, 12):
            w = curve_w_series(C7, n, mod)
            assert w == formal_oracle.curve_w_series(C7, n, mod)[:n]
        for n in (0, -1):
            with pytest.raises(SeriesTooShort):
                curve_w_series(C7, n, mod)

    @pytest.mark.parametrize("p,D", [(5, 1002), (7, 1962), (11, 4842)])
    def test_matches_t_series_oracle_at_benchmark_degrees(self, p, D):
        curve = random_ordinary_curve(p, p)
        assert formal_log(curve, D, 10).b == formal_oracle.formal_log(
            curve, D, 10).b

    @pytest.mark.parametrize("curve", ORACLE_CURVES, ids=lambda c: c.label)
    def test_matches_t_series_oracle(self, curve):
        """Every degree up to 40 and one long one, a4 = 0 and a6 = 0
        included, against Newton on the full t-series."""
        for D in list(range(1, 41)) + [251]:
            assert formal_log(curve, D, 8).b == formal_oracle.formal_log(
                curve, D, 8).b
        mod = curve.p ** 8
        assert (curve_w_series(curve, 253, mod)
                == formal_oracle.curve_w_series(curve, 253, mod))

    @pytest.mark.parametrize("curve", ORACLE_CURVES, ids=lambda c: c.label)
    def test_matches_closed_form(self, curve):
        """Against b_(2m+1) = sum_{2j+3k=m} m!/((j+2k)! j! k!) a4^j a6^k,
        which takes neither Newton nor a series product: every degree up
        to 40, and the degrees whose half length n = (D + 1) // 2 is a
        length of newton_lengths(200) or one off it, up to D = 401; a4 = 0
        and a6 = 0 included, at precision 10 (p = 11 is the benchmark's)."""
        mod = curve.p ** 10
        want = formal_oracle.log_numerators(curve, 401, mod)
        edges = {2 * m + e for m in pu.newton_lengths(200)
                 for e in (-3, -1, 1)}
        for D in sorted(set(range(1, 41)) | edges):
            assert formal_log(curve, D, 10).b == want[:D + 1]

    @pytest.mark.parametrize("curve", ORACLE_CURVES, ids=lambda c: c.label)
    def test_odd_coefficients_are_constant_terms(self, curve):
        """b_(2k+1) = [x^(2k)] f(x)^k over the integers, b_(2k) = 0."""
        K = 12
        log = formal_log(curve, 2 * K + 1, 10)
        mod = curve.p ** 10
        f, fk = curve.fpoly(), [1]
        for k in range(K + 1):
            assert log.b[2 * k + 1] == fk[2 * k] % mod
            if k:
                assert log.b[2 * k] == 0
            fk = [sum(fk[i] * f[j - i] for i in range(len(fk))
                      if 0 <= j - i < len(f))
                  for j in range(len(fk) + len(f) - 1)]

    def test_precision_budget_at_exact_power(self):
        # 1/17^3 sits at degree 17^3: three digits cannot hold it
        with pytest.raises(PrecisionExhausted):
            formal_log(WeierstrassCurve(17, 1, 1), 17 ** 3, 3)

    @pytest.mark.parametrize("p,k", [(3, 5), (11, 7), (17, 3), (17, 6),
                                     (17, 11)])
    def test_floor_log_at_exact_powers(self, p, k):
        assert pu.floor_log(p, p ** k) == k
        assert pu.floor_log(p, p ** k - 1) == k - 1
        assert pu.floor_log(p, p ** k + 1) == k


@pytest.fixture(scope="module")
def zp5ring():
    t = build_tower(TowerConfig(5, 2, 0, 1, 12))
    return JetRing(JetRingConfig(t, 1, 2, 48, (0,)))


class TestLMuSeries:
    def test_base_p_structure(self, zp5ring):
        # pi = p: L^i = sum (b_m/m) p^m (delta_i T)^m after T -> 0
        log = formal_log(CM5, 48, 12)
        L, Lt = l_mu_series(log, (1,), zp5ring)
        var = zp5ring.word_to_var[(1,)]
        p = 5
        dmax = L.den
        for m in range(1, 6):
            got = L.terms.get(((var, m),), zp5ring.tower.zero())
            v = pu.vp(m, p) if m % p == 0 else 0
            expect = (log.b[m] * p ** (m + dmax - v)
                      * pu.modinv(m // p ** v, p ** 12))
            assert got.equals(zp5ring.tower.from_int(expect), precision=9)

    def test_leading_term_of_scaled_series(self, zp5ring):
        log = formal_log(CM5, 48, 12)
        _, Lt = l_mu_series(log, (1,), zp5ring)
        var = zp5ring.word_to_var[(1,)]
        assert Lt.den == 0
        lead = Lt.terms[((var, 1),)]
        assert lead == zp5ring.tower.from_int(log.b[1])

    def test_depth_two_congruence(self, zp5ring):
        # scaled length-2 series reduces to (delta_i T)^p mod p
        log = formal_log(CM5, 48, 12)
        _, Lt = l_mu_series(log, (1, 1), zp5ring)
        p = 5
        var = zp5ring.word_to_var[(1,)]
        t = zp5ring.tower
        expect_mono = ((var, p),)
        for mono, coeff in Lt.terms.items():
            if mono == expect_mono:
                assert (coeff - t.one()).coeffs[0][0] % p == 0
            else:
                assert coeff.coeffs[0][0] % p == 0

    def test_depth_three_congruence(self):
        # one level deeper: the length-3 scaled series reduces to
        # (delta_i T)^(p^2) mod p, with the innermost letter surviving
        t = build_tower(TowerConfig(5, 2, 0, 1, 10))
        ring = JetRing(JetRingConfig(t, 1, 3, 30, (0,)))
        log = formal_log(WeierstrassCurve(5, 1, 1), 30, 10)
        _, Lt = l_mu_series(log, (1, 1, 1), ring)
        var = ring.word_to_var[(1,)]
        expect_mono = ((var, 25),)
        seen = False
        for mono, coeff in Lt.terms.items():
            if mono == expect_mono:
                assert (coeff - t.one()).coeffs[0][0] % 5 == 0
                seen = True
            else:
                assert coeff.coeffs[0][0] % 5 == 0
        assert seen

    @pytest.mark.parametrize("mu", [(1,), (1, 1)])
    def test_ramified_scaling(self, mu):
        """e = 8 at p = 7: the pole bound N = 1 is nonnegative, so Ltilde
        is L scaled by p^N, normalized to denominator 0."""
        t = build_tower(TowerConfig(7, 2, 3, 2, 12))
        ring = JetRing(JetRingConfig(t, 1, 2, 10, (0,)))
        N = n_of_pi_from(t.p, t.e)
        assert (t.e, N) == (8, 1)
        L, Lt = l_mu_series(formal_log(C7, 10, 12), mu, ring)
        assert Lt.den == 0 < L.den
        assert set(Lt.terms) == set(L.terms)
        for mono, c in L.terms.items():
            lhs, rhs = Lt.terms[mono] * t.p ** L.den, c * t.p ** N
            assert min(lhs.prec, rhs.prec) >= 1
            assert lhs.equals(rhs)


class TestPsiSeries:
    def test_zero_inputs(self, zp5ring):
        log = formal_log(CM5, 48, 12)
        t = zp5ring.tower
        psi, report = psi_series(t.zero(), t.zero(), t.zero(), (1, 1), (1,),
                                 log, zp5ring)
        assert not psi.terms

    def test_equal_words_rejected(self, zp5ring):
        log = formal_log(CM5, 48, 12)
        t = zp5ring.tower
        with pytest.raises(DistinctWordsRequired):
            psi_series(t.one(), t.one(), t.zero(), (1,), (1,), log, zp5ring)

    def test_integral_with_crystalline_inputs(self, zp5ring):
        # full pipeline: the character series built from the cohomology
        # classes has integral coefficients (checked, never assumed)
        cur = WeierstrassCurve(5, 1, 1)
        drd = kedlaya_frobenius(cur, 12)
        cc = crystalline_classes(drd, 2)
        t = zp5ring.tower
        log = formal_log(cur, 48, 12)
        psi, report = psi_series(
            t.from_int(cc.f("11")), t.from_int(cc.f("1")),
            t.from_int(cc.f_pair("11", "1")), (1, 1), (1,), log, zp5ring)
        assert report and all(report.values())

    def test_t_pure_part_integral_to_deep_degree(self):
        # the sub-series in T alone is checkable far beyond the jet
        # truncation: through degree p^2 * 10 here
        p = 5
        prec = 12
        Ddeep = p * p * 10
        cur = WeierstrassCurve(5, 1, 1)
        drd = kedlaya_frobenius(cur, prec)
        cc = crystalline_classes(drd, 2)
        log = formal_log(cur, Ddeep, prec)
        ft_mu, ft_nu = cc.f("11"), cc.f("1")
        f_pair = cc.f_pair("11", "1")
        mod = p ** (prec - 1)
        dmax = 3  # covers v_p(m) for m <= 250 plus the 1/p scale
        acc = {}
        for m in range(1, Ddeep + 1):
            v = pu.vp(m, p) if m % p == 0 else 0
            unit_inv = pu.modinv(m // p ** v, mod)
            for coeff, power in ((ft_nu, p * p * m), (-ft_mu, p * m),
                                 (f_pair, m)):
                if power > Ddeep:
                    continue
                contrib = (coeff * log.b[m] * unit_inv
                           * p ** (dmax - v - 1)) % mod
                acc[power] = (acc.get(power, 0) + contrib) % mod
        # psi integral <=> every accumulated coefficient divisible by the
        # scale p^dmax that stands in for the denominators
        assert all(v % p ** dmax == 0 for v in acc.values())

    def test_homomorphism_law_on_points(self, zp5ring):
        # eval(psi, a (+) b) = eval(psi, a) + eval(psi, b) for formal points
        cur = WeierstrassCurve(5, 1, 1)
        drd = kedlaya_frobenius(cur, 12)
        cc = crystalline_classes(drd, 2)
        t = zp5ring.tower
        log = formal_log(cur, 48, 12)
        psi, _ = psi_series(
            t.from_int(cc.f("11")), t.from_int(cc.f("1")),
            t.from_int(cc.f_pair("11", "1")), (1, 1), (1,), log, zp5ring)
        law = formal_group_law(cur, 12, 12)
        rng = random.Random(7)
        for _ in range(5):
            a = t.from_int(5 * (1 + rng.randrange(5 ** 9)))
            b = t.from_int(5 * (1 + rng.randrange(5 ** 9)))
            c = law.add_points(a, b)
            lhs = eval_jet(zp5ring, psi, c)
            rhs = eval_jet(zp5ring, psi, a) + eval_jet(zp5ring, psi, b)
            v = (lhs - rhs).normalized().valuation()
            assert v == float("inf") or v >= 8

    def test_gm_consistency_with_character(self):
        # multiplicative law + the symbol p^(N+1)(phi_i - p) reproduces the
        # closed-form character on sample points
        from frobjet.characters import gm_character_eval
        from frobjet.formal import log_jet
        from frobjet.jets import JetElement, phi_word
        from frobjet.tower import FrobeniusIndex, INF

        t = build_tower(TowerConfig(5, 2, 0, 1, 12))
        ring = JetRing(JetRingConfig(t, 1, 1, 40, (0,)))
        log = gm_log(5, 40, 12)
        scale = 5 ** (-1 + 1)  # p^(N+1) with N = -1 for pi = p
        lj = log_jet(log, ring)
        num = (phi_word(ring, (1,), lj).scale(scale)
               - lj.scale(scale * 5))
        psi = JetElement(ring, num.terms, num.den + 1)
        rng = random.Random(4)
        for _ in range(5):
            a = t.from_int(5 * (1 + rng.randrange(5 ** 9)))
            x = t.one() + a
            jet_val = eval_jet(ring, psi, a)
            closed = gm_character_eval(t, FrobeniusIndex(0), x)
            v = (jet_val - closed).normalized().valuation()
            assert v == INF or v >= 7
