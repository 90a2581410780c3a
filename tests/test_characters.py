import functools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobjet import characters
from frobjet import polyutils as pu
from frobjet import tower
from frobjet.characters import (PairingContext, RestrictedSeries, asd_check,
                                count_roots_zp, gm_character_eval,
                                kernel_dimension, pairing, reciprocity_check,
                                strassman_count)
from frobjet.crystal import crystalline_classes, kedlaya_frobenius
from frobjet.errors import (BetaTooLarge, CertificateFailure,
                            DistinctWordsRequired, FamilyMismatch, NotAUnit,
                            PrecisionExhausted, SeriesTooShort, ZeroSeries)
from frobjet.formal import (WeierstrassCurve, formal_log,
                            scaled_log_coefficients)
from frobjet.tower import (INF, FrobeniusIndex, QElement, Tower, TowerConfig,
                           TowerElement, build_tower, check_beta, log1p,
                           pi_valuation, valuation)

from formal_oracle import gm_log
from symbols_oracle import six_product_pairing
from tower_oracle import ratio_character, schoolbook_mul, sequential_log1p


@pytest.fixture(scope="module")
def t5():
    return build_tower(TowerConfig(5, 2, 0, 1, 14))


@pytest.fixture(scope="module")
def t7():
    return build_tower(TowerConfig(7, 2, 1, 1, 14))


@pytest.fixture(scope="module", params=[(7, 2, 1, 1, 14), (7, 2, 2, 2, 14)],
                ids=str)
def tq(request):
    """The unit character's towers at f = 1, where q = p, and at f = 2."""
    return build_tower(TowerConfig(*request.param))


class TestGmCharacter:
    def test_one_maps_to_zero(self, t7):
        assert gm_character_eval(t7, FrobeniusIndex(1), t7.one()).num.is_zero()

    def test_teichmuller_vanishes(self, tq):
        """On Teichmuller lifts of random residues in F_q, not only in F_p,
        and on zeta."""
        rng = random.Random(1)
        for _ in range(5):
            w = [[row[0]] + [0] * (tq.e - 1)
                 for row in tq.random_unit(rng).coeffs]
            u = tq.teichmuller(tq.element(w))
            assert gm_character_eval(tq, FrobeniusIndex(1), u).num.is_zero()
        assert gm_character_eval(tq, FrobeniusIndex(1), tq.zeta()
                                 ).num.is_zero()

    def test_units_required(self, t7):
        with pytest.raises(NotAUnit):
            gm_character_eval(t7, FrobeniusIndex(0), t7.pi())

    def test_base_closed_form(self, t5):
        # pi = p, phi = id: psi(x) = p^(-1)(1 - p) log x, two-route check
        rng = random.Random(2)
        for _ in range(10):
            x = t5.from_int(1 + 5 * rng.randrange(5 ** 11))
            psi = gm_character_eval(t5, FrobeniusIndex(0), x)
            lx = log1p(x - 1)
            expect = QElement(lx.num * (1 - 5), lx.den + 1)
            v = (psi - expect).normalized().valuation()
            assert v == INF or v >= 10

    def test_one_power_per_evaluation(self, t7, monkeypatch):
        calls = []
        power = TowerElement.__pow__

        def counted(self, n):
            calls.append(n)
            return power(self, n)
        monkeypatch.setattr(TowerElement, "__pow__", counted)
        x = t7.random_unit(random.Random(6))
        gm_character_eval(t7, FrobeniusIndex(1), x)
        assert calls == [t7.p ** t7.f - 1]

    def test_no_inverse(self, t7, monkeypatch):
        calls = []
        inverse = TowerElement.inverse

        def counted(self):
            calls.append(1)
            return inverse(self)
        monkeypatch.setattr(TowerElement, "inverse", counted)
        rng = random.Random(7)
        for gamma in range(3):
            gm_character_eval(t7, FrobeniusIndex(gamma), t7.random_unit(rng))
        gm_character_eval(t7, FrobeniusIndex(1), t7.zeta())
        assert calls == []

    def test_additive_on_units(self, tq):
        rng = random.Random(3)
        for _ in range(100):
            x, y = tq.random_unit(rng), tq.random_unit(rng)
            d = gm_character_eval(tq, FrobeniusIndex(1), x * y) - (
                gm_character_eval(tq, FrobeniusIndex(1), x)
                + gm_character_eval(tq, FrobeniusIndex(1), y))
            v = d.valuation()
            assert v == INF or v >= 12


# ---------------------------------------------------------------------------
# the Paterson-Stockmeyer logarithm against the sequential one it replaced
# ---------------------------------------------------------------------------

# the benchmark towers plus the f*e = 1 base ring of the log workload
ORACLE_TOWERS = [(7, 2, 1, 1, 16), (7, 2, 2, 2, 14), (7, 2, 3, 2, 30),
                 (5, 2, 2, 1, 40), (7, 2, 0, 1, 10)]


@functools.cache
def oracle_tower(cfg):
    return build_tower(TowerConfig(*cfg))


def on_oracle(fn, *args):
    """fn(*args) with the sequential log and the schoolbook multiply."""
    with mock.patch.object(characters, "log1p", sequential_log1p), \
            mock.patch.object(TowerElement, "__mul__", schoolbook_mul):
        return fn(*args)


def assert_same(got, want):
    assert (got.num.coeffs, got.num.prec, got.den) == (
        want.num.coeffs, want.num.prec, want.den)


def draw_coeffs(data, t, prec):
    pk = t.p ** prec
    return [[data.draw(st.integers(0, pk - 1)) for _ in range(t.e)]
            for _ in range(t.f)]


def first_zero_power(z):
    zn = z
    for n in range(1, z.tower.e * z.prec + 2):   # v(z) >= 1/e
        if zn.is_zero():
            return n
        zn = zn * z
    return None


@pytest.mark.parametrize("cfg", ORACLE_TOWERS, ids=str)
class TestLog1pOracle:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_gm_character(self, cfg, data):
        t = oracle_tower(cfg)
        prec = data.draw(st.integers(1, t.K))
        coeffs = draw_coeffs(data, t, prec)
        if not any(row[0] % t.p for row in coeffs):
            coeffs[0][0] += 1   # a unit: its W-part is nonzero mod p
        x = t.element(coeffs, prec)
        idx = FrobeniusIndex(data.draw(st.integers(0, 2)))
        assert_same(gm_character_eval(t, idx, x),
                    on_oracle(gm_character_eval, t, idx, x))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_unit_log(self, cfg, data):
        t = oracle_tower(cfg)
        prec = data.draw(st.integers(1, t.K))
        # z = pi^k y, zero mod p^prec once k >= e prec
        k = data.draw(st.integers(1, t.e * prec + 1))
        y = t.element(draw_coeffs(data, t, prec), prec)
        z = t.pi(prec) ** k * y
        assert_same(log1p(z), on_oracle(sequential_log1p, z))

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_short_sums(self, cfg, N):
        # v_pi(z) = ceil(E / (N + 1)) with E = e prec stops the sum at N
        t = oracle_tower(cfg)
        E = t.e * t.K
        z = t.pi() ** -(-E // (N + 1)) * t.random_unit(random.Random(N))
        assert first_zero_power(z) == N + 1
        assert_same(log1p(z), on_oracle(sequential_log1p, z))
        for j in range(t.e):
            # phi(zeta^j) = (zeta^j)^p, so the log runs on z = 0
            u = t.zeta() ** j
            assert_same(gm_character_eval(t, FrobeniusIndex(1), u),
                        on_oracle(gm_character_eval, t, FrobeniusIndex(1), u))


def test_log_block_capped_by_the_limb(monkeypatch):
    """At (7, 2, 1, 1, 200) with v_pi(z) = 1 the sum runs to N = 399, and
    isqrt(N) = 19 blocks of terms would overflow a limb of the packed
    powers, which holds (1 + p) f e = 16: every block sums at most 16
    powers, and the log and the unit character still equal the sequential
    oracle's, numerator, precision and den."""
    t = oracle_tower((7, 2, 1, 1, 200))
    rng = random.Random(200)
    blocks, combine = [], pu.fold_combine
    monkeypatch.setattr(pu, "fold_combine", lambda packs, cs: (
        blocks.append((len(packs), len(cs))) or combine(packs, cs)))
    z = t.pi() * t.random_unit(rng)
    assert_same(log1p(z), on_oracle(sequential_log1p, z))
    assert blocks and set(blocks) == {(16, 16), (16, 399 % 16)}
    del blocks[:]
    for gamma in range(2):
        u = t.random_unit(rng)
        assert pi_valuation(u ** (t.p - 1) - 1) == 1
        idx = FrobeniusIndex(gamma)
        assert_same(gm_character_eval(t, idx, u),
                    on_oracle(gm_character_eval, t, idx, u))
    assert blocks and {n for n, _ in blocks} == {16}


@pytest.mark.parametrize("cfg", ORACLE_TOWERS, ids=str)
def test_gm_character_matches_ratio_formula(cfg):
    """(phi_i - p)(log x^(q-1))/(q - 1) against log(phi_i(x)/x^p) itself:
    numerator, precision and den, at every precision and gamma, on units,
    zeta-powers times units, zeta-powers and Teichmuller lifts."""
    t = oracle_tower(cfg)
    rng = random.Random(sum(cfg))
    xs = []
    for prec in range(1, t.K + 1):
        u = t.random_unit(rng, prec)
        xs += [u, t.zeta(prec) ** rng.randrange(t.e) * u]
    xs += [t.zeta() ** j for j in range(t.e)]
    xs += [t.teichmuller(t.from_int(a)) for a in range(1, t.p)]
    for x in xs:
        for gamma in range(3):
            idx = FrobeniusIndex(gamma)
            assert_same(gm_character_eval(t, idx, x),
                        ratio_character(t, idx, x))


def test_log_multiplies_grow_like_sqrt(monkeypatch):
    """The logarithm of one character value takes exactly (m - 1) +
    (ceil(N / m) - 1) tower products for its N terms, m = isqrt(N): the
    powers z^2, ..., z^m and one Horner step per block after the first; one
    per term would be N.  Every tower product runs through
    ``Tower.product_rows``, a plain multiply too; the products of x^(q - 1)
    before the logarithm are not counted."""
    t = oracle_tower((7, 2, 3, 2, 30))
    calls, logs = [], []
    rows, log1p = Tower.product_rows, tower.log1p

    def counted_rows(self, x, y):
        calls.append(1)
        return rows(self, x, y)

    def traced_log1p(z):
        start = len(calls)
        out = log1p(z)
        logs.append((z, len(calls) - start))
        return out
    monkeypatch.setattr(Tower, "product_rows", counted_rows)
    monkeypatch.setattr(characters, "log1p", traced_log1p)
    x = t.random_unit(random.Random(8))
    gm_character_eval(t, FrobeniusIndex(1), x)
    ((z, products),) = logs
    N = math.ceil(z.prec / valuation(z)) - 1
    m = math.isqrt(N)
    assert N >= 200
    assert products == (m - 1) + (-(-N // m) - 1)
    calls.clear()
    x * z
    assert len(calls) == 1


@pytest.mark.parametrize("cfg", ORACLE_TOWERS, ids=str)
def test_log_table_matches_scaled_gm_log(cfg):
    """The table the tower built, each entry (u, v) scaled to u p^(dmax - v),
    equals the scaled coefficients of the G_m logarithm, the per-call route
    it replaced, at every precision and every n <= e prec - 1, the last term
    a logarithm at that precision can keep; the table ends at e K - 1."""
    t = oracle_tower(cfg)
    assert len(t._log_table) == t.e * t.K
    for prec in range(1, t.K + 1):
        N, pk = t.e * prec - 1, t.p ** prec
        dmax = pu.floor_log(t.p, t.e * (prec + 2) + 1)
        assert [0] + [u * t.p ** (dmax - v) % pk
                      for u, v in t._log_table[1:N + 1]] == \
            scaled_log_coefficients(gm_log(t.p, N, prec), N, dmax, pk)


def test_log_refuses_a_short_table(monkeypatch):
    """A logarithm whose stop index passes the end of the tower's table
    raises CertificateFailure instead of summing fewer terms: with
    v_pi(z) = 1 at precision K the sum runs to N = e K - 1, the table's
    last index."""
    t = oracle_tower((7, 2, 1, 1, 16))
    z = t.pi() * t.random_unit(random.Random(9))
    log1p(z)
    monkeypatch.setattr(t, "_log_table", t._log_table[:-1])
    with pytest.raises(CertificateFailure):
        log1p(z)


@pytest.fixture(scope="module")
def pipeline(t5):
    cur = WeierstrassCurve(5, 1, 1)
    drd = kedlaya_frobenius(cur, 14)
    cc = crystalline_classes(drd, 2)
    log = formal_log(cur, 25 * 10 + 2, 14)
    fvals = {"ft_mu": t5.from_int(cc.f("11")),
             "ft_nu": t5.from_int(cc.f("1")),
             "f_mu_nu": t5.from_int(cc.f_pair("11", "1"))}
    return log, fvals


class TestAsd:

    def test_zero_classes_trivially_pass(self, t5, pipeline):
        log, _ = pipeline
        z = {"ft_mu": t5.zero(), "ft_nu": t5.zero(), "f_mu_nu": t5.zero()}
        rep = asd_check(log, z, (1, 1), (1,), 10, t5, (0,))
        assert all(r["pass"] for r in rep)

    def test_crystalline_classes_pass(self, t5, pipeline):
        log, fvals = pipeline
        rep = asd_check(log, fvals, (1, 1), (1,), 10, t5, (0,))
        assert all(r["pass"] for r in rep)
        assert all(r["certificate"] >= 2 for r in rep)

    def test_mutated_class_fails(self, t5, pipeline):
        log, fvals = pipeline
        bad = dict(fvals)
        bad["ft_mu"] = fvals["ft_mu"] * (1 + 5)  # unit != 1
        rep = asd_check(log, bad, (1, 1), (1,), 10, t5, (0,))
        assert any(not r["pass"] for r in rep)

    def test_short_series_rejected(self, t5, pipeline):
        _, fvals = pipeline
        short = formal_log(WeierstrassCurve(5, 1, 1), 30, 14)
        with pytest.raises(SeriesTooShort):
            asd_check(short, fvals, (1, 1), (1,), 10, t5, (0,))

    def test_letter_outside_family_rejected(self, t5, pipeline):
        log, fvals = pipeline
        for mu, nu in (((1, 2), (1,)), ((1, 1), (2,))):
            with pytest.raises(FamilyMismatch):
                asd_check(log, fvals, mu, nu, 10, t5, (0,))

    def test_log_of_another_prime_rejected(self, t7, pipeline):
        """The p = 5 log on a p = 7 tower: its b_N are residues mod 5^14,
        not 7-adic numbers, so no report is made."""
        log, _ = pipeline
        ones = {k: t7.one() for k in ("ft_mu", "ft_nu", "f_mu_nu")}
        with pytest.raises(FamilyMismatch):
            asd_check(log, ones, (1, 1), (1,), 5, t7, (0,))

    @pytest.mark.parametrize("word", [(1,), (1, 1)])
    def test_equal_words_rejected(self, t5, pipeline, word):
        """With mu = nu every combination is 0, so the report would pass
        without checking anything."""
        log, fvals = pipeline
        with pytest.raises(DistinctWordsRequired):
            asd_check(log, fvals, word, word, 10, t5, (0,))


class TestPairing:
    def test_context_validation(self, t7):
        with pytest.raises(DistinctWordsRequired):
            PairingContext(t7, (0, 1), (1,), (1,))
        with pytest.raises(ValueError):
            PairingContext(t7, (0, 1), (1, 1, 1), (2,))

    def test_self_pairing_zero(self, t7):
        ctx = PairingContext(t7, (0, 1), (1, 1), (2, 1))
        rng = random.Random(4)
        for _ in range(10):
            a = t7.random_element(rng)
            assert pairing(ctx, a, a).is_zero()

    def test_rational_multiples_in_kernel(self, t7):
        ctx = PairingContext(t7, (0, 1), (1, 1), (2, 1))
        rng = random.Random(5)
        beta = t7.pi()
        lam = t7.from_int(rng.randrange(7 ** 14))
        assert pairing(ctx, beta * lam, beta).is_zero()

    def test_nonrational_twist_detected(self):
        # alpha = zeta pi_1 with zeta outside the base field pairs nonzero
        # against beta = pi_1; needs a level whose squared Frobenius still
        # moves zeta, hence unramified degree 3 (ord of 7 mod 9)
        t = build_tower(TowerConfig(7, 3, 2, 3, 8))
        ctx = PairingContext(t, (0, 1), (1, 1), (2, 1))
        beta = t.pi() ** 3        # the level-one uniformizer 7^(1/3)
        alpha = t.zeta() * beta
        assert not pairing(ctx, alpha, beta).is_zero()
        # on a level with f = 2 the squared Frobenius fixes zeta and the
        # same pairing collapses for equal-length words
        t2 = build_tower(TowerConfig(7, 2, 2, 2, 8))
        ctx2 = PairingContext(t2, (0, 1), (1, 1), (2, 1))
        assert pairing(ctx2, t2.zeta() * t2.pi(), t2.pi()).is_zero()

    def test_bilinear(self, t7):
        ctx = PairingContext(t7, (0, 1), (1,), (2, 2))
        rng = random.Random(6)
        a, b, c = (t7.random_element(rng) for _ in range(3))
        n = rng.randrange(1, 50)
        assert pairing(ctx, a + b * n, c) == (
            pairing(ctx, a, c) + pairing(ctx, b, c) * n)


class TestPairingAgainstSixProducts:
    """The 2 x 2 determinant of primary classes against the six-product
    expansion, on random arguments at mixed precisions."""

    WORDS = [((1, 1), (2, 1)), ((2, 1), (1, 1)), ((1,), (2, 2)),
             ((2, 2), (1,)), ((1, 2), (1,)), ((2,), (1,))]

    @pytest.mark.parametrize("cfg", [(7, 2, 1, 1, 14), (7, 2, 3, 2, 12),
                                     (5, 2, 2, 1, 20)])
    def test_random_pairs(self, cfg):
        t = build_tower(TowerConfig(*cfg))
        rng = random.Random(sum(cfg))
        for mu, nu in self.WORDS:
            ctx = PairingContext(t, (0, 1), mu, nu)
            for _ in range(3):
                a = t.random_element(rng, rng.randrange(2, t.K + 1))
                b = t.random_element(rng, rng.randrange(2, t.K + 1))
                for x, y in ((a, b), (b, a), (a, a)):
                    got = pairing(ctx, x, y)
                    want = six_product_pairing(ctx, x, y)
                    assert (got.coeffs, got.prec) == (want.coeffs,
                                                      want.prec)

    def test_two_tower_products(self, t7, monkeypatch):
        ctx = PairingContext(t7, (0, 1), (1, 1), (2, 1))
        rng = random.Random(9)
        a, b = t7.random_element(rng), t7.random_element(rng)
        calls = []
        mul = TowerElement.__mul__

        def counting(self, other):
            if isinstance(other, TowerElement):
                calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(TowerElement, "__mul__", counting)
        pairing(ctx, a, b)
        assert len(calls) == 2


class TestKernelDimension:
    def test_ramified_witness(self, t7):
        ctx = PairingContext(t7, (0, 1), (1, 1), (2, 1))
        kd = kernel_dimension(ctx, t7.pi())
        assert kd["dimension"] == 1
        for w in kd["witnesses"]:
            assert pairing(ctx, w, t7.pi()).is_zero()
            assert valuation(w) == Fraction(1, 2)

    def test_full_for_rational_beta_equal_gammas(self, t7):
        ctx = PairingContext(t7, (0, 0), (1, 1), (2, 2))
        kd = kernel_dimension(ctx, t7.from_int(7 * 2))
        assert kd["dimension"] == t7.f * t7.e

    def test_zero_beta_full(self, t7):
        ctx = PairingContext(t7, (0, 1), (1, 1), (2, 1))
        kd = kernel_dimension(ctx, t7.zero())
        assert kd["dimension"] == t7.f * t7.e

    def test_products_only_inside_pairing(self, monkeypatch):
        """A witness is built from its kernel vector: every product of the
        full rational-beta kernel at f e = 16 is one the pairings make."""
        t = build_tower(TowerConfig(7, 2, 3, 2, 30))
        ctx = PairingContext(t, (0, 0), (1, 1), (2, 2))
        calls, depth = {"all": 0, "pairing": 0}, []
        mul, pair = TowerElement.__mul__, characters.pairing

        def counting_mul(self, other):
            calls["all"] += 1
            calls["pairing"] += bool(depth)
            return mul(self, other)

        def counting_pairing(*args):
            depth.append(1)
            try:
                return pair(*args)
            finally:
                depth.pop()

        monkeypatch.setattr(TowerElement, "__mul__", counting_mul)
        monkeypatch.setattr(characters, "pairing", counting_pairing)
        kd = kernel_dimension(ctx, t.from_int(7 * 3))
        assert kd["dimension"] == len(kd["witnesses"]) == 16
        assert calls["all"] == calls["pairing"] > 0
        for vec, w in zip(kd["kernel"], kd["witnesses"]):
            assert list(sum(w.coeffs, ())) == vec

    def test_pivot_rows_divisible_by_own_pivot_only(self):
        """At (7, 2, 2, 2, 8) a later pivot has a larger valuation than
        entries of an earlier pivot row in its column, so that column is
        not cleared above the pivot; the witnesses still pair to zero to
        the certified precision."""
        t = build_tower(TowerConfig(7, 2, 2, 2, 8))
        ctx = PairingContext(t, (0, 1), (1, 1), (2, 1))
        for seed in range(3):
            beta = t.pi() * t.random_element(random.Random(seed))
            kd = kernel_dimension(ctx, beta)
            assert sorted(kd["pivot_valuations"]) != [0] * kd["rank"]
            assert kd["dimension"] == len(kd["witnesses"]) >= 1
            pc = t.p ** kd["certificate"]
            for w in kd["witnesses"]:
                assert all(c % pc == 0 for row in pairing(ctx, w, beta).coeffs
                           for c in row)

    def test_nonzero_beta_kernel_at_least_one(self, t7):
        ctx = PairingContext(t7, (0, 1), (1, 1), (2, 1))
        rng = random.Random(7)
        for _ in range(5):
            beta = t7.pi() * t7.random_unit(rng)
            kd = kernel_dimension(ctx, beta)
            assert kd["dimension"] >= 1
            assert pairing(ctx, beta, beta).is_zero()


class TestReciprocity:
    def test_equal_arguments_vanish(self, t7):
        ctx = PairingContext(t7, (0, 1), (1, 1), (2, 1))
        a = t7.pi() * t7.from_int(3)
        assert pairing(ctx, a, a).is_zero()
        assert reciprocity_check(ctx, a, a)

    def test_random_admissible_pairs(self, t7):
        ctx = PairingContext(t7, (0, 1), (1, 2), (1,))
        rng = random.Random(8)
        for _ in range(50):
            a = t7.pi() * t7.random_element(rng)
            b = t7.pi() * t7.random_element(rng)
            assert reciprocity_check(ctx, a, b)

    def test_region_enforced(self, t7):
        ctx = PairingContext(t7, (0, 1), (1, 1), (2, 1))
        with pytest.raises(BetaTooLarge):
            reciprocity_check(ctx, t7.one(), t7.pi())


def _reciprocity(t, alpha, beta):
    return reciprocity_check(PairingContext(t, (0, 1), (1,), (2,)), alpha,
                             beta)


CONVERGENCE_CHECKS = {
    "check_beta": check_beta,
    "reciprocity_alpha": lambda t, x: _reciprocity(t, x, t.pi() ** 2),
    "reciprocity_beta": lambda t, x: _reciprocity(t, t.pi() ** 2, x),
}


@pytest.mark.parametrize("entry", sorted(CONVERGENCE_CHECKS))
@pytest.mark.parametrize("power,admitted", [(1, False), (2, True),
                                            (None, True)],
                         ids=["pi", "pi^2", "zero"])
def test_one_convergence_bound(entry, power, admitted):
    """Both entry points apply v > 1/(p - 1); at p = 5, e = 4 the
    valuation v(pi) = 1/4 sits on the bound, and 0 is admitted."""
    t = build_tower(TowerConfig(5, 2, 2, 1, 10))
    x = t.zero() if power is None else t.pi() ** power
    if admitted:
        assert CONVERGENCE_CHECKS[entry](t, x) is not False
    else:
        with pytest.raises(BetaTooLarge):
            CONVERGENCE_CHECKS[entry](t, x)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def sqrt_mod(n, p, k):
    """A square root of the unit n mod p^k, found digit by digit."""
    s = next(a for a in range(1, p) if (a * a - n) % p == 0)
    for j in range(1, k):
        s = next(s + t * p ** j for t in range(p)
                 if ((s + t * p ** j) ** 2 - n) % p ** (j + 1) == 0)
    return s


@st.composite
def planted_zeros(draw, depth=6):
    """(p, coefficients, zero count) for f = c prod (x - r_i) times factors
    whose Z_p zeros are known: x^2 - n with n a unit square mod p but not
    a square in Z (two non-integer zeros), x^2 - n with n a non-square mod
    p or p times a unit, and 1 + p c x (no zeros).  Every zero is distinct
    mod p^depth; roots r = a + p^v b with a < p cluster p-adically."""
    p = draw(st.sampled_from((5, 7, 11)))
    pd = p ** depth
    roots = draw(st.lists(st.builds(
        lambda a, v, b: a + p ** v * b, st.integers(0, p - 1),
        st.integers(1, depth - 1), st.integers(-p, p)), max_size=4))
    zeros = [r % pd for r in roots]
    unit = st.integers(1, p - 1)
    poly = [draw(unit) * p ** draw(st.integers(0, 2))]
    for r in roots:
        poly = poly_mul(poly, [-r, 1])
    for _ in range(draw(st.integers(0, 2))):
        n = draw(unit) ** 2 + p * draw(st.integers(-p, p))
        assume(n < 0 or math.isqrt(n) ** 2 != n)
        s = sqrt_mod(n, p, depth)
        zeros += [s, -s % pd]
        poly = poly_mul(poly, [-n, 0, 1])
    squares = {a * a % p for a in range(1, p)}
    non_square = st.sampled_from(sorted(set(range(1, p)) - squares))
    for factor in draw(st.lists(st.sampled_from((
            "non-square", "p-unit", "linear")), max_size=2)):
        if factor == "non-square":
            poly = poly_mul(poly, [-draw(non_square) - p * draw(
                st.integers(-p, p)), 0, 1])
        elif factor == "p-unit":
            poly = poly_mul(poly, [-p * (draw(unit) + p * draw(
                st.integers(-p, p))), 0, 1])
        else:
            poly = poly_mul(poly, [1, p * draw(st.integers(-p, p))])
    assume(len(set(zeros)) == len(zeros))
    return p, poly, len(zeros)


class TestStrassman:
    def test_linear(self):
        s = RestrictedSeries(5, [0, 1], 5)
        assert strassman_count(s)[0] == 1
        assert count_roots_zp(s) == 1

    def test_valuation_obstruction(self):
        s = RestrictedSeries(5, [-5, 0, 1], 6)
        bound, data = strassman_count(s)
        assert bound == 2 and data["min_valuation"] == 0
        assert count_roots_zp(s) == 0

    def test_split_quadratic(self):
        # (t - 5)(t - 10) times the unit polynomial (1 + 5 t)
        poly = [50, 235, -74, 5]
        s = RestrictedSeries(5, poly, 9)
        bound, _ = strassman_count(s)
        assert bound >= 2
        assert count_roots_zp(s) == 2

    @pytest.mark.parametrize("v", range(1, 10))
    def test_clustered_roots_separate(self, v):
        # 5 and 5 + 5^v agree mod 5^v: the recursion splits them at level
        # v + 1 <= depth
        s = RestrictedSeries(5, poly_mul([-5, 1], [-5 - 5 ** v, 1]), 9)
        assert count_roots_zp(s, depth=10) == 2

    @pytest.mark.parametrize("poly", [
        poly_mul([-5, 1], [-5 - 5 ** 10, 1]),
        poly_mul([-5, 1], [-5 - 5 ** 12, 1]), [25, -10, 1], [-5 ** 21, 0, 1]],
        ids=["v=10", "v=12", "double", "x^2-5^21"])
    def test_unresolved_class_raises(self, poly):
        """Zeros that agree mod 5^10, a double zero, or x^2 - 5^21, which
        no level below 11 tells from x^2."""
        with pytest.raises(PrecisionExhausted):
            count_roots_zp(RestrictedSeries(5, poly, 9), depth=10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(planted_zeros())
    def test_planted_zero_count(self, case):
        p, poly, expected = case
        series = RestrictedSeries(p, poly, 0)
        assert count_roots_zp(series, depth=6) == expected

    def test_zero_series_rejected(self):
        with pytest.raises(ZeroSeries):
            strassman_count(RestrictedSeries(5, [0, 0], 4))
        with pytest.raises(ZeroSeries):
            count_roots_zp(RestrictedSeries(5, [0, 0], 4))

    def test_uncleared_tail_rejected(self):
        with pytest.raises(SeriesTooShort):
            strassman_count(RestrictedSeries(5, [1, 1], 0))
