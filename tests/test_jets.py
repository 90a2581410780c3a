import functools
import math
import random
from fractions import Fraction

import pytest

from frobjet.errors import (FamilyMismatch, NotTopologicallyNilpotent,
                            OrderOverflow)
from frobjet.jets import (JetElement, JetRing, JetRingConfig, delta_operator,
                          eval_jet, phi_endomorphism, phi_word)
from frobjet.sertate import STRing, STSeries
from frobjet.tower import (FrobeniusIndex, TowerConfig, TowerElement,
                           build_tower, frobenius_word_apply, pi_derivation)
from jets_oracle import full_phi_endomorphism, remainder_pi_power


@pytest.fixture(scope="module")
def tower():
    return build_tower(TowerConfig(7, 2, 1, 1, 10))


@pytest.fixture(scope="module")
def ring(tower):
    return JetRing(JetRingConfig(tower, 2, 2, 14, (0, 1)))


@pytest.fixture(scope="module")
def t3ring():
    t3 = build_tower(TowerConfig(3, 2, 0, 1, 10))
    return JetRing(JetRingConfig(t3, 1, 2, 12, (0,)))


class TestPhiEndomorphism:
    def test_fixes_one(self, ring):
        assert not (phi_endomorphism(ring, 1, ring.one())
                    - ring.one()).terms

    def test_image_of_T(self, ring):
        got = phi_endomorphism(ring, 1, ring.T())
        expect = (ring.T() ** ring.tower.p
                  + ring.variable(ring.var_index((1,))).scale(ring.tower.pi()))
        assert not (got - expect).terms

    def test_noncommutation_on_T_squared(self, ring):
        T2 = ring.T() * ring.T()
        ab = phi_endomorphism(ring, 1, phi_endomorphism(ring, 2, T2))
        ba = phi_endomorphism(ring, 2, phi_endomorphism(ring, 1, T2))
        assert (ab - ba).terms  # gammas differ, orders do not commute

    def test_ring_homomorphism(self, ring):
        rng = random.Random(8)
        t = ring.tower
        F = (ring.T().scale(t.random_element(rng))
             + ring.variable(ring.var_index((2,))))
        G = ring.T() * ring.T() + ring.one().scale(t.random_element(rng))
        lhs = phi_endomorphism(ring, 1, F * G)
        rhs = phi_endomorphism(ring, 1, F) * phi_endomorphism(ring, 1, G)
        assert not (lhs - rhs).terms

    def test_order_overflow(self, ring):
        F = ring.variable(ring.var_index((1, 2)))  # length 2 = r
        with pytest.raises(OrderOverflow):
            phi_endomorphism(ring, 1, F)


class TestDeltaOperator:
    def test_constant_embeds_base_derivation(self, ring):
        t = ring.tower
        c = t.from_int(12)
        got = delta_operator(ring, 2, ring.scalar(c))
        expect = pi_derivation(t, FrobeniusIndex(1), c)
        ((), coeff), = got.terms.items() if got.terms else ((((), t.zero())),)
        assert coeff == expect

    def test_delta_of_T_is_variable(self, ring):
        got = delta_operator(ring, 1, ring.T())
        assert not (got - ring.variable(ring.var_index((1,)))).terms

    def test_delta_of_T_plus_one(self, t3ring):
        # pi = p: delta(1 + T) = delta T + C_p(1, T) as polynomials
        p = 3
        got = delta_operator(t3ring, 1, t3ring.T() + t3ring.one())
        cp_terms = {((0, j),): t3ring.tower.from_int(-(math.comb(p, j) // p))
                    for j in range(1, p)}
        expect = (t3ring.variable(t3ring.var_index((1,)))
                  + JetElement(t3ring, cp_terms))
        assert not (got - expect).terms

    def test_iterated_words(self, t3ring):
        # delta_i delta_mu T is exactly the variable of the longer word
        dT = delta_operator(t3ring, 1, t3ring.T())
        ddT = delta_operator(t3ring, 1, dT)
        assert not (ddT - t3ring.variable(t3ring.var_index((1, 1)))).terms


class TestEvalJet:
    def test_T_at_p(self, ring):
        t = ring.tower
        a = t.from_int(t.p)
        assert eval_jet(ring, ring.T(), a).num == a

    def test_delta_var_at_pi(self, ring):
        t = ring.tower
        a = t.pi()
        got = eval_jet(ring, ring.variable(ring.var_index((2,))), a)
        expect = pi_derivation(t, FrobeniusIndex(1), a)
        assert got.num == expect
        # closed form (zeta pi - pi^p)/pi = zeta - pi^(p-1)
        assert expect == t.zeta() - t.pi() ** (t.p - 1)

    def test_phi_word_evaluates_to_word_action(self, ring):
        t = ring.tower
        a = t.pi() * t.from_int(3)
        F = phi_word(ring, (1, 2), ring.T())
        got = eval_jet(ring, F, a)
        expect = frobenius_word_apply(t, (0, 1), (1, 2), a)
        assert got.num.equals(expect, precision=8)

    def test_commutes_with_phi(self, ring):
        t = ring.tower
        rng = random.Random(12)
        F = ring.T() + ring.variable(ring.var_index((1,))) * ring.T()
        a = t.pi() * t.random_element(rng)
        lhs = eval_jet(ring, phi_endomorphism(ring, 2, F), a)
        rhs = frobenius_word_apply(t, (0, 1), (2,), eval_jet(ring, F, a).num)
        assert lhs.num.equals(rhs, precision=7)

    def test_commutes_with_delta(self, ring):
        t = ring.tower
        rng = random.Random(13)
        F = ring.T() * ring.T()
        a = t.pi() * t.random_element(rng)
        lhs = eval_jet(ring, delta_operator(ring, 1, F), a)
        rhs = pi_derivation(t, FrobeniusIndex(0), eval_jet(ring, F, a).num)
        assert lhs.num.equals(rhs, precision=7)

    def test_rejects_units(self, ring):
        with pytest.raises(NotTopologicallyNilpotent):
            eval_jet(ring, ring.T(), ring.tower.one())


class TestTruncation:
    def test_truncation_coherence(self, ring):
        # computing at D then restricting to D' agrees with computing at D'
        small = JetRing(JetRingConfig(ring.tower, 2, 2, 7, (0, 1)))
        F_big = phi_word(ring, (1, 2), ring.T())
        F_small = phi_word(small, (1, 2), small.T())
        restricted = {m: c for m, c in F_big.truncate(7).terms.items()}
        assert set(restricted) == set(F_small.terms)
        for m in restricted:
            assert restricted[m] == F_small.terms[m]

    def test_serialization(self, ring):
        F = phi_word(ring, (2,), ring.T())
        d = F.to_dict()
        assert d["den"] == 0
        assert all("mono" in entry for entry in d["terms"])


class TestRemainderIdentity:
    def test_no_top_order_variables(self, ring):
        # phi_mu T - pi^w(mu) delta_mu T involves only lower-order jets
        t = ring.tower
        for mu in ((1,), (2,), (1, 2), (2, 1), (1, 1), (2, 2)):
            piw = remainder_pi_power(t, (0, 1), mu)
            G = (phi_word(ring, mu, ring.T())
                 - ring.variable(ring.var_index(mu)).scale(piw))
            top = len(mu)
            for mono in G.terms:
                for var, _ in mono:
                    if var == 0:
                        continue
                    assert len(ring.var_words[var]) < top

    def test_residual_independent_of_top_order_values(self, ring):
        # evaluating the residual must not change when the top-order delta
        # values are swapped out (finite-difference style check)
        t = ring.tower
        rng = random.Random(14)
        mu = (1, 2)
        piw = remainder_pi_power(t, (0, 1), mu)
        G = (phi_word(ring, mu, ring.T())
             - ring.variable(ring.var_index(mu)).scale(piw))

        def eval_with_assignment(F, assignment):
            total = t.zero()
            for mono, coeff in F.terms.items():
                term = coeff
                for var, e in mono:
                    term = term * assignment[var] ** e
                total = total + term
            return total

        for _ in range(5):
            base = {i: t.random_element(rng)
                    for i in range(len(ring.var_words))}
            changed = dict(base)
            for w, idx in ring.word_to_var.items():
                if len(w) == len(mu):
                    changed[idx] = t.random_element(rng)
            assert eval_with_assignment(G, base) == eval_with_assignment(
                G, changed)


class TestAgreesWithExactSeries:
    def test_phi_matches_st_phi_mod_pK(self):
        """Over the base prime with gamma = 0 the tower Frobenius is trivial
        and pi = p, so the prolongation on the jet ring is the one on the
        exact ring reduced mod p^K."""
        p, K, D = 5, 6, 10
        tower = build_tower(TowerConfig(p, 2, 0, 1, K))
        jring = JetRing(JetRingConfig(tower, 2, 2, D, (0, 0)))
        sring = STRing(p, 2, 2, D)
        low = [0, jring.word_to_var[(1,)], jring.word_to_var[(2,)]]
        rng = random.Random(31)
        for _ in range(6):
            terms = {}
            for _ in range(6):
                chosen = rng.sample(low, rng.randint(0, 2))
                mono = tuple(sorted((v, rng.randint(1, 3)) for v in chosen))
                terms[mono] = rng.randrange(-p ** K, p ** K)
            F = JetElement(jring, {m: tower.from_int(c)
                                   for m, c in terms.items()})
            S = STSeries(sring, {m: Fraction(c) for m, c in terms.items()})
            for i in (1, 2):
                got = phi_endomorphism(jring, i, F).terms
                want = phi_endomorphism(sring, i, S).terms
                assert want
                for m in set(got) | set(want):
                    c = want.get(m, Fraction(0))
                    assert c.denominator == 1
                    g = got[m].coeffs[0][0] if m in got else 0
                    assert (g - c.numerator) % p ** K == 0


class TestSharedSeriesClass:
    """Behaviour the jet ring and the exact ring share through one class."""

    @pytest.fixture(params=["jet", "exact"])
    def any_ring(self, request, ring):
        return ring if request.param == "jet" else STRing(7, 2, 2, 14)

    def test_int_scalars_and_coefficients(self, any_ring):
        T = any_ring.T()
        F = 1 + T * 3 - 1
        assert F.terms == T.scale(any_ring.from_int(3)).terms
        assert F.terms[((0, 1),)] == any_ring.from_int(3)
        assert ((0, 2),) not in F.terms
        assert (T ** 0).terms == any_ring.one().terms

    def test_truncate(self, any_ring):
        F = (any_ring.one() + any_ring.T()) ** 5
        assert sorted(F.truncate(2).terms) == [(), ((0, 1),), ((0, 2),)]

    def test_negative_power_rejected(self, any_ring):
        # square-and-multiply never terminates on a negative exponent
        with pytest.raises(ValueError):
            any_ring.T() ** -1

    def test_rings_do_not_mix(self, any_ring):
        other = STRing(7, 2, 2, 14)
        with pytest.raises(FamilyMismatch):
            any_ring.T() + other.T()
        with pytest.raises(FamilyMismatch):
            any_ring.T() * other.T()


@functools.cache
def log_jet_ring(p):
    """The base-p jet ring of the benchmark's log-congruence workload and
    the logarithm of y^2 = x^3 + x + 3 as a jet on it."""
    from frobjet.formal import WeierstrassCurve, formal_log, log_jet
    tower = build_tower(TowerConfig(p, 2, 0, 1, 10))
    ring = JetRing(JetRingConfig(tower, 1, 2, 36, (0,)))
    return ring, log_jet(formal_log(WeierstrassCurve(p, 1, 3), 40, 10), ring)


def listed(F):
    """Terms in order, tower coefficients as (coeffs, prec)."""
    return F.den, [(m, (c.coeffs, c.prec) if isinstance(c, TowerElement)
                    else c) for m, c in F.terms.items()]


class TestImageTermsCut:
    """phi_endomorphism builds only the image terms C(e, j) pi^j of degree
    p (e - j) + j <= D; the full construction is the oracle."""

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_benchmark_jet_rings(self, p):
        ring, lj = log_jet_ring(p)
        rng = random.Random(p)
        t = ring.tower
        d1 = ring.variable(ring.var_index((1,)))
        mixed = (lj * lj + d1.scale(t.random_element(rng)) * ring.T() ** 3
                 + d1 ** 4)
        for F in (lj, lj * lj, mixed):
            assert listed(phi_endomorphism(ring, 1, F)) == listed(
                full_phi_endomorphism(ring, 1, F))

    @pytest.mark.parametrize("D", [1, 5, 12])
    def test_exact_ring(self, D):
        ring = STRing(5, 2, 2, D)
        F = ((ring.one() + ring.T()) ** D
             + ring.variable(ring.var_index((2,))) ** 2)
        for i in (1, 2):
            assert listed(phi_endomorphism(ring, i, F)) == listed(
                full_phi_endomorphism(ring, i, F))

    def test_builds_only_terms_under_D(self, monkeypatch):
        """One from_int per image term of degree <= D: on the p = 11 ring,
        36 for the log jet, where building all e + 1 terms made 338.  The
        ring is cached for the module, so the spy must come off again."""
        ring, lj = log_jet_ring(11)
        p, D = 11, 36
        exponents = {e for mono in lj.terms for _, e in mono}
        fits = sum(1 for e in exponents for j in range(e + 1)
                   if p * (e - j) + j <= D)
        calls = []
        from_int = ring.from_int

        def counting(n, prec=None):
            calls.append(n)
            return from_int(n, prec)

        with monkeypatch.context() as m:
            m.setattr(ring, "from_int", counting)
            phi_endomorphism(ring, 1, lj)
        assert len(calls) == fits == 36
        assert ring.from_int is from_int
        assert listed(ring.one()) == listed(ring.scalar(ring.tower.one()))

