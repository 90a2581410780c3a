import random

import pytest

from frobjet.errors import EmptyWord, NotAUnit
from frobjet.tower import TowerConfig, build_tower, frobenius_apply, FrobeniusIndex
from frobjet.words import (Weight, cocycle_weight, lambda_pow, word_from_string,
                           word_to_string, words_up_to)


class TestWordsUpTo:
    def test_n2_r1(self):
        assert words_up_to(2, 1) == [(), (1,), (2,)]

    def test_n2_r2_size(self):
        assert len(words_up_to(2, 2)) == 1 + 2 + 4

    def test_n3_r3_size_geometric_oracle(self):
        assert len(words_up_to(3, 3)) == sum(3 ** k for k in range(4)) == 40

    def test_ordering_by_length_then_lex(self):
        ws = words_up_to(2, 2)
        assert ws == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]

    def test_string_roundtrip(self):
        for w in words_up_to(3, 2):
            assert word_from_string(word_to_string(w)) == w


class TestWeight:
    def test_degree_ring_homomorphism(self):
        rng = random.Random(0)
        words = words_up_to(2, 2)
        for _ in range(30):
            w1 = Weight({words[rng.randrange(len(words))]: rng.randint(-3, 3)
                         for _ in range(3)})
            w2 = Weight({words[rng.randrange(len(words))]: rng.randint(-3, 3)
                         for _ in range(3)})
            assert (w1 + w2).degree() == w1.degree() + w2.degree()
            assert (w1 * w2).degree() == w1.degree() * w2.degree()

    def test_product_concatenates(self):
        w = Weight({(1,): 1}) * Weight({(2,): 1})
        assert w == Weight({(1, 2): 1})


class TestCocycleWeight:
    def test_length_one(self):
        assert cocycle_weight((1,)) == Weight({(): 1})

    def test_length_two(self):
        assert cocycle_weight((1, 2)) == Weight({(): 1, (1,): 1})

    def test_length_three_unrolled(self):
        assert cocycle_weight((1, 2, 1)) == Weight(
            {(): 1, (1,): 1, (1, 2): 1})

    def test_empty_rejected(self):
        with pytest.raises(EmptyWord):
            cocycle_weight(())


@pytest.fixture(scope="module")
def tower():
    return build_tower(TowerConfig(5, 3, 1, 2, 10))


class TestLambdaPow:

    def test_one_to_any_weight(self, tower):
        w = Weight({(1,): 3, (2, 1): -2})
        assert lambda_pow(tower.one(), w, tower, (0, 1)) == tower.one()

    def test_empty_word_power(self, tower):
        lam = tower.random_unit(random.Random(1))
        w = Weight({(): 3})
        assert lambda_pow(lam, w, tower, (0, 1)) == lam ** 3

    def test_single_frobenius(self, tower):
        z = tower.zeta()
        w = Weight({(1,): 1})
        got = lambda_pow(z, w, tower, (0, 1))
        assert got == frobenius_apply(tower, FrobeniusIndex(0), z)
        assert got == z ** tower.p

    def test_additive_in_weight(self, tower):
        rng = random.Random(2)
        lam = tower.random_unit(rng)
        w1 = Weight({(1,): 2, (2,): 1})
        w2 = Weight({(): 1, (1, 2): 1})
        lhs = lambda_pow(lam, w1 + w2, tower, (0, 1))
        rhs = (lambda_pow(lam, w1, tower, (0, 1))
               * lambda_pow(lam, w2, tower, (0, 1)))
        assert lhs == rhs

    def test_weight_product_is_twisted_composition(self, tower):
        rng = random.Random(3)
        lam = tower.random_unit(rng)
        w1 = Weight({(1,): 1, (): 1})
        w2 = Weight({(2,): 2})
        lhs = lambda_pow(lam, w1 * w2, tower, (0, 1))
        rhs = lambda_pow(lambda_pow(lam, w2, tower, (0, 1)), w1, tower,
                         (0, 1))
        assert lhs == rhs

    def test_nonunit_negative_exponent_rejected(self, tower):
        with pytest.raises(NotAUnit):
            lambda_pow(tower.pi(), Weight({(1,): -1}), tower, (0, 1))

    def test_nonunit_nonnegative_ok(self, tower):
        w = cocycle_weight((1, 2))
        val = lambda_pow(tower.pi(), w, tower, (0, 1))
        # 1 + phi_1 on pi: pi * phi_1(pi) = pi * pi (gamma_1 = 0)
        assert val == tower.pi() * tower.pi()
