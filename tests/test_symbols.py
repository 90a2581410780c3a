import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from frobjet.errors import CertificateFailure, FamilyMismatch, MissingClass
from frobjet.sertate import PsiPoly, st_f_table
from frobjet.symbols import (PMatrix, Symbol, gamma_matrix,
                             pmatrix_rank_minors, subset_det, subset_minors,
                             sym_eval, sym_mul)
from frobjet.tower import (INF, QElement, TowerConfig, build_tower,
                           frobenius_word_apply)
from frobjet.words import words_up_to

from symbols_oracle import leibniz_det


@pytest.fixture(scope="module")
def tower():
    return build_tower(TowerConfig(7, 2, 1, 1, 12))


GAMMAS = (0, 1)


def naive_mul(s1, s2):
    """Independent expansion oracle for the twisted product."""
    acc = Symbol(s1.tower, s1.gammas, {})
    for w1, c1 in s1.terms.items():
        for w2, c2 in s2.terms.items():
            num = c1.num * frobenius_word_apply(s1.tower, s1.gammas, w1,
                                                c2.num)
            acc = acc + Symbol(s1.tower, s1.gammas,
                               {w1 + w2: QElement(num, c1.den + c2.den)})
    return acc


def sym_equal(a, b):
    return all(c.num.is_zero() for c in (a - b).terms.values())


class TestSymMul:
    def test_phi1_commutes_with_pi(self, tower):
        s1 = Symbol(tower, GAMMAS, {(1,): tower.one()})
        s2 = Symbol.scalar(tower, GAMMAS, tower.pi())
        got = sym_mul(s1, s2)
        # gamma_1 = 0 fixes pi
        assert got.terms[(1,)].num == tower.pi()

    def test_phi2_twists_pi(self, tower):
        s1 = Symbol(tower, GAMMAS, {(2,): tower.one()})
        s2 = Symbol.scalar(tower, GAMMAS, tower.pi())
        got = sym_mul(s1, s2)
        assert got.terms[(2,)].num == tower.zeta() * tower.pi()

    def test_bilinear_expansion_oracle(self, tower):
        one = QElement(tower.one())
        s1 = Symbol(tower, GAMMAS, {(1,): one, (2,): one})
        s2 = Symbol(tower, GAMMAS, {(1,): one, (2,): -(tower.one())})
        got = sym_mul(s1, s2)
        for w, sign in ((1, 1), 1), ((1, 2), -1), ((2, 1), 1), ((2, 2), -1):
            assert got.terms[w].num == tower.from_int(sign)
        assert sym_equal(got, naive_mul(s1, s2))

    def test_associativity_randomized(self, tower):
        rng = random.Random(31)
        words = words_up_to(2, 3)
        for _ in range(12):
            syms = []
            for _k in range(3):
                terms = {words[rng.randrange(len(words))]:
                         QElement(tower.random_element(rng),
                                  rng.randrange(2))
                         for _j in range(2)}
                syms.append(Symbol(tower, GAMMAS, terms))
            a, b, c = syms
            assert sym_equal(sym_mul(sym_mul(a, b), c),
                             sym_mul(a, sym_mul(b, c)))

    def test_family_mismatch(self, tower):
        other = Symbol(tower, (0, 2), {(1,): tower.one()})
        with pytest.raises(FamilyMismatch):
            sym_mul(Symbol(tower, GAMMAS, {(1,): tower.one()}), other)

    @pytest.mark.parametrize("other", [
        lambda t: 1, lambda t: t.one(), lambda t: QElement(t.one()),
        lambda t: "phi"], ids=["int", "tower", "qelement", "str"])
    def test_foreign_operand_is_a_type_error(self, tower, other):
        """A sum or difference with anything but a Symbol is a TypeError,
        as for the other ring elements, not an AttributeError."""
        s, x = Symbol(tower, GAMMAS, {(1,): tower.one()}), other(tower)
        for op in (lambda: s + x, lambda: x + s, lambda: s - x,
                   lambda: x - s):
            with pytest.raises(TypeError):
                op()
        assert s.__add__(x) is NotImplemented
        assert s.__sub__(x) is NotImplemented


class TestSymEval:
    def test_identity_word(self, tower):
        rng = random.Random(1)
        a = tower.random_element(rng)
        s = Symbol.scalar(tower, GAMMAS, tower.one())
        assert sym_eval(s, a).num == a

    def test_frobenius_minus_p_on_rationals(self, tower):
        a = tower.from_int(987654)
        s = Symbol(tower, GAMMAS, {(1,): QElement(tower.one()),
                                   (): QElement(tower.from_int(-7))})
        assert sym_eval(s, a).num == a * (1 - 7)

    def test_monoid_action(self, tower):
        rng = random.Random(2)
        a = tower.random_element(rng)
        s1 = Symbol(tower, GAMMAS,
                    {(1,): QElement(tower.random_element(rng))})
        s2 = Symbol(tower, GAMMAS,
                    {(2,): QElement(tower.random_element(rng)),
                     (): QElement(tower.random_element(rng))})
        lhs = sym_eval(sym_mul(s1, s2), a)
        rhs = sym_eval(s1, sym_eval(s2, a).num)
        assert (lhs - rhs).num.is_zero()

    def test_additive(self, tower):
        rng = random.Random(3)
        s = Symbol(tower, GAMMAS, {(1, 2): QElement(tower.random_element(rng)),
                                   (2,): QElement(tower.random_element(rng))})
        a, b = tower.random_element(rng), tower.random_element(rng)
        assert (sym_eval(s, a + b) - (sym_eval(s, a) + sym_eval(s, b))
                ).num.is_zero()


# the 14 keys gamma_matrix documents: primaries, secondaries, twists
GAMMA_KEYS = (["ft_1", "ft_2", "ft_11", "ft_22",
               "f_1,2", "f_11,1", "f_22,2", "f_11,22"]
              + [f"{k}@{j}" for j in (1, 2)
                 for k in ("ft_1", "ft_2", "f_1,2")])


class TestGammaMatrix:
    def _zero_table(self, tower):
        return dict.fromkeys(GAMMA_KEYS, tower.zero())

    def test_all_zero_inputs(self, tower):
        mat = gamma_matrix(self._zero_table(tower), tower, precision=8)
        assert all(e.num.is_zero() for row in mat.entries for e in row)

    def test_first_row_layout(self, tower):
        table = self._zero_table(tower)
        table["ft_1"] = tower.from_int(3)
        table["ft_2"] = tower.from_int(5)
        table["f_1,2"] = tower.from_int(11)
        mat = gamma_matrix(table, tower, precision=8)
        row = mat.entries[0]
        assert [e.num.is_zero() for e in row[:4]] == [True] * 4
        assert row[4].num == tower.from_int(5)
        assert row[5].num == tower.from_int(-3)
        assert row[6].num == tower.from_int(11)

    def test_table_has_exactly_the_read_keys(self, tower):
        assert sorted(st_f_table(tower, GAMMAS, tower.pi())) == sorted(
            GAMMA_KEYS)

    def test_missing_class(self, tower):
        """Each documented key is read: without it, MissingClass names it."""
        for key in GAMMA_KEYS:
            table = self._zero_table(tower)
            del table[key]
            with pytest.raises(MissingClass) as exc:
                gamma_matrix(table, tower, precision=8)
            assert exc.value.args == (key,)


class TestMinors:
    def test_identity_rank(self, tower):
        one = QElement(tower.one())
        zero = QElement(tower.zero())
        entries = [[one if i == j else zero for j in range(5)]
                   for i in range(5)]
        rank, minors = pmatrix_rank_minors(PMatrix(entries, 10), 5)
        assert rank == 5
        assert minors[0]["valuation"] == "0"

    def test_det_sign(self, tower):
        # [[0, 1], [1, 0]] has determinant -1
        one = QElement(tower.one())
        zero = QElement(tower.zero())
        m = PMatrix([[zero, one], [one, zero]], 10)
        assert m.det().num == tower.from_int(-1)


# the four towers (p, l, m, f, K) of the ramified-characters benchmark
BENCH_TOWERS = [(7, 2, 1, 1, 16), (7, 2, 2, 2, 14), (7, 2, 3, 2, 30),
                (5, 2, 2, 1, 40)]


def bench_gamma(cfg):
    """gamma_matrix at beta = pi^k, the least k with v(pi^k) > 1/(p-1)."""
    t = build_tower(TowerConfig(*cfg))
    beta = t.pi() ** (t.e // (t.p - 1) + 1)
    return gamma_matrix(st_f_table(t, (0, 1), beta), t, precision=t.K - 6)


def random_matrix(tower, rng, k, n):
    """QElements with zero entries, mixed precisions and denominators."""
    def entry():
        prec = rng.randrange(3, tower.K + 1)
        num = (tower.zero(prec) if rng.random() < 0.25
               else tower.random_element(rng, prec))
        return QElement(num, rng.randrange(3))
    return [[entry() for _ in range(n)] for _ in range(k)]


def same_q(a, b):
    return (a.num.coeffs, a.num.prec, a.den) == (b.num.coeffs, b.num.prec,
                                                  b.den)


def assert_minors_exact(rows, one):
    """subset_minors against leibniz_det on every column set, with the
    numerator, precision and den of each QElement minor."""
    k, n = len(rows), len(rows[0])
    got = subset_minors(rows, one)
    assert len(got) == math.comb(n, k)
    for cols in combinations(range(n), k):
        d = got[sum(1 << j for j in cols)]
        want = leibniz_det([[row[j] for j in cols] for row in rows])
        if isinstance(d, QElement):
            assert same_q(d, want), cols
        else:
            assert d.terms == want.terms, cols
    return got


def leibniz_minors(M, k):
    """Every k x k minor of a PMatrix by the Leibniz sum, keyed (rows, cols)."""
    return {(rows, cols): leibniz_det([[M.entries[i][j] for j in cols]
                                       for i in rows])
            for rows in combinations(range(M.rows), k)
            for cols in combinations(range(M.cols), k)}


def oracle_reports(M, minors):
    """pmatrix_rank_minors' reports, from the oracle's minors."""
    out = []
    for (rows, cols), d in minors.items():
        v = d.valuation()
        out.append({"rows": list(rows), "cols": list(cols),
                    "valuation": None if v == INF else str(Fraction(v)),
                    "vanishing": v == INF or v >= M.precision})
    return out


class TestMinorsAgainstLeibniz:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(6, 7), (3, 5), (4, 4)])
    def test_subset_minors_random(self, tower, seed, shape):
        k, n = shape
        M = PMatrix(random_matrix(tower, random.Random(seed), k, n), 6)
        one = QElement(tower.one(), 0)
        got = subset_minors(M.entries, one)
        want = leibniz_minors(M, k)
        assert len(got) == len(want)
        for (_, cols), d in want.items():
            assert same_q(got[sum(1 << j for j in cols)], d), cols
        if k == n:
            assert same_q(subset_det(M.entries, one), *want.values())

    @pytest.mark.parametrize("shape", [(6, 7, 6), (6, 6, 5), (5, 7, 3)])
    def test_rank_reports_random(self, tower, shape):
        rows, cols, k = shape
        M = PMatrix(random_matrix(tower, random.Random(rows + cols + k),
                                  rows, cols), 6)
        assert pmatrix_rank_minors(M, k)[1] == oracle_reports(
            M, leibniz_minors(M, k))

    @pytest.mark.parametrize("cfg", BENCH_TOWERS)
    def test_benchmark_towers(self, cfg):
        M = bench_gamma(cfg)
        want = leibniz_minors(M, 6)
        got = subset_minors(M.entries, QElement(M.entries[0][0].tower.one()))
        for (_, cols), d in want.items():
            assert same_q(got[sum(1 << j for j in cols)], d), cols
        assert pmatrix_rank_minors(M, 6)[1] == oracle_reports(M, want)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    @pytest.mark.parametrize("shape", [(6, 7), (4, 6), (3, 3)])
    def test_zeros_at_several_dens_and_precs(self, tower, seed, shape):
        """Half the entries zero, every entry at a den 0..3 and a precision
        below K of its own."""
        rng = random.Random(seed)

        def entry():
            prec = rng.randrange(1, tower.K)
            num = (tower.zero(prec) if rng.random() < 0.5
                   else tower.random_element(rng, prec))
            return QElement(num, rng.randrange(4))
        k, n = shape
        assert_minors_exact([[entry() for _ in range(n)] for _ in range(k)],
                            QElement(tower.one(), 0))

    @pytest.mark.parametrize("zero_row", [0, 1])
    def test_skipped_zero_raises_den(self, tower, zero_row):
        rng = random.Random(8)
        a, b, c = (QElement(tower.random_unit(rng), 0) for _ in range(3))
        z = QElement(tower.zero(), 3)
        rows = [[a, z], [b, c]] if zero_row == 0 else [[a, b], [z, c]]
        got = assert_minors_exact(rows, QElement(tower.one(), 0))
        assert got[0b11].den == 3

    def test_skipped_zero_lowers_prec(self, tower):
        rng = random.Random(9)
        a, b, c = (QElement(tower.random_unit(rng), 1) for _ in range(3))
        z = QElement(tower.zero(2), 0)
        got = assert_minors_exact([[a, b], [z, c]], QElement(tower.one(), 0))
        assert (got[0b11].num.prec, got[0b11].den) == (2, 2)

    def test_mask_reached_only_through_zeros(self, tower):
        rng = random.Random(10)
        a, b = (QElement(tower.random_unit(rng), 0) for _ in range(2))
        zeros = [QElement(tower.zero(prec), den)
                 for prec, den in ((9, 1), (7, 0), (11, 3), (10, 3))]
        rows = [[a, zeros[0], zeros[1]], [b, zeros[2], zeros[3]]]
        got = assert_minors_exact(rows, QElement(tower.one(), 0))
        assert got[0b110].is_zero()
        assert (got[0b110].num.prec, got[0b110].den) == (7, 4)

    def test_mask_reached_only_through_zeros_psipoly(self):
        a, b, c = (PsiPoly.slot(("x", i, "")) for i in range(3))
        zero = PsiPoly()
        got = assert_minors_exact([[a, zero, zero], [b, zero, c]],
                                  PsiPoly.const(1))
        assert got[0b110].is_zero()

    def test_det_of_non_square_rejected(self, tower):
        rows = random_matrix(tower, random.Random(6), 2, 3)
        with pytest.raises(CertificateFailure):
            subset_det(rows, QElement(tower.one(), 0))


def test_gamma_minors_product_count(monkeypatch):
    """One subset DP for the 6 x 7 gamma matrix: sum over i < 6 of
    C(7, i) (7 - i) = 441 products, against 7 * 6 * 2^5 = 1,344 for seven
    separate 6 x 6 determinants."""
    M = bench_gamma(BENCH_TOWERS[0])
    calls = []
    mul = QElement.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(QElement, "__mul__", counting)
    pmatrix_rank_minors(M, 6)
    assert len(calls) <= 441
