import functools
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import pytest

from frobjet.errors import (BetaTooLarge, FamilyMismatch, OrderOverflow,
                            UnknownForm, UnknownRelation)
from frobjet.sertate import (PsiPoly, STRing, STSeries, beta_expansion,
                             load_relation_catalog, psi_series_form,
                             psi_st_series, serre_operator, st_expansion,
                             st_f_values, st_f_table, verify_identity,
                             verify_all_identities)
from frobjet.jets import JetRing, JetRingConfig, phi_endomorphism
from frobjet.symbols import Symbol, gamma_rows, subset_det, sym_eval
from frobjet.tower import QElement, TowerConfig, build_tower, valuation
from frobjet.words import word_from_string
import sertate_oracle
from sertate_oracle import psi_series_form_sparse


@pytest.fixture(scope="module")
def ring():
    return STRing(5, 2, 2, 36)


class TestFundamentalSeries:
    def test_defining_form_leading_coefficient(self, ring):
        # independent degree-1 expansion of (1/p)(phi_i - p) log(1+T):
        # phi_i(T) - p T = T^p + p delta_i T - p T, so the delta_i T
        # coefficient after dividing by p is exactly 1
        psi = psi_st_series(ring, 1)
        var = ring.word_to_var[(1,)]
        assert psi.terms[((var, 1),)] == 1
        # and the pure-T tail of degree < p comes only from -log(1+T):
        # (1/p)(-p) * (-1)^(m+1)/m = -(-1)^(m+1)/m ... plus T^p terms
        assert psi.terms[((0, 1),)] == -1
        assert psi.terms[((0, 2),)] == Fraction(1, 2)

    def test_series_form_sign_convention(self, ring):
        psi = psi_st_series(ring, 2)
        assert not (psi_series_form(ring, 2, 1) - psi).terms
        assert (psi_series_form(ring, 2, 0) - psi).terms

    def test_vanishes_when_increment_dies(self, ring):
        # substituting delta_i T = ((1+T)^p - 1 - T^p)/p makes
        # phi(1+T) = (1+T)^p and the series vanish identically
        p = ring.p
        sub = STSeries(ring, {((0, j),): Fraction(math.comb(p, j), p)
                              for j in range(1, p)})
        psi = psi_st_series(ring, 1)
        out = psi.substitute(ring.word_to_var[(1,)], sub)
        assert not out.truncate(ring.D - p).terms


def _oracle_cases():
    """(p, D) on a two-direction ring of order 2: D at 1, 2, p - 1, p, 12 and
    24 for p in {2, 3, 5, 7}, plus (7, 30) in one direction and sign; then
    a one-direction ring and the third direction of a three-direction one."""
    for p in (2, 3, 5, 7):
        for D in sorted({1, 2, p - 1, p, 12, 24}):
            for i in (1, 2):
                for off in (0, 1):
                    yield (p, 2, 2, D), i, off
    yield (7, 2, 2, 30), 1, 1
    for off in (0, 1):
        yield (5, 1, 1, 10), 1, off
        yield (5, 3, 1, 8), 3, off


@functools.cache
def sparse_terms(p, n, i, off, D):
    return psi_series_form_sparse(STRing(p, n, 2, D), i, off).terms


# (n, i, off, top degree) per prime: the sparse route at the top degree,
# cut to each lower one, is the sparse route at that degree
WIDE_CASES = [(2, 2, 1, 36), (2, 1, 0, 24), (1, 1, 0, 12), (1, 1, 1, 12)]


class TestSeriesFormOracle:
    """The closed-form series against the sparse Fraction route."""

    @pytest.mark.parametrize("shape,i,off", list(_oracle_cases()), ids=str)
    def test_matches_sparse_route(self, shape, i, off):
        ring = STRing(*shape)
        assert (psi_series_form(ring, i, off).terms
                == psi_series_form_sparse(ring, i, off).terms)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("n,i,off,top", WIDE_CASES, ids=str)
    def test_matches_sparse_route_at_every_degree(self, p, n, i, off, top):
        """Every degree D <= top, on one and two directions, both offsets,
        for primes up to 13, where T^p and the delta^k rows of degree
        D - k < p first meet."""
        want = sparse_terms(p, n, i, off, top)
        for D in range(top + 1):
            got = psi_series_form(STRing(p, n, 2, D), i, off).terms
            assert got == {m: c for m, c in want.items()
                           if sum(e for _, e in m) <= D}, D

    @pytest.mark.parametrize("i", [0, 3])
    def test_direction_outside_ring(self, i):
        with pytest.raises(OrderOverflow):
            psi_series_form(STRing(5, 2, 2, 6), i, 1)

    @pytest.mark.parametrize("word", [(0,), (3,), (1, 3)])
    def test_direction_outside_ring_message(self, word):
        bad = [i for i in word if i not in (1, 2)][0]
        with pytest.raises(OrderOverflow,
                           match=rf"direction {bad} .* outside 1\.\.2"):
            STRing(5, 2, 2, 6).var_index(word)

    def test_word_too_long_message(self):
        with pytest.raises(OrderOverflow, match="exceeds order 2"):
            STRing(5, 2, 2, 6).var_index((1, 2, 1))


class TestSerreOperator:
    def test_normalization(self, ring):
        psi1 = psi_st_series(ring, 1)
        got = serre_operator(ring, (1,), psi1) - 1
        assert not got.truncate(ring.D - ring.p).terms

    def test_other_direction_killed(self, ring):
        psi2 = psi_st_series(ring, 2)
        assert not serre_operator(ring, (1,), psi2).terms

    def test_twisted_log_chain_rule(self, ring):
        # dcan_i (phi_i log(1+T)) = p * phi_i(dcan log(1+T)) = p * 1
        L = ring.log1p().truncate(6)
        got = serre_operator(ring, (1,), phi_endomorphism(ring, 1, L))
        dcan = (ring.one() + ring.T()) * L.derivative(0)
        expect = Fraction(ring.p) * phi_endomorphism(ring, 1, dcan)
        assert not (got - expect).terms

    def test_property_two_on_base(self, ring):
        L = ring.log1p().truncate(6)
        assert not serre_operator(ring, (1,),
                                  phi_endomorphism(ring, 2, L)).terms

    def test_unknown_word(self, ring):
        with pytest.raises(OrderOverflow):
            serre_operator(ring, (1, 1, 1), ring.T())


class TestExpansionTable:
    def test_primary_single_letter(self):
        got = st_expansion("f_1")
        assert got.terms == PsiPoly.slot(("psi", 1, ""), c_exp=1).terms

    def test_laplacian_pair(self):
        # second-order split class: p^2 c (Psi1^(1) + p Psi1 - Psi2^(2) - p Psi2)
        got = st_expansion("f_11,22")
        expect = (PsiPoly.slot(("psi", 1, "1"), c_exp=1, p_exp=2)
                  + PsiPoly.slot(("psi", 1, ""), c_exp=1, p_exp=3)
                  - PsiPoly.slot(("psi", 2, "2"), c_exp=1, p_exp=2)
                  - PsiPoly.slot(("psi", 2, ""), c_exp=1, p_exp=3))
        assert (got - expect).is_zero()

    def test_mixed_secondary(self):
        got = st_expansion("f_12,1")
        expect = PsiPoly.slot(("psi", 2, "1"), c_exp=1, p_exp=1)
        assert (got - expect).is_zero()

    def test_antisymmetric_lookup(self):
        assert (st_expansion("f_1,2") + st_expansion("f_2,1")).is_zero()
        assert (st_expansion("f_2,12") + st_expansion("f_12,2")).is_zero()

    def test_unknown_form(self):
        with pytest.raises(UnknownForm):
            st_expansion("f_123")


ST_WORDS = ("1", "2", "11", "12", "21", "22")
ST_IDS = ([f"f_{mu}" for mu in ST_WORDS]
          + [f"f_{mu},{nu}" for mu, nu in itertools.permutations(ST_WORDS, 2)]
          + ["fdel1", "fdel2", "finv1", "finv2"])
# every word of length 1..3 over {1, 2, 3}, and over {0, ..., 3} for beta
WORDS_3 = ["".join(w) for n in (1, 2, 3)
           for w in itertools.product("123", repeat=n)]
BETA_WORDS = ["".join(w) for n in (1, 2, 3)
              for w in itertools.product("0123", repeat=n)]


def catalog_beta_ids():
    """Every b_ id of the relation catalog, with its index swap."""
    ids = set()
    for entry in load_relation_catalog().values():
        for _coeff, factors in entry["terms"]:
            for form_id, _twist in factors:
                if form_id.startswith("b_"):
                    ids |= {form_id, form_id.translate(
                        str.maketrans("12", "21"))}
    return sorted(ids)


class TestExpansionOracle:
    """The rule-built expansions against the hand-typed table of closed
    forms in tests/sertate_oracle.py."""

    def test_forty_ids(self):
        assert len(set(ST_IDS)) == 40

    @pytest.mark.parametrize("form_id", ST_IDS)
    def test_matches_table(self, form_id):
        assert (st_expansion(form_id).terms
                == sertate_oracle.st_expansion(form_id).terms)

    @pytest.mark.parametrize("form_id", ["f_123", "f_1,1", "f_3"])
    def test_unknown_ids_raise(self, form_id):
        with pytest.raises(UnknownForm):
            st_expansion(form_id)

    def test_accepts_exactly_the_table_ids(self):
        candidates = ([f"f_{w}" for w in WORDS_3]
                      + [f"f_{a},{b}" for a in WORDS_3 for b in WORDS_3]
                      + ["fdel1", "fdel2", "finv1", "finv2", "fdel3",
                         "finv", "f_", "f_1,", "b_1",
                         "f_1,2,1", " f_1"])
        accepted = set()
        for form_id in candidates:
            try:
                st_expansion(form_id)
            except UnknownForm:
                with pytest.raises(UnknownForm):
                    sertate_oracle.st_expansion(form_id)
            else:
                accepted.add(form_id)
        assert accepted == set(ST_IDS)

    @pytest.mark.parametrize("form_id", ST_IDS)
    def test_swap_and_antisymmetry_follow(self, form_id):
        swapped = form_id.translate(str.maketrans("12", "21"))
        assert (st_expansion(swapped).terms
                == st_expansion(form_id).swap12().terms)
        if "," in form_id:
            mu, nu = form_id[2:].split(",")
            assert (st_expansion(form_id)
                    + st_expansion(f"f_{nu},{mu}")).is_zero()

    def test_cached_per_id(self):
        assert st_expansion("f_12,21") is st_expansion("f_12,21")

    def test_catalog_beta_ids(self):
        ids = catalog_beta_ids()
        assert "b_11,22" in ids and "b_22" in ids
        for form_id in ids:
            assert (beta_expansion(form_id).terms
                    == sertate_oracle.beta_expansion(form_id).terms)

    def test_beta_accepts_what_it_did(self):
        candidates = ([f"b_{w}" for w in BETA_WORDS]
                      + [f"b_{a},{b}" for a in BETA_WORDS[:20]
                         for b in BETA_WORDS]
                      + ["b_", "b_1,", "f_1", "b_1,2,3", "b_x"])
        for form_id in candidates:
            try:
                got = beta_expansion(form_id)
            except UnknownForm:
                with pytest.raises(UnknownForm):
                    sertate_oracle.beta_expansion(form_id)
            else:
                assert got.terms == sertate_oracle.beta_expansion(
                    form_id).terms


class TestVerifyIdentity:
    def test_catalog_has_fourteen_relations(self):
        assert len(load_relation_catalog()) == 14

    def test_all_reduce_to_zero(self):
        for rep in verify_all_identities():
            assert rep["status"] == "zero", rep
            assert rep["swap_status"] == "zero", rep
            assert rep["c_homogeneous"], rep

    def test_corrupted_relation_detected(self):
        cat = load_relation_catalog()
        bad = json.loads(json.dumps(cat["quad4"]))
        bad["terms"][1][0] = "1"  # sign flip
        rep = verify_identity("quad4", {**cat, "quad4": bad})
        assert rep["status"] == "nonzero"
        assert rep["residual"] != "PsiPoly(0)"

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelation):
            verify_identity("nope")


def gamma_symbol_rows():
    """Rows of the 6 x 7 symbol matrix over parameter slots (c = 1, the
    common row factor p^(N+1) stripped), in the layout of gamma_rows that
    the tower matrix of ``verify gamma`` uses."""
    b = beta_expansion
    return gamma_rows(lambda mu, j: b(f"b_{mu}").twist(j),
                      lambda mu, nu, j: b(f"b_{mu},{nu}").twist(j), PsiPoly())


class TestSymbolicGamma:
    def test_all_six_by_six_minors_vanish(self):
        rows = gamma_symbol_rows()
        for cols in itertools.combinations(range(7), 6):
            d = subset_det([[rows[i][j] for j in cols] for i in range(6)],
                           PsiPoly.const(1))
            assert d.is_zero(), cols

    def test_upper_left_five_by_five_nonzero(self):
        rows = gamma_symbol_rows()
        d = subset_det([[rows[i][j] for j in range(5)] for i in range(5)],
                       PsiPoly.const(1))
        assert not d.is_zero()


@pytest.fixture(scope="module")
def tower722():
    return build_tower(TowerConfig(7, 2, 2, 2, 12))


class TestParameterValues:
    def test_zero_parameter_kills_classes(self, tower722):
        z = tower722.zero()
        for mu in ("1", "2", "11"):
            assert st_f_values(tower722, (0, 1), z,
                               word_from_string(mu)).is_zero()
        assert st_f_values(tower722, (0, 1), z, (1,), (2,)).is_zero()

    def test_swap_negates_secondary(self, tower722):
        beta = tower722.pi()
        ab = st_f_values(tower722, (0, 1), beta, (1, 1), (2,))
        ba = st_f_values(tower722, (0, 1), beta, (2,), (1, 1))
        assert (ab + ba).is_zero()

    def test_rational_parameter_equalizes(self, tower722):
        beta = tower722.from_int(7 * 3)
        f1 = st_f_values(tower722, (0, 0), beta, (1,))
        f2 = st_f_values(tower722, (0, 0), beta, (2,))
        assert f1 == f2

    def test_symbol_route_matches(self, tower722):
        # c (phi_mu - p^r) applied to beta equals the primary value (c = 1)
        beta = tower722.pi()
        for mu in ((1,), (2, 1), (1, 2)):
            sym = (Symbol(tower722, (0, 1),
                          {mu: QElement(tower722.one())})
                   - Symbol.scalar(tower722, (0, 1),
                                   tower722.from_int(7 ** len(mu))))
            lhs = sym_eval(sym, beta).num
            rhs = st_f_values(tower722, (0, 1), beta, mu)
            assert lhs == rhs

    def test_convergence_region_enforced(self, tower722):
        with pytest.raises(BetaTooLarge):
            st_f_values(tower722, (0, 1), tower722.one(), (1,))

    def test_beta_expansion_matches_values(self, tower722):
        # substitute actual slot values into the symbolic expansion and
        # compare against the direct computation
        from frobjet.tower import frobenius_word_apply
        beta = tower722.pi()
        poly = beta_expansion("b_11,2")
        direct = st_f_values(tower722, (0, 1), beta, (1, 1), (2,))
        acc = tower722.zero()
        for (ce, pe, vars_), coeff in poly.terms.items():
            assert ce == 0
            term = tower722.from_int(int(coeff) * 7 ** pe)
            for (kind, _i, w), e in vars_:
                assert kind == "beta"
                val = frobenius_word_apply(tower722, (0, 1),
                                           word_from_string(w), beta)
                term = term * val ** e
            acc = acc + term
        assert acc == direct


class TestFTable:
    def test_table_feeds_matrix_with_vanishing_minors(self, tower722):
        from frobjet.symbols import gamma_matrix, pmatrix_rank_minors

        table = st_f_table(tower722, (0, 1), tower722.pi())
        mat = gamma_matrix(table, tower722, precision=8)
        rank, minors = pmatrix_rank_minors(mat, 6)
        assert all(m["vanishing"] for m in minors)
        ul = mat.submatrix(range(5), range(5)).det()
        assert valuation(ul.num) != float("inf")

    def test_minor_vanishing_robust_across_parameters(self, tower722):
        # the rank-5 dependence is not special to beta = pi
        from frobjet.symbols import gamma_matrix, pmatrix_rank_minors

        rng = random.Random(9)
        for beta in (tower722.pi() ** 2,
                     tower722.pi() * tower722.random_unit(rng),
                     tower722.pi() ** 3 * tower722.random_unit(rng)):
            table = st_f_table(tower722, (0, 1), beta)
            mat = gamma_matrix(table, tower722, precision=6)
            _, minors = pmatrix_rank_minors(mat, 6)
            assert all(m["vanishing"] for m in minors)

    def test_minor_vanishing_on_degree_three_level(self):
        # same check where the unramified part has odd degree
        t = build_tower(TowerConfig(7, 3, 2, 3, 10))
        table = st_f_table(t, (0, 1), t.pi() ** 2)
        from frobjet.symbols import gamma_matrix, pmatrix_rank_minors
        mat = gamma_matrix(table, t, precision=6)
        _, minors = pmatrix_rank_minors(mat, 6)
        assert all(m["vanishing"] for m in minors)


class TestForeignOperands:
    """Both series rings and PsiPoly against each other, int, Fraction,
    float and str, on both sides of * + -: a cell computes, raises
    FamilyMismatch or raises TypeError, and never AttributeError.  The zero
    series of the Serre-Tate ring checks the operand's type too, although
    its product has no coefficient to touch it."""

    OPS = {"*": operator.mul, "+": operator.add, "-": operator.sub}
    # series kinds, their rings and the number types those take as scalars
    SERIES = {"jet": ("int",), "other-jet": ("int",),
              "st": ("int", "Fraction"), "st-zero": ("int", "Fraction")}
    RING = {"jet": "jet", "other-jet": "other-jet", "st": "st",
            "st-zero": "st"}
    KINDS = ["jet", "other-jet", "st", "st-zero", "psi", "int", "Fraction",
             "float", "str"]

    @pytest.fixture(scope="class")
    def operands(self):
        t = build_tower(TowerConfig(5, 2, 0, 1, 6))

        def jet():
            return JetRing(JetRingConfig(t, 2, 2, 6, (0, 0))).T() + 1

        st = STRing(5, 2, 2, 6)
        return {"jet": jet(), "other-jet": jet(), "st": st.T() + 1,
                "st-zero": st.zero(),
                "psi": PsiPoly.slot(("beta", 0, "1")) + PsiPoly.const(2),
                "int": 3, "Fraction": Fraction(1, 2), "float": 2.5,
                "str": "a"}

    def expected(self, left, op, right):
        if left in self.SERIES and right in self.SERIES:
            return (None if self.RING[left] == self.RING[right]
                    else FamilyMismatch)
        if left == right == "psi":
            return None
        if right in self.SERIES.get(left, ()):
            return None
        if left in self.SERIES.get(right, ()):
            return TypeError if op == "-" else None
        return TypeError

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("left", KINDS)
    def test_matrix(self, operands, left, op):
        wrong = []
        for right in self.KINDS:
            if not {left, right} & {*self.SERIES, "psi"}:
                continue
            try:
                self.OPS[op](operands[left], operands[right])
                got = None
            except FamilyMismatch:
                got = FamilyMismatch
            except TypeError:
                got = TypeError
            except Exception as exc:        # AttributeError among others
                got = type(exc)
            if got is not self.expected(left, op, right):
                wrong.append((right, got))
        assert not wrong

    def test_computed_cells(self, operands):
        st, psi = operands["st"], operands["psi"]
        assert (st + Fraction(1, 2) - 1).terms[()] == Fraction(1, 2)
        assert not (2 * st - st - st).terms
        assert not (psi * psi - psi * psi).terms
        jet = operands["jet"]
        assert () not in (jet - 1).terms

    def test_series_equality_with_foreign_operand(self, operands):
        assert operands["st"] != "a"
        assert STRing(5, 2, 2, 6).one() == 1
