import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from anf_sat_lab.anf import (
    AnfPoly,
    IntPoly,
    cube,
    mask_of_vars,
    moebius,
    set_bits,
    var_columns,
    vars_of_mask,
)
from anf_sat_lab.cnf import Clause3
from anf_sat_lab.descriptor import clause_forbidden_monomial
from anf_sat_lab.errors import UncoveredVariable

from helpers import random_poly, truth_table


def P(text: str) -> AnfPoly:
    return AnfPoly.parse(text)


# Strategy: polynomials over variables 1..5 with up to 8 terms.
small_polys = st.builds(
    AnfPoly,
    st.lists(st.integers(min_value=0, max_value=31).map(lambda m: m << 1), max_size=8),
)


class TestMaskHelpers:
    def test_roundtrip(self):
        assert vars_of_mask(mask_of_vars([1, 3, 7])) == (1, 3, 7)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            mask_of_vars([0])


class TestAdd:
    def test_self_cancellation(self):
        p = P("a1 + a2*a3")
        assert (p + p).is_zero()

    def test_one_plus_one(self):
        assert (AnfPoly.one() + AnfPoly.one()).is_zero()

    def test_builds_clause_entry(self):
        # a3 + a1*a2*a3 is the entry describing the all-negative clause
        assert P("a3") + P("a1*a2*a3") == P("a1*a2*a3 + a3")


class TestMul:
    def test_factored_expansion(self):
        # (a1+1)(a2+1)a3 + a3 expands to a1a2a3 + a1a3 + a2a3
        one = AnfPoly.one()
        got = (P("a1") + one) * (P("a2") + one) * P("a3") + P("a3")
        want = P("a1*a2*a3 + a1*a3 + a2*a3")
        assert got == want
        # hand expansion cross-checked pointwise
        assert truth_table(got, 3) == truth_table(want, 3)

    def test_substituted_product(self):
        # a2 * (b3 + 1) * a4 + a4 with b3 = (a1+1)(a2+1)a3 + a3
        one = AnfPoly.one()
        b3 = (P("a1") + one) * (P("a2") + one) * P("a3") + P("a3")
        got = P("a2") * (b3 + one) * P("a4") + P("a4")
        assert got == P("a2*a3*a4 + a2*a4 + a4")

    def test_mul_by_zero(self):
        assert (P("a1 + a2") * AnfPoly.zero()).is_zero()

    def test_within_batch_cancellation(self):
        # (1 + a2 + a1*a2)(a1 + a2 + a1*a2) collapses to a1
        assert P("1 + a2 + a1*a2") * P("a1 + a2 + a1*a2") == P("a1")


def test_xor_and_spell_add_and_mul():
    # The merge sweep writes + as ^, * as & and p + q + pq as |, as on truth tables.
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randrange(1, 7)
        p, q = random_poly(rng, n), random_poly(rng, n)
        assert p ^ q == p + q
        assert p & q == p * q
        assert (p & q).truth_column(n) == p.truth_column(n) & q.truth_column(n)
        assert (p | q).truth_column(n) == p.truth_column(n) | q.truth_column(n)


class TestEval:
    def test_integer_example(self):
        g = IntPoly.parse("1 + x1 + 3*x1*x2 + 7*x1*x2*x3")
        assert g.eval((1, 1, 0)) == 5
        assert g.eval((1, 1, 0)) % 2 == 1

    def test_all_zeros_constant_term(self):
        assert P("1 + a1*a2").eval((0, 0)) == 1
        assert P("a1*a2").eval((0, 0)) == 0

    def test_forbidden_row_is_redirected(self):
        h3 = P("a1*a2*a3 + a3")
        assert h3.eval((1, 1, 1)) == 0

    def test_uncovered_variable(self):
        with pytest.raises(UncoveredVariable):
            P("a3").eval((1, 1))


class TestTruthKernel:
    def test_var_columns_pointwise(self):
        for n in range(13):
            cols = var_columns(n)
            assert len(cols) == n + 1 and cols[0] == 0
            for i in range(1, n + 1):
                for a in range(1 << n):
                    assert (cols[i] >> a) & 1 == (a >> (i - 1)) & 1, (n, i, a)
                assert cols[i] >> (1 << n) == 0

    def test_moebius_maps_coefficients_to_values(self):
        # Coefficient bit a is the monomial a << 1; value bit a is the
        # assignment a << 1.  Checked pointwise in both directions.
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randrange(0, 9)
            masks = {rng.randrange(1 << n) << 1 for _ in range(rng.randrange(12))}
            p = AnfPoly(masks)
            coeffs = sum(1 << (m >> 1) for m in masks)
            values = sum(p.eval_mask(a << 1) << a for a in range(1 << n))
            assert moebius(coeffs, n) == values
            assert moebius(values, n) == coeffs
            assert p.truth_column(n) == values
            assert p.coefficient_column() == coeffs

    def test_moebius_dense_table(self):
        # the constant 1 is the all-ones table; the indicator of the
        # all-zero assignment, (1 + a1)...(1 + an), has every monomial
        for n in range(10):
            ones = (1 << (1 << n)) - 1
            assert moebius(1, n) == ones and moebius(ones, n) == 1

    def test_set_bits(self):
        assert set_bits(0) == []
        assert set_bits(0b101001) == [0, 3, 5]
        dense = (1 << 5000) - 1
        assert set_bits(dense) == list(range(5000))
        assert set_bits(1 << 4999) == [4999]

    def test_from_coefficient_column(self):
        assert AnfPoly.from_coefficient_column(0b1011) == P("1 + a1 + a1*a2")
        assert AnfPoly.from_coefficient_column(0).is_zero()

    def test_truth_column_uncovered_variable(self):
        with pytest.raises(UncoveredVariable):
            P("a1*a4").truth_column(3)
        with pytest.raises(UncoveredVariable):
            AnfPoly.var(1).truth_column(0)
        assert AnfPoly.one().truth_column(0) == 1


class TestCube:
    def test_truth_column_is_and_of_literal_columns(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 8)
            pairs = []
            for _ in range(rng.randint(0, 4)):
                p = AnfPoly(rng.randrange(1 << n) << 1 for _ in range(rng.randint(0, 6)))
                pairs.append((p, rng.randint(0, 1)))
            ones = (1 << (1 << n)) - 1
            want = ones
            for p, b in pairs:
                column = p.truth_column(n)
                want &= column if b else ones ^ column
            assert cube(pairs).truth_column(n) == want, pairs

    def test_empty_product_is_one(self):
        assert cube([]) == AnfPoly.one()

    # The forbidden cube of each sign pattern, multiplied out by hand: a
    # negated literal contributes a_v, a positive one a_v + 1.
    @pytest.mark.parametrize(
        "signed, text",
        [
            ((1, 2, 3), "1 + a1 + a2 + a3 + a1*a2 + a1*a3 + a2*a3 + a1*a2*a3"),
            ((-1, 2, 3), "a1 + a1*a2 + a1*a3 + a1*a2*a3"),
            ((1, -2, 3), "a2 + a1*a2 + a2*a3 + a1*a2*a3"),
            ((-1, -2, 3), "a1*a2 + a1*a2*a3"),
            ((1, 2, -3), "a3 + a1*a3 + a2*a3 + a1*a2*a3"),
            ((-1, 2, -3), "a1*a3 + a1*a2*a3"),
            ((1, -2, -3), "a2*a3 + a1*a2*a3"),
            ((-1, -2, -3), "a1*a2*a3"),
        ],
    )
    def test_clause_forbidden_monomial(self, signed, text):
        assert clause_forbidden_monomial(Clause3.from_signed(signed)) == P(text)


class TestRestrictSubstitute:
    def test_restrict_example(self):
        got = P("a1*a2*a3 + a3").restrict(3, 1)
        assert got == P("a1*a2 + 1")
        # cross-check on all 4 points of the remaining variables
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            full = bits + (1,)
            assert got.eval(bits + (0,)) == P("a1*a2*a3 + a3").eval(full)

    def test_identity_substitution(self):
        p = P("a1*a2 + a3")
        assert p.substitute(2, AnfPoly.var(2)) == p

    def test_substitute_constant_matches_restrict(self):
        rng = random.Random(7)
        for _ in range(50):
            masks = [rng.randrange(16) << 1 for _ in range(rng.randrange(6))]
            p = AnfPoly(masks)
            i = rng.randrange(1, 5)
            b = rng.randrange(2)
            const = AnfPoly.one() if b else AnfPoly.zero()
            assert p.substitute(i, const) == p.restrict(i, b)

    def test_len(self):
        assert len(P("a2*a3*a4 + a2*a4 + a4")) == 3
        assert len(AnfPoly.zero()) == 0
        assert len(AnfPoly.one()) == 1

    def test_support(self):
        assert P("a1*a3 + a2").support() == frozenset({1, 2, 3})


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + p).is_zero()


@settings(max_examples=100, deadline=None)
@given(small_polys)
def test_square_semantics(p):
    # p*p has the same truth table as p (it is in fact the same polynomial
    # over GF(2) with idempotent variables, but only the semantic claim is
    # asserted here).
    assert truth_table(p * p, 5) == truth_table(p, 5)


@settings(max_examples=100, deadline=None)
@given(small_polys, small_polys)
def test_eval_is_ring_homomorphism(p, q):
    for a in range(0, 1 << 5):
        mask = a << 1
        assert (p + q).eval_mask(mask) == p.eval_mask(mask) ^ q.eval_mask(mask)
        assert (p * q).eval_mask(mask) == p.eval_mask(mask) & q.eval_mask(mask)


@settings(max_examples=100, deadline=None)
@given(small_polys, st.integers(min_value=1, max_value=5))
def test_restrict_odd_part(p, i):
    # restrict(p,i,0) + restrict(p,i,1) is the a_i-odd part of p
    odd = AnfPoly(m ^ (1 << i) for m in p.masks if m & (1 << i))
    assert p.restrict(i, 0) + p.restrict(i, 1) == odd


class TestSerialization:
    def test_text_roundtrip_canonical(self):
        p = P("a3 + a1 + a1*a2*a3 + 1")
        again = AnfPoly.parse(p.to_text())
        assert again == p

    def test_json_roundtrip(self):
        p = P("a1*a4 + a2 + 1")
        assert AnfPoly.from_json(p.to_json()) == p

    def test_construction_order_irrelevant(self):
        a = AnfPoly.from_terms([[1, 2], [3], []])
        b = AnfPoly.from_terms([[], [3], [2, 1]])
        assert a == b and a.to_text() == b.to_text()

    def test_x_prefix_parses(self):
        assert AnfPoly.parse("x1*x2 + x3") == P("a1*a2 + a3")

    def test_zero_text(self):
        assert AnfPoly.zero().to_text() == "0"
        assert AnfPoly.parse("0").is_zero()


class TestIntPoly:
    def test_lift_and_reduce(self):
        p = P("a1*a2 + a3")
        assert IntPoly.lift(p).reduce_mod2() == p

    def test_reduce_keeps_odd(self):
        q = IntPoly.parse("2*x1 + 3*x2 + 4*x1*x2 + 1")
        assert q.reduce_mod2() == P("a2 + 1")

    def test_mul_merges_variables(self):
        q = IntPoly.parse("x1 + 1") * IntPoly.parse("x1 + 1")
        # (x1+1)^2 = x1^2 + 2 x1 + 1 = 3 x1 + 1 with x1^2 = x1
        assert q == IntPoly.parse("3*x1 + 1")

    def test_mul_by_one(self):
        q = IntPoly.parse("5*x1*x3 + 2")
        assert q * IntPoly.one() == q

    def test_reduce_commutes_with_mul(self):
        rng = random.Random(3)
        for _ in range(40):
            a = IntPoly(
                {rng.randrange(16) << 1: rng.randrange(-5, 6) for _ in range(4)}
            )
            b = IntPoly(
                {rng.randrange(16) << 1: rng.randrange(-5, 6) for _ in range(4)}
            )
            assert (a * b).reduce_mod2() == a.reduce_mod2() * b.reduce_mod2()

    def test_text_roundtrip(self):
        q = IntPoly.parse("7*x1*x2 + 2*x3 + 1")
        assert IntPoly.parse(q.to_text()) == q

    @pytest.mark.parametrize(
        "text, top", [("0", 0), ("5", 0), ("2*x1*x7 + x3 + 1", 7), ("3*x2", 2)]
    )
    def test_max_var(self, text, top):
        assert IntPoly.parse(text).max_var() == top


class TestParseRejectsVariableZero:
    @pytest.mark.parametrize("text", ["a0", "a0 + a1", "x0", "1 + a2*x0", "3*a0*a1"])
    def test_anf_parse(self, text):
        with pytest.raises(ValueError):
            AnfPoly.parse(text)

    @pytest.mark.parametrize("text", ["x0", "2*x0 + 1", "x1*x0", "a0 + x2"])
    def test_int_parse(self, text):
        with pytest.raises(ValueError):
            IntPoly.parse(text)

    def test_variable_one_still_parses(self):
        assert AnfPoly.parse("a1 + x10").masks == {1 << 1, 1 << 10}
        assert IntPoly.parse("2*x1 + a10").coeffs == {1 << 1: 2, 1 << 10: 1}


class TestRingsPinned:
    """Rendering, parsing, evaluation and support of both rings, pinned by one sha256.

    The digest was taken before the two rings shared their parser, renderer
    and evaluator; error types and messages are part of it.
    """

    MALFORMED = [
        "", "+", "a1 +", "a0", "x1*", "2**a1", "a1 a2", "b1", "1 + + a2", "3*a0*a1",
        "a1*x0", "-1", " 0 ", "0", "00", "2*", "*a1", "a1**a2", "12 a3", "0 + 0",
        "4*a1 + a1 + 3*a1", "2 + 1",
    ]

    @staticmethod
    def _outcome(fn, *args):
        try:
            value = fn(*args)
        except Exception as exc:  # the type and message are what is pinned
            return f"{type(exc).__name__}: {exc}"
        return value.to_text() if isinstance(value, (AnfPoly, IntPoly)) else repr(value)

    def test_both_rings_pinned(self):
        rng = random.Random(12)
        out = self._outcome
        lines = []
        texts = list(self.MALFORMED)
        for _ in range(1500):
            n = rng.randrange(9)
            p = random_poly(rng, n, max_terms=8)
            coeffs = sorted(random_poly(rng, n, max_terms=8).masks)
            q = IntPoly({m: rng.randrange(-3, 10) for m in coeffs})
            for poly in (p, q):
                width = rng.randrange(n + 2)
                point = [rng.getrandbits(1) for _ in range(width)]
                lines += [
                    poly.to_text("a"),
                    poly.to_text("x"),
                    repr(poly),
                    out(poly.eval, point),
                    repr(poly.max_var()),
                ]
            lines += [repr(sorted(p.support())), repr(p.sorted_masks())]
            for text in (p.to_text(), q.to_text()):
                cut = rng.randrange(len(text) + 1)
                texts += [text, text[:cut] + rng.choice("ax*+0 1-z") + text[cut + 1 :]]
        for text in texts:
            lines += [out(AnfPoly.parse, text), out(IntPoly.parse, text)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "c29711d91bf3fbe6d929418ba787895c7ede30551b79fdc8a4789c2dac2562b0"
        )
