import random

import pytest

from anf_sat_lab.anf import AnfPoly
from anf_sat_lab.cnf import Formula, parse_dimacs, sort_clauses
from anf_sat_lab.errors import GenerationError, TooLarge
from anf_sat_lab.indicator import factor_sequence
from anf_sat_lab.oracle import (
    brute_column,
    brute_count,
    brute_solutions,
    brute_solutions_slow,
    expand_product,
    random_formula,
)

from golden import EIGHT_CLAUSE, SIX_VAR, SIX_VAR_COMPUTED_TOP, TWO_CLAUSE
from helpers import random_instance, truth_table


class TestBruteSolutions:
    def test_two_clause_twelve(self):
        sols = brute_solutions(parse_dimacs(TWO_CLAUSE))
        assert sols.sigma == 12
        assert (0, 0, 1, 0) not in sols.solutions

    def test_eight_clause_zero(self):
        assert brute_count(parse_dimacs(EIGHT_CLAUSE)) == 0

    def test_empty_formula(self):
        assert brute_count(Formula(n=3, clauses=())) == 8

    def test_too_large(self):
        with pytest.raises(TooLarge):
            brute_solutions(Formula(n=26, clauses=()))

    def test_self_check_against_slow_evaluator(self):
        # the two independently coded enumerators agree on 100 seeded runs
        rng = random.Random(51)
        for _ in range(100):
            n = rng.randrange(3, 8)
            f = random_instance(rng, n, 4 * n)
            assert brute_solutions(f).solutions == brute_solutions_slow(f).solutions

    def test_matches_slow_evaluator_at_threshold_density(self):
        for n in (8, 12, 15):
            for seed in range(1, 6):
                f = random_formula(n, round(4.26 * n), seed)
                assert brute_solutions(f) == brute_solutions_slow(f), (n, seed)

    def test_dense_extraction_clause_free(self):
        f = Formula(n=12, clauses=())
        sols = brute_solutions(f)
        assert sols.sigma == 4096
        assert sols == brute_solutions_slow(f)

    def test_column_bit_convention(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0")
        col = brute_column(f)
        assert col & 1 == 0  # assignment 0 = all-false falsifies the clause
        assert (col >> 7) & 1 == 1  # all-true satisfies


class TestExpandProduct:
    def test_single_factor(self):
        p = AnfPoly.parse("a1*a2 + 1")
        assert expand_product([p], "gf2") == p

    def test_six_var_integer_top(self):
        fs = factor_sequence(sort_clauses(parse_dimacs(SIX_VAR)))
        poly = expand_product([fs.g(t, "int") for t in range(1, 7)], "int")
        assert poly.coefficient(0b1111110) == SIX_VAR_COMPUTED_TOP

    def test_parity_cross_check(self):
        rng = random.Random(52)
        for _ in range(15):
            n = rng.randrange(3, 7)
            f = random_instance(rng, n, 3 * n)
            fs = factor_sequence(sort_clauses(f))
            gf2 = expand_product([fs.g(t) for t in range(1, n + 1)], "gf2")
            integer = expand_product([fs.g(t, "int") for t in range(1, n + 1)], "int")
            assert integer.reduce_mod2() == gf2

    def test_limit(self):
        with pytest.raises(TooLarge):
            expand_product([AnfPoly.var(15)], "gf2")


class TestMoebius:
    def test_roundtrip(self):
        rng = random.Random(53)
        for _ in range(30):
            n = rng.randrange(1, 6)
            masks = [rng.randrange(1 << n) << 1 for _ in range(rng.randrange(6))]
            p = AnfPoly(masks)
            assert AnfPoly.from_truth_column(p.truth_column(n), n) == p

    def test_truth_column_matches_pointwise(self):
        rng = random.Random(54)
        for _ in range(30):
            n = rng.randrange(1, 6)
            masks = [rng.randrange(1 << n) << 1 for _ in range(rng.randrange(6))]
            p = AnfPoly(masks)
            col = p.truth_column(n)
            tt = truth_table(p, n)
            # truth_table enumerates bit vectors in lexicographic order with
            # x1 varying slowest; the column indexes assignments with x1 as
            # the low bit
            for a in range(1 << n):
                bits = tuple((a >> i) & 1 for i in range(n))
                assert (col >> a) & 1 == p.eval_mask(
                    sum(1 << (i + 1) for i, b in enumerate(bits) if b)
                )

    def test_ignores_bits_above_the_table(self):
        assert AnfPoly.from_truth_column(0b1_0110, 2) == AnfPoly.parse("a1 + a2")


class TestRandomFormula:
    def test_seed_stable(self):
        assert random_formula(10, 43, 7) == random_formula(10, 43, 7)

    def test_distinct_clauses(self):
        f = random_formula(6, 100, 3)
        assert len({cl.signed() for cl in f.clauses}) == 100

    def test_ratio_target_shape(self):
        f = random_formula(50, 213, 11)
        assert f.n == 50 and f.m == 213
        assert all(cl.r < cl.s < cl.t for cl in f.clauses)

    def test_infeasible_generation(self):
        with pytest.raises(GenerationError):
            random_formula(3, 9, 0)  # only 8 distinct clauses exist

    def test_needs_three_vars(self):
        with pytest.raises(GenerationError):
            random_formula(2, 1, 0)
