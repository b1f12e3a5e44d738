import random

import pytest

from anf_sat_lab import indicator
from anf_sat_lab.anf import AnfPoly
from anf_sat_lab.cnf import Formula, parse_dimacs, sort_clauses, split_plus_minus
from anf_sat_lab.descriptor import build, identity_descriptor
from anf_sat_lab.errors import GenerationError, ResourceCap
from anf_sat_lab.indicator import (
    clause_forbidden_monomial,
    factor_sequence,
    indicator_from_clauses,
    indicator_from_descriptor,
    indicator_from_factors,
    indicator_from_solutions,
)
from anf_sat_lab.oracle import brute_solutions, random_formula
from anf_sat_lab.solutions import SolutionSet

from golden import (
    ONE_CLAUSE,
    SIX_VAR,
    SIX_VAR_H_MINUS,
    SIX_VAR_H_PLUS,
    SIX_VAR_PRIME_SOLUTION,
    SIX_VAR_REMOVED_CLAUSE,
)
from helpers import (
    cnf_truth_table,
    random_instance,
    descriptor_fixed_points,
    mask_from_bits,
    truth_table,
)


def P(text):
    return AnfPoly.parse(text)


def six_var_prime() -> Formula:
    f = parse_dimacs(SIX_VAR)
    clauses = list(f.clauses)
    del clauses[SIX_VAR_REMOVED_CLAUSE - 1]
    return Formula(n=6, clauses=tuple(clauses))


class TestIndicatorFromDescriptor:
    def test_one_clause_truth_table(self):
        f = parse_dimacs(ONE_CLAUSE)
        result = build(sort_clauses(f))
        ind = indicator_from_descriptor(result.descriptor)
        assert truth_table(ind, 3) == cnf_truth_table(f)

    def test_constant_descriptor_single_point(self):
        from anf_sat_lab.descriptor import Descriptor

        h = Descriptor(3, (AnfPoly.one(), AnfPoly.zero(), AnfPoly.one()))
        ind = indicator_from_descriptor(h)
        one = AnfPoly.one()
        want = P("a1") * (P("a2") + one) * P("a3")
        assert ind == want

    def test_identity_descriptor_gives_one(self):
        assert indicator_from_descriptor(identity_descriptor(4)).is_one()

    def test_matches_fixed_points_seeded(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randrange(3, 7)
            f = random_instance(rng, n, 3 * n)
            result = build(sort_clauses(f))
            if not result.ok:
                continue
            ind = indicator_from_descriptor(result.descriptor)
            fixed = descriptor_fixed_points(result.descriptor)
            for a in range(1 << n):
                mask = mask_from_bits(tuple((a >> i) & 1 for i in range(n)))
                assert ind.eval_mask(mask) == (1 if mask in fixed else 0)


class TestIndicatorFromClauses:
    def test_single_clause(self):
        f = parse_dimacs("p cnf 3 1\n1 2 -3 0")
        ind = indicator_from_clauses(f)
        one = AnfPoly.one()
        want = one + (P("a1") + one) * (P("a2") + one) * P("a3")
        assert ind == want
        assert truth_table(ind, 3) == cnf_truth_table(f)

    def test_empty_formula(self):
        assert indicator_from_clauses(Formula(n=3, clauses=())).is_one()

    def test_forbidden_monomial(self):
        from anf_sat_lab.cnf import Clause3

        cl = Clause3.from_signed((1, 2, -3))
        one = AnfPoly.one()
        assert clause_forbidden_monomial(cl) == (P("a1") + one) * (P("a2") + one) * P("a3")

    def test_gf2_truth_table_seeded(self):
        rng = random.Random(32)
        for _ in range(40):
            n = rng.randrange(3, 8)
            f = random_instance(rng, n, 4 * n)
            ind = indicator_from_clauses(f)
            assert truth_table(ind, n) == cnf_truth_table(f)

    def test_int_mode_reduces_to_gf2(self):
        rng = random.Random(33)
        for _ in range(20):
            n = rng.randrange(3, 7)
            f = random_instance(rng, n, 3 * n)
            gf2 = indicator_from_clauses(f, "gf2")
            integer = indicator_from_clauses(f, "int")
            assert integer.reduce_mod2() == gf2

    def test_cap(self):
        f = random_formula(14, 60, 1)
        with pytest.raises(ResourceCap):
            indicator_from_clauses(f, cap=4)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            indicator_from_clauses(parse_dimacs(ONE_CLAUSE), "float")


class TestIndicatorFromSolutions:
    def test_single_solution(self):
        s = SolutionSet(n=6, solutions=(SIX_VAR_PRIME_SOLUTION,))
        one = AnfPoly.one()
        want = (
            (P("x1") + one) * P("x2") * P("x3") * (P("x4") + one) * P("x5") * (P("x6") + one)
        )
        assert indicator_from_solutions(s) == want

    def test_empty(self):
        assert indicator_from_solutions(SolutionSet(n=3, solutions=())).is_zero()

    def test_adjacent_pair_collapses(self):
        # two solutions differing in one coordinate: that coordinate cancels
        s = SolutionSet(n=3, solutions=((1, 0, 0), (1, 0, 1)))
        one = AnfPoly.one()
        assert indicator_from_solutions(s) == P("x1") * (P("x2") + one)

    def test_matches_brute_seeded(self):
        rng = random.Random(34)
        for _ in range(20):
            n = rng.randrange(3, 7)
            f = random_instance(rng, n, 3 * n)
            sols = brute_solutions(f)
            ind = indicator_from_solutions(sols)
            assert truth_table(ind, n) == cnf_truth_table(f)


class TestFactorSequence:
    def test_six_var_printed_entries(self):
        fs = factor_sequence(sort_clauses(parse_dimacs(SIX_VAR)))
        for t in range(1, 7):
            assert fs.h_plus[t - 1] == P(SIX_VAR_H_PLUS[t]), f"h_plus at t={t}"
            assert fs.h_minus[t - 1] == P(SIX_VAR_H_MINUS[t]), f"h_minus at t={t}"

    def test_empty_group_gives_unit_factor(self):
        fs = factor_sequence(sort_clauses(parse_dimacs(SIX_VAR)))
        assert fs.factor_plus(1).is_one()
        assert fs.factor_minus(2).is_one()
        assert fs.g(1).is_one()

    def test_one_sided_closed_forms(self):
        # restrict at x_t gives the constants promised by the construction
        rng = random.Random(35)
        for _ in range(25):
            n = rng.randrange(3, 9)
            f = random_instance(rng, n, 4 * n)
            fs = factor_sequence(sort_clauses(f))
            for t in range(1, n + 1):
                assert fs.h_plus[t - 1].restrict(t, 1).is_one()
                assert fs.h_minus[t - 1].restrict(t, 0).is_zero()

    def test_product_matches_cnf_seeded(self):
        # product over t of g_t has the CNF truth table (monitored identity,
        # exercised here at small scale as a regression guard)
        rng = random.Random(36)
        for _ in range(25):
            n = rng.randrange(3, 8)
            f = random_instance(rng, n, 4 * n)
            fs = factor_sequence(sort_clauses(f))
            acc = AnfPoly.one()
            for t in range(1, n + 1):
                acc = acc * fs.g(t)
            assert truth_table(acc, n) == cnf_truth_table(f)

    def test_provenance_partition(self):
        f = parse_dimacs(SIX_VAR)
        fs = factor_sequence(sort_clauses(f))
        seen = [k for t in range(6) for k in fs.plus_clauses[t] + fs.minus_clauses[t]]
        assert sorted(seen) == list(range(1, 18))


class TestIndicatorFromFactors:
    def test_six_var_mod2_zero(self):
        fs = factor_sequence(sort_clauses(parse_dimacs(SIX_VAR)))
        ind = indicator_from_factors(fs, "int")
        assert ind.reduce_mod2().is_zero()

    def test_six_var_prime_unique_solution_form(self):
        fs = factor_sequence(sort_clauses(six_var_prime()))
        ind = indicator_from_factors(fs, "gf2")
        one = AnfPoly.one()
        want = (
            (P("x1") + one) * P("x2") * P("x3") * (P("x4") + one) * P("x5") * (P("x6") + one)
        )
        assert ind == want

    def test_int_parity_matches_gf2(self):
        rng = random.Random(37)
        for _ in range(10):
            n = rng.randrange(3, 6)
            f = random_instance(rng, n, 3 * n)
            fs = factor_sequence(sort_clauses(f))
            assert indicator_from_factors(fs, "int").reduce_mod2() == indicator_from_factors(fs, "gf2")


ONE_SIDED_NS = [*range(3, 21), 21, 24, 28]


def one_sided_groups(n):
    """Every nonempty one-sided group of a seeded grid at n, as (group, t, positive).

    Ratios with more clauses than there are distinct ones (n = 3, 4) are skipped.
    """
    for r in (1, 2.5, 4.26, 6, 10):
        for s in range(1, 4 if n <= 14 else 2):
            try:
                f = sort_clauses(random_formula(n, max(1, round(r * n)), s))
            except GenerationError:
                continue
            for t in range(1, n + 1):
                for group, positive in zip(split_plus_minus(f, t), (True, False)):
                    if group.m:
                        yield group, t, positive


class TestOneSidedClosedForm:
    """The proved lemma behind ``_one_sided_entry``, against the group builds."""

    def test_grid_has_2564_groups(self):
        assert sum(1 for n in ONE_SIDED_NS for _ in one_sided_groups(n)) == 2564

    @pytest.mark.parametrize("n", ONE_SIDED_NS)
    def test_closed_form_is_the_built_entry(self, n):
        count = 0
        for group, t, positive in one_sided_groups(n):
            result = build(group)
            assert result.ok and not any(result.chains)
            h = result.descriptor
            assert all(h.entry(i) == AnfPoly.var(i) for i in range(1, group.n + 1) if i != t)
            entry = indicator._one_sided_entry(group.clauses, t, positive=positive)
            assert h.entry(t) == entry
            count += 1
        assert count > 0

    @pytest.mark.parametrize("cap", [1, 2, 4, 8])
    def test_caps_as_the_build_does(self, monkeypatch, cap):
        monkeypatch.setattr(indicator, "DEFAULT_LEN_CAP", cap)
        outcomes = set()
        for n in range(4, 12):
            f = sort_clauses(random_formula(n, round(4.26 * n), 1))
            for t in range(1, n + 1):
                for group, positive in zip(split_plus_minus(f, t), (True, False)):
                    try:
                        indicator._one_sided_entry(group.clauses, t, positive=positive)
                    except ResourceCap as exc:
                        assert str(exc) == f"one-sided group at t={t} hit the length cap"
                        raised = True
                    else:
                        raised = False
                    assert raised == build(group, cap=cap).capped
                    outcomes.add(raised)
        assert outcomes == {True, False}
