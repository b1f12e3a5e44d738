import random

import pytest

from anf_sat_lab import descriptor, indicator
from anf_sat_lab.anf import AnfPoly
from anf_sat_lab.cnf import Clause3, Formula, SortedFormula, parse_dimacs, sort_clauses
from anf_sat_lab.descriptor import (
    BuildResult,
    Descriptor,
    build,
    identity_descriptor,
)
from anf_sat_lab.errors import Property2Violation, ResourceCap
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


class TestOneSidedChecks:
    """The group checks read the tables and raise as the polynomial checks do."""

    @pytest.mark.parametrize("on_tables", [True, False])
    @pytest.mark.parametrize(
        "entries, positive, message",
        [
            # a disturbed entry is reported before a failed collapse
            (("a1", "a1", "a3 + a1", "a4"), True, "one-sided group at t=3 disturbed entry 2"),
            (("a1", "a2", "a3", "a1*a4"), False, "one-sided group at t=3 disturbed entry 4"),
            (("a1", "a2", "a3 + a1", "a4"), True, "h_plus at t=3 does not collapse to 1 at x_t=1"),
            (("a1", "a2", "a3 + a1", "a4"), False, "h_minus at t=3 does not collapse to 0 at x_t=0"),
            (("a1", "a2", "a3 + a1*a3", "a4"), True, "h_plus at t=3 does not collapse to 1 at x_t=1"),
            (("a1", "a2", "a3 + a1*a3", "a4"), False, None),
            (("a1", "a2", "1 + a1 + a1*a3", "a4"), True, None),
            (("1", "a2", "a3", "a4"), True, "one-sided group at t=3 disturbed entry 1"),
            # a cascade is reported before any entry is read
            (("1", "a2", "a3", "a4"), True, "one-sided group at t=3 triggered a cascade"),
        ],
    )
    def test_messages(self, monkeypatch, on_tables, entries, positive, message):
        polys = [P(e) for e in entries]
        if on_tables:
            h = Descriptor.from_tables(4, [p.truth_column(i) for i, p in enumerate(polys, 1)])
        else:
            monkeypatch.setattr(descriptor, "_on_tables", lambda n: False)
            h = Descriptor(4, polys)
        group = SortedFormula(n=4, clauses=(Clause3.from_signed((1, 2, 3)),))
        # the planted build of two clauses cascades only in the case that reports it
        chains = ((), (2,)) if message and "cascade" in message else ((),)
        result = BuildResult("ok", h, group, chains=chains, states=())
        monkeypatch.setattr(indicator, "build", lambda group: result)
        if message is None:
            assert indicator._one_sided_entry(group, 3, positive=positive) == polys[2]
        else:
            with pytest.raises(Property2Violation) as exc:
                indicator._one_sided_entry(group, 3, positive=positive)
            assert str(exc.value) == message

    def test_group_build_converts_only_h_t(self, monkeypatch):
        calls = []
        real = Descriptor.entry

        def recording(self, i):
            calls.append(i)
            return real(self, i)

        monkeypatch.setattr(Descriptor, "entry", recording)
        fs = factor_sequence(sort_clauses(random_formula(10, 43, 1)))
        groups = [
            t
            for t in range(1, fs.n + 1)
            for clauses in (fs.plus_clauses[t - 1], fs.minus_clauses[t - 1])
            if clauses
        ]
        assert len(groups) > fs.n
        assert calls == groups
