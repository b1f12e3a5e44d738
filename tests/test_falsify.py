import json
import os
from math import comb

import pytest

from anf_sat_lab import cnf, indicator
from anf_sat_lab.anf import AnfPoly, all_ones_column, set_bits
from anf_sat_lab.cnf import Clause3, Formula, parse_dimacs, sort_clauses
from anf_sat_lab.descriptor import build
from anf_sat_lab.falsify import (
    CLAIM_IDS,
    _factor_product_column,
    _fixed_point_column,
    check_claim,
    compact_variables,
    falsify,
    minimize_formula,
    verify_one_minimal,
    write_reports,
)
from anf_sat_lab.indicator import factor_sequence
from anf_sat_lab.oracle import random_formula

from golden import EIGHT_CLAUSE, SIX_VAR, TWO_CLAUSE


class TestRegistry:
    def test_all_claims_registered(self):
        assert set(CLAIM_IDS) == {"MERGE_SOUNDNESS", "INDICATOR6", "SWEEP_DECIDES"}

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            falsify(["NO_SUCH_CLAIM"], count=1, n=5, ratio=2.0, seed=0)

    def test_repeated_claim_rejected(self):
        with pytest.raises(ValueError, match="repeated claim id 'MERGE_SOUNDNESS'"):
            falsify(["MERGE_SOUNDNESS", "INDICATOR6", "MERGE_SOUNDNESS"], count=3, n=7, ratio=4.26, seed=1)

    @pytest.mark.parametrize("ratio", [0, -3, 0.0, float("nan"), float("inf"), -float("inf")])
    def test_ratio_must_be_positive_and_finite(self, ratio):
        with pytest.raises(ValueError, match="ratio must be a positive finite number"):
            falsify(["SWEEP_DECIDES"], count=1, n=6, ratio=ratio, seed=0)


class TestCheckers:
    def test_merge_soundness_on_goldens(self):
        assert check_claim("MERGE_SOUNDNESS", parse_dimacs(TWO_CLAUSE)) is None
        assert check_claim("MERGE_SOUNDNESS", parse_dimacs(EIGHT_CLAUSE)) is None

    def test_indicator6_on_goldens(self):
        assert check_claim("INDICATOR6", parse_dimacs(SIX_VAR)) is None

    def test_sweep_decides_on_goldens(self):
        assert check_claim("SWEEP_DECIDES", parse_dimacs(EIGHT_CLAUSE)) is None
        assert check_claim("SWEEP_DECIDES", parse_dimacs(SIX_VAR)) is None

    def test_factors_up_to_level_16_expand_no_ring_product(self, monkeypatch):
        def no_products(self, other):
            raise AssertionError("AnfPoly.__mul__ called")

        monkeypatch.setattr(AnfPoly, "__mul__", no_products)
        monkeypatch.setattr(AnfPoly, "__and__", no_products)  # its alias
        for n in range(4, 17):
            f = random_formula(n, round(4.26 * n), 1)
            fs = factor_sequence(sort_clauses(f))
            assert len(fs.h_plus) == len(fs.h_minus) == n
            assert check_claim("INDICATOR6", f) is None

    @pytest.mark.parametrize("n", range(4, 19))
    def test_indicator6_table_product_is_the_ring_product(self, n):
        # n = 17 and 18 fold their top levels sparsely, the rest on tables
        for ratio in (2.5, 4.26, 6):
            fs = factor_sequence(sort_clauses(random_formula(n, round(ratio * n), 1)))
            expected = all_ones_column(n)
            for t in range(1, n + 1):
                expected &= fs.g(t).truth_column(n)
            assert _factor_product_column(fs) == expected


def fixed_point_grid(n):
    """Seeded formulas: four clause ratios and three seeds at n <= 13, one build at 21."""
    if n == 21:
        yield random_formula(21, 14, 1)  # its build cascades
        return
    for ratio in (1, 2.5, 4.26, 6):
        for seed in (1, 2, 3):
            yield random_formula(n, min(8 * comb(n, 3), max(1, round(ratio * n))), seed)


class TestFixedPointColumn:
    """MERGE_SOUNDNESS compares the Fix H column; by property (ii) it is the image."""

    @pytest.mark.parametrize("n", [*range(3, 14), 21])
    def test_fixed_points_are_the_image(self, n):
        builds = 0
        for f in fixed_point_grid(n):
            h = build(sort_clauses(f)).descriptor
            if h is None:
                continue
            assert h.on_tables == (n <= 20)
            assert set(set_bits(_fixed_point_column(h))) == h.image_indices()
            builds += 1
        assert builds > 0


class TestFactorsReadGroups:
    """The factor sequence and the claims that use it build no sub-formulas."""

    def test_no_split_or_subproblem(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sub-formula built")

        monkeypatch.setattr(indicator, "split_plus_minus", refuse)
        monkeypatch.setattr(cnf, "split_plus_minus", refuse)
        monkeypatch.setattr(cnf, "subproblem", refuse)
        for n in range(4, 19):
            f = random_formula(n, round(4.26 * n), n)
            assert len(factor_sequence(sort_clauses(f)).h_plus) == n
            for claim in ("INDICATOR6", "SWEEP_DECIDES"):
                check_claim(claim, f)  # the claims are monitored, not asserted


class TestCompactAndMinimize:
    def test_compact_closes_gaps(self):
        f = Formula(
            n=9,
            clauses=(Clause3.from_signed((2, -5, 9)), Clause3.from_signed((2, 5, -7))),
        )
        c = compact_variables(f)
        assert c.n == 4
        assert c.clauses[0].signed() == (1, -2, 4)
        assert c.clauses[1].signed() == (1, 2, -3)

    def test_minimize_against_synthetic_predicate(self):
        # pretend divergence = "contains the clause (1 2 3) and at least 3 clauses";
        # the minimizer must stop at exactly 3 clauses including the marked one
        f = random_formula(6, 12, 5)
        marked = Clause3.from_signed((1, 2, 3))
        f = Formula(n=6, clauses=f.clauses[:11] + (marked,))

        def diverges(g: Formula) -> bool:
            return g.m >= 3 and any(
                sorted(abs(x) for x in cl.signed()) == [1, 2, 3]
                and all(x > 0 for x in cl.signed())
                for cl in g.clauses
            )

        small = minimize_formula(f, diverges)
        assert small.m == 3
        assert verify_one_minimal(small, diverges)

    def test_verify_one_minimal_rejects_shrinkable(self):
        f = random_formula(5, 6, 1)

        def diverges(g: Formula) -> bool:
            return g.m >= 2  # still shrinkable at m=6

        assert not verify_one_minimal(f, diverges)


class TestFalsifyRun:
    def test_deterministic_and_quiet_on_small_run(self, tmp_path):
        reports_a, stats_a = falsify(CLAIM_IDS, count=30, n=8, ratio=4.25, seed=77)
        write_reports(reports_a, str(tmp_path / "r"))
        reports_b, stats_b = falsify(
            CLAIM_IDS, count=30, n=8, ratio=4.25, seed=77
        )
        assert [r.to_json() for r in reports_a] == [r.to_json() for r in reports_b]
        assert stats_a.instances == 30
        assert stats_a.per_claim.keys() == {c for c in CLAIM_IDS}

    def test_reports_written_when_divergent(self, tmp_path, monkeypatch):
        # force a fake divergence for the report plumbing
        import anf_sat_lab.falsify as fz

        def fake_checker(f):
            if f.m >= 2:
                return ("expected-marker", "got-marker")
            return None

        monkeypatch.setitem(fz._CHECKERS, "MERGE_SOUNDNESS", fake_checker)
        reports, stats = falsify(
            ["MERGE_SOUNDNESS"],
            count=1,
            n=5,
            ratio=1.0,
            seed=3,
        )
        write_reports(reports, str(tmp_path))
        assert len(reports) == 1
        rep = reports[0]
        assert rep.expected == "expected-marker"
        # minimized instance is clause-minimal for the fake predicate
        assert parse_dimacs(rep.minimized_dimacs).m == 2
        lines_file = tmp_path / "reports.jsonl"
        assert lines_file.exists()
        payload = json.loads(lines_file.read_text().splitlines()[0])
        assert payload["claim"] == "MERGE_SOUNDNESS"
        cnfs = [p for p in os.listdir(tmp_path) if p.endswith(".cnf")]
        assert len(cnfs) == 1

    def test_non_minimal_reproducer_is_an_engine_bug(self, monkeypatch):
        import anf_sat_lab.falsify as fz
        from anf_sat_lab.errors import InvariantViolation

        monkeypatch.setitem(fz._CHECKERS, "MERGE_SOUNDNESS", lambda f: ("e", "g"))
        monkeypatch.setattr(fz, "verify_one_minimal", lambda f, diverges: False)
        with pytest.raises(InvariantViolation, match="not 1-minimal"):
            falsify(["MERGE_SOUNDNESS"], count=1, n=5, ratio=1.0, seed=3)

    def test_seeded_instances_cover_counts(self):
        # generation uses seed + index; instances are distinct almost surely
        fs = [random_formula(8, 34, 100 + i) for i in range(5)]
        assert len({f.clauses for f in fs}) == 5
