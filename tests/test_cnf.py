import hashlib
from fractions import Fraction

import pytest

from anf_sat_lab.cnf import (
    Clause3,
    Formula,
    Literal,
    SortedFormula,
    formula_from_json,
    formula_to_json,
    parse_dimacs,
    relabel_by_frequency,
    rename,
    sort_clauses,
    split_plus_minus,
    static_sets,
    subproblem,
    to_dimacs,
)
from anf_sat_lab.errors import HeaderMismatch, MalformedClause, VarOutOfRange
from anf_sat_lab.falsify import compact_variables
from anf_sat_lab.indicator import factor_sequence
from anf_sat_lab.oracle import brute_solutions_slow, random_formula

from golden import EIGHT_CLAUSE, SIX_VAR, TWO_CLAUSE
from helpers import solution_masks


class TestParse:
    def test_single_clause(self):
        f = parse_dimacs("p cnf 3 1\n-1 -2 -3 0")
        assert f.n == 3 and f.m == 1
        assert f.clauses[0].signed() == (-1, -2, -3)

    def test_two_clause_example(self):
        f = parse_dimacs(TWO_CLAUSE)
        assert f.n == 4 and f.m == 2
        assert f.clauses[0].signed() == (1, 2, -3)
        assert f.clauses[1].signed() == (-2, 3, -4)

    def test_duplicate_variable_rejected(self):
        with pytest.raises(MalformedClause):
            parse_dimacs("p cnf 3 1\n1 1 2 0")

    def test_tautology_rejected(self):
        with pytest.raises(MalformedClause):
            parse_dimacs("p cnf 3 1\n1 -1 2 0")

    def test_var_out_of_range(self):
        with pytest.raises(VarOutOfRange):
            parse_dimacs("p cnf 3 1\n1 2 4 0")

    def test_header_mismatch(self):
        with pytest.raises(HeaderMismatch):
            parse_dimacs("p cnf 3 2\n1 2 3 0")

    def test_missing_header(self):
        with pytest.raises(HeaderMismatch):
            parse_dimacs("1 2 3 0")

    def test_unterminated_clause(self):
        with pytest.raises(HeaderMismatch):
            parse_dimacs("p cnf 3 1\n1 2 3")

    def test_comments_whitespace_and_multiline(self):
        text = "c a comment\n\np cnf 4 2\n  1   2\n-3 0 -2 3 -4 0\n"
        f = parse_dimacs(text)
        assert f.m == 2
        assert f.clauses[0].signed() == (1, 2, -3)

    def test_benchmark_style_end_marker(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n%\n0\n")
        assert f.m == 1

    def test_normalizes_literal_order(self):
        f = parse_dimacs("p cnf 4 1\n-4 2 -1 0")
        assert f.clauses[0].signed() == (-1, 2, -4)

    def test_delta(self):
        f = parse_dimacs(EIGHT_CLAUSE)
        assert f.delta == Fraction(8, 3)

    def test_forbidden_triple(self):
        cl = Clause3.from_signed((1, 2, -3))
        assert cl.forbidden_triple() == (0, 0, 1)
        assert Clause3.from_signed((-1, -2, -3)).forbidden_triple() == (1, 1, 1)

    def test_eval_mask_matches_clause_by_clause(self):
        # Formula.eval_mask reads precomputed forbidden cubes; the slow
        # oracle loops over clauses and literals one assignment at a time
        for n, m, seed in ((3, 1, 1), (5, 12, 2), (7, 30, 3), (8, 40, 4)):
            f = random_formula(n, m, seed)
            want = brute_solutions_slow(f).masks()
            assert {a << 1 for a in range(1 << n) if f.eval_mask(a << 1)} == want


def unsorted(n, *clauses):
    """A SortedFormula over the clauses in the given order, which it checks."""
    return SortedFormula(n, tuple(map(Clause3.from_signed, clauses)))


class TestClauseErrors:
    """The messages `parse error:` prints; a literal 0 is checked before the
    count, and the count before a repeated variable."""

    @pytest.mark.parametrize(
        "lits, exc, message",
        [
            ((1, 0, 2), ValueError, "literal 0 is reserved as the clause terminator"),
            ((0,), ValueError, "literal 0 is reserved as the clause terminator"),
            ((1, 2, 3, 0), ValueError, "literal 0 is reserved as the clause terminator"),
            ((1, 1, 0), ValueError, "literal 0 is reserved as the clause terminator"),
            ((), MalformedClause, "clause must have exactly 3 literals, got 0"),
            ((1, 2), MalformedClause, "clause must have exactly 3 literals, got 2"),
            ((1, 1, 2, 3), MalformedClause, "clause must have exactly 3 literals, got 4"),
            ((2, -1, 1), MalformedClause, "clause mentions a variable twice (duplicate literal or tautology): -1 1 2"),
            ((-2, 1, 2), MalformedClause, "clause mentions a variable twice (duplicate literal or tautology): 1 -2 2"),
            ((3, 3, 1), MalformedClause, "clause mentions a variable twice (duplicate literal or tautology): 1 3 3"),
        ],
    )
    def test_message(self, lits, exc, message):
        with pytest.raises(exc) as info:
            Clause3.from_signed(iter(lits))
        assert type(info.value) is exc and str(info.value) == message

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Clause3((Literal(2, False), Literal(1, True), Literal(3, False))),
             "clause variables must satisfy r < s < t, got [2, 1, 3]"),
            (lambda: Clause3((Literal(1, False), Literal(3, False), Literal(3, True))),
             "clause variables must satisfy r < s < t, got [1, 3, 3]"),
            (lambda: Clause3((Literal(1, False), Literal(2, False))),
             "clause variables must satisfy r < s < t, got [1, 2]"),
            (lambda: unsorted(4, (1, 2, 3), (1, 2, -4), (1, 3, 4), (-1, 2, 3)),
             "clauses (1, 3, 4) and (-1, 2, 3) are out of order"),
            (lambda: unsorted(3, (1, 2, 3), (1, 2, -3)),  # negated x_t comes first
             "clauses (1, 2, 3) and (1, 2, -3) are out of order"),
        ],
    )
    def test_constructor_message(self, make, message):
        with pytest.raises(MalformedClause) as info:
            make()
        assert type(info.value) is MalformedClause and str(info.value) == message


class TestRoundTrips:
    def test_dimacs_roundtrip(self):
        f = parse_dimacs(SIX_VAR)
        again = parse_dimacs(to_dimacs(f))
        assert again == f

    def test_json_roundtrip(self):
        f = parse_dimacs(TWO_CLAUSE)
        assert formula_from_json(formula_to_json(f)) == f

    def test_random_roundtrips(self):
        for seed in range(10):
            f = random_formula(8, 20, seed)
            assert parse_dimacs(to_dimacs(f)) == f
            assert formula_from_json(formula_to_json(f)) == f


class TestSort:
    def test_eight_clause_group_order(self):
        f = parse_dimacs(EIGHT_CLAUSE)
        sf = sort_clauses(f)
        # all negative-x3 clauses before positive-x3, input order within groups
        assert sf.witness == (0, 1, 2, 3, 4, 5, 6, 7)
        assert [cl.top_negated for cl in sf.clauses] == [True] * 4 + [False] * 4

    def test_already_sorted_identity(self):
        sf = sort_clauses(parse_dimacs(TWO_CLAUSE))
        assert sf.witness == (0, 1)

    def test_t_orders_before_polarity(self):
        # a clause with t=5 negative sorts after one with t=4
        f = parse_dimacs("p cnf 5 2\n1 2 -5 0\n1 2 4 0\n")
        sf = sort_clauses(f)
        assert [cl.t for cl in sf.clauses] == [4, 5]
        assert sf.witness == (1, 0)

    def test_idempotent_and_permutation(self):
        for seed in range(15):
            f = random_formula(7, 18, seed)
            sf = sort_clauses(f)
            assert sorted(sf.witness) == list(range(f.m))
            assert sorted(c.signed() for c in sf.clauses) == sorted(
                c.signed() for c in f.clauses
            )
            again = sort_clauses(sf)
            assert again.clauses == sf.clauses
            assert again.witness == tuple(range(f.m))


class TestRelabel:
    def test_frequency_order(self):
        # x3 occurs in all five clauses, x1 in two, x2 in one wait -- build a
        # formula where counts are x3: 5, x1: 4, x2: 3 plus filler variable 4
        f = parse_dimacs(
            "p cnf 4 5\n1 2 3 0\n1 2 -3 0\n1 -2 3 0\n-1 3 4 0\n-3 -4 1 0\n"
        )
        counts = {v: 0 for v in range(1, 5)}
        for cl in f.clauses:
            for l in cl.lits:
                counts[l.var] += 1
        relabeled, perm = relabel_by_frequency(f)
        # perm[new-1] = old; counts must be non-increasing along new indices
        seq = [counts[perm[i]] for i in range(f.n)]
        assert seq == sorted(seq, reverse=True)

    def test_all_equal_is_identity(self):
        f = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
        _, perm = relabel_by_frequency(f)
        assert perm == (1, 2, 3)

    def test_six_var_identity(self):
        # the six-variable instance is already frequency-sorted
        f = parse_dimacs(SIX_VAR)
        relabeled, perm = relabel_by_frequency(f)
        assert perm == (1, 2, 3, 4, 5, 6)
        assert relabeled == f

    def test_preserves_satisfiability(self):
        for seed in range(25):
            f = random_formula(7, 25, seed + 100)
            relabeled, _ = relabel_by_frequency(f)
            assert len(solution_masks(f)) == len(solution_masks(relabeled))


class TestRename:
    def test_order_naming_a_variable_twice_is_rejected(self):
        f = parse_dimacs("p cnf 3 1\n1 -2 3 0\n")
        with pytest.raises(MalformedClause, match="renaming order names a variable twice"):
            rename(f, (1, 1, 2, 3))

    def test_non_monotone_renaming_sorts_each_clause(self):
        # x4 occurs four times, x2 and x3 three, x1 twice: x4 -> 1, x1 -> 4
        f = parse_dimacs("p cnf 4 4\n1 -2 4 0\n2 3 -4 0\n-2 -3 4 0\n-1 3 4 0\n")
        relabeled, perm = relabel_by_frequency(f)
        assert perm == (4, 2, 3, 1)
        new = {old: k for k, old in enumerate(perm, start=1)}
        for cl, old in zip(relabeled.clauses, f.clauses):
            assert [l.var for l in cl.lits] == sorted(l.var for l in cl.lits)
            assert set(cl.signed()) == {-new[-x] if x < 0 else new[x] for x in old.signed()}
        assert [cl.signed() for cl in relabeled.clauses] == [
            (1, -2, 4),
            (-1, 2, 3),
            (1, -2, -3),
            (1, 3, -4),
        ]


class TestSplitAndSubproblem:
    def test_six_var_t3(self):
        sf = sort_clauses(parse_dimacs(SIX_VAR))
        plus, minus = split_plus_minus(sf, 3)
        assert plus.m == 1 and minus.m == 1
        assert plus.clauses[0].signed() == (-1, 2, 3)
        assert minus.clauses[0].signed() == (-1, 2, -3)

    def test_empty_t(self):
        sf = sort_clauses(parse_dimacs(SIX_VAR))
        plus, minus = split_plus_minus(sf, 1)
        assert plus.m == 0 and minus.m == 0

    def test_partition_identity(self):
        for seed in range(10):
            sf = sort_clauses(random_formula(8, 30, seed))
            total = sum(
                split_plus_minus(sf, t)[0].m + split_plus_minus(sf, t)[1].m
                for t in range(1, sf.n + 1)
            )
            assert total == sf.m

    def test_subproblem_full_and_empty(self):
        sf = sort_clauses(parse_dimacs(EIGHT_CLAUSE))
        assert subproblem(sf, range(1, 9)).clauses == sf.clauses
        assert subproblem(sf, []).m == 0

    def test_subproblem_prefix(self):
        sf = sort_clauses(parse_dimacs(EIGHT_CLAUSE))
        sub = subproblem(sf, [1, 2])
        assert [cl.signed() for cl in sub.clauses] == [(1, -2, -3), (1, 2, -3)]

    def test_subproblem_bad_index(self):
        sf = sort_clauses(parse_dimacs(TWO_CLAUSE))
        with pytest.raises(VarOutOfRange):
            subproblem(sf, [3])


class TestStaticSets:
    def test_two_clause_sets(self):
        sf = sort_clauses(parse_dimacs(TWO_CLAUSE))
        sets = static_sets(sf)
        assert sets.cl[3] == frozenset({1})
        assert sets.v[3] == frozenset({1, 2, 3})
        assert sets.cl[4] == frozenset({2})
        assert sets.v[4] == frozenset({2, 3, 4})

    def test_single_clause(self):
        sf = sort_clauses(parse_dimacs("p cnf 5 1\n1 -3 5 0"))
        sets = static_sets(sf)
        assert sets.cl[5] == frozenset({1})
        assert all(not sets.cl[t] for t in range(1, 5))

    def test_windowed_family(self):
        # chained 3-windows: V(x_i) = {i-2, i-1, i}
        n = 8
        lines = [f"p cnf {n} {n - 2}"]
        for i in range(3, n + 1):
            lines.append(f"{i - 2} {i - 1} {i} 0")
        sf = sort_clauses(parse_dimacs("\n".join(lines)))
        sets = static_sets(sf)
        for i in range(3, n + 1):
            assert sets.v[i] == frozenset({i - 2, i - 1, i})

    def test_partition_and_counts(self):
        for seed in range(10):
            sf = sort_clauses(random_formula(9, 35, seed))
            sets = static_sets(sf)
            union = set()
            for t in range(1, sf.n + 1):
                for k in sets.cl[t]:
                    assert sf.clauses[k - 1].t == t
                    union.add(k)
                assert sets.m_plus[t] + sets.m_minus[t] == len(sets.cl[t])
                assert sets.v[t] <= set(range(1, t + 1))
            assert union == set(range(1, sf.m + 1))


class TestRelabelSpecExample:
    def test_most_frequent_becomes_one(self):
        # occurrence counts x3:5 x4:4 x5:3 x1:2 x2:1 -> x3 takes index 1
        f = parse_dimacs(
            "p cnf 5 5\n3 4 5 0\n3 4 -5 0\n1 3 4 0\n2 3 -4 0\n-1 3 -5 0\n"
        )
        counts = {v: 0 for v in range(1, 6)}
        for cl in f.clauses:
            for l in cl.lits:
                counts[l.var] += 1
        assert counts == {1: 2, 2: 1, 3: 5, 4: 4, 5: 3}
        relabeled, perm = relabel_by_frequency(f)
        assert perm == (3, 4, 5, 1, 2)
        # the old x3 (now x1) appears in every relabeled clause
        assert all(any(l.var == 1 for l in cl.lits) for cl in relabeled.clauses)


class TestPinnedViews:
    """The clause-group views and renamings of a grid, pinned by one sha256.

    Covers ``split_plus_minus`` for every t, every ``static_sets`` field,
    ``relabel_by_frequency``, ``compact_variables`` of every clause prefix
    and the texts and provenance of ``factor_sequence``.  The digest was
    taken before these views were read from ``SortedFormula.groups`` and
    the renamings went through ``rename``.
    """

    DIGEST = "1b568dcc09b69e252c2e33f0512c4b14f752abc74231e446db08fe9553f4595b"

    @staticmethod
    def _grid():
        yield parse_dimacs(SIX_VAR)
        yield parse_dimacs(EIGHT_CLAUSE)
        for n in range(3, 13):
            capacity = 8 * (n * (n - 1) * (n - 2) // 6)
            for ratio in (1, 2.5, 4.26, 6):
                for seed in (1, 2, 3):
                    yield random_formula(n, min(capacity, max(1, round(ratio * n))), seed)

    @staticmethod
    def _record(f):
        def ints(values):
            return ",".join(str(v) for v in values)

        def clauses(g):
            return ";".join(ints(cl.signed()) for cl in g.clauses)

        sf = sort_clauses(f)
        lines = [to_dimacs(f)]
        for t in range(1, f.n + 1):
            plus, minus = split_plus_minus(sf, t)
            lines.append(f"split {t} {plus.n} {clauses(plus)} {ints(plus.witness)}")
            lines.append(f"split {t} {minus.n} {clauses(minus)} {ints(minus.witness)}")
        sets = static_sets(sf)
        lines.append(f"sets {sets.n} {ints(sets.m_plus)} {ints(sets.m_minus)}")
        lines += [f"cl {ints(sorted(s))}" for s in sets.cl]
        lines += [f"v {ints(sorted(s))}" for s in sets.v]
        relabeled, perm = relabel_by_frequency(f)
        lines.append(f"relabel {ints(perm)}\n{to_dimacs(relabeled)}")
        for k in range(1, f.m + 1):
            lines.append(to_dimacs(compact_variables(Formula(n=f.n, clauses=f.clauses[:k]))))
        fs = factor_sequence(sf)
        for t in range(1, f.n + 1):
            lines.append(
                f"factor {t} {fs.h_plus[t - 1].to_text()} {fs.h_minus[t - 1].to_text()}"
                f" {ints(fs.plus_clauses[t - 1])} {ints(fs.minus_clauses[t - 1])}"
            )
        return "\n".join(lines) + "\n"

    def test_grid_digest(self):
        digest = hashlib.sha256()
        for f in self._grid():
            digest.update(self._record(f).encode())
        assert digest.hexdigest() == self.DIGEST
