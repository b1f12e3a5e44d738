import copy
import hashlib
import json
import pickle
import random
from contextlib import contextmanager
from dataclasses import astuple
from functools import cache
from itertools import combinations, product
from unittest import mock

import pytest

from anf_sat_lab.anf import AnfPoly, moebius, var_columns
from anf_sat_lab.cnf import Clause3, Formula, parse_dimacs, sort_clauses
from anf_sat_lab import descriptor
from anf_sat_lab.descriptor import (
    PROFILE_HEADER,
    Descriptor,
    build,
    clause_descriptor,
    identity_descriptor,
    merge,
    merge_poly,
    profile_csv,
)
from anf_sat_lab.errors import InvariantViolation, ResourceCap
from anf_sat_lab.oracle import random_formula
from anf_sat_lab.solutions import SearchStats, intersect_images, list_solutions

from golden import EIGHT_CLAUSE, EIGHT_CLAUSE_TABLE, TWO_CLAUSE
from helpers import apply_mask, descriptor_image_masks, reference_merge_clause, solution_masks


def P(text):
    return AnfPoly.parse(text)


def all_clauses(n):
    for vs in combinations(range(1, n + 1), 3):
        for signs in product((1, -1), repeat=3):
            yield Clause3.from_signed([s * v for s, v in zip(signs, vs)])


class TestDescriptorType:
    def test_triangularity_enforced(self):
        with pytest.raises(InvariantViolation):
            Descriptor(2, (AnfPoly.var(2), AnfPoly.var(2)))

    def test_identity(self):
        h = identity_descriptor(4)
        assert all(h.tables[i - 1] == var_columns(i)[i] for i in range(1, 5))
        assert apply_mask(h, 0b10110) == 0b10110

    def test_json_roundtrip(self):
        h = clause_descriptor(Clause3.from_signed((1, -2, 4)), 5)
        assert Descriptor.from_json(h.to_json()) == h


class TestClauseDescriptor:
    def test_all_negative_row(self):
        h = clause_descriptor(Clause3.from_signed((-1, -2, -3)), 3)
        assert h.entry(3) == P("a1*a2*a3 + a3")

    def test_mixed_row(self):
        h = clause_descriptor(Clause3.from_signed((1, 2, -3)), 3)
        assert h.entry(3) == P("a1*a2*a3 + a1*a3 + a2*a3")  # (a1+1)(a2+1)a3+a3

    def test_eight_polarity_table(self):
        # the full 8-row case table, factored forms expanded
        one = AnfPoly.one()
        a1, a2, a3 = (AnfPoly.var(i) for i in range(1, 4))
        rows = {
            (1, 2, 3): (a1 + one) * (a2 + one) * (a3 + one) + a3,
            (1, 2, -3): (a1 + one) * (a2 + one) * a3 + a3,
            (1, -2, 3): (a1 + one) * a2 * (a3 + one) + a3,
            (1, -2, -3): (a1 + one) * a2 * a3 + a3,
            (-1, 2, 3): a1 * (a2 + one) * (a3 + one) + a3,
            (-1, 2, -3): a1 * (a2 + one) * a3 + a3,
            (-1, -2, 3): a1 * a2 * (a3 + one) + a3,
            (-1, -2, -3): a1 * a2 * a3 + a3,
        }
        for signed, want in rows.items():
            h = clause_descriptor(Clause3.from_signed(signed), 3)
            assert h.entry(3) == want
            assert h.entry(1) == a1 and h.entry(2) == a2

    def test_one_clause_soundness_everywhere(self):
        # image equals the 7 satisfying assignments for every polarity and
        # placement up to n = 6  [hard assertion]
        for n in (3, 4, 5, 6):
            for clause in all_clauses(n):
                h = clause_descriptor(clause, n)
                f = Formula(n=n, clauses=(clause,))
                assert descriptor_image_masks(h) == solution_masks(f)


class TestMergePoly:
    def test_no_constraint_case(self):
        f4 = AnfPoly.var(4)
        g4 = P("a2*a3*a4 + a2*a4 + a4")
        h, res = merge_poly(f4, g4, 4)
        assert h == g4
        assert res.is_zero()

    def test_equal_inputs_merge_to_self(self):
        rng = random.Random(11)
        for _ in range(50):
            masks = [rng.randrange(16) << 1 for _ in range(rng.randrange(5))]
            fl = AnfPoly(masks) * AnfPoly.var(4) + AnfPoly.var(4)  # keep it level-4
            h, res = merge_poly(fl, fl, 4)
            assert h == fl
            assert res.is_zero()

    def test_situation_c_residual(self):
        # worked example: F sends (0,0,.) to the forbidden cell both ways,
        # so the residual is nonzero and lives below level 3
        f3 = P("1 + a1 + a1*a2 + a1*a3 + a1*a2*a3")
        g3 = P("a1*a3 + a2*a3 + a1*a2*a3")
        h, res = merge_poly(f3, g3, 3)
        assert not res.is_zero()
        assert res.max_var() == 2

    def test_situation_c_worked_merge(self):
        # merging the clause (x1 or x2 or not x3) into the descriptor
        # [a1, a2, 1 + a1 + a1*a2 + a1*a3 + a1*a2*a3] keeps exactly the four
        # image rows 011, 100, 101, 111
        f = Descriptor(
            3,
            (AnfPoly.var(1), AnfPoly.var(2), P("1 + a1 + a1*a2 + a1*a3 + a1*a2*a3")),
        )
        merged = merge(f, Clause3.from_signed((1, 2, -3)))
        assert merged is not None
        got = descriptor_image_masks(merged)
        want = {0b1100, 0b0010, 0b1010, 0b1110}  # masks: bit i = variable i
        assert got == want

    def test_rejects_higher_variables(self):
        with pytest.raises(InvariantViolation):
            merge_poly(AnfPoly.var(5), AnfPoly.var(3), 3)


def sparse_merge(f_l, g_l, l):
    """The merge level as ring operations on monomial sets."""
    f0, f1 = f_l.restrict(l, 0), f_l.restrict(l, 1)
    g0, g1 = g_l.restrict(l, 0), g_l.restrict(l, 1)
    a0, a1 = f0 + g0, f1 + g1
    p0, p1 = f0 * g0, f1 * g1
    al = AnfPoly.var(l)
    h = (al + AnfPoly.one()) * (a0 * p1 + p0) + al * (a1 * a0 + a1 * p0 + p1)
    return h, a0 * a1


def random_poly(rng, l, terms):
    return AnfPoly(rng.randrange(1 << l) << 1 for _ in range(terms))


class TestMergePolyPaths:
    def test_both_paths_match_ring_formula(self):
        rng = random.Random(71)
        for l in range(1, 15):
            for _ in range(12):
                f = random_poly(rng, l, rng.choice((0, 1, 3, 10, 30)))
                g = random_poly(rng, l, rng.choice((0, 1, 3, 10, 30)))
                want = sparse_merge(f, g, l)
                assert merge_poly(f, g, l) == want, (l, f, g)
                h, residual = descriptor._merge_level(f.truth_column(l), g.truth_column(l), l)
                got = (
                    AnfPoly.from_coefficient_column(moebius(h, l)),
                    AnfPoly.from_coefficient_column(moebius(residual, l - 1)),
                )
                assert got == want, (l, f, g)

    def test_each_representation_has_one_merge(self, monkeypatch):
        calls = []
        for name in ("_merge_level", "merge_poly"):
            real = getattr(descriptor, name)

            def spy(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(descriptor, name, spy)
        with monkeypatch.context() as m:
            m.setattr(descriptor, "_on_tables", lambda n: False)
            for sf in grid_formulas():
                build(sf)
        assert set(calls) == {"merge_poly"}
        calls.clear()
        n = descriptor._TABLE_MERGE_MAX_LEVEL + 1
        assert build(sort_clauses(random_formula(n, 12, 1))).ok
        assert set(calls) == {"merge_poly"}
        calls.clear()
        for sf in grid_formulas():
            build(sf)
        assert set(calls) == {"_merge_level"}


def negates(table, l):
    """Prefixes (as a table over a_1..a_{l-1}) where the entry's table maps a_l to 1 - a_l."""
    half = 1 << (l - 1)
    return table & ((1 << half) - 1) & ~(table >> half)


class TestNonNegation:
    """The lemma that lets a merge skip every level but the clause's top and its cascade."""

    def test_case_table(self):
        # On tables over a_1, bit 0 is the value at a_1 = 0 and bit 1 the value at a_1 = 1.
        polys = {0b00: AnfPoly.zero(), 0b11: AnfPoly.one(), 0b10: P("a1"), 0b01: P("a1 + 1")}
        a1 = 0b10
        for f in (0b00, 0b11, 0b10):  # (f0, f1) = (0, 0), (1, 1), (0, 1)
            for g in range(4):
                h, residual = descriptor._merge_level(f, g, 1)
                assert not negates(h, 1), (f, g)
                h_poly, residual_poly = merge_poly(polys[f], polys[g], 1)
                assert h_poly != polys[0b01], (f, g)
                assert (h_poly.truth_column(1), residual_poly.truth_column(0)) == (h, residual)
                if g == a1:
                    assert (h, residual) == (f, 0)
                    assert (h_poly, residual_poly) == (polys[f], AnfPoly.zero())

    def test_merge_level_runs_at_top_and_cascade_only(self, monkeypatch):
        calls = []
        real = descriptor._merge_level

        def spy(f, g, l):
            calls.append(l)
            return real(f, g, l)

        monkeypatch.setattr(descriptor, "_merge_level", spy)
        for seed in (1, 2, 3):
            calls.clear()
            result = build(sort_clauses(random_formula(10, 43, seed)))
            assert result.ok
            assert len(calls) == 43 + sum(map(len, result.chains)), seed
            assert calls == [
                level for clause, chain in zip(result.formula.clauses, result.chains)
                for level in (clause.t, *chain)
            ]

    def test_merge_rejects_negating_entries(self, monkeypatch):
        cases = (
            (Descriptor(3, (P("a1 + 1"), P("a2"), P("a3"))), (1, 2, 3)),
            (Descriptor(3, (P("a1"), P("a1 + a2 + 1"), P("a3"))), (-1, 2, 3)),
        )
        for h, signed in cases:
            with pytest.raises(InvariantViolation, match="negates its own variable"):
                merge(h, Clause3.from_signed(signed))
            with on_polynomials(monkeypatch), pytest.raises(InvariantViolation):
                merge(h, Clause3.from_signed(signed))

    def test_cap_bounds_only_written_entries(self):
        h = build(sort_clauses(random_formula(10, 43, 1))).descriptor
        assert len(h.entry(10)) == 25
        with pytest.raises(ResourceCap) as caught:
            merge(h, Clause3.from_signed((1, 2, 3)), cap=4)
        assert (caught.value.where, caught.value.size) == ("8", 7)


class TestMerge:
    def test_two_clause_paper_result(self):
        sf = sort_clauses(parse_dimacs(TWO_CLAUSE))
        result = build(sf)
        assert result.ok
        assert result.descriptor.h == (
            P("a1"),
            P("a2"),
            P("a1*a2*a3 + a1*a3 + a2*a3"),
            P("a2*a3*a4 + a2*a4 + a4"),
        )

    def test_merge_into_identity_is_clause_descriptor(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randrange(3, 7)
            clause = random_formula(n, 1, rng.randrange(10**6)).clauses[0]
            merged = merge(identity_descriptor(n), clause)
            assert merged == clause_descriptor(clause, n)

    def test_eight_clause_progression(self):
        sf = sort_clauses(parse_dimacs(EIGHT_CLAUSE))
        current = identity_descriptor(3)
        for step, clause in enumerate(sf.clauses, start=1):
            current = merge(current, clause)
            if step == 8:
                assert current is None
                break
            want_h = tuple(P(t) for t in EIGHT_CLAUSE_TABLE[step - 1][:3])
            assert current.h == want_h
            assert len(descriptor_image_masks(current)) == EIGHT_CLAUSE_TABLE[step - 1][3]

    def test_two_clause_soundness_seeded(self):
        # image(merge of two clause descriptors) = brute solutions  [hard]
        rng = random.Random(13)
        checked = 0
        while checked < 500:
            n = rng.randrange(3, 7)
            f = random_formula(n, 2, rng.randrange(10**9))
            sf = sort_clauses(f)
            result = build(sf)
            expected = solution_masks(f)
            if result.unsat:
                assert expected == frozenset()
            else:
                assert descriptor_image_masks(result.descriptor) == expected
            checked += 1

    def test_triangularity_preserved(self):
        rng = random.Random(14)
        for seed in range(20):
            f = random_formula(8, 24, seed)
            sf = sort_clauses(f)
            current = identity_descriptor(8)
            for clause in sf.clauses:
                current = merge(current, clause)
                if current is None:
                    break
                for i in range(1, 9):
                    assert current.entry(i).max_var() <= i


class TestBuild:
    def test_empty_formula_identity(self):
        sf = sort_clauses(Formula(n=5, clauses=()))
        result = build(sf)
        assert result.ok and result.descriptor == identity_descriptor(5)

    def test_eight_clause_unsat(self):
        result = build(sort_clauses(parse_dimacs(EIGHT_CLAUSE)))
        assert result.unsat
        assert result.descriptor is None

    def test_cascade_chain_strictly_decreases(self):
        rng = random.Random(15)
        for seed in range(40):
            f = random_formula(7, 30, seed)
            result = build(sort_clauses(f))
            for step in result.trace.steps:
                assert all(j < step.t for j in step.chain)
                assert list(step.chain) == sorted(step.chain, reverse=True)

    def test_resource_cap_reported(self):
        f = random_formula(12, 51, 99)
        result = build(sort_clauses(f), cap=2)
        assert result.capped
        assert result.capped_at is not None
        level, size = result.capped_at
        assert size > 2 and 1 <= level <= 12

    def test_situations_recorded(self):
        result = build(sort_clauses(parse_dimacs(EIGHT_CLAUSE)))
        situations = [s.situation for s in result.trace.steps]
        assert situations[0] == "B"  # first clause constrains the identity
        assert "C" in situations  # later cascades fire


class TestTraceAndProfile:
    def test_profile_header_and_shape(self):
        result = build(sort_clauses(parse_dimacs(EIGHT_CLAUSE)))
        text = profile_csv(result.trace)
        lines = text.splitlines()
        assert lines[0] == PROFILE_HEADER
        assert lines[1].startswith("step,clause_index,t,")
        data = [ln for ln in lines[2:] if ln and not ln.startswith(("#", "t,"))]
        # 8 merge rows then n summary rows
        assert len(data) == 8 + 3

    def test_profile_lens_small(self):
        result = build(sort_clauses(parse_dimacs(EIGHT_CLAUSE)))
        for step in result.trace.steps:
            assert max(step.lens) <= 8

    def test_empty_trace_header_only(self):
        text = profile_csv(build(sort_clauses(Formula(n=0, clauses=()))).trace)
        assert text.splitlines() == [
            PROFILE_HEADER,
            "step,clause_index,t,len_h_t,log2_len_h_t,situation,recursion_depth",
            "# predecessors and windows",
            "t,P,V,W_star,W",
        ]

    def test_w_of_n_equals_v_of_n(self):
        from anf_sat_lab.cnf import static_sets

        for seed in range(10):
            sf = sort_clauses(random_formula(8, 30, seed))
            result = build(sf)
            assert result.trace.w(8) == static_sets(sf).v[8]

    def test_predecessor_sets(self):
        result = build(sort_clauses(parse_dimacs(EIGHT_CLAUSE)))
        # cascades at t=3 pushed constraints to 2 and 1
        p3 = result.trace.predecessors(3)
        assert p3 <= {1, 2}
        assert p3  # at least one cascade fired from level 3


def grid_formulas(seeds_small=2, seeds_large=1):
    """Seeded formulas over n = 3..13 at four clause ratios."""
    from math import comb

    for n in range(3, 14):
        for ratio in (1, 2.5, 4.26, 6):
            m = min(8 * comb(n, 3), max(1, round(ratio * n)))
            for seed in range(1, 1 + (seeds_small if n <= 10 else seeds_large)):
                yield sort_clauses(random_formula(n, m, seed))


def build_signature(result):
    return (
        result.status,
        result.descriptor,
        result.capped_at,
        result.trace.steps,
        result.trace.pred_edges,
    )


class TestTableFold:
    """Builds up to _TABLE_MERGE_MAX_LEVEL variables run on truth tables."""

    def test_table_build_equals_sparse_fold(self, monkeypatch):
        statuses = set()
        for sf in grid_formulas():
            for cap in (4, 16, descriptor.DEFAULT_LEN_CAP):
                with monkeypatch.context() as m:
                    m.setattr(descriptor, "_on_tables", lambda n: False)
                    m.setattr(descriptor, "_merge_clause", reference_merge_clause)
                    want = build_signature(build(sf, cap=cap))
                got = build_signature(build(sf, cap=cap))
                assert got == want, (sf.n, sf.m, cap)
                statuses.add(got[0])
        assert statuses == {"ok", "unsat", "capped"}

    def test_public_merge_equals_sparse_merge(self, monkeypatch):
        for seed in range(1, 9):
            sf = sort_clauses(random_formula(9, 38, seed))
            current = identity_descriptor(9)
            for pos, clause in enumerate(sf.clauses, start=1):
                got = merge(current, clause)
                with monkeypatch.context() as m:
                    m.setattr(descriptor, "_on_tables", lambda n: False)
                    m.setattr(descriptor, "_merge_clause", reference_merge_clause)
                    want = merge(current, clause)
                assert got == want, (seed, pos)
                if got is None:
                    break
                current = got

    def test_public_merge_of_unfolded_input_equals_sparse_merge(self, monkeypatch):
        # Random non-negating entries that no fold made: H o H = H need not hold,
        # so merge must apply every pair of its substitution pass.
        rng = random.Random(24)
        merges = shortcut_differs = 0
        for n in range(3, 8):
            for _ in range(120):
                tables = []
                for l in range(1, n + 1):
                    half = 1 << (l - 1)
                    low = rng.getrandbits(half)
                    tables.append(low | (low | rng.getrandbits(half)) << half)  # high >= low
                h = Descriptor.from_tables(n, tables)
                signed = [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3)]
                clause = Clause3.from_signed(signed)
                got = merge(h, clause)
                with monkeypatch.context() as m:
                    m.setattr(descriptor, "_on_tables", lambda n: False)
                    got_poly = merge(h, clause)
                    m.setattr(descriptor, "_merge_clause", reference_merge_clause)
                    want = merge(h, clause)
                assert got == want and got_poly == want, (n, tables, signed)
                shortcut, _ = descriptor._merge_clause(list(tables), clause, n, 1 << n)
                shortcut_differs += shortcut != (None if got is None else list(got.tables))
                merges += 1
        assert shortcut_differs > merges // 2  # the fold's shortcut would be wrong here

    def test_gate_depends_only_on_n(self, monkeypatch):
        calls = []
        for name in ("_substitute_tables", "_substitute_polys"):
            substitute = getattr(descriptor, name)

            def spy(*args, _substitute=substitute, _name=name):
                calls.append((_name, args[1]))  # the pass receives n
                return _substitute(*args)

            monkeypatch.setattr(descriptor, name, spy)
        top = descriptor._TABLE_MERGE_MAX_LEVEL
        for n in (top, top + 1):
            result = build(sort_clauses(random_formula(n, 3, 1)))
            assert result.ok and len(result.trace.steps) == 3
        assert calls == [("_substitute_tables", top)] * 3 + [("_substitute_polys", top + 1)] * 3
        calls.clear()
        clause = Clause3.from_signed((1, -2, 3))
        assert merge(identity_descriptor(top), clause) == clause_descriptor(clause, top)
        assert merge(identity_descriptor(top + 1), clause) == clause_descriptor(clause, top + 1)
        assert calls == [("_substitute_tables", top), ("_substitute_polys", top + 1)]

    def test_small_cap_raises_alike_on_both_paths(self, monkeypatch):
        from anf_sat_lab.errors import ResourceCap

        def first_cap(sf, cap):
            current = identity_descriptor(sf.n)
            for clause in sf.clauses:
                try:
                    current = merge(current, clause, cap=cap)
                except ResourceCap as exc:
                    return exc.where, exc.size, str(exc), current
                if current is None:
                    return None

        hits = 0
        for seed in range(1, 7):
            sf = sort_clauses(random_formula(10, 43, seed))
            for cap in (2, 3, 5, 9):
                got = first_cap(sf, cap)
                with monkeypatch.context() as m:
                    m.setattr(descriptor, "_on_tables", lambda n: False)
                    m.setattr(descriptor, "_merge_clause", reference_merge_clause)
                    want = first_cap(sf, cap)
                    want_build = build(sf, cap=cap)
                assert got == want, (seed, cap)
                result = build(sf, cap=cap)
                assert result.capped_at == want_build.capped_at
                assert result.descriptor == want_build.descriptor
                if got is not None:
                    hits += 1
                    assert result.capped_at == (int(got[0]), got[1])
                    assert got[1] > cap
        assert hits > 12


@contextmanager
def on_polynomials(monkeypatch):
    """A context in which builds, merges and descriptor reads use polynomials only."""
    with monkeypatch.context() as m:
        m.setattr(descriptor, "_on_tables", lambda n: False)
        yield


@cache
def twin_pairs() -> tuple[tuple[Descriptor, Descriptor], ...]:
    """(table-backed, polynomial twin) descriptors over the grid and caps.

    The twin comes from the sparse fold, so it shares no table code.
    """
    pairs = []
    for sf in grid_formulas():
        for cap in (4, 16, descriptor.DEFAULT_LEN_CAP):
            h = build(sf, cap=cap).descriptor
            if h is not None:
                with mock.patch.object(descriptor, "_on_tables", lambda n: False), \
                        mock.patch.object(descriptor, "_merge_clause", reference_merge_clause):
                    pairs.append((h, build(sf, cap=cap).descriptor))
    return tuple(pairs)


class TestTableBackedDescriptor:
    """A descriptor built on tables behaves exactly as its polynomial twin."""

    def test_reads_match_polynomial_twin(self, monkeypatch):
        def reads(h):
            return (
                hash(h),
                repr(h),
                h.to_json(),
                h.image_indices(),
                # every alpha; n = 12, 13 alone would take longer than the rest
                [apply_mask(h, a << 1) for a in range(1 << h.n)] if h.n <= 11 else None,
                h == identity_descriptor(h.n),
            )

        pairs = 0
        for h, twin in twin_pairs():
            assert "tables" in vars(h)
            with on_polynomials(monkeypatch):
                want = reads(twin)
            if want[4] is not None:
                assert want[3] == {m >> 1 for m in want[4]}  # image read pointwise
            assert h == twin and twin == h
            assert reads(h) == want
            pairs += 1
        assert pairs > 150

    def test_search_matches_polynomial_twin(self, monkeypatch):
        def search(hs, **caps):
            stats = SearchStats()
            if len(hs) == 1:
                return list_solutions(hs[0], stats=stats, **caps), stats
            return intersect_images(hs, stats=stats, **caps), stats

        previous = {}
        for h, twin in twin_pairs():
            solutions = list_solutions(h).solutions
            assert list(solutions) == sorted(solutions)  # ascending, x_1 most significant
            other, other_twin = previous.get(h.n, (h, twin))
            for hs, twins in (([h], [twin]), ([h, other], [twin, other_twin])):
                for caps in (
                    {},
                    {"solution_cap": 1},
                    {"solution_cap": 3},
                    {"node_cap": 1},
                    {"node_cap": 3},
                    {"solution_cap": 3, "node_cap": 3},
                ):
                    with on_polynomials(monkeypatch):
                        want = search(twins, **caps)
                    assert search(hs, **caps) == want
            previous[h.n] = (h, twin)

    def test_entries_convert_on_first_use(self, monkeypatch):
        conversions = []
        real = AnfPoly.from_coefficient_column

        def counting(column):
            conversions.append(column)
            return real(column)

        monkeypatch.setattr(AnfPoly, "from_coefficient_column", counting)
        sf = sort_clauses(random_formula(10, 43, 3))
        h = build(sf).descriptor
        list_solutions(h)
        h.image_indices()
        assert h != identity_descriptor(10)
        assert conversions == []
        top = h.entry(10)
        assert len(conversions) == 1 and h.entry(10) is top
        assert h.to_json() == [p.to_text("a") for p in h.h]
        assert len(conversions) == sum(h.tables[i - 1] != var_columns(i)[i] for i in range(1, 11))

    def test_from_tables_validation(self):
        with pytest.raises(InvariantViolation):
            Descriptor.from_tables(2, (0b10,))
        with pytest.raises(InvariantViolation):
            Descriptor.from_tables(2, (0b10, 0b10000))  # 5 bits for a 4-bit table
        with pytest.raises(InvariantViolation):
            Descriptor.from_tables(1, (-1,))
        h = Descriptor.from_tables(2, (0b10, 0b1100))
        assert h == identity_descriptor(2)

    def test_frozen_copyable_picklable(self):
        h = build(sort_clauses(random_formula(6, 20, 1))).descriptor
        with pytest.raises(AttributeError):
            h.n = 3
        for poly_backed in (False, True):
            d = Descriptor(h.n, h.h) if poly_backed else h
            for other in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
                assert other == d and other.tables == d.tables


class TestTraceLookups:
    def test_profile_bytes_pinned(self):
        # sha256 of the profile CSV since the cascade adds dead prefixes to its residual
        result = build(sort_clauses(random_formula(10, 43, 1)))
        text = profile_csv(result.trace)
        assert len(text.splitlines()) == 57
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "34c84db5d76f1267e88a5d91dff76538c2bd6c9682f89801f026d3399de5bc85"
        )

    def test_predecessors_match_edge_scan(self):
        for seed in range(1, 16):
            trace = build(sort_clauses(random_formula(10, 43, seed))).trace
            for t in range(1, 11):
                seen, frontier = set(), [t]
                while frontier:
                    u = frontier.pop()
                    for a, b in trace.pred_edges:
                        if a == u and b not in seen:
                            seen.add(b)
                            frontier.append(b)
                assert trace.predecessors(t) == seen

    def test_static_sets_once_per_trace(self, monkeypatch):
        calls = []
        real = descriptor.static_sets

        def counting(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(descriptor, "static_sets", counting)
        trace = build(sort_clauses(random_formula(10, 43, 2))).trace
        profile_csv(trace)
        for t in range(1, 11):
            trace.w(t)
        assert len(calls) == 1


def trace_record(status, capped_at, trace):
    """Every MergeStep field, the predecessor edges, the status and the cap hit."""
    lines = [f"{status} {capped_at}"]
    lines += [repr(astuple(step)) for step in trace.steps]
    lines.append(repr(sorted(trace.pred_edges)))
    return "\n".join(lines) + "\n"


def full_pass(entries, n):
    """The entries after one more substitution pass that applies every pair (i, j)."""
    again = list(entries)
    tables = descriptor._on_tables(n)
    substitute = descriptor._substitute_tables if tables else descriptor._substitute_polys
    substitute(again, n, descriptor.DEFAULT_LEN_CAP, range(1, n + 1))
    return again


class TestTracePinned:
    """Traces pinned by digest, so a fault shared by both folds still shows."""

    def test_build_traces_pinned(self):
        # Every state is non-negating and composed: one more full pass changes nothing
        # (h_j reads its prefix only through the lower entries, so H o H = H).
        text, statuses = [], set()
        for n in range(4, 13):
            for ratio in (2.5, 4.26, 6):
                for seed in (1, 2, 3):
                    sf = sort_clauses(random_formula(n, round(ratio * n), seed))
                    for cap in (4, descriptor.DEFAULT_LEN_CAP):
                        result = build(sf, cap=cap)
                        statuses.add(result.status)
                        text.append(trace_record(result.status, result.capped_at, result.trace))
                        for entries in filter(None, result.states):
                            assert not any(negates(t, l) for l, t in enumerate(entries, start=1))
                            assert full_pass(entries, n) == entries
        assert statuses == {"ok", "unsat", "capped"}
        sparse = build(sort_clauses(random_formula(21, 14, 1)))  # above the table gate
        assert sparse.ok and any(step.chain for step in sparse.trace.steps)
        assert all(full_pass(entries, 21) == entries for entries in sparse.states)
        text.append(trace_record(sparse.status, sparse.capped_at, sparse.trace))
        assert hashlib.sha256("".join(text).encode()).hexdigest() == (
            "22eec2b36ecc74c97ca4cfe2a2ecdb08cae6813a5049fbf865c4f863a25366ca"
        )

    def test_sparse_builds_pinned(self):
        # Above the table gate every step runs the sparse sweep, its t-entry included.
        text, cascades = [], 0
        for n in (21, 24, 28, 32):
            for m in (3, 10, 15):
                for seed in (1, 2):
                    result = build(sort_clauses(random_formula(n, m, seed)))
                    assert result.ok, (n, m, seed)
                    cascades += sum(bool(step.chain) for step in result.trace.steps)
                    text.append(json.dumps(result.descriptor.to_json()) + "\n")
                    text.append(trace_record(result.status, result.capped_at, result.trace))
        assert cascades == 37
        assert hashlib.sha256("".join(text).encode()).hexdigest() == (
            "e5111ab00e72c55afdf72327e964194e726b17d6614c8e2484208274ffca993a"
        )

    def test_capped_sparse_builds_pinned(self):
        # Above the table gate a capped build keeps the entries before the step that hit the cap.
        text, statuses = [], []
        for n in (21, 24):
            for m in (10, 15):
                for seed in (1, 2):
                    for cap in (4, 16, 64):
                        result = build(sort_clauses(random_formula(n, m, seed)), cap=cap)
                        statuses.append(result.status)
                        text.append(json.dumps(result.descriptor.to_json()) + "\n")
                        text.append(trace_record(result.status, result.capped_at, result.trace))
        assert (statuses.count("capped"), statuses.count("ok")) == (22, 2)
        assert hashlib.sha256("".join(text).encode()).hexdigest() == (
            "0248c25bbccdb637d0688ceb1c48e8bf827f84d85492d922b3ed4c88e20c82da"
        )

    def test_merge_chain_to_unsat_pinned(self):
        result = build(sort_clauses(random_formula(8, 60, 2)))
        trace = result.trace
        assert result.unsat and trace.steps[-1].unsat
        assert {step.situation for step in trace.steps} == {"A", "B", "C"}
        assert hashlib.sha256(trace_record("unsat", None, trace).encode()).hexdigest() == (
            "baee9bd2f6337feee74241a82a48985994a7ffa48e92f40f53a35855485a4d17"
        )


class TestTraceBooks:
    """A build's trace numbers its steps and measures their lengths when it is read."""

    def test_build_numbers_steps_by_position(self):
        statuses = set()
        for n, m, cap in ((8, 20, 4), (8, 60, descriptor.DEFAULT_LEN_CAP), (21, 14, 1 << 20)):
            result = build(sort_clauses(random_formula(n, m, 1)), cap=cap)
            statuses.add(result.status)
            for pos, step in enumerate(result.trace.steps, start=1):
                assert step.step == step.clause_index == pos
        assert statuses == {"ok", "unsat", "capped"}

    def test_fresh_build_measures_no_identity_entry(self, monkeypatch):
        measured = []
        real = descriptor._table_len

        def spy(table, l):
            measured.append(table == var_columns(l)[l])
            return real(table, l)

        monkeypatch.setattr(descriptor, "_table_len", spy)
        result = build(sort_clauses(random_formula(10, 43, 1)))
        assert result.trace.steps and measured and not any(measured)

    def test_build_measures_nothing_until_its_trace_is_read(self, monkeypatch):
        calls = []
        real = descriptor._entry_len

        def spy(entry, l):
            calls.append(l)
            return real(entry, l)

        monkeypatch.setattr(descriptor, "_entry_len", spy)
        result = build(sort_clauses(random_formula(10, 43, 1)))
        assert result.ok and calls == []
        assert len(result.trace.steps) == 43 and calls
