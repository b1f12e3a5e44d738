import random

import pytest

from anf_sat_lab.anf import AnfPoly
from anf_sat_lab.cnf import parse_dimacs, sort_clauses
from anf_sat_lab.descriptor import (
    Descriptor,
    build,
    clause_descriptor,
    identity_descriptor,
)
from anf_sat_lab.errors import InvariantViolation
from anf_sat_lab.oracle import random_formula
from anf_sat_lab.solutions import (
    SearchStats,
    SolutionSet,
    count_solutions,
    intersect_images,
    list_solutions,
)

from golden import ONE_CLAUSE, TWO_CLAUSE
from helpers import descriptor_fixed_points, solution_masks


class TestListSolutions:
    def test_one_clause(self):
        result = build(sort_clauses(parse_dimacs(ONE_CLAUSE)))
        sols = list_solutions(result.descriptor)
        assert sols.sigma == 7
        assert (1, 1, 1) not in sols.solutions

    def test_figure_tree_shape(self):
        # a descriptor whose live branches are exactly 000, 001, 011
        h = Descriptor(
            3,
            (
                AnfPoly.zero(),  # x1 must be 0
                AnfPoly.var(2),  # both branches live
                AnfPoly.parse("a2 + a2*a3 + a3"),  # 0 under a2=0 else 1
            ),
        )
        sols = list_solutions(h)
        assert sols.solutions == ((0, 0, 0), (0, 0, 1), (0, 1, 1))

    def test_constant_descriptor(self):
        h = Descriptor(3, (AnfPoly.one(), AnfPoly.zero(), AnfPoly.one()))
        sols = list_solutions(h)
        assert sols.solutions == ((1, 0, 1),)

    def test_fixed_points_exhaustive(self):
        # list_solutions(h) = {x : H(x) = x}, for arbitrary triangular
        # descriptors, independent of any soundness claims
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randrange(2, 7)
            entries = []
            for i in range(1, n + 1):
                masks = [
                    rng.randrange(1 << i) << 1 & (((1 << (i + 1)) - 1))
                    for _ in range(rng.randrange(4))
                ]
                masks = [m & (((1 << (i + 1)) - 2)) for m in masks]
                entries.append(AnfPoly(masks))
            h = Descriptor(n, tuple(entries))
            assert list_solutions(h).masks() == descriptor_fixed_points(h)

    def test_ascending_binary_order(self):
        result = build(sort_clauses(parse_dimacs(TWO_CLAUSE)))
        sols = list_solutions(result.descriptor)
        assert list(sols.solutions) == sorted(sols.solutions)

    def test_solution_cap(self):
        h = identity_descriptor(5)
        stats = SearchStats()
        sols = list_solutions(h, solution_cap=10, stats=stats)
        assert sols.truncated and sols.sigma == 10
        assert stats.hit_solution_cap

    def test_node_cap(self):
        h = identity_descriptor(10)
        stats = SearchStats()
        sols = list_solutions(h, node_cap=50, stats=stats)
        assert sols.truncated
        assert stats.hit_node_cap

    def test_node_accounting_reported(self):
        result = build(sort_clauses(parse_dimacs(ONE_CLAUSE)))
        stats = SearchStats()
        sols = list_solutions(result.descriptor, stats=stats)
        # monitored metric only: visited nodes vs the 2 n sigma guide
        assert stats.nodes > 0
        assert sols.sigma == 7

    def test_count(self):
        result = build(sort_clauses(parse_dimacs(TWO_CLAUSE)))
        assert count_solutions(result.descriptor) == 12


class TestIntersect:
    def test_pair_of_clause_descriptors(self):
        f = parse_dimacs(TWO_CLAUSE)
        hs = [clause_descriptor(cl, 4) for cl in f.clauses]
        sols = intersect_images(hs)
        assert sols.masks() == solution_masks(f)
        assert sols.sigma == 12

    def test_self_intersection(self):
        result = build(sort_clauses(parse_dimacs(ONE_CLAUSE)))
        h = result.descriptor
        assert intersect_images([h, h]).solutions == list_solutions(h).solutions

    def test_with_identity(self):
        result = build(sort_clauses(parse_dimacs(ONE_CLAUSE)))
        h = result.descriptor
        sols = intersect_images([h, identity_descriptor(3)])
        assert sols.solutions == list_solutions(h).solutions

    def test_matches_set_intersection_seeded(self):
        rng = random.Random(22)
        for _ in range(30):
            n = rng.randrange(3, 8)
            f1 = random_formula(n, rng.randrange(1, 4), rng.randrange(10**6))
            f2 = random_formula(n, rng.randrange(1, 4), rng.randrange(10**6))
            hs = [clause_descriptor(cl, n) for cl in f1.clauses + f2.clauses]
            got = intersect_images(hs).masks()
            want = frozenset.intersection(
                *[list_solutions(h).masks() for h in hs]
            )
            assert got == want

    def test_size_mismatch_rejected(self):
        with pytest.raises(InvariantViolation):
            intersect_images([identity_descriptor(3), identity_descriptor(4)])

    def test_empty_input_rejected(self):
        with pytest.raises(InvariantViolation):
            intersect_images([])


class TestSerialization:
    def test_v_lines(self):
        s = SolutionSet(n=3, solutions=((1, 0, 1),))
        assert s.to_dimacs_v_lines() == "v 1 -2 3 0\n"

    def test_v_line_without_variables(self):
        assert SolutionSet(n=0, solutions=((),)).to_dimacs_v_lines() == "v 0\n"

    def test_json(self):
        s = SolutionSet(n=2, solutions=((0, 1), (1, 0)))
        assert s.to_json() == [[0, 1], [1, 0]]

    def test_from_masks_sorted(self):
        s = SolutionSet.from_masks(2, [0b110, 0b010])
        assert s.solutions == ((1, 0), (1, 1))
