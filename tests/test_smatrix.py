import hashlib
import json
import random
from itertools import product

import pytest

from anf_sat_lab import descriptor
from anf_sat_lab.cnf import parse_dimacs
from anf_sat_lab.descriptor import Descriptor, identity_descriptor
from anf_sat_lab.anf import AnfPoly
from anf_sat_lab.errors import EmptySet, TooLarge, VarOutOfRange
from anf_sat_lab.oracle import brute_solutions
from anf_sat_lab.smatrix import NEUTRAL, SMatrix, descriptor_from_smatrix, image
from anf_sat_lab.solutions import list_solutions

from golden import ONE_CLAUSE, TWO_CLAUSE
from helpers import descriptor_image_masks, random_smatrix

N = NEUTRAL


def rows_of(matrix):
    return [tuple(r) for r in matrix.rows]


class TestExtend:
    def test_inserts_neutral_column(self):
        a = SMatrix((1, 2, 4), ((0, 1, 0), (1, 1, 1)))
        ext = a.extend((1, 2, 3, 4))
        assert ext.support == (1, 2, 3, 4)
        assert rows_of(ext) == [(0, 1, N, 0), (1, 1, N, 1)]

    def test_extend_to_own_support(self):
        a = SMatrix((1, 2), ((0, N),))
        assert a.extend((1, 2)) == a

    def test_row_count_unchanged(self):
        rng = random.Random(0)
        for _ in range(20):
            a = random_smatrix(rng, 3)
            ext = a.extend((1, 2, 3, 4, 5))
            assert len(ext.rows) == len(a.rows)

    def test_set_preserved(self):
        a = SMatrix((1, 3), ((0, 1),))
        ext = a.extend((1, 2, 3))
        assert ext.assignments() == {(0, 0, 1), (0, 1, 1)}


class TestCanonicalize:
    def test_absorbs_covered_row(self):
        a = SMatrix((1, 2), ((0, N), (0, 1)))
        assert rows_of(a.canonicalize()) == [(0, N)]

    def test_already_canonical(self):
        a = SMatrix((1, 2), ((0, N), (1, 0)))
        assert a.canonicalize() == a

    def test_interior_neutral_splits(self):
        a = SMatrix((1, 2), ((N, 0), (1, 1)))
        assert rows_of(a.canonicalize()) == [(0, 0), (1, 0), (1, 1)]

    def test_full_matrix_stays_single_row(self):
        assert rows_of(SMatrix.full((1, 2, 3)).canonicalize()) == [(N, N, N)]

    def test_idempotent_and_set_preserving(self):
        rng = random.Random(1)
        for _ in range(200):
            a = random_smatrix(rng, rng.randrange(1, 5))
            c = a.canonicalize()
            assert c.assignments() == a.assignments()
            assert c.canonicalize() == c

    def test_rows_disjoint_and_sorted(self):
        rng = random.Random(2)
        for _ in range(100):
            a = random_smatrix(rng, 4).canonicalize()
            covered = []
            for row in a.rows:
                free = [i for i, c in enumerate(row) if c == N]
                cells = list(row)
                cover = set()
                for values in product((0, 1), repeat=len(free)):
                    for i, v in zip(free, values):
                        cells[i] = v
                    cover.add(tuple(cells))
                covered.append(cover)
            for i in range(len(covered)):
                for j in range(i + 1, len(covered)):
                    assert not (covered[i] & covered[j])
            mins = [min(c) for c in covered]
            assert mins == sorted(mins)


class TestJoinMeet:
    def _paper_meet_case(self):
        a = SMatrix.from_assignments(
            (1, 2, 3),
            [b for b in product((0, 1), repeat=3) if b != (0, 0, 1)],
        )
        b = SMatrix.from_assignments(
            (2, 3, 4),
            [b for b in product((0, 1), repeat=3) if b != (1, 0, 1)],
        )
        return a, b

    def test_meet_of_two_clauses_is_twelve_rows(self):
        a, b = self._paper_meet_case()
        met = a.meet(b)
        assert met.support == (1, 2, 3, 4)
        assert len(met.rows) == 12
        want = brute_solutions(parse_dimacs(TWO_CLAUSE))
        assert met.assignments() == set(want.solutions)

    def test_bound_laws(self):
        rng = random.Random(3)
        for _ in range(50):
            a = random_smatrix(rng, 3)
            omega = SMatrix.full((1, 2, 3))
            empty = SMatrix.empty((1, 2, 3))
            assert a.meet(omega).same_set(a)
            assert a.join(omega).same_set(omega)
            assert a.meet(empty).same_set(empty)
            assert a.join(empty).same_set(a)

    def test_join_idempotent_canonical(self):
        a = SMatrix((1, 2), ((0, N), (1, 1))).canonicalize()
        assert a.join(a) == a

    def test_lattice_laws_seeded(self):
        # associativity, commutativity, idempotence, absorption,
        # distributivity -- all by set expansion
        rng = random.Random(4)
        for _ in range(120):
            n = rng.randrange(2, 5)
            a, b, c = (random_smatrix(rng, n) for _ in range(3))
            sa, sb, sc = a.assignments(), b.assignments(), c.assignments()
            assert a.join(b).assignments() == sa | sb
            assert a.meet(b).assignments() == sa & sb
            assert a.join(b).join(c).assignments() == sa | sb | sc
            assert a.meet(b).meet(c).assignments() == sa & (sb & sc)
            assert a.join(b).same_set(b.join(a))
            assert a.meet(b).same_set(b.meet(a))
            assert a.join(a).same_set(a)
            assert a.meet(a).same_set(a)
            assert a.join(a.meet(b)).same_set(a)
            assert a.meet(a.join(b)).same_set(a)
            assert a.meet(b.join(c)).same_set(a.meet(b).join(a.meet(c)))

    def test_auto_extension_on_disjoint_supports(self):
        a = SMatrix((1,), ((0,),))
        b = SMatrix((2,), ((1,),))
        met = a.meet(b)
        assert met.support == (1, 2)
        assert met.assignments() == {(0, 1)}


class TestDescriptorFromSMatrix:
    def test_single_clause_matrix(self):
        matrix = SMatrix.from_assignments(
            (1, 2, 3),
            [b for b in product((0, 1), repeat=3) if b != (1, 1, 1)],
        )
        h = descriptor_from_smatrix(matrix)
        assert h.h == (
            AnfPoly.var(1),
            AnfPoly.var(2),
            AnfPoly.parse("a1*a2*a3 + a3"),
        )

    def test_single_row_constant(self):
        matrix = SMatrix.from_assignments((1, 2, 3), [(1, 0, 1)])
        h = descriptor_from_smatrix(matrix)
        assert h.h == (AnfPoly.one(), AnfPoly.zero(), AnfPoly.one())

    def test_full_matrix_identity(self):
        matrix = SMatrix.from_assignments((1, 2, 3), product((0, 1), repeat=3))
        assert descriptor_from_smatrix(matrix) == identity_descriptor(3)

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            descriptor_from_smatrix(SMatrix.empty((1, 2)))

    def test_round_trip_exhaustive_small(self):
        # every nonempty subset of {0,1}^3 and a seeded sample at n=8
        for bits in range(1, 256):
            points = [
                tuple((a >> i) & 1 for i in range(2, -1, -1))
                for a in range(8)
                if (bits >> a) & 1
            ]
            matrix = SMatrix.from_assignments((1, 2, 3), points)
            h = descriptor_from_smatrix(matrix)
            assert image(h).assignments() == matrix.assignments()

    def test_round_trip_seeded_n8(self):
        rng = random.Random(5)
        for _ in range(20):
            points = {
                tuple(rng.randrange(2) for _ in range(8))
                for _ in range(rng.randrange(1, 40))
            }
            matrix = SMatrix.from_assignments(tuple(range(1, 9)), points)
            h = descriptor_from_smatrix(matrix)
            assert descriptor_image_masks(h) == {
                sum(1 << (i + 1) for i, b in enumerate(p) if b) for p in points
            }

    @staticmethod
    def _grid():
        """60 seeded matrices per n = 1..9, neutral cells and empty ones included."""
        for n in range(1, 10):
            rng = random.Random(n)
            for _ in range(60):
                yield random_smatrix(rng, n)

    @pytest.fixture(params=["tables", "polys"])
    def gate(self, request, monkeypatch):
        """Run once on tables and once with the table gate closed (polynomials)."""
        if request.param == "polys":
            monkeypatch.setattr(descriptor, "_on_tables", lambda n: False)
        return request.param

    def test_grid_pinned(self, gate):
        # sha256 taken before descriptor_from_smatrix moved onto tables
        digest = hashlib.sha256()
        for matrix in self._grid():
            if matrix.is_empty:
                digest.update(b"empty\n")
                continue
            h = descriptor_from_smatrix(matrix)
            digest.update(json.dumps(h.to_json()).encode() + b"\n")
        assert digest.hexdigest() == "5bbba4758c8ea4ca17c6b36ecfa4047f534d007f75333ff7b9fef1eeb0d6753c"

    def test_fixed_points_are_the_matrix_set(self, gate):
        for matrix in self._grid():
            if not matrix.is_empty:
                h = descriptor_from_smatrix(matrix)
                assert list_solutions(h).solutions == tuple(sorted(matrix.assignments()))

    def test_wide_sparse_matrix(self):
        # 40 columns: 2**40-bit tables could not be built, polynomials stay small
        n = 40
        points = [tuple(i % 2 for i in range(n)), tuple(i % 3 == 0 for i in range(n))]
        matrix = SMatrix.from_assignments(tuple(range(1, n + 1)), [tuple(map(int, p)) for p in points])
        h = descriptor_from_smatrix(matrix)
        assert not h.on_tables
        assert list_solutions(h).solutions == tuple(sorted(matrix.assignments()))


class TestImage:
    def test_one_clause_image(self):
        f = parse_dimacs(ONE_CLAUSE)
        h = Descriptor(
            3, (AnfPoly.var(1), AnfPoly.var(2), AnfPoly.parse("a1*a2*a3 + a3"))
        )
        assert image(h).assignments() == set(brute_solutions(f).solutions)

    def test_constant_descriptor_single_row(self):
        h = Descriptor(2, (AnfPoly.one(), AnfPoly.zero()))
        assert rows_of(image(h)) == [(1, 0)]

    def test_too_large(self):
        with pytest.raises(TooLarge):
            image(identity_descriptor(26))


class TestTextJson:
    def test_text_roundtrip(self):
        a = SMatrix((1, 2, 4), ((0, N, 1), (1, 1, N)))
        assert SMatrix.parse_text(a.to_text()) == a

    def test_json_roundtrip(self):
        a = SMatrix((2, 3), ((N, 0),))
        assert SMatrix.from_json(a.to_json()) == a

    @pytest.mark.parametrize(
        "text", ["x1 x2\n0 z\n", "x1 x2\n0 1\n1 2\n", "y1 x2\n0 1\n", "x x2\n", "x-1 x2\n0 1\n", "x0 x1\n", "xa1 x2\n", "ax3\n", "x+2\n", "x1_0\n"]
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(VarOutOfRange):
            SMatrix.parse_text(text)

    @pytest.mark.parametrize(
        "data",
        [{"support": [1, 2], "rows": ["0z"]}, {"support": [1, 2], "rows": [[0, 1]]}, {"support": [0, 1], "rows": []},
         {"support": ["1"], "rows": []}, {"support": [1.0], "rows": []}, {"support": [True], "rows": []}],
    )
    def test_malformed_json_rejected(self, data):
        with pytest.raises(VarOutOfRange):
            SMatrix.from_json(data)

    @pytest.mark.parametrize("support", [(0, 1), (-2,), (-1, 3)])
    def test_variables_start_at_one(self, support):
        with pytest.raises(VarOutOfRange):
            SMatrix(support, ())


def test_image_enumerator_shared_with_falsifier():
    # smatrix.image and the MERGE_SOUNDNESS check both read
    # Descriptor.image_indices; both agree with pointwise evaluation
    from anf_sat_lab.cnf import sort_clauses
    from anf_sat_lab.descriptor import build
    from anf_sat_lab.falsify import check_claim
    from anf_sat_lab.oracle import random_formula

    exact = inexact = 0
    for seed in range(1, 25):
        f = random_formula(8, 30, seed)
        result = build(sort_clauses(f))
        if not result.ok:
            continue
        h = result.descriptor
        indices = h.image_indices()
        from_matrix = {
            sum(bit << i for i, bit in enumerate(row)) for row in image(h).assignments()
        }
        assert indices == from_matrix == {m >> 1 for m in descriptor_image_masks(h)}
        solutions = {m >> 1 for m in brute_solutions(f).masks()}
        assert (check_claim("MERGE_SOUNDNESS", f) is None) == (indices == solutions)
        exact += indices == solutions
        inexact += indices != solutions
    assert exact and inexact  # the corpus exercises both outcomes
