import hashlib
import json
import random
from itertools import combinations

import pytest

from anf_sat_lab import coeffs
from anf_sat_lab.anf import AnfPoly, IntPoly
from anf_sat_lab.cnf import (
    Formula,
    parse_dimacs,
    relabel_by_frequency,
    sort_clauses,
)
from anf_sat_lab.coeffs import (
    DEFAULT_FRONTIER_CAP,
    CoefficientQuery,
    clause_coeffs,
    decide_sat_bounded,
    sweep,
)
from anf_sat_lab.errors import ResourceCap
from anf_sat_lab.indicator import (
    factor_sequence,
    indicator_from_clauses,
    indicator_from_factors,
)
from anf_sat_lab.oracle import brute_count, expand_product, random_formula

from golden import (
    EIGHT_CLAUSE,
    SIX_VAR,
    SIX_VAR_COMPUTED_TOP,
    SIX_VAR_REMOVED_CLAUSE,
)
from helpers import ReferenceCoefficientQuery, random_instance


def P(text):
    return AnfPoly.parse(text)


def full_mask(n):
    return ((1 << (n + 1)) - 1) & ~1


def window_factors(n):
    """All-ones factors over 3-windows {i-2, i-1, i}; units at levels 1, 2."""
    factors = [AnfPoly.one(), AnfPoly.one()]
    for i in range(3, n + 1):
        masks = []
        for sub in range(8):
            mask = 0
            for off, v in enumerate((i - 2, i - 1, i)):
                if (sub >> off) & 1:
                    mask |= 1 << v
            masks.append(mask)
        factors.append(AnfPoly(masks))
    return factors


class TestClauseCoeffs:
    def test_window_factor_has_eight(self):
        g = window_factors(5)[4]  # level 5 factor
        assert clause_coeffs(g) == {m: 1 for m in g.masks}
        assert len(clause_coeffs(g)) == 8

    def test_unit_factor(self):
        assert clause_coeffs(AnfPoly.one()) == {0: 1}

    def test_int_factor(self):
        g = IntPoly.parse("1 + x1 + 3*x1*x2 + 7*x1*x2*x3")
        assert clause_coeffs(g) == {0: 1, 0b10: 1, 0b110: 3, 0b1110: 7}


class TestCoefficientRecursion:
    def test_windowed_top_is_one(self):
        for n in range(5, 10):
            q = CoefficientQuery(window_factors(n), "gf2")
            assert q.coefficient(full_mask(n)) == 1, f"n={n}"

    def test_two_factor_identity(self):
        # C[1:2]_(1,1) = c2_(0,1) c1_(1) + c2_(1,1) (c1_(0) + c1_(1))
        rng = random.Random(41)
        for _ in range(50):
            g1 = IntPoly({0: rng.randrange(5), 0b10: rng.randrange(5)})
            g2 = IntPoly(
                {
                    0: rng.randrange(5),
                    0b10: rng.randrange(5),
                    0b100: rng.randrange(5),
                    0b110: rng.randrange(5),
                }
            )
            q = CoefficientQuery([g1, g2], "int")
            got = q.coefficient(0b110)
            c = g2.coeffs
            want = c.get(0b100, 0) * g1.coefficient(0b10) + c.get(0b110, 0) * (
                g1.coefficient(0) + g1.coefficient(0b10)
            )
            assert got == want

    def test_matches_expansion_all_masks(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randrange(3, 8)
            f = random_instance(rng, n, 4 * n)
            fs = factor_sequence(sort_clauses(f))
            expanded = expand_product([fs.g(t) for t in range(1, n + 1)], "gf2")
            expanded_int = expand_product([fs.g(t, "int") for t in range(1, n + 1)], "int")
            q2 = CoefficientQuery.from_factor_sequence(fs, "gf2")
            qi = CoefficientQuery.from_factor_sequence(fs, "int")
            for mask_low in range(1 << n):
                mask = mask_low << 1
                want_int = expanded_int.coefficient(mask)
                assert qi.coefficient(mask) == want_int
                assert q2.coefficient(mask) == (
                    1 if mask in expanded.masks else 0
                )
                assert q2.coefficient(mask) == want_int % 2

    def test_rejects_bit_zero(self):
        q = CoefficientQuery(window_factors(5))
        with pytest.raises(ValueError):
            q.coefficient(0b1)

    @pytest.mark.parametrize("mask", [-2, -1, -(1 << 40)])
    def test_rejects_negative_mask(self, mask):
        q = CoefficientQuery(window_factors(5))
        with pytest.raises(ValueError, match="negative"):
            q.coefficient(mask)

    def test_frontier_cap(self):
        f = random_formula(12, 51, 7)
        fs = factor_sequence(sort_clauses(f))
        q = CoefficientQuery.from_factor_sequence(fs, "gf2", frontier_cap=3)
        with pytest.raises(ResourceCap):
            q.coefficient(full_mask(12))

    def test_work_counters(self):
        q = CoefficientQuery(window_factors(6))
        q.coefficient(full_mask(6))
        assert q.queries == 1
        assert q.max_frontier() >= 1
        assert len(q.frontier_sizes()) == 7


def outcomes(q, n):
    """Each query's coefficient or cap exception, every mask with <= 2 zeros."""
    full = full_mask(n)
    out = []
    for zeros in range(3):
        for positions in combinations(range(1, n + 1), zeros):
            mask = full & ~sum(1 << v for v in positions)
            try:
                out.append(q.coefficient(mask))
            except ResourceCap as exc:
                out.append((str(exc), exc.where, exc.size))
    return out


class TestReferenceRecursion:
    """The engine against the plain recursion in ``helpers``.

    Memo dicts and their insertion order are part of the output (they are
    the ``frontier_sizes`` work counters and decide where a frontier cap
    fires), so the two must agree exactly, not only on coefficients.
    """

    @pytest.fixture(params=["dense", "dict", "demand"])
    def gate(self, request, monkeypatch):
        """Read every level through a list from its first write, never, or
        once its memo is dense enough (the default)."""
        shares = {"dense": 64, "dict": -64}
        if request.param in shares:
            monkeypatch.setattr(coeffs, "_DENSE_SHARE_LOG", shares[request.param])
        return request.param

    def test_memo_order_counters_and_caps_match_reference(self, gate):
        caps_seen = 0
        for n in range(4, 13):
            for ratio in (2.5, 4.26):
                for seed in (1, 2, 3):
                    f = random_formula(n, round(ratio * n), seed)
                    fs = factor_sequence(sort_clauses(relabel_by_frequency(f)[0]))
                    for mode in ("gf2", "int"):
                        factors = [fs.g(t, mode) for t in range(1, n + 1)]
                        for cap in (3, 40, DEFAULT_FRONTIER_CAP):
                            where = (n, ratio, seed, mode, cap)
                            q = CoefficientQuery(factors, mode, frontier_cap=cap)
                            ref = ReferenceCoefficientQuery(
                                factors, mode, frontier_cap=cap
                            )
                            got = outcomes(q, n)
                            assert got == outcomes(ref, n), where
                            assert q.queries == ref.queries, where
                            for level in range(n + 1):
                                assert list(q._memo[level].items()) == list(
                                    ref._memo[level].items()
                                ), (where, level)
                            caps_seen += any(isinstance(o, tuple) for o in got)
        assert caps_seen > 0

    @pytest.mark.parametrize("n", [22, 24])
    def test_wide_levels_read_the_memo_until_dense(self, n):
        """n clauses over n variables: the memo matches the reference, and
        after every query exactly the levels whose memo holds a quarter of
        their 2**i masks are also kept as lists."""
        fs = factor_sequence(sort_clauses(relabel_by_frequency(random_formula(n, n, 1))[0]))
        factors = [fs.g(t) for t in range(1, n + 1)]
        q = CoefficientQuery(factors)
        ref = ReferenceCoefficientQuery(factors, frontier_cap=DEFAULT_FRONTIER_CAP)
        levels = range(1, n + 1)
        for zeros in range(3):
            for positions in combinations(range(1, n + 1), zeros):
                mask = full_mask(n) & ~sum(1 << v for v in positions)
                assert q.coefficient(mask) == ref.coefficient(mask)
                listed = [q._reads[i] is not q._memo[i] for i in levels]
                assert listed == [
                    len(q._memo[i]) << coeffs._DENSE_SHARE_LOG >= 1 << i for i in levels
                ], mask
        for level in range(n + 1):
            assert list(q._memo[level].items()) == list(ref._memo[level].items())
        assert 0 < sum(listed) < n


class TestOrderInvariance:
    """The work of a query depends on the factors' monomials, not on the order
    their sets or dicts iterate in, which follows how a factor was built."""

    @staticmethod
    def shuffled(g, rng):
        """``g`` rebuilt from its monomials in a shuffled order."""
        if isinstance(g, IntPoly):
            items = list(g.coeffs.items())
            rng.shuffle(items)
            return IntPoly(dict(items))
        masks = list(g)
        rng.shuffle(masks)
        return AnfPoly(masks)

    @pytest.mark.parametrize("n", [*range(6, 15), 21, 24])
    def test_shuffled_factors_give_the_same_work(self, n):
        """n = 21 and 24: one-sided entries above level 16 come from the sparse fold."""
        rng = random.Random(n)
        reordered = 0
        for seed in (1, 2, 3) if n <= 14 else (1,):
            f = random_formula(n, round(4.26 * n), seed)
            fs = factor_sequence(sort_clauses(relabel_by_frequency(f)[0]))
            for mode in ("gf2", "int"):
                factors = [fs.g(t, mode) for t in range(1, n + 1)]
                shuffled = [self.shuffled(g, rng) for g in factors]
                reordered += sum(  # lifting keeps a set's iteration order
                    list(IntPoly.coerce(a).coeffs) != list(IntPoly.coerce(b).coeffs)
                    for a, b in zip(factors, shuffled)
                )
                for cap in (3, 40):
                    runs = []
                    for fac in (factors, shuffled):
                        q = CoefficientQuery(fac, mode, frontier_cap=cap)
                        runs.append((outcomes(q, n), q.queries, q.frontier_sizes()))
                    assert runs[0] == runs[1], (seed, mode, cap)
        assert reordered > 0


class TestDecidePinned:
    def test_grid_pinned(self):
        # sha256 taken once each level walked its monomials in ascending mask order
        digest = hashlib.sha256()
        for n in range(4, 15):
            for seed in (1, 2, 3):
                f = random_formula(n, round(4.26 * n), seed)
                for k in range(4):
                    for mode in ("gf2", "int"):
                        for cap in (3, 40, DEFAULT_FRONTIER_CAP):
                            data = decide_sat_bounded(
                                f, k, mode, frontier_cap=cap
                            ).to_json()
                            digest.update(
                                json.dumps(data, sort_keys=True).encode() + b"\n"
                            )
        assert digest.hexdigest() == (
            "424a04bd0ff2146de05f2d8f83d1f3b13cd5a594c87bb025391faf4fbd1a766c"
        )


class TestSweep:
    def test_six_var_k0_unsat(self):
        fs = factor_sequence(sort_clauses(parse_dimacs(SIX_VAR)))
        verdict = sweep(fs, 0, "gf2")
        assert not verdict.satisfiable
        assert verdict.witness_mask is None
        # integer mode agrees and sees the computed even top coefficient
        assert not sweep(fs, 0, "int").satisfiable
        top = CoefficientQuery.from_factor_sequence(fs, "int").coefficient(full_mask(6))
        assert top == SIX_VAR_COMPUTED_TOP

    def test_six_var_prime_k0_sat(self):
        f = parse_dimacs(SIX_VAR)
        clauses = list(f.clauses)
        del clauses[SIX_VAR_REMOVED_CLAUSE - 1]
        fs = factor_sequence(sort_clauses(Formula(n=6, clauses=tuple(clauses))))
        verdict = sweep(fs, 0, "gf2")
        assert verdict.satisfiable
        assert verdict.witness_mask == full_mask(6)
        int_verdict = sweep(fs, 0, "int")
        assert int_verdict.satisfiable

    def test_two_solution_instance_k1(self):
        # forbid six of eight assignments, keeping (1,1,0) and (1,1,1); the
        # pair differs in coordinate 3, so the witness has one zero there
        text = (
            "p cnf 3 6\n"
            "1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n-1 2 3 0\n-1 2 -3 0\n"
        )
        f = parse_dimacs(text)
        assert brute_count(f) == 2
        fs = factor_sequence(sort_clauses(f))
        assert not sweep(fs, 0, "gf2").satisfiable  # pair cancels at grade n
        verdict = sweep(fs, 1, "gf2")
        assert verdict.satisfiable
        assert verdict.witness_mask == (1 << 1) | (1 << 2)  # delta = (1,1,0)

    def test_mask_order_grade_then_lex(self):
        # the first mask with a nonzero coefficient in the stated order wins;
        # check the order generator by inspecting queried grades
        fs = factor_sequence(sort_clauses(parse_dimacs(EIGHT_CLAUSE)))
        verdict = sweep(fs, 3, "gf2")
        assert not verdict.satisfiable  # unsatisfiable instance, all zeros
        # all-ones, then C(3,1) + C(3,2) + C(3,3) masks below it
        assert verdict.queries == 1 + 3 + 3 + 1

    def test_verdict_equals_expansion_ground_truth(self):
        # sweep verdict == "some odd coefficient with at most k zeros exists
        # in the fully expanded product" (the expansion is the ground truth)
        rng = random.Random(44)
        for _ in range(25):
            n = rng.randrange(3, 7)
            f = random_instance(rng, n, 4 * n)
            fs = factor_sequence(sort_clauses(f))
            expanded = expand_product([fs.g(t) for t in range(1, n + 1)], "gf2")
            for k in (0, 1, 2):
                want = any(
                    bin(m).count("1") >= n - k for m in expanded.masks
                )
                got = sweep(fs, k, "gf2").satisfiable
                assert got == want, (f.clauses, k)

    def test_parity_agreement_seeded(self):
        rng = random.Random(43)
        for _ in range(15):
            n = rng.randrange(3, 7)
            f = random_instance(rng, n, 4 * n)
            fs = factor_sequence(sort_clauses(f))
            for k in (0, 1):
                g = sweep(fs, k, "gf2")
                i = sweep(fs, k, "int")
                # GF(2) nonzero iff some integer coefficient odd: identical
                # verdicts whenever the integer sweep's witness has odd count
                if g.satisfiable:
                    assert i.satisfiable
                    assert (
                        CoefficientQuery.from_factor_sequence(fs, "int").coefficient(
                            g.witness_mask
                        )
                        % 2
                        == 1
                    )


class TestDecide:
    def test_eight_clause_always_unsat(self):
        f = parse_dimacs(EIGHT_CLAUSE)
        for k in (0, 1, 2):
            decision = decide_sat_bounded(f, k)
            assert not decision.verdict.satisfiable

    def test_single_solution_instance(self):
        # forbid every assignment except (1,1,1) on three variables
        text = (
            "p cnf 3 7\n"
            "1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n-1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n"
        )
        f = parse_dimacs(text)
        assert brute_count(f) == 1
        decision = decide_sat_bounded(f, 0)
        assert decision.verdict.satisfiable

    def test_witness_mapped_to_original_vars(self):
        f = parse_dimacs(SIX_VAR)
        clauses = list(f.clauses)
        del clauses[SIX_VAR_REMOVED_CLAUSE - 1]
        decision = decide_sat_bounded(Formula(n=6, clauses=tuple(clauses)), 0)
        assert decision.verdict.satisfiable
        assert decision.witness_original_vars == (1, 2, 3, 4, 5, 6)

    def test_too_small_k_may_be_wrong(self):
        # four solutions but k=0: the verdict is not trusted, only recorded;
        # with all coefficients of high grades even, UNSAT can come out
        text = "p cnf 3 1\n1 2 3 0\n"
        f = parse_dimacs(text)
        assert brute_count(f) == 7
        decision = decide_sat_bounded(f, 0)
        # assumption #S <= 1 is simply violated; any verdict is acceptable,
        # the call must still terminate cleanly
        assert decision.verdict.k == 0

    def test_verdict_json_shape(self):
        decision = decide_sat_bounded(parse_dimacs(EIGHT_CLAUSE), 0)
        data = decision.to_json()
        assert data["verdict"] == "UNSAT-under-assumption"
        assert data["witness"] is None
        assert "queries" in data["work"]


# Each entry point that takes a mode, called on (formula, factor sequence, mode).
MODE_ENTRY_POINTS = {
    "CoefficientQuery": lambda f, fs, mode: CoefficientQuery(
        [fs.g(t) for t in range(1, fs.n + 1)], mode
    ),
    "from_factor_sequence": lambda f, fs, mode: CoefficientQuery.from_factor_sequence(
        fs, mode
    ),
    "FactorSequence.g": lambda f, fs, mode: fs.g(1, mode),
    "sweep": lambda f, fs, mode: sweep(fs, 1, mode),
    "decide_sat_bounded": lambda f, fs, mode: decide_sat_bounded(f, 1, mode),
    "indicator_from_clauses": lambda f, fs, mode: indicator_from_clauses(f, mode),
    "indicator_from_factors": lambda f, fs, mode: indicator_from_factors(fs, mode),
    "expand_product": lambda f, fs, mode: expand_product(
        [fs.g(t) for t in range(1, fs.n + 1)], mode
    ),
}


class TestUnknownMode:
    # A list is unhashable, so a mode looked up in a dict would raise TypeError.
    @pytest.mark.parametrize("mode", ["bogus", "GF2", ["gf2"]], ids=repr)
    @pytest.mark.parametrize("entry", sorted(MODE_ENTRY_POINTS))
    def test_every_entry_point_raises_the_same_error(self, entry, mode):
        f = random_formula(5, 12, 1)
        fs = factor_sequence(sort_clauses(f))
        with pytest.raises(ValueError) as excinfo:
            MODE_ENTRY_POINTS[entry](f, fs, mode)
        assert str(excinfo.value) == f"mode must be 'gf2' or 'int', got {mode!r}"
