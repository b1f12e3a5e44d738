"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 3 checks the six-variable worked instance.  Its stated
integer top coefficients (1,086,442 and 257,641) are errata: the instance's
own printed polynomials, pinned in 3a, force 1,086,434 and 212,637.  So 3c
recomputes the forced values from the printed polynomials with plain
integers, asserts the engine's values against them, and asserts that each
stated integer deviates from its forced value by a nonzero even amount.
"""

import random
import subprocess
import sys
from contextlib import contextmanager


from anf_sat_lab.anf import AnfPoly
from anf_sat_lab.cnf import Clause3, Formula, parse_dimacs, sort_clauses
from anf_sat_lab.coeffs import CoefficientQuery
from anf_sat_lab.descriptor import build, clause_descriptor, identity_descriptor, merge, profile_csv
from anf_sat_lab.falsify import CLAIM_IDS, falsify, verify_one_minimal, write_reports, _CHECKERS
from anf_sat_lab.indicator import (
    factor_sequence,
    indicator_from_clauses,
    indicator_from_descriptor,
    indicator_from_factors,
)
from anf_sat_lab.oracle import brute_column, expand_product, random_formula
from anf_sat_lab.smatrix import image
from anf_sat_lab.solutions import intersect_images, list_solutions

from golden import (
    EIGHT_CLAUSE,
    EIGHT_CLAUSE_TABLE,
    SIX_VAR,
    SIX_VAR_H_MINUS,
    SIX_VAR_H_PLUS,
    SIX_VAR_PRIME_SOLUTION,
    SIX_VAR_PRIME_STATED_TOP,
    SIX_VAR_REMOVED_CLAUSE,
    SIX_VAR_STATED_TOP,
    TWO_CLAUSE,
)
from helpers import random_smatrix


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {num}: FAIL - {desc}", file=sys.stderr)
        raise
    print(f"ACCEPTANCE criterion {num}: PASS - {desc}", file=sys.stderr)


def P(text):
    return AnfPoly.parse(text)


def full_mask(n):
    return ((1 << (n + 1)) - 1) & ~1


def fixed_point_indices(descriptor):
    n = descriptor.n
    cols = [descriptor.entry(i).truth_column(n) for i in range(1, n + 1)]
    out = set()
    for a in range(1 << n):
        if all(((cols[i] >> a) & 1) == ((a >> i) & 1) for i in range(n)):
            out.add(a)
    return out


def test_criterion_1_golden_descriptors():
    with criterion(1, "single-clause table and two-clause build reproduce exactly"):
        one = AnfPoly.one()
        a1, a2, a3 = (AnfPoly.var(i) for i in range(1, 4))
        table = {
            (1, 2, 3): (a1 + one) * (a2 + one) * (a3 + one) + a3,
            (1, 2, -3): (a1 + one) * (a2 + one) * a3 + a3,
            (1, -2, 3): (a1 + one) * a2 * (a3 + one) + a3,
            (1, -2, -3): (a1 + one) * a2 * a3 + a3,
            (-1, 2, 3): a1 * (a2 + one) * (a3 + one) + a3,
            (-1, 2, -3): a1 * (a2 + one) * a3 + a3,
            (-1, -2, 3): a1 * a2 * (a3 + one) + a3,
            (-1, -2, -3): a1 * a2 * a3 + a3,
        }
        for signed, want in table.items():
            got = clause_descriptor(Clause3.from_signed(signed), 3)
            assert got.entry(3) == want
            assert got.entry(1) == a1 and got.entry(2) == a2

        result = build(sort_clauses(parse_dimacs(TWO_CLAUSE)))
        assert result.ok
        assert result.descriptor.h == (
            P("a1"),
            P("a2"),
            P("a1*a2*a3 + a1*a3 + a2*a3"),
            P("a2*a3*a4 + a2*a4 + a4"),
        )


def test_criterion_2_eight_clause_progression():
    with criterion(2, "8-clause image sizes 7..1 then UNSAT, h tables exact"):
        sf = sort_clauses(parse_dimacs(EIGHT_CLAUSE))
        current = identity_descriptor(3)
        for step, clause in enumerate(sf.clauses, start=1):
            current = merge(current, clause)
            if step == 8:
                assert current is None
                break
            want = EIGHT_CLAUSE_TABLE[step - 1]
            assert current.h == tuple(P(t) for t in want[:3])
            assert len(image(current).rows) == want[3]


def six_var_prime():
    f = parse_dimacs(SIX_VAR)
    clauses = list(f.clauses)
    del clauses[SIX_VAR_REMOVED_CLAUSE - 1]
    return Formula(n=6, clauses=tuple(clauses))


def test_criterion_3a_six_var_twelve_polynomials():
    with criterion(3, "(a) all twelve one-sided polynomials match canonically"):
        fs = factor_sequence(sort_clauses(parse_dimacs(SIX_VAR)))
        for t in range(1, 7):
            assert fs.h_plus[t - 1] == P(SIX_VAR_H_PLUS[t]), f"h_plus t={t}"
            assert fs.h_minus[t - 1] == P(SIX_VAR_H_MINUS[t]), f"h_minus t={t}"


def test_criterion_3b_six_var_mod2_and_solution():
    with criterion(3, "(b) mod-2 reductions and the unique enumerated solution"):
        fs = factor_sequence(sort_clauses(parse_dimacs(SIX_VAR)))
        assert indicator_from_factors(fs, "int").reduce_mod2().is_zero()

        prime = six_var_prime()
        fsp = factor_sequence(sort_clauses(prime))
        one = AnfPoly.one()
        want = (
            (P("x1") + one) * P("x2") * P("x3")
            * (P("x4") + one) * P("x5") * (P("x6") + one)
        )
        assert indicator_from_factors(fsp, "gf2") == want
        # enumerate through the exact tree route: synchronized intersection
        # of the clause descriptors (their fixed points are exactly the
        # clause solutions), cross-checked by the brute oracle
        hs = [clause_descriptor(cl, 6) for cl in prime.clauses]
        sols = intersect_images(hs)
        assert sols.solutions == (SIX_VAR_PRIME_SOLUTION,)
        from anf_sat_lab.oracle import brute_solutions

        assert brute_solutions(prime).solutions == (SIX_VAR_PRIME_SOLUTION,)


def printed_masks(text):
    """Monomial masks of a printed GF(2) polynomial such as ``1 + x1*x2``."""
    masks = set()
    for term in text.split("+"):
        mask = 0
        for factor in term.strip().split("*"):
            if factor != "1":
                mask |= 1 << int(factor.lstrip("x"))
        masks ^= {mask}
    return masks


def printed_top_coefficient(h_plus, h_minus, n=6):
    """Integer top coefficient of the product of the 2n printed factors.

    Uses plain integers only.  Each factor [h + x_t + 1] is a set of
    monomial masks (x_t and 1 cancel mod 2 against h).  Its lift evaluates at
    a 0/1 point to the number of monomials that the point satisfies.  The
    pointwise products are Moebius-inverted at the full mask.
    """
    factors = [
        printed_masks(h[t]) ^ {1 << t, 0}
        for h in (h_plus, h_minus)
        for t in range(1, n + 1)
    ]
    top = full_mask(n)
    total = 0
    for low in range(1 << n):
        point = low << 1
        value = 1
        for masks in factors:
            value *= sum(1 for m in masks if m & point == m)
        total += (-1) ** bin(top ^ point).count("1") * value
    return total


def test_criterion_3c_six_var_stated_integers():
    # The source states top coefficients 1,086,442 and 257,641, but the
    # twelve printed polynomials (pinned in 3a) force other values, so no
    # engine can match both.  The forced values are recomputed here from the
    # printed strings without library arithmetic.  The stated integers stay
    # asserted as errata: they deviate by nonzero even amounts, so every
    # parity-level statement of the source still holds.
    with criterion(
        3, "(c) forced integer top coefficients; stated ones off by even amounts"
    ):
        fs = factor_sequence(sort_clauses(parse_dimacs(SIX_VAR)))
        fsp = factor_sequence(sort_clauses(six_var_prime()))
        # clause 13 (1 -2 4) is the only positive clause at t=4: without it
        # h_plus(4) is x4 and factor_plus(4) is 1; every other factor stays
        assert fsp.h_minus == fs.h_minus
        assert fsp.h_plus == fs.h_plus[:3] + (AnfPoly.var(4),) + fs.h_plus[4:]

        forced = printed_top_coefficient(SIX_VAR_H_PLUS, SIX_VAR_H_MINUS)
        forced_prime = printed_top_coefficient(
            {**SIX_VAR_H_PLUS, 4: "x4"}, SIX_VAR_H_MINUS
        )
        ind = indicator_from_factors(fs, "int")
        assert ind.coefficient(full_mask(6)) == forced
        indp = indicator_from_factors(fsp, "int")
        assert indp.coefficient(full_mask(6)) == forced_prime

        for stated, value in (
            (SIX_VAR_STATED_TOP, forced),
            (SIX_VAR_PRIME_STATED_TOP, forced_prime),
        ):
            assert stated != value and (stated - value) % 2 == 0, stated


def test_criterion_4_unconditional_oracle_identities():
    with criterion(4, "500-instance oracle identities, zero tolerance"):
        rng = random.Random(2024)
        for index in range(500):
            n = rng.randrange(6, 13)
            m = round(4.26 * n)
            f = random_formula(n, m, 10_000 + index)
            # (a) clause-product indicator == CNF truth table
            ind = indicator_from_clauses(f)
            assert ind.truth_column(n) == brute_column(f), f"instance {index}"
            # (b, c) descriptor indicator and tree enumeration == fixed points
            result = build(sort_clauses(f))
            if result.ok:
                fixed = fixed_point_indices(result.descriptor)
                di = indicator_from_descriptor(result.descriptor)
                di_col = di.truth_column(n)
                assert {a for a in range(1 << n) if (di_col >> a) & 1} == fixed
                tree = list_solutions(result.descriptor)
                got = {
                    sum(1 << i for i, b in enumerate(sol) if b)
                    for sol in tree.solutions
                }
                assert got == fixed, f"instance {index}"

        # (d) sparse coefficients == full expansion, all masks, both modes
        checked = 0
        for index in range(47):
            n = 5 + (index % 5)
            f = random_formula(n, round(4.26 * n), 20_000 + index)
            fs = factor_sequence(sort_clauses(f))
            gf2 = expand_product([fs.g(t) for t in range(1, n + 1)], "gf2")
            integer = expand_product([fs.g(t, "int") for t in range(1, n + 1)], "int")
            q_gf2 = CoefficientQuery.from_factor_sequence(fs, "gf2")
            q_int = CoefficientQuery.from_factor_sequence(fs, "int")
            for low in range(1 << n):
                mask = low << 1
                want = integer.coefficient(mask)
                assert q_int.coefficient(mask) == want
                got2 = q_gf2.coefficient(mask)
                assert got2 == (1 if mask in gf2.masks else 0)
                # (e) parity agreement, zero tolerance
                assert got2 == want % 2
            checked += 1
        for n in (12, 13, 14):
            f = random_formula(n, round(4.26 * n), 30_000 + n)
            fs = factor_sequence(sort_clauses(f))
            gf2 = expand_product([fs.g(t) for t in range(1, n + 1)], "gf2")
            q_gf2 = CoefficientQuery.from_factor_sequence(fs, "gf2")
            for low in range(1 << n):
                mask = low << 1
                assert q_gf2.coefficient(mask) == (1 if mask in gf2.masks else 0)
            checked += 1
        assert checked >= 50


def test_criterion_5_lattice_laws():
    with criterion(5, "lattice laws on 500 seeded matrices via set expansion"):
        rng = random.Random(55)
        omega_cache = {}
        for _ in range(500):
            n = rng.randrange(2, 7)
            a = random_smatrix(rng, n)
            b = random_smatrix(rng, n)
            c = random_smatrix(rng, n)
            sa, sb, sc = a.assignments(), b.assignments(), c.assignments()
            if n not in omega_cache:
                from anf_sat_lab.smatrix import SMatrix

                omega_cache[n] = (
                    SMatrix.full(tuple(range(1, n + 1))),
                    SMatrix.empty(tuple(range(1, n + 1))),
                )
            omega, empty = omega_cache[n]
            # join/meet agree with set union/intersection
            assert a.join(b).assignments() == sa | sb
            assert a.meet(b).assignments() == sa & sb
            # associativity, commutativity, idempotence
            assert a.join(b).join(c).assignments() == sa | sb | sc
            assert a.meet(b).meet(c).assignments() == sa & sb & sc
            assert a.join(b).same_set(b.join(a))
            assert a.meet(b).same_set(b.meet(a))
            assert a.join(a).same_set(a)
            assert a.meet(a).same_set(a)
            # absorption both ways
            assert a.join(a.meet(b)).same_set(a)
            assert a.meet(a.join(b)).same_set(a)
            # meet distributes over join
            assert a.meet(b.join(c)).same_set(a.meet(b).join(a.meet(c)))
            # bounds
            assert a.join(omega).same_set(omega)
            assert a.meet(omega).same_set(a)
            assert a.join(empty).same_set(a)
            assert a.meet(empty).same_set(empty)


def test_criterion_6_windowed_coefficient():
    with criterion(6, "3-window all-ones factors: top coefficient 1 for n in 5..9"):
        for n in range(5, 10):
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
            q = CoefficientQuery(factors, "gf2")
            assert q.coefficient(full_mask(n)) == 1, f"n={n}"


def test_criterion_7_monitored_claims(tmp_path):
    with criterion(7, "falsifier completes 500 instances per claim; reports minimal"):
        report_dir = tmp_path / "findings"
        reports, stats = falsify(
            CLAIM_IDS,
            count=500,
            n=8,
            ratio=4.25,
            seed=424242,
        )
        if reports:
            write_reports(reports, str(report_dir))
        assert stats.instances == 500
        # the claims' truth is NOT asserted; the harness mechanics are:
        # every emitted report is clause-minimal for its own checker
        for rep in reports:
            checker = _CHECKERS[rep.claim_id]
            mini = parse_dimacs(rep.minimized_dimacs)

            def diverges(g, _c=checker):
                try:
                    return _c(g) is not None
                except Exception:
                    return False

            assert verify_one_minimal(mini, diverges), rep.claim_id
        # determinism of the run itself (sampled re-run)
        again, _ = falsify(CLAIM_IDS, count=25, n=8, ratio=4.25, seed=424242)
        firsts = [r.to_json() for r in reports if r.instance_index < 25]
        assert [r.to_json() for r in again] == firsts
        if reports:
            assert (report_dir / "reports.jsonl").exists()
        # headline complexity is monitored, never asserted: emit the
        # cluster-effect profile for a mid-size instance as CSV metrics only
        f = random_formula(14, 60, 777)
        result = build(sort_clauses(f), cap=1 << 14)
        csv_text = profile_csv(result.trace)
        assert csv_text.startswith("# anf-sat-lab profile v1\n")
        assert result.status in ("ok", "unsat", "capped")
        (tmp_path / "cluster_profile.csv").write_text(csv_text)


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical CLI output across runs and thread counts"):
        two = tmp_path / "two.cnf"
        two.write_text(TWO_CLAUSE)
        eight = tmp_path / "eight.cnf"
        eight.write_text(EIGHT_CLAUSE)
        six = tmp_path / "six.cnf"
        six.write_text(SIX_VAR)
        cases = [
            ["parse", str(two)],
            ["build", str(eight)],
            ["enumerate", str(two)],
            ["indicator", str(six), "--form", "factors", "--mode", "int"],
            ["coeff", str(six), "--delta", "top", "--mode", "int"],
            ["decide", "--k", "0", str(six)],
            ["profile", str(eight)],
            [
                "falsify", "--claims", "all", "--count", "3",
                "--n", "6", "--ratio", "4.2", "--seed", "11",
            ],
        ]
        for argv in cases:
            outputs = set()
            for threads in ("1", "4", "1"):
                proc = subprocess.run(
                    [sys.executable, "-m", "anf_sat_lab.cli", "--threads", threads]
                    + argv,
                    capture_output=True,
                )
                outputs.add((proc.returncode, proc.stdout))
            assert len(outputs) == 1, f"output varies for {argv}"
