"""Claim monitoring: run conjectured identities against the oracle and shrink
any divergence to a clause-minimal reproducer.

Three identities are monitored rather than asserted: that the clause-merge
build produces exactly the brute-force solution set, that the one-sided
factor product equals the true indicator, and that the coefficient sweep
decides satisfiability under its solution-count assumption.  A divergence is
a finding, not a crash: it is minimized (clause removal only), re-verified
for 1-minimality, and reported.  An instance that hits a size cap or the
oracle's bound is skipped and counted by cause; any other engine error
propagates.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from . import descriptor as _descriptor_mod
from . import indicator as _indicator_mod
from . import coeffs as _coeffs_mod
from .anf import all_ones_column, widen
from .cnf import Formula, rename, sort_clauses, to_dimacs
from .coeffs import decide_sat_bounded
from .descriptor import Descriptor, build
from .errors import InvariantViolation, ResourceCap, TooLarge
from .indicator import FactorSequence, factor_sequence
from .oracle import brute_column, brute_count, random_formula

__all__ = [
    "CLAIM_IDS",
    "FalsificationReport",
    "FalsifyStats",
    "check_campaign",
    "check_claim",
    "falsify",
    "minimize_formula",
    "compact_variables",
    "write_reports",
]

@dataclass(frozen=True)
class FalsificationReport:
    claim_id: str
    seed: int
    instance_index: int
    instance_dimacs: str
    minimized_dimacs: str
    expected: str
    got: str

    def to_json(self) -> dict:
        return {
            "claim": self.claim_id,
            "seed": self.seed,
            "instance_index": self.instance_index,
            "expected": self.expected,
            "got": self.got,
            "instance": self.instance_dimacs,
            "minimized": self.minimized_dimacs,
        }


# The documented reasons to skip a check; any other error is an engine bug.
_SKIP_CAUSES = (ResourceCap, TooLarge)


@dataclass
class FalsifyStats:
    instances: int = 0
    divergences: int = 0
    per_claim: dict = field(default_factory=dict)
    skipped_by_cause: dict = field(
        default_factory=lambda: {cls.__name__: 0 for cls in _SKIP_CAUSES}
    )


def _check_merge_soundness(f: Formula) -> Optional[tuple[str, str]]:
    """Does the built descriptor's image equal the brute-force solution set?

    Every built descriptor satisfies Im H = Fix H (property (ii) in the
    ``descriptor`` docstring), so the image is compared as the fixed-point
    column: the 2**n-bit table of {alpha : h_t(alpha) = alpha_t for all t},
    in ``brute_column``'s bit convention.  Its popcount is the image size.
    """
    expected = brute_column(f)
    result = build(sort_clauses(f))
    if result.capped:
        raise ResourceCap("build hit the length cap")
    if result.unsat:
        if expected == 0:
            return None
        return (f"{expected.bit_count()} solutions", "UNSAT")
    assert result.descriptor is not None
    got = _fixed_point_column(result.descriptor)
    if got == expected:
        return None
    return (
        f"solution set of size {expected.bit_count()}",
        f"image of size {got.bit_count()} (symmetric difference {(got ^ expected).bit_count()})",
    )


def _fixed_point_column(h: Descriptor) -> int:
    """The 2**n-bit truth column of Fix H, bit a for the assignment ``a << 1``.

    F_0 = 1 and F_t = F_{t-1} widened to a_1..a_t AND NOT (h_t XOR a_t):
    of the prefixes in F_{t-1}, the low half of F_t keeps those where h_t
    is 0 (a_t = 0) and the high half those where h_t is 1 (a_t = 1).
    """
    fixed = 1
    for t, table in enumerate(h.tables, start=1):
        half = 1 << (t - 1)
        fixed = fixed & ~table | (fixed & table >> half) << half
    return fixed


def _check_indicator6(f: Formula) -> Optional[tuple[str, str]]:
    """Does the product of one-sided factors match the true indicator?"""
    # The oracle first: above its bound the 2**n-bit tables below would not fit.
    expected = brute_column(f)
    acc = _factor_product_column(factor_sequence(sort_clauses(f)))
    if acc == expected:
        return None
    return (
        f"indicator with {bin(expected).count('1')} ones",
        f"factor product with {bin(acc).count('1')} ones",
    )


def _factor_product_column(fs: FactorSequence) -> int:
    """The 2**n-bit truth column of the product of all g_t.

    The table of g_t is the AND of its two factors' 2**t-bit tables, so no
    ring product is expanded.
    """
    acc = all_ones_column(fs.n)
    for t in range(1, fs.n + 1):
        g_t = fs.factor_plus(t).truth_column(t) & fs.factor_minus(t).truth_column(t)
        acc &= widen(g_t, t, fs.n)
        if not acc:
            break
    return acc


def _choose_k(count: int) -> int:
    if count <= 1:
        return 0
    return max(0, math.ceil(math.log2(count)))


def _check_sweep_decides(f: Formula) -> Optional[tuple[str, str]]:
    """Does the sweep verdict match brute-force SAT when #S <= 2^k holds?"""
    count = brute_count(f)
    k = _choose_k(count)
    decision = decide_sat_bounded(f, k)
    if decision.verdict.capped:
        raise ResourceCap("sweep hit the frontier cap")
    got_sat = decision.verdict.satisfiable
    expected_sat = count > 0
    if got_sat == expected_sat:
        return None
    return (
        f"{'SAT' if expected_sat else 'UNSAT'} ({count} solutions, k={k})",
        "SAT" if got_sat else "UNSAT-under-assumption",
    )


# Registry of monitored claims, each under the id its owning module names.
_CHECKERS: dict[str, Callable[[Formula], Optional[tuple[str, str]]]] = {
    _descriptor_mod.MONITORED_CLAIM: _check_merge_soundness,
    _indicator_mod.MONITORED_CLAIM: _check_indicator6,
    _coeffs_mod.MONITORED_CLAIM: _check_sweep_decides,
}

CLAIM_IDS = tuple(_CHECKERS)


def check_claim(claim_id: str, f: Formula) -> Optional[tuple[str, str]]:
    """Run one monitored claim; None means no divergence."""
    return _CHECKERS[claim_id](f)


def compact_variables(f: Formula) -> Formula:
    """Renumber variables 1..n' to close gaps left by clause removal."""
    return rename(f, sorted({l.var for cl in f.clauses for l in cl.lits}))


def minimize_formula(
    f: Formula, diverges: Callable[[Formula], bool]
) -> Formula:
    """Clause removal to a 1-minimal reproducer.

    Only clauses are removed; variables are re-compacted before each re-run.
    The chunk size halves down to one clause, and single-clause sweeps repeat
    until one removes nothing, which makes the result 1-minimal.
    """
    cache: dict[tuple, bool] = {}

    def still_diverges(clause_list: list) -> bool:
        key = tuple(cl.signed() for cl in clause_list)
        hit = cache.get(key)
        if hit is None:
            hit = diverges(compact_variables(Formula(n=f.n, clauses=tuple(clause_list))))
            cache[key] = hit
        return hit

    clauses = list(f.clauses)
    chunk = max(1, len(clauses) // 2)
    while len(clauses) > 1:
        start = 0
        removed_any = False
        while start < len(clauses):
            candidate = clauses[:start] + clauses[start + chunk :]
            if candidate and still_diverges(candidate):
                clauses = candidate
                removed_any = True
            else:
                start += chunk
        if chunk == 1 and not removed_any:
            break
        chunk = max(1, chunk // 2)
    return compact_variables(Formula(n=f.n, clauses=tuple(clauses)))


def verify_one_minimal(
    f: Formula, diverges: Callable[[Formula], bool]
) -> bool:
    """The instance diverges, and no single-clause removal still does."""
    if not diverges(f):
        return False
    for idx in range(f.m):
        candidate = f.clauses[:idx] + f.clauses[idx + 1 :]
        if not candidate:
            continue
        cand_f = compact_variables(Formula(n=f.n, clauses=tuple(candidate)))
        if diverges(cand_f):
            return False
    return True


def check_campaign(claims: Iterable[str], ratio: float) -> list[str]:
    """The claim ids of a campaign, as a list.

    Raises ValueError for an unknown or repeated claim id, or for a ratio
    that is not a positive finite number.
    """
    claim_list = list(claims)
    for i, c in enumerate(claim_list):
        if c not in _CHECKERS:
            raise ValueError(f"unknown claim id {c!r}")
        if c in claim_list[:i]:
            raise ValueError(f"repeated claim id {c!r}")
    if not 0 < ratio < math.inf:  # also rejects nan
        raise ValueError(f"ratio must be a positive finite number, got {ratio}")
    return claim_list


def falsify(
    claims: Iterable[str],
    *,
    count: int,
    n: int,
    ratio: float,
    seed: int,
) -> tuple[list[FalsificationReport], FalsifyStats]:
    """Run each claim over seeded random instances; minimize any divergence."""
    claim_list = check_campaign(claims, ratio)
    m = max(1, round(ratio * n))
    stats = FalsifyStats(per_claim={c: 0 for c in claim_list})
    reports: list[FalsificationReport] = []
    for index in range(count):
        instance_seed = seed + index
        f = random_formula(n, m, instance_seed)
        stats.instances += 1
        for claim_id in claim_list:
            checker = _CHECKERS[claim_id]
            try:
                divergence = checker(f)
            except _SKIP_CAUSES as exc:
                stats.skipped_by_cause[type(exc).__name__] += 1
                continue
            if divergence is None:
                continue
            stats.divergences += 1
            stats.per_claim[claim_id] += 1

            def diverges(candidate: Formula, _c=checker) -> bool:
                try:
                    return _c(candidate) is not None
                except _SKIP_CAUSES:
                    return False

            minimized = minimize_formula(f, diverges)
            if not verify_one_minimal(minimized, diverges):
                raise InvariantViolation(
                    f"minimized instance for {claim_id} is not 1-minimal"
                )
            final = checker(minimized)
            assert final is not None
            reports.append(
                FalsificationReport(
                    claim_id=claim_id,
                    seed=instance_seed,
                    instance_index=index,
                    instance_dimacs=to_dimacs(f),
                    minimized_dimacs=to_dimacs(minimized),
                    expected=final[0],
                    got=final[1],
                )
            )
    return reports, stats


def write_reports(reports: list[FalsificationReport], report_dir: str) -> None:
    """Write ``reports.jsonl`` and each report's minimized DIMACS into report_dir."""
    os.makedirs(report_dir, exist_ok=True)
    lines_path = os.path.join(report_dir, "reports.jsonl")
    with open(lines_path, "w", encoding="utf-8") as fh:
        for i, rep in enumerate(reports):
            fh.write(json.dumps(rep.to_json(), sort_keys=True) + "\n")
            cnf_path = os.path.join(
                report_dir, f"{rep.claim_id.lower()}_{rep.seed}_{i}.cnf"
            )
            with open(cnf_path, "w", encoding="utf-8") as cf:
                cf.write(rep.minimized_dimacs)
