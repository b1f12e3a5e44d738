"""Indicator polynomials of solution sets, in four equivalent constructions.

The indicator of a solution set values 1 exactly on solutions.  It can be
assembled from a descriptor (product of per-level agreement factors), from
the clauses (product of forbidden-cube complements), from an explicit
solution list, or from the per-variable factor sequence derived from the
positive/negative split of each variable's clause group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

from .anf import AnfPoly, IntPoly, all_ones_column, cube, ring, var_columns
# build and split_plus_minus stay module globals: bench/tracing.py patches them by name
from .cnf import Clause3, Formula, SortedFormula, split_plus_minus
from .descriptor import DEFAULT_LEN_CAP, Descriptor, build, clause_forbidden_monomial
from .errors import ResourceCap
from .solutions import SolutionSet

__all__ = [
    "FactorSequence",
    "MONITORED_CLAIM",
    "factor_sequence",
    "indicator_from_descriptor",
    "indicator_from_clauses",
    "indicator_from_solutions",
    "indicator_from_factors",
    "clause_forbidden_monomial",
    "product_with_cap",
]

# That the factor-sequence product equals the true indicator is a monitored
# conjecture owned by the falsifier.
MONITORED_CLAIM = "INDICATOR6"

DEFAULT_TERM_CAP = 1 << 22

# One-sided entries up to this level fold on truth tables (``_one_sided_entry``).
_TABLE_FOLD_MAX_LEVEL = 16

_P = TypeVar("_P", AnfPoly, IntPoly)


@dataclass(frozen=True)
class FactorSequence:
    """Per-variable factors g_t = [h_plus + x_t + 1] * [h_minus + x_t + 1].

    ``h_plus[t-1]`` / ``h_minus[t-1]`` are the top entries of the descriptors
    of the positive / negative clause groups at t (the variable itself when a
    group is empty, which makes the corresponding factor equal 1).  Factors
    are stored unexpanded; ``g(t)`` multiplies the pair on demand.
    """

    n: int
    h_plus: tuple[AnfPoly, ...]
    h_minus: tuple[AnfPoly, ...]
    plus_clauses: tuple[tuple[int, ...], ...]  # provenance: 1-based positions
    minus_clauses: tuple[tuple[int, ...], ...]

    def factor_plus(self, t: int) -> AnfPoly:
        return self.h_plus[t - 1] + AnfPoly.var(t) + AnfPoly.one()

    def factor_minus(self, t: int) -> AnfPoly:
        return self.h_minus[t - 1] + AnfPoly.var(t) + AnfPoly.one()

    def g(self, t: int, mode: str = "gf2") -> AnfPoly | IntPoly:
        """The product g_t of the factor pair, in the ring ``anf.ring(mode)``."""
        r = ring(mode)
        return r.coerce(self.factor_plus(t)) * r.coerce(self.factor_minus(t))

    def all_factors(self) -> list[AnfPoly]:
        out = []
        for t in range(1, self.n + 1):
            out.append(self.factor_plus(t))
            out.append(self.factor_minus(t))
        return out


def factor_sequence(f: SortedFormula) -> FactorSequence:
    """Compute both one-sided entries per variable and package the factors.

    Each entry is the closed form of ``_one_sided_entry`` on the clauses of
    one half of ``f.groups[t]``; a group whose entry outgrows the length cap
    raises ResourceCap.
    """
    h_plus: list[AnfPoly] = []
    h_minus: list[AnfPoly] = []
    for t, (minus, plus) in enumerate(f.groups[1:], start=1):
        h_plus.append(_one_sided_entry([f.clauses[k - 1] for k in plus], t, positive=True))
        h_minus.append(_one_sided_entry([f.clauses[k - 1] for k in minus], t, positive=False))
    return FactorSequence(
        n=f.n,
        h_plus=tuple(h_plus),
        h_minus=tuple(h_minus),
        plus_clauses=tuple(plus for _, plus in f.groups[1:]),
        minus_clauses=tuple(minus for minus, _ in f.groups[1:]),
    )


def _one_sided_entry(clauses: Sequence[Clause3], t: int, *, positive: bool) -> AnfPoly:
    """The t-entry of the build of a group: clauses topped by x_t, all of one sign.

    It is h+ = a_t OR B_1 OR .. OR B_m for a positive group and
    h- = a_t AND NOT B_1 AND .. AND NOT B_m for a negative one, where B_c is
    the indicator that both lower literals of clause c are false.  Proof, by
    induction over the fold: every entry other than h_t stays a_i.  The
    clause's t-entry is a_t + its forbidden cube, the cube reading the lower
    entries, which are identities; so it is g = a_t OR B_c when x_t is
    positive and g = a_t AND NOT B_c when it is negative.  The level merge
    (``merge_poly``'s formula, which ``_merge_level`` shares) takes
    f = a_t OR X (halves X, 1) and g = a_t OR B to a_t OR X OR B, and
    f = a_t AND NOT X (halves 0, NOT X) and g = a_t AND NOT B to
    a_t AND NOT X AND NOT B, with residual 0 in both cases.  So nothing
    cascades, and the substitution pass leaves the identities above t
    alone, since they do not read a_t.

    Up to level ``_TABLE_FOLD_MAX_LEVEL`` the fold runs on the 2**t-bit
    truth tables of ``var_columns(t)``, as a table build forms the t-entry's
    cube: B_c is the AND of the lower literals' "false" columns, col_v for a
    negated literal and NOT col_v for a positive one.  The entry a_t OR B or
    a_t AND NOT B, with B the OR of the B_c, is then converted by one
    Moebius transform.  Above that level the sparse fold is faster, since
    the transform grows with 2**t and the products with the group: per
    entry over the groups of ``random_formula(n, round(4.26 n), s)``,
    n in {t, 20}, s = 1..12, tables against products took 161 against
    331 us at t = 16, 259 against 278 us at t = 17, 495 against 297 us at
    t = 18 and 2.0 against 0.86 ms at t = 20 (CPython 3.11.7, one core of
    a shared 2-vCPU host).

    After each clause the sparse entry is checked against ``DEFAULT_LEN_CAP``
    as the build checks its level-t entry, and ResourceCap is raised when
    it is over.  A table entry cannot reach the cap: it has at most 2**t
    terms, and the table path runs only where 2**t <= ``DEFAULT_LEN_CAP``,
    so a lowered cap is still decided as the build decides it.  The entry is
    returned in mask order, as a build over at most 20 variables converts
    it from its table.

    h- is a_t AND the group's solution column, but it must not be computed
    with ``oracle.brute_column``: the oracle checks this engine and stays
    independent of it.
    """
    if not clauses:
        return AnfPoly.var(t)
    if t <= _TABLE_FOLD_MAX_LEVEL and 1 << t <= DEFAULT_LEN_CAP:
        cols = var_columns(t)
        ones = all_ones_column(t)
        b = 0
        for clause in clauses:
            low, mid, _ = clause.lits
            b |= (cols[low.var] if low.negated else ones ^ cols[low.var]) & (
                cols[mid.var] if mid.negated else ones ^ cols[mid.var]
            )
        return AnfPoly.from_truth_column(cols[t] | b if positive else cols[t] & ~b, t)
    h = a_t = AnfPoly.var(t)
    for clause in clauses:
        g = a_t + clause_forbidden_monomial(clause)
        h = h + g + h * g if positive else h * g
        if 1 << t > DEFAULT_LEN_CAP and len(h) > DEFAULT_LEN_CAP:
            raise ResourceCap(f"one-sided group at t={t} hit the length cap")
    return h.in_mask_order()


def product_with_cap(factors: Iterable[_P], cap: int, unit: _P = AnfPoly.one()) -> _P:
    """Multiply the factors onto ``unit``, raising ResourceCap past ``cap`` terms."""
    acc = unit
    for factor in factors:
        acc = acc * factor
        if len(acc) > cap:
            raise ResourceCap(
                f"indicator expansion reached {len(acc)} terms (cap {cap})",
                where="indicator",
                size=len(acc),
            )
    return acc


def indicator_from_descriptor(
    h: Descriptor, *, cap: int = DEFAULT_TERM_CAP
) -> AnfPoly:
    """Expand the product of [h_i + x_i + 1]; 1 exactly on fixed points of H."""
    factors = [
        h.entry(i) + AnfPoly.var(i) + AnfPoly.one() for i in range(1, h.n + 1)
    ]
    return product_with_cap(factors, cap)


def indicator_from_clauses(
    f: Formula, mode: str = "gf2", *, cap: int = DEFAULT_TERM_CAP
) -> AnfPoly | IntPoly:
    """Expand the product over clauses of (forbidden-cube indicator + 1)."""
    r = ring(mode)
    # coerce before adding 1: mod 2 it cancels a constant the integer factor keeps
    factors = [r.coerce(clause_forbidden_monomial(cl)) + r.one() for cl in f.clauses]
    return product_with_cap(factors, cap, r.one())


def indicator_from_solutions(s: SolutionSet) -> AnfPoly:
    """Mod-2 sum of one-solution indicators prod x_i^{s_i} (x_i+1)^{1-s_i}."""
    acc = AnfPoly.zero()
    for sol in s.solutions:
        acc = acc + cube((AnfPoly.var(i), bit) for i, bit in enumerate(sol, start=1))
    return acc


def indicator_from_factors(
    fs: FactorSequence, mode: str = "gf2", *, cap: int = DEFAULT_TERM_CAP
) -> AnfPoly | IntPoly:
    """Expand the product of all 2n one-sided factors."""
    r = ring(mode)
    return product_with_cap([r.coerce(p) for p in fs.all_factors()], cap, r.one())
