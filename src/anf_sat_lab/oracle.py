"""Independent ground truth: exhaustive enumeration, full expansion, generators.

Everything here is deliberately direct.  The fast enumerator packs truth
tables into big integers and shares the truth-table kernel of ``anf``; a
second evaluator loops over assignments one by one so the two can
cross-check each other.  The product expander multiplies factors outright,
serving as the slow reference for the sparse coefficient recursion.
"""

from __future__ import annotations

import random
from typing import Sequence

from .anf import AnfPoly, IntPoly, all_ones_column, ring, set_bits, var_columns
from .cnf import Clause3, Formula
from .errors import GenerationError, TooLarge
from .solutions import SolutionSet

__all__ = [
    "BRUTE_LIMIT",
    "EXPAND_LIMIT",
    "brute_column",
    "brute_solutions",
    "brute_solutions_slow",
    "brute_count",
    "expand_product",
    "random_formula",
]

BRUTE_LIMIT = 25
EXPAND_LIMIT = 14


def brute_column(f: Formula) -> int:
    """Truth table of the formula packed into an int (bit a = assignment a).

    Assignment ``a`` sets variable i to ``(a >> (i-1)) & 1``.
    """
    if f.n > BRUTE_LIMIT:
        raise TooLarge(f"brute force over {f.n} > {BRUTE_LIMIT} variables")
    cols = var_columns(f.n)
    ones = all_ones_column(f.n)
    acc = ones
    for cl in f.clauses:
        clause_col = 0
        for lit in cl.lits:
            col = cols[lit.var]
            clause_col |= (ones ^ col) if lit.negated else col
        acc &= clause_col
        if not acc:
            break
    return acc


def brute_solutions(f: Formula) -> SolutionSet:
    """Exact solution set by exhaustive evaluation."""
    # Assignment index a has mask a << 1 (variable i is bit i - 1 of a).
    return SolutionSet.from_masks(f.n, [a << 1 for a in set_bits(brute_column(f))])


def brute_solutions_slow(f: Formula) -> SolutionSet:
    """Second, independently coded enumerator (per-assignment clause loop)."""
    if f.n > BRUTE_LIMIT:
        raise TooLarge(f"brute force over {f.n} > {BRUTE_LIMIT} variables")
    masks = []
    for a in range(1 << f.n):
        assignment = 0
        for i in range(1, f.n + 1):
            if (a >> (i - 1)) & 1:
                assignment |= 1 << i
        ok = True
        for cl in f.clauses:
            sat = False
            for lit in cl.lits:
                value = (assignment >> lit.var) & 1
                if value != (1 if lit.negated else 0):
                    sat = True
                    break
            if not sat:
                ok = False
                break
        if ok:
            masks.append(assignment)
    return SolutionSet.from_masks(f.n, masks)


def brute_count(f: Formula) -> int:
    return bin(brute_column(f)).count("1")


def expand_product(
    factors: Sequence[AnfPoly] | Sequence[IntPoly], mode: str = "gf2"
) -> AnfPoly | IntPoly:
    """Full multiplication of a factor list; the slow reference path."""
    max_var = max((p.max_var() for p in factors), default=0)
    if max_var > EXPAND_LIMIT:
        raise TooLarge(f"expansion over {max_var} > {EXPAND_LIMIT} variables")
    r = ring(mode)
    acc = r.one()
    for p in factors:
        acc = acc * r.coerce(p)
    return acc


def random_formula(n: int, m: int, seed: int) -> Formula:
    """Seed-stable uniform 3-CNF: distinct variables, independent signs, distinct clauses."""
    if n < 3:
        raise GenerationError(f"need n >= 3 variables, got {n}")
    max_clauses = 8 * (n * (n - 1) * (n - 2) // 6)
    if m > max_clauses:
        raise GenerationError(f"cannot draw {m} distinct clauses over {n} variables")
    rng = random.Random(seed)
    seen: set[tuple[int, int, int]] = set()
    clauses: list[Clause3] = []
    while len(clauses) < m:
        vs = rng.sample(range(1, n + 1), 3)
        vs.sort()
        lits = tuple(
            v if rng.getrandbits(1) else -v for v in vs
        )
        if lits in seen:
            continue
        seen.add(lits)  # type: ignore[arg-type]
        clauses.append(Clause3.from_signed(lits))
    return Formula(n=n, clauses=tuple(clauses))
