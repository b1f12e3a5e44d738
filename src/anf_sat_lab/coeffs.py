"""Sparse extraction of product coefficients and the bounded-count SAT test.

The coefficient of a monomial in the product g_1 * ... * g_n is computed by
a demand-driven backward recursion: the level-i query asks only for the
prefix-product coefficients that level i's own sparse factor can combine
into the demanded mask.  Because each factor touches only a small window of
variables, the set of masks ever demanded stays narrow on instances with
local structure; a configurable frontier cap reports blow-ups.

A product of monomials is the union of their masks, so this is a sparse,
demand-driven iterated OR (covering) convolution (dense form: Bjorklund et
al., "Fourier meets Moebius", STOC 2007).  The memo sets and their insertion
order are output: they are the ``frontier_sizes`` counters and decide where
the frontier cap fires.  Each level walks its factor's monomials in
ascending mask order (``clause_coeffs``), so the DFS order, and with it
every work counter, is fixed by the formula, not by how a factor was built.

The satisfiability sweep queries every mask with at most k zero positions
(grade at least n - k).  Under the assumption that the instance has at most
2**k solutions, a nonzero coefficient among these is equivalent to
satisfiability; that equivalence itself is a monitored conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional

from .anf import AnfPoly, IntPoly, mask_of_vars, ring, vars_of_mask
from .cnf import Formula, relabel_by_frequency, sort_clauses
from .errors import ResourceCap
from .indicator import FactorSequence, factor_sequence

__all__ = [
    "MONITORED_CLAIM",
    "CoefficientQuery",
    "SweepVerdict",
    "DecisionResult",
    "clause_coeffs",
    "sweep",
    "decide_sat_bounded",
]

MONITORED_CLAIM = "SWEEP_DECIDES"

DEFAULT_FRONTIER_CAP = 1 << 22

# Level i's memo is also kept as a list of 2**(i+1) slots, indexed by mask,
# once it holds 2**(i - _DENSE_SHARE_LOG) of the level's 2**i masks.  At 8
# bytes a slot the list then costs at most 64 bytes per memoized mask, 16 on a
# full level, against 65-80 for a memo entry and its key.
_DENSE_SHARE_LOG = 2


def clause_coeffs(g: AnfPoly | IntPoly) -> Dict[int, int]:
    """Sparse mask -> coefficient map of one factor, in ascending mask order."""
    return dict(sorted(IntPoly.coerce(g).coeffs.items()))


class _Memo(dict):
    """One level's memo; a mask it lacks reads as None, so a hit is one subscript."""

    def __missing__(self, key: int) -> None:
        return None


def _submasks(mask: int, known: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Every submask of ``mask`` in the order ``mask``, ``(sub - 1) & mask``,
    ..., 0 (decreasing), memoized in ``known``, which must hold ``{0: (0,)}``."""
    subs = known.get(mask)
    if subs is None:
        top = 1 << (mask.bit_length() - 1)
        rest = _submasks(mask ^ top, known)
        subs = known[mask] = tuple([sub | top for sub in rest]) + rest
    return subs


class CoefficientQuery:
    """Memoized backward recursion over a factor list.

    ``factors[t-1]`` must only use variables 1..t.  Queries share one memo
    table, so a sweep reuses everything discovered by earlier masks.
    """

    def __init__(
        self,
        factors: list[AnfPoly] | list[IntPoly],
        mode: str = "gf2",
        *,
        frontier_cap: int = DEFAULT_FRONTIER_CAP,
    ):
        ring(mode)  # rejects an unknown mode
        self.mode = mode
        self.n = len(factors)
        self.frontier_cap = frontier_cap
        self._memo: list[_Memo] = [_Memo() for _ in range(self.n + 1)]
        # _reads[i]: level i as read by plain subscript at a mask (by level
        # i + 1, and by coefficient at i = n): the memo, then a list once the
        # memo holds _dense_at[i] masks (see _compute).  Level 0 is [1], 1 on
        # the empty mask only; it is never memoized (frontier_sizes()[0] = 0).
        self._reads: list[list | _Memo] = [[1]] + self._memo[1:]
        self._dense_at = [1 << max(i - _DENSE_SHARE_LOG, 0) for i in range(self.n + 1)]
        # _by_top[t][b]: level-t monomials with bit t == b, each as (mask less
        # bit t, coeff, its submasks in the memo's DFS order)
        self._by_top: list[tuple[list, list]] = [([], [])]
        known_subs = {0: (0,)}
        for t, factor in enumerate(factors, start=1):
            cm = clause_coeffs(factor)
            if any(m >> (t + 1) for m in cm):
                raise ValueError(f"factor {t} uses variables above {t}")
            self._by_top.append(([], []))
            for m, c in cm.items():
                low = m & ~(1 << t)
                self._by_top[t][(m >> t) & 1].append((low, c, _submasks(low, known_subs)))
        self.queries = 0

    @classmethod
    def from_factor_sequence(
        cls,
        fs: FactorSequence,
        mode: str = "gf2",
        *,
        frontier_cap: int = DEFAULT_FRONTIER_CAP,
    ) -> "CoefficientQuery":
        factors = [fs.g(t, mode) for t in range(1, fs.n + 1)]
        return cls(factors, mode, frontier_cap=frontier_cap)

    def coefficient(self, delta_mask: int) -> int:
        """Coefficient of the monomial with variable set ``delta_mask``."""
        self.queries += 1
        if delta_mask < 0:
            raise ValueError(f"a mask is a set of variables, got negative {delta_mask}")
        if delta_mask & 1:
            raise ValueError("bit 0 of a mask is unused; variables start at 1")
        # Variables above n can never be produced by factors 1..n.
        if delta_mask >> (self.n + 1):
            return 0
        cached = self._reads[self.n][delta_mask]
        if cached is not None:
            return cached
        return self._compute(self.n, delta_mask)

    def _compute(self, i: int, delta: int) -> int:
        """Level-i coefficient of a mask the memo lacks; recurses only on misses."""
        d_low = delta & ~(1 << i)
        read = self._reads[i - 1]
        total = 0
        for xi_low, c, subs in self._by_top[i][delta >> i]:
            if xi_low & ~d_low:
                continue  # factor monomial sticks out of the demanded mask
            # the prefix supplies what the factor lacks, plus any part of the
            # overlap xi_low (the order of 'subs' is the memo's DFS order)
            required = d_low & ~xi_low
            inner = 0
            for sub in subs:
                v = read[required | sub]
                inner += self._compute(i - 1, required | sub) if v is None else v
            total += c * inner
        if self.mode == "gf2":
            total &= 1
        memo = self._memo[i]
        memo[delta] = total
        view = self._reads[i]
        if view is not memo:
            view[delta] = total
        elif len(memo) >= self._dense_at[i]:
            # callers keep reading the memo they hold; it stays complete
            view = self._reads[i] = [None] * (2 << i)
            for mask, v in memo.items():
                view[mask] = v
        if len(memo) > self.frontier_cap:
            raise ResourceCap(
                f"frontier at level {i} holds {len(memo)} masks (cap {self.frontier_cap})",
                where=f"level {i}",
                size=len(memo),
            )
        return total

    def frontier_sizes(self) -> list[int]:
        """Number of memoized masks per level (index 0 unused)."""
        return [len(m) for m in self._memo]

    def max_frontier(self) -> int:
        return max(self.frontier_sizes())


@dataclass(frozen=True)
class SweepVerdict:
    """Outcome of the bounded-solution satisfiability sweep."""

    k: int
    satisfiable: bool
    witness_mask: Optional[int]  # variables with delta = 1, None when UNSAT
    mode: str
    queries: int
    max_frontier: int
    frontier_sizes: tuple[int, ...] = ()
    capped: bool = False

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "verdict": (
                "SAT" if self.satisfiable
                else "UNKNOWN" if self.capped
                else "UNSAT-under-assumption"
            ),
            "witness": list(vars_of_mask(self.witness_mask))
            if self.witness_mask is not None
            else None,
            "mode": self.mode,
            "work": {
                "queries": self.queries,
                "max_frontier": self.max_frontier,
                "frontier_sizes": list(self.frontier_sizes),
            },
            "capped": self.capped,
        }


def sweep(
    fs: FactorSequence,
    k: int,
    mode: str = "gf2",
    *,
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
) -> SweepVerdict:
    """Query every mask with at most k zeros, grade-descending, lex within grade.

    Stops at the first witness.  Both modes decide by parity: the indicator
    identity lives mod 2, so an even integer coefficient vanishes in it, and
    the two modes always return the same verdict.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n = fs.n
    q = CoefficientQuery.from_factor_sequence(fs, mode, frontier_cap=frontier_cap)
    full = ((1 << (n + 1)) - 1) & ~1  # variables 1..n
    masks = (
        full & ~mask_of_vars(zero_positions)
        for zeros in range(0, min(k, n) + 1)
        for zero_positions in combinations(range(1, n + 1), zeros)
    )
    witness, capped = None, False
    try:
        witness = next((mask for mask in masks if q.coefficient(mask) % 2), None)
    except ResourceCap:
        capped = True
    return SweepVerdict(
        k=k,
        satisfiable=witness is not None,
        witness_mask=witness,
        mode=mode,
        queries=q.queries,
        max_frontier=q.max_frontier(),
        frontier_sizes=tuple(q.frontier_sizes()),
        capped=capped,
    )


@dataclass(frozen=True)
class DecisionResult:
    """Full-pipeline decision: relabel, sort, factor, sweep."""

    verdict: SweepVerdict
    relabel_perm: tuple[int, ...]  # perm[new - 1] = original variable
    witness_original_vars: Optional[tuple[int, ...]]

    def to_json(self) -> dict:
        data = self.verdict.to_json()
        data["relabel_perm"] = list(self.relabel_perm)
        data["witness_original_vars"] = (
            sorted(self.witness_original_vars)
            if self.witness_original_vars is not None
            else None
        )
        return data


def decide_sat_bounded(
    f: Formula,
    k: int,
    mode: str = "gf2",
    *,
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
) -> DecisionResult:
    relabeled, perm = relabel_by_frequency(f)
    fs = factor_sequence(sort_clauses(relabeled))
    verdict = sweep(fs, k, mode, frontier_cap=frontier_cap)
    witness_orig = None
    if verdict.witness_mask is not None:
        witness_orig = tuple(
            sorted(perm[i - 1] for i in vars_of_mask(verdict.witness_mask))
        )
    return DecisionResult(
        verdict=verdict, relabel_perm=perm, witness_original_vars=witness_orig
    )
