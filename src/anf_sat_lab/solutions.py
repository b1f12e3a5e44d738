"""Fixed-point enumeration of descriptor solutions via the prefix tree.

A triangular descriptor admits a depth-first search over assignment
prefixes: at depth t the prefix is extended by b exactly when h_t evaluates
to b there.  Leaves at depth n are the fixed points H(x) = x, produced in
ascending binary order (x_1 most significant) without sorting.

On a built descriptor the search visits at most n * |Fix H| nodes.  A node
is a prefix p of length t < n with h_i(p) = p_i for i <= t.  As h_i reads
a_1..a_i only, H(p, 0, ..., 0) has prefix p, and it is a fixed point since
Im H = Fix H (property (ii), H o H = H, proved in the ``descriptor``
docstring).  So the nodes of each of the n lengths extend to distinct fixed
points.  A build's fixed points are the solutions (exactness, in the
``descriptor`` docstring), so that is n * #S nodes.  A parsed descriptor
need not satisfy (ii) and is not bounded so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .anf import AnfPoly, bits_of_mask, mask_of_bits
from .descriptor import Descriptor
from .errors import InvariantViolation

__all__ = ["SolutionSet", "SearchStats", "list_solutions", "intersect_images"]


@dataclass(frozen=True)
class SolutionSet:
    """Bit-vector solutions in ascending binary order (x_1 most significant)."""

    n: int
    solutions: tuple[tuple[int, ...], ...]
    truncated: bool = False

    @property
    def sigma(self) -> int:
        return len(self.solutions)

    def masks(self) -> frozenset[int]:
        """Solutions as bitmasks (bit i = variable i)."""
        return frozenset(mask_of_bits(sol) for sol in self.solutions)

    def to_dimacs_v_lines(self) -> str:
        lines = []
        for sol in self.solutions:
            lits = "".join(f" {i if b else -i}" for i, b in enumerate(sol, start=1))
            lines.append(f"v{lits} 0")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> list[list[int]]:
        return [list(sol) for sol in self.solutions]

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int], truncated: bool = False) -> "SolutionSet":
        sols = sorted(bits_of_mask(m, n) for m in masks)
        return cls(n=n, solutions=tuple(sols), truncated=truncated)


@dataclass
class SearchStats:
    nodes: int = 0
    emitted: int = 0
    hit_solution_cap: bool = False
    hit_node_cap: bool = False


def list_solutions(
    h: Descriptor,
    *,
    solution_cap: Optional[int] = None,
    node_cap: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> SolutionSet:
    """All fixed points of the descriptor, capped if requested."""
    return intersect_images(
        [h], solution_cap=solution_cap, node_cap=node_cap, stats=stats
    )


def intersect_images(
    descriptors: Sequence[Descriptor],
    *,
    solution_cap: Optional[int] = None,
    node_cap: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> SolutionSet:
    """Synchronized prefix search: extend only when every descriptor agrees.

    The result is the intersection of the descriptors' fixed-point sets.
    """
    if not descriptors:
        raise InvariantViolation("need at least one descriptor")
    n = descriptors[0].n
    if any(d.n != n for d in descriptors):
        raise InvariantViolation("descriptors must share the ambient size")
    st = stats if stats is not None else SearchStats()
    found: list[tuple[int, ...]] = []
    truncated = False

    # h_t at a candidate mask is bit candidate >> 1 of its 2**t-bit table;
    # descriptors too large for tables evaluate the polynomial instead.
    if descriptors[0].on_tables:
        levels = list(zip(*(d.tables for d in descriptors)))

        def value(table: int, candidate: int) -> int:
            return table >> (candidate >> 1) & 1

    else:
        levels = list(zip(*(d.h for d in descriptors)))
        value = AnfPoly.eval_mask

    # Iterative DFS; each stack item is (depth t, prefix mask of x_1..x_{t-1}).
    # Depth n+1 items are completed assignments.
    stack: list[tuple[int, int]] = [(1, 0)]
    while stack:
        t, prefix = stack.pop()
        if t == n + 1:
            if solution_cap is not None and len(found) >= solution_cap:
                st.hit_solution_cap = True
                truncated = True
                break
            found.append(bits_of_mask(prefix, n))
            st.emitted += 1
            continue
        st.nodes += 1
        if node_cap is not None and st.nodes > node_cap:
            st.hit_node_cap = True
            truncated = True
            break
        # Push b=1 below b=0 so the 0-branch is explored first: ascending order.
        level = levels[t - 1]
        for b in (1, 0):
            candidate = prefix | (b << t)
            for entry in level:
                if value(entry, candidate) != b:
                    break
            else:
                stack.append((t + 1, candidate))
    return SolutionSet(n=n, solutions=tuple(found), truncated=truncated)
