"""Ternary solution matrices and their bounded distributive lattice.

A matrix is a set of rows over {0, 1, .}; the neutral '.' cell leaves its
variable free, so a row denotes a cube of assignments and a matrix denotes
their union.  The empty matrix (no rows) is the bottom element; the full
matrix (one all-neutral row) is the top.

The normal form keeps a row intact only when its neutral cells form a
trailing block (such a row covers one contiguous range in the ascending
binary order of assignments, the first support variable being the most
significant).  Other neutrals are split into explicit 0/1 rows, rows covered
by another row are dropped, and rows are listed in ascending binary order.
Semantic comparisons always go through the expanded assignment sets.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Iterable, Sequence

from . import descriptor as _descriptor_mod
from .anf import AnfPoly, bits_of_mask
from .descriptor import Descriptor
from .errors import EmptySet, TooLarge, VarOutOfRange
from .oracle import BRUTE_LIMIT

__all__ = ["NEUTRAL", "SMatrix", "descriptor_from_smatrix", "image"]

NEUTRAL = 2

_CELL_CHARS = {0: "0", 1: "1", NEUTRAL: "."}
_CHAR_CELLS = {"0": 0, "1": 1, ".": NEUTRAL}
_HEADER_TOKEN = re.compile(r"[xa]?([0-9]+)")


@dataclass(frozen=True)
class SMatrix:
    """Rows over {0,1,.} on an ordered variable support."""

    support: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if any(type(v) is not int for v in self.support):
            raise VarOutOfRange(f"support variables must be integers: {self.support}")
        if list(self.support) != sorted(set(self.support)):
            raise VarOutOfRange(f"support must be strictly increasing: {self.support}")
        if self.support and self.support[0] < 1:
            raise VarOutOfRange(f"variables start at 1: {self.support}")
        for row in self.rows:
            if len(row) != len(self.support):
                raise VarOutOfRange(f"row {row} does not match support {self.support}")
            if any(c not in (0, 1, NEUTRAL) for c in row):
                raise VarOutOfRange(f"bad cell in row {row}")

    # --- constructors -----------------------------------------------------

    @classmethod
    def empty(cls, support: Sequence[int]) -> "SMatrix":
        return cls(tuple(support), ())

    @classmethod
    def full(cls, support: Sequence[int]) -> "SMatrix":
        return cls(tuple(support), ((NEUTRAL,) * len(support),))

    @classmethod
    def from_assignments(
        cls, support: Sequence[int], assignments: Iterable[Sequence[int]]
    ) -> "SMatrix":
        rows = sorted(tuple(a) for a in assignments)
        return cls(tuple(support), tuple(rows))

    # --- structure --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def assignments(self) -> frozenset[tuple[int, ...]]:
        """All concrete assignments covered by the rows."""
        out: set[tuple[int, ...]] = set()
        for row in self.rows:
            free = [i for i, c in enumerate(row) if c == NEUTRAL]
            base = list(row)
            for values in product((0, 1), repeat=len(free)):
                for i, v in zip(free, values):
                    base[i] = v
                out.add(tuple(base))
        return frozenset(out)

    def same_set(self, other: "SMatrix") -> bool:
        a, b = _align(self, other)
        return a.assignments() == b.assignments()

    # --- operations -------------------------------------------------------

    def extend(self, variables: Sequence[int]) -> "SMatrix":
        """Add neutral columns for new variables; row count is unchanged."""
        new_support = tuple(sorted(set(variables)))
        if not set(self.support) <= set(new_support):
            raise VarOutOfRange(
                f"extension {new_support} does not contain support {self.support}"
            )
        positions = {v: i for i, v in enumerate(self.support)}
        rows = tuple(
            tuple(row[positions[v]] if v in positions else NEUTRAL for v in new_support)
            for row in self.rows
        )
        return SMatrix(new_support, rows)

    def canonicalize(self) -> "SMatrix":
        """Deterministic normal form; the represented set is unchanged."""
        prefixes = {p for row in self.rows for p in _concrete_prefixes(row)}
        # Drop blocks contained in a coarser block (their prefix extends it).
        kept = sorted(
            p for p in prefixes if not any(p[:k] in prefixes for k in range(len(p)))
        )
        width = len(self.support)
        rows = tuple(p + (NEUTRAL,) * (width - len(p)) for p in kept)
        return SMatrix(self.support, rows)

    def join(self, other: "SMatrix") -> "SMatrix":
        a, b = _align(self, other)
        return SMatrix(a.support, a.rows + b.rows).canonicalize()

    def meet(self, other: "SMatrix") -> "SMatrix":
        a, b = _align(self, other)
        rows = []
        for ra in a.rows:
            for rb in b.rows:
                merged = _merge_rows(ra, rb)
                if merged is not None:
                    rows.append(merged)
        return SMatrix(a.support, tuple(rows)).canonicalize()

    def __or__(self, other: "SMatrix") -> "SMatrix":
        return self.join(other)

    def __and__(self, other: "SMatrix") -> "SMatrix":
        return self.meet(other)

    # --- text and JSON ----------------------------------------------------

    def to_text(self) -> str:
        header = " ".join(f"x{v}" for v in self.support)
        lines = [header]
        for row in self.rows:
            lines.append(" ".join(_CELL_CHARS[c] for c in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse_text(cls, text: str) -> "SMatrix":
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
        if not lines:
            raise VarOutOfRange("matrix text needs a header line")
        tokens = [_HEADER_TOKEN.fullmatch(tok) for tok in lines[0].split()]
        if not all(tokens):
            raise VarOutOfRange(f"bad matrix header {lines[0]!r}")
        support = tuple(int(tok[1]) for tok in tokens)
        return cls(support, tuple(_cells(ln.split()) for ln in lines[1:]))

    def to_json(self) -> dict:
        return {
            "support": list(self.support),
            "rows": ["".join(_CELL_CHARS[c] for c in row) for row in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SMatrix":
        return cls(tuple(data["support"]), tuple(_cells(row) for row in data["rows"]))


def _cells(tokens: Iterable[str]) -> tuple[int, ...]:
    """Cells of a row written in '0', '1' and '.'; any other token raises VarOutOfRange."""
    try:
        return tuple(_CHAR_CELLS[tok] for tok in tokens)
    except KeyError as exc:
        raise VarOutOfRange(f"bad cell {exc.args[0]!r}") from None


def _concrete_prefixes(row: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cut a row into blocks with neutral suffixes, each given by its concrete prefix."""
    last_concrete = -1
    for i, c in enumerate(row):
        if c != NEUTRAL:
            last_concrete = i
    interior = [i for i in range(last_concrete) if row[i] == NEUTRAL]
    out = []
    for values in product((0, 1), repeat=len(interior)):
        cells = list(row[: last_concrete + 1])
        for i, v in zip(interior, values):
            cells[i] = v
        out.append(tuple(cells))
    return out


def _align(a: SMatrix, b: SMatrix) -> tuple[SMatrix, SMatrix]:
    if a.support == b.support:
        return a, b
    joint = sorted(set(a.support) | set(b.support))
    return a.extend(joint), b.extend(joint)


def _merge_rows(ra: tuple[int, ...], rb: tuple[int, ...]) -> tuple[int, ...] | None:
    out = []
    for ca, cb in zip(ra, rb):
        if ca == cb:
            out.append(ca)
        elif ca == NEUTRAL:
            out.append(cb)
        elif cb == NEUTRAL:
            out.append(ca)
        else:
            return None  # conflicting concrete cells
    return tuple(out)


def descriptor_from_smatrix(a: SMatrix) -> Descriptor:
    """Descriptor whose image is exactly the matrix's assignment set.

    The descriptor is indexed by the matrix's support positions: column k of
    the matrix corresponds to variable k of the descriptor.  The set's prefix
    tree is walked one level at a time: where both values of x_i continue a
    node, h_i is a_i there; otherwise h_i is the value that does.  Up to the
    size where builds run on tables the entries are truth tables; above it a
    table would need 2**n bits, so they are polynomials.
    """
    if a.is_empty:
        raise EmptySet("no descriptor exists for the empty solution set")
    n = len(a.support)
    points = sorted(a.assignments())
    on_tables = _descriptor_mod._on_tables(n)
    # A node is the range of points that share one prefix x_1..x_i, with the
    # indicator of the arguments a_1..a_i that reach it: a 2**i-bit table, or
    # the cube over the levels where the path branched.  Indicators of nodes
    # on one level are disjoint, so + is their union in either form.
    nodes = [(0, len(points), 1 if on_tables else AnfPoly.one())]
    entries = []
    for i in range(n):
        entry, children = (0 if on_tables else AnfPoly.zero()), []
        for lo, hi, reach in nodes:
            # reach over a_1..a_{i+1}, split where a_{i+1} is 0 and 1
            if on_tables:
                low, rise = reach, reach << (1 << i)
            else:
                rise = reach * AnfPoly.var(i + 1)
                low = reach + rise
            mid = bisect_left(points, 1, lo, hi, key=itemgetter(i))
            if lo < mid < hi:
                entry += rise
                children += [(lo, mid, low), (mid, hi, rise)]
            else:
                reach = low + rise
                if mid == lo:  # only the value 1 continues
                    entry += reach
                children.append((lo, hi, reach))
        entries.append(entry)
        nodes = children
    return _descriptor_mod._descriptor(entries, n)


def image(h: Descriptor) -> SMatrix:
    """Exhaustive image {H(alpha)} as a concrete matrix over variables 1..n."""
    if h.n > BRUTE_LIMIT:
        raise TooLarge(f"image enumeration over {h.n} > {BRUTE_LIMIT} variables")
    return SMatrix.from_assignments(
        tuple(range(1, h.n + 1)),
        (bits_of_mask(x << 1, h.n) for x in h.image_indices()),
    )

