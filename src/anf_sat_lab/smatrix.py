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

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .anf import AnfPoly, bits_of_mask
from .descriptor import Descriptor
from .errors import EmptySet, TooLarge, VarOutOfRange

__all__ = ["NEUTRAL", "SMatrix", "descriptor_from_smatrix", "image"]

NEUTRAL = 2

_CELL_CHARS = {0: "0", 1: "1", NEUTRAL: "."}
_CHAR_CELLS = {"0": 0, "1": 1, ".": NEUTRAL}


@dataclass(frozen=True)
class SMatrix:
    """Rows over {0,1,.} on an ordered variable support."""

    support: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if list(self.support) != sorted(set(self.support)):
            raise VarOutOfRange(f"support must be strictly increasing: {self.support}")
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
        blocks: set[tuple[tuple[int, ...], int]] = set()  # (concrete prefix, width)
        width = len(self.support)
        for row in self.rows:
            for block in _split_to_blocks(row):
                blocks.add(block)
        # Drop blocks contained in a coarser block (their prefix extends it).
        kept: list[tuple[int, ...]] = []
        prefixes = {p for p, _ in blocks}
        for prefix, _ in blocks:
            if any(prefix[:k] in prefixes for k in range(len(prefix))):
                continue
            kept.append(prefix)
        kept.sort()
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
        support = tuple(int(tok.lstrip("xa")) for tok in lines[0].split())
        rows = tuple(
            tuple(_CHAR_CELLS[tok] for tok in ln.split()) for ln in lines[1:]
        )
        return cls(support, rows)

    def to_json(self) -> dict:
        return {
            "support": list(self.support),
            "rows": ["".join(_CELL_CHARS[c] for c in row) for row in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SMatrix":
        return cls(
            tuple(data["support"]),
            tuple(tuple(_CHAR_CELLS[ch] for ch in row) for row in data["rows"]),
        )


def _split_to_blocks(row: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Cut a row into (concrete prefix, width) blocks with neutral suffixes."""
    width = len(row)
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
        out.append((tuple(cells), width))
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
    the matrix corresponds to variable k of the descriptor.  Splits on the
    first column at every recursion level.
    """
    if a.is_empty:
        raise EmptySet("no descriptor exists for the empty solution set")
    assignments = sorted(a.assignments())
    entries = _descriptor_entries(assignments, len(a.support))
    return Descriptor(n=len(a.support), h=tuple(entries))


def _descriptor_entries(
    assignments: Sequence[tuple[int, ...]], width: int
) -> list[AnfPoly]:
    if width == 0:
        return []
    zeros = sorted(t[1:] for t in assignments if t[0] == 0)
    ones = sorted(t[1:] for t in assignments if t[0] == 1)
    if zeros and ones:
        f = [_shift_up(p) for p in _descriptor_entries(zeros, width - 1)]
        g = [_shift_up(p) for p in _descriptor_entries(ones, width - 1)]
        a1 = AnfPoly.var(1)
        a1c = a1 + AnfPoly.one()
        entries = [a1]
        for fi, gi in zip(f, g):
            entries.append(a1c * fi + a1 * gi)
        return entries
    branch = zeros if zeros else ones
    head = AnfPoly.zero() if zeros else AnfPoly.one()
    rest = [_shift_up(p) for p in _descriptor_entries(branch, width - 1)]
    return [head] + rest


def _shift_up(p: AnfPoly) -> AnfPoly:
    """Rename every variable i to i + 1."""
    return AnfPoly._wrap(frozenset(m << 1 for m in p.masks))


def image(h: Descriptor, *, limit: int = 25) -> SMatrix:
    """Exhaustive image {H(alpha)} as a concrete matrix over variables 1..n."""
    if h.n > limit:
        raise TooLarge(f"image enumeration over {h.n} > {limit} variables")
    return SMatrix.from_assignments(
        tuple(range(1, h.n + 1)),
        (bits_of_mask(x << 1, h.n) for x in h.image_indices()),
    )

