"""3-CNF instances: parsing, validation, clause ordering, clause groups,
renaming and structural sets.

Clauses hold exactly three literals over distinct variables, stored in
ascending variable order.  Variables are 1-based everywhere in this module's
API and I/O, matching DIMACS conventions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import HeaderMismatch, MalformedClause, VarOutOfRange

__all__ = [
    "Literal",
    "Clause3",
    "Formula",
    "SortedFormula",
    "StaticSets",
    "parse_dimacs",
    "to_dimacs",
    "formula_from_json",
    "formula_to_json",
    "sort_clauses",
    "relabel_by_frequency",
    "rename",
    "split_plus_minus",
    "subproblem",
    "static_sets",
]


class Literal(NamedTuple):
    var: int
    negated: bool

    @property
    def signed(self) -> int:
        return -self.var if self.negated else self.var


@dataclass(frozen=True)
class Clause3:
    """Three literals with strictly ascending variable indices r < s < t."""

    lits: tuple[Literal, Literal, Literal]

    def __post_init__(self) -> None:
        lits = self.lits
        if len(lits) != 3 or not lits[0].var < lits[1].var < lits[2].var:
            vs = [l.var for l in lits]
            raise MalformedClause(f"clause variables must satisfy r < s < t, got {vs}")

    @classmethod
    def from_signed(cls, lits: Iterable[int]) -> "Clause3":
        signed = sorted(lits, key=abs)  # stable: a repeated variable keeps input order
        if 0 in signed:
            raise ValueError("literal 0 is reserved as the clause terminator")
        if len(signed) != 3:
            raise MalformedClause(f"clause must have exactly 3 literals, got {len(signed)}")
        a, b, c = signed
        if not abs(a) < abs(b) < abs(c):
            raise MalformedClause(
                "clause mentions a variable twice (duplicate literal or tautology): "
                + " ".join(map(str, signed))
            )
        return cls((Literal(abs(a), a < 0), Literal(abs(b), b < 0), Literal(abs(c), c < 0)))

    @property
    def r(self) -> int:
        return self.lits[0].var

    @property
    def s(self) -> int:
        return self.lits[1].var

    @property
    def t(self) -> int:
        return self.lits[2].var

    @property
    def top_negated(self) -> bool:
        return self.lits[2].negated

    def signed(self) -> tuple[int, int, int]:
        return tuple(l.signed for l in self.lits)  # type: ignore[return-value]

    def forbidden_triple(self) -> tuple[int, int, int]:
        """The unique non-satisfying values for (x_r, x_s, x_t)."""
        return tuple(1 if l.negated else 0 for l in self.lits)  # type: ignore[return-value]


@dataclass(frozen=True)
class Formula:
    """A 3-CNF instance over variables 1..n."""

    n: int
    clauses: tuple[Clause3, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise VarOutOfRange(f"variable count must be >= 0, got {self.n}")
        for cl in self.clauses:
            if cl.t > self.n:
                raise VarOutOfRange(
                    f"clause {cl.signed()} uses variable {cl.t} > n = {self.n}"
                )

    @property
    def m(self) -> int:
        return len(self.clauses)

    @property
    def delta(self) -> Fraction:
        """Clause-to-variable ratio m/n."""
        if self.n == 0:
            return Fraction(0)
        return Fraction(self.m, self.n)

    @cached_property
    def _forbidden_cubes(self) -> tuple[tuple[int, int], ...]:
        # Clause k is false exactly where assignment & vars == values.
        return tuple(
            (
                sum(1 << l.var for l in cl.lits),
                sum(1 << l.var for l in cl.lits if l.negated),
            )
            for cl in self.clauses
        )

    def eval_mask(self, assignment: int) -> bool:
        for variables, values in self._forbidden_cubes:
            if assignment & variables == values:
                return False
        return True


@dataclass(frozen=True)
class SortedFormula(Formula):
    """Formula whose clauses follow the (t ascending, negated-t first) order.

    ``witness`` maps sorted position k (0-based) to the clause's position in
    the pre-sort input.
    """

    witness: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        keys = list(map(_sort_key, self.clauses))
        for a, b, key_a, key_b in zip(self.clauses, self.clauses[1:], keys, keys[1:]):
            if key_a > key_b:
                raise MalformedClause(
                    f"clauses {a.signed()} and {b.signed()} are out of order"
                )

    @cached_property
    def groups(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Entry t: 1-based positions of the clauses whose top variable is t,
        split into (x_t negated, x_t positive); entry 0 is empty."""
        groups: list[tuple[list[int], list[int]]] = [([], []) for _ in range(self.n + 1)]
        for pos, cl in enumerate(self.clauses, start=1):
            groups[cl.t][0 if cl.top_negated else 1].append(pos)
        return tuple((tuple(minus), tuple(plus)) for minus, plus in groups)


def _sort_key(cl: Clause3) -> tuple[int, int]:
    # Negative occurrences of the top variable come first within a t-group.
    return (cl.t, 0 if cl.top_negated else 1)


def sort_clauses(f: Formula) -> SortedFormula:
    """Stable sort by (t ascending, negated-x_t before positive-x_t)."""
    order = sorted(range(f.m), key=lambda k: _sort_key(f.clauses[k]))
    return SortedFormula(
        n=f.n,
        clauses=tuple(f.clauses[k] for k in order),
        witness=tuple(order),
    )


def relabel_by_frequency(f: Formula) -> tuple[Formula, tuple[int, ...]]:
    """Rename variables so occurrence counts are non-increasing in the index.

    Returns (relabeled formula, perm) where ``perm[new - 1]`` is the old
    index now called ``new``.  Ties keep the old index order.
    """
    counts = [0] * (f.n + 1)
    for cl in f.clauses:
        for l in cl.lits:
            counts[l.var] += 1
    by_freq = tuple(sorted(range(1, f.n + 1), key=lambda v: (-counts[v], v)))
    return rename(f, by_freq), by_freq


def rename(f: Formula, order: Sequence[int]) -> Formula:
    """The formula over variables 1..len(order) in which ``order[k - 1]`` becomes k.

    An ``order`` that names a variable twice raises MalformedClause.
    """
    new = {old: k for k, old in enumerate(order, start=1)}
    if len(new) != len(order):
        raise MalformedClause("renaming order names a variable twice")
    clauses = tuple(
        Clause3(tuple(sorted(Literal(new[v], neg) for v, neg in cl.lits)))
        for cl in f.clauses
    )
    return Formula(n=len(order), clauses=clauses)


def split_plus_minus(f: SortedFormula, t: int) -> tuple[SortedFormula, SortedFormula]:
    """Clauses with highest variable t, split by the polarity of x_t."""
    if not 1 <= t <= f.n:
        raise VarOutOfRange(f"t must be in 1..{f.n}, got {t}")
    minus, plus = f.groups[t]
    return subproblem(f, plus), subproblem(f, minus)


def subproblem(f: SortedFormula, indices: Iterable[int]) -> SortedFormula:
    """Sub-formula with exactly the clauses at the given 1-based positions."""
    wanted = set(indices)
    for k in wanted:
        if not 1 <= k <= f.m:
            raise VarOutOfRange(f"clause index {k} outside 1..{f.m}")
    clauses = tuple(f.clauses[k - 1] for k in sorted(wanted))
    return SortedFormula(n=f.n, clauses=clauses, witness=())


@dataclass(frozen=True)
class StaticSets:
    """Per-variable structural sets of a sorted formula.

    ``cl[t]`` holds the 1-based positions of clauses whose highest variable
    is t; ``v[t]`` the variables occurring in those clauses; ``m_plus`` /
    ``m_minus`` count them by the polarity of x_t.
    """

    n: int
    cl: tuple[frozenset[int], ...] = field(repr=False)
    v: tuple[frozenset[int], ...] = field(repr=False)
    m_plus: tuple[int, ...]
    m_minus: tuple[int, ...]


def static_sets(f: SortedFormula) -> StaticSets:
    cl = tuple(frozenset(minus + plus) for minus, plus in f.groups)
    return StaticSets(
        n=f.n,
        cl=cl,
        v=tuple(frozenset(l.var for k in ks for l in f.clauses[k - 1].lits) for ks in cl),
        m_plus=tuple(len(plus) for _, plus in f.groups),
        m_minus=tuple(len(minus) for minus, _ in f.groups),
    )


# --- DIMACS and JSON I/O ----------------------------------------------------


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Accepts 'c' comment lines, arbitrary whitespace, clauses spanning lines,
    and the trailing '%' end marker found in some benchmark files.
    """
    n = None
    m = None
    tokens: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break  # benchmark-style end marker; ignore the rest
        if line.startswith("p"):
            if n is not None:
                raise HeaderMismatch("duplicate 'p' header line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise HeaderMismatch(f"bad problem line: {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise HeaderMismatch(f"bad problem line: {line!r}") from exc
            continue
        try:
            tokens.extend(int(tok) for tok in line.split())
        except ValueError as exc:
            raise MalformedClause(f"non-integer token in clause line: {line!r}") from exc
    if n is None or m is None:
        raise HeaderMismatch("missing 'p cnf n m' header")

    clauses: list[Clause3] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            clauses.append(Clause3.from_signed(current))
            current = []
        else:
            current.append(tok)
    if current:
        raise HeaderMismatch("last clause is not 0-terminated")
    if len(clauses) != m:
        raise HeaderMismatch(f"header claims {m} clauses, body has {len(clauses)}")
    for cl in clauses:
        for l in cl.lits:
            if l.var > n:
                raise VarOutOfRange(f"literal {l.signed} exceeds n = {n}")
    return Formula(n=n, clauses=tuple(clauses))


def to_dimacs(f: Formula) -> str:
    lines = [f"p cnf {f.n} {f.m}"]
    for cl in f.clauses:
        lines.append(" ".join(str(l) for l in cl.signed()) + " 0")
    return "\n".join(lines) + "\n"


def formula_to_json(f: Formula) -> str:
    return json.dumps(
        {"n": f.n, "clauses": [list(cl.signed()) for cl in f.clauses]},
        sort_keys=True,
    )


def formula_from_json(text: str) -> Formula:
    data = json.loads(text)
    clauses = tuple(Clause3.from_signed(c) for c in data["clauses"])
    return Formula(n=int(data["n"]), clauses=clauses)
