"""Descriptor functions for 3-CNF formulas and the clause-merge engine.

A descriptor over n variables is a triangular vector [h_1 .. h_n] of GF(2)
multilinear polynomials, h_i depending on a_1..a_i only.  Merging a clause
combines the entry at its top level t with the clause's entry; a nonzero
residual pushes a constraint down the cascade, one equal to 1 means no
solution.  Elsewhere the clause entry is a_l, which keeps h_l with no residual
unless h_l negates a_l (h_l(p, 0) = 1, h_l(p, 1) = 0 at a prefix p).  Merges
and the substitution (it moves values between prefixes) never make a negating
entry from others, so no fold does (property (i)); ``merge`` rejects a
descriptor with one.

The merge ends with a substitution pass: for i = 1..n it replaces a_i by h_i
in every h_j, j > i.  Its output H' satisfies
h'_j(alpha) = f_j(H'(alpha)_{<j}, alpha_j), f being the entries it started
from.  No f_j negates a_j, so every map b -> f_j(p, b) is 0, 1 or b, hence
idempotent, and by induction on j (property (ii)):

- H' o H' = H', so the image of H' is its fixed-point set (Im H' = Fix H');
- h'_j(alpha) = h'_j(H'(alpha)_{<j}, alpha_j): an entry reads its prefix
  only through the lower entries.

Both hold for every descriptor that a fold or ``merge`` returns.  Fix H' is
{alpha : f_j(alpha) = alpha_j for all j}, so it is read off the entries
before the pass.

So a fold may skip most of the pass.  Let H be the descriptor a merge
starts from (a fold's, so H o H = H) and beta be alpha with alpha_i replaced
by h_i(alpha).  Then H(beta) = H(alpha): levels below i do not read
alpha_i, level i gives g(g(alpha_i)) = g(alpha_i), and each level above
reads H(beta) below it and its own variable.  So a_i -> h_i changes no
function of H(alpha) and alpha_j (j != i).  An entry the merge left alone
is such a function, and so is each entry it wrote: the t-entry's cube reads
lower entries, and the level merge, the residuals and their dead prefixes
(below) act prefix by prefix on such functions.  So while h_i is H's entry
and the pass has not changed h_j, a_i -> h_i is a no-op on h_j: the pass
applies it only when the merge wrote h_i, or the pass itself has changed
h_i or h_j.  The public ``merge`` cannot assume H o H = H of its input and
applies every pair.

Merges are exact: for every H with (i) and every clause c,
Fix merge(H, c) = Fix H & S(c), S(c) being the assignments that satisfy c.
A fold starts from the identity and keeps Fix = Im, so a build's image is
the solution set, and a build is UNSAT exactly when there is none.  Proof:
call a prefix p of length k live when f_i(p) = p_i for i <= k.  By (i) each
b -> f_i(p, b) fixes some b, so a live prefix extends to a point of Fix H.
At a live p the clause cube reads f_v(p) = p_v, so b -> (a_t + cube)(p, b)
is b or the constant that avoids the clause's forbidden value.  On two maps
in {0, 1, b} the level merge keeps their common fixed values, with residual
1 exactly where there are none (residual a_0 a_1: the maps differ at b = 0
and at b = 1).  So at live prefixes of length t - 1 the residual r is 1
exactly where no value of a_t survives.  Inductively, let r have top
variable j.  It does not read a_{j+1}..a_{t-1}, whose levels the merge has
not changed, so at a live q of length j, r(q) = 1 exactly when q has no
extension in Fix H & S(c).  The cascade merges g = a_j + r into f_j.  At a
live prefix q of length j - 1, the pair (r(q, 0), r(q, 1)) = 00, 10, 01, 11
makes g(q, .) = b, 1, 0, 1 - b.  Against f_j(q, .), the new residual is

    r =        00  10  01  11
    f_j = 0    0   1   0   1 (dead)
    f_j = 1    0   0   1   1 (dead)
    f_j = b    0   0   0   1

It is 1 exactly where every value b that f_j allows has r(q, b) = 1, so it
reads r only at live prefixes (q, b).  Where a value survives, the merged entry keeps the
surviving values.  The level merge reads g = 1 - b as "no constraint" and
leaves 0 under r = 11 in the rows of constant f_j.  So the cascade ORs in
dead = r(., 0) r(., 1), the prefixes where r forbids both values of a_j.
Down the chain every written level keeps, at each live prefix, exactly the
values with an extension in Fix H & S(c).  Residual 1 everywhere means that
the empty prefix has none.

So ``merge`` never drops a point of Fix H & S(c): ``dead`` forbids only
prefixes whose every extension r already forbids.  It adds no point either.
On a fold's descriptor Fix H = Im H; on other input Fix H may be smaller
than Im H (h = (0, a_1), say), and the merge answers for Fix H.

Up to ``_TABLE_MERGE_MAX_LEVEL`` variables the merge holds each entry h_i as
its 2**i-bit truth table over a_1..a_i (bit ``a`` is the value at the
assignment ``a << 1``, as in ``AnfPoly.truth_column``), and the resulting
descriptor keeps those tables, converting an entry to a polynomial only when
it is asked for.  Above it a table would need 2**n bits, so entries are
sparse monomial sets.  The merge is written once, in ``_merge_clause``; the
entry form only chooses its kernels: the level merge (``_merge_level`` or
``merge_poly``), the residual's top variable, the widening of a lower entry
to level t, the dead prefixes of a residual, and the final substitution pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Container, Iterable, Iterator, Optional, Sequence

from .anf import AnfPoly, all_ones_column, cube, moebius, set_bits, var_columns, widen
from .cnf import Clause3, SortedFormula, StaticSets, static_sets
from .errors import InvariantViolation, ResourceCap

__all__ = [
    "Descriptor",
    "MergeStep",
    "MergeTrace",
    "BuildResult",
    "DEFAULT_LEN_CAP",
    "MONITORED_CLAIM",
    "identity_descriptor",
    "clause_forbidden_monomial",
    "clause_descriptor",
    "merge_poly",
    "merge",
    "build",
    "profile_csv",
    "PROFILE_HEADER",
]

# Exactness of merge/build against brute force (module docstring), which the
# falsifier keeps checking.
MONITORED_CLAIM = "MERGE_SOUNDNESS"

DEFAULT_LEN_CAP = 1 << 20

PROFILE_HEADER = "# anf-sat-lab profile v1"

# Tables stay at most 2**20 bits; var_columns caches l of them per level.
# Builds over at most this many variables run entirely on tables.
_TABLE_MERGE_MAX_LEVEL = 20


@dataclass(frozen=True, eq=False, repr=False, init=False)
class Descriptor:
    """Triangular vector of polynomials; h_i may use a_1..a_i, and a fold's h_i never negates a_i.

    A descriptor built on tables (``from_tables``) holds entry i as its
    2**i-bit truth table over a_1..a_i and creates each ``AnfPoly`` entry on
    first use of ``h``, ``entry`` or ``to_json``.  Equality, hash and repr
    are those of the polynomials, whichever representation is held.
    """

    n: int
    _polys: list  # h_i at [i - 1]; None until converted from its table

    def __init__(self, n: int, h: Sequence[AnfPoly]):
        if len(h) != n:
            raise InvariantViolation(f"expected {n} entries, got {len(h)}")
        for i, poly in enumerate(h, start=1):
            if poly.max_var() > i:
                raise InvariantViolation(
                    f"h_{i} uses variable {poly.max_var()} > {i} (not triangular)"
                )
        vars(self).update(n=n, _polys=list(h))

    @classmethod
    def from_tables(cls, n: int, tables: Sequence[int]) -> "Descriptor":
        """Descriptor whose entry i is the 2**i-bit truth table ``tables[i - 1]``."""
        if len(tables) != n:
            raise InvariantViolation(f"expected {n} entries, got {len(tables)}")
        for i, table in enumerate(tables, start=1):
            if table < 0 or table >> (1 << i):
                raise InvariantViolation(f"table of h_{i} does not fit in 2**{i} bits")
        d = object.__new__(cls)
        vars(d).update(n=n, _polys=[None] * n, tables=tuple(tables))
        return d

    @property
    def h(self) -> tuple[AnfPoly, ...]:
        """All entries as polynomials, h[i - 1] = h_i."""
        return tuple(self.entry(i) for i in range(1, self.n + 1))

    def entry(self, i: int) -> AnfPoly:
        """1-based access: entry(i) is h_i."""
        poly = self._polys[i - 1]
        if poly is None:
            table = self.tables[i - 1]
            if table == var_columns(i)[i]:
                poly = AnfPoly.var(i)
            else:
                poly = AnfPoly.from_truth_column(table, i)
            self._polys[i - 1] = poly
        return poly

    @cached_property
    def tables(self) -> tuple[int, ...]:
        """Entry i as its 2**i-bit truth table over a_1..a_i.

        Bit ``a`` of a table is the value at the assignment ``a << 1``.  A
        descriptor built from polynomials computes them once, 2**(n+1) bits
        in all.
        """
        return tuple(p.truth_column(i) for i, p in enumerate(self.h, start=1))

    @property
    def on_tables(self) -> bool:
        """Whether reads use the tables: up to the size where builds use them."""
        return _on_tables(self.n)

    def image_indices(self) -> set[int]:
        """Image {H(alpha)} as assignment indices (variable i is bit i - 1)."""
        # images[alpha] over a_1..a_i: the list over a_1..a_{i-1}, twice over.
        images = [0]
        for i, table in enumerate(self.tables):
            images += images
            for alpha in set_bits(table):
                images[alpha] |= 1 << i
        return set(images)

    def to_json(self) -> list[str]:
        return [p.to_text("a") for p in self.h]

    @classmethod
    def from_json(cls, texts: Sequence[str]) -> "Descriptor":
        return cls(n=len(texts), h=tuple(AnfPoly.parse(t) for t in texts))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.on_tables and other.on_tables:
            return self.tables == other.tables
        return self.h == other.h

    def __hash__(self) -> int:
        return hash((self.n, self.h))

    def __repr__(self) -> str:
        return f"Descriptor(n={self.n!r}, h={self.h!r})"


def identity_descriptor(n: int) -> Descriptor:
    """Descriptor of the full solution set: h_i = a_i."""
    return Descriptor(n=n, h=tuple(AnfPoly.var(i) for i in range(1, n + 1)))


def clause_forbidden_monomial(clause: Clause3) -> AnfPoly:
    """Indicator of a clause's forbidden cube, e.g. (x1+1)(x2+1)x3."""
    return cube(
        (AnfPoly.var(lit.var), b) for lit, b in zip(clause.lits, clause.forbidden_triple())
    )


def clause_descriptor(clause: Clause3, n: int) -> Descriptor:
    """Single-clause descriptor: identity except at the clause's top variable.

    The t-entry adds the clause's forbidden-triple indicator to a_t, so the
    one assignment falsifying the clause is redirected to its neighbour.
    """
    _check_clause_fits(clause, n)
    entries = [AnfPoly.var(i) for i in range(1, n + 1)]
    entries[clause.t - 1] = clause_forbidden_monomial(clause) + AnfPoly.var(clause.t)
    return Descriptor(n=n, h=tuple(entries))


def _check_clause_fits(clause: Clause3, n: int) -> None:
    if clause.t > n:
        raise InvariantViolation(f"clause variable {clause.t} exceeds n = {n}")


def merge_poly(f_l: AnfPoly, g_l: AnfPoly, l: int) -> tuple[AnfPoly, AnfPoly]:
    """One level of the merge: combine f_l with an already-composed g_l.

    Returns (h_l, residual).  The residual is the product of the two
    level-l disagreement polynomials; it is zero when no constraint
    propagates downward, and the constant 1 when the merge is impossible.
    """
    if f_l.max_var() > l or g_l.max_var() > l:
        raise InvariantViolation(
            f"merge at level {l} received polynomials over higher variables"
        )
    f0, f1 = f_l.restrict(l, 0), f_l.restrict(l, 1)
    g0, g1 = g_l.restrict(l, 0), g_l.restrict(l, 1)
    a0 = f0 + g0
    a1 = f1 + g1
    p0 = f0 * g0
    p1 = f1 * g1
    al = AnfPoly.var(l)
    al1 = al + AnfPoly.one()
    h = al1 * (a0 * p1 + p0) + al * (a1 * a0 + a1 * p0 + p1)
    return h, a0 * a1


def _merge_level(f: int, g: int, l: int) -> tuple[int, int]:
    """One merge level on truth tables over a_1..a_l: + is XOR and * is AND.

    The low half of a table is its restriction a_l = 0, the high half its
    restriction a_l = 1; both are tables over a_1..a_{l-1}, as is the residual.
    """
    half = 1 << (l - 1)
    low = (1 << half) - 1
    f0, f1 = f & low, f >> half
    g0, g1 = g & low, g >> half
    a0, a1 = f0 ^ g0, f1 ^ g1
    p0, p1 = f0 & g0, f1 & g1
    return (a0 & p1 ^ p0) | (a1 & a0 ^ a1 & p0 ^ p1) << half, a0 & a1


@dataclass(frozen=True)
class MergeStep:
    """Trace record for one clause merge."""

    step: int  # 1-based position in the trace
    clause_index: int  # equal to step: step k merges the fold's k-th clause
    t: int
    situation: str  # 'A' | 'B' | 'C'
    chain: tuple[int, ...]  # cascade levels j, in firing order
    lens: tuple[int, ...]  # len(h_i) for i = 1..n after this merge
    unsat: bool = False

    @property
    def recursion_depth(self) -> int:
        return len(self.chain)


@dataclass(frozen=True)
class MergeTrace:
    """The merge steps of one build plus the derived predecessor structure."""

    formula: SortedFormula
    steps: tuple[MergeStep, ...]
    pred_edges: frozenset[tuple[int, int]]  # (from, to), to < from

    @property
    def n(self) -> int:
        return self.formula.n

    @cached_property
    def _preds(self) -> dict[int, frozenset[int]]:
        # Edges only go down, so in ascending order P(b) is final before (a, b) reads it.
        acc: dict[int, frozenset[int]] = {}
        for a, b in sorted(self.pred_edges):
            acc[a] = acc.get(a, frozenset()) | acc.get(b, frozenset()) | {b}
        return acc

    def predecessors(self, t: int) -> frozenset[int]:
        """P(t): all levels reachable through cascade edges from t."""
        return self._preds.get(t, frozenset())

    @cached_property
    def _sets(self) -> StaticSets:
        return static_sets(self.formula)

    @cached_property
    def _w_stars(self) -> dict[int, frozenset[int]]:
        acc = {t: set(self._sets.v[t]) for t in range(1, self.n + 1)}
        for u, preds in self._preds.items():
            for t in preds:
                acc[t] |= self._sets.v[u]
        return {t: frozenset(w) for t, w in acc.items()}

    def w_star(self, t: int) -> frozenset[int]:
        """Union of V(x_u) over successors u of t (t in P(u)), plus V(x_t)."""
        return self._w_stars[t]

    def w(self, t: int) -> frozenset[int]:
        """W(x_t) = W*(x_t) without indices above t; W(x_n) = V(x_n)."""
        return frozenset(i for i in self.w_star(t) if i <= t)


@dataclass(frozen=True)
class BuildResult:
    """Outcome of folding a formula's clauses into one descriptor.

    It keeps what the fold passed through; ``trace`` classifies and
    measures those steps on first read.
    """

    status: str  # 'ok' | 'unsat' | 'capped'
    descriptor: Optional[Descriptor]
    formula: SortedFormula
    chains: tuple[tuple[int, ...], ...]  # cascade levels of each merged clause
    # The entries before the first merge and after each merge, None for UNSAT.
    states: tuple[Optional[list], ...] = field(repr=False, compare=False)
    capped_at: Optional[tuple[int, int]] = None  # (level, len) when capped

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def unsat(self) -> bool:
        return self.status == "unsat"

    @property
    def capped(self) -> bool:
        return self.status == "capped"

    @cached_property
    def trace(self) -> MergeTrace:
        """One MergeStep per merged clause; step k merged ``states[k-1]`` into ``states[k]``.

        An entry equal to the same entry before the step keeps its length;
        an UNSAT step keeps the lengths before it.
        """
        steps, edges = [], set()
        before = self.states[0]
        lens = tuple(_entry_len(entry, l) for l, entry in enumerate(before, start=1))
        merged = zip(self.formula.clauses, self.chains, self.states[1:])
        for k, (clause, chain, after) in enumerate(merged, start=1):
            if after is None or chain:
                situation = "C"
            elif after == before:
                situation = "A"
            else:
                situation = "B"
            if after is not None:
                lens = tuple(
                    size if entry == old else _entry_len(entry, l)
                    for l, (entry, old, size) in enumerate(zip(after, before, lens), start=1)
                )
            steps.append(MergeStep(k, k, clause.t, situation, chain, lens, unsat=after is None))
            edges.update(zip((clause.t, *chain), chain))
            before = after
        return MergeTrace(self.formula, tuple(steps), frozenset(edges))


def _check_cap(entry: AnfPoly | int, l: int, cap: int) -> None:
    """Raise ResourceCap when len(h_l) exceeds the cap; callers skip 2**l <= cap."""
    size = _entry_len(entry, l)
    if size > cap:
        raise ResourceCap(f"len(h_{l}) = {size} exceeds cap {cap}", where=str(l), size=size)


def _merge_clause(
    f: list,
    clause: Clause3,
    n: int,
    cap: int,
    *,
    composed: bool = True,
) -> tuple[Optional[list], tuple[int, ...]]:
    """Merge one clause into ``f`` in place: level t, its cascade, then substitution.

    ``f`` holds entries that never negate their own variable (module docstring),
    as truth tables when ``_on_tables(n)`` and sparse polynomials otherwise.
    Returns (h list, cascade chain), with h None when a residual degenerates
    to the constant 1.  Raises ResourceCap when an entry it writes outgrows the cap.

    When ``composed`` (``f`` came from a fold, so H o H = H), the substitution
    applies a_i -> h_i to h_j only if the merge wrote h_i or the pass changed
    h_i or h_j; the module docstring shows the other pairs are no-ops.
    Otherwise it applies every pair.
    """
    _check_clause_fits(clause, n)
    tables = _on_tables(n)
    if tables:
        kernels = _merge_level, _table_top, _table_dead, widen, _substitute_tables
    else:
        kernels = merge_poly, _poly_top, _poly_dead, _same, _substitute_polys
    merge_level, top, dead, lift, substitute = kernels
    var, one = _units(n, tables)
    t = clause.t
    # a_t + the forbidden cube with a_v <- f_v below t
    cube = one[t]
    for lit, forbidden in zip(clause.lits, clause.forbidden_triple()):
        column = var[t] if lit.var == t else lift(f[lit.var - 1], lit.var, t)
        cube &= column if forbidden else one[t] ^ column
    f[t - 1], residual = merge_level(f[t - 1], var[t] ^ cube, t)
    if 1 << t > cap:  # len(h_l) <= 2**l at every level l
        _check_cap(f[t - 1], t, cap)
    chain: list[int] = []
    width = t - 1  # the residual is over a_1..a_width
    # Cascade: fold the residual constraint into ever-lower entries.
    while residual:
        if residual == one[width]:
            return None, tuple(chain)
        residual, j = top(residual, width)
        if chain and j >= chain[-1]:
            raise InvariantViolation(f"cascade level {j} does not decrease (chain {chain})")
        chain.append(j)
        # a_j + r negates a_j where r forbids both values; the level merge misses
        # those prefixes when f_j is constant there, so add them to its residual.
        forbidden = dead(residual, j)
        f[j - 1], residual = merge_level(f[j - 1], residual ^ var[j], j)
        residual |= forbidden
        if 1 << j > cap:
            _check_cap(f[j - 1], j, cap)
        width = j - 1
    substitute(f, n, cap, {t, *chain} if composed else range(1, n + 1))
    return f, tuple(chain)


@cache
def _units(n: int, tables: bool) -> tuple[tuple, tuple]:
    """a_l and the constant 1 over a_1..a_l for l = 0..n, in one entry form (a_0 is 0)."""
    levels = range(n + 1)
    if tables:
        columns = _columns_up_to(n)
        return tuple(columns[l][l] for l in levels), tuple(map(all_ones_column, levels))
    return (AnfPoly.zero(), *map(AnfPoly.var, levels[1:])), (AnfPoly.one(),) * (n + 1)


@cache
def _columns_up_to(n: int) -> tuple[tuple[int, ...], ...]:
    """``var_columns(l)`` for l = 0..n: entry [l][i] is a_i over a_1..a_l."""
    return tuple(var_columns(l) for l in range(n + 1))


def _table_top(residual: int, width: int) -> tuple[int, int]:
    """(residual, j) with j its top variable and the residual cut to a_1..a_j."""
    # Its ANF uses a_width exactly when its two halves differ.
    half = 1 << (width - 1)
    while residual >> half == residual & ((1 << half) - 1):
        residual >>= half
        width -= 1
        half >>= 1
    return residual, width


def _poly_top(residual: AnfPoly, width: int) -> tuple[AnfPoly, int]:
    return residual, residual.max_var()


def _table_dead(residual: int, j: int) -> int:
    """The prefixes over a_1..a_{j-1} where both halves of the residual over a_j are 1."""
    half = 1 << (j - 1)
    return residual & ((1 << half) - 1) & residual >> half


def _poly_dead(residual: AnfPoly, j: int) -> AnfPoly:
    return residual.restrict(j, 0) * residual.restrict(j, 1)


def _same(poly: AnfPoly, k: int, n: int) -> AnfPoly:
    """A polynomial over a_1..a_k is one over a_1..a_n as it is."""
    return poly


def _substitute_tables(h: list[int], n: int, cap: int, written: Container[int]) -> None:
    """Final substitution pass on tables: a_i -> h_i is a mux between the cofactors."""
    columns = _columns_up_to(n)
    rewritten: set[int] = set()
    for i, targets in _pairs(n, written, rewritten):
        hi = h[i - 1]
        if hi == columns[i][i]:
            continue
        shift = 1 << (i - 1)
        width = i  # hi is a table over a_1..a_width
        for j in targets:
            hj = h[j - 1]
            at_one = hj & columns[j][i]
            r0 = hj ^ at_one
            if at_one == r0 << shift:  # h_j does not depend on a_i: the mux is a no-op
                continue
            while width < j:  # h_i over a_1..a_j
                hi |= hi << (1 << width)
                width += 1
            r0 |= r0 << shift
            r1 = at_one | at_one >> shift
            h[j - 1] = new = r0 ^ (r0 ^ r1) & hi
            if new != hj:
                rewritten.add(j)
            if 1 << j > cap:
                _check_cap(new, j, cap)


def _substitute_polys(h: list[AnfPoly], n: int, cap: int, written: Container[int]) -> None:
    """Final substitution pass on polynomials: a_i -> h_i inside every higher entry."""
    rewritten: set[int] = set()
    for i, targets in _pairs(n, written, rewritten):
        hi = h[i - 1]
        if hi == AnfPoly.var(i):
            continue
        for j in targets:
            hj = h[j - 1]
            h[j - 1] = new = hj.substitute(i, hi)
            if new != hj:
                rewritten.add(j)
            if 1 << j > cap:
                _check_cap(new, j, cap)


def _pairs(
    n: int, written: Container[int], rewritten: set[int]
) -> Iterator[tuple[int, Iterable[int]]]:
    """Yield (i, levels j > i ascending) where the pass applies a_i -> h_i to h_j.

    Every j when the merge wrote h_i or the pass rewrote it; otherwise only
    the j whose h_j the pass rewrote (module docstring), read as the pass
    adds to ``rewritten``.
    """
    for i in range(1, n + 1):
        if i in written or i in rewritten:
            yield i, range(i + 1, n + 1)
        elif rewritten:
            yield i, sorted(j for j in rewritten if j > i)


def _table_len(table: int, l: int) -> int:
    """len() of the polynomial with this truth table over a_1..a_l."""
    return moebius(table, l).bit_count()


def _on_tables(n: int) -> bool:
    return n <= _TABLE_MERGE_MAX_LEVEL


def _entry_len(entry: AnfPoly | int, l: int) -> int:
    if isinstance(entry, AnfPoly):
        return len(entry)
    return 1 if entry == var_columns(l)[l] else _table_len(entry, l)  # a_l without a transform


def _descriptor(entries: list, n: int) -> Descriptor:
    """The descriptor of entries held as ``_merge_clause`` holds them."""
    if _on_tables(n):
        return Descriptor.from_tables(n, entries)
    return Descriptor(n=n, h=tuple(entries))


def merge(f: Descriptor, clause: Clause3, *, cap: int = DEFAULT_LEN_CAP) -> Optional[Descriptor]:
    """Merge one clause into a descriptor; None signals an unsatisfiable result.

    The result's image is Fix f & S(clause) for every input with property
    (i), and None means that set is empty (module docstring).  That is exact,
    Im f & S(clause), when Fix f = Im f, as on every descriptor a fold or
    ``merge`` returns; on other input it keeps only f's fixed points.

    The cap bounds only the entries the merge writes.  An entry that negates
    its own variable, which no fold makes, raises InvariantViolation.
    """
    tables = _on_tables(f.n)
    entries = list(f.tables if tables else f.h)
    merge_level, var = _merge_level if tables else merge_poly, _units(f.n, tables)[0]
    # Merged with a_l, h_l leaves as residual the prefixes where it negates a_l.
    if any(merge_level(h_l, var[l], l)[1] for l, h_l in enumerate(entries, start=1)):
        raise InvariantViolation("an entry negates its own variable")
    h, _ = _merge_clause(entries, clause, f.n, cap, composed=False)
    return None if h is None else _descriptor(h, f.n)


def build(
    f: SortedFormula,
    *,
    cap: int = DEFAULT_LEN_CAP,
) -> BuildResult:
    """Fold all clauses of a sorted formula into a single descriptor."""
    states: list[Optional[list]] = [list(_units(f.n, _on_tables(f.n))[0][1:])]
    chains: list[tuple[int, ...]] = []
    status, capped_at = "ok", None
    for clause in f.clauses:
        try:
            h, chain = _merge_clause(list(states[-1]), clause, f.n, cap)
        except ResourceCap as exc:
            status, capped_at = "capped", (int(exc.where), exc.size)
            break
        states.append(h)
        chains.append(chain)
        if h is None:
            status = "unsat"
            break
    entries = states[-1]
    descriptor = None if entries is None else _descriptor(entries, f.n)
    return BuildResult(status, descriptor, f, tuple(chains), tuple(states), capped_at)


def profile_csv(trace: MergeTrace) -> str:
    """Render a trace as the versioned profile CSV.

    Main rows: step, clause_index, t, len_h_t, log2_len_h_t, situation,
    recursion_depth.  A predecessor/window summary follows after a comment
    line (t, P, V, W_star, W joined with ';').
    """
    lines = [PROFILE_HEADER]
    lines.append("step,clause_index,t,len_h_t,log2_len_h_t,situation,recursion_depth")
    for s in trace.steps:
        if s.unsat:
            lines.append(f"{s.step},{s.clause_index},{s.t},0,,UNSAT,{s.recursion_depth}")
            continue
        ln = s.lens[s.t - 1]
        log2 = f"{math.log2(ln):.3f}" if ln > 0 else ""
        lines.append(
            f"{s.step},{s.clause_index},{s.t},{ln},{log2},{s.situation},{s.recursion_depth}"
        )
    lines.append("# predecessors and windows")
    lines.append("t,P,V,W_star,W")
    sets = trace._sets
    for t in range(1, trace.n + 1):
        p = ";".join(str(j) for j in sorted(trace.predecessors(t)))
        v = ";".join(str(j) for j in sorted(sets.v[t]))
        ws = ";".join(str(j) for j in sorted(trace.w_star(t)))
        w = ";".join(str(j) for j in sorted(trace.w(t)))
        lines.append(f"{t},{p},{v},{ws},{w}")
    return "\n".join(lines) + "\n"
