"""Descriptor functions for 3-CNF formulas and the clause-merge engine.

A descriptor over n variables is a triangular vector [h_1 .. h_n] of GF(2)
multilinear polynomials, h_i depending on a_1..a_i only.  Merging a clause
into a descriptor runs a descending sweep l = n..1; at each level the four
restrictions of the current entry and of the (composed) clause entry are
combined, and a nonzero residual pushes a derived constraint onto a lower
level, cascading until it vanishes.  A residual equal to the constant 1
means the conjunction has no solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .anf import AnfPoly, moebius
from .cnf import Clause3, SortedFormula, static_sets
from .errors import InvariantViolation, ResourceCap

__all__ = [
    "Descriptor",
    "MergeStep",
    "MergeTrace",
    "BuildResult",
    "DEFAULT_LEN_CAP",
    "MONITORED_CLAIM",
    "identity_descriptor",
    "clause_descriptor",
    "merge_poly",
    "merge",
    "build",
    "profile_csv",
    "PROFILE_HEADER",
]

# The soundness of merge/build against brute force is a monitored conjecture,
# checked by the falsifier rather than asserted by the test suite.
MONITORED_CLAIM = "MERGE_SOUNDNESS"

DEFAULT_LEN_CAP = 1 << 20

PROFILE_HEADER = "# anf-sat-lab profile v1"

# A merge at level l costs about l * 2**l bit operations on truth tables and
# at least len(f) * len(g) monomial products on sparse sets.  Timed per call
# (README, performance notes), the table path wins once
# 2**l <= _TABLE_MERGE_PAIRS * len(f) * len(g).
_TABLE_MERGE_PAIRS = 512
# Tables stay at most 2**20 bits; var_columns caches l of them per level.
_TABLE_MERGE_MAX_LEVEL = 20


@dataclass(frozen=True)
class Descriptor:
    """Triangular vector of polynomials; entry i may use variables 1..i."""

    n: int
    h: tuple[AnfPoly, ...]

    def __post_init__(self) -> None:
        if len(self.h) != self.n:
            raise InvariantViolation(f"expected {self.n} entries, got {len(self.h)}")
        for i, poly in enumerate(self.h, start=1):
            if poly.max_var() > i:
                raise InvariantViolation(
                    f"h_{i} uses variable {poly.max_var()} > {i} (not triangular)"
                )

    def entry(self, i: int) -> AnfPoly:
        """1-based access: entry(i) is h_i."""
        return self.h[i - 1]

    def is_identity(self) -> bool:
        return all(p == AnfPoly.var(i) for i, p in enumerate(self.h, start=1))

    def apply_mask(self, alpha: int) -> int:
        """Image of an assignment bitmask under the descriptor."""
        out = 0
        for i, poly in enumerate(self.h, start=1):
            if poly.eval_mask(alpha):
                out |= 1 << i
        return out

    def max_len(self) -> int:
        return max((len(p) for p in self.h), default=0)

    def to_json(self) -> list[str]:
        return [p.to_text("a") for p in self.h]

    @classmethod
    def from_json(cls, texts: Sequence[str]) -> "Descriptor":
        return cls(n=len(texts), h=tuple(AnfPoly.parse(t) for t in texts))


def identity_descriptor(n: int) -> Descriptor:
    """Descriptor of the full solution set: h_i = a_i."""
    return Descriptor(n=n, h=tuple(AnfPoly.var(i) for i in range(1, n + 1)))


def clause_descriptor(clause: Clause3, n: int) -> Descriptor:
    """Single-clause descriptor: identity except at the clause's top variable.

    The t-entry adds the clause's forbidden-triple indicator to a_t, so the
    one assignment falsifying the clause is redirected to its neighbour.
    """
    if clause.t > n:
        raise InvariantViolation(f"clause variable {clause.t} exceeds n = {n}")
    indicator = AnfPoly.one()
    for lit, forbidden in zip(clause.lits, clause.forbidden_triple()):
        factor = AnfPoly.var(lit.var)
        if forbidden == 0:
            factor = factor + AnfPoly.one()
        indicator = indicator * factor
    entries = [AnfPoly.var(i) for i in range(1, n + 1)]
    entries[clause.t - 1] = indicator + AnfPoly.var(clause.t)
    return Descriptor(n=n, h=tuple(entries))


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
    pairs = len(f_l) * len(g_l)
    if l <= _TABLE_MERGE_MAX_LEVEL and 1 << l <= _TABLE_MERGE_PAIRS * pairs:
        return _merge_tables(f_l, g_l, l)
    return _merge_sparse(f_l, g_l, l)


def _merge_sparse(f_l: AnfPoly, g_l: AnfPoly, l: int) -> tuple[AnfPoly, AnfPoly]:
    """``merge_poly`` by ring operations on monomial sets."""
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


def _merge_tables(f_l: AnfPoly, g_l: AnfPoly, l: int) -> tuple[AnfPoly, AnfPoly]:
    """``merge_poly`` on truth tables over a_1..a_l: + is XOR and * is AND.

    The low half of a table is its restriction a_l = 0, the high half its
    restriction a_l = 1; both are tables over a_1..a_{l-1}, as is the residual.
    """
    half = 1 << (l - 1)
    low = (1 << half) - 1
    f = moebius(f_l.coefficient_column(), l)
    g = moebius(g_l.coefficient_column(), l)
    f0, f1 = f & low, f >> half
    g0, g1 = g & low, g >> half
    a0, a1 = f0 ^ g0, f1 ^ g1
    p0, p1 = f0 & g0, f1 & g1
    h = (a0 & p1 ^ p0) | (a1 & a0 ^ a1 & p0 ^ p1) << half
    return (
        AnfPoly.from_coefficient_column(moebius(h, l)),
        AnfPoly.from_coefficient_column(moebius(a0 & a1, l - 1)),
    )


@dataclass(frozen=True)
class MergeStep:
    """Trace record for one clause merge."""

    step: int  # 1-based position in the build
    clause_index: int  # 1-based position in the sorted formula
    t: int
    situation: str  # 'A' | 'B' | 'C'
    chain: tuple[int, ...]  # cascade levels j, in firing order
    lens: tuple[int, ...]  # len(h_i) for i = 1..n after this merge
    composed_entry: str = ""  # clause t-entry with lower arguments substituted
    unsat: bool = False

    @property
    def recursion_depth(self) -> int:
        return len(self.chain)


@dataclass
class MergeTrace:
    """Accumulated merge steps plus the derived predecessor structure."""

    n: int
    steps: list[MergeStep] = field(default_factory=list)
    pred_edges: set[tuple[int, int]] = field(default_factory=set)  # (from, to), to < from
    formula: Optional[SortedFormula] = None

    def record(self, step: MergeStep) -> None:
        self.steps.append(step)
        prev = step.t
        for j in step.chain:
            self.pred_edges.add((prev, j))
            prev = j

    def predecessors(self, t: int) -> frozenset[int]:
        """P(t): all levels reachable through cascade edges from t."""
        seen: set[int] = set()
        frontier = [t]
        while frontier:
            u = frontier.pop()
            for a, b in self.pred_edges:
                if a == u and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return frozenset(seen)

    def w_star(self, t: int) -> frozenset[int]:
        """Union of V(x_u) over successors u of t (t in P(u)), plus V(x_t)."""
        if self.formula is None:
            raise InvariantViolation("trace has no formula attached")
        sets = static_sets(self.formula)
        out = set(sets.v_of(t))
        for u in range(t + 1, self.n + 1):
            if t in self.predecessors(u):
                out |= sets.v_of(u)
        return frozenset(out)

    def w(self, t: int) -> frozenset[int]:
        """W(x_t) = W*(x_t) without indices above t; W(x_n) = V(x_n)."""
        if t == self.n:
            if self.formula is None:
                raise InvariantViolation("trace has no formula attached")
            return static_sets(self.formula).v_of(t)
        return frozenset(i for i in self.w_star(t) if i <= t)


@dataclass(frozen=True)
class BuildResult:
    """Outcome of folding a formula's clauses into one descriptor."""

    status: str  # 'ok' | 'unsat' | 'capped'
    descriptor: Optional[Descriptor]
    trace: MergeTrace
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


class _Unsatisfiable(Exception):
    def __init__(self, chain: tuple[int, ...]):
        super().__init__("residual constraint degenerated to the constant 1")
        self.chain = chain


def _compose_clause_entry(g_t: AnfPoly, f: list[AnfPoly], t: int) -> AnfPoly:
    """Substitute a_i <- f_i (i < t) into the clause's t-entry."""
    out = g_t
    for i in sorted(v for v in g_t.support() if v < t):
        fi = f[i - 1]
        if fi == AnfPoly.var(i):
            continue
        out = out.substitute(i, fi)
    return out


def _merge_clause(
    f: list[AnfPoly],
    clause: Clause3,
    n: int,
    cap: int,
) -> tuple[list[AnfPoly], tuple[int, ...], str]:
    """Run the descending sweep for one clause.

    Returns (h list, cascade chain, composed clause entry as text).  Raises
    _Unsatisfiable when a residual degenerates to the constant 1 and
    ResourceCap when an entry outgrows the cap.
    """
    t = clause.t
    g_clause = clause_descriptor(clause, n).entry(t)
    h: list[AnfPoly] = [AnfPoly.zero()] * n
    chain: list[int] = []
    composed_text = ""
    for l in range(n, 0, -1):
        fl = f[l - 1]
        if l == t:
            gl = _compose_clause_entry(g_clause, f, t)
            composed_text = gl.to_text("a")
        else:
            gl = AnfPoly.var(l)
            if fl == gl:  # identity merged with identity stays identity
                h[l - 1] = fl
                continue
        h_l, residual = merge_poly(fl, gl, l)
        if len(h_l) > cap:
            raise ResourceCap(
                f"len(h_{l}) = {len(h_l)} exceeds cap {cap}", where=str(l), size=len(h_l)
            )
        h[l - 1] = h_l
        # Cascade: fold the residual constraint into ever-lower entries.
        while not residual.is_zero():
            if residual.is_one():
                raise _Unsatisfiable(tuple(chain))
            j = residual.max_var()
            if chain and j >= chain[-1]:
                raise InvariantViolation(
                    f"cascade level {j} does not decrease (chain {chain})"
                )
            chain.append(j)
            g_j = residual + AnfPoly.var(j)
            new_fj, residual = merge_poly(f[j - 1], g_j, j)
            if len(new_fj) > cap:
                raise ResourceCap(
                    f"len(h_{j}) = {len(new_fj)} exceeds cap {cap}",
                    where=str(j),
                    size=len(new_fj),
                )
            f[j - 1] = new_fj
    # Final substitution pass: a_i -> h_i inside every higher entry.
    for i in range(1, n + 1):
        hi = h[i - 1]
        if hi == AnfPoly.var(i):
            continue
        for j in range(i + 1, n + 1):
            h[j - 1] = h[j - 1].substitute(i, hi)
            if len(h[j - 1]) > cap:
                raise ResourceCap(
                    f"len(h_{j}) = {len(h[j - 1])} exceeds cap {cap}",
                    where=str(j),
                    size=len(h[j - 1]),
                )
    return h, tuple(chain), composed_text


def merge(
    f: Descriptor,
    clause: Clause3,
    trace: Optional[MergeTrace] = None,
    *,
    cap: int = DEFAULT_LEN_CAP,
    step: int = 1,
    clause_index: int = 1,
) -> Optional[Descriptor]:
    """Merge one clause into a descriptor; None signals an unsatisfiable result."""
    work = list(f.h)
    try:
        h, chain, composed = _merge_clause(work, clause, f.n, cap)
    except _Unsatisfiable as exc:
        if trace is not None:
            trace.record(
                MergeStep(
                    step=step,
                    clause_index=clause_index,
                    t=clause.t,
                    situation="C",
                    chain=exc.chain,
                    lens=tuple(len(p) for p in f.h),
                    unsat=True,
                )
            )
        return None
    result = Descriptor(n=f.n, h=tuple(h))
    if trace is not None:
        if chain:
            situation = "C"
        elif result.h == f.h:
            situation = "A"
        else:
            situation = "B"
        trace.record(
            MergeStep(
                step=step,
                clause_index=clause_index,
                t=clause.t,
                situation=situation,
                chain=chain,
                lens=tuple(len(p) for p in result.h),
                composed_entry=composed,
            )
        )
    return result


def build(
    f: SortedFormula,
    *,
    cap: int = DEFAULT_LEN_CAP,
) -> BuildResult:
    """Fold all clauses of a sorted formula into a single descriptor."""
    trace = MergeTrace(n=f.n, formula=f)
    current = identity_descriptor(f.n)
    for pos, clause in enumerate(f.clauses, start=1):
        try:
            merged = merge(
                current, clause, trace, cap=cap, step=pos, clause_index=pos
            )
        except ResourceCap as exc:
            return BuildResult(
                status="capped",
                descriptor=current,
                trace=trace,
                capped_at=(int(exc.where), exc.size),
            )
        if merged is None:
            return BuildResult(status="unsat", descriptor=None, trace=trace)
        current = merged
    return BuildResult(status="ok", descriptor=current, trace=trace)


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
    if trace.formula is not None:
        lines.append("# predecessors and windows")
        lines.append("t,P,V,W_star,W")
        sets = static_sets(trace.formula)
        for t in range(1, trace.n + 1):
            p = ";".join(str(j) for j in sorted(trace.predecessors(t)))
            v = ";".join(str(j) for j in sorted(sets.v_of(t)))
            ws = ";".join(str(j) for j in sorted(trace.w_star(t)))
            w = ";".join(str(j) for j in sorted(trace.w(t)))
            lines.append(f"{t},{p},{v},{ws},{w}")
    return "\n".join(lines) + "\n"
