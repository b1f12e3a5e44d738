"""Independent oracle helpers for the test suite.

These deliberately recompute things the slow way (pointwise evaluation and
enumeration) so engine paths are always checked against something simpler.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Optional

from anf_sat_lab.anf import AnfPoly, cube
from anf_sat_lab.cnf import Clause3, Formula
from anf_sat_lab.coeffs import clause_coeffs
from anf_sat_lab.descriptor import Descriptor, merge_poly
from anf_sat_lab.errors import InvariantViolation, ResourceCap
from anf_sat_lab.smatrix import NEUTRAL, SMatrix


def mask_from_bits(bits) -> int:
    """Assignment mask (bit i = variable i) from a bit vector."""
    m = 0
    for i, b in enumerate(bits, start=1):
        if b:
            m |= 1 << i
    return m


def truth_table(p: AnfPoly, n: int) -> tuple[int, ...]:
    """Pointwise evaluation over all assignments, in bit-vector order."""
    out = []
    for bits in product((0, 1), repeat=n):
        out.append(p.eval_mask(mask_from_bits(bits)))
    return tuple(out)


def cnf_truth_table(f: Formula) -> tuple[int, ...]:
    """Clause-by-clause CNF evaluation on every assignment."""
    out = []
    for bits in product((0, 1), repeat=f.n):
        mask = mask_from_bits(bits)
        out.append(1 if f.eval_mask(mask) else 0)
    return tuple(out)


def apply_mask(h: Descriptor, alpha: int) -> int:
    """Image of an assignment bitmask under the descriptor, entry by entry."""
    out = 0
    for i, poly in enumerate(h.h, start=1):
        if poly.eval_mask(alpha):
            out |= 1 << i
    return out


def descriptor_image_masks(h: Descriptor) -> frozenset[int]:
    """Exhaustive image of a descriptor as assignment masks."""
    seen = set()
    for bits in product((0, 1), repeat=h.n):
        seen.add(apply_mask(h, mask_from_bits(bits)))
    return frozenset(seen)


def descriptor_fixed_points(h: Descriptor) -> frozenset[int]:
    out = set()
    for bits in product((0, 1), repeat=h.n):
        mask = mask_from_bits(bits)
        if apply_mask(h, mask) == mask:
            out.add(mask)
    return frozenset(out)


def solution_masks(f: Formula) -> frozenset[int]:
    """Brute-force solution set by direct clause evaluation."""
    out = set()
    for bits in product((0, 1), repeat=f.n):
        mask = mask_from_bits(bits)
        if f.eval_mask(mask):
            out.add(mask)
    return frozenset(out)


def random_smatrix(rng: random.Random, n: int, max_rows: int = 8) -> SMatrix:
    support = tuple(range(1, n + 1))
    rows = []
    for _ in range(rng.randrange(max_rows + 1)):
        rows.append(tuple(rng.choice((0, 1, NEUTRAL)) for _ in range(n)))
    return SMatrix(support, tuple(rows))


def random_instance(rng: random.Random, n: int, max_m: int) -> Formula:
    """Random formula with m clamped to the distinct-clause capacity."""
    from anf_sat_lab.oracle import random_formula

    cap = 8 * (n * (n - 1) * (n - 2) // 6)
    m = rng.randrange(1, max(2, min(max_m, cap) + 1))
    return random_formula(n, m, rng.randrange(10**9))


def random_poly(rng: random.Random, n: int, max_terms: int = 6) -> AnfPoly:
    masks = []
    for _ in range(rng.randrange(max_terms + 1)):
        mask = 0
        for v in range(1, n + 1):
            if rng.getrandbits(1):
                mask |= 1 << v
        masks.append(mask)
    return AnfPoly(masks)


class ReferenceCoefficientQuery:
    """The plain recursive coefficient recursion, one call frame per lookup.

    ``_level_coeff`` is the engine's recursion as first written, kept
    verbatim as an independent reference: the engine's
    ``CoefficientQuery`` must reproduce its coefficients, its memo
    dicts (insertion order included), ``queries`` and its frontier-cap
    exception exactly.
    """

    def __init__(self, factors, mode: str = "gf2", *, frontier_cap: int):
        self.mode = mode
        self.n = len(factors)
        self.frontier_cap = frontier_cap
        self._coeff_maps = [clause_coeffs(factor) for factor in factors]
        self._memo = [dict() for _ in range(self.n + 1)]
        self.queries = 0

    def coefficient(self, delta_mask: int) -> int:
        self.queries += 1
        return self._level_coeff(self.n, delta_mask)

    def _level_coeff(self, i: int, delta: int) -> int:
        if delta & 1:
            raise ValueError("bit 0 of a mask is unused; variables start at 1")
        # Variables above i can never be produced by factors 1..i.
        if delta >> (i + 1):
            return 0
        if i == 0:
            return 1 if delta == 0 else 0
        memo = self._memo[i]
        cached = memo.get(delta)
        if cached is not None:
            return cached
        bit = 1 << i
        want_top = delta & bit
        d_low = delta & ~bit
        total = 0
        for xi_mask, c in self._coeff_maps[i - 1].items():
            if (xi_mask & bit) != want_top:
                continue
            if xi_mask & ~delta:
                continue  # factor monomial sticks out of the demanded mask
            xi_low = xi_mask & ~bit
            required = d_low & ~xi_low  # prefix must supply what the factor lacks
            free = d_low & xi_low  # overlap positions may come from either side
            inner = 0
            sub = free
            while True:  # all submasks of 'free', including 0
                inner += self._level_coeff(i - 1, required | sub)
                if sub == 0:
                    break
                sub = (sub - 1) & free
            total += c * inner
        if self.mode == "gf2":
            total &= 1
        memo[delta] = total
        if len(memo) > self.frontier_cap:
            raise ResourceCap(
                f"frontier at level {i} holds {len(memo)} masks (cap {self.frontier_cap})",
                where=f"level {i}",
                size=len(memo),
            )
        return total


def _check_chain(chain: list[int], j: int) -> None:
    if chain and j >= chain[-1]:
        raise InvariantViolation(f"cascade level {j} does not decrease (chain {chain})")


def _over_cap(l: int, size: int, cap: int) -> ResourceCap:
    return ResourceCap(f"len(h_{l}) = {size} exceeds cap {cap}", where=str(l), size=size)


def reference_merge_clause(
    f: list[AnfPoly],
    clause: Clause3,
    n: int,
    cap: int,
    *,
    composed: bool = True,
) -> tuple[Optional[list[AnfPoly]], tuple[int, ...]]:
    """Run the descending sweep for one clause on sparse polynomials.

    Returns (h list, cascade chain), with h None when a residual
    degenerates to the constant 1.  Raises ResourceCap when an entry
    outgrows the cap.  ``composed`` is accepted and ignored: the
    reference always runs the full substitution pass.

    The engine's sparse sweep as it was before the table and polynomial
    sweeps became one, kept as an independent reference with the cascade
    repair (dead prefixes join the residual) written out on polynomials:
    tests patch it in for ``descriptor._merge_clause``, next to
    ``_on_tables``, to build the polynomial twins that table builds must
    match.
    """
    t = clause.t
    h: list[AnfPoly] = [AnfPoly.zero()] * n
    chain: list[int] = []
    for l in range(n, 0, -1):
        fl = f[l - 1]
        gl = AnfPoly.var(l)
        if l == t:
            # a_t + the forbidden cube with a_v <- f_v below t
            gl += cube(
                (gl if lit.var == t else f[lit.var - 1], b)
                for lit, b in zip(clause.lits, clause.forbidden_triple())
            )
        elif fl == gl:  # identity merged with identity stays identity
            h[l - 1] = fl
            continue
        h_l, residual = merge_poly(fl, gl, l)
        if len(h_l) > cap:
            raise _over_cap(l, len(h_l), cap)
        h[l - 1] = h_l
        # Cascade: fold the residual constraint into ever-lower entries.
        while not residual.is_zero():
            if residual.is_one():
                return None, tuple(chain)
            j = residual.max_var()
            _check_chain(chain, j)
            chain.append(j)
            g_j = residual + AnfPoly.var(j)
            # Where the residual is 1 at both a_j = 0 and a_j = 1, g_j negates
            # a_j and no value of a_j is left, whatever f_j allows there.
            dead = residual.restrict(j, 0) * residual.restrict(j, 1)
            new_fj, merged = merge_poly(f[j - 1], g_j, j)
            residual = merged + dead + merged * dead
            if len(new_fj) > cap:
                raise _over_cap(j, len(new_fj), cap)
            f[j - 1] = new_fj
    # Final substitution pass: a_i -> h_i inside every higher entry.
    for i in range(1, n + 1):
        hi = h[i - 1]
        if hi == AnfPoly.var(i):
            continue
        for j in range(i + 1, n + 1):
            h[j - 1] = h[j - 1].substitute(i, hi)
            if len(h[j - 1]) > cap:
                raise _over_cap(j, len(h[j - 1]), cap)
    return h, tuple(chain)
