"""Multilinear polynomial arithmetic over GF(2), plus an integer-coefficient variant.

A polynomial is a set of monomials; a monomial is a product of distinct
variables (x^2 = x).  Monomials are encoded as int bitmasks with bit ``i``
standing for variable ``i`` (variables are numbered from 1, bit 0 is unused,
mask 0 is the constant monomial 1).  Python ints are unbounded, so there is
no variable-count limit.

Two variable families share this index space: ``a<i>`` (argument space of
descriptor functions) and ``x<i>`` (solution space).  They are the same
polynomials; only the text rendering differs.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Dict, Iterable, Iterator, Sequence

from .errors import UncoveredVariable

__all__ = [
    "AnfPoly",
    "IntPoly",
    "MODES",
    "ring",
    "cube",
    "mask_of_vars",
    "mask_of_bits",
    "vars_of_mask",
    "bits_of_mask",
    "var_columns",
    "all_ones_column",
    "widen",
    "moebius",
    "set_bits",
]


def mask_of_vars(vars_: Iterable[int]) -> int:
    """Bitmask for a monomial given its variable indices (1-based)."""
    m = 0
    for v in vars_:
        if v < 1:
            raise ValueError(f"variable index must be >= 1, got {v}")
        m |= 1 << v
    return m


def mask_of_bits(bits: Iterable[object]) -> int:
    """Bitmask of a bit vector (position i-1 = variable i); truthy entries are set."""
    return mask_of_vars(i for i, b in enumerate(bits, 1) if b)


def vars_of_mask(mask: int) -> tuple[int, ...]:
    """Sorted variable indices of a monomial bitmask."""
    return tuple(set_bits(mask & ~1))


def bits_of_mask(mask: int, n: int) -> tuple[int, ...]:
    """Bit vector of a bitmask over variables 1..n (position i-1 = variable i).

    Inverse of ``mask_of_bits``.
    """
    return tuple((mask >> i) & 1 for i in range(1, n + 1))


_TERM_RE = re.compile(r"^(?:(\d+)\s*\*?\s*)?((?:[ax]\d+)(?:\s*\*\s*[ax]\d+)*)?$")


def _parse_term(term: str) -> tuple[int, int]:
    """Parse one additive term into (coefficient, mask)."""
    term = term.strip()
    if not term:
        raise ValueError("empty term")
    m = _TERM_RE.match(term)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValueError(f"cannot parse polynomial term {term!r}")
    coeff = int(m.group(1)) if m.group(1) is not None else 1
    mask = 0
    if m.group(2):
        mask = mask_of_vars(int(piece.strip()[1:]) for piece in m.group(2).split("*"))
    return coeff, mask


def _graded(masks: Iterable[int]) -> list[tuple[tuple[int, ...], int]]:
    """(variables, mask) of each monomial, by degree, then by ascending variables."""
    return sorted(((vars_of_mask(m), m) for m in masks), key=lambda vm: (len(vm[0]), vm[0]))


def _render(terms: Iterable[tuple[tuple[int, ...], int]], prefix: str) -> str:
    """Text of (variables, coefficient) terms in the given order; a coefficient 1 is implicit."""
    parts = []
    for vs, c in terms:
        body = "*".join(f"{prefix}{v}" for v in vs)
        parts.append(f"{c}*{body}" if vs and c != 1 else body or str(c))
    return " + ".join(parts) or "0"


def _top_var(masks: Iterable[int]) -> int:
    """Highest variable index in the masks, 0 for constants."""
    top = max(masks, default=0)  # the largest mask has the highest bit
    return top.bit_length() - 1 if top else 0


def _assignment_mask(top: int, assignment: Sequence[int]) -> int:
    """Mask of a bit vector (position i-1 = variable i); it must reach variable ``top``."""
    if top > len(assignment):
        raise UncoveredVariable(
            f"assignment of length {len(assignment)} does not cover variable {top}"
        )
    return mask_of_bits(assignment)


class AnfPoly:
    """Immutable multilinear polynomial over GF(2) (set of monomial masks)."""

    __slots__ = ("_masks",)

    def __init__(self, masks: Iterable[int] = ()):
        s = set()
        for m in masks:
            if m in s:  # additive duplicates cancel mod 2
                s.discard(m)
            else:
                s.add(m)
        self._masks = frozenset(s)

    @classmethod
    def _wrap(cls, masks: frozenset[int]) -> "AnfPoly":
        p = object.__new__(cls)
        object.__setattr__(p, "_masks", masks)
        return p

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "AnfPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "AnfPoly":
        return _ONE

    @classmethod
    def var(cls, i: int) -> "AnfPoly":
        if i < 1:
            raise ValueError(f"variable index must be >= 1, got {i}")
        return cls._wrap(frozenset((1 << i,)))

    @classmethod
    def from_terms(cls, terms: Iterable[Iterable[int]]) -> "AnfPoly":
        """Build from an iterable of variable-index lists, e.g. [[1,3],[]] = a1*a3 + 1."""
        return cls(mask_of_vars(t) for t in terms)

    @classmethod
    def coerce(cls, p: "AnfPoly | IntPoly") -> "AnfPoly":
        """``p`` itself, or an IntPoly reduced mod 2."""
        return p if isinstance(p, AnfPoly) else p.reduce_mod2()

    @classmethod
    def parse(cls, text: str) -> "AnfPoly":
        """Parse text like ``1 + a1 + a1*a2*a3`` (``x`` prefixes accepted too)."""
        return IntPoly.parse(text).reduce_mod2()

    # --- basic queries ----------------------------------------------------

    @property
    def masks(self) -> frozenset[int]:
        return self._masks

    def is_zero(self) -> bool:
        return not self._masks

    def is_one(self) -> bool:
        return self._masks == _ONE._masks

    def __len__(self) -> int:
        """Number of monomials (len(0) == 0, len(1) == 1)."""
        return len(self._masks)

    def __iter__(self) -> Iterator[int]:
        return iter(self._masks)

    def __bool__(self) -> bool:
        return bool(self._masks)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AnfPoly) and self._masks == other._masks

    def __hash__(self) -> int:
        return hash(self._masks)

    def support(self) -> frozenset[int]:
        """Variables that occur in at least one monomial."""
        return frozenset(vars_of_mask(self.support_mask()))

    def support_mask(self) -> int:
        m = 0
        for mask in self._masks:
            m |= mask
        return m

    def max_var(self) -> int:
        """Highest occurring variable index, 0 for constants."""
        return _top_var(self._masks)

    # --- ring operations --------------------------------------------------

    def __add__(self, other: "AnfPoly") -> "AnfPoly":
        return AnfPoly._wrap(self._masks ^ other._masks)

    def __mul__(self, other: "AnfPoly") -> "AnfPoly":
        if not self._masks or not other._masks:
            return _ZERO
        a, b = self._masks, other._masks
        if len(a) < len(b):
            a, b = b, a
        acc: set[int] = set()
        add = acc.add
        discard = acc.discard
        for m2 in b:
            for m1 in a:  # duplicate products must cancel pairwise (mod 2)
                m = m1 | m2
                if m in acc:
                    discard(m)
                else:
                    add(m)
        return AnfPoly._wrap(frozenset(acc))

    # Truth tables spell the same ring operations ^ and &, so one merge sweep reads both.
    __xor__ = __add__
    __and__ = __mul__

    def restrict(self, i: int, b: int) -> "AnfPoly":
        """Fix variable ``i`` to the bit ``b`` and simplify."""
        bit = 1 << i
        acc: set[int] = set()
        for m in self._masks:
            if m & bit:
                if b == 0:
                    continue
                m ^= bit
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
        return AnfPoly._wrap(frozenset(acc))

    def substitute(self, i: int, q: "AnfPoly") -> "AnfPoly":
        """Replace variable ``i`` by the polynomial ``q``, multilinearly."""
        bit = 1 << i
        if not any(m & bit for m in self._masks):
            return self
        keep: set[int] = set()
        cof: set[int] = set()
        for m in self._masks:
            if m & bit:
                cof.add(m ^ bit)
            else:
                keep.add(m)
        part = AnfPoly._wrap(frozenset(cof)) * q
        return AnfPoly._wrap(frozenset(keep) ^ part._masks)

    # --- evaluation -------------------------------------------------------

    def eval_mask(self, assignment: int) -> int:
        """Evaluate at an assignment bitmask (bit i = value of variable i)."""
        acc = 0
        for m in self._masks:
            if m & assignment == m:
                acc ^= 1
        return acc

    def eval(self, assignment: Sequence[int]) -> int:
        """Evaluate at a bit vector (position i-1 = variable i).

        Raises UncoveredVariable when the vector is shorter than the support.
        """
        return self.eval_mask(_assignment_mask(self.max_var(), assignment))

    def truth_column(self, n: int) -> int:
        """Truth table over all 2**n assignments packed into one int.

        Bit ``a`` of the result is the value at the assignment whose
        variable ``i`` equals ``(a >> (i - 1)) & 1``.  Raises
        UncoveredVariable when the polynomial uses a variable above ``n``.
        """
        if self.max_var() > n:
            raise UncoveredVariable(
                f"truth column over {n} variables does not cover "
                f"variable {self.max_var()}"
            )
        return moebius(self.coefficient_column(), n)

    @classmethod
    def from_truth_column(cls, column: int, n: int) -> "AnfPoly":
        """Inverse of ``truth_column``: the unique polynomial over 1..n with this table.

        Bits of ``column`` above 2**n are ignored.
        """
        return cls.from_coefficient_column(moebius(column & all_ones_column(n), n))

    def coefficient_column(self) -> int:
        """Coefficient vector packed into an int: monomial ``m`` sets bit ``m >> 1``."""
        acc = 0
        for m in self._masks:
            acc ^= 1 << (m >> 1)
        return acc

    @classmethod
    def from_coefficient_column(cls, column: int) -> "AnfPoly":
        """Inverse of ``coefficient_column``: bit ``a`` is the monomial ``a << 1``."""
        return cls._wrap(frozenset([a << 1 for a in set_bits(column)]))

    def in_mask_order(self) -> "AnfPoly":
        """The same polynomial, its set built in ascending mask order.

        A set's iteration order depends on how the set was built, and
        products, and so the coefficient recursion's frontier under a cap,
        inherit it.  This is the order ``from_truth_column`` builds.
        """
        return AnfPoly._wrap(frozenset(sorted(self._masks)))

    # --- rendering --------------------------------------------------------

    def sorted_masks(self) -> list[int]:
        """Graded-lexicographic order: by degree, then by ascending variables."""
        return [m for _, m in _graded(self._masks)]

    def to_text(self, prefix: str = "a") -> str:
        return _render(((vs, 1) for vs, _ in _graded(self._masks)), prefix)

    def to_json(self) -> list[list[int]]:
        """Sorted list of sorted variable-index lists."""
        return [list(vs) for vs, _ in _graded(self._masks)]

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "AnfPoly":
        return cls.from_terms(data)

    def __repr__(self) -> str:
        return f"AnfPoly({self.to_text()})"


_ZERO = AnfPoly._wrap(frozenset())
_ONE = AnfPoly._wrap(frozenset((0,)))


def cube(pairs: Iterable[tuple[AnfPoly, int]]) -> AnfPoly:
    """Product of ``p`` where ``b`` is 1 and of ``p + 1`` where ``b`` is 0.

    It is 1 exactly where every ``p`` equals its ``b``; the empty product is 1.
    """
    out = _ONE
    for p, b in pairs:
        out = out * (p if b else p + _ONE)
    return out


class IntPoly:
    """Multilinear polynomial with unbounded integer coefficients (x^2 = x).

    Used to reproduce pre-mod-2 integer expansions exactly; coefficients can
    exceed 64 bits.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Dict[int, int] | None = None):
        self._coeffs = {m: c for m, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntPoly":
        return cls({0: 1})

    @classmethod
    def lift(cls, p: AnfPoly) -> "IntPoly":
        """Lift a GF(2) polynomial to integer coefficients 1."""
        return cls({m: 1 for m in p.masks})

    @classmethod
    def coerce(cls, p: "AnfPoly | IntPoly") -> "IntPoly":
        """``p`` itself, or an AnfPoly lifted to integer coefficients."""
        return p if isinstance(p, IntPoly) else cls.lift(p)

    @classmethod
    def parse(cls, text: str) -> "IntPoly":
        coeffs: Dict[int, int] = {}
        for term in text.split("+"):
            coeff, mask = _parse_term(term)
            coeffs[mask] = coeffs.get(mask, 0) + coeff
        return cls(coeffs)

    @property
    def coeffs(self) -> Dict[int, int]:
        return dict(self._coeffs)

    def coefficient(self, mask: int) -> int:
        return self._coeffs.get(mask, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        out = dict(self._coeffs)
        for m, c in other._coeffs.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return IntPoly._wrap(out)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out: Dict[int, int] = {}
        for m1, c1 in self._coeffs.items():
            for m2, c2 in other._coeffs.items():
                m = m1 | m2
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        return IntPoly._wrap(out)

    @classmethod
    def _wrap(cls, coeffs: Dict[int, int]) -> "IntPoly":
        p = object.__new__(cls)
        object.__setattr__(p, "_coeffs", coeffs)
        return p

    def reduce_mod2(self) -> AnfPoly:
        """Keep monomials with odd coefficients."""
        return AnfPoly(m for m, c in self._coeffs.items() if c % 2)

    def eval_mask(self, assignment: int) -> int:
        return sum(c for m, c in self._coeffs.items() if m & assignment == m)

    def max_var(self) -> int:
        """Highest occurring variable index, 0 for constants."""
        return _top_var(self._coeffs)

    def eval(self, assignment: Sequence[int]) -> int:
        return self.eval_mask(_assignment_mask(self.max_var(), assignment))

    def to_text(self, prefix: str = "x") -> str:
        return _render(((vs, self._coeffs[m]) for vs, m in _graded(self._coeffs)), prefix)

    def __repr__(self) -> str:
        return f"IntPoly({self.to_text()})"


# The mode names, in the order of the rings ``ring`` returns for them.
MODES = ("gf2", "int")


def ring(mode: str) -> type[AnfPoly] | type[IntPoly]:
    """The polynomial ring a mode names: ``"gf2"`` is AnfPoly, ``"int"`` IntPoly."""
    # ``in`` compares with ==, so an unhashable mode gets this ValueError too
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
    return (AnfPoly, IntPoly)[MODES.index(mode)]


# Truth-column kernel (shared by polynomials, merges and the brute-force oracles).


@cache
def var_columns(n: int) -> tuple[int, ...]:
    """Per-variable truth columns over 2**n assignments.

    Entry ``i`` (1-based) has bit ``a`` set iff variable ``i`` is 1 in
    assignment ``a``, i.e. iff ``(a >> (i-1)) & 1``.  Each column is one
    period (``2**(i-1)`` zeros, then as many ones) doubled up to 2**n bits.
    """
    cols = [0] * (n + 1)
    for i in range(1, n + 1):
        half = 1 << (i - 1)
        cols[i] = widen(((1 << half) - 1) << half, i, n)
    return tuple(cols)


def widen(table: int, k: int, n: int) -> int:
    """A truth table over variables 1..k doubled up to one over 1..n."""
    for i in range(k, n):
        table |= table << (1 << i)
    return table


def all_ones_column(n: int) -> int:
    return (1 << (1 << n)) - 1


def moebius(table: int, n: int) -> int:
    """Binary Moebius (ANF) transform of a 2**n-bit table; its own inverse.

    Maps a coefficient column to the truth column and back: each pass adds
    bit ``a`` into bit ``a | 2**i`` for every ``a`` with bit ``i`` clear.
    """
    for i, col in enumerate(var_columns(n)[1:]):
        table ^= (table << (1 << i)) & col
    return table


def set_bits(x: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending, in linear time."""
    # One scan of the binary string; an x & -x loop copies the whole int per
    # bit, which is quadratic on dense tables.
    digits = bin(x)
    top = len(digits) - 1
    out = []
    j = digits.rfind("1")
    while j >= 0:
        out.append(top - j)
        j = digits.rfind("1", 0, j)
    return out
