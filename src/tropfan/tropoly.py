"""Boolean Laurent polynomial functions: max of integer linear forms on R^n.

A polynomial is a finite set of integer exponent vectors; the function it
defines sends x to the max of the inner products u . x.  Two polynomials
define the same function on all of R^n exactly when each exponent set lies
in the other's convex hull, so only the exponents the two do not share are
tested, and the same function on a union of rays exactly when they agree at
one point per ray.  The normal form is canonical(): the vertex set of the
exponent hull.  Everything here is exact: rational points are evaluated in
integers over one common denominator, and hull membership is decided by
rational linear feasibility, never by sampling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .exactlp import in_convex_hull, strict_separator
from .maxplus import TropVector, exact_int, exact_rational

Monomial = tuple[int, ...]


class PolySyntaxError(ValueError):
    """Parse failure; carries the 0-based offset into the input text."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


@dataclass(frozen=True, init=False, repr=False)
class TropPoly:
    """A Boolean Laurent polynomial as a set of integer exponent vectors.

    The empty set is the distinguished zero polynomial (the constant minus
    infinity); it participates in the semiring operations but is rejected by
    the function-equality deciders.
    """

    dim: int
    monomials: frozenset[Monomial]

    def __init__(self, dim: int, monomials: Iterable[Sequence[int]]):
        dim = exact_int(dim)
        if dim < 1:
            raise ValueError("ambient dimension must be positive")
        # the types are read before the frozenset dedups, since 1.0 == 1
        mono = [tuple(u) for u in monomials]
        if set(map(type, chain.from_iterable(mono))) - {int}:
            mono = [tuple(map(exact_int, u)) for u in mono]
        mono = frozenset(mono)
        for u in mono:
            if len(u) != dim:
                raise ValueError(f"exponent vector {u} has length != {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "monomials", mono)

    @classmethod
    def zero(cls, dim: int) -> "TropPoly":
        return cls(dim, ())

    @classmethod
    def one(cls, dim: int) -> "TropPoly":
        """The multiplicative identity: the single zero exponent."""
        return cls(dim, [(0,) * exact_int(dim)])

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def __add__(self, other: "TropPoly") -> "TropPoly":
        self._check_dim(other)
        return TropPoly(self.dim, self.monomials | other.monomials)

    def __mul__(self, other: "TropPoly") -> "TropPoly":
        self._check_dim(other)
        return TropPoly(self.dim, (tuple(a + b for a, b in zip(u, v))
                                   for u in self.monomials for v in other.monomials))

    def _check_dim(self, other: "TropPoly") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def sorted_monomials(self) -> list[Monomial]:
        return sorted(self.monomials)

    def __repr__(self) -> str:
        return f"TropPoly({self.dim}, {self.sorted_monomials()})"

    def eval(self, point: Sequence) -> Optional[Fraction | int]:
        """Max over monomials of u . point; None (minus infinity) for zero.
        A point that is not all int must be rational (no floats or bools); it
        is cleared to integers over the lcm D of its denominators and gives
        the Fraction max(u . D point) / D.  Each u . point is one
        sum(map(mul, u, point)) over ints."""
        if len(point) != self.dim:
            raise ValueError(f"point has length {len(point)}, expected {self.dim}")
        if not self.monomials:
            return None
        D = None
        if set(map(type, point)) != {int}:
            fr = [exact_rational(p) for p in point]
            D = lcm(*(p.denominator for p in fr))
            point = [p.numerator * (D // p.denominator) for p in fr]
        top = max([sum(map(mul, u, point)) for u in self.monomials])
        return top if D is None else Fraction(top, D)

    def canonical(self) -> "TropPoly":
        """Drop every exponent that is a convex combination of the others.

        The survivors are the vertex set of the exponent hull; the defined
        function is unchanged, and two polynomials define the same function
        on R^n iff their canonical forms are equal as sets.
        """
        if self.is_zero:
            raise ValueError("the zero polynomial has no canonical exponent set")
        mono = self.sorted_monomials()
        return TropPoly(self.dim, [u for u in mono if _is_vertex(u, mono)])

    def to_json(self) -> list[list[int]]:
        return [list(u) for u in self.sorted_monomials()]

    @classmethod
    def from_json(cls, data, dim: int) -> "TropPoly":
        return cls(dim, data)


def _is_vertex(u: Monomial, mono: Sequence[Monomial]) -> bool:
    """Whether u is no convex combination of the other exponents in the
    sorted list mono.  The first and last, and one strictly largest or
    smallest in a coordinate, are vertices without the hull LP."""
    if u == mono[0] or u == mono[-1]:
        return True
    others = [v for v in mono if v != u]
    for i, c in enumerate(u):
        if all(v[i] < c for v in others) or all(v[i] > c for v in others):
            return True
    return not in_convex_hull(u, others)


_VAR = re.compile(r"x([1-9][0-9]*)")
_INT = re.compile(r"[+-]?[0-9]+")


def parse_poly(text: str, dim: int) -> TropPoly:
    """Parse the monomial grammar: terms joined by '+', factors by '*'.

    A factor is x<i> or x<i>^<e> with e a signed integer (default 1); the
    lone token 0 denotes the zero exponent vector.  Whitespace is ignored
    between any two tokens.  Raises PolySyntaxError with a position, or
    ValueError for a variable index outside 1..dim.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def peek() -> str:
        return text[pos] if pos < n else ""

    def parse_factor(expo: list[int]):
        nonlocal pos
        m = _VAR.match(text, pos)
        if not m:
            raise PolySyntaxError("expected a variable factor", pos)
        i = int(m.group(1))
        if not 1 <= i <= dim:
            raise ValueError(f"variable x{i} outside 1..{dim} (at position {pos})")
        pos = m.end()
        skip_ws()
        e = 1
        if peek() == "^":
            pos += 1
            skip_ws()
            m = _INT.match(text, pos)
            if not m:
                raise PolySyntaxError("expected an integer exponent after '^'", pos)
            e = int(m.group(0))
            pos = m.end()
        expo[i - 1] += e

    def parse_monomial() -> Monomial:
        nonlocal pos
        skip_ws()
        if peek() == "0":
            pos += 1
            return (0,) * dim
        expo = [0] * dim
        parse_factor(expo)
        while True:
            skip_ws()
            if peek() == "*":
                pos += 1
                skip_ws()
                parse_factor(expo)
            else:
                return tuple(expo)

    monomials = [parse_monomial()]
    while True:
        skip_ws()
        if pos >= n:
            break
        if peek() != "+":
            raise PolySyntaxError("expected '+' between monomials", pos)
        pos += 1
        monomials.append(parse_monomial())
    return TropPoly(dim, monomials)


def fn_eq_on_space(f: TropPoly, g: TropPoly) -> bool:
    """Equality of the induced functions on all of R^n (exact)."""
    return separating_point(f, g) is None


def separating_point(f: TropPoly, g: TropPoly) -> Optional[tuple[Fraction, ...]]:
    """A rational point where f and g differ, or None when they agree on R^n.

    The functions agree exactly when each exponent hull contains the other,
    so only the exponents in the symmetric difference are tested: the first
    (in sorted order, f's before g's) that is a vertex of its own hull and
    that a strict-separation LP splits off from the other exponent set
    yields the point.
    """
    f._check_dim(g)
    if f.is_zero or g.is_zero:
        raise ValueError("function equality is defined for nonzero polynomials")
    for p, q in ((f, g), (g, f)):
        mono, others = p.sorted_monomials(), q.sorted_monomials()
        for u in mono:
            if u in q.monomials or not _is_vertex(u, mono):
                continue
            w = strict_separator(u, others)
            if w is not None:
                return tuple(w)
    return None


def fn_eq_on_rays(f: TropPoly, g: TropPoly,
                  directions: Iterable[Sequence[int]]) -> bool:
    """Equality of the functions on the union of the rays spanned by the
    given directions (plus the origin, where every polynomial takes 0)."""
    return differing_direction(f, g, directions) is None


def differing_direction(f: TropPoly, g: TropPoly,
                        directions: Iterable[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """The first of the given ray directions where f and g differ, or None
    when they agree on the union of those rays.

    Agreement along a whole ray is equivalent to agreement at any single
    point of it, so one exact evaluation per direction decides.
    """
    f._check_dim(g)
    if f.is_zero or g.is_zero:
        raise ValueError("function equality is defined for nonzero polynomials")
    for d in directions:
        d = tuple(map(exact_int, d))
        if not any(d):
            raise ValueError("invalid ray: zero direction vector")
        if f.eval(d) != g.eval(d):
            return d
    return None


def substitute_units(f: TropPoly, units: Sequence[TropVector]) -> TropVector:
    """Evaluate f at a tuple of max-plus vectors, entrywise per label.

    The value at label a is f applied to the a-th entries of the inputs;
    this is exactly substitution of invertible elements for the variables.
    The zero polynomial maps to bottom.
    """
    if len(units) != f.dim:
        raise ValueError(f"expected {f.dim} vectors, got {len(units)}")
    size = units[0].size
    for u in units:
        if u.is_bottom:
            raise ValueError("substitution needs finite (invertible) vectors")
        if u.size != size:
            raise ValueError("vectors live over different label sets")
    if f.is_zero:
        return TropVector.bottom(size)
    return TropVector(f.eval([u[a] for u in units]) for a in range(size))
