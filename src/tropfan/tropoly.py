"""Boolean Laurent polynomial functions: max of integer linear forms on R^n.

A polynomial is a finite set of integer exponent vectors; the function it
defines sends x to the max of the inner products u . x.  Two polynomials
define the same function on all of R^n exactly when each exponent set lies
in the other's convex hull.  fn_eq_on_space decides just that, for the
exponents the two do not share: two tests that need no LP refute most
exponents outside, and one hull LP per exponent settles the rest.
separating_point certifies inequality with that LP's Farkas certificate
for the first unshared exponent outside the other hull, an integer point
(exactlp.hull_separator).  Two polynomials define the same function on a
union of rays exactly when they agree at one point per ray; the pair is
evaluated there in one pass, each monomial of f and g once.  The normal
form is canonical(): the vertex set of the exponent hull.  Everything here
is exact: rational points are evaluated in integers over one common
denominator, and hull membership is decided by rational linear
feasibility, never by sampling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

from .exactlp import hull_separator
from .maxplus import TropVector, exact_int, exact_rational

Monomial = tuple[int, ...]


class PolySyntaxError(ValueError):
    """Parse failure; carries the 0-based offset into the input text.  With
    no position the message stays as given, as copy and pickle rebuild it."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


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
        dim = _ambient_dim(dim)
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
        A point that is not all int must be rational (no floats or bools),
        for the zero polynomial too; it is cleared to integers over the lcm D
        of its denominators (_cleared) and gives the Fraction
        max(u . D point) / D.  Each u . point is one sum(map(mul, u, point))
        over ints."""
        if len(point) != self.dim:
            raise ValueError(f"point has length {len(point)}, expected {self.dim}")
        x, D = _cleared(point)
        if not self.monomials:
            return None
        top = max([sum(map(mul, u, x)) for u in self.monomials])
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


def _ambient_dim(dim) -> int:
    """A dimension as TropPoly and parse_poly accept it: a positive int."""
    dim = exact_int(dim)
    if dim < 1:
        raise ValueError("ambient dimension must be positive")
    return dim


def _cleared(point: Sequence) -> tuple[Sequence[int], Optional[int]]:
    """(point, None) when every entry is an int.  Otherwise each entry must
    be rational (exact_rational refuses floats and bools), and the result is
    (D * point as ints, D) with D the lcm of the denominators."""
    if set(map(type, point)) == {int}:
        return point, None
    fr = [exact_rational(p) for p in point]
    D = lcm(*(p.denominator for p in fr))
    return [p.numerator * (D // p.denominator) for p in fr], D


def _pair_differs(f: TropPoly, g: TropPoly) -> Callable[[Sequence], bool]:
    """The test "f and g differ at this point"; f and g must share their
    dimension.  The monomials are listed once, f's own, the shared, then
    g's own, so that at a point every product u . x is computed once and
    f's values are a prefix of the list and g's a suffix.  Each point gets
    one length check, one type check and one clearing (_cleared); the two
    maxima share its denominator, so their integers are compared.  As in
    eval, a zero polynomial's max is None, and the point's entries are
    checked even when f and g have no monomials at all."""
    f._check_dim(g)
    fm, gm = f.monomials, g.monomials
    mono = list(fm - gm)
    split = len(mono)
    mono += fm & gm
    end = len(mono)
    mono += gm - fm
    dim = f.dim

    def differs(point: Sequence) -> bool:
        if len(point) != dim:
            raise ValueError(f"point has length {len(point)}, expected {dim}")
        x, _ = _cleared(point)
        vals = [sum(map(mul, u, x)) for u in mono]
        return max(vals[:end], default=None) != max(vals[split:], default=None)
    return differs


def _refuted(u: Monomial, pts: Sequence[Monomial]) -> bool:
    """Whether u lies outside the hull of the sorted nonempty exponents pts
    by one of two tests that need no LP: u lexicographically before the
    first or after the last (a convex combination lies between its
    lexicographic extremes), or u strictly beyond every point in some
    coordinate."""
    if u < pts[0] or u > pts[-1]:
        return True
    for c, col in zip(u, zip(*pts)):
        if c > max(col) or c < min(col):
            return True
    return False


def _is_vertex(u: Monomial, mono: Sequence[Monomial]) -> bool:
    """Whether u is no convex combination of the other exponents in the
    sorted list mono, for canonical(): the LP-free refutations first (the
    first and last of mono pass the lexicographic one), then one hull LP."""
    others = [v for v in mono if v != u]
    return not others or _refuted(u, others) or hull_separator(u, others) is not None


# a factor and the whitespace around it, every part optional: 0 (group 1),
# or x<i> (2) with '^' and its whitespace (3) and a signed exponent (4)
_FACTOR = re.compile(r"\s*(?:(0)|x([1-9][0-9]*)\s*(?:(\^\s*)([+-]?[0-9]+)?)?)?\s*")


def parse_poly(text: str, dim: int) -> TropPoly:
    """Parse the monomial grammar: terms joined by '+', factors by '*'.

    A factor is x<i> or x<i>^<e> with e a signed integer (default 1); the
    lone token 0 denotes the zero exponent vector.  Whitespace is ignored
    between any two tokens.  Each step matches one factor, then reads the
    operator after it.  Raises PolySyntaxError with the position of the
    first bad token, or ValueError for a variable index outside 1..dim.
    dim is checked as TropPoly checks it.
    """
    dim = _ambient_dim(dim)
    monomials, expo, pos, first = [], [0] * dim, 0, True
    while True:
        m = _FACTOR.match(text, pos)
        zero, index, caret, e = m.groups()
        if index:
            i = int(index)
            if not 1 <= i <= dim:
                raise ValueError(f"variable x{i} outside 1..{dim} (at position {m.start(2) - 1})")
            if caret and e is None:
                raise PolySyntaxError("expected an integer exponent after '^'", m.end(3))
            expo[i - 1] += int(e) if e else 1
        elif not (zero and first):  # 0 is a whole monomial, never a factor
            raise PolySyntaxError("expected a variable factor", m.start(1) if zero else m.end())
        pos = m.end()
        op = text[pos:pos + 1]
        if op == "*" and not zero:
            pos, first = pos + 1, False
            continue
        monomials.append(tuple(expo))
        if op != "+":
            if op:
                raise PolySyntaxError("expected '+' between monomials", pos)
            return TropPoly(dim, monomials)
        pos, expo, first = pos + 1, [0] * dim, True


def _unshared(f: TropPoly, g: TropPoly) -> list[tuple[Monomial, list[Monomial]]]:
    """The hull questions of equality on R^n, for nonzero f and g of one
    dimension: each exponent of f that g lacks, then of g that f lacks,
    sorted, paired with the other polynomial's sorted exponents."""
    f._check_dim(g)
    if f.is_zero or g.is_zero:
        raise ValueError("function equality is defined for nonzero polynomials")
    tests = []
    for p, q in ((f, g), (g, f)):
        pts = q.sorted_monomials()
        tests += [(u, pts) for u in sorted(p.monomials - q.monomials)]
    return tests


def fn_eq_on_space(f: TropPoly, g: TropPoly) -> bool:
    """Equality of the induced functions on all of R^n (exact).

    Decided by membership: every exponent of one polynomial that the other
    lacks must lie in the other's exponent hull (_unshared).  The LP-free
    refutations (_refuted) run on all of them before any hull LP, so an
    exponent that one of them settles answers False with no LP; otherwise
    the hull LPs run in order up to the first exponent outside.
    separating_point returns that LP's certificate.
    """
    tests = _unshared(f, g)
    if any(_refuted(u, pts) for u, pts in tests):
        return False
    return all(hull_separator(u, pts) is None for u, pts in tests)


def separating_point(f: TropPoly, g: TropPoly) -> Optional[tuple[int, ...]]:
    """An integer point where f and g differ, or None when they agree on R^n.

    The hull LPs of _unshared run in order up to the first exponent u
    outside the other exponent hull; that LP's separator w has
    u . w > v . w for every exponent v of the other polynomial, so the
    polynomial holding u is the larger at w.
    """
    for u, pts in _unshared(f, g):
        w = hull_separator(u, pts)
        if w is not None:
            return w
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
    point of it, so one exact evaluation of the pair per direction decides
    (_pair_differs: each monomial of f and g once).
    """
    differs = _pair_differs(f, g)
    if f.is_zero or g.is_zero:
        raise ValueError("function equality is defined for nonzero polynomials")
    for d in directions:
        d = tuple(map(exact_int, d))
        if not any(d):
            raise ValueError("invalid ray: zero direction vector")
        if differs(d):
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
