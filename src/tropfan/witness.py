"""Separating-witness certificates for unions of rays.

Given a finite union of rational rays Z and a rational point p outside it,
there is a pair of polynomial functions that agree everywhere on Z yet differ
at p; this certifies that the points indistinguishable by all Z-agreeing
pairs are exactly Z itself.  The construction is direct: take the canonical
integer basis of the hyperplane orthogonal to p (built row by row from
Bezout coefficients, with no generic Hermite form), blow it up by a factor K
large enough to dominate every Z-direction that has positive inner product
with p, and adjoin the p-direction monomial to one side only.  Everything is
int arithmetic once the point is integerized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from operator import mul
from typing import Optional, Sequence

from .fan import primitive
from .lattice import xgcd
from .maxplus import exact_rational
from .tropoly import TropPoly, _cleared, _pair_differs


def integerize(p: Sequence[Rational]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to its primitive integer direction."""
    x, _ = _cleared(tuple(p))
    if not any(x):
        raise ValueError("the zero vector has no direction")
    return primitive(x)


def orth_basis(p: Sequence[Rational]) -> list[tuple[int, ...]]:
    """An integer basis of the lattice orthogonal to p (n-1 vectors).

    The basis is the canonical row Hermite form of the full integer kernel
    of p's primitive direction, built directly by _kernel_basis.  Empty in
    dimension 1.
    """
    return _kernel_basis(integerize(p))


def _kernel_basis(d: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Canonical row HNF of ker(d) = {x in Z^n : d . x = 0}, d nonzero.

    With t the last index where d_t != 0, every column but t is a pivot
    column, and the row of pivot j > t is e_j.  For j = t-1 down to 0 the
    row of pivot j is the kernel vector supported on j..t with the least
    positive j-th entry: with g = gcd(d_{j+1..t}) = sum c_i d_i and
    h = gcd(d_j, g) = x d_j + y g, it is g/h at j and -(d_j/h) c_i at
    i = j+1..t.  Its entries in the pivot columns j+1..t-1 are then reduced,
    in increasing order, into [0, pivot) by the rows already built, and the
    Bezout coefficients become c <- y c, c_j <- x.
    """
    n = len(d)
    t = max(i for i, e in enumerate(d) if e)
    g = abs(d[t])
    c = [0] * n
    c[t] = 1 if d[t] > 0 else -1
    rows: list[list[int]] = [[]] * t
    for j in range(t - 1, -1, -1):
        h, x, y = xgcd(d[j], g)
        m = d[j] // h
        row = [0] * n
        row[j] = g // h
        for i in range(j + 1, t + 1):
            row[i] = -m * c[i]
        for k in range(j + 1, t):
            rk = rows[k]
            q = row[k] // rk[k]
            if q:
                for i in range(k, t + 1):
                    row[i] -= q * rk[i]
        rows[j] = row
        for i in range(j + 1, t + 1):
            c[i] *= y
        c[j] = x
        g = h
    return [tuple(row) for row in rows] + [
        tuple(int(i == j) for i in range(n)) for j in range(t + 1, n)]


@dataclass(frozen=True)
class WitnessPair:
    """Polynomials equal on a ray union but split at a designated point.

    g is f with one extra monomial: the primitive direction of the point.
    f holds the zero exponent and the K-scaled orthogonal basis vectors in
    both signs, so it evaluates to 0 along the point's ray while g is
    positive there.
    """

    f: TropPoly
    g: TropPoly
    point: tuple[Fraction, ...]
    direction: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    K: int

    def to_json_dict(self) -> dict:
        return {"f": self.f.to_json(),
                "g": self.g.to_json(),
                "point": [str(c) for c in self.point],
                "K": self.K}


class PointInSupportError(ValueError):
    """The designated point lies on the ray union (no witness exists)."""


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def separating_pair(z_dirs: Sequence[Sequence[int]],
                    p: Sequence[Rational]) -> WitnessPair:
    """Build the witness pair for a point off the given ray union.

    K exceeds the ratio (d1 . d) / max_i |e_i . d| over every union
    direction d on the positive side of p's hyperplane; the denominator is
    never zero there, because vanishing against the whole orthogonal basis
    would force d parallel to p, contradicting the point being off-support.
    """
    point = tuple(map(exact_rational, p))
    if any(len(d) != len(point) for d in z_dirs):
        raise ValueError(f"every direction must have the point's {len(point)} coordinates")
    dirs = [primitive(d) for d in z_dirs]
    if not any(point):
        raise PointInSupportError("the origin lies in every cone-closed set")
    d1 = integerize(point)
    if d1 in dirs:
        raise PointInSupportError(f"point direction {d1} lies in the ray union")
    basis = _kernel_basis(d1)
    n = len(d1)
    K = 1
    for d in dirs:
        up = sum(map(mul, d1, d))
        if up <= 0:
            continue
        denom = max(abs(sum(map(mul, e, d))) for e in basis)
        K = max(K, 1 + _ceil_div(up, denom))
    monos = [(0,) * n]
    for e in basis:
        monos.append(tuple(K * c for c in e))
        monos.append(tuple(-K * c for c in e))
    f = TropPoly(n, monos)
    g = TropPoly(n, monos + [d1])
    return WitnessPair(f, g, point, d1, tuple(basis), K)


def verify_witness(w: WitnessPair, z_dirs: Sequence[Sequence[int]]) -> bool:
    """Exact check of the witness contract: no union direction is a point
    where f and g differ, and the designated point is one.  Each point is
    evaluated once for the pair (tropoly._pair_differs), so the monomials
    f and g share are multiplied once."""
    differs = _pair_differs(w.f, w.g)
    return not any(map(differs, z_dirs)) and differs(w.point)


def _verified_pair(z_dirs: Sequence[Sequence[int]], p: Sequence[Rational]) -> WitnessPair:
    """separating_pair(z_dirs, p), or AssertionError if verify_witness fails."""
    pair = separating_pair(z_dirs, p)
    if not verify_witness(pair, z_dirs):
        raise AssertionError("constructed witness failed verification")
    return pair


def in_congruence_variety(q: Sequence[Rational],
                          z_dirs: Sequence[Sequence[int]]
                          ) -> tuple[bool, Optional[WitnessPair]]:
    """Does q lie in the set carved out by all pairs agreeing on the union?

    That set is the union itself: membership means q is the origin or a
    nonnegative rational multiple of a union direction.  A verified witness
    pair at q is attached as the certificate whenever the answer is no.
    """
    try:
        return False, _verified_pair(z_dirs, q)
    except PointInSupportError:
        return True, None


def witness_to_json(w: WitnessPair) -> str:
    return json.dumps(w.to_json_dict())
