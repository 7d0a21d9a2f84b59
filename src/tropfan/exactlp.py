"""Exact rational linear feasibility via a fraction-free phase-I simplex.

Solves "find x >= 0 with A x = b" with no tolerances: the answer is exact.
The whole problem is scaled by the common denominator of its entries and
pivoted on an integer tableau with exact division (Edmonds 1967; Bareiss
1968), so Fractions appear only at the boundary: in checking rational input
and in reading the solution.  Bland's pivoting rule guarantees termination
despite degeneracy.  This is the workhorse behind convex-hull membership
tests and separating-point certificates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import neg
from typing import Optional, Sequence

from .maxplus import exact_rational


def _entry(e):
    return e if type(e) is int else exact_rational(e)


def solve_eq_nonneg(A: Sequence[Sequence], b: Sequence) -> Optional[list[Fraction]]:
    """Return x >= 0 with A x = b, or None when the system is infeasible.

    Entries must be ints or rationals.  Rows are [A | b] times the least
    common denominator D0 of all entries, so the integer tableau T always
    equals D times the true tableau, where D is the last pivot (D0's own
    factor cancels: uniform scaling moves neither the pivots nor x).  A pivot
    on p = T[r][e] keeps row r and maps every other row, the reduced-cost row
    included, to (p * T[i] - T[i][e] * T[r]) // D, a division that is always
    exact.  Every pivot is positive, so every sign and every ratio comparison
    is that of the Fraction tableau, and Bland's rule picks the same pivots.
    """
    m = len(A)
    if len(b) != m:
        raise ValueError(f"A has {m} rows but b has {len(b)} entries")
    if m == 0:
        return []
    n = len(A[0])
    if any(len(row) != n for row in A):
        raise ValueError("the rows of A differ in length")
    rows = [[*row, v] for row, v in zip(A, b)]
    if set(map(type, chain.from_iterable(rows))) != {int}:
        rows = [[_entry(e) for e in row] for row in rows]
        den = lcm(*(e.denominator for row in rows for e in row if type(e) is not int))
        rows = [[e * den if type(e) is int else e.numerator * (den // e.denominator)
                 for e in row] for row in rows]

    # Phase I on [A | I | b], rows negated where b < 0: the reduced-cost row
    # of the artificial sum is minus the column sums plus the artificials'
    # unit costs, which leaves their entries 0.
    width = n + m
    T = []
    for i, row in enumerate(rows):
        if row[n] < 0:
            row = list(map(neg, row))
        T.append(row[:n] + [int(j == i) for j in range(m)] + row[n:])
    red = [-s for s in map(sum, zip(*T))]
    red[n:width] = [0] * m
    basis = list(range(n, width))
    D = 1
    while True:
        # Bland's rule: the first column whose reduced cost is negative
        enter = next((j for j in range(width) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(T):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio T[i][rhs] / a against T[leave][rhs] / T[leave][enter]
                lhs = row[-1] * T[leave][enter]
                rhs = T[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # Unbounded phase-I cannot happen (objective bounded below by 0);
            # guard anyway.
            return None
        prow = T[leave]
        p = prow[enter]
        for i, row in enumerate(T):
            if i != leave:
                f = row[enter]
                T[i] = [(p * e - f * g) // D for e, g in zip(row, prow)]
        f = red[enter]
        red = [(p * e - f * g) // D for e, g in zip(red, prow)]
        D = p
        basis[leave] = enter

    if red[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(T[i][-1], D)
    return x


def _check_dims(dim: int, pts: Sequence[Sequence]) -> None:
    for v in pts:
        if len(v) != dim:
            raise ValueError(f"point {tuple(v)} has {len(v)} coordinates, expected {dim}")


def in_convex_hull(point: Sequence, vertices: Sequence[Sequence]) -> bool:
    """Exact test: is point a convex combination of the given vertices?
    The entries reach solve_eq_nonneg unchanged; it checks each one once."""
    pts = list(vertices)
    if not pts:
        return False
    dim = len(point)
    _check_dims(dim, pts)
    A = [[p[i] for p in pts] for i in range(dim)]
    A.append([1] * len(pts))
    return solve_eq_nonneg(A, [*point, 1]) is not None


def strict_separator(point: Sequence, others: Sequence[Sequence]) -> Optional[list[Fraction]]:
    """A rational w with point . w >= 1 + v . w for every v in others.

    Exists iff point is outside the convex hull of others.  Found by solving
    the slack form (point - v) . (w+ - w-) - s_v = 1, all variables >= 0.
    Each entry is checked before the differences are taken, so bools,
    floats and strings are refused, and integer data stays integer.
    """
    pts = list(others)
    dim = len(point)
    if not pts:
        raise ValueError("need at least one point to separate from")
    _check_dims(dim, pts)
    k = len(pts)
    u = [_entry(e) for e in point]
    A = []
    for idx, v in enumerate(pts):
        diff = [a - _entry(c) for a, c in zip(u, v)]
        slack = [0] * k
        slack[idx] = -1
        A.append(diff + list(map(neg, diff)) + slack)
    x = solve_eq_nonneg(A, [1] * k)
    if x is None:
        return None
    # w+_i and w-_i are negated columns, so no basis holds both: one is 0
    return [x[i] or -x[dim + i] for i in range(dim)]
