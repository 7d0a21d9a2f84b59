"""Exact rational linear feasibility via a fraction-free phase-I simplex.

Solves "find x >= 0 with A x = b" with no tolerances: the answer is exact.
The whole problem is scaled by the common denominator of its entries and
pivoted on an integer tableau with exact division (Edmonds 1967; Bareiss
1968), so Fractions appear only at the boundary: in checking rational input
and in reading the solution.  Bland's pivoting rule guarantees termination
despite degeneracy.  An infeasible system comes with the integer Farkas
certificate in phase I's last reduced-cost row, so one hull LP decides
membership and separates a point outside (hull_separator).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Optional, Sequence

from .maxplus import exact_rational


def _entry(e):
    return e if type(e) is int else exact_rational(e)


def solve_eq_nonneg(A: Sequence[Sequence], b: Sequence
                    ) -> tuple[Optional[list[Fraction]], Optional[list[int]]]:
    """(x, None) with x >= 0 and A x = b, or (None, y) when no such x exists,
    with y an integer Farkas certificate: y . b > 0 and y . A <= 0 in every
    column.

    Entries must be ints or rationals.  Rows are [A | b] times the least
    common denominator D0 of all entries, so the integer tableau T always
    equals D times the true tableau, where D is the last pivot (D0's own
    factor cancels: uniform scaling moves neither the pivots nor x).  A pivot
    on p = T[r][e] keeps row r and maps every other row, the reduced-cost row
    included, to (p * T[i] - T[i][e] * T[r]) // D, a division that is always
    exact.  Every pivot is positive, so every sign and every ratio comparison
    is that of the Fraction tableau, and Bland's rule picks the same pivots.

    Artificial i has reduced cost 1 - pi_i, for pi the simplex multipliers
    of the sign-normalised rows.  A positive final artificial sum is pi . b,
    and no reduced cost is negative, so pi . A <= 0: y_i = s_i (D - red[n+i])
    is D pi with the row signs s_i (-1 where b_i < 0) undone.
    """
    m = len(A)
    if len(b) != m:
        raise ValueError(f"A has {m} rows but b has {len(b)} entries")
    if m == 0:
        return [], None
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
    signs = [-1 if row[n] < 0 else 1 for row in rows]
    T = [[s * e for e in row[:n]] + [int(j == i) for j in range(m)] + [s * row[n]]
         for i, (row, s) in enumerate(zip(rows, signs))]
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
        # leave is never None: the artificial sum is bounded below by 0
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
        return None, [s * (D - r) for s, r in zip(signs, red[n:width])]
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(T[i][-1], D)
    return x, None


def _check_dims(dim: int, pts: Sequence[Sequence]) -> None:
    for v in pts:
        if len(v) != dim:
            raise ValueError(f"point {tuple(v)} has {len(v)} coordinates, expected {dim}")


def hull_separator(point: Sequence, vertices: Sequence[Sequence]) -> Optional[tuple[int, ...]]:
    """None when point is a convex combination of the (nonempty) vertices,
    else a primitive integer w with point . w > v . w for every vertex v.

    One LP, lambda >= 0 with sum_v lambda_v (v, 1) = (point, 1), whose entries
    solve_eq_nonneg checks.  Its certificate (w, c) has w . v + c <= 0 <
    w . point + c, so w separates, and w = 0 would give c <= 0 < c."""
    pts = list(vertices)
    if not pts:
        raise ValueError("need at least one vertex to separate from")
    dim = len(point)
    _check_dims(dim, pts)
    A = [[p[i] for p in pts] for i in range(dim)]
    A.append([1] * len(pts))
    _, y = solve_eq_nonneg(A, [*point, 1])
    if y is None:
        return None
    g = gcd(*y[:dim])
    return tuple(c // g for c in y[:dim])
