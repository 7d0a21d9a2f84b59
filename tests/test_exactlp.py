import fractions
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from tropfan import exactlp
from tropfan.exactlp import hull_separator, solve_eq_nonneg
from helpers import reference_in_convex_hull, reference_solve_eq_nonneg, spy


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def assert_farkas(A, b, y):
    """y is an integer certificate that A x = b has no solution x >= 0:
    y . b > 0 and y . A <= 0 in every column."""
    assert all(type(e) is int for e in y) and len(y) == len(A)
    assert dot(y, b) > 0, (A, b, y)
    assert all(dot(y, col) <= 0 for col in zip(*A)), (A, b, y)


class TestFeasibility:
    def test_simple_system(self):
        # x1 + x2 = 2, x1 - x2 = 0 -> x = (1, 1)
        assert solve_eq_nonneg([[1, 1], [1, -1]], [2, 0]) == ([1, 1], None)

    def test_negativity_blocks(self):
        # x1 + x2 = -1 has no nonnegative solution; the row is negated for
        # phase I, and the certificate undoes that sign
        assert solve_eq_nonneg([[1, 1]], [-1]) == (None, [-1])

    def test_zero_row_inconsistent(self):
        assert solve_eq_nonneg([[0, 0]], [1]) == (None, [1])

    def test_redundant_rows(self):
        x, y = solve_eq_nonneg([[1, 2], [2, 4], [1, 2]], [3, 6, 3])
        assert x is not None and y is None
        assert x[0] + 2 * x[1] == 3 and all(v >= 0 for v in x)

    def test_fully_degenerate_rhs(self):
        # b = 0 makes every pivot degenerate; Bland's rule must terminate
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randint(1, 4)
            n = rng.randint(1, 5)
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            x, _ = solve_eq_nonneg(A, [0] * m)
            assert x is not None
            for row in A:
                assert sum(c * v for c, v in zip(row, x)) == 0

    def test_random_solutions_verify(self):
        rng = random.Random(11)
        for _ in range(80):
            m = rng.randint(1, 4)
            n = rng.randint(1, 5)
            A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            b = [rng.randint(-6, 6) for _ in range(m)]
            x, y = solve_eq_nonneg(A, b)
            assert (x is None) != (y is None)
            if x is not None:
                assert all(v >= 0 for v in x)
                for row, rhs in zip(A, b):
                    assert sum(c * v for c, v in zip(row, x)) == rhs
            else:
                assert_farkas(A, b, y)

    def test_rational_data(self):
        x, _ = solve_eq_nonneg([[Fraction(1, 2), Fraction(1, 3)]], [Fraction(5, 6)])
        assert x is not None
        assert Fraction(1, 2) * x[0] + Fraction(1, 3) * x[1] == Fraction(5, 6)


def _on_segment(u, a, b):
    cross = (b[0] - a[0]) * (u[1] - a[1]) - (b[1] - a[1]) * (u[0] - a[0])
    if cross != 0:
        return False
    dot = (u[0] - a[0]) * (b[0] - a[0]) + (u[1] - a[1]) * (b[1] - a[1])
    length = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    if length == 0:
        return u == a
    return 0 <= dot <= length


def _in_triangle(u, a, b, c):
    det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    if det == 0:
        return False
    l1 = Fraction((u[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (u[1] - a[1]), det)
    l2 = Fraction((b[0] - a[0]) * (u[1] - a[1]) - (u[0] - a[0]) * (b[1] - a[1]), det)
    return l1 >= 0 and l2 >= 0 and l1 + l2 <= 1


def hull_oracle_2d(u, points):
    """Independent membership test: some vertex, edge, or triangle of the
    point set contains u (Caratheodory in the plane)."""
    if u in points:
        return True
    for a, b in itertools.combinations(points, 2):
        if _on_segment(u, a, b):
            return True
    for a, b, c in itertools.combinations(points, 3):
        if _in_triangle(u, a, b, c):
            return True
    return False


class TestConvexHull:
    def test_agrees_with_caratheodory_oracle(self):
        rng = random.Random(17)
        for _ in range(120):
            k = rng.randint(1, 6)
            pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(k)]
            u = (rng.randint(-5, 5), rng.randint(-5, 5))
            assert (hull_separator(u, pts) is None) == hull_oracle_2d(u, pts)

    def test_empty_set(self):
        # no point is in the hull of nothing, and no functional separates
        # from nothing in particular: the question is refused
        with pytest.raises(ValueError, match="at least one vertex"):
            hull_separator((0, 0), [])

    def test_rational_membership(self):
        # the barycenter needs fractional coefficients
        pts = [(0, 0), (1, 0), (0, 1)]
        assert hull_separator((Fraction(1, 3), Fraction(1, 3)), pts) is None
        assert hull_separator((Fraction(2, 3), Fraction(2, 3)), pts) == (1, 1)


class TestSeparator:
    def test_margin_contract(self):
        rng = random.Random(29)
        for _ in range(120):
            dim = rng.randint(1, 3)
            k = rng.randint(1, 5)
            pts = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(k)]
            u = tuple(rng.randint(-5, 5) for _ in range(dim))
            w = hull_separator(u, pts)
            assert (w is None) == reference_in_convex_hull(u, pts)
            if w is not None:
                assert math.gcd(*w) == 1
                assert all(dot(u, w) > dot(v, w) for v in pts)

    def test_requires_points(self):
        with pytest.raises(ValueError):
            hull_separator((1, 0), [])


class TestInputBoundary:
    # a float names another number (Fraction(0.1) keeps the binary
    # expansion), a bool is no entry, and a string is no number
    @pytest.mark.parametrize("A, b", [
        ([[0.1]], [0.1]),
        ([[1, "2"]], [1]),
        ([[True, 1]], [1]),
        ([[1, 2]], [1.5]),
    ])
    def test_inexact_entries_rejected(self, A, b):
        with pytest.raises(ValueError, match="expected an integer or a Fraction"):
            solve_eq_nonneg(A, b)

    def test_rhs_length_must_match(self):
        with pytest.raises(ValueError, match="rows but b has"):
            solve_eq_nonneg([[1, 2]], [1, 1])
        with pytest.raises(ValueError, match="rows but b has"):
            solve_eq_nonneg([], [1])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            solve_eq_nonneg([[1, 2], [1]], [1, 1])

    def test_integral_fractions_accepted(self):
        assert solve_eq_nonneg([[Fraction(2), 1]], [Fraction(4, 2)]) == ([1, 0], None)

    def test_hull_points_must_share_dimension(self):
        with pytest.raises(ValueError, match="coordinates, expected 2"):
            hull_separator((0, 0), [(0, 0, 5), (1, 0, 5)])
        with pytest.raises(ValueError, match="expected an integer or a Fraction"):
            hull_separator((0.5, 0), [(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="expected an integer or a Fraction"):
            hull_separator((0, 0), [(0, True)])

    def test_separator_points_must_share_dimension(self):
        # the refusals of the strict-separation LP that hull_separator
        # replaced, for points outside the hull
        with pytest.raises(ValueError, match="coordinates, expected 2"):
            hull_separator((2, 0), [(0,)])
        with pytest.raises(ValueError, match="expected an integer or a Fraction"):
            hull_separator((2, 0), [(0, True)])
        with pytest.raises(ValueError, match="expected an integer or a Fraction"):
            hull_separator((True, 0), [(0, 0)])


def _random_system(rng, k):
    """One seeded system: int or Fraction data; feasible by construction,
    b = 0, or a random (mostly infeasible) right-hand side; sometimes with a
    redundant row or a zero row."""
    m = rng.randint(1, 6)
    n = rng.randint(1, 9)
    if k % 2:
        def entry():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    else:
        def entry():
            return rng.randint(-5, 5)
    A = [[entry() for _ in range(n)] for _ in range(m)]
    kind = k % 3
    if kind == 0:
        x0 = [rng.choice((0, 0, 1, 2, Fraction(1, 3))) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    elif kind == 1:
        b = [0] * m
    else:
        b = [entry() for _ in range(m)]
    if m > 1 and k % 5 == 0:
        s = rng.choice((-2, 1, 3))
        A[-1] = [s * a for a in A[0]]
        b[-1] = s * b[0]
    if k % 7 == 0:
        A[rng.randrange(m)] = [0] * n
    return A, b


class TestDifferential:
    """The integer tableau against the Fraction-tableau simplex it replaced:
    the same pivots give the same x, not only the same feasibility, and
    every infeasible system comes with a Farkas certificate."""

    def test_same_solution_as_fraction_tableau(self):
        rng = random.Random(20231)
        outcomes = set()
        for k in range(20000):
            A, b = _random_system(rng, k)
            x, y = solve_eq_nonneg(A, b)
            assert x == reference_solve_eq_nonneg(A, b), (A, b)
            if x is not None:
                assert y is None
                assert all(type(v) is Fraction for v in x)
            else:
                assert_farkas(A, b, y)
            outcomes.add(x is None)
        assert outcomes == {True, False}

    def test_hull_and_separator_same_as_fraction_tableau(self):
        # 20,000 seeded (point, vertices) instances in dimensions 1-4 with
        # 1-7 vertices; every fifth has rational coordinates, and every
        # fourth point is a vertex or the midpoint of two.  The verdict is
        # the Fraction tableau's hull LP, and every separator must split
        # the point off strictly
        rng = random.Random(4099)
        seen = Counter()
        for k in range(20000):
            dim = rng.randint(1, 4)
            coord = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 3))) \
                if k % 5 == 0 else (lambda: rng.randint(-4, 4))
            pts = [tuple(coord() for _ in range(dim)) for _ in range(rng.randint(1, 7))]
            if k % 4 == 0:
                a, b = rng.choice(pts), rng.choice(pts)
                u = tuple(Fraction(c + d) / 2 for c, d in zip(a, b)) if k % 8 else a
            else:
                u = tuple(coord() for _ in range(dim))
            w = hull_separator(u, pts)
            inside = reference_in_convex_hull(u, pts)
            assert (w is None) == inside, (u, pts, w)
            if w is not None:
                assert all(type(c) is int for c in w) and math.gcd(*w) == 1
                assert all(dot(u, w) > dot(v, w) for v in pts), (u, pts, w)
            seen["inside" if inside else "outside"] += 1
            seen["negative coordinate"] += any(c < 0 for c in u)
        assert min(seen.values()) >= 4000, seen


def _twin_system(rng, k):
    """One seeded system with dependent columns: fresh columns, copies and
    negations of earlier ones, zero columns, and multiples v e_i (the -e_i
    slacks among them, like a strict-separation LP's); int or Fraction data
    by k; feasible by construction, b = 0 (fully degenerate), or a random
    right-hand side (mostly infeasible).  Returns A, b and the column kinds."""
    m = rng.randint(1, 5)
    if k % 2:
        def entry():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    else:
        def entry():
            return rng.randint(-4, 4)
    cols, kinds = [], []
    for _ in range(rng.randint(1, 10)):
        kind = rng.choice(("fresh", "fresh", "copy", "negation", "slack", "unit", "zero"))
        if kind in ("copy", "negation") and not cols:
            kind = "fresh"
        if kind == "fresh":
            col = [entry() for _ in range(m)]
        elif kind == "copy":
            col = list(rng.choice(cols))
        elif kind == "negation":
            col = [-e for e in rng.choice(cols)]
        elif kind == "zero":
            col = [0] * m
        else:
            col = [0] * m
            col[rng.randrange(m)] = -1 if kind == "slack" else rng.choice((1, 2, -3, entry()))
        cols.append(col)
        kinds.append(kind)
    A = [list(row) for row in zip(*cols)]
    kind = k % 3
    if kind == 0:
        x0 = [rng.choice((0, 0, 1, 2, Fraction(1, 3))) for _ in cols]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    elif kind == 1:
        b = [0] * m
    else:
        b = [entry() for _ in range(m)]
    return A, b, kinds


def test_twin_columns_same_solution_as_fraction_tableau():
    """Duplicated, negated and zero columns and multiples of e_i, as a
    strict-separation LP has them, leave the pivots and x those of the Fraction
    tableau, on rows whose sign the normalisation keeps and on rows it
    flips."""
    rng = random.Random(20261020)
    seen = Counter()
    for k in range(5000):
        A, b, kinds = _twin_system(rng, k)
        x, y = solve_eq_nonneg(A, b)
        assert x == reference_solve_eq_nonneg(A, b), (A, b)
        if x is None:
            assert_farkas(A, b, y)
        seen.update(kinds)
        seen["feasible" if x is not None else "infeasible"] += 1
        seen["fraction" if k % 2 else "int"] += 1
        seen["degenerate"] += not any(b)
        for j, kind in enumerate(kinds):
            if kind == "slack":
                i = next(i for i, row in enumerate(A) if row[j])
                seen["slack on a flipped row" if b[i] < 0 else "slack on a kept row"] += 1
    assert min(seen.values()) >= 300, seen
    assert len(seen) == 13, seen


def _fraction_calls(fn):
    """fn's result and the number of Python calls it made into fractions.py."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls += 1

    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def test_integer_data_stays_off_fractions(monkeypatch):
    """Integer data is pivoted without Fractions: only reading x builds them
    (at most one per variable, and the shared zero), where the Fraction
    tableau made 1,582 calls into fractions.py on the first system.  The hull
    LP hands integer points to the simplex as integer rows (at an earlier
    parent the hull and strict-separation LPs made 50 and 164 calls on the
    triangle), and a point outside reads no x at all: its separator is the
    integer certificate."""
    A = [[1, 2, -1, 0, 3], [0, 1, 1, -2, 1], [2, -1, 0, 1, 1]]
    b = [4, 1, 3]
    (x, _), calls = _fraction_calls(lambda: solve_eq_nonneg(A, b))
    assert x == reference_solve_eq_nonneg(A, b)
    assert calls <= len(A[0])

    solves = spy(monkeypatch, "solve_eq_nonneg", exactlp)
    tri = [(0, 0), (4, 0), (0, 4)]
    for u in ((1, 1), (5, 1), (4, 0), (3, 3)):
        w, calls = _fraction_calls(lambda: hull_separator(u, tri))
        inside = u in ((1, 1), (4, 0))
        assert (w is None) == inside
        assert calls <= (len(tri) + 1 if inside else 0)
    rows = [row for A, b in solves for row in (*A, b)]
    assert rows and all(type(e) is int for row in rows for e in row)
