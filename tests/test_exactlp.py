import fractions
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from tropfan import exactlp
from tropfan.exactlp import in_convex_hull, solve_eq_nonneg, strict_separator
from helpers import reference_solve_eq_nonneg


class TestFeasibility:
    def test_simple_system(self):
        # x1 + x2 = 2, x1 - x2 = 0 -> x = (1, 1)
        x = solve_eq_nonneg([[1, 1], [1, -1]], [2, 0])
        assert x == [1, 1]

    def test_negativity_blocks(self):
        # x1 + x2 = -1 has no nonnegative solution
        assert solve_eq_nonneg([[1, 1]], [-1]) is None

    def test_zero_row_inconsistent(self):
        assert solve_eq_nonneg([[0, 0]], [1]) is None

    def test_redundant_rows(self):
        x = solve_eq_nonneg([[1, 2], [2, 4], [1, 2]], [3, 6, 3])
        assert x is not None
        assert x[0] + 2 * x[1] == 3 and all(v >= 0 for v in x)

    def test_fully_degenerate_rhs(self):
        # b = 0 makes every pivot degenerate; Bland's rule must terminate
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randint(1, 4)
            n = rng.randint(1, 5)
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            x = solve_eq_nonneg(A, [0] * m)
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
            x = solve_eq_nonneg(A, b)
            if x is not None:
                assert all(v >= 0 for v in x)
                for row, rhs in zip(A, b):
                    assert sum(c * v for c, v in zip(row, x)) == rhs

    def test_rational_data(self):
        x = solve_eq_nonneg([[Fraction(1, 2), Fraction(1, 3)]], [Fraction(5, 6)])
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
            assert in_convex_hull(u, pts) == hull_oracle_2d(u, pts)

    def test_empty_set(self):
        assert not in_convex_hull((0, 0), [])

    def test_rational_membership(self):
        # the barycenter needs fractional coefficients
        pts = [(0, 0), (1, 0), (0, 1)]
        assert in_convex_hull((Fraction(1, 3), Fraction(1, 3)), pts)
        assert not in_convex_hull((Fraction(2, 3), Fraction(2, 3)), pts)


class TestSeparator:
    def test_margin_contract(self):
        rng = random.Random(29)
        for _ in range(120):
            dim = rng.randint(1, 3)
            k = rng.randint(1, 5)
            pts = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(k)]
            u = tuple(rng.randint(-5, 5) for _ in range(dim))
            w = strict_separator(u, pts)
            inside = in_convex_hull(u, pts)
            assert (w is None) == inside
            if w is not None:
                uw = sum(a * b for a, b in zip(u, w))
                for v in pts:
                    assert uw >= 1 + sum(a * b for a, b in zip(v, w))

    def test_requires_points(self):
        with pytest.raises(ValueError):
            strict_separator((1, 0), [])


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
        assert solve_eq_nonneg([[Fraction(2), 1]], [Fraction(4, 2)]) == [1, 0]

    def test_hull_points_must_share_dimension(self):
        with pytest.raises(ValueError, match="coordinates, expected 2"):
            in_convex_hull((0, 0), [(0, 0, 5), (1, 0, 5)])
        with pytest.raises(ValueError, match="expected an integer or a Fraction"):
            in_convex_hull((0.5, 0), [(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="expected an integer or a Fraction"):
            in_convex_hull((0, 0), [(0, True)])

    def test_separator_points_must_share_dimension(self):
        with pytest.raises(ValueError, match="coordinates, expected 2"):
            strict_separator((2, 0), [(0,)])
        with pytest.raises(ValueError, match="expected an integer or a Fraction"):
            strict_separator((2, 0), [(0, True)])
        with pytest.raises(ValueError, match="expected an integer or a Fraction"):
            strict_separator((True, 0), [(0, 0)])


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
    the same pivots give the same x, not only the same feasibility."""

    def test_same_solution_as_fraction_tableau(self):
        rng = random.Random(20231)
        outcomes = set()
        for k in range(20000):
            A, b = _random_system(rng, k)
            x = solve_eq_nonneg(A, b)
            assert x == reference_solve_eq_nonneg(A, b), (A, b)
            if x is not None:
                assert all(type(v) is Fraction for v in x)
            outcomes.add(x is None)
        assert outcomes == {True, False}

    def test_hull_and_separator_same_as_fraction_tableau(self, monkeypatch):
        rng = random.Random(4099)
        cases = []
        for k in range(2000):
            dim = rng.randint(1, 4)
            coord = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 3))) \
                if k % 2 else (lambda: rng.randint(-4, 4))
            pts = [tuple(coord() for _ in range(dim)) for _ in range(rng.randint(1, 6))]
            u = rng.choice(pts) if k % 4 == 0 else tuple(coord() for _ in range(dim))
            cases.append((u, pts))
        got = [(in_convex_hull(u, pts), strict_separator(u, pts)) for u, pts in cases]
        monkeypatch.setattr(exactlp, "solve_eq_nonneg", reference_solve_eq_nonneg)
        want = [(in_convex_hull(u, pts), strict_separator(u, pts)) for u, pts in cases]
        assert got == want
        assert {h for h, _ in got} == {True, False}


def _twin_system(rng, k):
    """One seeded system with dependent columns: fresh columns, copies and
    negations of earlier ones, zero columns, and multiples v e_i (the -e_i
    slacks among them, like the separator LP's); int or Fraction data
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
    """Duplicated, negated and zero columns and multiples of e_i, as the
    separator LP has them, leave the pivots and x those of the Fraction
    tableau, on rows whose sign the normalisation keeps and on rows it
    flips."""
    rng = random.Random(20261020)
    seen = Counter()
    for k in range(5000):
        A, b, kinds = _twin_system(rng, k)
        x = solve_eq_nonneg(A, b)
        assert x == reference_solve_eq_nonneg(A, b), (A, b)
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
    and separator LPs hand integer points to the simplex as integer rows (at
    the parent they made 50 and 164 calls on the triangle)."""
    A = [[1, 2, -1, 0, 3], [0, 1, 1, -2, 1], [2, -1, 0, 1, 1]]
    b = [4, 1, 3]
    x, calls = _fraction_calls(lambda: solve_eq_nonneg(A, b))
    assert x == reference_solve_eq_nonneg(A, b)
    assert calls <= len(A[0])

    rows = []

    def recording(A, b):
        rows.extend([*A, b])
        return solve_eq_nonneg(A, b)

    monkeypatch.setattr(exactlp, "solve_eq_nonneg", recording)
    tri = [(0, 0), (4, 0), (0, 4)]
    for u in ((1, 1), (5, 1), (4, 0)):
        inside, calls = _fraction_calls(lambda: in_convex_hull(u, tri))
        assert inside == (u != (5, 1))
        assert calls <= len(tri) + 1
    for u in ((3, 3), (1, 1)):
        w, calls = _fraction_calls(lambda: strict_separator(u, tri))
        assert (w is None) == (u == (1, 1))
        # reading x, then one Fraction subtraction per coordinate of w
        assert calls <= 2 * len(tri) + 1 + 10 * len(u)
    assert rows and all(type(e) is int for row in rows for e in row)
