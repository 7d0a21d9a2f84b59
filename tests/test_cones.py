import itertools
import random
from fractions import Fraction

import pytest

from tropfan import cones, extreme_rays
from tropfan.cones import bounded_points

from helpers import random_primitive_direction, reference_extreme_rays, spy


def cone_contains(N, t):
    return all(e >= 0 for e in t) and all(
        sum(w[j] * t[j] for j in range(len(t))) == 0 for w in N)


def brute_force_rays(N, n_vars, bound=4):
    """Oracle: minimal nonzero integer cone points, deduplicated by ray and
    filtered down to the extreme ones by 2-point decomposition."""
    pts = [p for p in itertools.product(range(bound + 1), repeat=n_vars)
           if any(p) and cone_contains(N, p)]
    prims = set()
    for p in pts:
        g = 0
        for e in p:
            g = __import__("math").gcd(g, e)
        prims.add(tuple(e // g for e in p))
    extremes = set()
    for r in prims:
        # r is extreme iff it is not a positive combination of two cone
        # points off its own ray; test decompositions within the sample
        decomposable = False
        for a, b in itertools.combinations(prims - {r}, 2):
            # solve r = x*a + y*b with x, y >= 0 rational: two unknowns
            for i, j in itertools.combinations(range(n_vars), 2):
                den = a[i] * b[j] - a[j] * b[i]
                if den == 0:
                    continue
                x = Fraction(r[i] * b[j] - r[j] * b[i], den)
                y = Fraction(a[i] * r[j] - a[j] * r[i], den)
                if x >= 0 and y >= 0 and all(
                        x * a[k] + y * b[k] == r[k] for k in range(n_vars)):
                    decomposable = True
                break
            if decomposable:
                break
        if not decomposable:
            extremes.add(r)
    return extremes


def test_no_constraints_gives_orthant():
    assert extreme_rays([], 3) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_zero_variable_cone():
    assert extreme_rays([], 0) == []


def test_single_balance_constraint():
    rays = extreme_rays([[1, -1]], 2)
    assert rays == [(1, 1)]


def test_infeasible_positive_row():
    assert extreme_rays([[1, 1, 1]], 3) == []


def test_square_cone():
    rays = extreme_rays([[1, -1, 1, -1]], 4)
    assert rays == [(0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)]


def test_two_dimensional_kernel():
    rays = extreme_rays([[1, -1, 1]], 3)
    assert rays == [(0, 1, 1), (1, 1, 0)]


def test_scaling_folds_into_primitive():
    rays = extreme_rays([[2, -4]], 2)
    assert rays == [(2, 1)]


def test_against_brute_force():
    rng = random.Random(61)
    for _ in range(50):
        n_vars = rng.randint(1, 4)
        n_cons = rng.randint(1, 3)
        N = [[rng.randint(-2, 2) for _ in range(n_vars)] for _ in range(n_cons)]
        if all(all(e == 0 for e in w) for w in N):
            continue
        got = set(extreme_rays(N, n_vars))
        for r in got:
            assert cone_contains(N, r)
        small = {r for r in got if max(r) <= 4}
        if small == got:  # oracle box saw everything
            assert got == brute_force_rays(N, n_vars)


def test_support_predicate_matches_post_filter():
    # pruning pairs by a downward-closed support predicate keeps exactly the
    # admitted rays of the unpruned run: bounds on the support size, and "at
    # most one variable per group" for random partitions of the variables
    rng = random.Random(20261020)
    sized = grouped = pruned = 0
    for i in range(320):
        n_vars = rng.randint(1, 9)
        N = [[rng.randint(-2, 2) for _ in range(n_vars)] for _ in range(rng.randint(1, 3))]
        if i % 2:
            k = rng.randint(0, n_vars)
            admissible = lambda s, k=k: s.bit_count() <= k
            sized += 1
        else:
            groups = [0] * rng.randint(1, n_vars)
            for j in range(n_vars):
                groups[rng.randrange(len(groups))] |= 1 << j
            admissible = lambda s, groups=groups: all((s & g).bit_count() <= 1 for g in groups)
            grouped += 1
        everything = extreme_rays(N, n_vars)
        assert everything == reference_extreme_rays(N, n_vars)
        got = extreme_rays(N, n_vars, admissible)
        assert got == reference_extreme_rays(N, n_vars, admissible), (N, i)
        pruned += len(got) < len(everything)
    assert sized >= 150 and grouped >= 150 and pruned >= 100


def test_support_bound_prunes_combinations(monkeypatch):
    # work-counter gate: 24 seeded classes in R^3 with circuits on at most 3
    # of them build 351 combinations; without the bound the run builds
    # 1,213 and keeps 895 rays
    rng = random.Random(2024)
    dirs = []
    while len(dirs) < 24:
        d = random_primitive_direction(rng, 3, bound=2)
        if d not in dirs:
            dirs.append(d)
    N = [[d[i] for d in dirs] for i in range(3)]
    built = spy(monkeypatch, "primitive", cones)
    rays = extreme_rays(N, 24, lambda s: s.bit_count() <= 3)
    assert len(rays) == 33 and len(built) <= 351
    assert rays == reference_extreme_rays(N, 24, lambda s: s.bit_count() <= 3)


def test_bounded_points_against_box_scan():
    # zero columns, repeated and opposite columns, rank below the row count
    # and zero limits all occur among these draws
    rng = random.Random(11)
    for _ in range(300):
        n_vars = rng.randint(1, 5)
        cols = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(n_vars)]
        if rng.random() < 0.3:
            cols = [tuple(c[0] * u for u in (1, 2, -1)) for c in cols]
        N = [[c[i] for c in cols] for i in range(3)]
        limits = [rng.randint(0, 4) for _ in range(n_vars)]
        box = itertools.product(*(range(lim + 1) for lim in limits))
        expected = {t for t in box if cone_contains(N, t)}
        got = list(bounded_points(N, limits))
        assert len(got) == len(set(got))
        assert set(got) == expected, (N, limits)


def test_bounded_points_small_cases():
    # x + y - z = 0: z, the coordinate with the largest limit, is solved for
    pts = list(bounded_points([[1, 1, -1]], [2, 3, 99]))
    assert sorted(pts) == sorted((x, y, x + y) for x in range(3) for y in range(4))
    assert list(bounded_points([[1, -1]], [0, 5])) == [(0, 0)]
    assert list(bounded_points([[0, 0]], [1, 1])) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_bounded_points_rejects_ragged_constraints():
    with pytest.raises(ValueError):
        list(bounded_points([[1, 2]], [1, 1, 1]))


@pytest.mark.parametrize("call, bad", [
    (lambda: extreme_rays([[True, -1]], 2), "True"),
    (lambda: extreme_rays([[1.5, -1]], 2), "1.5"),
    (lambda: extreme_rays([[1, -1]], 2.0), "2.0"),
    (lambda: list(bounded_points([[1.5, -1]], [3, 3])), "1.5"),
    (lambda: list(bounded_points([[1, -1]], [2.5, 2])), "2.5"),
    (lambda: list(bounded_points([[1, -1]], [True, 2])), "True"),
], ids=["ray-bool", "ray-float", "ray-n-vars", "points-float", "points-limit",
        "points-bool-limit"])
def test_non_integer_input_rejected(call, bad):
    # exactness: entries, n_vars and limits are never truncated, and the
    # error names the value the caller passed
    with pytest.raises(ValueError, match=f"expected an integer, got {bad}$"):
        call()


def test_integral_rationals_accepted():
    assert extreme_rays([[Fraction(2), -2]], Fraction(2)) == [(1, 1)]
    assert list(bounded_points([[Fraction(4, 2), -2]], [Fraction(1), 1])) == [(0, 0), (1, 1)]
