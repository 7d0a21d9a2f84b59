import random
from collections import Counter
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

import tropfan.tropoly
from tropfan import (PolySyntaxError, TropPoly, TropVector, fn_eq_on_rays,
                     fn_eq_on_space, parse_poly, separating_point,
                     substitute_units)
from tropfan.tropoly import _is_vertex, differing_direction

from helpers import (outcome, random_int_vector, random_poly,
                     random_primitive_direction, random_rational_point,
                     reference_differing_direction, reference_eval,
                     reference_fn_eq_on_space, reference_in_convex_hull,
                     reference_is_vertex, reference_parse_poly,
                     reference_separating_point, spy)

# factor-like and operator-like pieces, joined alternately by
# random_poly_text: among valid tokens they hold Unicode spaces (U+3000,
# U+00A0, U+001C) and digits (U+0663, U+0661, U+0662), x0, indices past the
# dimension, 0 as a factor, and '^' followed by whitespace or by nothing
POLY_FACTORS = (["x1", " x2 ", "x1^2", "x2 ^ -1", "x1^+3", "\u3000x1", "x1 ", "0", " 0 "] * 4
                + ["x3", "x4", "x0", "x01", "x12", "x", "x1^", "x2 ^ ", "x1^\t4", "x1^-",
                   "\u0663", "x\u0661", "x1^\u0662", "y", "x1x2", "", "00", " ",
                   "x1\n^\n2", "\u00a0x2\u00a0"])
POLY_OPS = ["*", "+", " + ", "\t*", " +\u00a0", "\x1c*"] * 4 + ["", " ", "^", "-", "**", "++",
                                                                 "+0*"]


def random_poly_text(rng):
    k = rng.randint(1, 5)
    parts = rng.choices(POLY_FACTORS, k=k)
    return parts[0] + "".join(map(add, rng.choices(POLY_OPS, k=k - 1), parts[1:]))


def parse_outcome(parse, text, dim):
    try:
        return parse(text, dim)
    except ValueError as err:  # PolySyntaxError is a ValueError
        return type(err), str(err), getattr(err, "position", None)


class TestParser:
    def test_basic(self):
        p = parse_poly("x1*x2^-1 + x3", 3)
        assert p.monomials == {(1, -1, 0), (0, 0, 1)}

    def test_zero_monomial(self):
        assert parse_poly("0", 2).monomials == {(0, 0)}

    def test_duplicates_merge(self):
        assert parse_poly("x1 + x1", 1).monomials == {(1,)}

    def test_repeated_factor_adds_exponents(self):
        assert parse_poly("x1*x1*x2^3", 2).monomials == {(2, 3)}

    def test_whitespace_and_defaults(self):
        p = parse_poly("  x2 ^ 2 *x1+ 0 ", 2)
        assert p.monomials == {(1, 2), (0, 0)}

    def test_syntax_error_carries_position(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("x1 + + x2", 2)
        assert err.value.position == 5

    def test_zero_is_a_whole_monomial(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("0*x1", 1)

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError, match="x3"):
            parse_poly("x3", 2)
        with pytest.raises((ValueError, PolySyntaxError)):
            parse_poly("x0", 2)

    def test_matches_scanner_reference(self):
        # differential: the pattern loop against the closure scanner it
        # replaced, on 100,000 seeded strings; each gives the same TropPoly,
        # or the same exception type, message and position
        rng = random.Random(20261021)
        outcomes = Counter()
        for _ in range(100_000):
            text, dim = random_poly_text(rng), rng.randint(1, 3)
            got = parse_outcome(parse_poly, text, dim)
            assert got == parse_outcome(reference_parse_poly, text, dim), (text, dim)
            outcomes["parsed" if isinstance(got, TropPoly) else got[1].split(" (")[0]
                     .split(" x")[0]] += 1
        assert len(outcomes) == 5 and min(outcomes.values()) >= 5_000, outcomes

    @pytest.mark.parametrize("text, position", [
        ("x1^ ", 4), ("x1 ^\u3000+", 5), ("x1 *\u00a00", 5), ("\u3000x\u0661", 1),
        ("x1 + 0 * x2", 7), ("0x1", 1), ("x1^2^3", 4), ("", 0)])
    def test_error_positions(self, text, position):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly(text, 2)
        assert err.value.position == position
        assert parse_outcome(parse_poly, text, 2) == parse_outcome(reference_parse_poly, text, 2)

    def test_unicode_whitespace_is_skipped(self):
        # str.isspace() and the pattern's \s accept the same characters
        assert parse_poly("\u3000x1\u00a0*\x1cx2 ^\u2003-1", 2).monomials == {(1, -1)}


@pytest.mark.parametrize("bad", [(0.5, True), (1, 1.0), (Fraction(3, 2), 0)])
def test_non_integer_exponents_rejected(bad):
    # exactness: exponents are never truncated, (0.5, True) is not (0, 1)
    with pytest.raises(ValueError, match="expected an integer"):
        TropPoly(2, [bad])


@pytest.mark.parametrize("monomials", [[(1, 0), (1.0, 0)], [(1, 0), (True, 0)]], ids=repr)
def test_inexact_duplicate_of_an_int_exponent_rejected(monomials):
    # 1.0 == 1 and True == 1, so a check after the frozenset dedups could
    # keep the int tuple and never see the float or the bool
    with pytest.raises(ValueError, match="expected an integer"):
        TropPoly(2, monomials)


def test_integral_rational_exponents_become_ints():
    p = TropPoly(2, [(Fraction(4, 2), 0)])
    assert p.monomials == {(2, 0)}
    assert all(type(e) is int for u in p.monomials for e in u)


def test_int_exponents_checked_once(monkeypatch):
    # one type check for all int exponents: exact_int only sees the dim
    calls = spy(monkeypatch, "exact_int", tropfan.tropoly)
    TropPoly(3, [(0, 0, 0), (4, -2, 1), (-4, 2, -1), (1, 1, 0)])
    assert calls == [(3,)]
    TropPoly(2, [(1, Fraction(2))])
    assert calls == [(3,), (2,), (1,), (2,)]


@pytest.mark.parametrize("dim", [2.0, True, "2"])
def test_non_integer_dimension_rejected(dim):
    for make in (lambda: TropPoly(dim, [(0, 1)]), lambda: TropPoly.one(dim),
                 lambda: TropPoly.zero(dim), lambda: parse_poly("x1", dim)):
        with pytest.raises(ValueError, match="expected an integer"):
            make()
    assert TropPoly.one(Fraction(2)) == TropPoly(2, [(0, 0)])
    assert parse_poly("x1", Fraction(2)) == TropPoly(2, [(1, 0)])


@pytest.mark.parametrize("dim", [0, -1])
def test_nonpositive_dimension_rejected(dim):
    # parse_poly checks the dimension before it reads a variable index
    for make in (lambda: TropPoly(dim, []), lambda: TropPoly.one(dim),
                 lambda: TropPoly.zero(dim), lambda: parse_poly("x1", dim)):
        with pytest.raises(ValueError, match="^ambient dimension must be positive$"):
            make()


class TestEval:
    def test_two_dot_products(self):
        p = TropPoly(2, [(1, 0), (0, -1)])
        # oracle: the two inner products
        assert (1, 0)[0] * 2 + (1, 0)[1] * 3 == 2
        assert (0, -1)[0] * 2 + (0, -1)[1] * 3 == -3
        assert p.eval((2, 3)) == 2

    def test_constant_zero(self):
        assert TropPoly(3, [(0, 0, 0)]).eval((5, -7, 9)) == 0

    def test_single_monomial_matches_weighted_row(self):
        # w * eval(x3, d) on the last ray of the 5-ray fan reproduces the
        # last generator entry: 1 * ((0,0,1) . (0,0,-1)) * 4 = -4
        p = TropPoly(3, [(0, 0, 1)])
        assert p.eval((1, 1, -3)) == -3
        assert 4 * p.eval((0, 0, -1)) == -4

    def test_rational_points(self):
        p = TropPoly(2, [(2, 0), (0, 3)])
        assert p.eval((Fraction(1, 2), Fraction(1, 3))) == Fraction(1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            TropPoly(2, [(1, 0)]).eval((1, 2, 3))

    def test_zero_poly_evaluates_to_bottom(self):
        assert TropPoly.zero(2).eval((1, 2)) is None

    def test_floats_and_bools_refused(self):
        # the zero polynomial checks the point as a nonzero one does
        for p in (TropPoly(2, [(1, 0), (0, 1)]), TropPoly.zero(2)):
            for point in ([1.5, 2], [True, 0], (0.5, True)):
                with pytest.raises(ValueError, match="expected an integer or a Fraction"):
                    p.eval(point)

    def test_matches_entrywise_reference(self):
        # int points keep int values; rational points (denominators up to 12,
        # some entries left as ints) and int-valued Fractions give Fractions
        rng = random.Random(31)
        for i in range(600):
            dim = rng.randint(1, 4)
            p = random_poly(rng, dim, max_monos=6, bound=rng.choice((3, 40)))
            if i % 3 == 0:
                x = random_int_vector(rng, dim, -9, 9)
            elif i % 3 == 1:
                x = tuple(rng.randint(-9, 9) if rng.random() < 0.3 else c
                          for c in random_rational_point(rng, dim, den_bound=12))
            else:
                x = tuple(Fraction(rng.randint(-9, 9)) for _ in range(dim))
            got, want = p.eval(x), reference_eval(p, x)
            assert got == want and type(got) is type(want)


class TestCanonical:
    def test_midpoint_dropped(self):
        p = TropPoly(2, [(0, 0), (2, 0), (1, 0)])
        assert p.canonical().monomials == {(0, 0), (2, 0)}

    def test_vertices_kept(self):
        p = TropPoly(2, [(1, 0), (0, 1)])
        assert p.canonical() == p

    def test_convex_combination_dropped(self):
        # oracle first: (1,1) is the average of (2,0) and (0,2)
        assert reference_in_convex_hull((1, 1), [(0, 0), (2, 0), (0, 2)])
        assert not reference_in_convex_hull((2, 0), [(0, 0), (0, 2), (1, 1)])
        p = TropPoly(2, [(0, 0), (2, 0), (0, 2), (1, 1)])
        assert p.canonical().monomials == {(0, 0), (2, 0), (0, 2)}

    def test_idempotent_and_eval_preserving_random(self):
        rng = random.Random(99)
        for _ in range(25):
            dim = rng.randint(1, 3)
            p = random_poly(rng, dim, max_monos=7)
            c = p.canonical()
            assert c.canonical() == c
            for _ in range(40):
                x = random_rational_point(rng, dim)
                assert p.eval(x) == c.eval(x)

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            TropPoly.zero(2).canonical()

    def test_is_vertex_matches_hull_lp(self):
        # small coordinate ranges make ties common: an exponent that shares a
        # coordinate's extreme value with another must still take the LP
        rng = random.Random(47)
        tied_non_vertices = 0
        for _ in range(1200):
            dim = rng.randint(2, 4)
            bound = rng.randint(1, 3)
            mono = sorted({random_int_vector(rng, dim, -bound, bound)
                           for _ in range(rng.randint(1, 8))})
            for u in mono:
                expected = reference_is_vertex(u, mono)
                assert _is_vertex(u, mono) == expected
                tied_non_vertices += not expected and any(
                    c in (max(v[i] for v in mono), min(v[i] for v in mono))
                    for i, c in enumerate(u))
        assert tied_non_vertices >= 100

    def test_json_round_trip(self):
        p = TropPoly(2, [(1, -1), (0, 2)])
        assert p.to_json() == [[0, 2], [1, -1]]
        assert TropPoly.from_json(p.to_json(), 2) == p


def _dot(u, x):
    return sum(a * b for a, b in zip(u, x))


@pytest.fixture
def lp_calls(monkeypatch):
    """The hull LPs that tropoly starts: hull_separator is its one entry
    point into exactlp."""
    return spy(monkeypatch, "hull_separator", tropfan.tropoly)


class TestEqOnSpace:
    def test_redundant_monomial_equal(self):
        f = TropPoly(2, [(0, 0), (2, 0), (1, 0)])
        g = TropPoly(2, [(0, 0), (2, 0)])
        assert fn_eq_on_space(f, g)

    def test_distinct_monomials_unequal(self):
        assert not fn_eq_on_space(TropPoly(2, [(1, 0)]), TropPoly(2, [(0, 1)]))

    def test_separating_point_certificate(self):
        rng = random.Random(5)
        for _ in range(40):
            dim = rng.randint(1, 3)
            f = random_poly(rng, dim)
            g = random_poly(rng, dim)
            point = separating_point(f, g)
            if fn_eq_on_space(f, g):
                assert point is None
            else:
                assert point is not None
                assert f.eval(point) != g.eval(point)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fn_eq_on_space(TropPoly(2, [(1, 0)]), TropPoly(3, [(1, 0, 0)]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            separating_point(TropPoly(2, [(1, 0)]), TropPoly(3, [(1, 0, 0)]))

    def test_zero_poly_rejected(self):
        f = TropPoly(2, [(1, 0)])
        for a, b in ((f, TropPoly.zero(2)), (TropPoly.zero(2), f)):
            for decide in (fn_eq_on_space, separating_point):
                with pytest.raises(ValueError, match="nonzero polynomials"):
                    decide(a, b)

    def test_matches_canonical_form_reference(self):
        # a third of the pairs are f plus points of its hull or f minus one
        # monomial, so that equal pairs and near misses are well represented
        rng = random.Random(2024)
        equal = 0
        for _ in range(2000):
            dim = rng.randint(1, 3)
            kind = rng.randrange(6)
            if kind == 0:
                # doubled exponents, so that midpoints of pairs are integral
                f = TropPoly(dim, [tuple(2 * e for e in u)
                                   for u in random_poly(rng, dim, max_monos=4).monomials])
                mono = f.sorted_monomials()
                g = f + TropPoly(dim, [tuple((a + b) // 2 for a, b in
                                             zip(rng.choice(mono), rng.choice(mono)))
                                       for _ in range(rng.randint(1, 3))])
            elif kind == 1:
                f = random_poly(rng, dim, max_monos=7)
                mono = f.sorted_monomials()
                if len(mono) > 1:
                    mono.remove(rng.choice(mono))
                g = TropPoly(dim, mono)
            else:
                f = random_poly(rng, dim, max_monos=7, bound=rng.choice((1, 3)))
                g = random_poly(rng, dim, max_monos=7, bound=rng.choice((1, 3)))
            if rng.random() < 0.5:
                f, g = g, f
            # any point where f and g differ is a valid certificate; the one
            # returned separates the first unshared exponent, f's before
            # g's, that lies outside the other polynomial's hull
            expected = reference_separating_point(f, g)
            point = separating_point(f, g)
            assert (point is None) == (expected is None)
            if point is not None:
                assert f.eval(point) != g.eval(point)
                u, other = next((u, q.monomials) for p, q in ((f, g), (g, f))
                                for u in p.sorted_monomials() if u not in q.monomials
                                and not reference_in_convex_hull(u, q.sorted_monomials()))
                assert all(_dot(u, point) > _dot(v, point) for v in other)
            assert fn_eq_on_space(f, g) == (expected is None)
            equal += expected is None
        assert equal >= 400

    def test_shared_exponents_need_no_lp(self, monkeypatch, lp_calls):
        # f and g share every vertex; only g's (1, 1) is tested, and it lies
        # in f's hull: one hull LP
        monkeypatch.setattr(TropPoly, "canonical", None)  # no equality path uses it
        f = TropPoly(2, [(0, 0), (2, 0), (0, 2)])
        g = f + TropPoly(2, [(1, 1)])
        assert fn_eq_on_space(f, g)
        assert len(lp_calls) == 1

    def test_membership_matches_reference(self, monkeypatch):
        # 2,500 seeded pairs: f plus points of its hull (equal), f plus one
        # random exponent, f plus one exponent from f's bounding box (which
        # no refutation settles when it falls between f's lexicographic
        # extremes), f with one exponent replaced, and two random
        # polynomials.  Each decision is logged: a refutation comes first and
        # alone, and an LP answers False only as the last step.  Every kind
        # of decision must occur often
        log = []
        real_refuted, real_hull = tropfan.tropoly._refuted, tropfan.tropoly.hull_separator

        def refuted(u, pts):
            out = real_refuted(u, pts)
            if out:
                log.append("lexicographic" if u < pts[0] or u > pts[-1] else "coordinate")
            return out

        def hull(u, pts):
            w = real_hull(u, pts)
            log.append("outside LP" if w else "inside LP")
            return w

        rng = random.Random(2025)
        kinds = Counter()
        for i in range(2500):
            dim = rng.randint(1, 4)
            f = random_poly(rng, dim, max_monos=6, bound=rng.choice((1, 3)))
            mono = f.sorted_monomials()
            if i % 5 == 0:
                doubled = [tuple(2 * e for e in u) for u in mono]
                f = TropPoly(dim, doubled)
                g = f + TropPoly(dim, [tuple((a + b) // 2 for a, b in
                                             zip(rng.choice(doubled), rng.choice(doubled)))
                                       for _ in range(rng.randint(1, 3))])
            elif i % 5 == 1:
                g = f + TropPoly(dim, [random_int_vector(rng, dim, -3, 3)])
            elif i % 5 == 2:
                g = f + TropPoly(dim, [tuple(rng.randint(min(c), max(c)) for c in zip(*mono))])
            elif i % 5 == 3:
                g = TropPoly(dim, mono[:-1] + [random_int_vector(rng, dim, -3, 3)])
            else:
                g = random_poly(rng, dim, max_monos=6, bound=rng.choice((1, 3)))
            if rng.random() < 0.5:
                f, g = g, f
            expected = reference_separating_point(f, g) is None
            assert reference_fn_eq_on_space(f, g) == expected
            log.clear()
            with monkeypatch.context() as m:
                m.setattr(tropfan.tropoly, "_refuted", refuted)
                m.setattr(tropfan.tropoly, "hull_separator", hull)
                assert fn_eq_on_space(f, g) == expected
            if expected:
                assert set(log) <= {"inside LP"}
                kinds["equal"] += 1
            else:
                assert log[-1] != "inside LP" and set(log[:-1]) <= {"inside LP"}
                assert log[-1] == "outside LP" or len(log) == 1
                kinds[log[-1]] += 1
        assert min(kinds.values()) >= 150 and len(kinds) == 4, kinds

    def test_extreme_exponent_needs_no_lp(self, monkeypatch, lp_calls):
        # an exponent of g lexicographically past f's exponents, or strictly
        # beyond them in one coordinate, decides "unequal" without an LP
        monkeypatch.setattr(TropPoly, "canonical", None)
        # (1, 1) lies in f's hull and would take an LP, but the refutations
        # of every exponent come before any LP
        f = TropPoly(2, [(0, 0), (2, 0), (0, 2)])
        for extra in ([(3, 3)], [(-1, 1)], [(1, 5)], [(1, -1)], [(1, 1), (3, 3)]):
            g = f + TropPoly(2, extra)
            assert not fn_eq_on_space(f, g) and not fn_eq_on_space(g, f)
        assert lp_calls == []

    def test_hull_lp_count(self, lp_calls):
        # pinned work over a fixed list of pairs shaped like the certify
        # benchmark's: f with one exponent replaced (unequal), and f plus the
        # midpoint of two of its exponents (equal).  The decision takes hull
        # LPs only, and none for a pair that a refutation settles
        rng = random.Random(67)
        unequal = 0
        for i in range(200):
            dim = rng.randint(3, 4)
            f = [random_int_vector(rng, dim, -3, 3) for _ in range(rng.randint(3, 6))]
            if i % 2:
                g = f[:-1] + [random_int_vector(rng, dim, -3, 3)]
            else:
                f = [tuple(2 * e for e in u) for u in f]
                g = f + [tuple((a + b) // 2 for a, b in zip(f[0], f[-1]))]
            unequal += not fn_eq_on_space(TropPoly(dim, f), TropPoly(dim, g))
        assert unequal == 100
        assert len(lp_calls) == 116

    def test_vertex_lp_count(self, lp_calls):
        # pinned work over a fixed list of pairs: one hull LP per unshared
        # exponent up to the first outside the other hull, whose certificate
        # is the point
        rng = random.Random(61)
        for _ in range(200):
            dim = rng.randint(2, 4)
            f = random_poly(rng, dim, max_monos=7, bound=2)
            g = f + random_poly(rng, dim, max_monos=3, bound=2)
            separating_point(f, g)
        assert len(lp_calls) == 201


class TestEqOnRays:
    def test_agree_on_positive_side(self):
        f = TropPoly(2, [(1, 0), (0, 1)])
        g = TropPoly(2, [(1, 0)])
        # oracle: f(1,0)=1, g(1,0)=1; f(1,1)=1, g(1,1)=1
        assert fn_eq_on_rays(f, g, [(1, 0), (1, 1)])
        # f(0,1)=1 vs g(0,1)=0
        assert not fn_eq_on_rays(f, g, [(0, 1)])

    def test_reflexive(self):
        f = TropPoly(2, [(3, -2), (0, 1)])
        assert fn_eq_on_rays(f, f, [(1, 2), (-3, 1), (0, -1)])

    def test_zero_direction_rejected(self):
        f = TropPoly(2, [(1, 0)])
        with pytest.raises(ValueError):
            fn_eq_on_rays(f, f, [(0, 0)])

    @pytest.mark.parametrize("bad", [(0.5, 0), (True, 0), (Fraction(1, 2), 1)])
    def test_non_integer_direction_rejected(self, bad):
        # a non-integer direction is an error of its own, not a zero direction
        f = TropPoly(2, [(1, 0)])
        with pytest.raises(ValueError, match="expected an integer"):
            fn_eq_on_rays(f, f, [bad])

    def test_differing_direction_matches_per_polynomial_reference(self):
        # differing_direction evaluates f and g together at each direction;
        # the reference evaluates them one at a time.  Six kinds of case, in
        # turn: int directions, integral Fraction directions, a zero
        # polynomial on either side, a direction of the wrong length, a
        # float, bool or non-integral Fraction entry, and g of another
        # dimension.  Half the pairs are f and f plus one exponent, half two
        # random polynomials; some int cases hold a zero direction.  Same answer
        # (as ints) or same error type and message
        rng = random.Random(53)
        seen = Counter()
        for i in range(2400):
            dim = rng.randint(1, 4)
            f = random_poly(rng, dim)
            g = (random_poly(rng, dim) if i % 2
                 else f + TropPoly(dim, [random_int_vector(rng, dim, -3, 3)]))
            dirs = [random_primitive_direction(rng, dim, 3) for _ in range(rng.randint(0, 4))]
            kind = i // 2 % 6
            if kind == 0 and rng.random() < 0.3:
                dirs.insert(rng.randrange(len(dirs) + 1), (0,) * dim)
            elif kind == 1:
                dirs = [tuple(map(Fraction, d)) for d in dirs]
            elif kind == 2:
                zero = TropPoly.zero(dim)
                f, g = rng.choice([(f, zero), (zero, g), (zero, zero)])
            elif kind == 3:
                dirs.insert(rng.randrange(len(dirs) + 1),
                            random_int_vector(rng, dim + rng.choice((-1, 1)), 1, 3))
            elif kind == 4:
                bad = list(random_int_vector(rng, dim, 1, 3))
                bad[rng.randrange(dim)] = rng.choice((0.5, 1.0, True, Fraction(1, 2)))
                dirs.insert(rng.randrange(len(dirs) + 1), tuple(bad))
            elif kind == 5:
                g = random_poly(rng, dim + 1)
            got = outcome(differing_direction, f, g, dirs)
            assert repr(got) == repr(outcome(reference_differing_direction, f, g, dirs))
            seen["error" if type(got) is tuple and type(got[0]) is type else
                 "equal" if got is None else "direction"] += 1
        assert seen["error"] >= 1000 and seen["direction"] >= 500 and seen["equal"] >= 250, seen

    def test_space_equality_implies_ray_equality(self):
        rng = random.Random(17)
        for _ in range(30):
            dim = rng.randint(1, 3)
            f = random_poly(rng, dim)
            g = random_poly(rng, dim)
            dirs = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(4)]
            dirs = [d for d in dirs if any(d)]
            if fn_eq_on_space(f, g) and dirs:
                assert fn_eq_on_rays(f, g, dirs)

    def test_scaling_directions_is_irrelevant(self):
        rng = random.Random(29)
        for _ in range(30):
            dim = rng.randint(1, 3)
            f = random_poly(rng, dim)
            g = random_poly(rng, dim)
            dirs = [d for d in (tuple(rng.randint(-3, 3) for _ in range(dim))
                                for _ in range(4)) if any(d)]
            if not dirs:
                continue
            scaled = [tuple(rng.randint(1, 5) * e for e in d) for d in dirs]
            assert fn_eq_on_rays(f, g, dirs) == fn_eq_on_rays(f, g, scaled)


@settings(max_examples=60)
@given(st.integers(1, 3), st.data())
def test_homogeneity(dim, data):
    monos = data.draw(st.lists(
        st.tuples(*[st.integers(-4, 4)] * dim), min_size=1, max_size=5))
    f = TropPoly(dim, monos)
    p = data.draw(st.tuples(*[st.fractions(-10, 10, max_denominator=8)] * dim))
    t = data.draw(st.fractions(0, 10, max_denominator=8))
    assert f.eval([t * c for c in p]) == t * f.eval(p)


class TestSubstitution:
    F1 = TropVector([1, -1, 0, 0, 0])
    F2 = TropVector([0, 0, 1, -1, 0])
    F3 = TropVector([1, 1, 1, 1, -4])

    def test_sum_is_entrywise_max(self):
        f = parse_poly("x1 + x2", 2)
        out = substitute_units(f, [self.F1, self.F2])
        assert out == self.F1 + self.F2
        assert out.entries == (1, 0, 1, 0, 0)

    def test_product_is_entrywise_sum(self):
        f = parse_poly("x1*x2", 2)
        out = substitute_units(f, [self.F1, self.F2])
        assert out == self.F1 * self.F2
        assert out.entries == (1, -1, 1, -1, 0)

    def test_projection_returns_the_vector(self):
        f = parse_poly("x3", 3)
        assert substitute_units(f, [self.F1, self.F2, self.F3]) == self.F3

    def test_zero_poly_maps_to_bottom(self):
        assert substitute_units(TropPoly.zero(2), [self.F1, self.F2]).is_bottom

    def test_mismatches_rejected(self):
        with pytest.raises(ValueError):
            substitute_units(parse_poly("x1", 1), [self.F1, self.F2])
        with pytest.raises(ValueError):
            substitute_units(parse_poly("x1 + x2", 2),
                             [self.F1, TropVector([1, -1])])
        with pytest.raises(ValueError):
            substitute_units(parse_poly("x1", 1), [TropVector.bottom(3)])

    def test_substitution_commutes_with_entrywise_eval(self):
        rng = random.Random(31)
        for _ in range(30):
            dim = rng.randint(1, 3)
            f = random_poly(rng, dim)
            vecs = [TropVector([rng.randint(-5, 5) for _ in range(4)])
                    for _ in range(dim)]
            out = substitute_units(f, vecs)
            for a in range(4):
                assert out[a] == f.eval([v[a] for v in vecs])
