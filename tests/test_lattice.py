import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from tropfan import (Lattice, LatticeSolveError, LatticeSpanError, hnf,
                     scalar_modulus, solve_int, xgcd)
from tropfan import lattice as lattice_module

from helpers import (MG_ROWS, reference_least_multiplier, reference_member, reference_solve_int,
                     spy)


def det(M):
    """Exact determinant by fraction-free expansion (small matrices only)."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det(minor)
    return total


def mat_mul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(len(B)))
                       for j in range(len(B[0]))) for i in range(len(A)))


def is_row_hnf(H):
    pivots = []
    for row in H:
        nz = next((j for j, e in enumerate(row) if e), None)
        if nz is None:
            pivots.append(None)
            continue
        if pivots and pivots[-1] is None:
            return False  # zero row above a nonzero row
        if pivots and pivots[-1] is not None and nz <= pivots[-1]:
            return False
        if row[nz] <= 0:
            return False
        pivots.append(nz)
    for i, j in enumerate(pivots):
        if j is None:
            continue
        for k in range(i):
            if not 0 <= H[k][j] < H[i][j]:
                return False
    return True


def test_xgcd():
    for a, b in [(12, 18), (-12, 18), (0, 5), (0, 0), (7, 0), (-3, -9)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_identity():
    I = ((1, 0), (0, 1))
    H, U = hnf(I)
    assert H == I and U == I


def test_hnf_zero_matrix():
    H, U = hnf(((0, 0, 0), (0, 0, 0)))
    assert H == ((0, 0, 0), (0, 0, 0))
    assert U == ((1, 0), (0, 1))


def test_hnf_two_generators():
    H, U = hnf(MG_ROWS)
    assert H == ((1, 2, -3), (0, 4, -4))
    assert mat_mul(U, MG_ROWS) == H
    assert abs(det([list(r) for r in U])) == 1
    # (0,4,-4) is the difference of the two generators, so the claimed
    # alternative basis spans the same lattice as the canonical one.
    assert Lattice.from_rows(MG_ROWS) == Lattice.from_rows([(1, -2, 1), (0, 4, -4)])


def test_hnf_shape_and_transform_random():
    rng = random.Random(7)
    for _ in range(100):
        m = rng.randint(1, 4)
        k = rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-9, 9) for _ in range(k)) for _ in range(m))
        H, U = hnf(M)
        assert mat_mul(U, M) == H
        assert abs(det([list(r) for r in U])) == 1
        assert is_row_hnf(H)
        H2, _ = hnf(H)
        assert H2 == H  # idempotent


def test_hnf_unique_across_row_shuffles():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(2, 4)
        k = rng.randint(2, 4)
        M = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(m)]
        base = hnf(M)[0]
        seen = {base}
        for _ in range(5):
            rng.shuffle(M)
            seen.add(hnf(M)[0])
        assert len(seen) == 1


def test_constructor_canonicalises_basis():
    # a basis not in HNF was stored as given: (0, 1) was not found in this
    # Z^2, and the lattice compared unequal to the same one from from_rows
    L = Lattice(2, ((1, 1), (1, 0)))
    assert (0, 1) in L and L.member((0, 1)) == (0, 1)
    assert L == Lattice.from_rows([(1, 1), (1, 0)]) and L.basis == ((1, 0), (0, 1))
    assert hash(L) == hash(Lattice.from_rows([(1, 1), (1, 0)]))
    M = Lattice(3, [[0, 4, -4], [1, -2, 1], [2, 0, -2]])
    assert M == Lattice.from_rows(MG_ROWS) and M.basis == ((1, 2, -3), (0, 4, -4))
    assert Lattice(2, [(0, 0)]).basis == ()


@pytest.mark.parametrize("ambient, rows", [
    (2, ((1, 0, 0),)),
    (3, ((1, 0),)),
    (2, ((1, 0), (1,))),
    (0, ((1,),)),
    (-1, ()),
], ids=["long", "short", "ragged", "ambient-0", "negative-ambient"])
def test_constructor_refuses_bad_rows(ambient, rows):
    with pytest.raises(ValueError):
        Lattice(ambient, rows)
    if ambient >= 0:
        with pytest.raises(ValueError):
            Lattice.from_rows(rows, ambient)


def test_from_rows_runs_hnf_once(monkeypatch):
    calls = spy(monkeypatch, "hnf", lattice_module)
    L = Lattice.from_rows(MG_ROWS)
    assert len(calls) == 1
    assert (0, 4, -4) in L and (1, 0, -1) not in L
    assert len(calls) == 2  # the first membership question computes the forms
    L.least_multiplier((1, 0, -1))
    assert len(calls) == 2


def test_canonical_and_broken_rows_give_one_basis():
    """Rows already in canonical row HNF, the rows they came from, and rows
    that break one condition of the form (a negative pivot, an entry above
    a pivot out of [0, pivot), a zero row above a nonzero one, rows out of
    echelon order) all give the same basis and the same Lattice."""
    rng = random.Random(20261021)
    seen = Counter()
    for _ in range(500):
        ambient = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(ambient)]
                for _ in range(rng.randint(1, 4))]
        H = [list(r) for r in hnf(rows)[0]]
        want = tuple(tuple(r) for r in H if any(r))
        cases = [(H, "canonical"), (rows, "given")]
        nonzero = [i for i, r in enumerate(H) if any(r)]
        if nonzero:
            i = rng.choice(nonzero)
            cases.append((H[:i] + [[-e for e in H[i]]] + H[i + 1:], "negative pivot"))
            if len(nonzero) < len(H):
                cases.append(([H[-1]] + H[:-1], "zero row first"))
        if len(nonzero) > 1:
            i = rng.choice(nonzero[1:])
            k, t = rng.randrange(i), rng.choice((-1, 1))
            bumped = [list(r) for r in H]
            bumped[k] = [a + t * b for a, b in zip(H[k], H[i])]
            cases.append((bumped, "entry above a pivot"))
            cases.append((H[1:2] + H[:1] + H[2:], "out of order"))
        for M, kind in cases:
            canonical = is_row_hnf(M)
            assert canonical == (kind == "canonical" or (kind == "given" and M == H)), (M, kind)
            L = Lattice(ambient, M)
            assert L.basis == want and L == Lattice(ambient, want)
            seen[kind] += 1
    assert min(seen.values()) >= 100, seen


def test_forms_examples():
    W, P, Qt = Lattice.from_rows(MG_ROWS).forms
    assert W == ((1, 1, 1),) and P == 4 and Qt == ((4, 0, 0), (-2, 1, 0))
    assert Lattice.from_rows([(0, 0)], ambient=2).forms == (((1, 0), (0, 1)), 1, ())
    assert Lattice.from_rows([(2, 0), (0, 3)]).forms == ((), 6, ((3, 0), (0, 2)))


def test_member_and_least_multiplier_match_reduction():
    # differential against the reduction the forms replaced: seeded
    # lattices of every rank in ambient 1-6, some rows scaled to raise the
    # index, and vectors inside the lattice, inside the span only, and
    # outside it
    rng = random.Random(20261019)
    ranks, verdicts = set(), {"member": 0, "none": 0, "span": 0, "multiplier>1": 0}
    lattices = 0
    while lattices < 600:
        m = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(0, m))]
        for row in rows:
            if rng.random() < 0.4:
                s = rng.randint(2, 5)
                row[:] = [s * e for e in row]
        L = Lattice.from_rows(rows, m)
        lattices += 1
        ranks.add((m, L.rank))
        tests = [tuple(rng.randint(-6, 6) for _ in range(m)) for _ in range(3)]
        for _ in range(4):
            combo = [sum(rng.randint(-3, 3) * row[j] for row in L.basis) for j in range(m)]
            g = math.gcd(*combo) or 1
            tests += [tuple(combo), tuple(e // g for e in combo)]
        for v in tests:
            c = L.member(v)
            assert c == reference_member(L, v), (L, v)
            if c is None:
                verdicts["none"] += 1
            else:
                verdicts["member"] += 1
                assert tuple(sum(ci * row[j] for ci, row in zip(c, L.basis))
                             for j in range(m)) == v
            try:
                expected = reference_least_multiplier(L, v)
            except LatticeSpanError:
                verdicts["span"] += 1
                with pytest.raises(LatticeSpanError):
                    L.least_multiplier(v)
                continue
            assert L.least_multiplier(v) == expected, (L, v)
            verdicts["multiplier>1"] += expected > 1
    assert ranks == {(m, r) for m in range(1, 7) for r in range(m + 1)}
    assert min(verdicts.values()) >= 300, verdicts


def test_member_examples():
    L = Lattice.from_rows(MG_ROWS)
    c = L.member((0, 4, -4))
    assert c is not None
    assert tuple(sum(c[i] * L.basis[i][j] for i in range(len(c))) for j in range(3)) \
        == (0, 4, -4)
    assert L.member((1, 0, -1)) is None
    assert L.member((0, 0, 0)) == (0,) * L.rank


def test_member_mod4_characterization():
    L = Lattice.from_rows(MG_ROWS)
    for a in range(-5, 6):
        for b in range(-5, 6):
            c = -a - b
            expected = (a - c) % 4 == 0
            assert ((a, b, c) in L) == expected


def test_member_length_mismatch():
    L = Lattice.from_rows(MG_ROWS)
    with pytest.raises(ValueError):
        L.member((1, 2))


def test_member_agrees_with_exhaustive_search():
    # Oracle: the set of combinations with coefficients in [-8, 8]^k.  Every
    # box vector must be a member (with exact reconstruction); every member
    # verdict must reconstruct; every None verdict must be outside the box.
    rng = random.Random(23)
    for _ in range(25):
        m = rng.randint(2, 3)
        k = rng.randint(1, 2)
        gens = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(k)]
        L = Lattice.from_rows(gens)
        box = set()
        for coeffs in itertools.product(range(-8, 9), repeat=k):
            box.add(tuple(sum(c * g[j] for c, g in zip(coeffs, gens))
                          for j in range(m)))
        for v in box:
            c = L.member(v)
            assert c is not None
            assert tuple(sum(c[i] * L.basis[i][j] for i in range(len(c)))
                         for j in range(m)) == v
        for _ in range(40):
            v = tuple(rng.randint(-8, 8) for _ in range(m))
            c = L.member(v)
            if c is None:
                assert v not in box
            else:
                assert tuple(sum(c[i] * L.basis[i][j] for i in range(len(c)))
                             for j in range(m)) == v


def test_non_integer_input_rejected():
    # exactness: floats, bools and fractions are refused, not truncated
    with pytest.raises(ValueError):
        Lattice.from_rows([[1.7, 0], [True, 2]])
    with pytest.raises(ValueError):
        hnf([[Fraction(1, 2), 0]])
    L = Lattice.from_rows([[2, -2]])
    for v in ((2.5, -2.5), (2.0, -2.0), (True, -1), (Fraction(5, 2), Fraction(-5, 2))):
        with pytest.raises(ValueError):
            L.member(v)
    with pytest.raises(ValueError):
        solve_int(MG_ROWS, [(0.5, -0.5, 0)])
    assert L.member((Fraction(4, 2), -2)) == (1,)


@pytest.mark.parametrize("ambient", [2.0, True, "2"])
def test_non_integer_ambient_rejected(ambient):
    for rows in ([(1, -1)], []):
        with pytest.raises(ValueError, match="expected an integer"):
            Lattice.from_rows(rows, ambient=ambient)
    assert Lattice.from_rows([], ambient=Fraction(2)).ambient == 2


def test_degenerate_lattice():
    L = Lattice.from_rows([(0, 0)], ambient=2)
    assert L.rank == 0
    assert (0, 0) in L
    assert (1, 0) not in L
    assert L.least_multiplier((0, 0)) == 1
    with pytest.raises(LatticeSpanError):
        L.least_multiplier((1, 0))
    with pytest.raises(ValueError, match="expected an integer"):
        L.member((0.5, 0))


def test_solve_int_examples():
    T = solve_int(MG_ROWS, [(4, -4, 0), (0, 0, 0), (4, 4, -8)])
    assert T == ((3, 1), (0, 0), (1, 3))
    assert solve_int(MG_ROWS, MG_ROWS) == ((1, 0), (0, 1))
    with pytest.raises(LatticeSolveError) as err:
        solve_int(MG_ROWS, [(0, 0, 0), (1, 0, -1)])
    assert err.value.row_index == 1


def test_solve_int_exact_and_linear():
    rng = random.Random(41)
    for _ in range(60):
        m = rng.randint(1, 4)
        k = rng.randint(2, 4)
        rows = [tuple(rng.randint(-5, 5) for _ in range(k)) for _ in range(m)]
        coeffs = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(2)]
        targets = [tuple(sum(c[i] * rows[i][j] for i in range(m)) for j in range(k))
                   for c in coeffs]
        T = solve_int(rows, targets)
        for t_row, target in zip(T, targets):
            assert tuple(sum(t_row[i] * rows[i][j] for i in range(m))
                         for j in range(k)) == target
        for s in (2, 3):
            scaled = [tuple(s * e for e in t) for t in targets]
            assert solve_int(rows, scaled) == tuple(tuple(s * e for e in row)
                                                    for row in T)


def _solve_outcome(solve, rows, targets):
    try:
        return solve(rows, targets)
    except ValueError as err:
        return type(err), str(err), getattr(err, "row_index", None)


def test_solve_int_matches_substitution_reference():
    # differential: solve_int reads Lattice.member on the HNF of its rows,
    # where reference_solve_int forward-substitutes each target against
    # that HNF.  The systems have zero rows and rank-deficient rows (a
    # multiple of another row); the targets are members, other vectors
    # (often outside), vectors of the wrong length, or members with an
    # inexact entry.  Both give the same T, or raise the same exception
    # type with the same message and row index
    rng = random.Random(20261022)
    inexact = [0.5, 2.0, True, Fraction(1, 3), Fraction(4, 2)]
    shapes, kinds, outcomes = Counter(), Counter(), Counter()
    for _ in range(2000):
        m, k = rng.randint(1, 4), rng.randint(1, 4)
        rows = [tuple(rng.randint(-5, 5) for _ in range(k)) for _ in range(m)]
        shape = rng.choice(["generic", "zero", "deficient"] if m > 1 else ["generic", "zero"])
        if shape == "zero":
            rows[rng.randrange(m)] = (0,) * k
        elif shape == "deficient":
            i, j = rng.sample(range(m), 2)
            rows[i] = tuple(rng.randint(-2, 2) * e for e in rows[j])
        shapes[shape] += 1
        targets = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["member", "member", "other", "length", "inexact"])
            c = [rng.randint(-4, 4) for _ in range(m)]
            t = [sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(k)]
            if kind == "other":
                t = [rng.randint(-5, 5) for _ in range(k)]
            elif kind == "length":
                t = t[:-1] if rng.random() < 0.5 else t + [0]
            elif kind == "inexact":
                t[rng.randrange(k)] = rng.choice(inexact)
            targets.append(tuple(t))
            kinds[kind] += 1
        got = _solve_outcome(solve_int, rows, targets)
        assert got == _solve_outcome(reference_solve_int, rows, targets), (rows, targets)
        outcomes[got[0].__name__ if type(got[0]) is type else "solved"] += 1
    assert min(shapes.values()) >= 400 and min(kinds.values()) >= 500
    assert set(outcomes) == {"solved", "LatticeSolveError", "ValueError"}
    assert min(outcomes.values()) >= 200, outcomes


def test_scalar_modulus_examples():
    L = Lattice.from_rows(MG_ROWS)
    assert scalar_modulus(((1, -1, 0), (0, 0, 0), (1, 1, -2)), L) == 4
    assert scalar_modulus(((1, 0, -1), (0, 0, 0), (1, -2, 1)), L) == 2
    full_zero_sum = Lattice.from_rows([(1, -1, 0), (0, 1, -1)])
    assert scalar_modulus(((2, -1, -1), (0, 0, 0)), full_zero_sum) == 1


def test_scalar_modulus_brute_force_oracle():
    L = Lattice.from_rows(MG_ROWS)
    M0 = ((1, 0, -1), (0, 0, 0), (1, -2, 1))
    witnessed = [s for s in range(1, 9)
                 if all(tuple(s * e for e in row) in L for row in M0)]
    assert witnessed[0] == scalar_modulus(M0, L) == 2
    assert witnessed == [2, 4, 6, 8]  # the valid scalars form a subgroup


def test_scalar_modulus_minimality_rowwise():
    rng = random.Random(5)
    for _ in range(30):
        m = rng.randint(2, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(2)]
        L = Lattice.from_rows(gens)
        rows = [tuple(sum(c * g[j] for c, g in zip((rng.randint(-2, 2), rng.randint(-2, 2)), gens))
                      for j in range(m)) for _ in range(2)]
        try:
            e = scalar_modulus(rows, L)
        except LatticeSpanError:
            continue
        assert all(tuple(e * x for x in row) in L for row in rows)
        for s in range(1, e):
            assert not all(tuple(s * x for x in row) in L for row in rows)


def test_scalar_modulus_infeasible():
    L = Lattice.from_rows([(1, -1, 0)])
    with pytest.raises(LatticeSpanError):
        scalar_modulus(((0, 0, 1),), L)


@pytest.mark.parametrize("call", [
    lambda L: L.least_multiplier([0.5, 1, 0]),
    lambda L: L.least_multiplier([True, 0, 0]),
    lambda L: scalar_modulus([[1.5, 0, 0]], L),
], ids=["float", "bool", "scalar_modulus_float"])
def test_least_multiplier_rejects_non_integers(call):
    L = Lattice.from_rows([[2, 0, 0], [0, 2, 0]], 3)
    with pytest.raises(ValueError, match="expected an integer"):
        call(L)


def test_least_multiplier_brute_force_oracle():
    # the least multiplier divides the product of the basis pivots, so
    # searching s up to that product decides it, or shows there is none
    rng = random.Random(11)
    outside = 0
    for _ in range(2000):
        m = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(1, 3))]
        L = Lattice.from_rows(gens, m)
        if L.rank and rng.random() < 0.7:
            # a primitive vector of the rational span, often outside L
            combo = [sum(rng.randint(-3, 3) * row[j] for row in L.basis) for j in range(m)]
            g = math.gcd(*combo) or 1
            v = [e // g for e in combo]
        else:
            v = [rng.randint(-3, 3) for _ in range(m)]
        limit = math.prod(next(e for e in row if e) for row in L.basis)
        found = next((s for s in range(1, limit + 1)
                      if L.member([s * e for e in v]) is not None), None)
        if found is None:
            outside += 1
            with pytest.raises(LatticeSpanError):
                L.least_multiplier(v)
        else:
            assert L.least_multiplier(v) == found
    assert outside >= 200
