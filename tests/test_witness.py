import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

import tropfan.cli
import tropfan.lattice
import tropfan.witness
from tropfan import (NotGeometricError, PointInSupportError, TropPoly, TropVector,
                     WitnessPair, fn_eq_on_rays, fn_eq_on_space, hom_from_images,
                     in_congruence_variety, integerize, orth_basis, separating_pair,
                     verify_witness)
from tropfan.lattice import hnf
from tropfan.witness import witness_to_json

from helpers import (FAN_X, FAN_Y, genmatrix_x, outcome, random_int_vector, random_poly,
                     random_primitive_direction, random_rational_point,
                     reference_kernel_basis, reference_separating_pair,
                     reference_verify_witness, spy)


class TestIntegerize:
    def test_rational_scaling(self):
        assert integerize((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
        assert integerize((0, Fraction(-5, 3))) == (0, -1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            integerize((0, 0))


# a float names another point (Fraction(0.1) keeps the binary expansion),
# a bool is no coordinate, and a string is no number
INEXACT_POINTS = [(0.1, 0.2, 1), (1, 2, True), ("1", 2, 3), (1.0, 2, 3)]


@pytest.mark.parametrize("p", INEXACT_POINTS, ids=repr)
def test_inexact_coordinates_rejected(p):
    for call in (integerize, orth_basis, lambda q: separating_pair(FAN_X.directions, q),
                 lambda q: in_congruence_variety(q, FAN_X.directions)):
        with pytest.raises(ValueError, match="expected an integer or a Fraction"):
            call(p)


def kernel_cases(rng, count):
    """Seeded primitive vectors of length 1..6 with zeros leading, trailing
    and inside, single nonzero entries, negatives and entries above 2**64."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 6)
        big = rng.random() < 0.3
        d = [rng.randint(-2**70, 2**70) if big and rng.random() < 0.5 else rng.randint(-9, 9)
             for _ in range(n)]
        shape = rng.randrange(5)
        if shape == 0:
            d[:rng.randint(1, n)] = []
            d = [0] * (n - len(d)) + d
        elif shape == 1:
            d[rng.randint(0, n - 1):] = []
            d += [0] * (n - len(d))
        elif shape == 2 and n > 2:
            d[rng.randint(1, n - 2)] = 0
        elif shape == 3:
            d = [0] * n
            d[rng.randrange(n)] = rng.choice([1, -1])
        g = gcd(*d)
        if g:
            out.append(tuple(e // g for e in d))
    return out


class TestOrthBasis:
    def test_plane_examples(self):
        assert orth_basis((0, 1)) == [(1, 0)]
        assert orth_basis((3,)) == []

    def test_full_rank_and_orthogonal(self):
        basis = orth_basis((1, 1, 1))
        assert len(basis) == 2
        for e in basis:
            assert sum(e) == 0
        H, _ = hnf(basis)
        assert sum(1 for row in H if any(row)) == 2

    def test_random_contract(self):
        rng = random.Random(71)
        for _ in range(60):
            n = rng.randint(1, 4)
            p = random_rational_point(rng, n)
            if not any(p):
                continue
            basis = orth_basis(p)
            assert len(basis) == n - 1
            for e in basis:
                assert sum(c * x for c, x in zip(e, p)) == 0
            if basis:
                H, _ = hnf(basis)
                assert sum(1 for row in H if any(row)) == n - 1

    def test_matches_two_hnf_reference(self):
        cases = kernel_cases(random.Random(97), 20000)
        assert sum(len(d) > 1 and d[0] == 0 for d in cases) >= 2000
        assert sum(len(d) > 1 and d[-1] == 0 for d in cases) >= 2000
        assert sum(0 in d[1:-1] for d in cases) >= 2000
        assert sum(sum(map(bool, d)) == 1 for d in cases) >= 2000
        assert sum(min(d) < 0 for d in cases) >= 10000
        assert sum(max(map(abs, d)) > 2**64 for d in cases) >= 2000
        for d in cases:
            assert orth_basis(d) == reference_kernel_basis(d), d

    def test_kernel_is_saturated(self):
        # the basis must span the whole integer kernel, not a finite-index
        # sublattice: any integer kernel vector must be an integer combination
        rng = random.Random(73)
        from tropfan import Lattice
        for _ in range(40):
            n = rng.randint(2, 4)
            d = random_primitive_direction(rng, n)
            L = Lattice.from_rows(orth_basis(d))
            for _ in range(20):
                v = tuple(rng.randint(-6, 6) for _ in range(n))
                if sum(a * b for a, b in zip(v, d)) == 0:
                    assert v in L


class TestSeparatingPair:
    def test_worked_example(self):
        w = separating_pair([(1, 0)], (0, 1))
        assert w.direction == (0, 1)
        assert w.basis == ((1, 0),)
        assert w.K == 1
        assert w.f.monomials == {(0, 0), (1, 0), (-1, 0)}
        assert w.g.monomials == w.f.monomials | {(0, 1)}
        assert w.f.eval((1, 0)) == w.g.eval((1, 0)) == 1
        assert w.f.eval((0, 1)) == 0 and w.g.eval((0, 1)) == 1

    def test_no_generic_hnf(self, monkeypatch):
        # the kernel basis is built directly; the two-HNF construction made
        # two hnf calls per pair
        calls = spy(monkeypatch, "hnf", tropfan.lattice)
        monkeypatch.setattr(tropfan.witness, "hnf", tropfan.lattice.hnf, raising=False)
        dirs = list(FAN_X.directions)
        w = separating_pair(dirs, (Fraction(1, 2), Fraction(1, 3), -5))
        assert verify_witness(w, dirs)
        assert calls == []

    def test_degenerate_union(self):
        w = separating_pair([], (1,))
        assert w.f.monomials == {(0,)}
        assert w.g.monomials == {(0,), (1,)}
        assert verify_witness(w, [])

    def test_five_ray_union(self):
        dirs = list(FAN_X.directions)
        w = separating_pair(dirs, (1, 1, 0))
        assert verify_witness(w, dirs)

    def test_point_on_union_rejected(self):
        with pytest.raises(PointInSupportError):
            separating_pair([(1, 0), (0, 1)], (2, 0))
        with pytest.raises(PointInSupportError):
            separating_pair([(1, 1)], (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(PointInSupportError):
            separating_pair([(1, 0)], (0, 0))

    def test_direction_length_must_match_point(self):
        # a longer direction was truncated by zip, so the pair proved nothing;
        # the check comes before the origin test
        for q in ((1, 2), (0, 0)):
            with pytest.raises(ValueError, match="the point's 2 coordinates"):
                separating_pair([(1, 0, 1)], q)
        with pytest.raises(ValueError, match="the point's 2 coordinates"):
            separating_pair([(1, 0), (1,)], (0, 1))
        with pytest.raises(ValueError, match="the point's 2 coordinates"):
            in_congruence_variety((1, 2), [(1, 0, 1)])

    def test_zero_direction_refused_at_every_point(self):
        # directions are checked before the origin test, so the answer
        # does not depend on the point
        for q in ((0, 0), (1, 0)):
            with pytest.raises(ValueError, match="zero vector spans no ray"):
                separating_pair([(0, 0)], q)
            with pytest.raises(ValueError, match="zero vector spans no ray"):
                in_congruence_variety(q, [(1, 0), (0, 0)])

    def test_opposite_direction_is_off_support(self):
        w = separating_pair([(1, 0)], (-1, 0))
        assert verify_witness(w, [(1, 0)])

    def test_directions_normalized_on_input(self):
        # non-primitive union directions describe the same rays
        w = separating_pair([(3, 0), (0, -7)], (1, 1))
        assert verify_witness(w, [(3, 0), (0, -7)])
        with pytest.raises(PointInSupportError):
            separating_pair([(4, 4)], (1, 1))

    def test_pair_separates_space_but_not_fan(self):
        dirs = list(FAN_X.directions)
        w = separating_pair(dirs, (1, 1, 0))
        assert fn_eq_on_rays(w.f, w.g, dirs)
        assert not fn_eq_on_space(w.f, w.g)

    def test_monotone_in_K(self):
        dirs = [(2, 1), (1, -1), (-1, 0)]
        w = separating_pair(dirs, (1, 3))
        for K in (w.K + 1, 2 * w.K):
            monos = [(0, 0)]
            for e in w.basis:
                monos.append(tuple(K * c for c in e))
                monos.append(tuple(-K * c for c in e))
            f = TropPoly(2, monos)
            g = TropPoly(2, monos + [w.direction])
            assert verify_witness(WitnessPair(f, g, w.point, w.direction,
                                              w.basis, K), dirs)

    def test_f_is_zero_along_the_point_ray(self):
        rng = random.Random(79)
        for _ in range(40):
            n = rng.randint(1, 4)
            dirs = [random_primitive_direction(rng, n) for _ in range(rng.randint(0, 4))]
            p = random_rational_point(rng, n)
            if not any(p):
                continue
            try:
                w = separating_pair(dirs, p)
            except PointInSupportError:
                continue
            assert (0,) * n in w.f.monomials
            assert w.f.eval(p) == 0
            assert w.g.eval(p) > 0


class TestVerifyWitness:
    def test_tampered_K_fails(self):
        dirs = [(1, 1), (1, -2)]
        w = separating_pair(dirs, (1, 0))
        assert w.K > 1  # both directions have positive inner product
        monos = [(0, 0)]
        for e in w.basis:
            monos.append(tuple(0 * c for c in e))
            monos.append(tuple(0 * c for c in e))
        broken = WitnessPair(TropPoly(2, monos),
                             TropPoly(2, monos + [w.direction]),
                             w.point, w.direction, w.basis, 0)
        assert not verify_witness(broken, dirs)

    def test_point_moved_onto_union_fails(self):
        dirs = [(1, 0)]
        w = separating_pair(dirs, (0, 1))
        moved = WitnessPair(w.f, w.g, (Fraction(3), Fraction(0)),
                            w.direction, w.basis, w.K)
        assert not verify_witness(moved, dirs)


class TestPairEvaluation:
    def test_verify_matches_per_polynomial_reference(self):
        # verify_witness evaluates f and g together at each point; the
        # reference evaluates them one at a time.  Eight kinds of case, in
        # turn: the witness as built, f and g swapped (f then holds an
        # exponent g lacks), two random polynomials, a zero polynomial on
        # either side or both, directions scaled by positive Fractions, a
        # moved rational point, a direction or point of the wrong length,
        # and a float or bool in a direction or the point; some unions are
        # empty.  Same verdict or same error type and message
        rng = random.Random(97)
        seen = Counter()
        for i in range(1600):
            n = rng.randint(1, 4)
            dirs = [random_primitive_direction(rng, n) for _ in range(rng.randint(0, 5))]
            try:
                w = separating_pair(dirs, random_rational_point(rng, n, den_bound=12))
            except PointInSupportError:
                continue
            kind = i % 8
            if kind == 1:
                w = replace(w, f=w.g, g=w.f)
            elif kind == 2:
                w = replace(w, f=random_poly(rng, n), g=random_poly(rng, n))
            elif kind == 3:
                # a zero polynomial evaluates to None after the type check
                zero = TropPoly.zero(n)
                w = rng.choice([replace(w, f=zero), replace(w, g=zero),
                                replace(w, f=zero, g=zero)])
                if rng.random() < 0.3:
                    w = replace(w, point=w.point[:-1] + (0.5,))
            elif kind == 4:
                dirs = [tuple(Fraction(rng.randint(1, 6), rng.randint(1, 6)) * c for c in d)
                        for d in dirs]
            elif kind == 5:
                w = replace(w, point=random_rational_point(rng, n, den_bound=12))
            elif kind == 6:
                bad = random_int_vector(rng, n + rng.choice((-1, 1)), -3, 3)
                if rng.random() < 0.5:
                    w = replace(w, point=bad)
                else:
                    dirs.insert(rng.randrange(len(dirs) + 1), bad)
            elif kind == 7:
                bad = list(rng.choice(dirs + [w.point]))
                bad[rng.randrange(n)] = rng.choice((0.5, 1.0, True))
                if rng.random() < 0.5:
                    w = replace(w, point=tuple(bad))
                else:
                    dirs.insert(rng.randrange(len(dirs) + 1), tuple(bad))
            got = outcome(verify_witness, w, dirs)
            assert got == outcome(reference_verify_witness, w, dirs), (w, dirs)
            seen[got if type(got) is bool else "error"] += 1
        assert seen[True] >= 300 and seen[False] >= 300 and seen["error"] >= 150, seen

class TestAgainstFractionReference:
    def test_pairs_and_verdicts_match(self):
        # a fifth of the points lie on the union, so refusals are compared too;
        # each witness is also checked at a moved point, where it may fail
        rng = random.Random(89)
        built = 0
        for _ in range(440):
            n = rng.randint(1, 4)
            dirs = [random_primitive_direction(rng, n) for _ in range(rng.randint(0, 5))]
            if dirs and rng.random() < 0.2:
                t = Fraction(rng.randint(1, 5), rng.randint(1, 12))
                p = tuple(t * c for c in rng.choice(dirs))
            else:
                p = random_rational_point(rng, n, den_bound=12)
            try:
                want = reference_separating_pair(dirs, p)
            except PointInSupportError:
                with pytest.raises(PointInSupportError):
                    separating_pair(dirs, p)
                continue
            w = separating_pair(dirs, p)
            assert w == want and witness_to_json(w) == witness_to_json(want)
            moved = replace(w, point=random_rational_point(rng, n, den_bound=12))
            for cand in (w, moved):
                assert verify_witness(cand, dirs) == reference_verify_witness(cand, dirs)
            built += 1
        assert built >= 300


class TestCongruenceVariety:
    def test_positive_multiple_inside(self):
        ok, cert = in_congruence_variety((2, 0, 2), [(1, 0, 1), (0, 1, 0)])
        assert ok and cert is None

    def test_negative_multiple_outside_with_witness(self):
        ok, cert = in_congruence_variety((-1, 0, -1), [(1, 0, 1)])
        assert not ok
        assert verify_witness(cert, [(1, 0, 1)])

    def test_origin_always_inside(self):
        ok, cert = in_congruence_variety((0, 0), [])
        assert ok and cert is None

    def test_agrees_with_direct_parallelism(self):
        rng = random.Random(83)
        for _ in range(300):
            n = rng.randint(1, 3)
            dirs = [random_primitive_direction(rng, n) for _ in range(rng.randint(0, 4))]
            q = random_rational_point(rng, n, den_bound=6)
            ok, cert = in_congruence_variety(q, dirs)
            # independent oracle: cross-multiplication parallelism with a
            # nonnegative scale factor
            expected = not any(q)
            if not expected:
                for d in dirs:
                    pairs_ok = all(q[i] * d[j] == q[j] * d[i]
                                   for i in range(n) for j in range(n))
                    i0 = next(i for i in range(n) if d[i])
                    if pairs_ok and q[i0] * d[i0] >= 0:
                        expected = True
                        break
            assert ok == expected
            if not ok:
                assert verify_witness(cert, dirs)


def test_every_handed_out_pair_is_verified(monkeypatch, tmp_path):
    # a separating_pair that returns f twice splits nothing; each site that
    # hands a pair out (in_congruence_variety, the witness command, and
    # hom_from_images's NotGeometricError) must catch it
    real = separating_pair

    def unsplit(z_dirs, p):
        pair = real(z_dirs, p)
        return replace(pair, g=pair.f)

    monkeypatch.setattr(tropfan.witness, "separating_pair", unsplit)
    dirs = [(1, 0, 1)]
    with pytest.raises(AssertionError, match="failed verification"):
        in_congruence_variety((-1, 0, -1), dirs)
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps(FAN_Y.to_json_dict()))
    with pytest.raises(AssertionError, match="failed verification"):
        tropfan.cli.main(["witness", str(fan), "1/2,3"])
    images = tuple(TropVector(row) for row in ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(AssertionError, match="failed verification"):
        hom_from_images(images, genmatrix_x())
    # the real construction passes at the same three sites
    monkeypatch.setattr(tropfan.witness, "separating_pair", real)
    assert not in_congruence_variety((-1, 0, -1), dirs)[0]
    assert tropfan.cli.main(["witness", str(fan), "1/2,3"]) == 0
    with pytest.raises(NotGeometricError):
        hom_from_images(images, genmatrix_x())


def test_witness_json_shape():
    w = separating_pair([(1, 0)], (Fraction(1, 2), Fraction(3, 2)))
    data = json.loads(witness_to_json(w))
    assert set(data) == {"f", "g", "point", "K"}
    assert data["point"] == ["1/2", "3/2"]
    assert all(isinstance(row, list) for row in data["f"])
    assert isinstance(data["K"], int)
