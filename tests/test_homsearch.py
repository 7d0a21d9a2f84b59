import copy
import dataclasses
import hashlib
import itertools
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest

from tropfan import (Fan1D, GenMatrix, Lattice, LatticeSpanError, NotGeometricError, Ray,
                     TropPoly, TropVector, apply_functor, enumerate_homs,
                     enumerate_morphisms, geometric_check, hom_from_images,
                     parse_poly, recover_T, separating_pair, substitute_units,
                     verify_witness, weighted_eval_map)
from tropfan import homsearch, lattice as lattice_module
from tropfan.fan import direction_classes, primitive

from helpers import (B1, B2, FAN_X, FAN_Y, MG_ROWS, box_hom_oracle, column_permutations,
                     definitional_hom_oracle,
                     genmatrix_x, genmatrix_y, lattice_y, matrix_from_ray,
                     random_degree_zero_row, random_int_vector,
                     random_primitive_direction, random_source_with_classes,
                     reference_circuit_table, reference_cone_records, reference_enumerate_homs,
                     reference_expand, reference_expand_cones, reference_geometric_check,
                     reference_json_lines, reference_least_multiplier, reference_member,
                     reference_solve_int, scale_matrix)


def vecs(matrix):
    return [TropVector(row) for row in matrix]


def count_calls(monkeypatch, name):
    """Replace homsearch.<name> by a wrapper that records each call's
    positional arguments in the returned list."""
    calls = []
    real = getattr(homsearch, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(homsearch, name, counted)
    return calls


def assert_same_enumeration(enum, reference):
    assert enum.families == reference.families
    assert enum.cone_records == reference.cone_records
    assert enum.to_json_lines() == reference.to_json_lines()


class TestGeometricCheck:
    def test_reference_witnesses(self):
        w = geometric_check(vecs(B1), genmatrix_x())
        assert w == [(0, Fraction(1)), (1, Fraction(1)), (4, Fraction(1, 2))]

    def test_all_zero_images(self):
        w = geometric_check(vecs(((0, 0), (0, 0), (0, 0))), genmatrix_x())
        assert w == [(None, Fraction(0))] * 2

    def test_unmatched_column(self):
        images = vecs(((1, 0, 0), (0, 0, 0), (0, 0, 0)))
        assert geometric_check(images, genmatrix_x()) is None

    def test_orientation_matters(self):
        # (-1, 0, -1) is a negative multiple of the first column only
        images = vecs(((-1,), (0,), (-1,)))
        assert geometric_check(images, genmatrix_x()) is None

    def test_lowest_label_wins(self):
        gm = GenMatrix.from_matrix([(1, 2, -3), (-1, -2, 3)])
        w = geometric_check(vecs(((3, 0), (-3, 0))), gm)
        assert w == [(0, Fraction(3)), (None, Fraction(0))]

    def test_matches_column_scan(self):
        # the lookup by primitive direction against the scan over every
        # source column it replaced; image columns are zero, positive or
        # negative multiples of a source column, or fresh vectors, and the
        # sources have zero, parallel and antiparallel columns, so matches
        # land on classes of several labels, where the lowest label wins
        rng = random.Random(20261020)
        kinds, outcomes = Counter(), Counter()
        for _ in range(400):
            source, _ = random_source_with_classes(rng)
            cols = source.columns()
            image_cols = []
            for _ in range(rng.randint(1, 5)):
                kind = rng.choice(["zero", "parallel", "parallel", "antiparallel", "fresh"])
                col = rng.choice(cols)
                if kind == "zero" or not any(col):
                    kind, col = "zero", (0,) * source.n
                elif kind == "fresh":
                    col = tuple(rng.randint(-3, 3) for _ in range(source.n))
                else:
                    s = rng.randint(1, 3) * (1 if kind == "parallel" else -1)
                    col = tuple(s * e for e in col)
                kinds[kind] += 1
                image_cols.append(col)
            images = vecs([[c[i] for c in image_cols] for i in range(source.n)])
            w = geometric_check(images, source)
            assert w == reference_geometric_check(images, source), (source, images)
            if w is None:
                outcomes["unmatched"] += 1
            else:
                outcomes["matched"] += 1
                labels = [b for b, c in enumerate(cols) if any(c)]
                outcomes["lowest"] += any(
                    a is not None and sum(primitive(cols[b]) == primitive(cols[a])
                                          for b in labels) > 1 for a, _ in w)
        assert all(kinds[k] >= 100 for k in ("zero", "parallel", "antiparallel", "fresh"))
        assert min(outcomes.values()) >= 40, outcomes

    @pytest.mark.parametrize("rows", [
        [TropVector.bottom(2), TropVector((0, 0)), TropVector((0, 0))],
        [TropVector((1, -1)), TropVector((0,)), TropVector((0, 0))],
        [TropVector((1, -1)), TropVector((0, 0))],
    ])
    def test_bad_rows_raise_like_column_scan(self, rows):
        for check in (geometric_check, reference_geometric_check):
            with pytest.raises(ValueError):
                check(rows, genmatrix_x())


class TestEnumerateFullTarget:
    def test_twelve_families(self):
        enum = enumerate_homs(genmatrix_x(), 3)
        assert not enum.inexhaustive
        assert {f.base for f in enum.families} == \
            column_permutations(B1) | column_permutations(B2)
        assert all(f.modulus == 1 for f in enum.families)
        assert len(enum.families) == 12

    def test_single_column_source(self):
        gm = GenMatrix.from_matrix([(0,), (0,)])
        enum = enumerate_homs(gm, 1)
        assert enum.families == ()
        assert enum.zero_matrix == ((0,), (0,))

    def test_nonzero_single_column_needs_zero_scale(self):
        gm = GenMatrix.from_matrix([(2,), (-2,)])
        enum = enumerate_homs(gm, 1)
        assert enum.families == ()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            enumerate_homs(genmatrix_x(), 0)
        with pytest.raises(ValueError):
            enumerate_homs(genmatrix_x(), 3, Lattice.from_rows([(1, -1)]))

    @pytest.mark.parametrize("size", [True, 3.0, 2.5, "3"])
    def test_non_integer_target_size_rejected(self, size):
        # enumerate_homs(True) acted as 1 label; 3.0 raised TypeError
        with pytest.raises(ValueError, match="expected an integer"):
            enumerate_homs(genmatrix_x(), size)
        assert enumerate_homs(genmatrix_x(), Fraction(3)) == enumerate_homs(genmatrix_x(), 3)

    def test_parallel_source_columns_collapse(self):
        # columns 0 and 1 span the same ray with different magnitudes, so
        # assignments must target one class, labeled by the lower source
        gm = GenMatrix.from_matrix([(2, 1, -3), (2, 1, -3)])
        enum = enumerate_homs(gm, 2)
        for fam in enum.families:
            assert all(a in (None, 0, 2) for a in fam.assignment)
        assert enum.expand(6) == box_hom_oracle(gm, 2, None, 6)

    def test_family_soundness(self):
        enum = enumerate_homs(genmatrix_x(), 3)
        for fam in enum.families:
            for s in (1, 2, 3):
                M = fam.matrix_for(s)
                assert all(sum(row) == 0 for row in M)
                assert geometric_check(vecs(M), genmatrix_x()) is not None

    @pytest.mark.parametrize("s", [2.0, 1.5, True, "2"])
    def test_matrix_for_requires_an_integer(self, s):
        fam = enumerate_homs(genmatrix_x(), 3).families[0]
        with pytest.raises(ValueError, match="expected an integer"):
            fam.matrix_for(s)
        assert fam.matrix_for(Fraction(2)) == scale_matrix(fam.base, 2)

    def test_bases_are_primitive(self):
        from math import gcd
        for lattice in (None, lattice_y()):
            for fam in enumerate_homs(genmatrix_x(), 3, lattice).families:
                g = 0
                for row in fam.base:
                    for e in row:
                        g = gcd(g, e)
                assert g == 1


class TestEnumerateWithLattice:
    def test_moduli_pattern(self):
        enum = enumerate_homs(genmatrix_x(), 3, lattice_y())
        by_base = {f.base: f.modulus for f in enum.families}
        assert len(by_base) == 12
        # modulus 2 exactly when the doubled down-column sits between the
        # two opposite unit columns; modulus 4 otherwise
        twos = {base for base, e in by_base.items() if e == 2}
        assert twos == {
            ((1, 0, -1), (0, 0, 0), (1, -2, 1)),
            ((-1, 0, 1), (0, 0, 0), (1, -2, 1)),
            ((0, 0, 0), (1, 0, -1), (1, -2, 1)),
            ((0, 0, 0), (-1, 0, 1), (1, -2, 1)),
        }
        assert all(e == 4 for base, e in by_base.items() if base not in twos)

    def test_expansion_matches_published_lists(self):
        # The two presentations: expanding all families over s <= 16 must
        # equal the union of 4t-scaled column permutations (t = 1..4) and
        # (4t-2)-scaled swapped arrangements (t = 1..4), plus zero.
        enum = enumerate_homs(genmatrix_x(), 3, lattice_y())
        mine = {enum.zero_matrix}
        for fam in enum.families:
            s = fam.modulus
            while s <= 16:
                mine.add(fam.matrix_for(s))
                s += fam.modulus
        published = {enum.zero_matrix}
        for t in range(1, 5):
            for base in column_permutations(B1) | column_permutations(B2):
                published.add(scale_matrix(base, 4 * t))
        half_turn = [((1, 0, -1), (0, 0, 0), (1, -2, 1)),
                     ((0, 0, 0), (1, 0, -1), (1, -2, 1))]
        for t in range(1, 5):
            for base in half_turn:
                published.add(scale_matrix(base, 4 * t - 2))
                swapped = tuple(tuple(row[j] for j in (2, 1, 0)) for row in base)
                published.add(scale_matrix(swapped, 4 * t - 2))
        assert mine == published

    def test_lattice_members_only(self):
        enum = enumerate_homs(genmatrix_x(), 3, lattice_y())
        L = lattice_y()
        for fam in enum.families:
            for s in (fam.modulus, 2 * fam.modulus, 3 * fam.modulus):
                M = fam.matrix_for(s)
                assert all(reference_member(L, row) is not None for row in M)
                assert all(sum(row) == 0 for row in M)
                assert geometric_check(vecs(M), genmatrix_x()) is not None
            for s in range(1, fam.modulus):
                assert not all(reference_member(L, row) is not None
                               for row in scale_matrix(fam.base, s))

    def test_span_infeasible_family_dropped(self):
        # the only candidate base has rows outside the lattice's rational
        # span, so no scalar multiple ever qualifies
        gm = GenMatrix.from_matrix([(1, -1), (1, -1)])
        L = Lattice.from_rows([(1, 0)])
        enum = enumerate_homs(gm, 2, L)
        assert enum.families == ()
        assert not enum.inexhaustive
        assert enumerate_homs(gm, 2).families != ()


def random_lattice(rng, m):
    """A seeded target lattice in Z^m and its kind: rank m ("full"), rank
    m - 1 inside the degree-zero hyperplane ("hyperplane"), or a lower rank
    than either ("deficient"); rows are often scaled, so the product of the
    pivots is often above 1."""
    kind = rng.choice(["full"] + ["hyperplane"] * (m > 1) + ["deficient"] * (m > 2))
    if kind == "full":
        rows = [random_int_vector(rng, m, -3, 3) for _ in range(m)]
    else:
        rank = m - 1 if kind == "hyperplane" else rng.randint(1, m - 2)
        rows = [random_degree_zero_row(rng, m) for _ in range(rank)]
    scales = [rng.choice((1, 1, 2, 3)) for _ in rows]
    L = Lattice.from_rows([tuple(s * e for e in r) for s, r in zip(scales, rows)])
    if L.rank < (m if kind == "full" else m - 1):
        kind = "deficient"
    return L, kind


class TestFormModuli:
    def test_moduli_and_span_drops_match_scalar_modulus(self):
        # differential: the moduli and span drops that the lattice's forms
        # give on a placement's columns equal scalar_modulus (the lcm of the
        # rows' least multipliers, LatticeSpanError when a row leaves the
        # span) and the reduction-based reference_least_multiplier
        rng = random.Random(20261019)
        kinds, drops, moduli = Counter(), Counter(), Counter()
        for i in range(330):
            if i % 3 == 2:
                source, m = many_class_source(rng, rng.randint(3, 5)), rng.randint(2, 4)
            else:
                source = (planar_source(rng) if i % 3 else random_source_with_classes(rng))[0]
                m = rng.randint(1, 5)
            L, kind = random_lattice(rng, m)
            kinds[kind] += 1
            enum = enumerate_homs(source, m, L)
            got = {fam.base: fam.modulus for fam in enum.families}
            assert len(got) == len(enum.families)
            class_dirs = dict(direction_classes(source))
            expected = {}
            for labels, coeffs in enum.circuits:
                for positions in itertools.permutations(range(m), len(labels)):
                    at = dict(zip(positions, labels))
                    sigma = tuple(map(at.get, range(m)))
                    ray = [t for _, t in sorted(zip(positions, coeffs))]
                    M0 = matrix_from_ray(sigma, ray, class_dirs, source.n)
                    try:
                        e = lattice_module.scalar_modulus(M0, L)
                    except LatticeSpanError:
                        with pytest.raises(LatticeSpanError):
                            [reference_least_multiplier(L, row) for row in M0]
                        drops[kind] += 1
                        continue
                    assert e == lcm(*(reference_least_multiplier(L, row) for row in M0))
                    expected[M0] = e
                    moduli[kind, e > 1] += 1
            assert got == expected, (source, m, L)
        assert set(kinds) == {"deficient", "hyperplane", "full"} and min(kinds.values()) >= 60
        assert drops["deficient"] >= 100 and not drops["full"] and not drops["hyperplane"]
        assert all(moduli[kind, True] >= 20 and moduli[kind, False] for kind in kinds)

    def test_enumeration_asks_no_least_multiplier(self, monkeypatch):
        # work gate: families read their moduli off the lattice's forms, so
        # enumerate_homs calls neither scalar_modulus (438 calls per expand
        # suite cycle) nor least_multiplier; X -> 3 labels into the Y lattice
        # keeps its moduli of 2 and 4
        def refuse(*args, **kwargs):
            raise AssertionError("least multiplier asked")

        assert not hasattr(homsearch, "scalar_modulus")
        monkeypatch.setattr(lattice_module, "scalar_modulus", refuse)
        monkeypatch.setattr(Lattice, "least_multiplier", refuse)
        enum = enumerate_homs(genmatrix_x(), 3, lattice_y())
        assert Counter(fam.modulus for fam in enum.families) == {2: 4, 4: 8}
        for fam in enum.families:
            assert fam.modulus == lcm(*(reference_least_multiplier(lattice_y(), row)
                                        for row in fam.base))
        lx = Lattice.from_rows(list(genmatrix_x().matrix()))
        assert enumerate_homs(genmatrix_y(), 5, lx).families == ()


class TestConeRecords:
    def test_antiparallel_columns_flag(self):
        gm = GenMatrix.from_matrix([(1, -1)])
        enum = enumerate_homs(gm, 3)
        assert enum.inexhaustive
        assert enum.cone_records
        for rec in enum.cone_records:
            assert len(rec.ray_bases) >= 2

    def test_brute_force_completion_is_exact(self):
        gm = GenMatrix.from_matrix([(1, -1)])
        for lattice in (None, Lattice.from_rows([(1, -1, 0), (0, 1, -1)])):
            enum = enumerate_homs(gm, 3, lattice)
            assert enum.expand(5) == box_hom_oracle(gm, 3, lattice, 5)


class TestReverseDirection:
    def test_five_slot_target_is_cone_only(self):
        # mapping the 2-generator semiring into the 5-label one: every
        # in-box solution repeats column classes, so all tight cones are
        # multi-parameter and the family list is empty; enumerating the
        # kernel points of each cone record still matches the oracle exactly
        L = Lattice.from_rows(list(genmatrix_x().matrix()))
        enum = enumerate_homs(genmatrix_y(), 5, L)
        assert enum.families == ()
        assert enum.inexhaustive
        mine = enum.expand(6)
        assert mine == box_hom_oracle(genmatrix_y(), 5, L, 6)
        assert ((1, 1, 1, 1, -4), (-3, 1, -3, 1, 4)) in mine


class TestCompleteness:
    def test_box_oracle_random_instances(self):
        rng = random.Random(2)
        done = 0
        while done < 12:
            n = rng.choice([2, 3])
            r = rng.choice([3, 4])
            rows = [random_degree_zero_row(rng, r) for _ in range(n)]
            gm = GenMatrix.from_matrix(rows)
            s = rng.randint(1, 3)
            lattice = None
            if rng.random() < 0.5:
                gens = [random_degree_zero_row(rng, s) for _ in range(rng.randint(1, 2))]
                lattice = Lattice.from_rows(gens)
            enum = enumerate_homs(gm, s, lattice)
            assert enum.expand(6) == box_hom_oracle(gm, s, lattice, 6)
            done += not enum.inexhaustive

    @pytest.mark.parametrize("source, bound, tried, found", [
        (genmatrix_y(), 2, 361, 1), (genmatrix_y(), 3, 1369, 7), (genmatrix_x(), 1, 343, 1)],
        ids=["Y-2", "Y-3", "X-1"])
    def test_definitional_oracle(self, source, bound, tried, found):
        # the paper's theorem checked, not assumed: every degree-zero image
        # matrix in the box is a homomorphism or refuted by a witness pair,
        # and the homomorphisms are expand's and the geometric box oracle's
        # (only the zero matrix in the two smallest boxes)
        homs, refused = definitional_hom_oracle(source, 3, bound)
        assert len(homs) == found and refused == tried - found
        assert homs == enumerate_homs(source, 3).expand(bound) == box_hom_oracle(
            source, 3, None, bound)

    def test_definitional_oracle_on_seeded_sources(self):
        # the same check on 200 seeded small sources with 2 or 3 target
        # labels, every other one into a seeded target lattice, where the
        # oracle tries only image rows in the lattice; the lattice removes
        # members of the full target on some of them
        rng = random.Random(20261021)
        nonzero, cut = Counter(), 0
        for i in range(200):
            source, _ = random_source_with_classes(rng, max_rows=2, max_labels=4)
            m = rng.choice([2, 3])
            bound = 3 if m == 2 else 2 if source.n == 1 else 1
            lattice = random_lattice(rng, m)[0] if i % 2 else None
            homs, _ = definitional_hom_oracle(source, m, bound, lattice)
            assert homs == enumerate_homs(source, m, lattice).expand(bound) == box_hom_oracle(
                source, m, lattice, bound), (source, m, lattice, bound)
            nonzero[lattice is not None] += len(homs) > 1
            if lattice is not None:
                cut += len(homs) < len(enumerate_homs(source, m).expand(bound))
        assert nonzero[False] >= 25 and nonzero[True] >= 10 and cut >= 10, (nonzero, cut)


class TestHomFromImages:
    def test_application(self):
        images = vecs(scale_matrix(B1, 4))
        hom = hom_from_images(images, genmatrix_x())
        out = hom(parse_poly("x1 + x2", 3))
        assert out.entries == (4, 0, 0)
        assert hom(parse_poly("x3", 3)).entries == (4, 4, -8)

    def test_identity_images(self):
        gm = genmatrix_x()
        hom = hom_from_images(list(gm.rows), gm)
        for i in range(3):
            mono = [0, 0, 0]
            mono[i] = 1
            assert hom(TropPoly(3, [tuple(mono)])) == gm.rows[i]

    def test_rejects_non_geometric(self):
        images = vecs(((1, 0, 0), (0, 0, 0), (0, 0, 0)))
        with pytest.raises(NotGeometricError):
            hom_from_images(images, genmatrix_x())

    def test_rejection_is_certified(self):
        # column 0 is on the ray union, column 1 is the first one off it
        gm = genmatrix_x()
        M = ((2, -1, 0, 0, -1), (0, 1, 0, 0, -1), (2, 4, 2, 2, -10))
        with pytest.raises(NotGeometricError) as info:
            hom_from_images(vecs(M), gm)
        err = info.value
        assert str(err) == ("no homomorphism: some image column is not a "
                            "nonnegative multiple of a source column")
        assert err.label == 1
        dirs = [col for col in gm.columns() if any(col)]
        assert err.witness == separating_pair(dirs, (-1, 1, 4))
        assert verify_witness(err.witness, dirs)
        f, g = err.witness.f, err.witness.g
        assert substitute_units(f, gm.rows) == substitute_units(g, gm.rows)
        assert substitute_units(f, vecs(M))[1] != substitute_units(g, vecs(M))[1]
        for again in (copy.copy(err), copy.deepcopy(err),
                      *(pickle.loads(pickle.dumps(err, protocol))
                        for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert type(again) is NotGeometricError and str(again) == str(err)
            assert (again.label, again.witness) == (1, err.witness)

    def test_other_rejections_keep_their_reasons(self):
        with pytest.raises(ValueError, match="expected 3 image rows") as info:
            hom_from_images(vecs(((1, -1, 0, 0, 0),)), genmatrix_x())
        assert not isinstance(info.value, NotGeometricError)
        with pytest.raises(ValueError, match="different label sets") as info:
            hom_from_images(vecs(((1, -1, 0, 0, 0), (0, 0), (0, 0, 0, 0, 0))), genmatrix_x())
        assert not isinstance(info.value, NotGeometricError)

    def test_zero_polynomial_maps_to_bottom(self):
        hom = hom_from_images(vecs(scale_matrix(B1, 4)), genmatrix_x())
        assert hom(TropPoly.zero(3)).is_bottom

    def test_well_defined_on_fan_equal_pairs(self):
        # pairs equal on the source-column rays must map to equal values
        rng = random.Random(43)
        gm = genmatrix_x()
        dirs = [gm.column(a) for a in range(gm.n_labels)]
        enum = enumerate_homs(gm, 3, lattice_y())
        members = [fam.matrix_for(fam.modulus) for fam in enum.families]
        checked = 0
        for _ in range(200):
            p = tuple(rng.randint(-6, 6) for _ in range(3))
            if not any(p):
                continue
            try:
                pair = separating_pair(dirs, p)
            except Exception:
                continue
            f, g = pair.f, pair.g
            if substitute_units(f, list(gm.rows)) != substitute_units(g, list(gm.rows)):
                continue
            M = members[checked % len(members)]
            images = vecs(M)
            assert substitute_units(f, images) == substitute_units(g, images)
            checked += 1
        assert checked >= 100


class TestRecoverAndFunctor:
    def test_reference_recovery(self):
        T = recover_T(vecs(((4, -4, 0), (0, 0, 0), (4, 4, -8))), genmatrix_y())
        assert T == ((3, 1), (0, 0), (1, 3))

    def test_square_identity(self):
        assert recover_T(list(genmatrix_y().rows), genmatrix_y()) == ((1, 0), (0, 1))

    def test_linearity_doubles(self):
        base = ((2, 0, -2), (0, 0, 0), (2, -4, 2))
        T1 = recover_T(vecs(base), genmatrix_y())
        assert T1 == ((1, 1), (0, 0), (2, 0))
        T2 = recover_T(vecs(scale_matrix(base, 2)), genmatrix_y())
        assert T2 == scale_matrix(T1, 2)

    def test_apply_functor_reference(self):
        images = apply_functor(((3, 1), (0, 0), (1, 3)), genmatrix_y())
        assert tuple(v.entries for v in images) == ((4, -4, 0), (0, 0, 0), (4, 4, -8))

    def test_apply_functor_zero_and_identity(self):
        zero = apply_functor(((0, 0), (0, 0)), genmatrix_y())
        assert all(v.entries == (0, 0, 0) for v in zero)
        ident = apply_functor(((1, 0), (0, 1)), genmatrix_y())
        assert tuple(ident) == genmatrix_y().rows

    def test_non_integral_image_rejected(self):
        # a half-integer image was truncated to zero and recovered as T = 0
        with pytest.raises(ValueError):
            recover_T([TropVector([Fraction(1, 2), Fraction(-1, 2)])],
                      GenMatrix.from_matrix([[1, -1]]))

    def test_round_trips(self):
        rng = random.Random(53)
        gm = genmatrix_y()
        for _ in range(50):
            T = tuple(tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(3))
            images = apply_functor(T, gm)
            assert recover_T(images, gm) == T
            assert apply_functor(recover_T(images, gm), gm) == images


class TestEnumerateMorphisms:
    def test_reference_list(self):
        enum = enumerate_morphisms(FAN_Y, FAN_X)
        bases = {f.base_T for f in enum.families}
        six = {((3, 1), (0, 0), (1, 3)),
               ((-3, -1), (0, 0), (1, 3)),
               ((-1, 1), (0, 0), (-5, -3)),
               ((1, -1), (0, 0), (-5, -3)),
               ((1, 1), (0, 0), (2, 0)),
               ((-1, -1), (0, 0), (2, 0))}
        swapped = {(m[1], m[0], m[2]) for m in six}
        assert bases == six | swapped
        assert len(enum.families) == 12
        assert not enum.inexhaustive

    def test_line_fan_endomorphisms(self):
        line = Fan1D(1, [Ray([1]), Ray([-1])])
        enum = enumerate_morphisms(line, line)
        assert {f.base_T for f in enum.families} == {((1,),), ((-1,),)}
        # oracle: scan all 1x1 matrices k in [-6, 6]; T defines a morphism
        # exactly when its induced images satisfy the matrix conditions
        gm = weighted_eval_map(line)
        L = Lattice.from_rows(gm.matrix())
        valid = set()
        for k in range(-6, 7):
            images = apply_functor(((k,),), gm)
            M = tuple(v.entries for v in images)
            if all(sum(row) == 0 for row in M) and \
                    geometric_check(list(images), gm) is not None and \
                    all(reference_member(L, row) is not None for row in M):
                valid.add(k)
        expanded = {0}
        for fam in enum.families:
            for k in range(1, 7):
                expanded.add(fam.matrix_for(k)[0][0])
        assert valid == expanded

    def test_generator_rows_brought_to_hnf_once(self, monkeypatch):
        # work gate: the target lattice, the families' T and expand_T share
        # one HNF of the generator rows MG, where there were three, and the
        # lattice takes that HNF as its basis without another run; the only
        # other HNF is the transposed basis behind Lattice.forms.  The
        # shared solve gives the canonical T of the substitution solve
        calls = []
        real = lattice_module.hnf

        def counted(rows):
            calls.append(tuple(map(tuple, rows)))
            return real(rows)

        monkeypatch.setattr(lattice_module, "hnf", counted)
        monkeypatch.setattr(homsearch, "hnf", counted)
        menum = enumerate_morphisms(FAN_Y, FAN_X)
        Ts = menum.expand_T(8)
        assert menum.target_gens.matrix() == MG_ROWS
        basis = menum.homs.target_lattice.basis
        assert calls == [MG_ROWS, tuple(zip(*basis))]
        monkeypatch.undo()
        assert len(Ts) == 17
        # the transform is a field, so a copy carries it
        assert dataclasses.replace(menum).expand_T(8) == Ts
        for T in Ts | {fam.base_T for fam in menum.families}:
            image = [[sum(a * b for a, b in zip(row, col)) for col in zip(*MG_ROWS)]
                     for row in T]
            assert reference_solve_int(MG_ROWS, image) == T

    def test_identity_on_identical_unit_weight_fans(self):
        fan = Fan1D(2, [Ray([1, 0]), Ray([0, 1]), Ray([-1, -1])])
        enum = enumerate_morphisms(fan, fan)
        assert ((1, 0), (0, 1)) in {f.base_T for f in enum.families}

    def test_incompatible_fans_zero_only(self):
        # two target slots cannot cancel any pair of these three directions,
        # so only the zero map survives
        src = Fan1D(1, [Ray([1]), Ray([-1])])
        dst = Fan1D(2, [Ray([1, 1]), Ray([-1, 1]), Ray([0, -1], 2)])
        enum = enumerate_morphisms(src, dst)
        assert enum.families == ()
        assert not enum.inexhaustive

    def test_unbalanced_fan_warns(self):
        lop = Fan1D(2, [Ray([1, 0]), Ray([0, 1])])
        ok = Fan1D(2, [Ray([1, 0]), Ray([-1, 0])])
        with pytest.warns(UserWarning):
            enumerate_morphisms(lop, ok)

    def test_morphism_members_map_support_into_support(self):
        enum = enumerate_morphisms(FAN_Y, FAN_X)
        dirs_x = {d for d in FAN_X.directions}
        from tropfan import primitive
        for fam in enum.families:
            for k in (1, 2):
                T = fam.matrix_for(k)
                for d in FAN_Y.directions:
                    img = tuple(sum(T[i][j] * d[j] for j in range(2)) for i in range(3))
                    if any(img):
                        assert primitive(img) in dirs_x

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "1"])
    def test_matrix_for_requires_an_integer(self, k):
        # a fractional k would give a matrix that is no morphism
        fam = enumerate_morphisms(FAN_Y, FAN_X).families[0]
        with pytest.raises(ValueError, match="expected an integer"):
            fam.matrix_for(k)
        assert fam.matrix_for(Fraction(2)) == scale_matrix(fam.base_T, 2)


class TestComposition:
    def test_line_fan_maps_nowhere_nontrivially(self):
        # the image of the full line under a nonzero linear map is a line,
        # and neither reference fan's support contains one
        line = Fan1D(1, [Ray([1]), Ray([-1])])
        assert enumerate_morphisms(line, FAN_Y).families == ()
        assert enumerate_morphisms(line, FAN_X).families == ()

    def test_composites_are_enumerated(self):
        # morphisms compose: an endomorphism of the 3-ray fan followed by a
        # map into the 5-ray fan is again such a map, so every product of
        # enumerated members must appear in the direct enumeration
        endo = enumerate_morphisms(FAN_Y, FAN_Y)
        to_x = enumerate_morphisms(FAN_Y, FAN_X)
        assert ((1, 0), (0, 1)) in {f.base_T for f in endo.families}
        members = to_x.expand_T(64)
        checked = 0
        for f2 in endo.families:
            for f1 in to_x.families:
                for k1, k2 in ((1, 1), (2, 1), (1, 2)):
                    T1 = f1.matrix_for(k1)   # 3x2
                    T2 = f2.matrix_for(k2)   # 2x2
                    prod = tuple(tuple(sum(T1[i][j] * T2[j][b] for j in range(2))
                                       for b in range(2)) for i in range(3))
                    if max(abs(e) for r in prod for e in r) > 8:
                        continue
                    assert prod in members
                    checked += 1
        assert checked >= 30

    def test_zero_rank_target_lattice(self):
        L = Lattice.from_rows([(0, 0, 0)], ambient=3)
        enum = enumerate_homs(genmatrix_x(), 3, L)
        assert enum.families == ()  # only the zero matrix maps into {0}


class TestDeterminismAndJobs:
    def test_json_lines_stable(self):
        a = enumerate_homs(genmatrix_x(), 3, lattice_y()).to_json_lines()
        b = enumerate_homs(genmatrix_x(), 3, lattice_y()).to_json_lines()
        assert a == b

    def test_cone_records_match_per_assignment_reference(self):
        gm = GenMatrix.from_matrix([(1, -1)])
        reference = reference_enumerate_homs(gm, 3)
        assert reference.inexhaustive
        assert_same_enumeration(enumerate_homs(gm, 3), reference)


class TestCircuitTable:
    def test_rays_match_per_assignment_reference(self):
        # no target lattice: every assignment of up to 6 labels' classes
        # into up to 4 target labels, against one double description each
        rng = random.Random(20240527)
        kinds, sizes = Counter(), Counter()
        for _ in range(200):
            source, col_kinds = random_source_with_classes(rng)
            kinds.update(col_kinds)
            m = rng.randint(1, 4)
            sizes[m] += 1
            assert_same_enumeration(enumerate_homs(source, m),
                                    reference_enumerate_homs(source, m))
        assert all(kinds[k] for k in ("zero", "parallel", "antiparallel"))
        assert set(sizes) == {1, 2, 3, 4}

    def test_matches_assignment_scan_with_lattices(self):
        rng = random.Random(20261018)
        kinds, sizes = Counter(), Counter()
        with_lattice = with_records = 0
        for _ in range(320):
            source, col_kinds = random_source_with_classes(rng, max_labels=4)
            kinds.update(col_kinds)
            m = rng.randint(1, 5)
            sizes[m] += 1
            lattice = None
            if rng.random() < 0.5:
                gens = [random_degree_zero_row(rng, m) for _ in range(rng.randint(1, 2))]
                lattice = Lattice.from_rows(gens)
                with_lattice += 1
            enum = enumerate_homs(source, m, lattice)
            assert_same_enumeration(enum, reference_enumerate_homs(source, m, lattice))
            with_records += bool(enum.cone_records)
        assert all(kinds[k] for k in ("zero", "parallel", "antiparallel"))
        assert set(sizes) == {1, 2, 3, 4, 5}
        assert 120 <= with_lattice <= 200 and with_records >= 40

    def test_one_run_matches_class_subset_loop(self):
        # the single double description against the class-subset loop it
        # replaced: sources with zero, parallel and antiparallel columns,
        # planar sources in R^3 (column rank below the row count), and 10-16
        # classes into 2 or 3 labels, where the target size drops circuits
        rng = random.Random(20261019)
        kinds, sizes = Counter(), Counter()
        planar = many = dropped = 0
        for i in range(360):
            if i % 8 == 7:
                gm, m = many_class_source(rng, rng.randint(10, 16)), rng.randint(2, 3)
                many += 1
            else:
                flat = i % 8 in (3, 6)
                gm, col_kinds = planar_source(rng) if flat else random_source_with_classes(rng)
                planar += flat
                kinds.update(col_kinds)
                m = rng.randint(1, 5)
            sizes[m] += 1
            reps = direction_classes(gm)
            table = homsearch._circuit_table(reps, gm.n, m)
            assert len(set(table)) == len(table)
            assert set(table) == set(reference_circuit_table(reps, gm.n, m)), (gm, m)
            dropped += len(homsearch._circuit_table(reps, gm.n, len(reps))) > len(table)
        assert all(kinds[k] for k in ("zero", "parallel", "antiparallel"))
        assert set(sizes) == {1, 2, 3, 4, 5}
        assert planar >= 80 and many >= 40 and dropped >= 40

    def test_double_description_runs_once_per_class_subset(self, monkeypatch):
        # work-counter gate: one double description over X's 5 classes for
        # the enumeration, and none for its expansions, which read the
        # enumeration's circuits; the class-subset loop made up to 2^5 - 1
        # runs and a scan over assignments 6^5
        calls = count_calls(monkeypatch, "extreme_rays")
        enum = enumerate_homs(genmatrix_x(), 5)
        assert len(calls) == 1
        assert (len(enum.families), len(enum.cone_records)) == (120, 1500)
        enum.expand(1)
        assert len(calls) == 1
        enum.expand(2)
        assert len(calls) == 1

    def test_many_classes_small_target(self, monkeypatch):
        # 12 classes into 2 labels: one double description on all 12 classes
        # (the class-subset loop made 12 + 66 runs on at most 2), and the
        # target size keeps only the circuits on 2 classes
        dirs = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1),
                (-1, 1), (2, 1), (1, 2), (-2, -1), (-1, -2)]
        gm = GenMatrix.from_matrix([[d[i] for d in dirs] for i in range(2)])
        calls = count_calls(monkeypatch, "extreme_rays")
        enum = enumerate_homs(gm, 2)
        assert [n_vars for _, n_vars in calls] == [12]
        assert_same_enumeration(enum, reference_enumerate_homs(gm, 2))
        assert len(enum.to_json_lines()) == 1 + 12  # zero plus six antipodal pairs, both orders

    def test_one_matrix_per_placement(self, monkeypatch):
        # work-counter gate: X has two circuits of three classes, placed at
        # 6 * 5 * 4 positions each in full:6; building the matrix of every
        # ray of every assignment instead makes 51,840; each placement lays
        # its circuit's column template once
        built = count_calls(monkeypatch, "_place")
        enum = enumerate_homs(genmatrix_x(), 6)
        assert len(built) == 240
        assert (len(enum.families), len(enum.cone_records)) == (240, 16560)

    def test_source_without_circuits_visits_no_assignment(self, monkeypatch):
        # one class admits no circuit, so full:40 holds the zero matrix only;
        # a scan would visit all 2^40 assignments of {zero, the class}
        def refuse(*args, **kwargs):
            raise AssertionError("assignments iterated")

        guarded = SimpleNamespace(**vars(itertools))
        guarded.product = guarded.combinations_with_replacement = refuse
        monkeypatch.setattr(homsearch, "itertools", guarded)
        enum = enumerate_homs(GenMatrix.from_matrix([[1], [2]]), 40)
        assert (enum.families, enum.cone_records) == ((), ())
        assert enum.to_json_lines() == ['{"kind": "zero"}']

    def test_source_without_circuits_walks_no_class_set(self, monkeypatch):
        # five classes in the open positive quadrant admit no circuit, so
        # no class set needs a visit; the walk would test all 2^5 - 6
        def refuse(*args, **kwargs):
            raise AssertionError("class sets walked")

        guarded = SimpleNamespace(**vars(itertools))
        guarded.combinations = refuse
        monkeypatch.setattr(homsearch, "itertools", guarded)
        gm = GenMatrix.from_matrix([(1, 1, 2, 1, 3), (1, 2, 1, 3, 1)])
        enum = enumerate_homs(gm, 5)
        assert (enum.families, enum.cone_records, enum.circuits) == ((), (), ())
        assert enum.expand(3) == {enum.zero_matrix}


class TestLayoutTables:
    @pytest.mark.parametrize("shape", [(1,), (3,), (1, 1), (2, 1), (1, 2, 1), (2, 2, 1),
                                       (1, 1, 1, 1, 1)])
    def test_layouts_are_the_distinct_arrangements(self, shape):
        layouts = homsearch._layouts(shape)
        keys = [key for key, _ in layouts]
        values = [i for i, k in enumerate(shape) for _ in range(k)]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(itertools.permutations(values))
        for key, slots in layouts:
            assert slots == tuple(tuple(b for b, i in enumerate(key) if i == v)
                                  for v in range(len(shape)))

    def test_records_match_arrangement_walk(self):
        # the layout tables against the recursive arrangement walk they
        # replaced, with a target lattice on about a third of the draws
        # (records do not depend on it), and X -> full:6
        kinds, sizes = Counter(), Counter()
        planar = many = with_lattice = with_records = 0
        for gm, m, lattice, kind, col_kinds in arrangement_draws():
            planar += kind == "planar"
            many += kind == "many"
            kinds.update(col_kinds)
            sizes[m] += 1
            with_lattice += lattice is not None
            records = enumerate_homs(gm, m, lattice).cone_records
            assert records == reference_cone_records(gm, m), (gm, m, lattice)
            with_records += bool(records)
        assert all(kinds[k] for k in ("zero", "parallel", "antiparallel"))
        assert set(sizes) == {1, 2, 3, 4, 5, 6}
        assert planar >= 100 and many >= 100 and 80 <= with_lattice <= 140
        assert with_records >= 100
        records = enumerate_homs(genmatrix_x(), 6).cone_records
        assert len(records) == 16560
        assert records == reference_cone_records(genmatrix_x(), 6)

    def test_layout_table_once_per_count_shape(self, monkeypatch):
        # work-counter gate: X -> full:6 lays its 16,560 records from 26
        # layout tables, one per count shape, where the arrangement walk
        # entered 33,177 recursive frames; a repeated query builds fresh
        # tables (nothing outlives a call), and so does each expansion
        real = homsearch._layouts
        built = []  # (shape, table) per build
        monkeypatch.setattr(homsearch, "_layouts",
                            lambda shape: built.append((shape, real(shape))) or built[-1][1])
        runs = []
        for _ in range(2):
            enum = enumerate_homs(genmatrix_x(), 6)
            assert len(enum.cone_records) == 16560
            runs.append(dict(built))
            assert len(runs[-1]) == len(built) <= 26
            built.clear()
        assert runs[0].keys() == runs[1].keys()
        assert all(runs[0][shape] is not runs[1][shape] for shape in runs[0])
        enum.expand(2)
        assert built and len(dict(built)) == len(built)


def reference_lines(monkeypatch, enum):
    """enum.to_json_lines(), every line written by reference_json_lines."""
    with monkeypatch.context() as patch:
        patch.setattr(homsearch, "_json_lines", reference_json_lines)
        return enum.to_json_lines()


def balanced_fan(rng, n, k):
    """A random balanced fan in R^n with k rays: k - 1 distinct random
    primitive directions of weight 1, and the ray that balances them."""
    while True:
        dirs = [random_primitive_direction(rng, n, bound=2) for _ in range(k - 1)]
        rest = tuple(-sum(col) for col in zip(*dirs))
        if any(rest) and len({*dirs, primitive(rest)}) == k:
            return Fan1D(n, [Ray(d) for d in dirs] + [Ray(rest, gcd(*rest))])


# SHA-256 of "\n".join(to_json_lines()), computed with the emitter that
# dumped every cone record on its own: the golden files hold no cone lines
PINNED_LINES = {
    "X->full:5": (lambda: enumerate_homs(genmatrix_x(), 5),
                  "d14c6c088783d71e81450491522902c0b79e26ef976e5f170ee4b54e0d5df373"),
    "X->full:6": (lambda: enumerate_homs(genmatrix_x(), 6),
                  "acf4584b8727ff8080d262a8e2881384da64484247661fd4a0fe7a228c27d790"),
    "Y->X-lattice:5": (lambda: enumerate_homs(genmatrix_y(), 5,
                                              Lattice.from_rows(list(genmatrix_x().matrix()))),
                       "e54d3c67e0090a62dde14614a0c1b7650f4886d509f7eeb67032ed7134821b10"),
    "morphisms-X-Y": (lambda: enumerate_morphisms(FAN_X, FAN_Y),
                      "e54d3c67e0090a62dde14614a0c1b7650f4886d509f7eeb67032ed7134821b10"),
}


class TestJsonLines:
    def test_matches_reference_emitter_on_arrangement_draws(self, monkeypatch):
        records = 0
        for gm, m, lattice, _, _ in arrangement_draws():
            enum = enumerate_homs(gm, m, lattice)
            assert enum.to_json_lines() == reference_lines(monkeypatch, enum), (gm, m, lattice)
            records += len(enum.cone_records)
        assert records >= 100_000
        enum = enumerate_homs(genmatrix_x(), 6)
        assert len(enum.cone_records) == 16560
        assert enum.to_json_lines() == reference_lines(monkeypatch, enum)

    def test_matches_reference_emitter_on_morphisms(self, monkeypatch):
        # the reference fans, the expand suite's pairs, and seeded balanced
        # fans in R^2 and R^3 with 3-5 rays
        rng = random.Random(20261021)
        pairs = [(FAN_X, FAN_Y), (FAN_Y, FAN_X), (FAN_X, FAN_X), (FAN_Y, FAN_Y)]
        pairs += [(fan_of(src), fan_of(dst)) for src, dst, _ in EXPAND_MORPHS]
        for _ in range(60):
            pairs.append(tuple(balanced_fan(rng, rng.randint(2, 3), rng.randint(3, 5))
                               for _ in range(2)))
        with_families = with_records = 0
        for src, dst in pairs:
            enum = enumerate_morphisms(src, dst)
            assert enum.to_json_lines() == reference_lines(monkeypatch, enum), (src, dst)
            with_families += bool(enum.families)
            with_records += bool(enum.cone_records)
        assert with_families >= 30 and with_records >= 40

    def test_dumps_each_placement_matrix_once(self, monkeypatch):
        # work-counter gate: X -> full:5 prints the zero line, 120 families
        # and 1,500 cone records whose 3,480 bases are 120 distinct matrices;
        # dumping every record on its own made 1,621 json.dumps calls
        enum = enumerate_homs(genmatrix_x(), 5)
        dumped = []
        real = json.dumps
        monkeypatch.setattr(homsearch.json, "dumps",
                            lambda obj, *args, **kwargs: dumped.append(obj) or real(obj, *args, **kwargs))
        lines = enum.to_json_lines()
        assert len(lines) == 1621
        assert sum(map(len, (rec.ray_bases for rec in enum.cone_records))) == 3480
        assert len(dumped) <= 1 + 120 + 120

    @pytest.mark.parametrize("case", PINNED_LINES)
    def test_cone_line_bytes_pinned(self, case):
        build, digest = PINNED_LINES[case]
        enum = build()
        assert enum.cone_records
        assert hashlib.sha256("\n".join(enum.to_json_lines()).encode()).hexdigest() == digest


def arrangement_draws():
    """The 330 seeded (source, target size, lattice, kind, column kinds)
    draws of the layout-table differential: random sources with zero,
    parallel and antiparallel columns, planar sources in R^3 and 4-7
    classes into 3-5 labels, a target lattice on about a third."""
    rng = random.Random(20261020)
    for i in range(330):
        if i % 3 == 2:
            gm, m = many_class_source(rng, rng.randint(4, 7)), rng.randint(3, 5)
            kind, col_kinds = "many", []
        else:
            gm, col_kinds = planar_source(rng) if i % 3 else random_source_with_classes(rng)
            kind = "planar" if i % 3 == 1 else "random"
            m = rng.randint(1, 6)
        lattice = None
        if rng.random() < 1 / 3:
            gens = [random_degree_zero_row(rng, m) for _ in range(rng.randint(1, 2))]
            lattice = Lattice.from_rows(gens)
        yield gm, m, lattice, kind, col_kinds


def planar_source(rng):
    """A random source in R^3 whose directions all lie in one plane: random
    planar columns (zero, parallel, antiparallel or fresh) pushed through an
    injective integer 3x2 matrix, so the column rank is below the row count."""
    flat, kinds = random_source_with_classes(rng, max_rows=2, max_labels=5)
    while True:
        u, v = (tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(2))
        if any(u[i] * v[j] - u[j] * v[i] for i, j in ((0, 1), (0, 2), (1, 2))):
            break
    flat_cols = [flat.column(a) for a in range(flat.n_labels)]
    cols = [tuple(c[0] * u[i] + (c[1] if len(c) > 1 else 0) * v[i]
                  for i in range(3)) for c in flat_cols]
    return GenMatrix.from_matrix([[c[i] for c in cols] for i in range(3)]), kinds


def many_class_source(rng, k):
    """A random source in R^2 or R^3 with k distinct primitive column
    directions, so k direction classes and no zero or parallel column."""
    n = rng.randint(2, 3)
    dirs = []
    while len(dirs) < k:
        d = random_primitive_direction(rng, n, bound=3)
        if d not in dirs:
            dirs.append(d)
    return GenMatrix.from_matrix([[d[i] for d in dirs] for i in range(n)])


def box_size(enum, bound):
    dirs = dict(direction_classes(enum.source))
    total = 0
    for rec in enum.cone_records:
        size = 1
        for a in rec.assignment:
            if a is not None:
                size *= bound // max(abs(e) for e in dirs[a]) + 1
        total += size
    return total


def box_candidates(source, bound):
    """The number of candidate columns box_hom_oracle tries per label."""
    return 1 + sum(bound // max(map(abs, d)) for _, d in direction_classes(source))


def fan_of(rays):
    return Fan1D(len(rays[0][0]), [Ray(d, w) for d, w in rays])


# Fan morphisms of the expand benchmark suite: (source, destination, bound).
EXPAND_MORPHS = [
    ([((-1, -1), 1), ((-1, 2), 1), ((2, -1), 1)],
     [((1, -2), 1), ((-1, 1), 4), ((1, -1), 2), ((1, 2), 1), ((0, -1), 2)], 2),
    ([((-1, 1), 1), ((1, -2), 1), ((-1, 2), 1), ((1, -1), 1)],
     [((-1, 0), 2), ((-1, -2), 2), ((1, 2), 2), ((1, 0), 2)], 2),
    ([((-3, -2), 1), ((1, 0), 1), ((1, 1), 2)],
     [((-1, -1), 4), ((1, 0), 2), ((1, 1), 2), ((0, 1), 2)], 3),
    ([((1, -1), 2), ((-2, 1), 1), ((0, 1), 1)],
     [((1, -1), 2), ((-3, 2), 2), ((2, -1), 2)], 2),
    ([((2, 1), 2), ((-1, 0), 2), ((-2, -1), 2), ((1, 0), 2)],
     [((0, -1), 2), ((-1, 0), 1), ((0, 1), 2), ((-2, 1), 1), ((3, -1), 1)], 1),
]


# Homomorphisms into a target fan's lattice from the expand benchmark suite:
# (source, target, labels, bound); the target lattice has rank 2 of 4 in
# the first and rank 3 of 4 in the second.
EXPAND_ONCE_HOMS = {
    "span-fails": ([((1, -1), 1), ((-1, 0), 2), ((-1, -1), 1), ((1, 1), 2)],
                   [((0, -1), 2), ((-2, 3), 2), ((1, -2), 2), ((1, 0), 2)], 4, 2),
    "congruence-fails": ([((1, 2), 1), ((0, -1), 2), ((-1, 0), 1)],
                         [((-1, 2, -1), 1), ((0, -2, -1), 2), ((1, -1, 0), 1), ((0, 1, 1), 3)],
                         4, 4),
}


def _expand_into_lattice(case):
    src, tgt, m, bound = EXPAND_ONCE_HOMS[case]
    lattice = Lattice.from_rows(weighted_eval_map(fan_of(tgt)).matrix())
    return enumerate_homs(weighted_eval_map(fan_of(src)), m, lattice).expand, bound


# (expansion, bound) builders of the expansions whose matrix builds are counted
EXPAND_ONCE = {
    "X": lambda: (enumerate_homs(genmatrix_x(), 5).expand, 3),
    "antiparallel-pairs": lambda: (enumerate_homs(
        GenMatrix.from_matrix([(1, 0, -1, 0), (0, 1, 0, -1)]), 5).expand, 2),
    "planar-five": lambda: (enumerate_homs(
        GenMatrix.from_matrix([(1, -1, 1, 2, 1), (0, 0, 1, 1, 2)]), 5).expand, 2),
    "span-fails": lambda: _expand_into_lattice("span-fails"),
    "congruence-fails": lambda: _expand_into_lattice("congruence-fails"),
    "morphisms": lambda: (enumerate_morphisms(fan_of(EXPAND_MORPHS[0][0]),
                                              fan_of(EXPAND_MORPHS[0][1])).expand_T,
                          EXPAND_MORPHS[0][2]),
}


class TestKernelExpansion:
    def test_expand_matches_box_reference(self):
        # the bound is lowered only where the reference's box would exceed
        # BUDGET candidates, to keep the reference scan short
        BUDGET = 20_000
        rng = random.Random(20241018)
        kinds, sizes, bounds = Counter(), Counter(), Counter()
        planar = with_lattice = with_records = members = 0
        for i in range(320):
            if i % 4 == 3:
                source, col_kinds = planar_source(rng)
                planar += 1
            else:
                source, col_kinds = random_source_with_classes(rng, max_labels=5)
            kinds.update(col_kinds)
            m = rng.randint(2, 5)
            lattice = None
            if rng.random() < 0.5:
                gens = [random_degree_zero_row(rng, m) for _ in range(rng.randint(1, 2))]
                lattice = Lattice.from_rows(gens)
                with_lattice += 1
            enum = enumerate_homs(source, m, lattice)
            bound = rng.randint(0, 6)
            while box_size(enum, bound) > BUDGET:
                bound -= 1
            sizes[m] += 1
            bounds[bound] += 1
            with_records += bool(enum.cone_records)
            mine = enum.expand(bound)
            assert mine == reference_expand(enum, bound), (source, m, lattice, bound)
            members += len(mine) - 1
        assert all(kinds[k] for k in ("zero", "parallel", "antiparallel"))
        assert set(sizes) == {2, 3, 4, 5}
        assert set(bounds) == set(range(7))
        assert planar >= 80 and 100 <= with_lattice <= 220
        assert with_records >= 60 and members >= 1000

    def test_expand_T_matches_reference_on_benchmark_pairs(self):
        # expand_T(B) is exactly the morphisms whose image matrix T * G lies
        # in the [-B, B] box, one T per image; Y -> X has families only, and
        # its minimal images have largest entry 4 or 8
        pairs = [(fan_of(src), fan_of(dst), bound) for src, dst, bound in EXPAND_MORPHS]
        pairs += [(FAN_Y, FAN_X, 2), (FAN_Y, FAN_X, 8)]
        cone_members = 0
        for src, dst, bound in pairs:
            menum = enumerate_morphisms(src, dst)
            G = menum.target_gens.matrix()
            Ts = menum.expand_T(bound)
            images = {tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*G))
                            for row in T) for T in Ts}
            assert len(images) == len(Ts)
            lattice = Lattice.from_rows(G)
            assert images == box_hom_oracle(weighted_eval_map(dst), src.n_rays, lattice, bound)
            cone_members += len(reference_expand_cones(menum.homs, bound))
        assert cone_members

    def test_candidate_count_gate(self, monkeypatch):
        # work-counter gate: Y -> 5 labels into the X lattice builds only
        # members; at bound 4 a search over the whole box built 157,500
        # candidate matrices, solving the kernel of every cone record 1,830,
        # and testing each built matrix against the lattice 300 (1,460 at
        # bound 6); expand lays each matrix it builds with _place
        enum = enumerate_homs(genmatrix_y(), 5, Lattice.from_rows(list(genmatrix_x().matrix())))
        built = count_calls(monkeypatch, "_place")
        for bound, nonzero in ((4, 4), (6, 8)):
            built.clear()
            members = enum.expand(bound)
            assert len(members) == nonzero + 1
            assert len(built) == len(members) - 1

    @pytest.mark.parametrize("case", EXPAND_ONCE)
    def test_expand_builds_each_member_once(self, monkeypatch, case):
        # no candidate is built twice, and into a target lattice none is
        # built outside it: the record-based expansion built 9,580, 18,360
        # and 10,690 candidates for the full targets here, and testing each
        # built matrix against the lattice built every full-target member;
        # the enumeration, whose families are laid with _place too, is done
        # before the count starts
        expand, bound = EXPAND_ONCE[case]()
        built = count_calls(monkeypatch, "_place")
        members = expand(bound)
        assert len(built) == len(members) - 1

    @pytest.mark.parametrize("case, span, congruence", [("span-fails", 148, 6),
                                                        ("congruence-fails", 0, 108)])
    def test_lattice_cases_reject_full_target_members(self, case, span, congruence):
        # the lattice cases above are chosen so that the full target has
        # members whose rows leave the lattice's span (rank 2 of 4), or
        # members whose rows all stay in the span but leave the lattice by
        # a congruence (rank 3 of 4)
        src, tgt, m, bound = EXPAND_ONCE_HOMS[case]
        lattice = Lattice.from_rows(weighted_eval_map(fan_of(tgt)).matrix())
        outside = Counter()
        for M in enumerate_homs(weighted_eval_map(fan_of(src)), m).expand(bound):
            try:
                mults = [reference_least_multiplier(lattice, row) for row in M]
            except LatticeSpanError:
                outside["span"] += 1
            else:
                outside["congruence"] += max(mults) > 1
        assert (outside["span"], outside["congruence"]) == (span, congruence)

    def test_class_total_expand_matches_oracles(self):
        # differential: the class-total expansion against the record-based
        # reference_expand and the definition-level box oracle, at bounds
        # 0-6 and up to 6 labels; a bound is lowered only where either
        # oracle's search would pass BUDGET candidates
        BUDGET = 6_000
        rng = random.Random(20261019)
        sizes, bounds = Counter(), Counter()
        with_lattice = members = 0
        for i in range(240):
            m = rng.randint(1, 6)
            if i % 4 == 3:
                source = planar_source(rng)[0]
            else:
                source = random_source_with_classes(rng, max_labels=6 if m < 4 else 3)[0]
            lattice = None
            if rng.random() < 0.4:
                lattice = random_lattice(rng, m)[0]
                with_lattice += 1
            enum = enumerate_homs(source, m, lattice)
            bound = rng.randint(0, 6)
            while box_size(enum, bound) > BUDGET or box_candidates(source, bound) ** m > BUDGET:
                bound -= 1
            sizes[m] += 1
            bounds[bound] += 1
            mine = enum.expand(bound)
            assert mine == reference_expand(enum, bound), (source, m, lattice, bound)
            assert mine == box_hom_oracle(source, m, lattice, bound), (source, m, lattice, bound)
            members += len(mine) - 1
        assert set(sizes) == set(range(1, 7)) and set(bounds) == set(range(7))
        assert 60 <= with_lattice <= 140 and members >= 500

    @pytest.mark.parametrize("count, limit", [(c, lim) for c in range(1, 5) for lim in range(5)])
    def test_compositions_match_product_filter(self, count, limit):
        for total in range(-1, count * limit + 2):
            brute = [p for p in itertools.product(range(1, limit + 1), repeat=count)
                     if sum(p) == total]
            assert homsearch._compositions(total, count, limit) == brute

    @pytest.mark.parametrize("case, bound, solves, size", [("X full:5", 4, 3, 4061),
                                                           ("X full:6", 2, 3, 3721),
                                                           ("Y into the X lattice", 4, 1, 5)])
    def test_one_kernel_per_covered_class_set(self, monkeypatch, case, bound, solves, size):
        # work gate: one bounded_points call per class set that the circuits
        # inside it cover, over its class totals; one call per count vector
        # made 21, 46 and 10 (for the same member counts)
        lx = Lattice.from_rows(list(genmatrix_x().matrix()))
        enum = {"X full:5": lambda: enumerate_homs(genmatrix_x(), 5),
                "X full:6": lambda: enumerate_homs(genmatrix_x(), 6),
                "Y into the X lattice": lambda: enumerate_homs(genmatrix_y(), 5, lx)}[case]()
        solved = count_calls(monkeypatch, "bounded_points")
        members = enum.expand(bound)
        assert len(solved) == solves
        assert len({repr(N) for N, _ in solved}) == solves  # a class set once
        assert len(members) == size

    def test_source_without_circuits_solves_no_kernel(self, monkeypatch):
        # every column lies in the open positive quadrant, so no class lies
        # in a circuit and no class multiset has a positive kernel point
        gm = GenMatrix.from_matrix([(1, 1, 2, 1, 3), (1, 2, 1, 3, 1)])
        enum = enumerate_homs(gm, 10)
        solved = count_calls(monkeypatch, "bounded_points")
        assert enum.expand(3) == {enum.zero_matrix}
        assert solved == []

    @pytest.mark.parametrize("bound", [True, 2.5, 2.0, "2"])
    def test_non_integer_bound_rejected(self, bound):
        # expand(True) acted as bound 1; a float or a string raised TypeError
        enum = enumerate_homs(genmatrix_x(), 3)
        with pytest.raises(ValueError, match="expected an integer"):
            enum.expand(bound)
        with pytest.raises(ValueError, match="expected an integer"):
            enumerate_morphisms(FAN_Y, FAN_X).expand_T(bound)
        assert enum.expand(Fraction(2)) == enum.expand(2)

    def test_negative_bound_rejected(self):
        enum = enumerate_homs(genmatrix_x(), 3)
        with pytest.raises(ValueError, match="entry bound must be nonnegative"):
            enum.expand(-1)
        with pytest.raises(ValueError, match="entry bound must be nonnegative"):
            enumerate_morphisms(FAN_Y, FAN_X).expand_T(-1)
