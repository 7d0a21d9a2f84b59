import json
import random
from fractions import Fraction

import pytest

from tropfan import (Fan1D, GenMatrix, Ray, TropPoly, TropVector,
                     apply_phi_to_poly, check_balancing, fan_from_generators,
                     kernel_eq, parse_poly, primitive, weighted_eval_map)

from helpers import FAN_X, FAN_Y, MF_ROWS, MG_ROWS, random_poly


class TestPrimitive:
    def test_examples(self):
        assert primitive((2, 0, 2)) == (1, 0, 1)
        assert primitive((0, 0, -4)) == (0, 0, -1)
        assert primitive((3, -6, 9)) == (1, -2, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive((0, 0))

    def test_orientation_kept(self):
        assert primitive((-2, -4)) == (-1, -2)

    @pytest.mark.parametrize("bad", [(2.5, 5), (True, 2), (Fraction(1, 2), 1)])
    def test_non_integer_rejected(self, bad):
        # exactness: entries are never truncated, (2.5, 5) is not (2, 5)
        with pytest.raises(ValueError, match="expected an integer"):
            primitive(bad)

    @pytest.mark.parametrize("bad", [(2, 4.0), (True, 0)])
    def test_inexact_entry_of_an_integral_vector_rejected(self, bad):
        # 4.0 and True compare equal to ints; the type check must still see them
        with pytest.raises(ValueError, match="expected an integer"):
            primitive(bad)

    def test_integral_rationals_accepted(self):
        assert primitive((Fraction(4, 2), 4)) == (1, 2)
        d = primitive((Fraction(6, 3), 4))
        assert d == (1, 2) and all(type(e) is int for e in d)

    def test_primitive_input_returned_as_is(self):
        d = (3, -5, 0, 7)
        assert primitive(d) is d
        assert primitive([3, -5]) == (3, -5)


class TestFanValidation:
    def test_ray_normalizes_direction(self):
        assert Ray([2, 0, 2], 3).direction == (1, 0, 1)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Ray([1, 0], 0)

    @pytest.mark.parametrize("direction, weight", [([1.7, 0], 1), ([1, 0], 2.9),
                                                   ([2, 0], True), ([1, False], 1)])
    def test_non_integer_ray_rejected(self, direction, weight):
        # exactness: neither the direction nor the weight is truncated
        with pytest.raises(ValueError, match="expected an integer"):
            Ray(direction, weight)

    def test_duplicate_directions_rejected(self):
        with pytest.raises(ValueError):
            Fan1D(2, [Ray([1, 0]), Ray([2, 0])])

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            Fan1D(3, [Ray([1, 0])])

    @pytest.mark.parametrize("dim", [2.0, True, "2"])
    def test_non_integer_dimension_rejected(self, dim):
        with pytest.raises(ValueError, match="expected an integer"):
            Fan1D(dim, [Ray([1, 0])])
        assert Fan1D(Fraction(2), [Ray([1, 0])]).ambient_dim == 2

    def test_json_round_trip(self):
        again = Fan1D.from_json_dict(json.loads(json.dumps(FAN_X.to_json_dict())))
        assert again == FAN_X

    def test_degenerate_fan_allowed(self):
        fan = Fan1D(2, [])
        assert fan.n_rays == 0

    def test_sorted_rays_canonical_order(self):
        fan = Fan1D(2, [Ray([1, 0]), Ray([-1, 0]), Ray([0, 1])])
        assert fan.sorted_rays().directions == ((-1, 0), (0, 1), (1, 0))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(FAN_Y.to_json_dict()))
        assert Fan1D.load(path) == FAN_Y

    def test_malformed_dict(self):
        with pytest.raises(ValueError):
            Fan1D.from_json_dict({"rays": []})
        with pytest.raises(ValueError):
            Fan1D.from_json_dict({"ambient_dim": 2, "rays": [{"weight": 1}]})


class TestBalancing:
    def test_reference_fans_balanced(self):
        assert check_balancing(FAN_X)
        assert check_balancing(FAN_Y)

    def test_single_ray_unbalanced(self):
        assert not check_balancing(Fan1D(2, [Ray([1, 0])]))

    def test_opposite_pair_balanced(self):
        assert check_balancing(Fan1D(1, [Ray([1]), Ray([-1])]))


class TestEvalMap:
    def test_reference_matrices(self):
        assert weighted_eval_map(FAN_X).matrix() == MF_ROWS
        assert weighted_eval_map(FAN_Y).matrix() == MG_ROWS

    def test_line_fan(self):
        fan = Fan1D(1, [Ray([1]), Ray([-1])])
        assert weighted_eval_map(fan).matrix() == ((1, -1),)

    def test_rows_are_units_iff_balanced(self):
        assert weighted_eval_map(FAN_X).all_unit_rows
        lop = Fan1D(2, [Ray([1, 0]), Ray([0, 1])])
        assert not check_balancing(lop)
        assert not weighted_eval_map(lop).all_unit_rows


class TestApplyPhi:
    def test_coordinate_functions(self):
        assert apply_phi_to_poly(FAN_X, parse_poly("x1", 3)).entries == MF_ROWS[0]
        assert apply_phi_to_poly(FAN_X, parse_poly("x3", 3)).entries == MF_ROWS[2]

    def test_max_of_coordinates(self):
        out = apply_phi_to_poly(FAN_X, parse_poly("x1 + x2", 3))
        assert out.entries == (1, 0, 1, 0, 0)

    def test_zero_exponent(self):
        out = apply_phi_to_poly(FAN_X, parse_poly("0", 3))
        assert out.entries == (0, 0, 0, 0, 0)

    def test_zero_poly_goes_to_bottom(self):
        assert apply_phi_to_poly(FAN_X, TropPoly.zero(3)).is_bottom

    def test_semiring_map_laws(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_poly(rng, 3)
            g = random_poly(rng, 3)
            pf = apply_phi_to_poly(FAN_X, f)
            pg = apply_phi_to_poly(FAN_X, g)
            assert apply_phi_to_poly(FAN_X, f + g) == pf + pg
            assert apply_phi_to_poly(FAN_X, f * g) == pf * pg

    def test_balanced_image_has_nonnegative_degree(self):
        rng = random.Random(13)
        for fan in (FAN_X, FAN_Y):
            for _ in range(40):
                f = random_poly(rng, fan.ambient_dim)
                assert apply_phi_to_poly(fan, f).degree >= 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_phi_to_poly(FAN_X, parse_poly("x1", 2))


class TestFanFromGenerators:
    def test_reference_columns(self):
        fan = fan_from_generators(GenMatrix.from_matrix(MF_ROWS))
        assert fan.directions == ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1),
                                  (0, 0, -1))

    def test_zero_column_dropped(self):
        gm = GenMatrix.from_matrix([(1, 0, -1), (0, 0, 0)])
        fan = fan_from_generators(gm)
        assert fan.directions == ((1, 0), (-1, 0))

    def test_all_zero_gives_degenerate_fan(self):
        fan = fan_from_generators(GenMatrix.from_matrix([(0, 0), (0, 0)]))
        assert fan.n_rays == 0

    def test_round_trip_with_unit_weights(self):
        fan = Fan1D(2, [Ray([1, 1]), Ray([-1, 0]), Ray([0, -1]), Ray([-1, -1])])
        again = fan_from_generators(weighted_eval_map(fan))
        assert set(again.directions) == set(fan.directions)

    def test_parallel_columns_merge(self):
        gm = GenMatrix.from_matrix([(1, 2, -1), (1, 2, -1)])
        fan = fan_from_generators(gm)
        assert fan.directions == ((1, 1), (-1, -1))


class TestKernelEq:
    def test_examples(self):
        f = parse_poly("x1 + x2", 2)
        g = parse_poly("x1", 2)
        assert kernel_eq(Fan1D(2, [Ray([1, 0]), Ray([1, 1])]), f, g)
        assert not kernel_eq(Fan1D(2, [Ray([0, 1])]), f, g)
        assert kernel_eq(Fan1D(2, [Ray([0, 1]), Ray([-1, -2])]), f, f)

    def test_matches_evaluation_map_agreement(self):
        rng = random.Random(37)
        for _ in range(40):
            f = random_poly(rng, 3)
            g = random_poly(rng, 3)
            assert kernel_eq(FAN_X, f, g) == \
                (apply_phi_to_poly(FAN_X, f) == apply_phi_to_poly(FAN_X, g))


class TestGenMatrix:
    def test_columns(self):
        gm = GenMatrix.from_matrix(MF_ROWS)
        assert gm.column(0) == (1, 0, 1)
        assert gm.column(4) == (0, 0, -4)
        assert gm.n == 3 and gm.n_labels == 5

    def test_rejects_bottom_and_ragged(self):
        with pytest.raises(ValueError):
            GenMatrix([TropVector([1, -1]), TropVector.bottom(2)])
        with pytest.raises(ValueError):
            GenMatrix([TropVector([1, -1]), TropVector([1, -1, 0])])
