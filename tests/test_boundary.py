"""One boundary sweep over the public API: every callable in tropfan.__all__
and every public method of the value types has an entry below, and each
numeric argument refuses inexact values with ValueError (or one of its
documented subclasses, such as PolySyntaxError).  New entry points join the
table; the sweep fails for a callable in __all__ that has none."""

import dataclasses
from fractions import Fraction
from pathlib import Path
from types import FunctionType

import pytest

import tropfan
from tropfan import (Fan1D, GenMatrix, LabelMismatchError, Lattice, LatticeSolveError,
                     LatticeSpanError, NotAUnitError, NotGeometricError, PointInSupportError,
                     PolySyntaxError, Ray, TropPoly, TropVector, apply_functor,
                     apply_phi_to_poly, check_balancing, enumerate_homs, enumerate_morphisms,
                     ext_add, ext_max, extreme_rays, fan_from_generators, fn_eq_on_rays,
                     fn_eq_on_space, geometric_check, hnf, hom_from_images, in_congruence_variety,
                     integerize, kernel_eq, orth_basis, parse_poly, primitive, recover_T,
                     scalar_modulus, separating_pair, separating_point, solve_int,
                     substitute_units, verify_witness, weighted_eval_map, xgcd, zero_unit)
from tropfan.exactlp import hull_separator, solve_eq_nonneg
from tropfan.homsearch import ConeRecord, Hom, HomEnumeration, HomFamily
from tropfan.homsearch import MorphismEnumeration, MorphismFamily
from tropfan.witness import WitnessPair

from helpers import B1, FAN_X, FAN_Y, MG_ROWS, genmatrix_x, genmatrix_y, lattice_y

# The kinds of numeric argument, each with the values it must refuse.  An
# int argument refuses a non-integral rational too, and a rational one takes
# it.  An optional int (a size or dimension that defaults to None) and an
# extended int (ext_max, ext_add: None is minus infinity) take None.
INT = (1.5, True, "2", None, Fraction(1, 2))
RATIONAL = (1.5, True, "2", None)
INT_OR_NONE = (1.5, True, "2", Fraction(1, 2))

VECTOR = TropVector([2, -1, 0])
P = TropPoly(2, [(1, 0), (0, -1)])
Q = TropPoly(2, [(1, 0)])
GM_X, GM_Y, LATTICE = genmatrix_x(), genmatrix_y(), lattice_y()
IMAGES = tuple(TropVector(row) for row in B1)
HOMS = enumerate_homs(GM_Y, 4)
MORPHISMS = enumerate_morphisms(FAN_Y, FAN_X)
WITNESS = separating_pair(FAN_Y.directions, (-1, -1))
HOM = hom_from_images(IMAGES, GM_X)
DEMO_FANS = Path(__file__).resolve().parent.parent / "demos" / "fans"


def _fields(record) -> tuple:
    """A record's field values, in order: the arguments that rebuild it."""
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


# name -> (callable, arguments that it accepts, numeric slots).  A slot is
# the path to a numeric value inside the arguments (indices and dict keys)
# and its kind.  An entry with no slots takes no number directly: its numbers
# come in inside values (TropPoly, TropVector, GenMatrix, Fan1D, Lattice)
# whose constructors are swept here, or it is an error or a result record,
# which carries what the library built from checked input.
TABLE = {
    # maxplus
    "TropVector": (TropVector, ([2, -1, 0], 3),
                   [((0, 0), INT), ((0, 2), INT), ((1,), INT_OR_NONE)]),
    "TropVector.bottom": (TropVector.bottom, (3,), [((0,), INT)]),
    "TropVector.inverse": (TropVector([1, -1]).inverse, (), []),
    "TropVector.decompose": (VECTOR.decompose, (0, 1), [((0,), INT), ((1,), INT)]),
    "TropVector.to_json": (VECTOR.to_json, (), []),
    "TropVector.from_json": (TropVector.from_json, ([2, -1, 0], 3),
                             [((0, 1), INT), ((1,), INT_OR_NONE)]),
    "zero_unit": (zero_unit, (3,), [((0,), INT)]),
    "ext_max": (ext_max, (2, 3), [((0,), INT_OR_NONE), ((1,), INT_OR_NONE)]),
    "ext_add": (ext_add, (2, 3), [((0,), INT_OR_NONE), ((1,), INT_OR_NONE)]),
    "LabelMismatchError": (LabelMismatchError, ("label sets differ",), []),
    "NotAUnitError": (NotAUnitError, ("not invertible",), []),
    # tropoly
    "TropPoly": (TropPoly, (2, [(1, 0), (0, -1)]),
                 [((0,), INT), ((1, 0, 0), INT), ((1, 1, 1), INT)]),
    "TropPoly.zero": (TropPoly.zero, (2,), [((0,), INT)]),
    "TropPoly.one": (TropPoly.one, (2,), [((0,), INT)]),
    "TropPoly.sorted_monomials": (P.sorted_monomials, (), []),
    "TropPoly.eval": (P.eval, ((3, Fraction(1, 2)),), [((0, 0), RATIONAL), ((0, 1), RATIONAL)]),
    "TropPoly.canonical": (P.canonical, (), []),
    "TropPoly.to_json": (P.to_json, (), []),
    "TropPoly.from_json": (TropPoly.from_json, ([[1, 0], [0, -1]], 2),
                           [((0, 0, 0), INT), ((1,), INT)]),
    "parse_poly": (parse_poly, ("x1 + x2", 2), [((1,), INT)]),
    "PolySyntaxError": (PolySyntaxError, ("expected a variable factor", 3), []),
    # exponents reach exactlp only through hull_separator, swept below
    "fn_eq_on_space": (fn_eq_on_space, (P, Q), []),
    "separating_point": (separating_point, (P, Q), []),
    "fn_eq_on_rays": (fn_eq_on_rays, (P, Q, [(1, 1), (-1, 2)]),
                      [((2, 0, 0), INT), ((2, 1, 1), INT)]),
    "substitute_units": (substitute_units, (P, [TropVector([1, -1]), TropVector([0, 0])]), []),
    # exactlp, the LP layer under the deciders
    "exactlp.hull_separator": (hull_separator, ((1, Fraction(1, 2)), [(0, 0), (2, 0), (0, 2)]),
                               [((0, 0), RATIONAL), ((0, 1), RATIONAL), ((1, 1, 0), RATIONAL)]),
    "exactlp.solve_eq_nonneg": (solve_eq_nonneg, ([[1, 2]], [3]),
                                [((0, 0, 0), RATIONAL), ((1, 0), RATIONAL)]),
    # fan
    "Ray": (Ray, ([2, 4], 3), [((0, 0), INT), ((0, 1), INT), ((1,), INT)]),
    "Fan1D": (Fan1D, (2, list(FAN_Y.rays)), [((0,), INT)]),
    "Fan1D.sorted_rays": (FAN_Y.sorted_rays, (), []),
    "Fan1D.to_json_dict": (FAN_Y.to_json_dict, (), []),
    "Fan1D.from_json_dict": (Fan1D.from_json_dict, (FAN_Y.to_json_dict(),),
                             [((0, "ambient_dim"), INT), ((0, "rays", 0, "direction", 1), INT),
                              ((0, "rays", 1, "weight"), INT)]),
    # a file holds JSON numbers, which from_json_dict reads
    "Fan1D.load": (Fan1D.load, (DEMO_FANS / "fan3_r2.json",), []),
    "GenMatrix": (GenMatrix, (list(GM_Y.rows),), []),
    "GenMatrix.from_matrix": (GenMatrix.from_matrix, (MG_ROWS,),
                              [((0, 0, 0), INT), ((0, 1, 2), INT)]),
    "GenMatrix.matrix": (GM_Y.matrix, (), []),
    "GenMatrix.column": (GM_Y.column, (1,), [((0,), INT)]),
    "GenMatrix.columns": (GM_Y.columns, (), []),
    "primitive": (primitive, ((2, -4),), [((0, 0), INT), ((0, 1), INT)]),
    "check_balancing": (check_balancing, (FAN_Y,), []),
    "weighted_eval_map": (weighted_eval_map, (FAN_Y,), []),
    "apply_phi_to_poly": (apply_phi_to_poly, (FAN_Y, P), []),
    "fan_from_generators": (fan_from_generators, (GM_Y,), []),
    "kernel_eq": (kernel_eq, (FAN_Y, P, Q), []),
    # lattice
    "hnf": (hnf, ([[2, 4], [1, 3]],), [((0, 0, 0), INT), ((0, 1, 1), INT)]),
    "xgcd": (xgcd, (4, 6), [((0,), INT), ((1,), INT)]),
    "Lattice": (Lattice, (3, MG_ROWS), [((0,), INT), ((1, 0, 0), INT), ((1, 1, 2), INT)]),
    "Lattice.from_rows": (Lattice.from_rows, (MG_ROWS, 3),
                          [((0, 0, 0), INT), ((1,), INT_OR_NONE)]),
    "Lattice.member": (LATTICE.member, ((0, 4, -4),), [((0, 0), INT), ((0, 2), INT)]),
    "Lattice.least_multiplier": (LATTICE.least_multiplier, ((0, 2, -2),),
                                 [((0, 0), INT), ((0, 1), INT)]),
    "solve_int": (solve_int, (MG_ROWS, [(0, 4, -4)]), [((0, 0, 0), INT), ((1, 0, 1), INT)]),
    "scalar_modulus": (scalar_modulus, ([(1, -2, 1)], LATTICE), [((0, 0, 0), INT)]),
    "LatticeSolveError": (LatticeSolveError, (0,), []),
    "LatticeSpanError": (LatticeSpanError, ("outside the span",), []),
    # cones
    "extreme_rays": (extreme_rays, ([[1, -1, 0]], 3), [((0, 0, 0), INT), ((1,), INT)]),
    # homsearch
    "geometric_check": (geometric_check, (IMAGES, GM_X), []),
    "enumerate_homs": (enumerate_homs, (GM_Y, 2), [((1,), INT)]),
    "HomFamily": (HomFamily, _fields(HOMS.families[0]), []),
    "HomFamily.matrix_for": (HOMS.families[0].matrix_for, (2 * HOMS.families[0].modulus,),
                             [((0,), INT)]),
    "HomFamily.sort_key": (HOMS.families[0].sort_key, (), []),
    "ConeRecord": (ConeRecord, _fields(HOMS.cone_records[0]), []),
    "ConeRecord.sort_key": (HOMS.cone_records[0].sort_key, (), []),
    "HomEnumeration": (HomEnumeration, _fields(HOMS), []),
    "HomEnumeration.expand": (HOMS.expand, (1,), [((0,), INT)]),
    "HomEnumeration.to_json_lines": (HOMS.to_json_lines, (), []),
    "Hom": (Hom, _fields(HOM), []),
    "Hom.__call__": (HOM, (TropPoly(3, [(1, 0, 2), (0, -1, 0)]),), []),
    "hom_from_images": (hom_from_images, (IMAGES, GM_X), []),
    "NotGeometricError": (NotGeometricError, ("no homomorphism", 1), []),
    "recover_T": (recover_T, (apply_functor([[1, 0], [0, 1], [1, 1]], GM_Y), GM_Y), []),
    "apply_functor": (apply_functor, ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], GM_X),
                      [((0, 0, 0), INT), ((0, 1, 2), INT)]),
    "enumerate_morphisms": (enumerate_morphisms, (FAN_Y, FAN_X), []),
    "MorphismFamily": (MorphismFamily, _fields(MORPHISMS.families[0]), []),
    "MorphismFamily.matrix_for": (MORPHISMS.families[0].matrix_for, (2,), [((0,), INT)]),
    "MorphismFamily.sort_key": (MORPHISMS.families[0].sort_key, (), []),
    "MorphismEnumeration": (MorphismEnumeration, _fields(MORPHISMS), []),
    "MorphismEnumeration.expand_T": (MORPHISMS.expand_T, (1,), [((0,), INT)]),
    "MorphismEnumeration.to_json_lines": (MORPHISMS.to_json_lines, (), []),
    # witness
    "orth_basis": (orth_basis, ((1, Fraction(1, 2), 3),),
                   [((0, 0), RATIONAL), ((0, 1), RATIONAL)]),
    "separating_pair": (separating_pair, (FAN_Y.directions, (-1, Fraction(1, 2))),
                        [((0, 0, 0), INT), ((1, 0), RATIONAL), ((1, 1), RATIONAL)]),
    # a ray union is checked at one point per ray, which may be rational
    "verify_witness": (verify_witness, (WITNESS, FAN_Y.directions), [((1, 0, 0), RATIONAL)]),
    "in_congruence_variety": (in_congruence_variety, ((-1, Fraction(1, 2)), FAN_Y.directions),
                              [((0, 0), RATIONAL), ((0, 1), RATIONAL), ((1, 0, 0), INT)]),
    "WitnessPair": (WitnessPair, _fields(WITNESS), []),
    "WitnessPair.to_json_dict": (WITNESS.to_json_dict, (), []),
    "PointInSupportError": (PointInSupportError, ("on the ray union",), []),
    "integerize": (integerize, ((Fraction(1, 2), 3),), [((0, 0), RATIONAL), ((0, 1), RATIONAL)]),
}


def _put(args, path, value):
    """args with the entry at path (indices into sequences, keys into
    dicts) replaced by value; the containers on the path are copied."""
    key, *rest = path
    new = _put(args[key], rest, value) if rest else value
    if isinstance(args, dict):
        return {**args, key: new}
    out = list(args)
    out[key] = new
    return tuple(out) if isinstance(args, tuple) else out


def test_table_covers_the_public_api():
    # every callable that tropfan exports, and every public method of the
    # classes among them (properties take no argument)
    wanted = set()
    for name in tropfan.__all__:
        obj = getattr(tropfan, name)
        if callable(obj):
            wanted.add(name)
        if isinstance(obj, type) and not issubclass(obj, BaseException):
            wanted |= {f"{name}.{attr}" for attr, val in vars(obj).items()
                       if not attr.startswith("_")
                       and isinstance(val, (FunctionType, classmethod, staticmethod))}
    assert {"TropPoly.eval", "HomEnumeration.expand", "separating_point"} <= wanted
    assert wanted <= set(TABLE), sorted(wanted - set(TABLE))


@pytest.mark.parametrize("name", TABLE)
def test_numeric_arguments_refuse_inexact_values(name):
    call, args, slots = TABLE[name]
    call(*args)
    accepted = []
    for path, bad_values in slots:
        for bad in bad_values:
            try:
                call(*_put(args, path, bad))
            except ValueError:
                continue
            accepted.append((path, bad))
    assert not accepted
