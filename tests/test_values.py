"""Value semantics: the library's value types and enumeration results are
frozen dataclasses, so copies and pickles compare equal to the original and
no field can be reassigned."""

import copy
import dataclasses
import pickle

import pytest

from tropfan import (Fan1D, GenMatrix, Lattice, Ray, TropPoly, TropVector,
                     enumerate_homs, enumerate_morphisms, hom_from_images)

from helpers import B1, FAN_X, FAN_Y, MG_ROWS, genmatrix_x

X_FULL5 = enumerate_homs(genmatrix_x(), 5)
VALUES = {
    "TropVector": TropVector([2, -1, 0]),
    "TropVector.bottom": TropVector.bottom(3),
    "Ray": Ray([2, 4], 3),
    "Fan1D": FAN_Y,
    "GenMatrix": GenMatrix.from_matrix(MG_ROWS),
    "TropPoly": TropPoly(2, [(1, 0), (0, -1)]),
    "TropPoly.zero": TropPoly.zero(2),
    "Lattice": Lattice.from_rows(MG_ROWS),
    "Hom": hom_from_images([TropVector(row) for row in B1], genmatrix_x()),
    "HomFamily": X_FULL5.families[0],
    "ConeRecord": X_FULL5.cone_records[0],
    "MorphismFamily": enumerate_morphisms(FAN_Y, FAN_X).families[0],
}
RESULTS = {
    "HomEnumeration": enumerate_homs(genmatrix_x(), 3),
    "MorphismEnumeration": enumerate_morphisms(FAN_X, FAN_Y),
}


def test_homs_from_equal_images_are_equal():
    images = [TropVector(row) for row in B1]
    a, b = (hom_from_images(images, genmatrix_x()) for _ in range(2))
    assert a == b and hash(a) == hash(b) and a is not b
    assert type(a.witnesses) is tuple


@pytest.mark.parametrize("name", [*VALUES, *RESULTS])
def test_copy_pickle_and_frozen_fields(name):
    value = {**VALUES, **RESULTS}[name]
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
        if name in VALUES:
            assert hash(twin) == hash(value)
    for attr in (dataclasses.fields(value)[0].name, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)


def test_per_member_records_have_no_instance_dict():
    # an enumeration holds thousands of these; slots keep their fields inside
    # each object, where the cyclic collector reads them without a dict
    enum = RESULTS["MorphismEnumeration"]
    records = [VALUES[name] for name in ("HomFamily", "ConeRecord", "MorphismFamily")]
    for record in [*records, *enum.families, *enum.cone_records]:
        assert not hasattr(record, "__dict__")


def test_enumeration_of_slotted_records_copies_and_pickles_whole():
    assert len(X_FULL5.families) == 120 and len(X_FULL5.cone_records) == 1500
    for twin in (copy.deepcopy(X_FULL5), pickle.loads(pickle.dumps(X_FULL5))):
        assert twin == X_FULL5
        assert twin.to_json_lines() == X_FULL5.to_json_lines()


def test_lattice_with_cached_forms_keeps_value_semantics():
    # the forms are cached beside the fields: computing them changes
    # neither equality nor hash, and every copy answers as the original
    fresh, used = Lattice.from_rows(MG_ROWS), Lattice.from_rows(MG_ROWS)
    assert (0, 4, -4) in used and "forms" in vars(used) and "forms" not in vars(fresh)
    assert "forms" not in {f.name for f in dataclasses.fields(Lattice)}
    assert used == fresh and hash(used) == hash(fresh)
    for twin in (copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used)),
                 dataclasses.replace(used), dataclasses.replace(used, basis=((1, -2, 1), (1, 2, -3)))):
        assert type(twin) is Lattice and twin == used == fresh
        assert hash(twin) == hash(used)
        assert twin.forms == used.forms
        assert twin.member((0, 4, -4)) == (0, 1) and (1, 0, -1) not in twin
        assert twin.least_multiplier((1, 0, -1)) == 2
