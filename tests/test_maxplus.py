from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropfan import (LabelMismatchError, NotAUnitError, TropVector, apply_functor, ext_add,
                     ext_max, xgcd, zero_unit)
from tropfan.maxplus import exact_rational

from helpers import genmatrix_y

entries = st.lists(st.integers(-50, 50), min_size=1, max_size=6)
pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                        st.lists(st.integers(-50, 50), min_size=n, max_size=n)))


def test_ext_scalar_ops():
    assert ext_max(None, 3) == 3
    assert ext_max(-2, None) == -2
    assert ext_max(None, None) is None
    assert ext_add(None, 3) is None
    assert ext_add(2, 3) == 5


def test_add_is_entrywise_max():
    a = TropVector([1, -1, 0, 0, 0])
    b = TropVector([0, 0, 1, -1, 0])
    assert (a + b).entries == (1, 0, 1, 0, 0)
    c = TropVector([1, -2, 1])
    d = TropVector([1, 2, -3])
    assert (c + d).entries == tuple(max(x, y) for x, y in zip(c, d)) == (1, 2, 1)


def test_add_bottom_identity():
    a = TropVector([1, -1, 0, 0, 0])
    assert a + TropVector.bottom(5) == a
    assert TropVector.bottom(5) + a == a


def test_mul_is_entrywise_sum():
    a = TropVector([1, -1, 0, 0, 0])
    b = TropVector([0, 0, 1, -1, 0])
    assert (a * b).entries == (1, -1, 1, -1, 0)
    c = TropVector([1, -2, 1])
    d = TropVector([1, 2, -3])
    assert (c * d).entries == tuple(x + y for x, y in zip(c, d)) == (2, 0, -2)


def test_mul_bottom_absorbing():
    a = TropVector([1, -1, 0, 0, 0])
    assert (a * TropVector.bottom(5)).is_bottom
    assert (TropVector.bottom(5) * a).is_bottom


def test_label_mismatch_rejected():
    with pytest.raises(LabelMismatchError):
        TropVector([1, 2]) + TropVector([1, 2, 3])
    with pytest.raises(LabelMismatchError):
        TropVector([1, 2]) * TropVector([1, 2, 3])


def test_degree():
    assert TropVector([1, 1, 1, 1, -4]).degree == 0
    assert TropVector([1, -2, 1]).degree == 0
    assert TropVector.bottom(3).degree is None
    assert TropVector([2, 1]).degree == 3


def test_inverse():
    assert TropVector([1, -1, 0, 0, 0]).inverse().entries == (-1, 1, 0, 0, 0)
    z = zero_unit(4)
    assert z.inverse() == z
    assert TropVector([1, 2, -3]).inverse().entries == (-1, -2, 3)
    with pytest.raises(NotAUnitError):
        TropVector([1, 1]).inverse()
    with pytest.raises(NotAUnitError):
        TropVector.bottom(2).inverse()


def test_inverse_is_multiplicative_inverse():
    v = TropVector([3, -5, 2, 0])
    assert v * v.inverse() == zero_unit(4)


def test_decompose_examples():
    f = TropVector([2, 1])
    f1, f2 = f.decompose(0, 1)
    assert f1.entries == (-1, 1) and f2.entries == (2, -2)
    assert f1.degree == 0 and f2.degree == 0
    assert f1 + f2 == f

    u = TropVector([1, 1, 1, 1, -4])  # already degree zero
    g1, g2 = u.decompose(0, 1)
    assert g1 == u and g2 == u


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        TropVector([5]).decompose(0, 0)
    with pytest.raises(ValueError):
        TropVector([1, 2]).decompose(1, 1)
    with pytest.raises(ValueError):
        TropVector.bottom(2).decompose(0, 1)


def test_decompose_rejects_aliased_or_out_of_range_labels():
    # -1 would name label 2 a second time, and lower it twice
    with pytest.raises(ValueError, match="must lie in"):
        TropVector([1, 0, 0]).decompose(2, -1)
    with pytest.raises(ValueError, match="must lie in"):
        TropVector([1, 0, 0]).decompose(0, 5)


def test_empty_label_set_rejected():
    with pytest.raises(ValueError):
        TropVector([])


@pytest.mark.parametrize("bad", [-1, 0, 1.5, True])
def test_bottom_size_must_be_a_positive_integer(bad):
    with pytest.raises(ValueError):
        TropVector.bottom(bad)


def test_size_must_be_an_integer():
    with pytest.raises(ValueError, match="expected an integer"):
        TropVector([1, 2, 3], size=3.0)
    assert TropVector([1, 2, 3], size=Fraction(6, 2)).size == 3
    assert type(TropVector.bottom(Fraction(4, 2)).size) is int


@pytest.mark.parametrize("bad", [[Fraction(1, 2), Fraction(-1, 2)], [True, 0],
                                 [1.0, -1], [0.5, -0.5], ["1", "-1"]])
def test_non_integer_entries_rejected(bad):
    # exactness: nothing is truncated to an int on the way in
    with pytest.raises(ValueError):
        TropVector(bad)


def test_integral_rationals_accepted():
    v = TropVector([Fraction(4, 2), -2])
    assert v == TropVector([2, -2])
    assert all(type(e) is int for e in v.entries)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1", None])
def test_exact_rational_refuses_inexact_values(bad):
    with pytest.raises(ValueError, match="expected an integer or a Fraction"):
        exact_rational(bad)


def test_exact_rational_returns_fractions():
    half = Fraction(1, 2)
    assert exact_rational(half) is half
    assert type(exact_rational(3)) is Fraction and exact_rational(3) == 3


def test_json_round_trip():
    v = TropVector([1, -1, 0])
    assert v.to_json() == [1, -1, 0]
    assert TropVector.from_json([1, -1, 0]) == v
    assert TropVector.bottom(3).to_json() == "-inf"
    assert TropVector.from_json("-inf", size=3) == TropVector.bottom(3)


@given(entries)
def test_add_idempotent(es):
    v = TropVector(es)
    assert v + v == v


@given(pairs)
def test_degree_additive_under_mul(pair):
    a, b = pair
    va, vb = TropVector(a), TropVector(b)
    assert (va * vb).degree == va.degree + vb.degree


@given(pairs)
def test_pos_subsemiring_closed(pair):
    a, b = pair
    va, vb = TropVector(a), TropVector(b)
    if va.is_pos and vb.is_pos:
        assert (va + vb).is_pos
        assert (va * vb).is_pos


@given(pairs)
def test_unit_group_laws(pair):
    a, b = pair
    n = len(a)
    ua = TropVector(list(a[:-1]) + [a[-1] - sum(a)])
    ub = TropVector(list(b[:-1]) + [b[-1] - sum(b)])
    assert ua.degree == 0 and ub.degree == 0
    assert ua.inverse().inverse() == ua
    assert (ua * ub).inverse() == ua.inverse() * ub.inverse()


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=6))
def test_decompose_reconstructs(es):
    v = TropVector(es)
    if v.degree < 0:
        with pytest.raises(ValueError):
            v.decompose(0, len(es) - 1)
        return
    f1, f2 = v.decompose(0, len(es) - 1)
    assert f1.degree == 0 and f2.degree == 0
    assert f1 + f2 == v


@pytest.mark.parametrize("call, bad", [
    (lambda: xgcd(1.5, 3), "1.5"),
    (lambda: xgcd(True, 3), "True"),
    (lambda: xgcd(3, False), "False"),
    (lambda: zero_unit(True), "True"),
    (lambda: zero_unit(2.0), "2.0"),
    (lambda: apply_functor(((True, 0), (0, 1)), genmatrix_y()), "True"),
], ids=["xgcd-float", "xgcd-bool-a", "xgcd-bool-b", "zero_unit-bool", "zero_unit-float",
        "apply_functor-bool"])
def test_integer_arguments_refuse_floats_and_bools(call, bad):
    # refused, not truncated or read as 1 and 0: exactness is the contract
    with pytest.raises(ValueError, match=f"expected an integer, got {bad}$"):
        call()
