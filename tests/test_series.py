"""Truncated integer power series: construction, products, ring laws."""

import math
import pickle

import pytest
from hypothesis import given, strategies as st

from chowchi.chow import ChowParams, EulerValue, sp_euler
from chowchi.invariants import QuaternionicParams
from chowchi.series import (
    TruncatedSeries,
    series_coefficient,
    series_geom_pow,
    series_mul,
)


def test_order_and_coefficients():
    s = TruncatedSeries([1, 2, 3])
    assert s.order == 2
    assert s.coeffs == (1, 2, 3)
    # the public constructor takes integers only, through __index__, and
    # stores plain ints; only the package's own tuples skip the check
    assert [type(c) for c in TruncatedSeries((True, 2)).coeffs] == [int, int]
    for bad in (2.0, 0.9, "3"):
        with pytest.raises(TypeError):
            TruncatedSeries([1, bad])


def test_empty_coefficients_rejected():
    with pytest.raises(ValueError, match="^a series carries at least its constant coefficient$"):
        TruncatedSeries([])


def test_equality_requires_equal_order():
    assert TruncatedSeries([1, 2]) == TruncatedSeries([1, 2])
    assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 2, 0])


# Each frozen value type: a field, the value built by position and by
# keyword, and its repr.
VALUES = [
    ("coeffs", TruncatedSeries([1, 2]), TruncatedSeries(coeffs=(1, 2)),
     "TruncatedSeries(coeffs=(1, 2))"),
    ("d", ChowParams(1, 3, 2), ChowParams(p=1, n=3, d=2),
     "ChowParams(p=1, n=3, d=2)"),
    ("chi", EulerValue(21), EulerValue(chi=21), "EulerValue(chi=21)"),
    ("p", QuaternionicParams(1, 2, 3), QuaternionicParams(p=1, n=2, d=3),
     "QuaternionicParams(p=1, n=2, d=3)"),
]


def test_immutable():
    for field, value, keyword, _ in VALUES:
        with pytest.raises(AttributeError):
            setattr(value, field, 9)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert value == keyword


def test_value_semantics():
    for _, positional, keyword, text in VALUES:
        assert repr(positional) == repr(keyword) == text
        assert positional == keyword
        assert not positional != keyword
        assert hash(positional) == hash(keyword)
        assert pickle.loads(pickle.dumps(positional)) == positional


def test_equality_only_within_one_type():
    assert ChowParams(1, 2, 3) != QuaternionicParams(1, 2, 3)
    assert EulerValue(1) != (1,)
    assert TruncatedSeries([1, 2]) != (1, 2)


def test_geom_pow_examples():
    assert series_geom_pow(2, 3).coeffs == (1, 2, 3, 4)
    assert series_geom_pow(0, 2).coeffs == (1, 0, 0)
    assert series_geom_pow(6, 2).coeffs == (1, 6, 21)


def test_geom_pow_rejects_a_float_exponent():
    # 2.5 would give (1, 2.0, 3.0, 4.0), equal to the series for m = 2
    for m in (2.5, 2.0):
        with pytest.raises(TypeError):
            series_geom_pow(m, 3)


def test_geom_pow_rejects_negative_arguments():
    with pytest.raises(ValueError):
        series_geom_pow(-1, 3)
    with pytest.raises(ValueError):
        series_geom_pow(3, -1)


def test_mul_examples():
    ones = TruncatedSeries([1, 1, 1])
    assert series_mul(ones, ones).coeffs == (1, 2, 3)
    one = TruncatedSeries([1, 0, 0])
    assert series_mul(one, TruncatedSeries([1, 5, 9])).coeffs == (1, 5, 9)
    assert series_mul(series_geom_pow(3, 4), series_geom_pow(3, 4)) \
        == series_geom_pow(6, 4)


def test_mul_order_mismatch_rejected():
    with pytest.raises(ValueError, match="order mismatch"):
        series_mul(TruncatedSeries([1, 1]), TruncatedSeries([1, 1, 1]))


def test_coefficient_examples():
    assert series_coefficient(TruncatedSeries([1, 2, 3]), 1) == 2
    assert series_coefficient(series_geom_pow(6, 8), 2) == 21
    assert series_coefficient(series_geom_pow(1, 8), 8) == 1


def test_coefficient_out_of_range_rejected():
    s = TruncatedSeries([1, 2, 3])
    with pytest.raises(ValueError):
        series_coefficient(s, 3)
    with pytest.raises(ValueError):
        series_coefficient(s, -1)


def test_geom_pow_additivity():
    # exponent additivity of (1/(1-t))^m against the Cauchy product
    for a in range(17):
        for b in range(17):
            assert series_geom_pow(a + b, 20) == series_mul(
                series_geom_pow(a, 20), series_geom_pow(b, 20))


def test_geom_pow_coefficients_are_signed_binomials():
    for m in range(17):
        s = series_geom_pow(m, 20)
        for d in range(21):
            assert series_coefficient(s, d) == sp_euler(m, d)
    # the ratio recurrence at the edges m = 0, 1 and at a huge exponent
    for m in (0, 1, math.comb(60, 30)):
        expected = [1] + [math.comb(m + d - 1, d) for d in range(1, 61)]
        assert list(series_geom_pow(m, 60).coeffs) == expected, m


@st.composite
def same_order_series(draw, count=2):
    order = draw(st.integers(min_value=0, max_value=12))
    out = []
    for _ in range(count):
        coeffs = draw(st.lists(st.integers(-9, 9),
                               min_size=order + 1, max_size=order + 1))
        out.append(TruncatedSeries(coeffs))
    return tuple(out)


@given(same_order_series(count=2))
def test_mul_commutative(pair):
    a, b = pair
    assert series_mul(a, b) == series_mul(b, a)


@given(same_order_series(count=3))
def test_mul_associative(triple):
    a, b, c = triple
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


@given(same_order_series(count=1))
def test_mul_identity(single):
    (a,) = single
    one = TruncatedSeries([1] + [0] * a.order)
    assert series_mul(a, one) == a
