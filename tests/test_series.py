"""Truncated integer power series: construction, products, ring laws."""

import math
import pickle

import pytest
from hypothesis import given, strategies as st

from chowchi.chow import ChowParams, EulerValue
from chowchi.invariants import QuaternionicParams
from chowchi.series import TruncatedSeries, series_geom_pow, series_mul


def test_order_and_coefficients():
    s = TruncatedSeries([1, 2, 3])
    assert s.order == 2
    assert s.coeffs == (1, 2, 3)
    # every series, the package's own included, is built by this one
    # constructor, which passes each coefficient through operator.index and
    # stores plain ints; the refused floats and strings are rows of API in
    # test_api.py
    assert [type(c) for c in TruncatedSeries((True, 2)).coeffs] == [int, int]


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
    # past the default int-to-str limit of 4300 digits: printed in full
    ("chi", EulerValue(10**5000), EulerValue(chi=10**5000),
     "EulerValue(chi=1" + "0" * 5000 + ")"),
    ("coeffs", TruncatedSeries((10**5000, -(10**4500 - 1))),
     TruncatedSeries(coeffs=(10**5000, -(10**4500 - 1))),
     "TruncatedSeries(coeffs=(1" + "0" * 5000 + ", -" + "9" * 4500 + "))"),
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


def test_geom_pow_coefficients_are_signed_binomials():
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
