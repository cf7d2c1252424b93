"""Truncated formal power series with exact integer coefficients.

A series is a coefficient vector c_0 .. c_N together with its explicit
truncation order N; all arithmetic happens modulo t^(N+1).  Mixing orders is
rejected rather than silently re-truncated, so coefficient comparisons stay
unambiguous.  Values are immutable, safe to share and never hold a float.
"""

from operator import index, mul

from ._record import Record, _decimal, _nonnegative, field_setters

__all__ = [
    "TruncatedSeries",
    "series_geom_pow",
    "series_mul",
]


class TruncatedSeries(Record):
    """Coefficients c_0 .. c_order of a formal power series in t.

    Equality is coefficientwise and holds only between series of equal order.
    Every series, the package's own included, is built here: each coefficient
    goes through ``operator.index``, so a float is refused, and an empty
    vector is a ``ValueError``.

    >>> TruncatedSeries([1, 2, 3]).order
    2
    >>> TruncatedSeries([1, 2, 3]) == TruncatedSeries([1, 2, 3, 0])
    False
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs):
        coeffs = tuple(map(index, coeffs))
        if not coeffs:
            raise ValueError("a series carries at least its constant coefficient")
        _set_coeffs(self, coeffs)

    @property
    def order(self) -> int:
        """Truncation degree N; the series has N + 1 coefficients."""
        return len(self.coeffs) - 1


_set_coeffs, = field_setters(TruncatedSeries)


def series_geom_pow(m: int, order: int) -> TruncatedSeries:
    """Expansion of (1/(1-t))^m truncated at ``order``.

    The coefficient of t^d is C(m + d - 1, d).  Each one follows from the
    previous by the ratio (m + d - 1) / d, and the division is exact because
    d * C(m + d - 1, d) = (m + d - 1) * C(m + d - 2, d - 1); so a row costs
    ``order`` big-integer steps and no series inversion.  For m = 0 the
    result is the constant series 1.

    >>> series_geom_pow(2, 3).coeffs
    (1, 2, 3, 4)
    >>> series_geom_pow(0, 2).coeffs
    (1, 0, 0)
    >>> series_geom_pow(6, 2).coeffs
    (1, 6, 21)
    """
    m, order = _nonnegative(m, "exponent"), _nonnegative(order, "order")
    coeffs = [1]
    for d in range(1, order + 1):
        coeffs.append(coeffs[-1] * (m + d - 1) // d)
    return TruncatedSeries(coeffs)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product of two series of the same order, truncated there.

    >>> one = TruncatedSeries([1, 0, 0])
    >>> series_mul(one, TruncatedSeries([1, 5, 9])).coeffs
    (1, 5, 9)
    """
    if a.order != b.order:
        raise ValueError(
            f"series order mismatch: {_decimal(a.order)} != {_decimal(b.order)}")
    # rb[n - d:] is cb[d], ..., cb[0]; map stops at the shorter operand
    n, ca, rb = a.order, a.coeffs, b.coeffs[::-1]
    return TruncatedSeries([sum(map(mul, ca, rb[n - d:])) for d in range(n + 1)])
