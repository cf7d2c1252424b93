"""Truncated formal power series with exact integer coefficients.

A series is a coefficient vector c_0 .. c_N together with its explicit
truncation order N; all arithmetic happens modulo t^(N+1).  Mixing orders is
rejected rather than silently re-truncated, so coefficient comparisons stay
unambiguous.  Values are immutable and safe to share.
"""

from __future__ import annotations

from operator import mul

from ._record import Record, field_setters

__all__ = [
    "TruncatedSeries",
    "series_geom_pow",
    "series_mul",
    "series_coefficient",
]


class TruncatedSeries(Record):
    """Coefficients c_0 .. c_order of a formal power series in t.

    Equality is coefficientwise and holds only between series of equal order.

    >>> TruncatedSeries([1, 2, 3]).order
    2
    >>> TruncatedSeries([1, 2, 3]) == TruncatedSeries([1, 2, 3, 0])
    False
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series carries at least its constant coefficient")
        _set_coeffs(self, coeffs)

    @classmethod
    def _trusted(cls, coeffs: tuple[int, ...]) -> TruncatedSeries:
        # A nonempty int tuple the package has just built: no coercion.
        s = object.__new__(cls)
        _set_coeffs(s, coeffs)
        return s

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
    if m < 0:
        raise ValueError(f"exponent must be nonnegative, got {m}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    coeffs = [1]
    for d in range(1, order + 1):
        coeffs.append(coeffs[-1] * (m + d - 1) // d)
    return TruncatedSeries._trusted(tuple(coeffs))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product of two series of the same order, truncated there.

    >>> one = TruncatedSeries([1, 0, 0])
    >>> series_mul(one, TruncatedSeries([1, 5, 9])).coeffs
    (1, 5, 9)
    """
    if a.order != b.order:
        raise ValueError(f"series order mismatch: {a.order} != {b.order}")
    # rb[n - d:] is cb[d], ..., cb[0]; map stops at the shorter operand
    n, ca, rb = a.order, a.coeffs, b.coeffs[::-1]
    return TruncatedSeries._trusted(
        tuple([sum(map(mul, ca, rb[n - d:])) for d in range(n + 1)]))


def series_coefficient(s: TruncatedSeries, d: int) -> int:
    """The coefficient of t^d; ``d`` must lie within the truncation order.

    >>> series_coefficient(TruncatedSeries([1, 2, 3]), 1)
    2
    """
    if d < 0 or d > s.order:
        raise ValueError(f"degree {d} outside series order {s.order}")
    return s.coeffs[d]
