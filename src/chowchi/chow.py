"""Euler characteristics of the cycle spaces C_{p,d}(P^n).

C_{p,d}(P^n) is the Chow variety of effective algebraic p-cycles of degree d
in complex projective n-space.  Its Euler characteristic is computed here by
three routes:

* ``chow_euler_closed``: the Lawson-Yau formula C(v + d - 1, d) with
  v = C(n+1, p+1);
* ``chow_euler_recursive``: the suspension recursion, which descends in the
  ambient dimension and is seeded only by its stated base cases;
* ``chow_series`` (functional method): coefficients of the generating
  function Q_{p,n}(t), built strictly from the product recurrence
  Q_{p+1,n+1} = Q_{p+1,n} * Q_{p,n}.

The recursion and the functional series are the same Cauchy convolution:
chi(C_{p,0}) = 1 turns the recursion's leading term into the i = 0 summand
of the product.  Their agreement therefore checks the implementation of that
convolution; only the closed form is an independent derivation.  Agreement
of the three over a parameter grid is the package's central self-check (see
:mod:`chowchi.verify`).

The recursive, point and functional routes fill module-level tables
bottom-up in dependency order, so no result depends on Python's recursion
limit.  A (p, n, d) query costs O(p * (n - p) * d^2) big-integer products
the first time.  The recursive and point tables keep every row, so a later
query inside a grown box is one lookup; the functional table keeps only the
top row and right column of a box, and rebuilds the inside from them when a
later query needs it.  ``cache_clear()`` on a table empties it.
"""

from __future__ import annotations

from operator import mul

from . import _tables
from ._record import Record, field_setters
from .binomials import binomial
from .series import TruncatedSeries, series_coefficient, series_geom_pow, series_mul

__all__ = [
    "ChowParams",
    "EulerValue",
    "METHOD_CLOSED",
    "METHOD_RECURSIVE",
    "METHOD_SERIES",
    "SERIES_CLOSED",
    "SERIES_FUNCTIONAL",
    "v_pn",
    "chow_euler_closed",
    "chow_euler_recursive",
    "chow_euler_series",
    "points_euler_recursive",
    "chow_series",
    "divisor_check",
]

METHOD_CLOSED = "closed"
METHOD_RECURSIVE = "recursive"
METHOD_SERIES = "series"

SERIES_CLOSED = "closed"
SERIES_FUNCTIONAL = "functional"


class ChowParams(Record):
    """The triple (p, n, d) indexing the cycle space C_{p,d}(P^n).

    p is the cycle dimension, n the ambient projective dimension, d the
    degree; validity means 0 <= p <= n and d >= 0.

    >>> ChowParams(p=1, n=3, d=2)
    ChowParams(p=1, n=3, d=2)
    """

    __slots__ = ("p", "n", "d")
    p: int
    n: int
    d: int

    def __init__(self, p: int, n: int, d: int):
        if not 0 <= p <= n:
            raise ValueError(f"require 0 <= p <= n, got p={p}, n={n}")
        if d < 0:
            raise ValueError(f"degree must be nonnegative, got d={d}")
        _set_p(self, p)
        _set_n(self, n)
        _set_d(self, d)


_set_p, _set_n, _set_d = field_setters(ChowParams)


class EulerValue(Record):
    """An Euler characteristic together with the route that produced it."""

    __slots__ = ("chi", "method")
    chi: int
    method: str

    def __init__(self, chi: int, method: str):
        _set_chi(self, chi)
        _set_method(self, method)


_set_chi, _set_method = field_setters(EulerValue)


def v_pn(p: int, n: int) -> int:
    """The exponent v = C(n+1, p+1) attached to C_{p,d}(P^n).

    >>> v_pn(0, 1)
    2
    >>> v_pn(1, 3)
    6
    >>> v_pn(4, 4)
    1
    """
    if not 0 <= p <= n:
        raise ValueError(f"require 0 <= p <= n, got p={p}, n={n}")
    return binomial(n + 1, p + 1)


def chow_euler_closed(params: ChowParams) -> EulerValue:
    """chi(C_{p,d}(P^n)) by the Lawson-Yau closed form C(v + d - 1, d).

    The identical number is the l-adic Euler-Poincare characteristic of the
    cycle space over any algebraically closed field, so this one function
    serves both readings; there is no separate l-adic code path.

    >>> chow_euler_closed(ChowParams(0, 2, 2)).chi
    6
    >>> chow_euler_closed(ChowParams(3, 3, 9)).chi   # one cycle per degree
    1
    """
    chi = binomial(v_pn(params.p, params.n) + params.d - 1, params.d)
    return EulerValue(chi, METHOD_CLOSED)


def _grow_suspension(rows: dict, a: int, b: int, length: int) -> None:
    # Row (a, b) holds chi(C_{a,e}(P^{a+b})) for e < len(row).
    row = rows.setdefault((a, b), [])
    degrees = range(len(row), length)
    # Base cases, and nothing derived from the closed form: the unique
    # degree-e cycle when p == n, and 0-cycles (symmetric products).
    # Degree zero needs none: the recursion gives 1 there.
    if b == 0:
        row.extend(1 for _ in degrees)
    elif a == 0:
        row.extend(binomial(b + e, e) for e in degrees)
    else:
        # sum_{i=1}^{e} left[i] * down[e - i], with down reversed once
        left, down = rows[a, b - 1][1:], rows[a - 1, b]
        rdown, top = down[::-1], len(down)
        for e in degrees:
            row.append(down[e] + sum(map(mul, left, rdown[top - e:])))


def _reads_inner(a: int, b: int) -> tuple:
    # The suspension and functional growers read both neighbours of an
    # inner cell and nothing on the edges a = 0 or b = 0.
    return ((a, b - 1), (a - 1, b)) if a and b else ()


_SUSPENSION = _tables.GridTable(len, _grow_suspension, _reads_inner)


def chow_euler_recursive(params: ChowParams) -> EulerValue:
    """chi(C_{p,d}(P^n)) by the suspension recursion

        chi(C_{p+1,d}(P^{n+1})) = chi(C_{p,d}(P^n))
            + sum_{i=1}^{d} chi(C_{p+1,i}(P^n)) * chi(C_{p,d-i}(P^n)),

    evaluated bottom-up into a table of rows keyed by (p, n - p).  Only two
    base cases are used (p = n, and the 0-cycle count C(n+d, d)); degree zero
    follows from the recursion.  Its agreement with ``chow_euler_closed``
    checks the closed form against an independent derivation.

    >>> chow_euler_recursive(ChowParams(1, 2, 2)).chi
    6
    >>> chow_euler_recursive(ChowParams(2, 2, 7)).chi
    1
    """
    row = _SUSPENSION.cell(params.p, params.n - params.p, params.d + 1)
    return EulerValue(row[params.d], METHOD_RECURSIVE)


def _grow_points(rows: dict, m: int, _: int, length: int) -> None:
    # Row (m, 0) holds chi(C_{0,e}(P^m)) for e < len(row); it draws on row
    # (m - 1, 0) alone.
    row = rows.setdefault((m, 0), [])
    for e in range(len(row), length):
        # 1 + sum_{i<=e} chi(C_{0,i}(P^{m-1})), telescoped in e
        row.append(1 if m == 0 or e == 0 else row[e - 1] + rows[m - 1, 0][e])


_POINTS = _tables.GridTable(len, _grow_points,
                           lambda m, _: ((m - 1, 0),) if m else ())


def points_euler_recursive(n: int, d: int) -> int:
    """chi(C_{0,d}(P^n)) from the inner recursion

        chi(C_{0,d}(P^{n+1})) = 1 + sum_{i=1}^{d} chi(C_{0,i}(P^n)),

    with base chi(C_{0,d}(P^0)) = 1 (a point carries one cycle per degree).
    The sum is telescoped, so a table of rows per n is extended in O(n * d)
    additions.  This never calls ``binomial``, making it an independent
    oracle for the 0-cycle value C(n+d, d).

    >>> points_euler_recursive(0, 5)
    1
    >>> points_euler_recursive(1, 3)
    4
    >>> points_euler_recursive(3, 2)
    10
    """
    if n < 0 or d < 0:
        raise ValueError(f"require n >= 0 and d >= 0, got n={n}, d={d}")
    return _POINTS.cell(n, 0, d + 1)[d]


def _truncate(s: TruncatedSeries, order: int) -> TruncatedSeries:
    # Truncation is a ring homomorphism, so a prefix of a higher-order
    # series is the series at the lower order.
    return s if s.order == order else TruncatedSeries._trusted(s.coeffs[:order + 1])


def _grow_functional(cells: dict, a: int, b: int, size: int) -> None:
    # Cell (a, b) holds Q_{a,a+b}(t) at the largest order built so far.
    order = size - 1
    if a == 0:
        s = series_geom_pow(b + 1, order)   # Q_{0,m} = (1/(1-t))^{m+1}
    elif b == 0:
        s = series_geom_pow(1, order)       # Q_{q,q} = 1/(1-t)
    else:
        s = series_mul(_truncate(cells[a, b - 1], order),
                       _truncate(cells[a - 1, b], order))
    cells[a, b] = s


_FUNCTIONAL = _tables.GridTable(lambda s: len(s.coeffs), _grow_functional,
                                _reads_inner, release_used=True)


def chow_series(p: int, n: int, order: int, method: str = SERIES_CLOSED) -> TruncatedSeries:
    """The generating function Q_{p,n}(t) = sum_d chi(C_{p,d}(P^n)) t^d, truncated.

    With method ``"closed"`` this expands (1/(1-t))^v directly.  With method
    ``"functional"`` the series is built strictly from the recurrence
    Q_{p+1,n+1} = Q_{p+1,n} * Q_{p,n} with initial values Q_{0,m} =
    (1/(1-t))^{m+1} and Q_{q,q} = 1/(1-t), never invoking the closed form,
    so the two methods verify each other coefficient by coefficient.

    >>> chow_series(0, 1, 3).coeffs
    (1, 2, 3, 4)
    >>> chow_series(2, 2, 4, method="functional").coeffs
    (1, 1, 1, 1, 1)
    >>> chow_series(1, 2, 2, method="functional").coeffs
    (1, 3, 6)
    """
    if not 0 <= p <= n:
        raise ValueError(f"require 0 <= p <= n, got p={p}, n={n}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if method == SERIES_CLOSED:
        return series_geom_pow(v_pn(p, n), order)
    if method == SERIES_FUNCTIONAL:
        return _truncate(_FUNCTIONAL.cell(p, n - p, order + 1), order)
    raise ValueError(f"unknown series method {method!r}")


def chow_euler_series(params: ChowParams, order: int | None = None) -> EulerValue:
    """chi(C_{p,d}(P^n)) read off as a functional-equation series coefficient.

    The third route: the degree-d coefficient of the series built by
    ``chow_series(..., method="functional")``.  ``order`` defaults to the
    degree itself and must not be smaller.

    >>> chow_euler_series(ChowParams(1, 3, 2)).chi
    21
    """
    if order is None:
        order = params.d
    if order < params.d:
        raise ValueError(f"order {order} is below degree {params.d}")
    s = chow_series(params.p, params.n, order, SERIES_FUNCTIONAL)
    return EulerValue(series_coefficient(s, params.d), METHOD_SERIES)


def divisor_check(p: int, d: int) -> int:
    """chi(C_{p,d}(P^{p+1})) = C(p+d+1, d), the divisor-space value.

    Degree-d hypersurfaces in P^{p+1} form a projective space of dimension
    C(p+d+1, d) - 1 (one homogeneous coordinate per degree-d monomial in
    p + 2 variables), whence the count.  Callers may assert equality with
    ``chow_euler_closed`` on (p, p+1, d).

    >>> divisor_check(1, 2)    # conics in the plane form a P^5
    6
    >>> divisor_check(2, 3)
    20
    """
    if p < 0 or d < 0:
        raise ValueError(f"require p >= 0 and d >= 0, got p={p}, d={d}")
    return binomial(p + d + 1, d)
