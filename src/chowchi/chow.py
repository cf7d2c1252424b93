"""Euler characteristics of the cycle spaces C_{p,d}(P^n).

C_{p,d}(P^n) is the Chow variety of effective algebraic p-cycles of degree d
in complex projective n-space.  Its Euler characteristic is computed here by
three routes:

* ``chow_euler_closed``: the Lawson-Yau formula ``sp_euler(v, d)``, the
  0-cycle count of v = C(n+1, p+1) points;
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

The recursive and functional routes fill two module-level tables bottom-up
in dependency order, so no result depends on Python's recursion limit.  A
(p, n, d) query costs O(p * (n - p) * d^2) big-integer products the first
time.  The recursive table keeps every row, so a later query inside a grown
box is one lookup.  The functional table keeps only the series that later
growth may read (``_grow_functional`` states the rule) and rebuilds the
inside of a box from them when a later query needs it.  As with
``functools.lru_cache``, ``chow_euler_recursive.cache_clear()`` and
``chow_series.cache_clear()`` empty them.  The 0-cycle point recursion keeps
no state: it is n running sums, recomputed per call.
"""

import threading
from collections.abc import Callable
from itertools import accumulate
from operator import attrgetter, index, mul

from ._record import Record, _decimal, _nonnegative, field_setters
from .binomials import binomial
from .series import TruncatedSeries, series_geom_pow, series_mul

__all__ = [
    "ChowParams",
    "EulerValue",
    "SERIES_CLOSED",
    "SERIES_FUNCTIONAL",
    "sp_euler",
    "chow_euler_closed",
    "chow_euler_recursive",
    "chow_euler_series",
    "points_euler_recursive",
    "chow_series",
]

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
        p, n, d = index(p), index(n), _nonnegative(d, "degree", "d=")
        if not 0 <= p <= n:
            raise ValueError(f"require 0 <= p <= n, got p={_decimal(p)}, n={_decimal(n)}")
        _set_p(self, p)
        _set_n(self, n)
        _set_d(self, d)


_set_p, _set_n, _set_d = field_setters(ChowParams)


class EulerValue(Record):
    """A route's answer: the Euler characteristic ``chi``, without the route's name."""

    __slots__ = ("chi",)
    chi: int

    def __init__(self, chi: int):
        _set_chi(self, chi)


(_set_chi,) = field_setters(EulerValue)


def sp_euler(chi: int, d: int) -> int:
    """chi of the d-fold symmetric product of a space with Euler characteristic chi.

    By the Macdonald formula this is the coefficient of t^d in (1-t)^(-chi),
    the generalized binomial C(chi + d - 1, d), for every integer chi: for
    chi <= 0 the reflection (-1)^d C(-chi, d).  SP^0 of anything is a point.

    >>> sp_euler(0, 4)
    0
    >>> sp_euler(0, 0)
    1
    >>> sp_euler(3, 2)     # SP^2 of the projective plane
    6
    >>> sp_euler(-2, 2)    # (1-t)^2 = 1 - 2t + t^2
    1
    """
    if d < 0:
        _nonnegative(d, "degree", "d=")
    if chi > 0:
        return binomial(chi + d - 1, d)
    c = binomial(-chi, d)
    return -c if d & 1 else c


def chow_euler_closed(params: ChowParams) -> EulerValue:
    """chi(C_{p,d}(P^n)) by the Lawson-Yau closed form ``sp_euler(v, d)``.

    It counts the torus-fixed cycles, the degree-d multisets of the
    v = C(n+1, p+1) coordinate p-planes.  The same number is the l-adic
    Euler-Poincare characteristic over any algebraically closed field, and
    the chi of the cycles fixed by a diagonalizable linear action g, since
    chi(X^g) = chi(X^T) = chi(X) for a torus T containing g; neither
    reading has a code path of its own.

    >>> chow_euler_closed(ChowParams(0, 2, 2)).chi
    6
    >>> chow_euler_closed(ChowParams(3, 3, 9)).chi   # one cycle per degree
    1
    """
    return EulerValue(sp_euler(binomial(params.n + 1, params.p + 1), params.d))


# Both tables are dicts of cells (a, b) = (p, n - p), a, b >= 0.  An inner
# cell, with a and b both positive, draws on (a, b - 1) and (a - 1, b); an
# edge cell draws on none.  One lock guards growth and clearing of both; it
# cannot deadlock, since neither grower reads the other table.
_LOCK = threading.Lock()


def _cell(cells: dict, grow: Callable[[dict, int, int, int], None],
          a: int, b: int, need: int) -> object:
    """Cell (a, b) of ``cells`` holding at least ``need`` entries.

    ``grow(cells, a, b, need)`` brings one cell to ``need`` entries once its
    inner neighbours hold as many, and may drop cells it no longer needs.
    The walk back from (a, b) through the inner neighbours stops at cells
    holding ``need``, so a query missing only its own cell costs O(1) and a
    cell nothing reads is never grown; sorting puts every cell after the
    cells it draws on, so no evaluation recurses.
    """
    cell = cells.get((a, b))
    if cell is None or len(cell) < need:
        with _LOCK:
            stale, todo = set(), [(a, b)]
            while todo:
                at = todo.pop()
                if at not in stale and len(cells.get(at, ())) < need:
                    stale.add(at)
                    x, y = at
                    if x and y:
                        todo += (x, y - 1), (x - 1, y)
            for x, y in sorted(stale):
                grow(cells, x, y, need)
            cell = cells[a, b]
    return cell


def _clearer(cells: dict) -> Callable[[], None]:
    def cache_clear() -> None:
        """Empty the table this route keeps."""
        with _LOCK:
            cells.clear()
    return cache_clear


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


_SUSPENSION: dict[tuple[int, int], list[int]] = {}


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
    row = _cell(_SUSPENSION, _grow_suspension,
                params.p, params.n - params.p, params.d + 1)
    return EulerValue(row[params.d])


chow_euler_recursive.cache_clear = _clearer(_SUSPENSION)


def points_euler_recursive(n: int, d: int) -> int:
    """chi(C_{0,d}(P^n)) from the inner recursion

        chi(C_{0,d}(P^{n+1})) = 1 + sum_{i=1}^{d} chi(C_{0,i}(P^n)),

    with base chi(C_{0,d}(P^0)) = 1 (a point carries one cycle per degree).
    With chi(C_{0,0}) = 1 the right side is a prefix sum, so n running sums
    over a row of d + 1 ones give the value in O(n * d) additions, and
    nothing is kept between calls.  This never calls ``binomial``, making it
    an independent oracle for the 0-cycle value C(n+d, d).

    >>> points_euler_recursive(0, 5)
    1
    >>> points_euler_recursive(1, 3)
    4
    >>> points_euler_recursive(3, 2)
    10
    """
    n, d = attrgetter("n", "d")(ChowParams(0, n, d))
    row = [1] * (d + 1)
    for _ in range(n):
        row = list(accumulate(row))
    return row[d]


def _grow_functional(cells: dict, a: int, b: int, size: int) -> None:
    # Cell (a, b) holds the coefficients of Q_{a,a+b}(t) at the largest
    # order built so far.  A prefix of them is the series at a lower order,
    # since truncation is a ring homomorphism.
    order = size - 1
    if a == 0:
        s = series_geom_pow(b + 1, order)   # Q_{0,m} = (1/(1-t))^{m+1}
    elif b == 0:
        s = series_geom_pow(1, order)       # Q_{q,q} = 1/(1-t)
    else:
        s = series_mul(TruncatedSeries(cells[a, b - 1][:size]),
                       TruncatedSeries(cells[a - 1, b][:size]))
    cells[a, b] = s.coeffs
    # The release rule of the functional table.  A cell is read only to grow
    # (x, y + 1) and (x + 1, y), and each is rebuilt whole, so it goes once
    # both hold at least as many entries: a fresh box keeps its top row and
    # right column, and a later query inside it rebuilds the cells it needs
    # from them.  The rule runs only here, as one of those two grows, so a
    # cell asked for directly after both already hold as many entries stays
    # until one of them grows again.  So Q_{0,0}, from which no series is
    # built, can stay beside a later box's frontier until a larger query
    # regrows Q_{0,1} and Q_{1,1}.
    for x, y in (a, b - 1), (a - 1, b):
        if len(cells.get((x, y), ())) <= min(len(cells.get((x, y + 1), ())),
                                              len(cells.get((x + 1, y), ()))):
            cells.pop((x, y), None)


_FUNCTIONAL: dict[tuple[int, int], tuple[int, ...]] = {}


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
    p, n = attrgetter("p", "n")(ChowParams(p, n, 0))
    order = _nonnegative(order, "order")
    if method == SERIES_CLOSED:
        return series_geom_pow(binomial(n + 1, p + 1), order)
    if method == SERIES_FUNCTIONAL:
        coeffs = _cell(_FUNCTIONAL, _grow_functional, p, n - p, order + 1)
        return TruncatedSeries(coeffs[:order + 1])
    raise ValueError(f"unknown series method {_decimal(method)}")


chow_series.cache_clear = _clearer(_FUNCTIONAL)


def chow_euler_series(params: ChowParams) -> EulerValue:
    """chi(C_{p,d}(P^n)) read off as a functional-equation series coefficient.

    The third route: the degree-d coefficient of the series that
    ``chow_series(..., method="functional")`` builds, read from the same
    table.

    >>> chow_euler_series(ChowParams(1, 3, 2)).chi
    21
    """
    coeffs = _cell(_FUNCTIONAL, _grow_functional,
                   params.p, params.n - params.p, params.d + 1)
    return EulerValue(coeffs[params.d])
