"""Exact binomial coefficients backed by a grow-on-demand Pascal table.

Everything here is plain Python ``int`` arithmetic, which is arbitrary
precision, so no count computed by this package is ever rounded.
"""

from __future__ import annotations

import math
import threading

__all__ = ["BinomialTable", "binomial", "binomial_signed"]


class BinomialTable:
    """Triangular cache of C(n, k), filled row by row with the Pascal rule.

    ``n_max`` bounds the cached triangle: rows up to ``n_max`` are built
    lazily as they are first requested, while larger upper arguments are
    answered directly by ``math.comb`` and never cached, so an isolated huge
    query cannot balloon the table.  Each new row is completed before it is
    published, and growth happens under a lock, so concurrent readers never
    observe a partially filled row.

    >>> t = BinomialTable(8)
    >>> t.value(4, 2)
    6
    >>> t.value(100, 3)   # beyond the cache bound: computed directly
    161700
    """

    def __init__(self, n_max: int = 512):
        if n_max < 0:
            raise ValueError(f"n_max must be nonnegative, got {n_max}")
        self._n_max = n_max
        self._rows = [[1]]
        self._lock = threading.Lock()

    @property
    def n_max(self) -> int:
        """Largest row index this table will cache."""
        return self._n_max

    @property
    def rows_cached(self) -> int:
        """Number of rows currently materialized (at most ``n_max`` + 1)."""
        return len(self._rows)

    def _grow(self, n: int) -> None:
        with self._lock:
            while len(self._rows) <= n:
                prev = self._rows[-1]
                row = [1]
                for k in range(1, len(prev)):
                    row.append(prev[k - 1] + prev[k])
                row.append(1)
                self._rows.append(row)

    def value(self, n: int, k: int) -> int:
        """C(n, k), with the convention that out-of-range ``k`` gives 0."""
        if n < 0:
            raise ValueError(f"upper argument must be nonnegative, got n={n}")
        if k < 0 or k > n:
            return 0
        if n > self._n_max:
            return math.comb(n, k)
        if n >= len(self._rows):
            self._grow(n)
        return self._rows[n][k]


_TABLE = BinomialTable()


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), cached in a shared Pascal table.

    Out-of-range ``k`` yields 0 rather than an error, which keeps convolution
    sums index-safe without explicit range clamping at every call site.

    >>> binomial(4, 2)
    6
    >>> binomial(7, 0)
    1
    >>> binomial(5, 7)
    0
    """
    return _TABLE.value(n, k)


def binomial_signed(a: int, k: int) -> int:
    """Generalized binomial C(a + k - 1, k): the coefficient of t^k in (1-t)^(-a).

    Defined for every integer ``a`` as the rising-factorial quotient
    a (a+1) ... (a+k-1) / k!, so that symmetric-product counts stay defined
    for spaces whose Euler characteristic is zero or negative.  For a > 0 it
    is ``math.comb(a + k - 1, k)``; for a <= 0 the reflection
    C(a + k - 1, k) = (-1)^k C(-a, k) reduces it to ``math.comb`` as well.

    >>> binomial_signed(0, 3)
    0
    >>> binomial_signed(0, 0)
    1
    >>> binomial_signed(-2, 2)    # (1-t)^2 = 1 - 2t + t^2
    1
    >>> binomial_signed(3, 4) == binomial(6, 4)
    True
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if a > 0:
        return math.comb(a + k - 1, k)
    c = math.comb(-a, k)
    return -c if k & 1 else c
