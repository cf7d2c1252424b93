"""Exact binomial coefficients: ``math.comb`` with the package's conventions.

Everything here is plain Python ``int`` arithmetic, which is arbitrary
precision, so no count computed by this package is ever rounded.
"""

from __future__ import annotations

import math

__all__ = ["binomial", "binomial_signed"]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), computed exactly by ``math.comb``.

    Out-of-range ``k`` yields 0 rather than an error, which keeps convolution
    sums index-safe without explicit range clamping at every call site; a
    negative ``n`` is an error.

    >>> binomial(4, 2)
    6
    >>> binomial(7, 0)
    1
    >>> binomial(5, 7)
    0
    """
    if n < 0:
        raise ValueError(f"upper argument must be nonnegative, got n={n}")
    if k < 0:
        return 0
    return math.comb(n, k)


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
