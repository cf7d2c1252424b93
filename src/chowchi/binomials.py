"""Exact binomial coefficients with the package's conventions.

Everything here is plain Python ``int`` arithmetic, which is arbitrary
precision, so no count computed by this package is ever rounded.

``binomial(n, k)`` is ``math.comb`` while k' = min(k, n - k) is below
``_WINDOW_MIN_K``.  From there on it computes C(n, k') without any big-int
division, which CPython 3.11's ``math.comb`` ends in and which is quadratic
in the size of the result: the window n - k' + 1 ... n is listed, k'!'s prime
powers are taken out of it level by level by Legendre's formula, and what is
left is multiplied in a balanced product tree, where CPython's Karatsuba
does the work.  This is the prime-power view of Goetgheluck (1987,
"Computing binomial coefficients", Amer. Math. Monthly 94(4)) applied to the
window.  The gate compares ``k`` first, so the small binomials of the
recursions and sweeps pay one comparison for it.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import mul

__all__ = ["binomial", "binomial_signed"]

# From here the window method is at least as fast as ``math.comb`` for n up
# to about 2^64 and ties it (0.93-1.04x) at 2^128; below it ``math.comb`` is
# faster for small n (see CHANGES.md for the table).
_WINDOW_MIN_K = 4500


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), computed exactly.

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
    if k < _WINDOW_MIN_K or n - k < _WINDOW_MIN_K:
        return math.comb(n, k)
    return _window_binomial(n, min(k, n - k))


def _window_binomial(n: int, k: int) -> int:
    """C(n, k) for 0 < k <= n - k: the window n - k + 1 ... n over k!.

    At level q = p^j the first floor(k / q) multiples of q in the window each
    lose one factor p; every k consecutive integers hold that many, and over
    all levels this removes the exponent of p in k!, so every division is
    exact and by a prime no larger than k.
    """
    low = n - k + 1
    window = list(range(low, n + 1))
    for p in _primes_upto(k):
        q = p
        while q <= k:
            first = -low % q
            level = slice(first, first + k // q * q, q)
            window[level] = map(p.__rfloordiv__, window[level])
            q *= p
    while len(window) > 1:       # pairwise products; an odd last one carries
        window = [*map(mul, window[::2], window[1::2]), *window[len(window) & ~1:]]
    return window[0]


def _primes_upto(m: int):
    """The primes p <= m, in increasing order, from a ``bytearray`` sieve."""
    sieve = bytearray([1]) * (m + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, m + 1, p)))
    return compress(range(m + 1), sieve)


def binomial_signed(a: int, k: int) -> int:
    """Generalized binomial C(a + k - 1, k): the coefficient of t^k in (1-t)^(-a).

    Defined for every integer ``a`` as the rising-factorial quotient
    a (a+1) ... (a+k-1) / k!, so that symmetric-product counts stay defined
    for spaces whose Euler characteristic is zero or negative.  For a > 0 it
    is ``binomial(a + k - 1, k)``; for a <= 0 the reflection
    C(a + k - 1, k) = (-1)^k C(-a, k) reduces it to ``binomial`` as well.

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
        return binomial(a + k - 1, k)
    c = binomial(-a, k)
    return -c if k & 1 else c
