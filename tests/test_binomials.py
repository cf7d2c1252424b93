"""Exact binomials."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from chowchi import binomials
from chowchi.binomials import binomial


def test_negative_n_rejected():
    with pytest.raises(ValueError, match="^upper argument must be nonnegative, got n=-1$"):
        binomial(-1, 0)


def test_matches_stdlib_comb():
    for n in range(65):
        for k in range(n + 1):
            assert binomial(n, k) == math.comb(n, k)
    # larger n, with k at and just past both ends of its range
    for n in (511, 512, 513, 10**4):
        for k in (-1, 0, n // 2, n, n + 1):
            assert binomial(n, k) == (math.comb(n, k) if k >= 0 else 0), (n, k)


# k' = min(k, n - k) from which binomial leaves math.comb for the window method
G = binomials._WINDOW_MIN_K


def test_window_gate_matches_stdlib_comb():
    # k' one below, at and one above the gate, reached from k and from n - k,
    # with k also at and just past both ends of its range
    for n in (2 * G, 2 * G + 1, 2**31 + G, 2**64 + G, 10**6):
        ks = {-1, 0, n, n + 1}
        for k_low in (G - 1, G, G + 1):
            ks |= {k_low, n - k_low}
        for k in sorted(ks):
            assert binomial(n, k) == (math.comb(n, k) if k >= 0 else 0), (n, k)


def test_window_strip_boundary_at_71_squared():
    # 71^2 = 5041: at k' = 5040 the prime 71 has one level and goes through
    # the index loop; from k' = 5041 on it has a second level, q = 71^2, and
    # is stripped by slices
    for k_low in (5040, 5041, 5042):
        for n in (2 * k_low, 2 * k_low + 1, 2**40 + k_low):
            for k in (k_low, n - k_low):
                assert binomial(n, k) == math.comb(n, k), (n, k)


@settings(max_examples=20, deadline=None)
@given(k_low=st.integers(G - 64, G + 64), extra=st.integers(0, 2**80),
       from_top=st.booleans())
def test_window_gate_property(k_low, extra, from_top):
    n = 2 * k_low + extra
    k = n - k_low if from_top else k_low
    assert binomial(n, k) == math.comb(n, k)

