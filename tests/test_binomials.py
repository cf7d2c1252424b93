"""Exact binomials and the signed generalization."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from chowchi import binomials
from chowchi.binomials import binomial, binomial_signed

from oracles import expand_inv_one_minus_t


def test_small_values():
    assert binomial(4, 2) == 6
    assert binomial(7, 0) == 1
    assert binomial(0, 0) == 1


def test_out_of_range_k_is_zero():
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_pascal_identity_up_to_64():
    for n in range(1, 65):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_symmetry_up_to_64():
    for n in range(65):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n, n - k)


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


@settings(max_examples=20, deadline=None)
@given(k_low=st.integers(G - 64, G + 64), extra=st.integers(0, 2**80),
       from_top=st.booleans())
def test_window_gate_property(k_low, extra, from_top):
    n = 2 * k_low + extra
    k = n - k_low if from_top else k_low
    assert binomial(n, k) == math.comb(n, k)


def test_vandermonde_convolution():
    # index-safe thanks to the out-of-range-gives-zero convention
    for m in range(17):
        for n in range(17):
            for r in range(17):
                total = sum(binomial(m, i) * binomial(n, r - i) for i in range(r + 1))
                assert total == binomial(m + n, r)


def test_signed_examples():
    assert binomial_signed(0, 3) == 0
    assert binomial_signed(0, 0) == 1
    assert binomial_signed(-2, 2) == 1
    assert binomial_signed(-2, 1) == -2


def test_signed_agrees_with_binomial_for_positive_a():
    for a in range(1, 17):
        for k in range(17):
            assert binomial_signed(a, k) == binomial(a + k - 1, k)


def test_signed_negative_k_rejected():
    with pytest.raises(ValueError):
        binomial_signed(3, -1)


def test_signed_matches_explicit_series_expansion():
    # coefficient of t^k in (1-t)^(-a), with the a < 0 side expanded as an
    # honest polynomial power of (1 - t)
    for a in range(-8, 9):
        coeffs = expand_inv_one_minus_t(a, 16)
        for k in range(17):
            assert binomial_signed(a, k) == coeffs[k], (a, k)

