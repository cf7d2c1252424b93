"""Group-invariant cycles, quaternionic cycle spaces, symmetric products."""

import math

import pytest

from chowchi.binomials import binomial
from chowchi.chow import ChowParams, sp_euler
from chowchi.invariants import (
    QuaternionicParams,
    g_invariant_euler,
    quaternionic_d1_oracle,
    quaternionic_euler_closed,
    quaternionic_p0_oracle,
)

from oracles import expand_inv_one_minus_t


def test_quaternionic_params_validation():
    with pytest.raises(ValueError, match="^quaternionic dimension must be >= 1, got n=0$"):
        QuaternionicParams(0, 0, 1)
    with pytest.raises(ValueError, match="^require 0 <= p <= 2n-1, got p=2 with n=1$"):
        QuaternionicParams(2, 1, 0)
    with pytest.raises(ValueError, match="^require 0 <= p <= 2n-1, got p=-1 with n=2$"):
        QuaternionicParams(-1, 2, 0)
    with pytest.raises(ValueError, match="^degree must be nonnegative, got d=-1$"):
        QuaternionicParams(p=1, n=2, d=-1)
    for args in ((1, 2.0, 3), (1.0, 2, 3), (1, 2, 3.0)):
        with pytest.raises(TypeError):
            QuaternionicParams(*args)


def test_g_invariant_examples():
    assert g_invariant_euler(ChowParams(0, 1, 2)) == 3
    assert g_invariant_euler(ChowParams(1, 2, 3)) == 10
    assert g_invariant_euler(ChowParams(2, 2, 5)) == 1


def test_quaternionic_examples():
    assert quaternionic_euler_closed(QuaternionicParams(0, 1, 2)) == 3
    assert quaternionic_euler_closed(QuaternionicParams(3, 2, 4)) == 1
    assert quaternionic_euler_closed(QuaternionicParams(1, 2, 2)) == 21


def test_p0_oracle_examples():
    assert quaternionic_p0_oracle(1, 2) == 3
    assert quaternionic_p0_oracle(2, 0) == 1
    assert quaternionic_p0_oracle(2, 3) == 20


def test_p0_oracle_rejects_bad_range():
    with pytest.raises(ValueError):
        quaternionic_p0_oracle(0, 2)
    with pytest.raises(ValueError):
        quaternionic_p0_oracle(2, -1)


def test_p0_oracle_matches_closed_form():
    for n in range(1, 7):
        for d in range(11):
            assert quaternionic_p0_oracle(n, d) \
                == quaternionic_euler_closed(QuaternionicParams(0, n, d))


def test_d1_oracle_examples():
    assert quaternionic_d1_oracle(0, 1) == 2
    assert quaternionic_d1_oracle(1, 1) == 1
    assert quaternionic_d1_oracle(1, 2) == 6


def test_d1_oracle_rejects_bad_range():
    with pytest.raises(ValueError):
        quaternionic_d1_oracle(2, 1)
    with pytest.raises(ValueError):
        quaternionic_d1_oracle(-1, 1)
    with pytest.raises(ValueError, match="^require n >= 1, got n=0$"):
        quaternionic_d1_oracle(0, 0)


def test_d1_oracle_is_vandermonde():
    # The hyperplane-pair convolution telescopes to a single binomial.
    for n in range(1, 9):
        for p in range(2 * n):
            value = quaternionic_d1_oracle(p, n)
            assert value == binomial(2 * n, p + 1)
            assert value \
                == quaternionic_euler_closed(QuaternionicParams(p, n, 1))


def test_quaternionic_degree_sequences_match_chow_tables():
    # Both count families reduce to the same binomial sequences, so tables
    # in d agree column-by-column for matching ambient dimensions.
    for n in range(1, 5):
        for p in range(2 * n):
            for d in range(9):
                assert quaternionic_euler_closed(QuaternionicParams(p, n, d)) \
                    == binomial(binomial(2 * n, p + 1) + d - 1, d)


def test_sp_euler_examples():
    assert sp_euler(0, 4) == 0
    assert sp_euler(3, 2) == 6
    assert sp_euler(-2, 2) == 1
    assert sp_euler(-2, 1) == -2
    assert sp_euler(1, 7) == 1


def test_sp_euler_of_projective_space():
    for n in range(16):
        for d in range(17):
            assert sp_euler(n + 1, d) == binomial(n + d, d)


def test_sp_euler_matches_series_expansion():
    # coefficient of t^d in (1-t)^(-chi), with the chi < 0 side expanded as
    # an honest polynomial power of (1 - t)
    for chi in range(-8, 13):
        coeffs = expand_inv_one_minus_t(chi, 16)
        for d in range(17):
            assert sp_euler(chi, d) == coeffs[d], (chi, d)


def test_sp_euler_at_large_degree():
    # a loop over the d factors would take seconds at this degree
    assert sp_euler(5, 200000) == math.comb(200004, 200000)
    assert sp_euler(-5, 200000) == 0
    assert sp_euler(-200000, 5) == -math.comb(200000, 5)


def test_sp_euler_rejects_negative_degree():
    with pytest.raises(ValueError):
        sp_euler(3, -1)
