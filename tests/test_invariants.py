"""Group-invariant cycles, quaternionic cycle spaces, symmetric products."""

import math

from chowchi.binomials import binomial
from chowchi.chow import sp_euler
from chowchi.invariants import (
    QuaternionicParams,
    quaternionic_d1_oracle,
    quaternionic_euler_closed,
)

from oracles import expand_inv_one_minus_t


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
