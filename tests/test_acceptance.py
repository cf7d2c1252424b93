"""Acceptance gate: the ten headline identities, one visible verdict each.

Every criterion is an exact integer equality over a fixed parameter sweep.
Each test prints a single ``[PASS]``/``[FAIL]`` line (bypassing capture) so a
plain pytest run shows the verdict per criterion.
"""

import time
from itertools import combinations, combinations_with_replacement

import pytest

from chowchi.binomials import binomial
from chowchi.chow import (
    ChowParams,
    chow_euler_closed,
    chow_euler_recursive,
    chow_series,
    points_euler_recursive,
    sp_euler,
)
from chowchi.invariants import (
    QuaternionicParams,
    quaternionic_d1_oracle,
    quaternionic_euler_closed,
    quaternionic_p0_oracle,
)
from chowchi.series import series_geom_pow, series_mul


@pytest.fixture
def verdict(capsys):
    def _verdict(number, label, ok):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {label}"
        with capsys.disabled():
            print(line)
        assert ok, line
    return _verdict


def test_criterion_01_path_agreement(verdict):
    t0 = time.perf_counter()
    cells = 0
    ok = True
    for n in range(9):
        for p in range(n + 1):
            q = chow_series(p, n, 12, method="functional")
            for d in range(13):
                cells += 1
                params = ChowParams(p, n, d)
                closed = chow_euler_closed(params).chi
                ok = ok and chow_euler_recursive(params).chi == closed
                ok = ok and q.coeffs[d] == closed
    elapsed = time.perf_counter() - t0
    verdict(1, f"closed = recursive = series on {cells} cells "
               f"({elapsed:.2f}s)", ok and elapsed < 5.0)


def test_criterion_02_point_base_case(verdict):
    t0 = time.perf_counter()
    ok = all(
        points_euler_recursive(n, d) == binomial(n + d, d)
        for n in range(9) for d in range(13)
    )
    elapsed = time.perf_counter() - t0
    verdict(2, f"point recursion matches C(n+d,d) ({elapsed:.2f}s)",
            ok and elapsed < 1.0)


def test_criterion_03_divisor_spaces(verdict):
    t0 = time.perf_counter()
    ok = all(
        chow_euler_recursive(ChowParams(p, p + 1, d)).chi
        == chow_euler_closed(ChowParams(p, p + 1, d)).chi
        == binomial(p + d + 1, d)
        for p in range(11) for d in range(13)
    )
    elapsed = time.perf_counter() - t0
    verdict(3, f"divisor spaces match C(p+d+1,d) ({elapsed:.2f}s)",
            ok and elapsed < 1.0)


def test_criterion_04_degree_one_pascal(verdict):
    ok = True
    for n in range(1, 17):
        for p in range(n):
            left = chow_euler_recursive(ChowParams(p + 1, n + 1, 1)).chi
            ok = ok and left == binomial(n + 1, p + 1) + binomial(n + 1, p + 2)
            ok = ok and left == binomial(n + 2, p + 2)
    verdict(4, "degree-one recursion is the Pascal identity", ok)


def test_criterion_05_quaternionic_point_convolution(verdict):
    ok = all(
        quaternionic_p0_oracle(n, d) == binomial(2 * n + d - 1, d)
        for n in range(1, 7) for d in range(11)
    )
    verdict(5, "quaternionic p=0 convolution sums to C(2n+d-1,d)", ok)


def _truncated_d1_sum(p, n):
    # Index range starting at i = 1 instead of i = 0.
    return sum(binomial(n, i) * binomial(n, p + 1 - i) for i in range(1, p + 2))


def test_criterion_06_quaternionic_hyperplane_convolution(verdict):
    full_ok = all(
        quaternionic_d1_oracle(p, n) == binomial(2 * n, p + 1)
        for n in range(1, 9) for p in range(2 * n)
    )
    counterexample = None
    for n in range(1, 9):
        for p in range(2 * n):
            if _truncated_d1_sum(p, n) != binomial(2 * n, p + 1):
                counterexample = (p, n)
                break
        if counterexample:
            break
    verdict(6, "quaternionic d=1 Vandermonde; truncated index range fails "
               f"at (p, n) = {counterexample}",
            full_ok and counterexample is not None)


def test_criterion_07_quaternionic_matches_ambient(verdict):
    ok = all(
        quaternionic_euler_closed(QuaternionicParams(p, n, d))
        == chow_euler_closed(ChowParams(p, 2 * n - 1, d)).chi
        for n in range(1, 7) for p in range(2 * n) for d in range(11)
    )
    verdict(7, "quaternionic count equals ambient cycle-space count", ok)


def test_criterion_08_group_invariant_matches(verdict):
    # the fixed cycles of a diagonalizable action are the torus-fixed ones,
    # the multisets of d coordinate p-planes, each counted here one by one
    ok = all(
        sum(1 for _ in combinations_with_replacement(combinations(range(n + 1), p + 1), d))
        == chow_euler_closed(ChowParams(p, n, d)).chi
        for n in range(7) for p in range(n + 1) for d in range(6)
    )
    verdict(8, "diagonalizable-action fixed cycles keep the ambient count", ok)


def test_criterion_09_geometric_power_additivity(verdict):
    ok = all(
        series_geom_pow(a + b, 20)
        == series_mul(series_geom_pow(a, 20), series_geom_pow(b, 20))
        for a in range(17) for b in range(17)
    )
    verdict(9, "(1-t)^-a * (1-t)^-b = (1-t)^-(a+b) through order 20", ok)


def test_criterion_10_symmetric_products_of_chi_zero(verdict):
    ok = sp_euler(0, 0) == 1 and all(
        sp_euler(0, m) == 0 for m in range(1, 21))
    verdict(10, "symmetric products of a chi = 0 space vanish", ok)
