"""Parameter-sweep consistency suites with machine-readable reports.

Each suite recomputes a family of exact identities by two routes and records
every disagreement as the entry its report prints, with the inputs and both
paths and values as strings, a value of any size in full decimal under the
caller's int-to-str digit limit; an empty failure tuple is the pass condition.
``run_suite`` is the one entry, and no suite has a public function of its
own: it runs a suite by name, or every suite in sequence for ``"all"``, and
the CLI surfaces it as ``chowchi verify``.  The sweep sizes are chosen so
the full run finishes in seconds.
"""

import time

from ._record import Record, _decimal, _nonnegative, field_setters
from .binomials import binomial
from .chow import (
    ChowParams,
    SERIES_CLOSED,
    SERIES_FUNCTIONAL,
    chow_euler_closed,
    chow_euler_recursive,
    chow_euler_series,
    chow_series,
    points_euler_recursive,
    sp_euler,
)
from .invariants import (
    QuaternionicParams,
    quaternionic_d1_oracle,
    quaternionic_euler_closed,
    quaternionic_p0_oracle,
)
from .series import TruncatedSeries, series_geom_pow, series_mul

__all__ = ["VerificationReport", "SUITE_NAMES", "run_suite"]

class VerificationReport(Record):
    """Outcome of a consistency sweep: case count, failure entries, wall time."""

    __slots__ = ("suite", "cases_run", "failures", "elapsed_ms")
    suite: str
    cases_run: int
    failures: tuple[dict, ...]
    elapsed_ms: int

    def __init__(self, suite: str, cases_run: int, failures: tuple[dict, ...],
                 elapsed_ms: int):
        _set_suite(self, suite)
        _set_cases_run(self, cases_run)
        _set_failures(self, failures)
        _set_elapsed_ms(self, elapsed_ms)


_set_suite, _set_cases_run, _set_failures, _set_elapsed_ms = field_setters(
    VerificationReport)


# geometric powers (1-t)^{-m}, m <= _MAX_POW, in the series suite
_MAX_POW = 16


def _recursion(check, max_p: int, max_n: int, max_d: int, order: int):
    """Path agreement for chi(C_{p,d}(P^n)), plus the related identities.

    Checks, over p <= min(max_p, n), n <= max_n, d <= max_d: the recursive
    and series routes against the closed form, positivity of
    every value, the degree-one Pascal reduction, and the monomial count of
    each divisor space against the suspension recursion at (p, p + 1, d).
    """
    for n in range(max_n + 1):
        for p in range(min(max_p, n) + 1):
            # grow both tables to max_d once, as the functional table rebuilds
            # a cell whole when it grows: each degree below is then a lookup
            top = ChowParams(p, n, max_d)
            chow_euler_recursive(top)
            chow_euler_series(top)
            for d in range(max_d + 1):
                params = ChowParams(p, n, d)
                closed = chow_euler_closed(params).chi
                check({"check": "recursive-vs-closed", "p": p, "n": n, "d": d},
                      "closed", closed,
                      "recursive", chow_euler_recursive(params).chi)
                check({"check": "series-vs-closed", "p": p, "n": n, "d": d},
                      "closed", closed,
                      "series", chow_euler_series(params).chi)
                must_be_one = p == n or d == 0
                check({"check": "positivity", "p": p, "n": n, "d": d},
                      "invariant", True,
                      "closed", closed >= 1 and (closed == 1) == must_be_one)
    for n in range(1, max_n + 1):
        for p in range(n):
            check({"check": "pascal-at-degree-one", "p": p, "n": n},
                  "pascal-sum", binomial(n + 1, p + 1) + binomial(n + 1, p + 2),
                  "recursive", chow_euler_recursive(ChowParams(p + 1, n + 1, 1)).chi)
    for p in range(max_n):
        # the suspension row b = 1, grown to max_d once
        chow_euler_recursive(ChowParams(p, p + 1, max_d))
        for d in range(max_d + 1):
            # the degree-d monomials in p + 2 variables
            check({"check": "divisor-space", "p": p, "d": d},
                  "monomial-count", binomial(p + d + 1, d),
                  "recursive", chow_euler_recursive(ChowParams(p, p + 1, d)).chi)


def _base_cases(check, max_p: int, max_n: int, max_d: int, order: int):
    """The 0-cycle base case: inner point recursion against C(n+d, d)."""
    for n in range(max_n + 1):
        for d in range(max_d + 1):
            check({"check": "points-recursion", "n": n, "d": d},
                  "binomial", binomial(n + d, d),
                  "points-recursive", points_euler_recursive(n, d))


def _series(check, max_p: int, max_n: int, max_d: int, order: int):
    """Series-level identities.

    Geometric-power additivity against the Cauchy product; the generating
    function's factorization Q_{p+1,n+1} = Q_{p+1,n} * Q_{p,n} on closed
    series; each functional series, which its table builds by that product,
    against the closed series of the same (p + 1, n + 1); and ``sp_euler``,
    the signed binomial, against geometric-series coefficients.
    """
    geom = [series_geom_pow(m, order) for m in range(2 * _MAX_POW + 1)]
    for a in range(_MAX_POW + 1):
        for b in range(_MAX_POW + 1):
            check({"check": "geom-pow-additivity", "a": a, "b": b, "order": order},
                  "direct", geom[a + b].coeffs,
                  "product", series_mul(geom[a], geom[b]).coeffs)
    # Q_{p,n} for every p, one ambient dimension at a time: each series is
    # built once and only two dimensions are held
    row = [chow_series(p, 1, order) for p in range(2)]
    for n in range(1, max_n + 1):
        up = [chow_series(p, n + 1, order) for p in range(n + 2)]
        for p in range(n):
            check({"check": "series-factorization", "p": p, "n": n,
                   "order": order, "method": SERIES_CLOSED},
                  "direct", up[p + 1].coeffs,
                  "product", series_mul(row[p + 1], row[p]).coeffs)
            check({"check": "series-factorization", "p": p, "n": n,
                   "order": order, "method": SERIES_FUNCTIONAL},
                  "closed-series", up[p + 1].coeffs,
                  "functional",
                  chow_series(p + 1, n + 1, order, SERIES_FUNCTIONAL).coeffs)
        row = up
    for m in range(_MAX_POW + 1):
        for d in range(order + 1):
            check({"check": "signed-binomial-vs-series", "m": m, "d": d},
                  "series", geom[m].coeffs[d],
                  "signed-binomial", sp_euler(m, d))


def _quaternionic(check, max_p: int, max_n: int, max_d: int, order: int):
    """Invariant-cycle identities.

    The two quaternionic decomposition oracles against the closed form; the
    identification with the plain cycle spaces of P^{2n-1}, each
    ``math.comb`` value of the quaternionic closed form against the ratio
    recurrence of the closed series Q_{p,2n-1}, one series per (p, n); the
    same pairing for the fixed cycles of a diagonalizable action on P^n,
    whose count is the unconstrained one: ``chow_euler_closed`` at every
    p <= n, past ``max_p``, against the closed series Q_{p,n}, one series
    per (p, n); and ``sp_euler`` at every chi = -m <= 0, whose series times
    the geometric power (1/(1-t))^m must be the series 1.
    """
    for n in range(1, max_n + 1):
        for d in range(max_d + 1):
            check({"check": "p0-oracle", "n": n, "d": d},
                  "closed", quaternionic_euler_closed(QuaternionicParams(0, n, d)),
                  "oracle-p0", quaternionic_p0_oracle(n, d))
        for p in range(2 * n):
            d1 = quaternionic_d1_oracle(p, n)
            check({"check": "d1-oracle", "p": p, "n": n},
                  "closed", quaternionic_euler_closed(QuaternionicParams(p, n, 1)),
                  "oracle-d1", d1)
            check({"check": "d1-vandermonde", "p": p, "n": n},
                  "binomial", binomial(2 * n, p + 1),
                  "oracle-d1", d1)
            ambient = chow_series(p, 2 * n - 1, max_d).coeffs
            for d in range(max_d + 1):
                check({"check": "ambient-match", "p": p, "n": n, "d": d},
                      "closed-series", ambient[d],
                      "quaternionic-closed",
                      quaternionic_euler_closed(QuaternionicParams(p, n, d)))
    for n in range(max_n + 1):
        for p in range(n + 1):
            # (1/(1-t))^v generates the degree-d multisets of the v torus-fixed p-planes
            fixed = chow_series(p, n, max_d).coeffs
            for d in range(max_d + 1):
                check({"check": "group-invariant-match", "p": p, "n": n, "d": d},
                      "chow-closed", chow_euler_closed(ChowParams(p, n, d)).chi,
                      "group-invariant", fixed[d])
    top = max(max_d, 20)
    one = (1,) + (0,) * top
    for m in range(top + 1):
        reflected = TruncatedSeries([sp_euler(-m, d) for d in range(top + 1)])
        check({"check": "sp-at-nonpositive-chi", "m": m, "order": top},
              "invariant", one,
              "product", series_mul(series_geom_pow(m, top), reflected).coeffs)


# Each suite takes ``run_suite``'s ``tally`` as its ``check``, calls it once
# per case, and looks its routes up in this module's globals as it runs, so a
# caller that rebinds a route here sees every call.  "all" runs the suites in
# this order.
_SUITES = {
    "recursion": _recursion,
    "series": _series,
    "quaternionic": _quaternionic,
    "base-cases": _base_cases,
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(
    name: str,
    max_p: int = 4,
    max_n: int = 6,
    max_d: int = 10,
    order: int = 12,
) -> VerificationReport:
    """Run the suite ``name``, one of ``SUITE_NAMES``.

    Every suite takes the same bounds, nonnegative integers, and reads the
    ones its grids use.  Each failure's ``inputs`` starts with its suite and
    check, so ``"all"``, which runs every suite into one report, reports
    exactly the failures of the suites run one by one, in ``_SUITES`` order.
    """
    bounds = tuple(map(_nonnegative, (max_p, max_n, max_d, order),
                       ("max_p", "max_n", "max_d", "order")))
    if name not in SUITE_NAMES:
        raise ValueError(
            f"unknown suite {_decimal(name)}; choose from {', '.join(SUITE_NAMES)}")
    cases, failures = 0, []

    def tally(inputs: dict[str, object], expected_path: str, expected: object,
              actual_path: str, actual: object) -> None:
        """Count one comparison; a mismatch is kept as the entry it prints as,
        the running suite first in its inputs and its two values rendered by
        ``_decimal``."""
        nonlocal cases
        cases += 1
        if expected != actual:
            failures.append({
                "inputs": {k: str(v) for k, v in {"suite": suite, **inputs}.items()},
                "expected": {"path": expected_path, "value": _decimal(expected)},
                "actual": {"path": actual_path, "value": _decimal(actual)},
            })

    t0 = time.perf_counter_ns()
    for suite, sweep in _SUITES.items():
        if name in (suite, "all"):
            sweep(tally, *bounds)
    elapsed_ms = (time.perf_counter_ns() - t0) // 1_000_000
    return VerificationReport(name, cases, tuple(failures), elapsed_ms)
