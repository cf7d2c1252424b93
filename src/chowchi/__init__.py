"""chowchi: exact Euler characteristics of Chow varieties of projective space.

The count chi(C_{p,d}(P^n)) of effective p-cycles of degree d in P^n is
computed by three mutually verifying routes (Lawson-Yau closed form,
suspension recursion, generating-function arithmetic), together with the
counts for group-invariant and right quaternionic cycle spaces and for
symmetric products.  All arithmetic is exact integer arithmetic.

Quick use::

    >>> from chowchi import ChowParams, chow_euler_closed
    >>> chow_euler_closed(ChowParams(p=1, n=3, d=2)).chi
    21

The ``chowchi`` command line tool exposes the same computations plus the
cross-checking sweeps; see ``chowchi --help``.
"""

from .binomials import binomial, binomial_signed
from .chow import (
    ChowParams,
    EulerValue,
    chow_euler_closed,
    chow_euler_recursive,
    chow_euler_series,
    chow_series,
    divisor_check,
    points_euler_recursive,
    v_pn,
)
from .invariants import (
    QuaternionicParams,
    g_invariant_euler,
    quaternionic_d1_oracle,
    quaternionic_euler_closed,
    quaternionic_p0_oracle,
    sp_euler,
)
from .series import TruncatedSeries, series_coefficient, series_geom_pow, series_mul
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "binomial",
    "binomial_signed",
    "TruncatedSeries",
    "series_geom_pow",
    "series_mul",
    "series_coefficient",
    "ChowParams",
    "EulerValue",
    "v_pn",
    "chow_euler_closed",
    "chow_euler_recursive",
    "chow_euler_series",
    "points_euler_recursive",
    "chow_series",
    "divisor_check",
    "QuaternionicParams",
    "g_invariant_euler",
    "quaternionic_euler_closed",
    "quaternionic_p0_oracle",
    "quaternionic_d1_oracle",
    "sp_euler",
    "VerificationReport",
    "run_suite",
    "__version__",
]
