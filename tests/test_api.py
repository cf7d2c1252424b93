"""Library calls: every example and every rejection, one row each.

A row of ``API`` is ``name: ((fn, *args), want)``.  Either ``fn(*args)``
returns ``want``, equal to it and with the same repr (so a bool argument
comes back a plain int), or ``want`` is ``Raises(type, message)`` and the
call raises ``type`` whose whole text is ``message``; ``message`` is ``None``
only for Python's own ``TypeError`` text, which ``operator.index`` gives a
float or a string.  A value a doctest already shows is not repeated here.
"""

import math
import re
from typing import NamedTuple

import pytest

from chowchi import (
    ChowParams, EulerValue, QuaternionicParams, TruncatedSeries, binomial,
    chow_euler_closed, chow_euler_recursive, chow_series,
    points_euler_recursive, quaternionic_d1_oracle, quaternionic_euler_closed,
    quaternionic_p0_oracle, run_suite, series_geom_pow, series_mul, sp_euler)


class Raises(NamedTuple):
    type: type
    message: str | None


def bad(message):
    """A ``ValueError`` whose whole text is ``message``."""
    return Raises(ValueError, message)


NOT_AN_INT = Raises(TypeError, None)
# 10^5000 and its text, spelled out: str() of it would meet the digit limit
BIG, BIG_TEXT = 10**5000, "1" + "0" * 5000

API = {
    "binomial-0-0": ((binomial, 0, 0), 1),
    "binomial-negative-n": ((binomial, -1, 0),
                            bad("upper argument must be nonnegative, got n=-1")),
    # every nonnegative argument is indexed before its sign is read, so a
    # float is a TypeError whatever its sign, even where a negative int is 0
    "binomial-negative-float-n": ((binomial, -1.0, 0), NOT_AN_INT),
    "binomial-float-n-negative-k": ((binomial, 5.0, -1), NOT_AN_INT),
    "binomial-negative-float-k": ((binomial, 5, -1.0), NOT_AN_INT),
    # records pass each field through operator.index: no float reaches a route,
    # nor the point count or the two quaternionic oracles, which validate
    # through them
    "chow-params-p-above-n": ((ChowParams, 2, 1, 0),
                              bad("require 0 <= p <= n, got p=2, n=1")),
    "chow-params-negative-p": ((ChowParams, -1, 3, 0),
                               bad("require 0 <= p <= n, got p=-1, n=3")),
    "chow-params-negative-d": ((ChowParams, 1, 3, -1),
                               bad("degree must be nonnegative, got d=-1")),
    "chow-params-float-n": ((ChowParams, 2, 2.0, 3), NOT_AN_INT),
    "chow-params-float-p": ((ChowParams, 1.0, 2, 3), NOT_AN_INT),
    "chow-params-float-d": ((ChowParams, 1, 2, 3.0), NOT_AN_INT),
    "chow-params-str-p": ((ChowParams, "1", 2, 3), NOT_AN_INT),
    "chow-params-bool-p": ((ChowParams, True, 2, 3), ChowParams(1, 2, 3)),
    "quaternionic-params-n-0": ((QuaternionicParams, 0, 0, 1),
                                bad("quaternionic dimension must be >= 1, got n=0")),
    "quaternionic-params-p-above-2n-1": ((QuaternionicParams, 2, 1, 0),
                                         bad("require 0 <= p <= 2n-1, got p=2 with n=1")),
    "quaternionic-params-negative-p": ((QuaternionicParams, -1, 2, 0),
                                       bad("require 0 <= p <= 2n-1, got p=-1 with n=2")),
    "quaternionic-params-negative-d": ((QuaternionicParams, 1, 2, -1),
                                       bad("degree must be nonnegative, got d=-1")),
    "quaternionic-params-float-n": ((QuaternionicParams, 1, 2.0, 3), NOT_AN_INT),
    "quaternionic-params-float-p": ((QuaternionicParams, 1.0, 2, 3), NOT_AN_INT),
    "quaternionic-params-float-d": ((QuaternionicParams, 1, 2, 3.0), NOT_AN_INT),
    "series-float-coefficient": ((TruncatedSeries, [1, 2.0]), NOT_AN_INT),
    "series-fraction-coefficient": ((TruncatedSeries, [1, 0.9]), NOT_AN_INT),
    "series-str-coefficient": ((TruncatedSeries, [1, "3"]), NOT_AN_INT),
    "series-empty": ((TruncatedSeries, []),
                     bad("a series carries at least its constant coefficient")),
    # chow
    "sp_euler-negative-chi-odd-d": ((sp_euler, -2, 1), -2),
    "sp_euler-chi-1": ((sp_euler, 1, 7), 1),
    "sp_euler-negative-d": ((sp_euler, 3, -1), bad("degree must be nonnegative, got d=-1")),
    "sp_euler-negative-float-d": ((sp_euler, 3, -0.5), NOT_AN_INT),
    # a loop over the d factors would take seconds at this degree
    "sp_euler-5-200000": ((sp_euler, 5, 200000), math.comb(200004, 200000)),
    "sp_euler-minus-5-200000": ((sp_euler, -5, 200000), 0),
    "sp_euler-minus-200000-5": ((sp_euler, -200000, 5), -math.comb(200000, 5)),
    "closed-3-3-0": ((chow_euler_closed, ChowParams(3, 3, 0)), EulerValue(1)),
    "closed-3-3-1": ((chow_euler_closed, ChowParams(3, 3, 1)), EulerValue(1)),
    "closed-3-3-5": ((chow_euler_closed, ChowParams(3, 3, 5)), EulerValue(1)),
    "recursive-1-3-3": ((chow_euler_recursive, ChowParams(1, 3, 3)), EulerValue(56)),
    "points-negative-n": ((points_euler_recursive, -1, 2),
                          bad("require 0 <= p <= n, got p=0, n=-1")),
    "points-negative-d": ((points_euler_recursive, 2, -1),
                          bad("degree must be nonnegative, got d=-1")),
    "points-float-n": ((points_euler_recursive, 2.0, 3), NOT_AN_INT),
    "chow_series-p-above-n": ((chow_series, 3, 2, 4),
                              bad("require 0 <= p <= n, got p=3, n=2")),
    "chow_series-negative-order": ((chow_series, 1, 2, -1),
                                   bad("order must be nonnegative, got -1")),
    "chow_series-unknown-method": ((chow_series, 1, 2, 4, "magic"),
                                   bad("unknown series method 'magic'")),
    "chow_series-closed-float-n": ((chow_series, 1, 2.0, 3, "closed"), NOT_AN_INT),
    "chow_series-closed-float-p": ((chow_series, 1.0, 2, 3, "closed"), NOT_AN_INT),
    "chow_series-functional-float-n": ((chow_series, 1, 2.0, 3, "functional"), NOT_AN_INT),
    "chow_series-functional-float-p": ((chow_series, 1.0, 2, 3, "functional"), NOT_AN_INT),
    "chow_series-closed-negative-float-order": (
        (chow_series, 0, 1, -0.5, "closed"), NOT_AN_INT),
    "chow_series-functional-negative-float-order": (
        (chow_series, 0, 1, -0.5, "functional"), NOT_AN_INT),
    # invariants
    "quaternionic-3-2-4": ((quaternionic_euler_closed, QuaternionicParams(3, 2, 4)), 1),
    "quaternionic-1-2-2": ((quaternionic_euler_closed, QuaternionicParams(1, 2, 2)), 21),
    "p0-oracle-n-0": ((quaternionic_p0_oracle, 0, 2),
                      bad("quaternionic dimension must be >= 1, got n=0")),
    "p0-oracle-negative-d": ((quaternionic_p0_oracle, 2, -1),
                             bad("degree must be nonnegative, got d=-1")),
    "p0-oracle-float-n": ((quaternionic_p0_oracle, 2.0, 3), NOT_AN_INT),
    "d1-oracle-1-1": ((quaternionic_d1_oracle, 1, 1), 1),
    "d1-oracle-p-above-2n-1": ((quaternionic_d1_oracle, 2, 1),
                               bad("require 0 <= p <= 2n-1, got p=2 with n=1")),
    "d1-oracle-negative-p": ((quaternionic_d1_oracle, -1, 1),
                             bad("require 0 <= p <= 2n-1, got p=-1 with n=1")),
    "d1-oracle-n-0": ((quaternionic_d1_oracle, 0, 0),
                      bad("quaternionic dimension must be >= 1, got n=0")),
    "d1-oracle-float-n": ((quaternionic_d1_oracle, 1, 2.0), NOT_AN_INT),
    # series; m = 2.5 would give (1, 2.0, 3.0, 4.0), equal to the series for m = 2
    "geom-pow-float-exponent": ((series_geom_pow, 2.5, 3), NOT_AN_INT),
    "geom-pow-whole-float-exponent": ((series_geom_pow, 2.0, 3), NOT_AN_INT),
    "geom-pow-negative-float-order": ((series_geom_pow, 3, -0.5), NOT_AN_INT),
    "geom-pow-negative-exponent": ((series_geom_pow, -1, 3),
                                   bad("exponent must be nonnegative, got -1")),
    "geom-pow-negative-order": ((series_geom_pow, 3, -1),
                                bad("order must be nonnegative, got -1")),
    "mul-ones": ((series_mul, TruncatedSeries([1, 1, 1]), TruncatedSeries([1, 1, 1])),
                 TruncatedSeries([1, 2, 3])),
    "mul-geom-pows": ((series_mul, series_geom_pow(3, 4), series_geom_pow(3, 4)),
                      series_geom_pow(6, 4)),
    "mul-order-mismatch": (
        (series_mul, TruncatedSeries([1, 1]), TruncatedSeries([1, 1, 1])),
        bad("series order mismatch: 1 != 2")),
    # verify; its bounds pass through operator.index, whether or not the
    # suite reads them
    "run_suite-unknown-name": (
        (run_suite, "spectral", 2, 3, 4, 6),
        bad("unknown suite 'spectral'; choose from recursion, series, quaternionic, "
            "base-cases, all")),
    "run_suite-negative-max_p": ((run_suite, "recursion", -1, 3, 4, 6),
                                 bad("max_p must be nonnegative, got -1")),
    "run_suite-float-unread-order": ((run_suite, "base-cases", 0, 0, 0, 0.5), NOT_AN_INT),
    "run_suite-float-max_p": ((run_suite, "recursion", 1.0, 1, 1, 1), NOT_AN_INT),
    # a 5,001-digit argument is rejected in its domain words with the int in
    # full, at any int-to-str limit, never with the limit's own message
    "binomial-huge-negative-n": (
        (binomial, -BIG, 0), bad(f"upper argument must be nonnegative, got n=-{BIG_TEXT}")),
    "chow-params-huge-p": (
        (ChowParams, BIG, 0, 0), bad(f"require 0 <= p <= n, got p={BIG_TEXT}, n=0")),
    "chow-params-huge-negative-n": (
        (ChowParams, 0, -BIG, 0), bad(f"require 0 <= p <= n, got p=0, n=-{BIG_TEXT}")),
    "chow-params-huge-negative-d": (
        (ChowParams, 0, 1, -BIG), bad(f"degree must be nonnegative, got d=-{BIG_TEXT}")),
    "sp_euler-huge-negative-d": (
        (sp_euler, 3, -BIG), bad(f"degree must be nonnegative, got d=-{BIG_TEXT}")),
    "chow_series-huge-negative-order": (
        (chow_series, 0, 1, -BIG), bad(f"order must be nonnegative, got -{BIG_TEXT}")),
    "quaternionic-params-huge-negative-n": (
        (QuaternionicParams, 0, -BIG, 0),
        bad(f"quaternionic dimension must be >= 1, got n=-{BIG_TEXT}")),
    "quaternionic-params-huge-p": (
        (QuaternionicParams, BIG, 1, 0),
        bad(f"require 0 <= p <= 2n-1, got p={BIG_TEXT} with n=1")),
    "quaternionic-params-huge-n": (
        (QuaternionicParams, -1, BIG, 0),
        bad(f"require 0 <= p <= 2n-1, got p=-1 with n={BIG_TEXT}")),
    "quaternionic-params-huge-negative-d": (
        (QuaternionicParams, 0, 1, -BIG),
        bad(f"degree must be nonnegative, got d=-{BIG_TEXT}")),
    "geom-pow-huge-negative-exponent": (
        (series_geom_pow, -BIG, 2), bad(f"exponent must be nonnegative, got -{BIG_TEXT}")),
    "geom-pow-huge-negative-order": (
        (series_geom_pow, 2, -BIG), bad(f"order must be nonnegative, got -{BIG_TEXT}")),
    "run_suite-huge-negative-max_p": (
        (run_suite, "all", -BIG), bad(f"max_p must be nonnegative, got -{BIG_TEXT}")),
}


@pytest.mark.parametrize("name", list(API))
def test_api(name):
    (fn, *args), want = API[name]
    if isinstance(want, Raises):
        match = None if want.message is None else f"^{re.escape(want.message)}$"
        with pytest.raises(want.type, match=match):
            fn(*args)
    else:
        got = fn(*args)
        assert (got, repr(got)) == (want, repr(want))
