"""Helpers shared by several test modules: independent expansion oracles,
the reset of the two route tables, planted defects, the int-to-str digit
limit, and the one in-process CLI runner.

``cli_run(argv)`` returns ``(exit code, stdout, stderr)`` of one
``chowchi.cli.main(argv)`` call at 80 columns; argparse's ``SystemExit``
(``--help``, a usage error) becomes the exit code, and a verify report's
``elapsed_ms`` value is masked as ``"#"`` by ``mask_elapsed``, which a
subprocess's stdout goes through too.
"""

import contextlib
import functools
import io
import os
import re
import sys
from unittest import mock

from chowchi.chow import EulerValue, chow_euler_recursive, chow_series
from chowchi.cli import main
from chowchi.series import TruncatedSeries, series_geom_pow, series_mul


def one_minus_t_pow(m: int, order: int) -> TruncatedSeries:
    """(1 - t)^m for m >= 0, by literally multiplying the factors."""
    assert m >= 0
    factor = TruncatedSeries([1, -1] + [0] * (order - 1)) if order >= 1 \
        else TruncatedSeries([1])
    result = TruncatedSeries([1] + [0] * order)
    for _ in range(m):
        result = series_mul(result, factor)
    return result


def expand_inv_one_minus_t(a: int, order: int) -> tuple[int, ...]:
    """Coefficients of (1 - t)^(-a) for any integer a, built without the
    signed binomial: a geometric power for a >= 0, an explicit polynomial
    power of (1 - t) for a < 0."""
    if a >= 0:
        return series_geom_pow(a, order).coeffs
    return one_minus_t_pow(-a, order).coeffs


def clear_tables():
    """Empty the suspension and functional tables of ``chowchi.chow``."""
    chow_euler_recursive.cache_clear()
    chow_series.cache_clear()


@contextlib.contextmanager
def int_digit_limit(limit: int):
    """Set the interpreter's int-to-str digit limit, and restore it on exit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def plant(monkeypatch, fn, wrong):
    """Rebind ``fn`` to ``wrong`` in every loaded chowchi module, the package
    included; ``wrong`` takes ``fn``'s attributes, ``cache_clear`` too."""
    wrong = functools.wraps(fn)(wrong)
    bound = [(module, name) for key, module in list(sys.modules.items())
             if key.partition(".")[0] == "chowchi"
             for name, value in vars(module).items() if value is fn]
    assert bound, fn
    for module, name in bound:
        monkeypatch.setattr(module, name, wrong)


def one_too_large(fn, at=lambda *args, **kwargs: True):
    """``fn`` answering one too large wherever ``at`` holds of its arguments:
    an int or ``EulerValue`` by one, a ``TruncatedSeries`` in its last term."""
    def wrong(*args, **kwargs):
        value = fn(*args, **kwargs)
        if not at(*args, **kwargs):
            return value
        if isinstance(value, TruncatedSeries):
            return TruncatedSeries(value.coeffs[:-1] + (value.coeffs[-1] + 1,))
        return EulerValue(value.chi + 1) if isinstance(value, EulerValue) else value + 1
    return wrong


def mask_elapsed(stdout: str) -> str:
    """``stdout`` with each ``elapsed_ms`` value, the CLI's one varying
    output, replaced by ``"#"``."""
    return re.sub(r'"elapsed_ms": "\d+"', '"elapsed_ms": "#"', stdout)


def cli_run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, masked stdout, stderr) of ``main(argv)`` in process."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps help and usage to the terminal; pin one width
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, mask_elapsed(out.getvalue()), err.getvalue()
