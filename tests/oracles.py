"""Helpers shared by several test modules: independent expansion oracles,
the reset of the two route tables, and a route that lies by one."""

from chowchi.chow import EulerValue, chow_euler_recursive, chow_series
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


def lie(monkeypatch, module, name, at=None):
    """Rebind ``module.name``, a route taking ``ChowParams``, to one whose
    answer is one too large at the (p, n, d) triple ``at``, or at every
    input when ``at`` is None."""
    honest = getattr(module, name)

    def lying(params):
        value = honest(params)
        if at is None or (params.p, params.n, params.d) == at:
            return EulerValue(value.chi + 1)
        return value

    monkeypatch.setattr(module, name, lying)
