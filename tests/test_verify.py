"""Verification harness: suites pass on honest code and catch planted lies."""

import importlib
import pkgutil
import sys
import typing
from collections import Counter
from types import SimpleNamespace

import pytest

import chowchi
import chowchi.verify as verify_mod
from chowchi import binomials, chow, cli, invariants, series
from chowchi.chow import ChowParams, EulerValue, chow_euler_closed
from chowchi.verify import SUITE_NAMES, VerificationReport, run_suite

from oracles import clear_tables, int_digit_limit, one_too_large, plant


def test_suite_names_cover_dispatch():
    for name in SUITE_NAMES:
        report = run_suite(name, max_p=2, max_n=3, max_d=4, order=6)
        assert report.suite == name
        assert report.ok
        assert report.cases_run > 0


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("spectral", max_p=2, max_n=3, max_d=4, order=6)


def test_run_suite_rejects_negative_bounds():
    with pytest.raises(ValueError):
        run_suite("recursion", max_p=-1, max_n=3, max_d=4, order=6)


def test_report_json_shape():
    report = run_suite("recursion", max_p=1, max_n=2, max_d=3, order=4)
    payload = report.to_json_dict()
    assert payload["suite"] == "recursion"
    assert payload["cases_run"] == str(report.cases_run)
    assert payload["failures"] == []
    assert isinstance(payload["elapsed_ms"], str)
    int(payload["cases_run"])
    int(payload["elapsed_ms"])


def test_elapsed_ms_is_whole_milliseconds_of_the_clock(monkeypatch):
    # a stub clock read twice, 2 s apart; the real time module is left alone
    ticks = iter([10.0, 12.0])
    monkeypatch.setattr(verify_mod, "time", SimpleNamespace(perf_counter=ticks.__next__))
    assert run_suite("base-cases", 0, 0, 0, 0).elapsed_ms == 2000


def test_report_check_records_failure():
    report = VerificationReport(suite="adhoc")
    report.check({"p": "1"}, "left", 3, "right", 4)
    assert not report.ok
    assert report.cases_run == 1
    failure = report.failures[0]
    assert failure["expected"]["value"] == "3"
    assert failure["actual"]["value"] == "4"
    assert failure["inputs"] == {"p": "1"}
    # each report owns its failure list
    fresh = VerificationReport("adhoc")
    assert fresh.failures == [] and fresh.failures is not report.failures
    assert repr(fresh) == (
        "VerificationReport(suite='adhoc', cases_run=0, failures=[], elapsed_ms=0)")
    assert fresh == VerificationReport(suite="adhoc", cases_run=0)
    with pytest.raises(TypeError):
        hash(fresh)     # mutable, so unhashable


def _entry(suite, check, inputs, expected, actual):
    """An ``all`` report's failure entry; each side is a (path, value) pair."""
    return {"inputs": {"suite": suite, "check": check, **inputs},
            "expected": dict(zip(("path", "value"), expected)),
            "actual": dict(zip(("path", "value"), actual))}


def _at(*pnd):
    """A route's inputs, ChowParams or QuaternionicParams, at (p, n, d)."""
    return lambda params: (params.p, params.n, params.d) == pnd


def _grown_one_too_large(grow, cell):
    """A table grower that leaves the last entry of ``cell`` one too large."""
    def wrong(cells, a, b, size):
        grow(cells, a, b, size)
        if (a, b) == cell:
            kept = cells[a, b]
            cells[a, b] = type(kept)([*kept[:-1], kept[-1] + 1])
    return wrong


def _defect(fn, at, caught, entry=None, build=one_too_large):
    return fn, build(fn, at), Counter(caught), entry


_PND = {"p": "1", "n": "2", "d": "2"}
_Q12 = "(1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66, 78, %d)"   # Q_{1,2} at order 12

# The kill matrix: one planted off-by-one per row, the exact Counter of checks
# that then fail under run_suite("all") at the default bounds, and one exact
# failure entry where its shape is pinned.  A changed row means a check
# gained or lost coverage; "none" is the honest run.
_KILLS = {
    "binomial-at-7-3": _defect(binomials.binomial, lambda n, k: (n, k) == (7, 3), {
        "recursive-vs-closed": 27, "series-vs-closed": 12, "pascal-at-degree-one": 2,
        "divisor-space": 1, "series-factorization": 4, "signed-binomial-vs-series": 1,
        "p0-oracle": 8, "sp-at-nonpositive-chi": 1, "points-recursion": 1}),
    "binomial-at-k2-n20-up": _defect(
        binomials.binomial, lambda n, k: k == 2 and n >= 20,
        {"recursive-vs-closed": 5, "series-vs-closed": 5, "ambient-match": 22,
         "sp-at-nonpositive-chi": 1}),
    # every k in verify is at most 60, so the window method never runs
    "window-binomial": _defect(binomials._window_binomial, lambda n, k: True, {}),
    "v_pn-at-1-3": _defect(chow.v_pn, lambda p, n: (p, n) == (1, 3), {
        "recursive-vs-closed": 10, "series-vs-closed": 10, "series-factorization": 4,
        "d1-oracle": 1}),
    "sp_euler-at-chi30-d2-up": _defect(
        chow.sp_euler, lambda chi, d: chi >= 30 and d >= 2,
        {"recursive-vs-closed": 18, "series-vs-closed": 18, "ambient-match": 171}),
    "sp_euler-at-negative-chi": _defect(
        chow.sp_euler, lambda chi, d: chi < 0, {"sp-at-nonpositive-chi": 20}),
    "sp_euler-at-chi0-d15": _defect(
        chow.sp_euler, lambda chi, d: (chi, d) == (0, 15), {"sp-at-nonpositive-chi": 1}),
    # the functional table multiplies with series_mul too; its factorization
    # check meets the closed series, not a second product of the same cells
    "series_mul": _defect(
        series.series_mul, lambda a, b: True,
        {"geom-pow-additivity": 289, "series-factorization": 42,
         "sp-at-nonpositive-chi": 21},
        _entry("series", "series-factorization",
               {"p": "0", "n": "1", "order": "12", "method": "functional"},
               ("closed-series", _Q12 % 91), ("functional", _Q12 % 92))),
    "series_geom_pow-at-m3": _defect(
        series.series_geom_pow, lambda m, order: m == 3,
        {"geom-pow-additivity": 33, "series-factorization": 19,
         "signed-binomial-vs-series": 1, "sp-at-nonpositive-chi": 1}),
    "series_coefficient-at-d2": _defect(
        series.series_coefficient, lambda s, d: d == 2,
        {"signed-binomial-vs-series": 17}),
    # plant() rebinds verify's own name too: a base-case suite that stopped
    # looking the route up per case would miss this row
    "points_euler_recursive-at-2-3": _defect(
        chow.points_euler_recursive, lambda n, d: (n, d) == (2, 3),
        {"points-recursion": 1},
        _entry("base-cases", "points-recursion", {"n": "2", "d": "3"},
               ("binomial", "10"), ("points-recursive", "11"))),
    "divisor_check-at-1-2": _defect(
        chow.divisor_check, lambda p, d: (p, d) == (1, 2), {"divisor-space": 1}),
    "quaternionic_p0_oracle-at-2-3": _defect(
        invariants.quaternionic_p0_oracle, lambda n, d: (n, d) == (2, 3),
        {"p0-oracle": 1}),
    "quaternionic_d1_oracle-at-1-2": _defect(
        invariants.quaternionic_d1_oracle, lambda p, n: (p, n) == (1, 2),
        {"d1-oracle": 1, "d1-vandermonde": 1}),
    "chow_euler_closed-at-1-2-2": _defect(
        chow.chow_euler_closed, _at(1, 2, 2),
        {"recursive-vs-closed": 1, "series-vs-closed": 1, "group-invariant-match": 1},
        _entry("recursion", "recursive-vs-closed", _PND,
               ("closed", "7"), ("recursive", "6"))),
    # past max_p = 4: only group-invariant-match reaches it
    "chow_euler_closed-at-5-6-2": _defect(
        chow.chow_euler_closed, _at(5, 6, 2), {"group-invariant-match": 1}),
    "chow_euler_recursive-at-1-2-2": _defect(
        chow.chow_euler_recursive, _at(1, 2, 2),
        {"recursive-vs-closed": 1, "divisor-space": 1},
        _entry("recursion", "divisor-space", {"p": "1", "d": "2"},
               ("monomial-count", "6"), ("recursive", "7"))),
    # the CLI's --method series route
    "chow_euler_series-at-1-3-2": _defect(
        chow.chow_euler_series, _at(1, 3, 2), {"series-vs-closed": 1}),
    "g_invariant_euler-at-2-3-2": _defect(
        invariants.g_invariant_euler, _at(2, 3, 2), {"group-invariant-match": 1}),
    "quaternionic_euler_closed-at-1-3-4": _defect(
        invariants.quaternionic_euler_closed, _at(1, 3, 4), {"ambient-match": 1}),
    # Q_{1,3} is the ambient series of quaternionic n = 2
    "chow_series-closed-at-1-3": _defect(
        chow.chow_series,
        lambda p, n, order, method="closed": (p, n, method) == (1, 3, "closed"),
        {"series-factorization": 4, "ambient-match": 1},
        _entry("quaternionic", "ambient-match", {"p": "1", "n": "2", "d": "10"},
               ("closed-series", "3004"), ("quaternionic-closed", "3003"))),
    "suspension-edge-0-2": _defect(chow._grow_suspension, (0, 2),
                                   {"recursive-vs-closed": 11},
                                   build=_grown_one_too_large),
    "suspension-inner-1-1": _defect(chow._grow_suspension, (1, 1),
                                    {"recursive-vs-closed": 14, "divisor-space": 5},
                                    build=_grown_one_too_large),
    "functional-edge-0-2": _defect(chow._grow_functional, (0, 2),
                                   {"series-factorization": 15},
                                   build=_grown_one_too_large),
    "functional-inner-1-2": _defect(chow._grow_functional, (1, 2),
                                    {"series-factorization": 15},
                                    build=_grown_one_too_large),
    "none": (None, None, Counter(), None),
}


@pytest.fixture(scope="module")
def kill_matrix():
    """Each row's failing checks and entries; tables are emptied around a row,
    since a planted grower leaves wrong cells behind."""
    matrix = {}
    for name, (fn, wrong, *_) in _KILLS.items():
        clear_tables()
        try:
            with pytest.MonkeyPatch.context() as mp:
                if fn:
                    plant(mp, fn, wrong)
                failures = run_suite("all").failures
        finally:
            clear_tables()
        matrix[name] = Counter(f["inputs"]["check"] for f in failures), failures
    return matrix


@pytest.mark.parametrize("defect", list(_KILLS))
def test_verify_catches_planted_defect(kill_matrix, defect):
    *_, caught, entry = _KILLS[defect]
    counts, failures = kill_matrix[defect]
    matrix = "\n".join(f"{name}: {dict(sorted(c.items()))}"
                       for name, (c, _) in kill_matrix.items())
    assert counts == caught, matrix
    assert entry is None or entry in failures, matrix


def test_lying_path_does_not_leak():
    # No plant above poisons a later honest run.
    report = run_suite("recursion", max_p=2, max_n=3, max_d=4, order=6)
    assert report.ok
    assert chow_euler_closed(ChowParams(1, 2, 2)).chi == 6


def test_all_labels_failures_with_their_suite(monkeypatch):
    plant(monkeypatch, chow_euler_closed, one_too_large(chow_euler_closed, _at(1, 2, 2)))
    failures = run_suite("all", 2, 3, 4, 6).to_json_dict()["failures"]
    assert failures == [
        _entry("recursion", "recursive-vs-closed", _PND, ("closed", "7"), ("recursive", "6")),
        _entry("recursion", "series-vs-closed", _PND, ("closed", "7"), ("series", "6")),
        _entry("quaternionic", "group-invariant-match", _PND,
               ("chow-closed", "7"), ("group-invariant", "6")),
    ]
    for failure in failures:
        assert list(failure["inputs"])[:2] == ["suite", "check"]


def test_huge_mismatch_renders_under_the_callers_digit_limit(monkeypatch):
    # a library caller keeps the interpreter's int-to-str limit; a value past
    # it must still be reported, and the caller's limit kept
    plant(monkeypatch, chow.chow_euler_recursive, lambda params: EulerValue(10**5000))
    with int_digit_limit(4321):
        failures = run_suite("recursion", 0, 0, 0, 0).failures
        assert sys.get_int_max_str_digits() == 4321
    assert failures == [{
        "inputs": {"check": "recursive-vs-closed", "p": "0", "n": "0", "d": "0"},
        "expected": {"path": "closed", "value": "1"},
        "actual": {"path": "recursive", "value": "1" + "0" * 5000},
    }]


# explicit ids: pytest would name an int case by its str()
_RENDERED = [
    *(pytest.param(sign * (10**k + e), id=f"{'-' if sign < 0 else ''}(10^{k}{e:+d})")
      for k in (599, 600, 601, 1199, 1200, 1201) for e in (-1, 0, 1)
      for sign in (1, -1)),
    pytest.param(0, id="zero"), pytest.param(True, id="true"),
    pytest.param(False, id="false"), pytest.param((), id="empty-tuple"),
    pytest.param((10**5000,), id="1-tuple"),
    pytest.param((10**4400 + 7, -(3**9000)), id="2-tuple"),
]


@pytest.mark.parametrize("value", _RENDERED)
def test_decimal_renders_like_str_under_the_least_limit(value):
    with int_digit_limit(0):
        expected = str(value)
    with int_digit_limit(640):      # the least nonzero limit
        assert verify_mod._decimal(value) == expected
        assert sys.get_int_max_str_digits() == 640


def test_base_cases_catch_a_lying_point_recursion(monkeypatch):
    honest = verify_mod.points_euler_recursive

    def lying(n, d):
        return honest(n, d) + ((n, d) == (2, 3))

    monkeypatch.setattr(verify_mod, "points_euler_recursive", lying)
    failures = run_suite("base-cases", 2, 3, 4, 6).to_json_dict()["failures"]
    assert failures == [{
        "inputs": {"check": "points-recursion", "n": "2", "d": "3"},
        "expected": {"path": "binomial", "value": "10"},
        "actual": {"path": "points-recursive", "value": "11"},
    }]


def test_each_case_computes_each_side_once(monkeypatch):
    calls = Counter()

    def counting(name):
        route = getattr(verify_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return route(*args)
        return wrapper

    for name in ("chow_euler_closed", "series_mul", "quaternionic_d1_oracle"):
        monkeypatch.setattr(verify_mod, name, counting(name))
    run_suite("quaternionic", 4, 6, 10, 12)
    # group-invariant-match only; one d1 oracle per (p, n) for both its
    # checks; one product per sp-at-nonpositive-chi case
    assert calls == {"chow_euler_closed": 308, "quaternionic_d1_oracle": 42,
                     "series_mul": 21}
    calls.clear()
    run_suite("series", 4, 6, 10, 12)
    assert calls == {"series_mul": 17 * 17 + 21}  # closed factorization only


# cases run by each of SUITE_NAMES: recursion, series, quaternionic,
# base-cases and all
@pytest.mark.parametrize("bounds, counts", [
    ((4, 6, 10, 12), (912, 552, 941, 77, 2482)),
    ((8, 16, 30, 30), (11513, 1088, 14246, 527, 27374)),
    ((0, 0, 0, 0), (3, 306, 22, 1, 332)),
    ((1, 2, 3, 4), (71, 380, 89, 12, 552)),
    ((5, 3, 7, 9), (270, 471, 245, 32, 1018)),
    ((2, 8, 4, 3), (436, 429, 790, 45, 1700)),
    ((5, 2, 3, 0), (83, 312, 89, 12, 496)),     # max_p above max_n, order 0
    ((0, 3, 0, 5), (21, 403, 70, 4, 498)),      # only p = 0 and d = 0
])
def test_cases_run_per_suite(bounds, counts):
    reports = [run_suite(name, *bounds) for name in SUITE_NAMES]
    assert [(r.suite, r.ok) for r in reports] == [(name, True) for name in SUITE_NAMES]
    assert [r.cases_run for r in reports] == list(counts)


def test_annotations_resolve():
    for method in (chow._cell, VerificationReport.check,
                   VerificationReport.to_json_dict):
        assert typing.get_type_hints(method)


def test_every_export_resolves():
    modules = [chowchi] + [importlib.import_module(f"chowchi.{info.name}")
                           for info in pkgutil.iter_modules(chowchi.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    # each public name is declared once, in its module's ``__all__``, and
    # the top level re-exports exactly those
    assert set(chowchi.__all__) == {"__version__"}.union(*(
        module.__all__ for module in (binomials, series, chow, invariants, verify_mod)))
    namespace = {}
    exec("from chowchi import *", namespace)
    assert set(chowchi.__all__) <= set(namespace)
    # the benchmark loads these four modules, calls every callable
    # ``cache_clear`` it finds in them with no arguments, and reads these names
    for module in (binomials, chow, cli, invariants):
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
    for module, name in [
            (chow, "SERIES_FUNCTIONAL"), (chow, "ChowParams"),
            (invariants, "QuaternionicParams"), (invariants, "quaternionic_euler_closed"),
            (invariants, "sp_euler"), (cli, "build_parser"), (cli, "main")]:
        assert hasattr(module, name), f"{module.__name__}.{name}"
