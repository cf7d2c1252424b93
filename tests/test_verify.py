"""Verification harness: suites pass on honest code and catch planted lies."""

import copy
import importlib
import pickle
import pkgutil
import sys
import typing
from collections import Counter
from types import SimpleNamespace

import pytest

import chowchi
import chowchi.verify as verify_mod
from chowchi import _record, binomials, chow, cli, invariants, series
from chowchi.chow import ChowParams, EulerValue, chow_euler_closed
from chowchi.verify import SUITE_NAMES, VerificationReport, run_suite

from oracles import clear_tables, int_digit_limit, one_too_large, plant


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError, match="^unknown suite 'spectral'; choose from recursion, "
                       "series, quaternionic, base-cases, all$"):
        run_suite("spectral", max_p=2, max_n=3, max_d=4, order=6)


def test_run_suite_rejects_negative_bounds():
    with pytest.raises(ValueError, match="^max_p must be nonnegative, got -1$"):
        run_suite("recursion", max_p=-1, max_n=3, max_d=4, order=6)


def test_elapsed_ms_is_whole_milliseconds_of_the_clock(monkeypatch):
    # a stub clock read twice, 2 s apart; the real time module is left alone
    ticks = iter([10.0, 12.0])
    monkeypatch.setattr(verify_mod, "time", SimpleNamespace(perf_counter=ticks.__next__))
    assert run_suite("base-cases", 0, 0, 0, 0).elapsed_ms == 2000


def test_report_is_a_value(monkeypatch):
    # run_suite builds the report once; no field of it changes afterwards
    recursive = chow.chow_euler_recursive
    plant(monkeypatch, recursive, one_too_large(recursive))
    report = run_suite("recursion", 0, 0, 0, 0)
    assert (report.suite, report.cases_run, report.ok) == ("recursion", 3, False)
    assert report.failures == ({
        "inputs": {"check": "recursive-vs-closed", "p": "0", "n": "0", "d": "0"},
        "expected": {"path": "closed", "value": "1"},
        "actual": {"path": "recursive", "value": "2"},
    },)
    for name in VerificationReport.__slots__:
        with pytest.raises(AttributeError):
            setattr(report, name, getattr(report, name))
        with pytest.raises(AttributeError):
            delattr(report, name)
    # pickling and copying rebuild the report through its four fields
    for clone in (pickle.loads(pickle.dumps(report)), copy.copy(report),
                  copy.deepcopy(report)):
        assert clone == report and clone is not report
    with pytest.raises(TypeError):
        hash(report)    # its failure entries are dicts
    clean = VerificationReport("adhoc", 0, (), 0)
    assert repr(clean) == (
        "VerificationReport(suite='adhoc', cases_run=0, failures=(), elapsed_ms=0)")
    assert clean.ok and hash(clean) == hash(VerificationReport("adhoc", 0, (), 0))


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
        "p0-oracle": 8, "sp-at-nonpositive-chi": 1, "points-recursion": 1,
        "group-invariant-match": 2}),
    "binomial-at-k2-n20-up": _defect(
        binomials.binomial, lambda n, k: k == 2 and n >= 20,
        {"recursive-vs-closed": 5, "series-vs-closed": 5, "ambient-match": 22,
         "group-invariant-match": 5, "sp-at-nonpositive-chi": 1}),
    # every k in verify is at most 60, so the window method never runs
    "window-binomial": _defect(binomials._window_binomial, lambda n, k: True, {}),
    "sp_euler-at-chi30-d2-up": _defect(
        chow.sp_euler, lambda chi, d: chi >= 30 and d >= 2,
        {"recursive-vs-closed": 18, "series-vs-closed": 18, "ambient-match": 171,
         "group-invariant-match": 18}),
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
         "signed-binomial-vs-series": 1, "group-invariant-match": 2,
         "sp-at-nonpositive-chi": 1}),
    # plant() rebinds verify's own name too: a base-case suite that stopped
    # looking the route up per case would miss this row
    "points_euler_recursive-at-2-3": _defect(
        chow.points_euler_recursive, lambda n, d: (n, d) == (2, 3),
        {"points-recursion": 1},
        _entry("base-cases", "points-recursion", {"n": "2", "d": "3"},
               ("binomial", "10"), ("points-recursive", "11"))),
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
    "quaternionic_euler_closed-at-1-3-4": _defect(
        invariants.quaternionic_euler_closed, _at(1, 3, 4), {"ambient-match": 1}),
    # the one row where d1-oracle catches a wrong quaternionic closed form
    "quaternionic_euler_closed-at-1-2-1": _defect(
        invariants.quaternionic_euler_closed, _at(1, 2, 1),
        {"d1-oracle": 1, "ambient-match": 1}),
    # Q_{1,3} is the ambient series of quaternionic n = 2
    "chow_series-closed-at-1-3": _defect(
        chow.chow_series,
        lambda p, n, order, method="closed": (p, n, method) == (1, 3, "closed"),
        {"series-factorization": 4, "ambient-match": 1, "group-invariant-match": 1},
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
    assert failures == ({
        "inputs": {"check": "recursive-vs-closed", "p": "0", "n": "0", "d": "0"},
        "expected": {"path": "closed", "value": "1"},
        "actual": {"path": "recursive", "value": "1" + "0" * 5000},
    },)


# explicit ids: pytest would name an int case by its str()
_RENDERED = [
    *(pytest.param(sign * (10**k + e), id=f"{'-' if sign < 0 else ''}(10^{k}{e:+d})")
      for k in (599, 600, 601, 1199, 1200, 1201) for e in (-1, 0, 1)
      for sign in (1, -1)),
    pytest.param(0, id="zero"), pytest.param(True, id="true"),
    pytest.param(False, id="false"), pytest.param((), id="empty-tuple"),
    pytest.param((10**5000,), id="1-tuple"),
    pytest.param((10**4400 + 7, -(3**9000)), id="2-tuple"),
    pytest.param("adhoc", id="str"),
]


@pytest.mark.parametrize("value", _RENDERED)
def test_decimal_renders_like_str_under_the_least_limit(value):
    # repr, which str matches on ints, bools and tuples of ints; the "str"
    # case pins the fallback for any other value
    with int_digit_limit(0):
        expected = repr(value)
    with int_digit_limit(640):      # the least nonzero limit
        assert _record._decimal(value) == expected
        assert sys.get_int_max_str_digits() == 640


def test_each_case_computes_each_side_once(monkeypatch):
    calls = Counter()

    def counting(name):
        route = getattr(verify_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return route(*args)
        return wrapper

    for name in ("chow_euler_closed", "chow_series", "series_mul",
                 "quaternionic_d1_oracle"):
        monkeypatch.setattr(verify_mod, name, counting(name))
    run_suite("quaternionic", 4, 6, 10, 12)
    # chow_euler_closed in group-invariant-match only; one closed series per
    # (p, n) for ambient-match (42) and for group-invariant-match (28); one d1
    # oracle per (p, n) for both its checks; one product per
    # sp-at-nonpositive-chi case
    assert calls == {"chow_euler_closed": 308, "chow_series": 42 + 28,
                     "quaternionic_d1_oracle": 42, "series_mul": 21}
    calls.clear()
    run_suite("series", 4, 6, 10, 12)
    # series_mul for the closed factorization only; each closed Q_{p,n} once
    # (2 + 3 + ... + 8) and one functional series per factorization case
    assert calls == {"series_mul": 17 * 17 + 21, "chow_series": 35 + 21}


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
    for method in (chow._cell, run_suite, VerificationReport.to_json_dict):
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
    # the whole public surface: a name added or removed is a reviewed edit here
    assert sorted(chowchi.__all__) == [
        "ChowParams", "EulerValue", "QuaternionicParams", "SERIES_CLOSED",
        "SERIES_FUNCTIONAL", "SUITE_NAMES", "TruncatedSeries",
        "VerificationReport", "__version__", "binomial", "chow_euler_closed",
        "chow_euler_recursive", "chow_euler_series", "chow_series",
        "points_euler_recursive", "quaternionic_d1_oracle",
        "quaternionic_euler_closed", "quaternionic_p0_oracle", "run_suite",
        "series_geom_pow", "series_mul", "sp_euler"]
    # the benchmark loads these four modules, calls every callable
    # ``cache_clear`` it finds in them with no arguments, and reads these names
    for module in (binomials, chow, cli, invariants):
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
    for module, name in [
            (chow, "SERIES_FUNCTIONAL"), (chow, "ChowParams"),
            (chow, "chow_euler_closed"), (chow, "chow_euler_recursive"),
            (chow, "chow_series"), (chow, "points_euler_recursive"),
            (invariants, "QuaternionicParams"), (invariants, "quaternionic_euler_closed"),
            (invariants, "sp_euler"), (cli, "build_parser"), (cli, "main")]:
        assert hasattr(module, name), f"{module.__name__}.{name}"
    # its tracer checks that it restored chow's binding of the primitive
    assert chow.binomial is binomials.binomial
