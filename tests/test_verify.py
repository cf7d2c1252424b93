"""Verification harness: suites pass on honest code and catch planted lies."""

import importlib
import pkgutil
import typing
from collections import Counter

import pytest

import chowchi
import chowchi.verify as verify_mod
from chowchi import _tables, chow
from chowchi.chow import ChowParams, chow_euler_closed
from chowchi.series import TruncatedSeries, series_mul
from chowchi.verify import SUITE_NAMES, VerificationReport, run_suite


def test_suite_names_cover_dispatch():
    for name in SUITE_NAMES:
        report = run_suite(name, max_p=2, max_n=3, max_d=4, order=6)
        assert report.ok
        assert report.cases_run > 0


def test_recursion_suite_small():
    report = run_suite("recursion", max_p=2, max_n=3, max_d=4, order=6)
    assert report.ok
    assert report.suite == "recursion"
    assert report.failures == []


def test_base_cases_suite_small():
    report = run_suite("base-cases", max_p=2, max_n=3, max_d=4, order=6)
    assert report.ok
    assert report.cases_run == 4 * 5


def test_series_suite_small():
    report = run_suite("series", max_p=2, max_n=3, max_d=4, order=6)
    assert report.ok


def test_quaternionic_suite_small():
    report = run_suite("quaternionic", max_p=2, max_n=3, max_d=4, order=6)
    assert report.ok


def test_all_suites_aggregates():
    combined = run_suite("all", max_p=2, max_n=3, max_d=4, order=6)
    parts = [run_suite(name, max_p=2, max_n=3, max_d=4, order=6)
             for name in ("recursion", "base-cases", "series", "quaternionic")]
    assert combined.cases_run == sum(part.cases_run for part in parts)
    assert combined.ok


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


def test_recursion_suite_catches_lying_closed_form(monkeypatch):
    honest = chow_euler_closed

    def lying(params):
        value = honest(params)
        if (params.p, params.n, params.d) == (1, 2, 2):
            return type(value)(chi=value.chi + 1, method=value.method)
        return value

    monkeypatch.setattr(verify_mod, "chow_euler_closed", lying)
    report = run_suite("recursion", max_p=2, max_n=3, max_d=4, order=6)
    assert not report.ok
    assert len(report.failures) > 0
    failure = report.failures[0]
    assert failure["inputs"]["p"] == "1"
    assert failure["inputs"]["n"] == "2"
    assert failure["inputs"]["d"] == "2"
    assert failure["expected"]["value"] != failure["actual"]["value"]
    payload = report.to_json_dict()
    entry = payload["failures"][0]
    assert set(entry) == {"inputs", "expected", "actual"}
    assert set(entry["expected"]) == {"path", "value"}


def test_lying_path_does_not_leak(monkeypatch):
    # The monkeypatch above must not poison later honest runs.
    report = run_suite("recursion", max_p=2, max_n=3, max_d=4, order=6)
    assert report.ok
    assert chow_euler_closed(ChowParams(1, 2, 2)).chi == 6


def test_all_labels_failures_with_their_suite(monkeypatch):
    honest = chow_euler_closed

    def lying(params):
        value = honest(params)
        if (params.p, params.n, params.d) == (1, 2, 2):
            return type(value)(chi=value.chi + 1, method=value.method)
        return value

    monkeypatch.setattr(verify_mod, "chow_euler_closed", lying)
    failures = run_suite("all", 2, 3, 4, 6).to_json_dict()["failures"]

    def entry(suite, check, inputs, expected, actual):
        return {"inputs": {"suite": suite, "check": check, **inputs},
                "expected": dict(zip(("path", "value"), expected)),
                "actual": dict(zip(("path", "value"), actual))}

    pnd = {"p": "1", "n": "2", "d": "2"}
    assert failures == [
        entry("recursion", "recursive-vs-closed", pnd, ("closed", "7"), ("recursive", "6")),
        entry("recursion", "series-vs-closed", pnd, ("closed", "7"), ("series", "6")),
        entry("quaternionic", "group-invariant-match", pnd,
              ("chow-closed", "7"), ("group-invariant", "6")),
    ]
    for failure in failures:
        assert list(failure["inputs"])[:2] == ["suite", "check"]


def test_divisor_space_catches_a_lying_recursion(monkeypatch):
    honest = verify_mod.chow_euler_recursive

    def lying(params):
        value = honest(params)
        if (params.p, params.n, params.d) == (1, 2, 2):
            return type(value)(chi=value.chi + 1, method=value.method)
        return value

    monkeypatch.setattr(verify_mod, "chow_euler_recursive", lying)
    failures = run_suite("recursion", 2, 3, 4, 6).to_json_dict()["failures"]
    assert {"inputs": {"check": "divisor-space", "p": "1", "d": "2"},
            "expected": {"path": "monomial-count", "value": "6"},
            "actual": {"path": "recursive", "value": "7"}} in failures


def test_ambient_match_catches_a_wrong_closed_series(monkeypatch):
    honest = verify_mod.chow_series

    def lying(p, n, order, method="closed"):
        s = honest(p, n, order, method)
        if (p, n) == (1, 3):    # Q_{1,3}, the ambient series of quaternionic n = 2
            return TruncatedSeries(s.coeffs[:2] + (s.coeffs[2] + 1,) + s.coeffs[3:])
        return s

    monkeypatch.setattr(verify_mod, "chow_series", lying)
    failures = run_suite("quaternionic", 2, 3, 4, 6).to_json_dict()["failures"]
    assert failures == [{
        "inputs": {"check": "ambient-match", "p": "1", "n": "2", "d": "2"},
        "expected": {"path": "closed-series", "value": "22"},
        "actual": {"path": "quaternionic-closed", "value": "21"},
    }]


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


def clear_tables():
    for table in (chow._SUSPENSION, chow._FUNCTIONAL):
        table.cache_clear()


def test_functional_factorization_catches_a_product_both_sides_share(monkeypatch):
    # The functional table multiplies with chow.series_mul; a check that
    # multiplied the same two cells again would agree with any product.
    def wrong(a, b):
        s = series_mul(a, b)
        return TruncatedSeries(s.coeffs[:-1] + (s.coeffs[-1] + 1,))

    monkeypatch.setattr(chow, "series_mul", wrong)
    monkeypatch.setattr(verify_mod, "series_mul", wrong)
    clear_tables()
    try:
        report = run_suite("series", 2, 3, 4, 6)
    finally:
        clear_tables()
    functional = [(f["inputs"]["p"], f["inputs"]["n"],
                   f["expected"]["path"], f["actual"]["path"])
                  for f in report.failures if f["inputs"].get("method") == "functional"]
    assert functional == [(str(p), str(n), "closed-series", "functional")
                          for n in range(1, 4) for p in range(n)]


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
    # group-invariant-match only; one d1 oracle per (p, n) for both its checks
    assert calls == {"chow_euler_closed": 308, "quaternionic_d1_oracle": 42}
    calls.clear()
    run_suite("series", 4, 6, 10, 12)
    assert calls == {"series_mul": 17 * 17 + 21}  # closed factorization only


@pytest.mark.parametrize("bounds, counts", [
    ((4, 6, 10, 12), (912, 77, 552, 941, 2482)),
    ((8, 16, 30, 30), (11513, 527, 1088, 14246, 27374)),
    ((0, 0, 0, 0), (3, 1, 306, 22, 332)),
    ((1, 2, 3, 4), (71, 12, 380, 89, 552)),
    ((5, 3, 7, 9), (270, 32, 471, 245, 1018)),
    ((2, 8, 4, 3), (436, 45, 429, 790, 1700)),
])
def test_cases_run_per_suite(bounds, counts):
    names = ("recursion", "base-cases", "series", "quaternionic", "all")
    assert [run_suite(name, *bounds).cases_run for name in names] == list(counts)


def test_annotations_resolve():
    for method in (_tables.GridTable.__init__, _tables.GridTable.cell,
                   VerificationReport.check, VerificationReport.to_json_dict):
        assert typing.get_type_hints(method)


def test_every_export_resolves():
    modules = [chowchi] + [importlib.import_module(f"chowchi.{info.name}")
                           for info in pkgutil.iter_modules(chowchi.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    namespace = {}
    exec("from chowchi import *", namespace)
    assert set(chowchi.__all__) <= set(namespace)
