"""Verification harness: suites pass on honest code and catch planted lies."""

import importlib
import pkgutil
import sys
import threading
import typing
from collections import Counter

import pytest

import chowchi
import chowchi.verify as verify_mod
from chowchi import binomials, chow, cli, invariants, series
from chowchi.chow import ChowParams, EulerValue, chow_euler_closed
from chowchi.series import TruncatedSeries, series_mul
from chowchi.verify import SUITE_NAMES, VerificationReport, run_suite

from oracles import clear_tables, lie


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
    lie(monkeypatch, verify_mod, "chow_euler_closed", at=(1, 2, 2))
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
    lie(monkeypatch, verify_mod, "chow_euler_closed", at=(1, 2, 2))
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


def test_recursion_suite_catches_sp_euler_at_large_chi(monkeypatch):
    # the closed route reads sp_euler, so both convolution routes meet it at
    # every grid v, not only the identity checks of the quaternionic suite
    honest = chow.sp_euler

    def lying(chi, d):
        return honest(chi, d) + (chi >= 30 and d >= 2)

    for module in (chow, invariants, verify_mod):
        monkeypatch.setattr(module, "sp_euler", lying)
    checks = Counter(f["inputs"]["check"] for f in run_suite("recursion").failures)
    assert checks == {"recursive-vs-closed": 18, "series-vs-closed": 18}


def test_divisor_space_catches_a_lying_recursion(monkeypatch):
    lie(monkeypatch, verify_mod, "chow_euler_recursive", at=(1, 2, 2))
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


def test_huge_mismatch_renders_under_the_callers_digit_limit(monkeypatch):
    # a library caller keeps the interpreter's int-to-str limit; a value past
    # it must still be reported, and the caller's limit kept
    monkeypatch.setattr(verify_mod, "chow_euler_recursive",
                        lambda params: EulerValue(10**5000))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        failures = run_suite("recursion", 0, 0, 0, 0).failures
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(limit)
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
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(value)
        sys.set_int_max_str_digits(640)     # the least nonzero limit
        assert verify_mod._decimal(value) == expected
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_digit_lifts_in_many_threads():
    # threads switching every microsecond, each rendering a value past the
    # caller's limit; a str() that met the limit would raise ValueError
    def render(errors):
        try:
            for _ in range(50):
                verify_mod._decimal(10**6000)
        except ValueError as exc:
            errors.append(exc)

    errors = []
    limit = sys.get_int_max_str_digits()
    interval = sys.getswitchinterval()
    sys.set_int_max_str_digits(4321)
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=render, args=(errors,)) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.setswitchinterval(interval)
        sys.set_int_max_str_digits(limit)
    assert errors == []


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
