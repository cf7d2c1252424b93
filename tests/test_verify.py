"""Verification harness: suites pass on honest code and catch planted lies."""

import pytest

import chowchi.verify as verify_mod
from chowchi.chow import ChowParams, chow_euler_closed
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
    assert failure.expected_value == "3"
    assert failure.actual_value == "4"
    assert failure.inputs == {"p": "1"}
    assert repr(failure) == (
        "Failure(inputs={'p': '1'}, expected_path='left', expected_value='3', "
        "actual_path='right', actual_value='4')")
    with pytest.raises(AttributeError):
        failure.actual_value = "3"
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
    assert failure.inputs["p"] == "1"
    assert failure.inputs["n"] == "2"
    assert failure.inputs["d"] == "2"
    assert failure.expected_value != failure.actual_value
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
        entry("recursion", "divisor-space", {"p": "1", "d": "2"},
              ("monomial-count", "6"), ("closed", "7")),
        entry("quaternionic", "group-invariant-match", pnd,
              ("chow-closed", "7"), ("group-invariant", "6")),
    ]
    for failure in failures:
        assert list(failure["inputs"])[:2] == ["suite", "check"]


@pytest.mark.parametrize("bounds, counts", [
    ((4, 6, 10, 12), (912, 77, 552, 941, 2482)),
    ((8, 16, 30, 30), (11513, 527, 1088, 14246, 27374)),
])
def test_cases_run_per_suite(bounds, counts):
    names = ("recursion", "base-cases", "series", "quaternionic", "all")
    assert [run_suite(name, *bounds).cases_run for name in names] == list(counts)
