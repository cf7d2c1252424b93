"""Self-tests of the benchmark: run with ``python3 -m pytest bench -q``."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

MODS = run.load_chowchi()

import chowchi  # noqa: E402  (from the checkout's src/, put on the path above)


def take(workload, seed, n):
    gen = workloads.rounds(workload, seed)
    return [next(gen) for _ in range(n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert take(workload, 7, 3) == take(workload, 7, 3)
    assert take(workload, 7, 3) != take(workload, 8, 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_their_composition(workload):
    def shape(ops):
        return sorted(s.get("cmd", s.get("call")) for s in ops)

    first, *rest = take(workload, 3, 4)
    assert all(shape(ops) == shape(first) for ops in rest)


GRID = [(p, n, d) for n in range(0, 6) for p in range(0, n + 1) for d in (0, 1, 2, 5, 9)]


@pytest.mark.parametrize("p,n,d", GRID)
def test_chow_oracle_agrees_with_every_route(p, n, d):
    params = chowchi.ChowParams(p, n, d)
    want = oracle.chow_chi(p, n, d)
    assert chowchi.chow_euler_closed(params).chi == want
    assert chowchi.chow_euler_recursive(params).chi == want
    assert chowchi.chow_euler_series(params).chi == want
    assert list(chowchi.chow_series(p, n, d, "functional").coeffs) == oracle.chow_coeffs(p, n, d)
    assert chowchi.points_euler_recursive(n, d) == oracle.points_chi(n, d)


@pytest.mark.parametrize("chi", range(-5, 6))
def test_sp_euler_oracle_reflection(chi):
    for d in range(0, 12):
        assert chowchi.sp_euler(chi, d) == oracle.sp_euler(chi, d)


def test_quaternionic_oracle():
    for qn in range(1, 5):
        for p in range(0, 2 * qn):
            for d in (0, 1, 3, 7):
                params = chowchi.QuaternionicParams(p, qn, d)
                assert chowchi.quaternionic_euler_closed(params) == oracle.quaternionic_chi(p, qn, d)


@pytest.mark.parametrize("bounds", [workloads.VERIFY_DEFAULT, (0, 0, 0, 0), (1, 2, 3, 4),
                                    (5, 3, 7, 9), (2, 8, 4, 3)])
def test_verify_case_count(bounds):
    max_p, max_n, max_d, order = bounds
    report = chowchi.run_suite("all", max_p=max_p, max_n=max_n, max_d=max_d, order=order)
    assert report.cases_run == oracle.verify_cases(*bounds)


def cli_answer(spec):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = MODS["cli"].main(workloads.argv(spec))
    return code, buf.getvalue()


def test_every_cli_mix_op_passes_its_oracle():
    for ops in take("cli-mix", 11, 2):
        for spec in ops:
            run.reset_caches(MODS)
            code, out = cli_answer(spec)
            assert run.grade_cli(spec, code, out, ""), workloads.argv(spec)


def test_wrong_value_is_a_failed_op():
    spec = {"cmd": "chow", "p": 1, "n": 3, "d": 2, "method": "all", "format": "csv"}
    code, out = cli_answer(spec)
    assert run.grade_cli(spec, code, out, "")
    assert not run.grade_cli(spec, code, out.replace("21", "22", 1), "")
    assert not run.grade_cli(spec, 1, out, "")
    assert not run.grade_cli(spec, code, out, "Traceback (most recent call last):\n")
    assert not run.grade_cli(spec, code, "not json or csv", "")


def test_wrong_library_answer_is_a_failed_op(monkeypatch):
    spec = {"call": "closed", "args": (2, 5, 7)}
    assert run.run_deep_op(MODS, spec, 10)[1]
    real = MODS["chow"].chow_euler_closed
    monkeypatch.setattr(MODS["chow"], "chow_euler_closed",
                        lambda params: real(chowchi.ChowParams(params.p, params.n, params.d + 1)))
    assert not run.run_deep_op(MODS, spec, 10)[1]


def test_crash_and_timeout_are_failed_ops(monkeypatch):
    def boom(*args):
        raise RecursionError

    monkeypatch.setattr(MODS["chow"], "chow_euler_recursive", boom)
    assert not run.run_deep_op(MODS, {"call": "recursive", "args": (1, 3, 2)}, 10)[1]
    elapsed, ok = run.run_deep_op(MODS, {"call": "sp_euler", "args": (5, 10 ** 6)}, 0.2)
    assert not ok and elapsed < 5


def test_failed_ops_rank_above_successes():
    records = [(0.1, True)] * 9 + [(0.001, False)]
    assert run.quantile(records, 0.9) == 0.1
    assert run.quantile(records, 1.0) == 0.001


def test_known_defect_probes_reach_past_the_digit_limit():
    big, table, recursive = workloads.KNOWN_DEFECTS
    with oracle.unlimited_digits():
        assert len(str(oracle.chow_chi(big["p"], big["n"], big["d"]))) > 4300
        assert len(str(oracle.chow_coeffs(table["p"], table["n"], table["max_d"])[-1])) > 4300
    assert recursive["method"] == "recursive" and recursive["n"] > sys.getrecursionlimit()
    probes, failing = run.run_probes()
    assert probes == 3 and 0 <= failing <= 3


def test_traced_run_names_every_layer():
    rounds = take("cli-mix", 2, 1)
    tracer = Tracer(MODS["binomials"])
    tracer.install()
    try:
        _, failed, out_bytes, rows = run.replay("cli-mix", MODS, rounds, tracer)
    finally:
        tracer.uninstall()
    assert failed == 0
    assert {name.split(".")[0] for name in tracer.span_names()} == set(LAYERS)
    assert MODS["chow"].binomial is chowchi.binomials.binomial   # bindings restored
    metrics = run.per_layer(tracer, rows, out_bytes)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    measured_apart = {"trace.overhead_ratio", "cli.start_ms", "cli.site_ms",
                      "cli.import_ms", "cli.parse_ms", "cli.known_defect_failures"}
    assert set(metrics) | measured_apart == {m["name"] for m in spec["per_layer"]}
    for name in ("verify.cases", "chow.closed_calls", "chow.recursive_calls", "chow.series_calls",
                 "chow.points_calls", "series.mul_calls", "binomials.table_hits",
                 "binomials.signed_calls", "cli.stdout_bytes"):
        assert metrics[name] > 0, name


def test_memo_share_is_an_input_property():
    ops = take("deep-routes", 1, 1)[0]
    shared, total = workloads.memo_shared(ops)
    assert 0 < shared < total
    assert workloads.memo_shared(list(reversed(ops)))[1] == total
