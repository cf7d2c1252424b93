"""End-to-end CLI behaviour through in-process main() calls."""

import contextlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chowchi
import chowchi.cli as cli_mod
import chowchi.verify as verify_mod
from chowchi.cli import EXIT_BROKEN_PIPE, EXIT_INTERNAL_ERROR, build_parser, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def unlimited_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_chow_all_methods_agree(capsys):
    code, out, _ = run_cli(
        capsys, ["chow", "--p", "1", "--n", "2", "--d", "2", "--method", "all"])
    assert code == 0
    payload = json.loads(out)
    assert payload["query"]["subcommand"] == "chow"
    assert payload["query"]["params"] == {
        "p": "1", "n": "2", "d": "2", "method": "all"}
    assert [r["method"] for r in payload["results"]] \
        == ["closed", "recursive", "series"]
    assert {r["value"] for r in payload["results"]} == {"6"}
    assert payload["match"] is True


def test_chow_default_method_is_closed(capsys):
    code, out, _ = run_cli(capsys, ["chow", "--p", "3", "--n", "3", "--d", "9"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == [{"method": "closed", "value": "1"}]
    assert "match" not in payload


def test_chow_csv_output(capsys):
    code, out, _ = run_cli(
        capsys,
        ["chow", "--p", "1", "--n", "2", "--d", "2",
         "--method", "all", "--format", "csv"])
    assert code == 0
    assert out == "method,value\nclosed,6\nrecursive,6\nseries,6\nmatch,true\n"


def test_chow_large_value_survives_json(capsys):
    code, out, _ = run_cli(capsys, ["chow", "--p", "1", "--n", "8", "--d", "12"])
    assert code == 0
    payload = json.loads(out)
    value = payload["results"][0]["value"]
    assert isinstance(value, str)
    assert int(value) == math.comb(math.comb(9, 2) + 11, 12)


def test_chow_value_over_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, ["chow", "--p", "5", "--n", "20", "--d", "10000"])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit    # restored after the command
    with unlimited_int_digits():
        expected = str(math.comb(math.comb(21, 6) + 9999, 10000))
    assert len(expected) > 4300
    assert json.loads(out)["results"] == [{"method": "closed", "value": expected}]


def test_table_values_over_digit_limit(capsys):
    code, out, _ = run_cli(
        capsys, ["table", "--p", "10", "--n", "40", "--max-d", "650", "--format", "csv"])
    assert code == 0
    v = math.comb(41, 11)
    with unlimited_int_digits():
        rows = [f"{d},{math.comb(v + d - 1, d)}" for d in range(651)]
    assert out == "\n".join(["d,chi", *rows]) + "\n"


def test_recursive_route_past_recursion_limit(capsys):
    code, out, _ = run_cli(
        capsys, ["chow", "--p", "1", "--n", "1200", "--d", "3", "--method", "recursive"])
    assert code == 0
    value = json.loads(out)["results"][0]["value"]
    assert value == str(math.comb(math.comb(1201, 2) + 2, 3))


def test_series_json(capsys):
    code, out, _ = run_cli(capsys, ["series", "--p", "2", "--n", "2", "--order", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == [{"method": "closed", "value": ["1", "1", "1"]}]


def test_series_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["series", "--p", "0", "--n", "1", "--order", "3", "--format", "csv"])
    assert code == 0
    assert out == "d,chi\n0,1\n1,2\n2,3\n3,4\n"


def test_series_functional_method(capsys):
    code, out, _ = run_cli(
        capsys,
        ["series", "--p", "1", "--n", "2", "--order", "2",
         "--method", "functional"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["value"] == ["1", "3", "6"]


def test_quaternionic_p0_oracle(capsys):
    code, out, _ = run_cli(
        capsys,
        ["quaternionic", "--p", "0", "--qn", "1", "--d", "2", "--oracle", "auto"])
    assert code == 0
    payload = json.loads(out)
    assert [r["method"] for r in payload["results"]] == ["closed", "oracle-p0"]
    assert {r["value"] for r in payload["results"]} == {"3"}
    assert payload["match"] is True


def test_quaternionic_d1_oracle(capsys):
    code, out, _ = run_cli(
        capsys,
        ["quaternionic", "--p", "1", "--qn", "2", "--d", "1", "--oracle", "auto"])
    assert code == 0
    payload = json.loads(out)
    assert [r["method"] for r in payload["results"]] == ["closed", "oracle-d1"]
    assert {r["value"] for r in payload["results"]} == {"6"}
    assert payload["match"] is True


def test_quaternionic_both_oracles_apply(capsys):
    code, out, _ = run_cli(
        capsys,
        ["quaternionic", "--p", "0", "--qn", "3", "--d", "1", "--oracle", "auto"])
    assert code == 0
    payload = json.loads(out)
    assert [r["method"] for r in payload["results"]] \
        == ["closed", "oracle-p0", "oracle-d1"]
    assert payload["match"] is True


def test_quaternionic_no_oracle_applies(capsys):
    code, out, _ = run_cli(
        capsys,
        ["quaternionic", "--p", "1", "--qn", "2", "--d", "2", "--oracle", "auto"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 1
    assert "match" not in payload
    assert "oracle" in payload["note"]


def test_quaternionic_default_skips_oracle(capsys):
    code, out, _ = run_cli(
        capsys, ["quaternionic", "--p", "0", "--qn", "1", "--d", "2"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 1
    assert "note" not in payload


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", "--p", "0", "--n", "1", "--max-d", "4", "--format", "csv"])
    assert code == 0
    assert out == "d,chi\n0,1\n1,2\n2,3\n3,4\n4,5\n"
    # p = n: one cycle in each degree; --max-d 0: the degree-zero row alone
    for argv, expected in (
        (["--p", "2", "--n", "2", "--max-d", "3"], "d,chi\n0,1\n1,1\n2,1\n3,1\n"),
        (["--p", "1", "--n", "3", "--max-d", "0"], "d,chi\n0,1\n"),
    ):
        code, out, _ = run_cli(capsys, ["table", *argv, "--format", "csv"])
        assert code == 0
        assert out == expected, argv


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, ["table", "--p", "1", "--n", "3", "--max-d", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [
        {"d": "0", "chi": "1"},
        {"d": "1", "chi": "6"},
        {"d": "2", "chi": "21"},
    ]


def test_verify_clean_run(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--suite", "base-cases", "--max-n", "3", "--max-d", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "base-cases"
    assert payload["failures"] == []
    assert int(payload["cases_run"]) == 20


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    honest = verify_mod.chow_euler_closed

    def lying(params):
        value = honest(params)
        if (params.p, params.n, params.d) == (1, 2, 2):
            return type(value)(chi=value.chi + 1, method=value.method)
        return value

    monkeypatch.setattr(verify_mod, "chow_euler_closed", lying)
    code, out, _ = run_cli(
        capsys,
        ["verify", "--suite", "recursion",
         "--max-p", "2", "--max-n", "3", "--max-d", "4", "--order", "6"])
    assert code == 1
    payload = json.loads(out)
    assert len(payload["failures"]) > 0
    failure = payload["failures"][0]
    assert failure["inputs"]["p"] == "1"
    assert failure["expected"]["value"] != failure["actual"]["value"]


def test_invalid_parameters_exit_two(capsys):
    code, out, err = run_cli(capsys, ["chow", "--p", "2", "--n", "1", "--d", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("chowchi: error:")
    code, out, err = run_cli(capsys, ["table", "--p", "2", "--n", "1", "--max-d", "3"])
    assert code == 2
    assert out == ""
    assert err == "chowchi: error: require 0 <= p <= n, got p=2, n=1\n"


def test_negative_degree_exits_two(capsys):
    code, _, err = run_cli(capsys, ["table", "--p", "0", "--n", "1", "--max-d", "-1"])
    assert code == 2
    assert "max_d" in err


@pytest.mark.parametrize("exc", [MemoryError(), RuntimeError("table torn")])
def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, exc):
    def broken(params):
        raise exc

    monkeypatch.setattr(cli_mod, "chow_euler_closed", broken)
    code, out, err = run_cli(capsys, ["chow", "--p", "1", "--n", "2", "--d", "2"])
    assert code == EXIT_INTERNAL_ERROR == 70
    assert out == ""
    assert err == f"chowchi: internal error: {type(exc).__name__}: {exc}\n"


def test_unknown_choice_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["chow", "--p", "1", "--n", "2", "--d", "2", "--method", "magic"])
    assert excinfo.value.code == 2


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_parser_prog_name():
    assert build_parser().prog == "chowchi"


@pytest.mark.parametrize("argv", [
    ["chow", "--p", "2", "--n", "4", "--d", "5", "--method", "all"],
    ["series", "--p", "1", "--n", "3", "--order", "8", "--method", "functional"],
    ["table", "--p", "1", "--n", "4", "--max-d", "6", "--format", "csv"],
    ["quaternionic", "--p", "2", "--qn", "2", "--d", "3"],
])
def test_value_commands_are_deterministic(capsys, argv):
    code_a, out_a, _ = run_cli(capsys, argv)
    code_b, out_b, _ = run_cli(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def child_env():
    # run the checkout under test, whether or not PYTHONPATH names it
    src = str(Path(chowchi.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chowchi",
         "chow", "--p", "1", "--n", "2", "--d", "2"],
        capture_output=True, text=True, check=False, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"][0]["value"] == "6"


def test_cli_import_leaves_out_dataclasses():
    # every CLI process pays for what importing the CLI imports; -S skips
    # site, which may load typing on its own
    code = ("import sys; before = set(sys.modules); import chowchi.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'}"
            " & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True, env=child_env())
    assert proc.stdout == "[]\n"


def test_closed_pipe_is_not_a_mismatch():
    # about 140 kB of rows: more than a pipe buffers, so writing them fails
    # once the reader has gone
    with subprocess.Popen(
            [sys.executable, "-m", "chowchi", "table", "--p", "2", "--n", "5",
             "--max-d", "3000", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env()) as proc:
        assert proc.stdout.readline() == "d,chi\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert code == EXIT_BROKEN_PIPE == 141


def test_memory_error_under_a_real_limit_is_an_internal_error():
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 150 * 2**20 if hard == resource.RLIM_INFINITY else min(150 * 2**20, hard)

    def cap_address_space():     # runs in the child, before chowchi starts
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    # 10^8 + 1 coefficients of a geometric series do not fit in 150 MiB
    proc = subprocess.run(
        [sys.executable, "-m", "chowchi", "series", "--p", "0", "--n", "1",
         "--order", "100000000"],
        capture_output=True, text=True, check=False, env=child_env(),
        preexec_fn=cap_address_space, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_INTERNAL_ERROR, "", "chowchi: internal error: MemoryError: \n")
    assert EXIT_INTERNAL_ERROR == 70


# Exact stdout, byte for byte, of one small query of each output shape.
# Three routes, the first closed at 6; filled in with the second route and
# its value, the third route (at 6) and the match flag.
_RESULTS_6 = """\
  "results": [
    {
      "method": "closed",
      "value": "6"
    },
    {
      "method": "%s",
      "value": "%s"
    },
    {
      "method": "%s",
      "value": "6"
    }
  ],
  "match": %s
}
"""
_CHOW_ALL_QUERY = """\
{
  "query": {
    "subcommand": "chow",
    "params": {
      "p": "1",
      "n": "2",
      "d": "2",
      "method": "all"
    }
  },
"""
GOLDEN = {
    "chow-json": (
        ["chow", "--p", "1", "--n", "2", "--d", "2", "--method", "all"],
        _CHOW_ALL_QUERY + _RESULTS_6 % ("recursive", "6", "series", "true")),
    "chow-csv": (
        ["chow", "--p", "1", "--n", "2", "--d", "2", "--method", "all", "--format", "csv"],
        "method,value\nclosed,6\nrecursive,6\nseries,6\nmatch,true\n"),
    "quaternionic-json": (
        ["quaternionic", "--p", "0", "--qn", "3", "--d", "1", "--oracle", "auto"],
        """\
{
  "query": {
    "subcommand": "quaternionic",
    "params": {
      "p": "0",
      "qn": "3",
      "d": "1",
      "oracle": "auto"
    }
  },
""" + _RESULTS_6 % ("oracle-p0", "6", "oracle-d1", "true")),
    "quaternionic-csv": (
        ["quaternionic", "--p", "1", "--qn", "2", "--d", "2", "--oracle", "auto",
         "--format", "csv"],
        "method,value\nclosed,21\n"
        "note,no decomposition oracle applies; oracles cover p=0 and d=1\n"),
    "series-json": (
        ["series", "--p", "1", "--n", "2", "--order", "2"],
        """\
{
  "query": {
    "subcommand": "series",
    "params": {
      "p": "1",
      "n": "2",
      "order": "2",
      "method": "closed"
    }
  },
  "results": [
    {
      "method": "closed",
      "value": [
        "1",
        "3",
        "6"
      ]
    }
  ]
}
"""),
    "series-csv": (
        ["series", "--p", "1", "--n", "2", "--order", "2", "--format", "csv"],
        "d,chi\n0,1\n1,3\n2,6\n"),
    "table-json": (
        ["table", "--p", "1", "--n", "3", "--max-d", "2"],
        """\
{
  "query": {
    "subcommand": "table",
    "params": {
      "p": "1",
      "n": "3",
      "max_d": "2"
    }
  },
  "rows": [
    {
      "d": "0",
      "chi": "1"
    },
    {
      "d": "1",
      "chi": "6"
    },
    {
      "d": "2",
      "chi": "21"
    }
  ]
}
"""),
    "table-csv": (
        ["table", "--p", "1", "--n", "3", "--max-d", "2", "--format", "csv"],
        "d,chi\n0,1\n1,6\n2,21\n"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_stdout(capsys, name):
    argv, expected = GOLDEN[name]
    assert run_cli(capsys, argv) == (0, expected, "")


def test_golden_verify_stdout(capsys):
    code, out, err = run_cli(capsys, ["verify", "--max-n", "2", "--max-d", "2"])
    assert (code, err) == (0, "")
    head, sep, elapsed = out.rpartition('  "elapsed_ms": "')
    assert sep and elapsed[:-4].isdigit() and elapsed[-4:] == '"\n}\n'
    assert head == '{\n  "suite": "all",\n  "cases_run": "663",\n  "failures": [],\n'


def test_golden_mismatch_stdout(capsys, monkeypatch):
    honest = cli_mod.chow_euler_recursive

    def lying(params):
        value = honest(params)
        return type(value)(chi=value.chi + 1, method=value.method)

    monkeypatch.setattr(cli_mod, "chow_euler_recursive", lying)
    argv, _ = GOLDEN["chow-json"]
    assert run_cli(capsys, argv) == (
        1, _CHOW_ALL_QUERY + _RESULTS_6 % ("recursive", "7", "series", "false"), "")
