"""End-to-end CLI behaviour through in-process main() calls."""

import gc
import importlib
import json
import math
import os
import runpy
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import chowchi
import chowchi.cli as cli_mod
import chowchi.verify as verify_mod
from chowchi.chow import chow_euler_closed, chow_euler_recursive
from chowchi.cli import EXIT_BROKEN_PIPE, EXIT_INTERNAL_ERROR

from oracles import cli_run, mask_elapsed, one_too_large, plant


def test_verify_reports_failure_with_exit_one(monkeypatch):
    plant(monkeypatch, chow_euler_closed, one_too_large(
        chow_euler_closed, lambda params: (params.p, params.n, params.d) == (1, 2, 2)))
    code, out, _ = cli_run(
        ["verify", "--suite", "recursion",
         "--max-p", "2", "--max-n", "3", "--max-d", "4", "--order", "6"])
    assert code == 1
    payload = json.loads(out)
    assert len(payload["failures"]) > 0
    failure = payload["failures"][0]
    assert failure["inputs"]["p"] == "1"
    assert failure["expected"]["value"] != failure["actual"]["value"]


@pytest.mark.parametrize("argv, passed", [
    (["verify"], {"name": "all"}),
    (["verify", "--order", "3", "--max-p", "2"], {"name": "all", "order": 3, "max_p": 2}),
], ids=["no-bounds", "two-bounds"])
def test_verify_passes_only_typed_bounds(monkeypatch, argv, passed):
    # the default bounds are run_suite's own; the CLI states none of them
    calls = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return verify_mod.VerificationReport("all", 0, (), 0)

    monkeypatch.setattr(cli_mod, "run_suite", recorder)
    code, _, err = cli_run(argv)
    assert (code, err) == (0, "")
    assert calls == [((), passed)]


@pytest.mark.parametrize("exc", [MemoryError(), RuntimeError("table torn")])
def test_unexpected_exception_is_an_internal_error(monkeypatch, exc):
    def broken(params):
        raise exc

    plant(monkeypatch, chow_euler_closed, broken)
    code, out, err = cli_run(["chow", "--p", "1", "--n", "2", "--d", "2"])
    assert code == EXIT_INTERNAL_ERROR == 70
    assert out == ""
    assert err == f"chowchi: internal error: {type(exc).__name__}: {exc}\n"


def child_env():
    # run the checkout under test, whether or not PYTHONPATH names it
    src = str(Path(chowchi.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.parametrize("name", [
    "help", "chow-p-above-n", "chow-json", "verify-small-bounds",
], ids=["help", "usage-error", "chow-all", "verify"])
def test_module_entry_matches_main(name):
    # python -m chowchi prints the golden bytes that main() does
    argv, *expected = GOLDEN[name]
    proc = subprocess.run([sys.executable, "-m", "chowchi", *argv],
                          capture_output=True, text=True, check=False,
                          env={**child_env(), "COLUMNS": "80"})
    assert [proc.returncode, mask_elapsed(proc.stdout), proc.stderr] == expected


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["chow", "--p", "1", "--n", "2", "--d", "2"], 0),
    (["chow", "--p", "3", "--n", "1", "--d", "2"], 2),
], ids=["help", "chow", "usage-error"])
def test_module_entry_freezes_the_heap_once(capsys, monkeypatch, argv, code):
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    monkeypatch.setattr(sys, "argv", ["chowchi", *argv])
    # runpy warns when it re-runs a module that is already imported
    monkeypatch.delitem(sys.modules, "chowchi.__main__", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module("chowchi", run_name="__main__")
    capsys.readouterr()
    assert (excinfo.value.code, frozen) == (code, [True])


def test_main_never_freezes_the_heap():
    before = gc.get_freeze_count()
    for argv in (["chow", "--p", "1", "--n", "2", "--d", "2", "--method", "all"],
                 ["series", "--p", "1", "--n", "2", "--order", "4", "--format", "csv"],
                 ["chow", "--p", "3", "--n", "1", "--d", "2"],
                 ["verify", "--max-n", "2", "--max-d", "2"]):
        cli_run(argv)
    assert gc.get_freeze_count() == before


def test_console_script_is_the_module_entry():
    import chowchi.__main__ as entry

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, name = scripts["chowchi"].partition(":")
    assert getattr(importlib.import_module(module), name) is entry.run


def test_chow_without_a_digit_limit(monkeypatch):
    # no chowchi code reads the int-to-str digit limit, so the CLI runs the
    # same with the limit API gone
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert cli_run(["chow", "--p", "1", "--n", "2", "--d", "2", "--format", "csv"]) \
        == (0, "method,value\nclosed,6\n", "")


def test_cli_import_leaves_out_dataclasses():
    # every CLI process pays for what importing the CLI imports; -S skips
    # site, which may load typing on its own; json loads only to print JSON
    code = ("import sys; before = set(sys.modules); import chowchi.cli; "
            "print(sorted({'__future__', 'dataclasses', 'inspect', 'json', 'typing'}"
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


def _route_json(command, params, results, **extra):
    """The JSON stdout of a route command: its query echo, each route's
    (method, value), then any further key, such as the match flag.  The
    literal JSON rows below pin the layout this leaves to ``json.dumps``."""
    return json.dumps({"query": {"subcommand": command, "params": params},
                       "results": [{"method": m, "value": v} for m, v in results],
                       **extra}, indent=2) + "\n"


_USAGE_P_ABOVE_N = "chowchi: error: require 0 <= p <= n, got p=2, n=1\n"

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
# The golden table: per command line, the exit code, exact stdout (a verify
# report's elapsed_ms masked) and stderr that ``cli_run`` returns, at 80
# columns.
GOLDEN = {
    "chow-json": (
        ["chow", "--p", "1", "--n", "2", "--d", "2", "--method", "all"],
        0, _CHOW_ALL_QUERY + _RESULTS_6 % ("recursive", "6", "series", "true"), ""),
    "chow-csv": (
        ["chow", "--p", "1", "--n", "2", "--d", "2", "--method", "all", "--format", "csv"],
        0, "method,value\nclosed,6\nrecursive,6\nseries,6\nmatch,true\n", ""),
    "chow-default-method": (
        ["chow", "--p", "3", "--n", "3", "--d", "9"],
        0, _route_json("chow", dict(p="3", n="3", d="9", method="closed"),
                       [("closed", "1")]), ""),
    "chow-p-above-n": (
        ["chow", "--p", "2", "--n", "1", "--d", "0"], 2, "", _USAGE_P_ABOVE_N),
    # a count past 2^53 stays an exact decimal string in JSON
    "chow-large-value": (
        ["chow", "--p", "1", "--n", "8", "--d", "12"],
        0, _route_json("chow", dict(p="1", n="8", d="12", method="closed"),
                       [("closed", str(math.comb(math.comb(9, 2) + 11, 12)))]), ""),
    # 1200 suspensions deep, past Python's recursion limit
    "chow-recursive-deep": (
        ["chow", "--p", "1", "--n", "1200", "--d", "3", "--method", "recursive"],
        0, _route_json("chow", dict(p="1", n="1200", d="3", method="recursive"),
                       [("recursive", str(math.comb(math.comb(1201, 2) + 2, 3)))]), ""),
    "quaternionic-json": (
        ["quaternionic", "--p", "0", "--qn", "3", "--d", "1", "--oracle", "auto"],
        0, """\
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
""" + _RESULTS_6 % ("oracle-p0", "6", "oracle-d1", "true"), ""),
    "quaternionic-csv": (
        ["quaternionic", "--p", "1", "--qn", "2", "--d", "2", "--oracle", "auto",
         "--format", "csv"],
        0, "method,value\nclosed,21\n"
        "note,no decomposition oracle applies; oracles cover p=0 and d=1\n", ""),
    "quaternionic-p0-oracle": (
        ["quaternionic", "--p", "0", "--qn", "1", "--d", "2", "--oracle", "auto"],
        0, _route_json("quaternionic", dict(p="0", qn="1", d="2", oracle="auto"),
                       [("closed", "3"), ("oracle-p0", "3")], match=True), ""),
    "quaternionic-d1-oracle": (
        ["quaternionic", "--p", "1", "--qn", "2", "--d", "1", "--oracle", "auto"],
        0, _route_json("quaternionic", dict(p="1", qn="2", d="1", oracle="auto"),
                       [("closed", "6"), ("oracle-d1", "6")], match=True), ""),
    "quaternionic-no-oracle": (
        ["quaternionic", "--p", "1", "--qn", "2", "--d", "2", "--oracle", "auto"],
        0, _route_json("quaternionic", dict(p="1", qn="2", d="2", oracle="auto"),
                       [("closed", "21")],
                       note="no decomposition oracle applies; oracles cover p=0 and d=1"),
        ""),
    "quaternionic-oracle-off": (
        ["quaternionic", "--p", "0", "--qn", "1", "--d", "2"],
        0, _route_json("quaternionic", dict(p="0", qn="1", d="2", oracle="none"),
                       [("closed", "3")]), ""),
    "series-json": (
        ["series", "--p", "1", "--n", "2", "--order", "2"],
        0, """\
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
""", ""),
    "series-csv": (
        ["series", "--p", "1", "--n", "2", "--order", "2", "--format", "csv"],
        0, "d,chi\n0,1\n1,3\n2,6\n", ""),
    "series-functional": (
        ["series", "--p", "1", "--n", "2", "--order", "2", "--method", "functional"],
        0, _route_json("series", dict(p="1", n="2", order="2", method="functional"),
                       [("functional", ["1", "3", "6"])]), ""),
    "series-geometric-csv": (
        ["series", "--p", "0", "--n", "1", "--order", "3", "--format", "csv"],
        0, "d,chi\n0,1\n1,2\n2,3\n3,4\n", ""),
    "table-json": (
        ["table", "--p", "1", "--n", "3", "--max-d", "2"],
        0, """\
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
""", ""),
    "table-csv": (
        ["table", "--p", "1", "--n", "3", "--max-d", "2", "--format", "csv"],
        0, "d,chi\n0,1\n1,6\n2,21\n", ""),
    "table-geometric-csv": (
        ["table", "--p", "0", "--n", "1", "--max-d", "4", "--format", "csv"],
        0, "d,chi\n0,1\n1,2\n2,3\n3,4\n4,5\n", ""),
    # p = n: one cycle in each degree; --max-d 0: the degree-zero row alone
    "table-p-equals-n-csv": (
        ["table", "--p", "2", "--n", "2", "--max-d", "3", "--format", "csv"],
        0, "d,chi\n0,1\n1,1\n2,1\n3,1\n", ""),
    "table-degree-zero-csv": (
        ["table", "--p", "1", "--n", "3", "--max-d", "0", "--format", "csv"],
        0, "d,chi\n0,1\n", ""),
    "table-p-above-n": (
        ["table", "--p", "2", "--n", "1", "--max-d", "3"], 2, "", _USAGE_P_ABOVE_N),
    "table-negative-degree": (
        ["table", "--p", "0", "--n", "1", "--max-d", "-1"],
        2, "", "chowchi: error: max_d must be nonnegative, got -1\n"),
    "verify-base-cases": (
        ["verify", "--suite", "base-cases", "--max-n", "3", "--max-d", "4"],
        0, '{\n  "suite": "base-cases",\n  "cases_run": "20",\n  "failures": [],\n'
           '  "elapsed_ms": "#"\n}\n', ""),
    "verify-small-bounds": (
        ["verify", "--max-n", "2", "--max-d", "2"],
        0, '{\n  "suite": "all",\n  "cases_run": "663",\n  "failures": [],\n'
           '  "elapsed_ms": "#"\n}\n', ""),
    # the default bounds (4, 6, 10, 12)
    "verify-default-bounds": (
        ["verify"],
        0, '{\n  "suite": "all",\n  "cases_run": "2482",\n  "failures": [],\n'
           '  "elapsed_ms": "#"\n}\n', ""),
    # argparse's usage errors
    "missing-subcommand": (
        [], 2, "", "usage: chowchi [-h] {chow,series,quaternionic,verify,table} ...\n"
        "chowchi: error: the following arguments are required: command\n"),
    "chow-unknown-method": (
        ["chow", "--p", "1", "--n", "2", "--d", "2", "--method", "magic"], 2, "", """\
usage: chowchi chow [-h] --p P --n N --d D
                    [--method {closed,recursive,series,all}]
                    [--format {json,csv}]
chowchi chow: error: argument --method: invalid choice: 'magic' (choose from \
'closed', 'recursive', 'series', 'all')
"""),
    # every --help
    "help": (["--help"], 0, """\
usage: chowchi [-h] {chow,series,quaternionic,verify,table} ...

Exact Euler characteristics of cycle spaces of projective space.

positional arguments:
  {chow,series,quaternionic,verify,table}
    chow                chi(C_{p,d}(P^n)) for one parameter triple
    series              coefficients of the generating function Q_{p,n}(t)
    quaternionic        chi of the right quaternionic cycle space inside
                        P^{2n-1}
    verify              run a consistency sweep and emit a JSON report
    table               degree table of chi(C_{p,d}(P^n)) for d = 0..max-d

options:
  -h, --help            show this help message and exit
""", ""),
    "help-chow": (["chow", "--help"], 0, """\
usage: chowchi chow [-h] --p P --n N --d D
                    [--method {closed,recursive,series,all}]
                    [--format {json,csv}]

options:
  -h, --help            show this help message and exit
  --p P                 cycle dimension
  --n N                 ambient projective dimension
  --d D                 cycle degree
  --method {closed,recursive,series,all}
                        computation path, or all three with a match flag
  --format {json,csv}
""", ""),
    "help-series": (["series", "--help"], 0, """\
usage: chowchi series [-h] --p P --n N --order ORDER
                      [--method {closed,functional}] [--format {json,csv}]

options:
  -h, --help            show this help message and exit
  --p P                 cycle dimension
  --n N                 ambient projective dimension
  --order ORDER         truncation degree
  --method {closed,functional}
                        direct expansion or functional-equation build
  --format {json,csv}
""", ""),
    "help-quaternionic": (["quaternionic", "--help"], 0, """\
usage: chowchi quaternionic [-h] --p P --qn QN --d D [--oracle {none,auto}]
                            [--format {json,csv}]

options:
  -h, --help            show this help message and exit
  --p P                 cycle dimension
  --qn QN               quaternionic dimension n (ambient space P^{2n-1})
  --d D                 cycle degree
  --oracle {none,auto}  also run the decomposition oracle when one applies
  --format {json,csv}
""", ""),
    "help-verify": (["verify", "--help"], 0, """\
usage: chowchi verify [-h]
                      [--suite {recursion,series,quaternionic,base-cases,all}]
                      [--max-p MAX_P] [--max-n MAX_N] [--max-d MAX_D]
                      [--order ORDER]

options:
  -h, --help            show this help message and exit
  --suite {recursion,series,quaternionic,base-cases,all}
  --max-p MAX_P
  --max-n MAX_N
  --max-d MAX_D
  --order ORDER
""", ""),
    "help-table": (["table", "--help"], 0, """\
usage: chowchi table [-h] --p P --n N --max-d MAX_D [--format {json,csv}]

options:
  -h, --help           show this help message and exit
  --p P                cycle dimension
  --n N                ambient projective dimension
  --max-d MAX_D
  --format {json,csv}
""", ""),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_stdout(name):
    argv, *expected = GOLDEN[name]
    assert list(cli_run(argv)) == expected


def test_golden_mismatch_stdout(monkeypatch):
    plant(monkeypatch, chow_euler_recursive, one_too_large(chow_euler_recursive))
    argv = GOLDEN["chow-json"][0]
    assert cli_run(argv) == (
        1, _CHOW_ALL_QUERY + _RESULTS_6 % ("recursive", "7", "series", "false"), "")

