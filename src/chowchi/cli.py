"""Command line surface: single values, series and degree tables,
quaternionic checks, and the verification sweeps.

Each option is declared once in ``build_parser``, and the JSON
``query.params`` echoes every parsed option except ``--format``, in ``--help``
order.  ``verify`` passes ``run_suite`` only the bounds typed, so its defaults
are ``run_suite``'s alone.  Each command returns its JSON payload, CSV header
and rows, and exit code, and ``main`` prints them in one place; ``verify``
prints JSON only.  Output is deterministic for a given command line.  Every
number inside JSON output is a decimal string, never a float, so arbitrarily
large counts pass through any JSON consumer unchanged.  Exit codes: 0 for
success or a clean verification, 1 when any cross-check disagrees, 2 for usage
errors, 70 (``EX_SOFTWARE``) with one
``chowchi: internal error: <type>: <message>`` line on stderr for any other
exception, such as a ``MemoryError``, and 141 (the shell's code for death by
SIGPIPE) when the reader closes stdout before the output is written, as
``chowchi verify | head -1`` may.

``main`` returns the exit code and may run many times in one process, so it
leaves the garbage collector alone.  The process entry, ``chowchi.__main__``,
calls it once and freezes the heap before the interpreter exits.
"""

import argparse
import os
import sys

from .chow import (
    ChowParams,
    SERIES_CLOSED,
    SERIES_FUNCTIONAL,
    chow_euler_closed,
    chow_euler_recursive,
    chow_euler_series,
    chow_series,
)
from .invariants import (
    QuaternionicParams,
    quaternionic_d1_oracle,
    quaternionic_euler_closed,
    quaternionic_p0_oracle,
)
from ._record import _decimal
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "build_parser", "EXIT_BROKEN_PIPE", "EXIT_INTERNAL_ERROR"]

EXIT_BROKEN_PIPE = 141
EXIT_INTERNAL_ERROR = 70    # EX_SOFTWARE of sysexits.h


def _options(args) -> dict:
    """The parsed options but ``--format``; of verify's bounds, only those typed."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "format", "func")}


def _query(args) -> dict:
    """The subcommand and its options, in declaration order however typed."""
    params = {k: str(v) for k, v in _options(args).items()}
    return {"subcommand": args.command, "params": params}


def _routes(query: dict, results: list, note: str | None = None) -> tuple:
    """Each route's (method, value), with a match flag when more than one
    route ran and the optional note; exit 1 when the routes disagree."""
    payload = {
        "query": query,
        "results": [{"method": m, "value": v} for m, v in results],
    }
    rows = list(results)
    match = True
    if len(results) > 1:
        match = len({v for _, v in results}) == 1
        payload["match"] = match
        rows.append(("match", "true" if match else "false"))
    if note is not None:
        payload["note"] = note
        rows.append(("note", note))
    return payload, "method,value", rows, 0 if match else 1


def _cmd_chow(args) -> tuple:
    params = ChowParams(args.p, args.n, args.d)
    # Built per call: bench/spans.py rebinds the route names this module
    # imports to span wrappers, and a table built at import would keep the
    # unwrapped routes, so every traced chow layer would read zero.
    compute = {
        "closed": chow_euler_closed,
        "recursive": chow_euler_recursive,
        "series": chow_euler_series,
    }
    methods = list(compute) if args.method == "all" else [args.method]
    results = [(m, _decimal(compute[m](params).chi)) for m in methods]
    return _routes(_query(args), results)


def _cmd_series(args) -> tuple:
    s = chow_series(args.p, args.n, args.order, method=args.method)
    coeffs = [_decimal(c) for c in s.coeffs]
    payload = _routes(_query(args), [(args.method, coeffs)])[0]
    return payload, "d,chi", list(enumerate(coeffs)), 0


def _cmd_quaternionic(args) -> tuple:
    params = QuaternionicParams(args.p, args.qn, args.d)
    results = [("closed", _decimal(quaternionic_euler_closed(params)))]
    note = None
    if args.oracle == "auto":
        if args.p == 0:
            results.append(("oracle-p0", _decimal(quaternionic_p0_oracle(args.qn, args.d))))
        if args.d == 1:
            results.append(("oracle-d1", _decimal(quaternionic_d1_oracle(args.p, args.qn))))
        if len(results) == 1:
            note = "no decomposition oracle applies; oracles cover p=0 and d=1"
    return _routes(_query(args), results, note)


def _cmd_table(args) -> tuple:
    # chow_series would reject it too, but as order, which is not an option of table
    if args.max_d < 0:
        raise ValueError(f"max_d must be nonnegative, got {_decimal(args.max_d)}")
    # the closed series is the whole table; it also validates p and n
    coeffs = chow_series(args.p, args.n, args.max_d).coeffs
    rows = [(str(d), _decimal(chi)) for d, chi in enumerate(coeffs)]
    payload = {
        "query": _query(args),
        "rows": [{"d": d, "chi": chi} for d, chi in rows],
    }
    return payload, "d,chi", rows, 0


def _cmd_verify(args) -> tuple:
    report = run_suite(**_options(args))
    return report.to_json_dict(), None, None, 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowchi",
        description="Exact Euler characteristics of cycle spaces of projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = "--p", dict(type=int, required=True, help="cycle dimension")
    n = "--n", dict(type=int, required=True, help="ambient projective dimension")
    d = "--d", dict(type=int, required=True, help="cycle degree")

    def command(name, func, help, *options):
        # --format closes each --help; argparse's parents= would list it first
        cmd = sub.add_parser(name, help=help)
        for flag, kwargs in options:
            cmd.add_argument(flag, **kwargs)
        cmd.add_argument("--format", default="json", choices=["json", "csv"])
        cmd.set_defaults(func=func)

    command("chow", _cmd_chow, "chi(C_{p,d}(P^n)) for one parameter triple",
            p, n, d,
            ("--method", dict(
                default="closed", choices=["closed", "recursive", "series", "all"],
                help="computation path, or all three with a match flag")))
    command("series", _cmd_series,
            "coefficients of the generating function Q_{p,n}(t)",
            p, n,
            ("--order", dict(type=int, required=True, help="truncation degree")),
            ("--method", dict(
                default=SERIES_CLOSED, choices=[SERIES_CLOSED, SERIES_FUNCTIONAL],
                help="direct expansion or functional-equation build")))
    command("quaternionic", _cmd_quaternionic,
            "chi of the right quaternionic cycle space inside P^{2n-1}",
            p,
            ("--qn", dict(type=int, required=True,
                          help="quaternionic dimension n (ambient space P^{2n-1})")),
            d,
            ("--oracle", dict(default="none", choices=["none", "auto"],
                              help="also run the decomposition oracle when one applies")))

    # only the bounds typed reach the namespace; run_suite holds the defaults
    p_verify = sub.add_parser(
        "verify", help="run a consistency sweep and emit a JSON report",
        argument_default=argparse.SUPPRESS)
    p_verify.add_argument("--suite", dest="name", default="all", choices=list(SUITE_NAMES))
    for flag in ("--max-p", "--max-n", "--max-d", "--order"):
        p_verify.add_argument(flag, type=int)
    p_verify.set_defaults(func=_cmd_verify, format="json")

    command("table", _cmd_table,
            "degree table of chi(C_{p,d}(P^n)) for d = 0..max-d",
            p, n, ("--max-d", dict(type=int, required=True)))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, header, rows, code = args.func(args)
        if args.format == "json":
            import json     # stdlib, and only the JSON output needs it
            print(json.dumps(payload, indent=2))
        else:
            print("\n".join([header, *(f"{a},{b}" for a, b in rows)]))
        # a closed pipe must surface here, not in the interpreter's last flush
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"chowchi: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the unwritten rest goes to devnull, so the final flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        # a defect or an exhausted resource, never a mismatch or usage error
        print(f"chowchi: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
