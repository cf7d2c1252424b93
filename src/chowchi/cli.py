"""Command line surface: single values, series and degree tables,
quaternionic checks, and the verification sweeps.

Each command returns its JSON payload, CSV header and rows, and exit code,
and ``main`` prints them in one place; ``verify`` prints JSON only.  Output
is deterministic for a given command line.  Every number inside JSON output
is a decimal string, never a float, so arbitrarily large counts pass through
any JSON consumer unchanged.  Exit codes: 0 for success or a clean
verification, 1 when any cross-check disagrees, 2 for usage errors, 70
(``EX_SOFTWARE``) with one ``chowchi: internal error: <type>: <message>``
line on stderr for any other exception, such as a ``MemoryError``, and 141
(the shell's code for death by SIGPIPE) when the reader closes stdout before
the output is written, as ``chowchi verify | head -1`` may.
"""

from __future__ import annotations

import argparse
import contextlib
import json
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
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "build_parser", "EXIT_BROKEN_PIPE", "EXIT_INTERNAL_ERROR"]

EXIT_BROKEN_PIPE = 141
EXIT_INTERNAL_ERROR = 70    # EX_SOFTWARE of sysexits.h


def _query(subcommand: str, **params) -> dict:
    return {
        "subcommand": subcommand,
        "params": {k: str(v) for k, v in params.items()},
    }


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
    methods = ["closed", "recursive", "series"] if args.method == "all" else [args.method]
    compute = {
        "closed": chow_euler_closed,
        "recursive": chow_euler_recursive,
        "series": chow_euler_series,
    }
    results = [(m, str(compute[m](params).chi)) for m in methods]
    query = _query("chow", p=args.p, n=args.n, d=args.d, method=args.method)
    return _routes(query, results)


def _cmd_series(args) -> tuple:
    s = chow_series(args.p, args.n, args.order, method=args.method)
    coeffs = [str(c) for c in s.coeffs]
    query = _query("series", p=args.p, n=args.n, order=args.order, method=args.method)
    payload = _routes(query, [(args.method, coeffs)])[0]
    return payload, "d,chi", list(enumerate(coeffs)), 0


def _cmd_quaternionic(args) -> tuple:
    params = QuaternionicParams(args.p, args.qn, args.d)
    results = [("closed", str(quaternionic_euler_closed(params)))]
    note = None
    if args.oracle == "auto":
        if args.p == 0:
            results.append(("oracle-p0", str(quaternionic_p0_oracle(args.qn, args.d))))
        if args.d == 1:
            results.append(("oracle-d1", str(quaternionic_d1_oracle(args.p, args.qn))))
        if len(results) == 1:
            note = "no decomposition oracle applies; oracles cover p=0 and d=1"
    query = _query("quaternionic", p=args.p, qn=args.qn, d=args.d, oracle=args.oracle)
    return _routes(query, results, note)


def _cmd_table(args) -> tuple:
    if args.max_d < 0:
        raise ValueError(f"max_d must be nonnegative, got {args.max_d}")
    # the closed series is the whole table; it also validates p and n
    coeffs = chow_series(args.p, args.n, args.max_d).coeffs
    rows = [(str(d), str(chi)) for d, chi in enumerate(coeffs)]
    payload = {
        "query": _query("table", p=args.p, n=args.n, max_d=args.max_d),
        "rows": [{"d": d, "chi": chi} for d, chi in rows],
    }
    return payload, "d,chi", rows, 0


def _cmd_verify(args) -> tuple:
    report = run_suite(
        args.suite,
        max_p=args.max_p,
        max_n=args.max_n,
        max_d=args.max_d,
        order=args.order,
    )
    return report.to_json_dict(), None, None, 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowchi",
        description="Exact Euler characteristics of cycle spaces of projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chow = sub.add_parser(
        "chow", help="chi(C_{p,d}(P^n)) for one parameter triple")
    p_chow.add_argument("--p", type=int, required=True, help="cycle dimension")
    p_chow.add_argument("--n", type=int, required=True,
                        help="ambient projective dimension")
    p_chow.add_argument("--d", type=int, required=True, help="cycle degree")
    p_chow.add_argument("--method", default="closed",
                        choices=["closed", "recursive", "series", "all"],
                        help="computation path, or all three with a match flag")
    p_chow.add_argument("--format", default="json", choices=["json", "csv"])
    p_chow.set_defaults(func=_cmd_chow)

    p_series = sub.add_parser(
        "series", help="coefficients of the generating function Q_{p,n}(t)")
    p_series.add_argument("--p", type=int, required=True, help="cycle dimension")
    p_series.add_argument("--n", type=int, required=True,
                          help="ambient projective dimension")
    p_series.add_argument("--order", type=int, required=True,
                          help="truncation degree")
    p_series.add_argument("--method", default=SERIES_CLOSED,
                          choices=[SERIES_CLOSED, SERIES_FUNCTIONAL],
                          help="direct expansion or functional-equation build")
    p_series.add_argument("--format", default="json", choices=["json", "csv"])
    p_series.set_defaults(func=_cmd_series)

    p_quat = sub.add_parser(
        "quaternionic",
        help="chi of the right quaternionic cycle space inside P^{2n-1}")
    p_quat.add_argument("--p", type=int, required=True, help="cycle dimension")
    p_quat.add_argument("--qn", type=int, required=True,
                        help="quaternionic dimension n (ambient space P^{2n-1})")
    p_quat.add_argument("--d", type=int, required=True, help="cycle degree")
    p_quat.add_argument("--oracle", default="none", choices=["none", "auto"],
                        help="also run the decomposition oracle when one applies")
    p_quat.add_argument("--format", default="json", choices=["json", "csv"])
    p_quat.set_defaults(func=_cmd_quaternionic)

    p_verify = sub.add_parser(
        "verify", help="run a consistency sweep and emit a JSON report")
    p_verify.add_argument("--suite", default="all", choices=list(SUITE_NAMES))
    p_verify.add_argument("--max-p", type=int, default=4, dest="max_p")
    p_verify.add_argument("--max-n", type=int, default=6, dest="max_n")
    p_verify.add_argument("--max-d", type=int, default=10, dest="max_d")
    p_verify.add_argument("--order", type=int, default=12)
    p_verify.set_defaults(func=_cmd_verify, format="json")

    p_table = sub.add_parser(
        "table", help="degree table of chi(C_{p,d}(P^n)) for d = 0..max-d")
    p_table.add_argument("--p", type=int, required=True, help="cycle dimension")
    p_table.add_argument("--n", type=int, required=True,
                         help="ambient projective dimension")
    p_table.add_argument("--max-d", type=int, required=True, dest="max_d")
    p_table.add_argument("--format", default="json", choices=["json", "csv"])
    p_table.set_defaults(func=_cmd_table)

    return parser


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's int-to-str digit limit (CVE-2020-10735) for one command.

    Counts of any size must render as decimal strings.  The limit is
    process-wide, so the caller's value is restored afterwards instead of
    being changed at import.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:       # an interpreter without the limit
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _unlimited_int_digits():
            payload, header, rows, code = args.func(args)
            if args.format == "json":
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
