"""Expected values computed with ``math.comb`` alone, and output checkers.

Nothing here imports ``chowchi``: every expected value comes from the
closed formulas written out with the standard library, so a wrong answer
from any route of the program shows up as a mismatch.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys


def chow_chi(p: int, n: int, d: int) -> int:
    """chi(C_{p,d}(P^n)) = C(C(n+1, p+1) + d - 1, d) (Lawson-Yau)."""
    return math.comb(math.comb(n + 1, p + 1) + d - 1, d)


def chow_coeffs(p: int, n: int, order: int) -> list[int]:
    """Coefficients 0..order of Q_{p,n}(t) = (1 - t)^(-v), v = C(n+1, p+1)."""
    v = math.comb(n + 1, p + 1)
    return [math.comb(v + k - 1, k) for k in range(order + 1)]


def quaternionic_chi(p: int, qn: int, d: int) -> int:
    """chi of right quaternionic p-cycles of degree d: C(C(2n, p+1) + d - 1, d)."""
    return math.comb(math.comb(2 * qn, p + 1) + d - 1, d)


def points_chi(n: int, d: int) -> int:
    """chi(C_{0,d}(P^n)) = C(n + d, d)."""
    return math.comb(n + d, d)


def sp_euler(chi: int, d: int) -> int:
    """chi(SP^d X) for chi(X) = chi: the coefficient of t^d in (1 - t)^(-chi).

    For chi <= 0 this uses the reflection C(chi + d - 1, d) = (-1)^d C(-chi, d).
    """
    if chi <= 0:
        return (-1) ** d * math.comb(-chi, d)
    return math.comb(chi + d - 1, d)


def verify_cases(max_p: int, max_n: int, max_d: int, order: int) -> int:
    """Number of checks ``verify --suite all`` runs at the given bounds.

    Counted from the sweep grids: the recursion suite (three checks per
    (p, n, d), the degree-one Pascal reduction, the divisor identity), the
    base-case suite, the series suite (17 x 17 geometric powers,
    factorization in two methods, signed binomials) and the quaternionic
    suite (oracles, ambient match, group-invariant match, SP of chi = 0).
    """
    D = max_d + 1
    recursion = 3 * D * sum(min(max_p, n) + 1 for n in range(max_n + 1))
    recursion += max_n * (max_n + 1) // 2 + max_n * D
    base_cases = (max_n + 1) * D
    series = 17 * 17 + max_n * (max_n + 1) + 17 * (order + 1)
    quaternionic = sum(D + 4 * n + 2 * n * D for n in range(1, max_n + 1))
    quaternionic += D * (max_n + 1) * (max_n + 2) // 2 + max(max_d, 20) + 1
    return recursion + base_cases + series + quaternionic


@contextlib.contextmanager
def unlimited_digits():
    """Lift the int/str digit limit while the benchmark parses output.

    The limit is process-wide, so it is restored afterwards: code of the
    program that runs in this process must see the interpreter's default.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class Mismatch(Exception):
    """The program's output differs from the oracle."""


def _csv_rows(out: str, header: str) -> list[list[str]]:
    lines = out.rstrip("\n").split("\n")
    if lines[0] != header:
        raise Mismatch(f"csv header {lines[0]!r} != {header!r}")
    return [line.split(",", 1) for line in lines[1:]]


def _expect(actual, expected, what: str) -> None:
    if actual != expected:
        raise Mismatch(f"{what}: got {str(actual)[:80]!r}, want {str(expected)[:80]!r}")


def _method_rows(out: str, fmt: str) -> tuple[dict[str, str], object]:
    """(method -> value, match flag or None) from a chow/quaternionic answer."""
    if fmt == "json":
        payload = json.loads(out)
        values = {r["method"]: r["value"] for r in payload["results"]}
        return values, payload.get("match")
    values = dict((a, b) for a, b in _csv_rows(out, "method,value"))
    values.pop("note", None)
    match = values.pop("match", None)
    return values, None if match is None else match == "true"


def check_cli(spec: dict, code: int, out: str) -> None:
    """Raise ``Mismatch`` unless a CLI answer equals the oracle's.

    ``spec`` is the parsed query of a generated op (see ``workloads``).
    """
    _expect(code, 0, "exit code")
    cmd, fmt = spec["cmd"], spec.get("format", "json")
    with unlimited_digits():
        if cmd == "chow":
            want = str(chow_chi(spec["p"], spec["n"], spec["d"]))
            methods = (["closed", "recursive", "series"]
                       if spec["method"] == "all" else [spec["method"]])
            values, match = _method_rows(out, fmt)
            _expect(values, {m: want for m in methods}, "chow values")
            _expect(match, True if spec["method"] == "all" else None, "match flag")
        elif cmd == "quaternionic":
            want = str(quaternionic_chi(spec["p"], spec["qn"], spec["d"]))
            values, match = _method_rows(out, fmt)
            expected = {"closed": want}
            if spec["oracle"] == "auto":
                if spec["p"] == 0:
                    expected["oracle-p0"] = want
                if spec["d"] == 1:
                    expected["oracle-d1"] = want
            _expect(values, expected, "quaternionic values")
            _expect(match, True if len(expected) > 1 else None, "match flag")
        elif cmd in ("series", "table"):
            top = spec["order"] if cmd == "series" else spec["max_d"]
            want = [str(c) for c in chow_coeffs(spec["p"], spec["n"], top)]
            if fmt == "csv":
                got = [c for _, c in _csv_rows(out, "d,chi")]
            elif cmd == "series":
                got = json.loads(out)["results"][0]["value"]
            else:
                got = [row["chi"] for row in json.loads(out)["rows"]]
            _expect(got, want, f"{cmd} coefficients")
        elif cmd == "verify":
            report = json.loads(out)
            _expect(report["failures"], [], "verify failures")
            want = verify_cases(spec["max_p"], spec["max_n"], spec["max_d"], spec["order"])
            _expect(report["cases_run"], str(want), "verify cases_run")
        else:
            raise Mismatch(f"no oracle for command {cmd!r}")
