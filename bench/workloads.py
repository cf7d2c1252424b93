"""Seeded generators for the three workloads.

A workload is an endless sequence of rounds; a round is a list of op specs
with a fixed composition, whose parameters and order come from the seed.
The benchmark always runs whole rounds, so every run of a workload sees the
same mix of op classes whatever the seed or the speed of the machine, and
the latency percentiles fall inside one class rather than on the edge
between two (see ``NOTES.md``).

A spec is a plain dict.  CLI specs carry ``cmd`` and the query parameters;
``argv`` turns them into a command line.  Library specs (deep-routes)
carry ``call`` and ``args``.
"""

from __future__ import annotations

import random
from typing import Iterator

WORKLOADS = ("cli-mix", "deep-routes", "verify-sweep")

# Bounds of ``verify --suite all``: the CLI default, the middle bound and the
# large bound quoted in ROADMAP.md.
VERIFY_DEFAULT = (4, 6, 10, 12)
VERIFY_MIDDLE = (8, 16, 30, 30)
VERIFY_LARGE = (12, 30, 60, 60)

# Queries that fail at the seed commit.  cli-mix runs them once per run,
# apart from the timed ops, and reports how many still fail.
KNOWN_DEFECTS = (
    # answers over 4300 digits hit int->str limit and exit 2
    {"cmd": "chow", "p": 5, "n": 20, "d": 10000, "method": "closed", "format": "json"},
    {"cmd": "table", "p": 10, "n": 40, "max_d": 650, "format": "csv"},
    # the memoized recursion is ~n frames deep: RecursionError, exit 1
    {"cmd": "chow", "p": 1, "n": 1200, "d": 3, "method": "recursive", "format": "json"},
)


def argv(spec: dict) -> list[str]:
    """Command line (after ``python -m chowchi``) for a CLI spec."""
    cmd = spec["cmd"]
    out = [cmd]
    if cmd == "verify":
        if spec.get("flags", True):
            out += ["--suite", "all", "--max-p", str(spec["max_p"]),
                    "--max-n", str(spec["max_n"]), "--max-d", str(spec["max_d"]),
                    "--order", str(spec["order"])]
        return out
    out += ["--p", str(spec["p"])]
    if cmd == "quaternionic":
        out += ["--qn", str(spec["qn"]), "--d", str(spec["d"]),
                "--oracle", spec["oracle"]]
    else:
        out += ["--n", str(spec["n"])]
    if cmd == "chow":
        out += ["--d", str(spec["d"]), "--method", spec["method"]]
    elif cmd == "series":
        out += ["--order", str(spec["order"]), "--method", spec["method"]]
    elif cmd == "table":
        out += ["--max-d", str(spec["max_d"])]
    return out + ["--format", spec["format"]]


def _verify_spec(bounds, flags=True) -> dict:
    max_p, max_n, max_d, order = bounds
    return {"cmd": "verify", "max_p": max_p, "max_n": max_n,
            "max_d": max_d, "order": order, "flags": flags}


def _cli_mix_round(rng: random.Random) -> list[dict]:
    def pn(max_p, max_n):
        p = rng.randint(0, max_p)
        return p, rng.randint(p, max_n)

    def fmt():
        return rng.choice(("json", "csv"))

    ops = []
    for method in ["closed"] * 4 + ["all"] * 2 + ["recursive", "series"]:
        p, n = pn(4, 8) if method == "closed" else pn(3, 6)
        d = rng.randint(0, 20 if method == "closed" else 10)
        ops.append({"cmd": "chow", "p": p, "n": n, "d": d,
                    "method": method, "format": fmt()})
    for method in ("closed", "closed", "functional", "functional"):
        p, n = pn(3, 6)
        ops.append({"cmd": "series", "p": p, "n": n, "order": rng.randint(0, 20),
                    "method": method, "format": fmt()})
    for _ in range(3):
        qn = rng.randint(1, 4)
        ops.append({"cmd": "quaternionic", "p": rng.randint(0, 2 * qn - 1), "qn": qn,
                    "d": rng.randint(0, 10), "oracle": rng.choice(("none", "auto")),
                    "format": fmt()})
    p, n = pn(4, 8)
    ops.append({"cmd": "table", "p": p, "n": n, "max_d": rng.randint(0, 20),
                "format": fmt()})
    ops += [_verify_spec(VERIFY_DEFAULT, flags=False) for _ in range(4)]
    rng.shuffle(ops)
    return ops


def _verify_sweep_round(rng: random.Random) -> list[dict]:
    # Middle bounds jitter around VERIFY_MIDDLE by balanced offsets, so each
    # round holds the same spread of costs and only the pairing varies.
    offsets = [-1, -1, 0, 0, 0, 0, 0, 0, 1, 1]
    dp, dn, dd = (rng.sample(offsets, len(offsets)) for _ in range(3))
    p, n, d, order = VERIFY_MIDDLE
    ops = [_verify_spec(VERIFY_LARGE)]
    ops += [_verify_spec((p + a, n + b, d + 2 * c, order + 2 * c))
            for a, b, c in zip(dp, dn, dd)]
    ops += [_verify_spec(VERIFY_DEFAULT) for _ in range(42)]
    rng.shuffle(ops)
    return ops


def _stratified(rng: random.Random, k: int = 8) -> Iterator[float]:
    """Fractions in [0, 1) that visit each of ``k`` equal strata once per
    ``k`` draws, in seeded order.  A parameter drawn from them covers its
    range evenly in every run, whatever the seed."""
    while True:
        for stratum in rng.sample(range(k), k):
            yield (stratum + rng.random()) / k


def _deep_round(rng: random.Random, strata: dict) -> list[dict]:
    def call(name, *args):
        return {"call": name, "args": args}

    def pick(cls, lo, hi):
        return lo + int(next(strata[cls]) * (hi - lo + 1))

    # The heaviest queries (r1, f1) form the upper tail where the 90th
    # percentile falls; their sizes, and those of the closed forms, are
    # spread evenly over a range, so a shift of machine speed moves the
    # percentiles smoothly.  r2 and f2 reuse most of r1's and f1's memo
    # entries.  Four cheap queries (sp_euler at chi <= 0, quaternionic) sit
    # below the closed forms and r2, so the median falls in that cluster.
    r1 = call("recursive", 6, rng.randint(22, 23), pick("r1", 60, 95))
    r2 = call("recursive", rng.randint(2, 3), rng.randint(22, 23), rng.randint(80, 100))
    n1, order = rng.randint(19, 20), pick("f1", 110, 170)
    f1 = call("functional", 6, n1, order)
    f2 = call("functional", rng.randint(4, 5), n1 + rng.randint(1, 2), order)
    ops = [r1, r2, f1, f2, call("points", rng.randint(26, 30), rng.randint(170, 200))]
    for _ in range(4):
        ops.append(call("closed", rng.randint(9, 10), rng.randint(38, 40),
                        pick("closed", 6000, 10000)))
    for chi_range in ((-5, 0), (-5, 0), (1, 5)):
        ops.append(call("sp_euler", rng.randint(*chi_range), rng.randint(15000, 20000)))
    for _ in range(2):
        ops.append(call("quaternionic", rng.randint(0, 5), rng.randint(3, 10),
                        rng.randint(1000, 5000)))
    rng.shuffle(ops)
    # The second recursive (functional) query runs after the first, so the
    # memo work it shares is the same in every round.
    for first, second in ((r1, r2), (f1, f2)):
        i, j = ops.index(first), ops.index(second)
        if i > j:
            ops[i], ops[j] = ops[j], ops[i]
    return ops


_ROUND = {"cli-mix": _cli_mix_round, "verify-sweep": _verify_sweep_round}


def rounds(workload: str, seed: int) -> Iterator[list[dict]]:
    """The workload's rounds for ``seed``; equal seeds give equal rounds."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep-routes":
        strata = {cls: _stratified(rng) for cls in ("r1", "f1", "closed")}
        while True:
            yield _deep_round(rng, strata)
    make = _ROUND[workload]
    while True:
        yield make(rng)


def memo_keys(spec: dict) -> set:
    """Memo entries a deep-routes query needs, as an input property.

    The suspension recursion on (p, n, d) reaches the (p', n' - p', d')
    box with p' <= p, n' - p' <= n - p and d' <= d; the functional series
    reaches the same (p', n' - p') box at a single order; the point
    recursion reaches n' <= n, d' <= d.  Other queries keep no memo.
    """
    name, args = spec["call"], spec["args"]
    if name == "recursive":
        p, n, d = args
        return {("rec", a, m, e) for a in range(p + 1)
                for m in range(n - p + 1) for e in range(d + 1)}
    if name == "functional":
        p, n, order = args
        return {("fun", a, m, order) for a in range(p + 1) for m in range(n - p + 1)}
    if name == "points":
        n, d = args
        return {("pts", a, e) for a in range(n + 1) for e in range(d + 1)}
    return set()


def memo_shared(ops: list[dict]) -> tuple[int, int]:
    """(entries already made by an earlier query of ``ops``, entries needed)."""
    seen: set = set()
    shared = total = 0
    for spec in ops:
        keys = memo_keys(spec)
        shared += len(keys & seen)
        total += len(keys)
        seen |= keys
    return shared, total
