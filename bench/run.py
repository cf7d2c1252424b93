"""The chowchi benchmark: one closed-loop client, one op in flight at a time.

Usage, from the root of a checkout::

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0

``--workload`` is one of cli-mix, deep-routes, verify-sweep, or ``all``
for each in turn.  With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it replays a fixed prefix of the workload
in-process, untraced and then traced, and reports the per-layer metrics.
Every op's answer is checked against ``oracle``.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it is a report with provenance and workload properties.
Metric names and units are read from ``BENCHMARK.json``.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAWN_REPEATS = 7
# setup_s takes this many fresh interpreters before the timed ops and as many
# after them, so its median spans the run's changes of machine speed.
SETUP_SAMPLES_EACH_SIDE = 5
STREAM_DEADLINE_S = 120     # no op of a run starts later than this
PROBE_TIMEOUT_S = 15
OP_TIMEOUT_S = {"cli-mix": 30, "deep-routes": 60, "verify-sweep": 90}
# Whole rounds replayed by a traced run: a fixed list, so counts repeat exactly.
TRACE_ROUNDS = {"cli-mix": 5, "deep-routes": 2, "verify-sweep": 1}
REFERENCE_ARGV = ["chow", "--p", "1", "--n", "3", "--d", "2"]
TRACEBACK = "Traceback (most recent call last)"
INT_DIGITS_DEFAULT = sys.get_int_max_str_digits()


class OpTimeout(Exception):
    """An in-process op ran past its time limit."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"op exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], timeout: float):
    """Run ``python <args>`` in the checkout: (seconds, CompletedProcess or None)."""
    t0 = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        done = None
    return time.perf_counter() - t0, done


def median_spawn_s(args: list[str]) -> float:
    return statistics.median(spawn(args, 60)[0] for _ in range(SPAWN_REPEATS))


def quantile(records: list[tuple[float, bool]], q: float) -> float:
    """Nearest-rank quantile of op times; failed ops rank above every success."""
    ranked = sorted(records, key=lambda r: (not r[1], r[0]))
    return ranked[max(math.ceil(q * len(ranked)) - 1, 0)][0]


# -- the program under test, in process ------------------------------------

def load_chowchi():
    """Import chowchi from the checkout's src/ and return its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chowchi
    from chowchi import binomials, chow, cli, invariants
    origin = Path(chowchi.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"chowchi imported from {origin}, not from {SRC}")
    return {"binomials": binomials, "chow": chow, "cli": cli, "invariants": invariants}


def reset_caches(mods) -> None:
    """Drop chowchi's memos and Pascal table: the state of a fresh process."""
    for module in mods.values():
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
    table = getattr(mods["binomials"], "_TABLE", None)
    if table is not None:
        mods["binomials"]._TABLE = type(table)(table.n_max)


def table_rows(mods) -> int:
    return getattr(getattr(mods["binomials"], "_TABLE", None), "rows_cached", 0)


def deep_expected(spec):
    """The oracle's answer to one deep-routes query."""
    name, args = spec["call"], spec["args"]
    if name in ("recursive", "closed"):
        return oracle.chow_chi(*args)
    if name == "functional":
        return oracle.chow_coeffs(*args)
    if name == "points":
        return oracle.points_chi(*args)
    if name == "sp_euler":
        return oracle.sp_euler(*args)
    if name == "quaternionic":
        return oracle.quaternionic_chi(*args)
    raise ValueError(f"unknown deep-routes call {name!r}")


def deep_answer(mods, spec, wrap):
    """The program's answer to one deep-routes query."""
    chow, inv = mods["chow"], mods["invariants"]
    name, args = spec["call"], spec["args"]
    if name == "recursive":
        return wrap(chow.chow_euler_recursive)(chow.ChowParams(*args)).chi
    if name == "closed":
        return wrap(chow.chow_euler_closed)(chow.ChowParams(*args)).chi
    if name == "functional":
        p, n, order = args
        return list(wrap(chow.chow_series)(p, n, order, chow.SERIES_FUNCTIONAL).coeffs)
    if name == "points":
        return wrap(chow.points_euler_recursive)(*args)
    if name == "sp_euler":
        return wrap(inv.sp_euler)(*args)
    return wrap(inv.quaternionic_euler_closed)(inv.QuaternionicParams(*args))


def run_deep_op(mods, spec, timeout, wrap=lambda f: f):
    """(seconds, ok) for one in-process library query; the check is not timed."""
    want = deep_expected(spec)
    t0 = time.perf_counter()
    try:
        with time_limit(timeout):
            got = deep_answer(mods, spec, wrap)
    except Exception:        # a crash or a timeout is a failed op
        return time.perf_counter() - t0, False
    return time.perf_counter() - t0, got == want


def replay_cli_op(mods, spec, timeout, wrap=lambda f: f):
    """(seconds, ok, stdout bytes) for one CLI query run through ``cli.main``."""
    main = wrap(mods["cli"].main)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with time_limit(timeout), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(workloads.argv(spec))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:        # an uncaught exception is a failed op
        code = None
    elapsed = time.perf_counter() - t0
    ok = code is not None and grade_cli(spec, code, out.getvalue(), err.getvalue())
    return elapsed, ok, len(out.getvalue().encode())


def grade_cli(spec, code, out, err) -> bool:
    if TRACEBACK in err:
        return False
    try:
        oracle.check_cli(spec, code, out)
    except (oracle.Mismatch, ValueError, KeyError, TypeError, IndexError, AttributeError):
        return False
    return True


def run_cli_op(spec, timeout):
    """(seconds, ok, verify cases_run) for one ``python -m chowchi`` child."""
    elapsed, done = spawn(["-m", "chowchi", *workloads.argv(spec)], timeout)
    if done is None:
        return elapsed, False, 0
    ok = grade_cli(spec, done.returncode, done.stdout, done.stderr)
    cases = int(json.loads(done.stdout)["cases_run"]) if ok and spec["cmd"] == "verify" else 0
    return elapsed, ok, cases


def run_probes() -> tuple[int, int]:
    """(known-defect queries run, how many still fail)."""
    failing = sum(not run_cli_op(spec, PROBE_TIMEOUT_S)[1] for spec in workloads.KNOWN_DEFECTS)
    return len(workloads.KNOWN_DEFECTS), failing


# -- end-to-end run --------------------------------------------------------

def measure(workload, seed, seconds, report):
    """Closed-loop run of whole rounds for at least ``seconds``."""
    deep = workload == "deep-routes"
    mods = load_chowchi() if deep else None
    # One unmeasured start compiles the bytecode caches a user's install has,
    # and shows which chowchi the children import.
    _, done = spawn(["-c", "import chowchi.cli; print(chowchi.__file__)"], 60)
    origin = Path(done.stdout.strip()).resolve() if done and done.returncode == 0 else None
    if origin is None or SRC.resolve() not in origin.parents:
        raise SystemExit(f"children import chowchi from {origin}, not from {SRC}")
    report["provenance"]["chowchi_file"] = str(origin.relative_to(ROOT))
    setup_args = ["-c", "import chowchi" if deep else "import chowchi.cli"]
    setup = [spawn(setup_args, 60)[0] for _ in range(SETUP_SAMPLES_EACH_SIDE)]

    records, cases, verify_s = [], 0, 0.0
    shared = needed = rounds_done = 0
    timeout = OP_TIMEOUT_S[workload]
    t_start = time.perf_counter()
    deadline = t_start + STREAM_DEADLINE_S
    for ops in workloads.rounds(workload, seed):
        if deep:
            reset_caches(mods)
            s, t = workloads.memo_shared(ops)
            shared, needed = shared + s, needed + t
        for spec in ops:
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            if deep:
                elapsed, ok = run_deep_op(mods, spec, min(timeout, left))
            else:
                elapsed, ok, n = run_cli_op(spec, min(timeout, left))
                if spec["cmd"] == "verify":
                    cases, verify_s = cases + n, verify_s + elapsed
            records.append((elapsed, ok))
        else:
            rounds_done += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds or elapsed >= STREAM_DEADLINE_S:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF if deep else resource.RUSAGE_CHILDREN)
    setup += [spawn(setup_args, 60)[0] for _ in range(SETUP_SAMPLES_EACH_SIDE)]

    ok_ops = sum(ok for _, ok in records)
    failed = len(records) - ok_ops
    metrics = {
        "latency_p50_ms": quantile(records, 0.5) * 1e3,
        "latency_p90_ms": quantile(records, 0.9) * 1e3,
        "ops_per_s": ok_ops / sum(t for t, _ in records),
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    report.update(rounds=rounds_done, ops=len(records),
                  error_rate=failed / len(records),
                  stream_wall_s=time.perf_counter() - t_start)
    if verify_s:
        report["verify_cases_per_s"] = cases / verify_s
    if deep:
        report["memo_shared_share"] = shared / needed
    if workload == "cli-mix":
        probes, failing = run_probes()
        report["known_defects"] = {
            "probes": probes, "failing": failing,
            "share_of_queries": probes / (probes + len(records)),
        }
    return records, failed, metrics


# -- traced run ------------------------------------------------------------

def cli_fixed_costs(argvs, mods) -> dict:
    """Interpreter start, site, import and argument parsing, in ms."""
    start = median_spawn_s(["-S", "-c", "pass"])
    site = median_spawn_s(["-c", "pass"]) - start
    imports = []
    for _ in range(SPAWN_REPEATS):
        _, done = spawn(["-X", "importtime", "-c", "import chowchi.cli"], 60)
        total_us = 0
        # "import time: self | cumulative | name", nested imports indented
        for line in (done.stderr if done else "").splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip().startswith("chowchi") \
                    and not fields[2].startswith("  "):
                total_us += int(fields[1])
        imports.append(total_us / 1e3)
    parse = []
    for argv in argvs:
        t0 = time.perf_counter()
        mods["cli"].build_parser().parse_args(argv)
        parse.append(time.perf_counter() - t0)
    return {"cli.start_ms": start * 1e3, "cli.site_ms": site * 1e3,
            "cli.import_ms": statistics.median(imports),
            "cli.parse_ms": statistics.median(parse) * 1e3}


def replay(workload, mods, rounds, tracer=None):
    """Run ``rounds`` in process; return (per-op seconds, failures, stdout bytes, rows)."""
    wrap = tracer.wrap if tracer else (lambda f: f)
    deadline = time.perf_counter() + STREAM_DEADLINE_S / 2
    times, failed, out_bytes, rows = [], 0, 0, 0
    timeout = OP_TIMEOUT_S[workload]
    for ops in rounds:
        if workload == "deep-routes":
            reset_caches(mods)
        for spec in ops:
            left = deadline - time.perf_counter()
            if left <= 0:
                return times, failed, out_bytes, rows
            if workload == "deep-routes":
                elapsed, ok = run_deep_op(mods, spec, min(timeout, left), wrap)
            else:
                reset_caches(mods)
                elapsed, ok, n = replay_cli_op(mods, spec, min(timeout, left), wrap)
                out_bytes += n
            rows = max(rows, table_rows(mods))
            times.append(elapsed)
            failed += not ok
    return times, failed, out_bytes, rows


def per_layer(tracer, rows, out_bytes) -> dict:
    ms = {name: s * 1e3 for name, s in tracer.self_s.items()}
    calls, counts = tracer.calls, tracer.counts
    routes = {"closed": ["chow.chow_euler_closed"],
              "recursive": ["chow.chow_euler_recursive"],
              "series": ["chow.chow_series", "chow.chow_euler_series"],
              "points": ["chow.points_euler_recursive"]}
    metrics = {
        "cli.main_self_ms": ms.get("cli.main", 0.0),
        "cli.stdout_bytes": out_bytes,
        "verify.cases": counts["verify.cases"],
        "verify.failures": counts["verify.failures"],
        "verify.self_ms": ms.get("verify.run_suite", 0.0),
        "chow.result_bits": counts["chow.result_bits"],
        "series.mul_calls": calls.get("series.series_mul", 0),
        "series.mul_self_ms": ms.get("series.series_mul", 0.0),
        "series.mul_products": counts["series.mul_products"],
        "series.geom_pow_self_ms": ms.get("series.series_geom_pow", 0.0),
        "binomials.calls": calls.get("binomials.binomial", 0),
        "binomials.table_hits": counts["binomials.table_hits"],
        "binomials.fallthroughs": counts["binomials.fallthroughs"],
        "binomials.self_ms": ms.get("binomials.binomial", 0.0),
        "binomials.table_rows": rows,
        "binomials.signed_calls": calls.get("binomials.binomial_signed", 0),
        "binomials.signed_self_ms": ms.get("binomials.binomial_signed", 0.0),
        "invariants.sp_euler_self_ms": ms.get("invariants.sp_euler", 0.0),
        "invariants.quaternionic_self_ms": sum(
            ms.get(f"invariants.{f}", 0.0) for f in (
                "quaternionic_euler_closed", "quaternionic_p0_oracle",
                "quaternionic_d1_oracle")),
    }
    for route, names in routes.items():
        metrics[f"chow.{route}_calls"] = sum(calls.get(n, 0) for n in names)
        metrics[f"chow.{route}_self_ms"] = sum(ms.get(n, 0.0) for n in names)
    return metrics


def trace_run(workload, seed, report):
    mods = load_chowchi()
    origin = Path(sys.modules["chowchi"].__file__).resolve()
    report["provenance"]["chowchi_file"] = str(origin.relative_to(ROOT))
    gen = workloads.rounds(workload, seed)
    rounds = [next(gen) for _ in range(TRACE_ROUNDS[workload])]
    plain, plain_failed, _, _ = replay(workload, mods, rounds)
    tracer = Tracer(mods["binomials"])
    tracer.install()
    try:
        traced, failed, out_bytes, rows = replay(workload, mods, rounds, tracer)
    finally:
        tracer.uninstall()
    common = min(len(plain), len(traced))
    metrics = per_layer(tracer, rows, out_bytes)
    metrics["trace.overhead_ratio"] = sum(traced[:common]) / sum(plain[:common])
    argvs = [workloads.argv(s) for ops in rounds for s in ops if "cmd" in s] or [REFERENCE_ARGV]
    metrics.update(cli_fixed_costs(argvs, mods))
    probes, failing = run_probes() if workload == "cli-mix" else (0, 0)
    metrics["cli.known_defect_failures"] = failing
    report.update(ops=len(traced), plain_failed=plain_failed, known_defect_probes=probes,
                  spans=sorted(tracer.span_names()))
    records = [(t, True) for t in traced]
    return records, failed + plain_failed, metrics


# -- entry point -----------------------------------------------------------

def provenance(seed) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # no parent repos
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"python": platform.python_version(), "int_max_str_digits": INT_DIGITS_DEFAULT,
            "nproc": os.cpu_count(), "git_sha": sha, "seed": seed,
            "code_under_test": "the checkout's src/, put on the path by the benchmark"}


def run_one(workload, seed, seconds, trace, spec) -> dict:
    report = {"workload": workload, "trace": trace, "provenance": provenance(seed)}
    wanted = spec["per_layer" if trace else "end_to_end"]
    if trace:
        records, failed, values = trace_run(workload, seed, report)
    else:
        records, failed, values = measure(workload, seed, seconds, report)
    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise SystemExit(f"metrics computed {sorted(set(values) ^ names)} "
                         "do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"# {workload}  seed {seed}  trace {trace}  ops {len(records)}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    for key in ("error_rate", "verify_cases_per_s", "memo_shared_share"):
        if key in report:
            print(f"  {key:34s} {report[key]:>16.6g}")
    print(json.dumps({"report": report}))
    return {"correct": failed == 0, "attempted": max(len(records), 1),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chowchi" / "__init__.py").is_file():
        print(f"bench: no chowchi sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, args.trace, spec)))
        return 0
    results = {w: run_one(w, args.seed, args.seconds, args.trace, spec)
               for w in workloads.WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
