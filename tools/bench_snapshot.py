"""Write one point of the performance trajectory, ``BENCH_<n>.json``.

Usage, from the root of a clean checkout::

    python3 tools/bench_snapshot.py > BENCH_<n>.json

It runs the benchmark command of ``BENCHMARK.json`` (``bench/run.py``,
unchanged) at seed 1 and the declared run length: once per workload with
``--trace 0``, each in its own process, since under ``--workload all`` a
workload's ``peak_rss_mib`` reads the peak of the workloads before it; then
once with ``--workload all --trace 1`` for the per-layer metrics.  The file
keeps the last stdout line of each run verbatim, beside its command line, and
adds the commit, whether the tree was clean, the git tree of ``src/``, the
two environment variables that change what a run measures, and the
per-layer metrics that read zero because they count code that is gone, each
with its reason.
"""

import json
import os
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
# the per-layer metrics whose code is gone, and why each reads zero
KNOWN_ZERO = {
    "binomials.table_hits": "counts hits in binomials._TABLE, a Pascal table "
                            "binomials no longer keeps",
    "binomials.table_rows": "counts rows of binomials._TABLE, which is gone",
    "binomials.signed_calls": "counts calls of binomials.binomial_signed, which is "
                              "gone; chow.sp_euler is the one signed binomial",
    "binomials.signed_self_ms": "times binomials.binomial_signed, which is gone",
    "invariants.sp_euler_self_ms": "times spans named invariants.sp_euler; sp_euler "
                                   "is defined in chow.py, so its spans are "
                                   "chow.sp_euler",
}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run(command: list[str]) -> dict:
    """The last stdout line of ``command``, parsed; its stderr is not captured,
    so the reason a failing run gives reaches the terminal."""
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {
        "git_sha": git("rev-parse", "HEAD"),
        "clean": git("status", "--porcelain") == "",
        "src_tree": git("rev-parse", "HEAD:src"),
        "env": {name: os.environ.get(name)
                for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONINTMAXSTRDIGITS")},
        "runs": [],
    }
    plan = [(w["name"], 0) for w in spec["workloads"]] + [("all", 1)]
    for workload, trace in plan:
        command = [*spec["command"], "--workload", workload, "--seed", str(SEED),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
        point["runs"].append({"workload": workload, "trace": trace,
                              "command": command, "result": run(command)})
    traced = point["runs"][-1]["result"]["metrics"]
    point["known_zero"] = {
        name: why for name, why in KNOWN_ZERO.items()
        if all(traced[f"{w['name']}.{name}"]["value"] == 0 for w in spec["workloads"])}
    print(json.dumps(point, indent=2))


if __name__ == "__main__":
    main()
