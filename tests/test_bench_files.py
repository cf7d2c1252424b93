"""Each committed ``BENCH_<n>.json`` at the root is a whole trajectory point.

``tools/bench_snapshot.py`` writes one.  Each must parse, carry every metric
that ``BENCHMARK.json`` names, end to end and per layer, for every workload
and with the same unit, name its commit and whether its tree was clean, and
hold only runs that were correct and failed no op.
A benchmark run that fails must still show the writer why.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(point: dict) -> dict[tuple[str, str], str]:
    """(workload, metric) -> unit over the runs of ``point``; a run of every
    workload names its metrics ``<workload>.<metric>``."""
    found = {}
    for run in point["runs"]:
        for key, metric in run["result"]["metrics"].items():
            where = tuple(key.split(".", 1)) if run["workload"] == "all" \
                else (run["workload"], key)
            found[where] = metric["unit"]
    return found


def test_bench_files_are_whole():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    want = {(w["name"], m["name"]): m["unit"] for w in SPEC["workloads"]
            for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for path in paths:
        point = json.loads(path.read_text())
        assert re.fullmatch("[0-9a-f]{40}", point["git_sha"]), path.name
        assert isinstance(point["clean"], bool), path.name
        found = units(point)
        assert {key: found.get(key) for key in want} == want, path.name
        # a failed op ranks above every success in the percentiles, so a
        # point is comparable with another only if each of its runs is clean
        for run in point["runs"]:
            result = run["result"]
            assert (result["correct"], result["failed"]) == (True, 0), \
                (path.name, run["workload"])


def test_snapshot_passes_a_failing_runs_stderr_through(capfd):
    spec = importlib.util.spec_from_file_location(
        "bench_snapshot", ROOT / "tools" / "bench_snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    child = [sys.executable, "-c", "import sys; "
             "print('bench: no chowchi sources under /x', file=sys.stderr); sys.exit(2)"]
    with pytest.raises(subprocess.CalledProcessError) as failed:
        snapshot.run(child)
    assert failed.value.returncode == 2
    assert capfd.readouterr().err == "bench: no chowchi sources under /x\n"
