"""Self-test of the benchmark itself, at tiny sizes.

From the root of a checkout:

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json, all positive, and a traced run
exactly its per-layer metrics, both with no failed op; that one
deliberately wrong expected answer makes ``failed`` > 0, so the checks are
live; and that in a directory holding only BENCHMARK.json and perfbench/
the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int, corrupt: bool = False) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
    ] + ["--corrupt"] * corrupt
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    root = HERE.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.END_TO_END) == end_to_end
    assert set(tracing.LAYER_METRICS) == per_layer

    for workload in workloads.WORKLOADS:
        plain = _result(_bench(root, workload, 0))
        assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1, plain
        assert set(plain["metrics"]) == end_to_end, plain["metrics"]
        assert all(m["value"] > 0 for m in plain["metrics"].values()), plain["metrics"]

        traced = _result(_bench(root, workload, 1))
        assert traced["correct"] and traced["failed"] == 0, traced
        assert set(traced["metrics"]) == per_layer, traced["metrics"]
        assert all(isinstance(m["value"], (int, float)) for m in traced["metrics"].values()), traced["metrics"]

        wrong = _result(_bench(root, workload, 0, corrupt=True))
        assert not wrong["correct"] and wrong["failed"] > 0, wrong
        print(f"ok {workload}: {plain['attempted']} ops, a wrong answer fails {wrong['failed']} of {wrong['attempted']}")

    bare = root / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    try:
        proc = _bench(bare, workloads.WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok without src/commagraph: exit {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
