"""Benchmark of the commagraph CLI: four workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check-all --seed 1 --seconds 30 --trace 0

Workloads (see README.md for the ops, sizes and why each was chosen):
check-all, check-universal, word-long, group-scale.  Every op is a call of
``commagraph.cli.main(argv)`` inside one fresh, single-threaded Python
process, one op at a time (a closed loop with one client), and every output
is checked against an answer derived without the library.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: wall_s (median over repetitions of the op list), max_op_s (the
largest per-op median), peak_rss_mb of the workload process, and setup_s
(median over several fresh processes).  Times are scaled to a fixed machine speed measured by
the reference job of ``reference.py`` around each op; the raw seconds are
in the line before.  With ``--trace 1`` it holds the per-layer metrics of a
traced run.  The line before it records the machine, the per-op times and
the repetition count.  Exits 2 without a result when the checkout has no
``src/commagraph``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5  # fresh processes whose set-up time is measured; the last one runs the ops
TIME_LIMIT_S = 170  # the whole run, set-ups included

END_TO_END = {"wall_s": "s", "max_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the op list repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--corrupt", action="store_true", help="one wrong expected answer, for the self-test")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "commagraph" / "__init__.py").is_file():
        print(f"error: no src/commagraph under {root}; run from the root of a commagraph checkout", file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S

    setups, raw_setups = [], []
    for i in range(SETUP_RUNS):
        before = reference.reference_s()
        out = _child(args, root, workdir, deadline, setup_only=i < SETUP_RUNS - 1)
        if out is None:
            return 1
        raw_setups.append(out["setup_s"])
        setups.append(reference.scaled(out["setup_s"], before, reference.reference_s()))
    out["setup_s"] = statistics.median(setups)

    spans_file = None
    if args.trace:
        spans_file = workdir / f"trace-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"missing": out["missing"], "spans": out["spans"]}, indent=1) + "\n")
        metrics = _layer_metrics(out)
    else:
        metrics = {name: {"value": out[name], "unit": unit} for name, unit in END_TO_END.items()}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": _machine(),
        "reps": out["reps"],
        "traced_reps": out.get("traced_reps", 0),
        "setup_s_samples": setups,
        "raw": {"wall_s": out["raw_wall_s"], "max_op_s": out["raw_max_op_s"], "setup_s": raw_setups},
        "op_s": out["op_s"],
        "output_bytes": out["output_bytes"],
        "problems": out["problems"],
        "spans_file": str(spans_file.relative_to(root)) if spans_file else None,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


def _child(args, root: Path, workdir: Path, deadline: float, setup_only: bool) -> dict | None:
    """Run one worker process to the end and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    argv += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny + ["--corrupt"] * args.corrupt
    argv += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            argv, cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"error: the {args.workload} worker ran past {TIME_LIMIT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: the {args.workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _layer_metrics(out: dict) -> dict:
    """Every per-layer metric.  A metric whose every traced entry point is
    gone reports a null value and the missing names, never a zero."""
    metrics = {}
    for name, (unit, layers) in tracing.LAYER_METRICS.items():
        missing = [target for layer in layers for target in out["missing"].get(layer, [])]
        wrapped = [t for t in tracing.TARGETS if t[0] in layers and f"{t[1]}.{t[2]}" not in missing]
        entry = {"value": out["layers"][name] if wrapped or not layers else None, "unit": unit}
        if missing:
            entry["missing"] = missing
        metrics[name] = entry
    return metrics


def _machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


if __name__ == "__main__":
    sys.exit(main())
