"""One workload process: set up, then repeat the op list for the time given.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON line.
Set-up runs from process start (``--t0``, a ``time.monotonic()`` reading
taken just before the process was spawned) to the first timed op: Python
start-up, ``import commagraph`` and writing the seeded inputs.  Each op is
a call of ``commagraph.cli.main(argv)`` in this process, one at a time,
with its standard streams captured, and bracketed by the speed reference
of ``reference.py``; the op list then repeats until the next repetition
would pass ``--seconds``.  Outputs are checked after each repetition,
outside the timed ops.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import reference
import tracing
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    import commagraph.cli  # inside set-up on purpose: import time is part of setup_s

    tmp = Path(tempfile.mkdtemp(dir=args.workdir))
    try:
        ops = workloads.build(args.workload, args.seed, tmp, args.tiny, args.corrupt)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(_measure(commagraph.cli, ops, args))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _run_ops(cli, ops) -> dict:
    """One repetition of the op list: per-op seconds, raw and at reference
    speed, then the checks."""
    gc.collect()
    times, problems, output_bytes = [], [], 0
    ref_s = [reference.reference_s()]
    for op in ops:
        op.output.unlink(missing_ok=True)  # so an op that writes nothing cannot pass on a stale file
        captured = io.StringIO()
        with redirect_stdout(captured), redirect_stderr(captured):
            start = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except Exception as exc:  # the op raised: count it as failed and go on
                code = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - start)
        ref_s.append(reference.reference_s())
        problems.append(None if code == 0 else f"exit {code}: {captured.getvalue()[-300:]}")
    for i, op in enumerate(ops):
        if problems[i] is None:
            try:
                text = op.output.read_text()
                output_bytes += len(text.encode())
                problems[i] = op.check(json.loads(text))
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                problems[i] = f"unreadable output: {type(exc).__name__}: {exc}"
    scaled = [reference.scaled(t, ref_s[i], ref_s[i + 1]) for i, t in enumerate(times)]
    return {"times": times, "scaled": scaled, "problems": problems, "output_bytes": output_bytes}


def _measure(cli, ops, args) -> dict:
    deadline = time.monotonic() + args.seconds

    def timed(durations: list[float]) -> dict:
        began = time.monotonic()
        rep = _run_ops(cli, ops)
        durations.append(time.monotonic() - began)
        return rep

    def time_left(durations: list[float]) -> bool:
        return time.monotonic() + statistics.median(durations) <= deadline

    plain, durations = [], []
    plain.append(timed(durations))
    traced, traced_durations = [], []
    tracer = None
    if args.trace:
        # The one untraced repetition is the base of the tracing overhead.
        tracer = tracing.Tracer()
        tracer.install()
        try:
            while not traced or time_left(traced_durations):
                tracer.reset()
                rep = timed(traced_durations)
                layers = tracing.layer_metrics(tracer, sum(rep["times"]), rep["output_bytes"])
                speed = sum(rep["scaled"]) / sum(rep["times"])
                rep["layers"] = {
                    k: v * speed if tracing.LAYER_METRICS[k][0] in ("s", "ns") else v
                    for k, v in layers.items()
                }
                traced.append(rep)
        finally:
            tracer.uninstall()
    else:
        while time_left(durations):
            plain.append(timed(durations))

    every = plain + traced
    failed = [(op.label, p) for rep in every for op, p in zip(ops, rep["problems"]) if p]
    op_s = [statistics.median(r["scaled"][i] for r in plain) for i in range(len(ops))]
    result = {
        "attempted": len(ops) * len(every),
        "failed": len(failed),
        "problems": failed[:5],
        "reps": len(plain),
        "wall_s": statistics.median(sum(r["scaled"]) for r in plain),
        "max_op_s": max(op_s),
        "raw_wall_s": statistics.median(sum(r["times"]) for r in plain),
        "raw_max_op_s": max(statistics.median(r["times"][i] for r in plain) for i in range(len(ops))),
        "op_s": {op.label: t for op, t in zip(ops, op_s)},
        "output_bytes": sorted({r["output_bytes"] for r in every}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = {
            name: statistics.median_low(r["layers"][name] for r in traced) for name in traced[0]["layers"]
        }
        layers["trace.overhead"] = statistics.median(sum(r["scaled"]) for r in traced) / result["wall_s"]
        result["traced_reps"] = len(traced)
        result["layers"] = layers
        result["missing"] = tracer.missing
        result["spans"] = tracer.table()
    return result


if __name__ == "__main__":
    sys.exit(main())
