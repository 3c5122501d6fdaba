#!/usr/bin/env python3
"""Byte-for-byte comparison of the CLI in this checkout and in another one.

Every op of the benchmark's workloads (perfbench/workloads.py) is run once
under each checkout's src/, each in its own ``python -m commagraph``
process, on the same seeded inputs; so is ``check all --seed 0`` at its
default bounds.  For each op the exit code, standard output, standard
error and the bytes of its --output file must be equal.  Exits 1 and lists
every op that differs, 0 if none does.

    python scripts/compare_trees.py ../parent-checkout
    python scripts/compare_trees.py ../parent-checkout --seeds 0 --tiny
    python3.11 scripts/compare_trees.py . --python python3.13

--tiny shrinks every workload as the benchmark's self-test does and leaves
out the default-bound ``check all``.  --python runs the other checkout
under another interpreter, this one staying under the interpreter that
runs the script, so the last line compares one checkout across two Python
versions.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench's op lists, read as they are)


def _run(python: str, src: Path, argv: list[str], output: Path | None) -> tuple:
    """One op in a fresh process of python under src: exit code, stdout,
    stderr and the --output file's bytes (None if it wrote none)."""
    if output is not None:
        output.unlink(missing_ok=True)
    # -m puts the working directory first on sys.path, so start in src too
    result = subprocess.run(
        [python, "-B", "-m", "commagraph", *argv],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)}, cwd=src, timeout=600,
    )
    written = output.read_bytes() if output is not None and output.exists() else None
    return result.returncode, result.stdout, result.stderr, written


def _differences(here: tuple, there: tuple) -> list[str]:
    names = ("exit code", "stdout", "stderr", "--output")
    return [name for name, a, b in zip(names, here, there) if a != b]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("other", type=Path, help="the other checkout, holding src/commagraph")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3], help="workload seeds")
    parser.add_argument(
        "--workloads", nargs="+", choices=workloads.WORKLOADS, default=list(workloads.WORKLOADS), help="workloads to run"
    )
    parser.add_argument("--tiny", action="store_true", help="the self-test's sizes, no default-bound check all")
    parser.add_argument(
        "--python", default=sys.executable, help="the interpreter that runs the other checkout (default: this one)"
    )
    args = parser.parse_args()
    trees = [(sys.executable, ROOT / "src"), (args.python, args.other.resolve() / "src")]
    if not (trees[1][1] / "commagraph").is_dir():
        print(f"no src/commagraph under {args.other}", file=sys.stderr)
        return 2
    if shutil.which(args.python) is None:
        print(f"no interpreter {args.python}", file=sys.stderr)
        return 2

    differing = []
    with tempfile.TemporaryDirectory() as tmp:
        plan = [] if args.tiny else [("check all --seed 0", ["check", "all", "--seed", "0"], None)]
        for name in args.workloads:
            for seed in args.seeds:
                workdir = Path(tmp) / f"{name}-{seed}"
                workdir.mkdir()
                ops = workloads.build(name, seed, workdir, tiny=args.tiny, corrupt=False)
                plan += [(f"{name} seed {seed}: {op.label}", op.argv, op.output) for op in ops]
        for label, argv, output in plan:
            here, there = (_run(python, src, argv, output) for python, src in trees)
            changed = _differences(here, there)
            if changed:
                differing.append(f"{label}: {', '.join(changed)} differ")
    for line in differing:
        print(line)
    print(f"{len(differing)} of {len(plan)} ops differ between {ROOT} and {args.other.resolve()}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
