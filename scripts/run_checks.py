#!/usr/bin/env python3
"""Depth sweep over the verification suites.

Runs each suite at increasing bounds and tabulates cases checked and wall
time, so the cost of pushing the exhaustive windows further is visible.
"""

import argparse
import json
import sys
import time

from commagraph import verify
from commagraph.errors import UsageError


def main() -> int:
    _, _, unit_iso_top = verify.SUITES["unit-iso"].bounds["max_vertices"]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-unit-iso", type=int, default=unit_iso_top, help="deepest unit-iso vertex bound"
    )
    parser.add_argument("--max-word-len", type=int, default=7, help="deepest exhaustive word length")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="emit the reports as JSON")
    args = parser.parse_args()

    plan = []

    def add(row: str, name: str, **bounds) -> None:
        plan.append((row, name, bounds))

    for bound in range(1, args.max_unit_iso + 1):
        add(f"unit-iso <= {bound}", "unit-iso", max_vertices=bound)
    _, _, deepest = verify.SUITES["fullness"].bounds["max_vertices"]
    for bound in range(1, deepest + 1):
        add(f"fullness <= {bound}", "fullness", max_vertices=bound)
    for name in ("ac-bijection", "dvi", "couniversal"):
        default, _, _ = verify.SUITES[name].bounds["max_vertices"]
        add(f"{name} <= {default}", name)
    add("group-reflection", "group-reflection")
    for length in range(4, args.max_word_len + 1):
        add(f"word-differential len <= {length}", "word-differential", max_len=length, random_words=0)
    # the random phase alone: the exhaustive phase is then the empty word on the empty graph
    add("word-differential random", "word-differential", max_vertices=0, max_len=0)

    try:  # every row's bounds before any suite runs, as the CLI does
        for _, name, bounds in plan:
            verify.validate(name, **bounds)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3

    rows = []
    for row, name, bounds in plan:
        start = time.perf_counter()
        report = verify.run_suite(name, seed=args.seed, **bounds)
        rows.append((row, report, time.perf_counter() - start))

    if args.json:
        print(json.dumps([r.to_json() for _, r, _ in rows], indent=2))
    else:
        width = max(len(name) for name, _, _ in rows)
        for name, report, elapsed in rows:
            status = "ok " if report.passed else "FAIL"
            print(f"{name:<{width}}  {status}  {report.cases_checked:>9} cases  {elapsed:8.2f}s")
    return 0 if all(r.passed for _, r, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
