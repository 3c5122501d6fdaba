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

    rows = []

    def run(row: str, name: str, **bounds) -> None:
        start = time.perf_counter()
        report = verify.run_suite(name, seed=args.seed, **bounds)
        rows.append((row, report, time.perf_counter() - start))

    for bound in range(1, args.max_unit_iso + 1):
        run(f"unit-iso <= {bound}", "unit-iso", max_vertices=bound)
    _, _, deepest = verify.SUITES["fullness"].bounds["max_vertices"]
    for bound in range(1, deepest + 1):
        run(f"fullness <= {bound}", "fullness", max_vertices=bound)
    for name in ("ac-bijection", "dvi", "couniversal"):
        default, _, _ = verify.SUITES[name].bounds["max_vertices"]
        run(f"{name} <= {default}", name)
    run("group-reflection", "group-reflection")
    for length in range(4, args.max_word_len + 1):
        run(f"word-differential len <= {length}", "word-differential", max_len=length, random_words=0)

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
