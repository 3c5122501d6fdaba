"""The scripts run end to end against the library's public entry points."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )


PATH = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
DEMO_STDOUT = "".join(
    f"--- {title}\n{json.dumps(data, indent=2)}\n"
    for title, data in [
        ("path graph a-b-c as a comma object", {
            "gens": ["a", "b", "c"],
            "target": {"type": "raag", "presentation": PATH},
            "images": {"a": ["a"], "b": ["b"], "c": ["c"]},
        }),
        ("its coreflection (the path again)", PATH),
        ("two generators in a cyclic group coreflect to a complete graph",
         {"vertices": ["x", "y"], "edges": [["x", "y"]]}),
        ("a transposition and a rotation coreflect to a discrete graph", {"vertices": ["x", "y"], "edges": []}),
    ]
) + (
    "word a b -a -b  ->  (empty)  identity=True\n"
    "word a c -a -c  ->  a c -a -c  identity=False\n"
    "word b a c -a  ->  a b c -a  identity=False\n"
    "homs from the group of a-b-c into S3: 66\n"
    "graph homs from a-b-c into the commutation graph of S3: 66\n"
    "the same vertex assignments, in the same order: True\n"
)


def test_embedding_demo_runs():
    result = run_script("embedding_demo.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout == DEMO_STDOUT


def test_run_checks_small_sweep_passes():
    result = run_script("run_checks.py", "--max-unit-iso", "2", "--max-word-len", "4", "--json")
    assert result.returncode == 0, result.stderr
    reports = json.loads(result.stdout)
    assert reports and all(report["passed"] for report in reports)


@pytest.mark.parametrize("flag, value", [("--max-word-len", "8"), ("--max-unit-iso", "6")])
def test_run_checks_refuses_a_bad_bound_before_running(flag, value):
    result = run_script("run_checks.py", flag, value)
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr.startswith("usage error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_compare_trees_finds_no_difference_from_its_own_checkout():
    result = run_script("compare_trees.py", str(ROOT), "--tiny", "--seeds", "0")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == ""
    assert re.fullmatch(r"0 of [1-9]\d* ops differ between .*\n", result.stderr)


def test_compare_trees_lists_each_op_that_differs(tmp_path):
    # a copy whose commutation-graph note reads otherwise: those ops, and
    # only those, differ, and only on stderr
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "commagraph" / "cli.py"
    cli.write_text(cli.read_text().replace('_note(f"group of order', '_note(f"a group of order'))
    result = run_script("compare_trees.py", str(tmp_path), "--tiny", "--seeds", "0", "--workloads", "group-scale")
    assert result.returncode == 1, result.stderr
    listed = result.stdout.splitlines()
    assert len(listed) == 5  # S4 as permutations and as a table, and three dihedral groups
    assert all(" commutation-graph " in line and line.endswith(": stderr differ") for line in listed)
    assert result.stderr.startswith(f"{len(listed)} of 9 ops differ")


def test_compare_trees_runs_the_other_checkout_under_a_given_interpreter():
    result = run_script(
        "compare_trees.py", str(ROOT), "--tiny", "--seeds", "0", "--workloads", "group-scale",
        "--python", sys.executable,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == ""
    assert re.fullmatch(r"0 of [1-9]\d* ops differ between .*\n", result.stderr)


def test_compare_trees_refuses_an_interpreter_it_cannot_find(tmp_path):
    result = run_script("compare_trees.py", str(ROOT), "--tiny", "--python", str(tmp_path / "no-python"))
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"no interpreter {tmp_path / 'no-python'}\n"
