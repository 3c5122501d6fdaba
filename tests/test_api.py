"""No public function of the package has its own test as its only caller,
no suite bound or CLI option is set only by tests, every name the
benchmark's tracer wraps still exists, and every file parses as the oldest
Python the package supports."""

import argparse
import ast
import importlib
from pathlib import Path

import pytest

from commagraph import cli, verify

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "commagraph"


def _public_functions() -> set[str]:
    """Top-level functions without a leading underscore, in every module of
    the package, exported from __init__ or not."""
    return {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def _referenced_names() -> set[str]:
    """Names read as a variable or an attribute anywhere in src/ or scripts/
    outside __init__.py; a def or an import binds a name without reading it."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_function_has_a_caller():
    assert sorted(_public_functions() - _referenced_names()) == []


def _names_callers_pass() -> set[str]:
    """Every string constant and keyword name in the CLI and the scripts:
    the ways a caller names a suite bound."""
    names = set()
    for path in [PACKAGE / "cli.py", *sorted((ROOT / "scripts").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
    return names


def test_every_suite_bound_has_a_caller():
    """A bound that only tests set is a constant of its suite, not a bound."""
    named = _names_callers_pass()
    unset = [
        f"{name}.{bound}"
        for name, suite in verify.SUITES.items()
        for bound in suite.bounds
        if bound not in named
    ]
    assert unset == []


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    options = set()
    for action in parser._actions:
        options.update(s for s in action.option_strings if s.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _long_options(sub)
    return options - {"--help"}


def test_every_cli_option_has_a_caller():
    """An option that only tests pass is a constant, not an option."""
    passed = {
        node.value
        for path in [*sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert sorted(_long_options(cli._PARSER) - passed) == []


def test_every_traced_name_resolves(monkeypatch):
    """The benchmark's tracer wraps each target by name and skips a missing
    one, so a rename would read as zero time in that layer."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    missing = []
    for _, module_name, attribute, _, _ in tracing.TARGETS:
        owner, name = tracing._resolve(module_name, attribute)
        if getattr(owner, name, None) is None:
            missing.append(f"{module_name}.{attribute}")
    assert missing == []


def test_every_file_parses_as_python_3_10():
    """pyproject.toml promises requires-python >= 3.10, so no file may use
    later syntax, such as except* (3.11) or a type statement (3.12)."""
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    files = [
        path for folder in ("src", "scripts", "perfbench", "tests") for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
