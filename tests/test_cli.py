import importlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from commagraph.cli import _hom_text, _layout, main
from commagraph.comma import comma_object_from_json, comma_object_to_json
from commagraph.graphs import enumerate_graph_homs, graph_from_json, graph_to_json
from commagraph.groups import Raag, enumerate_homs_raag_to_finite, group_from_json, group_to_json, raag_reduce

EDGE = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
DISCRETE2 = {"vertices": ["a", "b"], "edges": []}
S3 = {"type": "perm", "degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}
C2 = {"type": "cayley", "elements": ["e", "g"], "table": [["e", "g"], ["g", "e"]]}
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def write(tmp_path):
    def _write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_emits_comma_object(write, capsys):
    code, out, err = run(capsys, "gamma", write("edge.json", EDGE))
    assert code == 0
    data = json.loads(out)
    assert data["gens"] == ["a", "b"]
    assert data["target"]["type"] == "raag"
    assert data["images"] == {"a": ["a"], "b": ["b"]}
    assert "embedded" in err


def test_gamma_empty_graph(write, capsys):
    code, out, _ = run(capsys, "gamma", write("empty.json", {"vertices": [], "edges": []}))
    assert code == 0
    assert json.loads(out)["gens"] == []


def test_gamma_rejects_loop(write, capsys):
    code, _, err = run(capsys, "gamma", write("loop.json", {"vertices": ["a"], "edges": [["a", "a"]]}))
    assert code == 2
    assert "LoopEdge" in err


def test_gamma_coreflect_round_trip(write, capsys, tmp_path):
    gamma_path = str(tmp_path / "gamma.json")
    code, _, _ = run(capsys, "gamma", write("edge.json", EDGE), "--output", gamma_path)
    assert code == 0
    code, out, _ = run(capsys, "coreflect", gamma_path)
    assert code == 0
    data = json.loads(out)
    assert data["graph"] == EDGE


def test_coreflect_abelian_is_complete(write, capsys):
    obj = {"gens": ["x", "y"], "target": C2, "images": {"x": "g", "y": "g"}}
    code, out, _ = run(capsys, "coreflect", write("obj.json", obj))
    assert code == 0
    assert json.loads(out)["graph"]["edges"] == [["x", "y"]]


def test_coreflect_s3_witness_is_discrete(write, capsys):
    obj = {"gens": ["x", "y"], "target": S3, "images": {"x": "213", "y": "231"}}
    code, out, _ = run(capsys, "coreflect", write("obj.json", obj))
    assert code == 0
    assert json.loads(out)["graph"]["edges"] == []


def test_raag_reduce_edge_commutator(write, capsys):
    code, out, _ = run(capsys, "raag-reduce", write("edge.json", EDGE), "a", "b", "-a", "-b")
    assert code == 0
    assert json.loads(out) == {"reduced": [], "identity": True}


def test_raag_reduce_discrete_commutator(write, capsys):
    code, out, _ = run(capsys, "raag-reduce", write("disc.json", DISCRETE2), "a", "b", "-a", "-b")
    assert code == 0
    data = json.loads(out)
    assert len(data["reduced"]) == 4 and data["identity"] is False


def test_raag_reduce_inverse_pair(write, capsys):
    code, out, _ = run(capsys, "raag-reduce", write("edge.json", EDGE), "a", "-a")
    assert code == 0
    assert json.loads(out) == {"reduced": [], "identity": True}


def test_raag_reduce_unknown_generator(write, capsys):
    code, _, err = run(capsys, "raag-reduce", write("edge.json", EDGE), "z")
    assert code == 2
    assert "UnknownGenerator" in err


def _reduced(*tokens):
    return json.dumps({"reduced": list(tokens), "identity": not tokens}, indent=2) + "\n"


RAAG_REDUCE_HELP = """\
usage: commagraph raag-reduce [-h] [--output OUTPUT] graph ...

positional arguments:
  graph            presentation graph JSON file
  word             word tokens, "-" prefix for inverses

options:
  -h, --help       show this help message and exit
  --output OUTPUT  write the JSON result to this file instead of stdout
"""
REQUIRED = "usage error: the following arguments are required: graph, word\n"
EXPECTED_ONE = "usage error: argument --output: expected one argument\n"
NO_LETTERS, ONE_LETTER = "reduced 0 letters to 0\n", "reduced 1 letters to 1\n"

# How raag-reduce reads its argv: (arguments after the subcommand, exit code,
# stdout, stderr, bytes written to F or None).  g is the free group on a and
# b; both g and F are names in an otherwise empty working directory.
RAAG_REDUCE_ARGV = [
    ([], 3, "", REQUIRED, None),
    (["g"], 0, _reduced(), NO_LETTERS, None),
    (["g", "a", "-a", "b"], 0, _reduced("b"), "reduced 3 letters to 1\n", None),
    # options go before the graph, as argparse reads them
    (["--output", "F", "g", "a"], 0, "", ONE_LETTER, _reduced("a")),
    (["--output=F", "g", "a"], 0, "", ONE_LETTER, _reduced("a")),
    (["--out", "F", "g", "a"], 0, "", ONE_LETTER, _reduced("a")),
    (["--o", "F", "g", "a"], 0, "", ONE_LETTER, _reduced("a")),
    (["--ou=F", "g", "a"], 0, "", ONE_LETTER, _reduced("a")),
    (["--output", "F", "--output", "F", "g", "a"], 0, "", ONE_LETTER, _reduced("a")),
    (["--output=", "g", "a"], 0, _reduced("a"), ONE_LETTER, None),
    (["--output", "g"], 3, "", REQUIRED, None),
    (["--output", "--", "g", "a"], 3, "", EXPECTED_ONE, None),
    (["--output", "-a", "g"], 3, "", EXPECTED_ONE, None),
    # every token after the graph is a word token
    (["g", "--output", "F", "a"], 2, "", "error: UnknownGenerator: '-output' is not a generator of this group\n", None),
    (["g", "a", "--output", "F"], 2, "", "error: UnknownGenerator: '-output' is not a generator of this group\n", None),
    (["g", "a", "--help"], 2, "", "error: UnknownGenerator: '-help' is not a generator of this group\n", None),
    (["g", "-h"], 2, "", "error: UnknownGenerator: 'h' is not a generator of this group\n", None),
    (["g", "--closure-cap"], 2, "", "error: UnknownGenerator: '-closure-cap' is not a generator of this group\n", None),
    (["g", "-"], 2, "", "error: MalformedInput: bad word token '-'\n", None),
    (["g", ""], 2, "", "error: MalformedInput: bad word token ''\n", None),
    (["g", "a", "-", "b"], 2, "", "error: MalformedInput: bad word token '-'\n", None),
    # a bare -- before the graph, or else just after it, is dropped; any later one is a word token
    (["g", "--", "a"], 0, _reduced("a"), ONE_LETTER, None),
    (["g", "--", "-a"], 0, _reduced("-a"), ONE_LETTER, None),
    (["g", "--"], 0, _reduced(), NO_LETTERS, None),
    (["--", "g", "a"], 0, _reduced("a"), ONE_LETTER, None),
    (["--", "g"], 0, _reduced(), NO_LETTERS, None),
    (["g", "--", "--", "a"], 2, "", "error: UnknownGenerator: '-' is not a generator of this group\n", None),
    (["g", "a", "--", "b"], 2, "", "error: UnknownGenerator: '-' is not a generator of this group\n", None),
    (["--output", "F", "--", "g", "--", "a"], 2, "", "error: UnknownGenerator: '-' is not a generator of this group\n", None),
    (["--", "-a", "b"], 2, "", "error: [Errno 2] No such file or directory: '-a'\n", None),
    (["--", "--", "g"], 2, "", "error: [Errno 2] No such file or directory: '--'\n", None),
    # argparse reads these as the graph, not as options
    (["-", "a"], 2, "", "error: [Errno 2] No such file or directory: '-'\n", None),
    (["-1", "g"], 2, "", "error: [Errno 2] No such file or directory: '-1'\n", None),
    (["-a b", "g"], 2, "", "error: [Errno 2] No such file or directory: '-a b'\n", None),
    # help, and unknown options before the graph
    (["-h"], 0, RAAG_REDUCE_HELP, "", None),
    (["--help"], 0, RAAG_REDUCE_HELP, "", None),
    (["--h", "g"], 0, RAAG_REDUCE_HELP, "", None),
    (["-hx", "g"], 3, "", "usage error: argument -h/--help: ignored explicit argument 'x'\n", None),
    (["--closure-cap", "3", "g"], 3, "", "usage error: unrecognized arguments: --closure-cap\n", None),
    (["-a", "g"], 3, "", "usage error: unrecognized arguments: -a\n", None),
    (["-x", "g"], 3, "", "usage error: unrecognized arguments: -x\n", None),
    (["-a", "-b", "g", "a"], 3, "", "usage error: unrecognized arguments: -a -b\n", None),
    (["-a", "--", "g", "a"], 3, "", "usage error: unrecognized arguments: -a\n", None),
    (["--outputx", "g"], 3, "", "usage error: unrecognized arguments: --outputx\n", None),
    (["--outputx=3", "g", "a"], 3, "", "usage error: unrecognized arguments: --outputx=3\n", None),
    # no graph
    (["--output"], 3, "", EXPECTED_ONE, None),
    (["--output", "F"], 3, "", REQUIRED, None),
    (["--output", "F", "--"], 3, "", REQUIRED, None),
    (["--"], 3, "", REQUIRED, None),
    (["-a"], 3, "", REQUIRED, None),
]


def _raag_reduce_call(capsys, tmp_path, argv):
    """(exit code, stdout, stderr, bytes written to F) of one raag-reduce call
    run in tmp_path; help exits through SystemExit, as argparse makes it."""
    (tmp_path / "g").write_text(json.dumps(DISCRETE2))
    saved = tmp_path / "F"
    saved.unlink(missing_ok=True)
    try:
        code = main(["raag-reduce", *argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, saved.read_text() if saved.exists() else None


@pytest.fixture
def contract_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps to the terminal width
    return tmp_path


@pytest.mark.parametrize("argv, code, out, err, saved", RAAG_REDUCE_ARGV, ids=[repr(argv) for argv, *_ in RAAG_REDUCE_ARGV])
def test_raag_reduce_argv_contract(capsys, contract_dir, argv, code, out, err, saved):
    assert _raag_reduce_call(capsys, contract_dir, argv) == (code, out, err, saved)


def test_argv_contract_catches_a_split_that_does_not_skip_option_values(capsys, contract_dir, monkeypatch):
    from commagraph import cli

    # --output F g a would then take F for the graph
    monkeypatch.setitem(cli._RAAG_REDUCE_OPTIONS, "--output", False)
    broken = [argv for argv, *want in RAAG_REDUCE_ARGV if _raag_reduce_call(capsys, contract_dir, argv) != tuple(want)]
    assert ["--output", "F", "g", "a"] in broken


def _glued(text):
    return f"usage error: argument -h/--help: ignored explicit argument {text!r}\n"


# -h with text glued on, read as Python 3.11's argparse reads it on every
# version: (argv, exit code, stderr); a help call prints its usage line
# first.  From 3.13 argparse reads -hx as -h -x and would print help.
GLUED_HELP_ARGV = [
    (["gamma", "-hx", "g"], 3, _glued("x")),
    (["coreflect", "-hx", "g"], 3, _glued("x")),
    (["commutation-graph", "-hx", "g"], 3, _glued("x")),
    (["homs", "-hv", "g", "g"], 3, _glued("v")),
    (["check", "-hx", "all"], 3, _glued("x")),
    (["-hx"], 3, _glued("x")),
    (["-hx", "gamma", "g"], 3, _glued("x")),
    (["gamma", "g", "-hhx"], 3, _glued("x")),
    (["check", "all", "-h x"], 3, _glued(" x")),
    (["homs", "-hh=x", "g", "g"], 3, _glued("=x")),
    (["homs", "-h=hx", "g", "g"], 3, _glued("x")),
    (["gamma", "-h=", "g"], 3, _glued("")),
    (["gamma", "-h-x", "g"], 3, _glued("-x")),
    (["gamma", "--output", "-hx", "g"], 3, EXPECTED_ONE),
    (["check", "--seed", "x", "-hx", "all"], 3, "usage error: argument --seed: invalid int value: 'x'\n"),
    (["gamma", "--", "-hx"], 2, "error: [Errno 2] No such file or directory: '-hx'\n"),
    (["gamma", "-hh", "g"], 0, ""),
    (["gamma", "-h=h", "g"], 0, ""),
]


@pytest.mark.parametrize("argv, code, err", GLUED_HELP_ARGV, ids=[repr(argv) for argv, *_ in GLUED_HELP_ARGV])
def test_glued_help_argv_contract(capsys, contract_dir, argv, code, err):
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.err) == (code, err)
    assert captured.out.startswith(f"usage: commagraph {argv[0]} ") if code == 0 else captured.out == ""


def test_raag_reduce_hands_argparse_only_the_argv_up_to_the_graph(write, capsys, monkeypatch, tmp_path):
    from commagraph import cli

    seen = []
    parse_args = cli._PARSER.parse_args
    monkeypatch.setattr(cli._PARSER, "parse_args", lambda argv: seen.append(argv) or parse_args(argv))
    edge, saved = write("edge.json", EDGE), str(tmp_path / "saved.json")
    code, out, _ = run(capsys, "raag-reduce", "--output", saved, edge, *["a", "-b"] * 1000)
    assert code == 0 and out == ""
    assert seen == [["raag-reduce", "--output", saved, edge]]
    assert json.loads((tmp_path / "saved.json").read_text())["reduced"] == ["a"] * 1000 + ["-b"] * 1000


def test_module_entry_point_reads_sys_argv_like_main(write, capsys):
    argv = ["raag-reduce", write("disc.json", DISCRETE2), "a", "b", "-a"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "commagraph", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    assert proc.stdout == _reduced("a", "b", "-a")


def _inverse_tokens(tokens):
    return [t[1:] if t.startswith("-") else "-" + t for t in reversed(tokens)]


@pytest.mark.parametrize("density", [0.0, 1.0, 0.5], ids=["edgeless", "complete", "half"])
def test_raag_reduce_cli_matches_the_library_on_long_words(write, capsys, density):
    rng = random.Random(20)
    labels = [f"v{i}" for i in range(20)]
    edges = [[u, v] for i, u in enumerate(labels) for v in labels[i + 1:] if rng.random() < density]
    graph = {"vertices": labels, "edges": edges}
    path, raag = write("g.json", graph), Raag(graph_from_json(graph))
    letters = labels + ["-" + x for x in labels]
    u = [rng.choice(letters) for _ in range(5000)]
    for tokens in ([rng.choice(letters) for _ in range(10000)], u + _inverse_tokens(u)):
        reduced = raag.element_to_json(raag_reduce(raag, raag.element_from_json(tokens)))
        note = f"reduced 10000 letters to {len(reduced)}\n"
        assert run(capsys, "raag-reduce", path, *tokens) == (0, _reduced(*reduced), note)
    assert reduced == []


def test_commutation_graph_c2(write, capsys):
    code, out, _ = run(capsys, "commutation-graph", write("c2.json", C2))
    assert code == 0
    assert json.loads(out) == {"vertices": ["e", "g"], "edges": [["e", "g"]]}


def test_commutation_graph_s3(write, capsys):
    code, out, _ = run(capsys, "commutation-graph", write("s3.json", S3))
    assert code == 0
    assert len(json.loads(out)["edges"]) == 6


def test_commutation_graph_rejects_broken_table(write, capsys):
    broken = {"type": "cayley", "elements": ["e", "g"], "table": [["e", "g"], ["g", "g"]]}
    code, _, err = run(capsys, "commutation-graph", write("broken.json", broken))
    assert code == 2


def test_commutation_graph_rejects_negative_degree(write, capsys):
    # a degree above the closure cap is refused before its points are listed
    for degree, error in [(-1, "MalformedInput"), (10**18, "OrderCapExceeded")]:
        bad = {"type": "perm", "degree": degree, "generators": []}
        code, out, err = run(capsys, "commutation-graph", write("bad.json", bad))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {error}") and err.count("\n") == 1


def test_commutation_graph_rejects_table_rows_that_are_not_arrays(write, capsys):
    bad = {"type": "cayley", "elements": ["e", "g"], "table": [1, 2]}
    code, out, err = run(capsys, "commutation-graph", write("bad.json", bad))
    assert code == 2 and out == ""
    assert err.startswith("error: MalformedInput") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["raag-reduce", "homs", "gamma"])
def test_non_string_edge_endpoint_exits_2(write, capsys, command):
    bad = write("bad.json", {"vertices": ["a", "b"], "edges": [[["a"], "b"]]})
    argv = {"raag-reduce": [bad, "a"], "homs": [bad, write("edge.json", EDGE)], "gamma": [bad]}[command]
    code, out, err = run(capsys, command, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: MalformedInput") and err.count("\n") == 1


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "gamma", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: MalformedInput") and err.count("\n") == 1


def test_non_utf8_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"vertices":[]}')
    code, out, err = run(capsys, "gamma", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: MalformedInput") and err.count("\n") == 1


FREE = {"type": "free", "generators": ["a"]}
# (command, input JSON, the one stderr line): each reader's refusals
MALFORMED_INPUTS = [
    ("commutation-graph", FREE, "MalformedInput: commutation graphs need a finite group"),
    ("homs", FREE, "MalformedInput: hom enumeration needs a graph or a finite group"),
    ("coreflect", {"gens": [], "target": C2}, 'MalformedInput: a comma object needs "gens", "target" and "images"'),
    ("coreflect", {"gens": [], "target": C2, "images": []},
     'MalformedInput: "images" must be an object keyed by generator'),
    ("gamma", {"vertices": ["a"], "edges": [["z", "a"]]}, "UnknownVertex: edge endpoint 'z' is not a vertex"),
    ("gamma", [], 'MalformedInput: a graph must be an object with "vertices" and "edges"'),
    ("coreflect", {"gens": ["x"], "target": FREE, "images": {"x": "a"}},
     "MalformedInput: an element of a presented group must be a word array"),
    ("commutation-graph", [], 'MalformedInput: a group must be an object with a "type" field'),
    ("commutation-graph", {"type": "raag"}, 'MalformedInput: a "raag" group needs a "presentation" graph'),
    ("commutation-graph", {"type": "free"}, 'MalformedInput: a "free" group needs a "generators" array'),
    ("commutation-graph", {"type": "cayley", "elements": []},
     'MalformedInput: a "cayley" group needs "elements" and "table"'),
    ("commutation-graph", {"type": "perm", "degree": 2}, 'MalformedInput: a "perm" group needs "degree" and "generators"'),
    ("commutation-graph", {"type": "perm", "degree": "2", "generators": []},
     'MalformedInput: "degree" must be an integer and "generators" an array'),
    ("gamma", {"vertices": "ab"}, "MalformedInput: a finite set must be a JSON array of strings"),
]


@pytest.mark.parametrize("command, data, line", MALFORMED_INPUTS, ids=[line for *_, line in MALFORMED_INPUTS])
def test_malformed_input_exits_2_with_one_line(write, capsys, command, data, line):
    path = write("input.json", data)
    argv = [write("edge.json", EDGE), path] if command == "homs" else [path]
    assert run(capsys, command, *argv) == (2, "", f"error: {line}\n")


def test_default_closure_cap_refuses_s7(write, capsys):
    s7 = {"type": "perm", "degree": 7, "generators": [[2, 1, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 1]]}
    code, out, err = run(capsys, "commutation-graph", write("s7.json", s7))
    assert code == 2 and out == ""
    assert err.startswith("error: OrderCapExceeded") and err.count("\n") == 1


def _edgeless(n: int, prefix: str) -> dict:
    return {"vertices": [f"{prefix}{i}" for i in range(n)], "edges": []}


S4 = {"type": "perm", "degree": 4, "generators": [[2, 1, 3, 4], [2, 3, 4, 1]]}


PATH20 = {"vertices": [f"v{i}" for i in range(20)], "edges": [[f"v{i}", f"v{i + 1}"] for i in range(19)]}


@pytest.mark.parametrize("dom, target, refused", [
    (_edgeless(8, "v"), _edgeless(12, "w"), 12**6),  # 12^8 homs in all
    (_edgeless(6, "v"), S4, 24**5),  # 24^6 homs in all
    (_edgeless(20, "v"), _edgeless(2, "w"), 2**20),
    (PATH20, EDGE, 2**20),  # every vertex but the first has an earlier neighbour that prunes nothing
], ids=["edgeless 8 -> edgeless 12", "edgeless 6 -> S4", "edgeless 20 -> 2 points", "path 20 -> edge"])
def test_homs_past_the_cap_exit_2_before_building_the_level(write, capsys, dom, target, refused):
    from commagraph.graphs import HOM_CAP

    argv = ["homs", write("dom.json", dom), write("target.json", target)]
    start = time.perf_counter()
    assert run(capsys, *argv) == (
        2, "", f"error: HomCapExceeded: the hom search would hold {refused} partial homs, over the cap of {HOM_CAP}\n"
    )
    assert time.perf_counter() - start < 0.1
    # the levels are counted before any is built, so the search holds no
    # level at all; the 2^19 level of path 20 -> edge alone is over 100 MiB
    tracemalloc.start()
    try:
        main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("seed, tiny", [(0, True), (3, True), (0, False)], ids=["0", "3", "0 benchmark size"])
def test_the_benchmark_group_facts_hold(monkeypatch, capsys, tmp_path, seed, tiny):
    # the benchmark checks each group-scale op against facts it derives
    # without the library (class numbers, centralizer orders, its own
    # permutation arithmetic), so Tier-1 runs them too, at the small size
    # and once at the size the benchmark times (19,320 homs into S5)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    ops = workloads.build("group-scale", seed, tmp_path, tiny=tiny, corrupt=False)
    assert len(ops) == 9
    for op in ops:
        assert main(op.argv) == 0, op.label
        assert op.check(json.loads(op.output.read_text())) is None, op.label


TRIVIAL_PERM = {"type": "perm", "degree": 2, "generators": []}
FLAG_CALLS = {
    "gamma": lambda w: [w("edge.json", EDGE)],
    "raag-reduce": lambda w: [w("edge.json", EDGE)],
    "check": lambda w: ["unit-iso"],
    "coreflect": lambda w: [w("obj.json", {"gens": [], "target": TRIVIAL_PERM, "images": {}})],
    "commutation-graph": lambda w: [w("trivial.json", TRIVIAL_PERM)],
    "homs": lambda w: [w("edge.json", EDGE), w("trivial.json", TRIVIAL_PERM)],
}


@pytest.mark.parametrize(
    "command, value",
    [("gamma", "3"), ("raag-reduce", "3"), ("check", "3")]
    + [(command, value) for command in ("coreflect", "commutation-graph", "homs") for value in ("0", "-5")],
)
def test_closure_cap_is_an_unknown_flag(write, capsys, command, value):
    # the cap is a constant, so no subcommand takes it
    code, out, err = run(capsys, command, "--closure-cap", value, *FLAG_CALLS[command](write))
    assert code == 3 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "--closure-cap" in err


def test_closure_cap_of_one_admits_the_trivial_group(write, capsys, monkeypatch):
    from commagraph import groups

    # the identity alone meets a cap of one, on a single point
    monkeypatch.setattr(groups, "CLOSURE_CAP", 1)
    trivial = {"type": "perm", "degree": 1, "generators": []}
    code, out, _ = run(capsys, "commutation-graph", write("trivial.json", trivial))
    assert code == 0 and json.loads(out)["vertices"] == ["1"]


def test_one_parser_serves_every_call(write, capsys, tmp_path):
    edge, s3, saved = write("edge.json", EDGE), write("s3.json", S3), str(tmp_path / "saved.json")
    calls = [
        ["gamma"],
        ["gamma", "--closure-cap", "3", edge],
        ["commutation-graph", "--closure-cap", "0", s3],
        ["gamma", "--output", saved, edge],
        ["gamma", edge],
        ["check", "dvi", "--max-vertices", "2", "--seed", "4"],
        ["check", "dvi", "--max-vertices", "1"],
    ]
    rounds = [[run(capsys, *argv) for argv in calls] for _ in range(2)]
    assert rounds[0] == rounds[1]
    assert [code for code, _, _ in rounds[0]] == [3, 3, 3, 0, 0, 0, 0]
    # no flag of an earlier call carries over to a later one
    assert rounds[0][3][1] == "" and rounds[0][4][1]
    assert "0..2 vertices" in rounds[0][5][1] and "0..1 vertices" in rounds[0][6][1]


def test_homs_graph_to_graph(write, capsys):
    other = {"vertices": ["c", "d"], "edges": [["c", "d"]]}
    code, out, _ = run(capsys, "homs", write("edge.json", EDGE), write("other.json", other))
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4 and len(data["homs"]) == 4


def test_homs_graph_to_group(write, capsys):
    code, out, _ = run(capsys, "homs", write("edge.json", EDGE), write("s3.json", S3))
    assert code == 0
    assert json.loads(out)["count"] == 18


@pytest.mark.parametrize("target", [S3, {"vertices": ["z", "y"], "edges": [["z", "y"]]}])
def test_homs_are_keyed_in_domain_vertex_order(write, capsys, target):
    dom = {"vertices": ["c", "a", "b"], "edges": [["c", "a"], ["a", "b"]]}
    code, out, _ = run(capsys, "homs", write("dom.json", dom), write("target.json", target))
    assert code == 0
    homs = json.loads(out)["homs"]
    assert homs and all(list(f) == dom["vertices"] for f in homs)


def test_homs_into_single_vertex(write, capsys):
    point = {"vertices": ["z"], "edges": []}
    code, out, _ = run(capsys, "homs", write("edge.json", EDGE), write("point.json", point))
    assert code == 0
    assert json.loads(out)["count"] == 1


ODD_LABELS = ["%", "%s", "%%", "{0}", '"', "\\", "é", "𝄞", ""]
EMPTY = {"vertices": [], "edges": []}


def _path(labels: list[str]) -> dict:
    return {"vertices": labels, "edges": [[u, v] for u, v in zip(labels, labels[1:])]}


def _cyclic(labels: list[str]) -> dict:
    n = len(labels)
    return {"type": "cayley", "elements": labels, "table": [[labels[(i + j) % n] for j in range(n)] for i in range(n)]}


@pytest.mark.parametrize("dom, target", [
    (_path(ODD_LABELS), {"vertices": ODD_LABELS, "edges": [["%s", "{0}"]]}),  # 519 homs
    (_path(ODD_LABELS), _cyclic(["%s", ""])),  # 512 homs
    (_path(["%", "{0}"]), _cyclic(ODD_LABELS)),  # 81 homs
    (EMPTY, {"vertices": ["%s"], "edges": []}),
    (EMPTY, _cyclic(["%"])),
    (_path(ODD_LABELS), EMPTY),
    (EMPTY, EMPTY),
    ({"vertices": ["%s"], "edges": []}, _cyclic(ODD_LABELS)),  # one run of 9
    (_path(["a", "%"]), {"vertices": ODD_LABELS, "edges": [["%s", "{0}"]]}),  # 11 homs in 9 runs
    ({"vertices": ["%", "{0}", "%s"], "edges": [["%", "{0}"]]}, _cyclic(ODD_LABELS)),  # 81 runs of 9
], ids=[
    "graph", "group", "group labels", "empty dom", "empty dom group", "into empty", "empty into empty",
    "one vertex", "last key %", "last vertex isolated",
])
def test_homs_prints_the_public_enumerators_byte_for_byte(write, capsys, tmp_path, dom, target):
    # the payload comes from hom objects, laid out by the stdlib encoder;
    # keys holding "%" catch a row template that does not escape them,
    # the last key included, which the template holds as literal text
    g = graph_from_json(dom)
    if "vertices" in target:
        h = graph_from_json(target)
        key, target_json, homs = "cod", graph_to_json(h), [f.vmap.mapping for f in enumerate_graph_homs(g, h)]
    else:
        h = group_from_json(target)
        key, target_json = "group", group_to_json(h)
        homs = [f.images for f in enumerate_homs_raag_to_finite(Raag(g), h)]
    payload = {"count": len(homs), "dom": graph_to_json(g), key: target_json, "homs": homs}
    text = json.dumps(payload, indent=2) + "\n"
    argv = ["homs", write("dom.json", dom), write("target.json", target)]
    assert run(capsys, *argv) == (0, text, f"{len(homs)} homomorphisms\n")
    saved = tmp_path / "saved.json"
    assert run(capsys, *argv, "--output", str(saved)) == (0, "", f"{len(homs)} homomorphisms\n")
    assert saved.read_text() == text


def test_homs_holds_no_object_per_hom(write, capsys):
    # 90,000 homs print about 4.2 MiB; the index tuples, written a row
    # at a time, peak near 15 MiB; a hom object and dict per hom, near 51
    argv = ["homs", write("two.json", _edgeless(2, "v")), write("points.json", _edgeless(300, "w"))]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["count"] == 90_000
    assert peak < 32 * 2**20


@pytest.mark.parametrize("points, dom, pieces", [(2500, 1, 3), (300, 2, 300)])
def test_homs_are_written_a_run_at_a_time(points, dom, pieces):
    # a piece holds rows of one run (homs that differ only at the last
    # vertex) and at most 1,000 of them, so no string holds the output
    keys, labels = [f"v{i}" for i in range(dom)], [f"w{i}" for i in range(points)]
    homs = list(product(range(points), repeat=dom))
    head, *body, tail = _hom_text(_layout({"count": len(homs)}), keys, labels, homs)
    assert len(body) == pieces
    for piece in body:
        run = json.loads("[" + piece[1:] + "]")  # each piece leads with "[" or ","
        assert 1 <= len(run) <= 1000
        assert len({tuple(row.values())[:-1] for row in run}) == 1
    homs_json = [{k: labels[i] for k, i in zip(keys, t)} for t in homs]
    assert json.loads(head + "".join(body) + tail) == {"count": len(homs), "homs": homs_json}


TOKENLESS = {"vertices": ["a", "-a"], "edges": [["a", "-a"]]}  # "-a" would read back as a^-1


def test_printed_words_must_read_back(write, capsys):
    code, out, err = run(capsys, "gamma", write("g.json", TOKENLESS))
    assert (code, out) == (2, "")
    assert err == "error: MalformedInput: no word token names the positive letter of generator '-a'\n"
    code, out, err = run(capsys, "gamma", write("g.json", {"vertices": ["", "a"], "edges": []}))
    assert (code, out) == (2, "")
    assert err == "error: MalformedInput: no word token names the positive letter of generator ''\n"
    # words over such a graph that name only nameable letters still reduce
    code, out, _ = run(capsys, "raag-reduce", write("g.json", TOKENLESS), "a", "--a", "-a")
    assert (code, out) == (0, _reduced("--a"))
    # and a finite group's elements are no words
    code, out, _ = run(capsys, "homs", write("g.json", TOKENLESS), write("c2.json", C2))
    assert code == 0 and json.loads(out)["count"] == 4


def test_check_quick_suites_pass(write, capsys):
    code, out, err = run(capsys, "check", "dvi", "unit-iso", "--max-vertices", "3")
    assert code == 0
    reports = json.loads(out)
    assert [r["name"] for r in reports] == ["dvi", "unit-iso"]
    assert all(r["passed"] for r in reports)
    assert "dvi: passed" in err


def test_check_unknown_suite(write, capsys):
    code, _, err = run(capsys, "check", "bogus")
    assert code == 3
    assert "unknown suite" in err


def test_check_failing_suite_exits_1(capsys, monkeypatch):
    from commagraph import verify

    failed = verify.CheckReport("dvi", "forced", False, {"why": "forced failure"}, 1)
    monkeypatch.setattr(verify, "run_suite", lambda name, **kw: failed)
    code, out, err = run(capsys, "check", "dvi")
    assert code == 1
    assert json.loads(out)[0]["passed"] is False
    assert "FAILED" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["unit-iso", "--max-vertices", "9"],
        ["fullness", "--max-vertices", "4"],
        ["dvi", "--max-vertices", "-1"],
        ["dvi", "--max-vertices", "6"],
        ["ac-bijection", "--max-vertices", "40"],
        ["word-differential", "--max-word-len", "30"],
        ["word-differential", "--max-word-len", "-2"],
    ],
)
def test_check_out_of_range_bound_exits_3(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_check_all_ignores_bounds_a_suite_does_not_take(capsys):
    # unit-iso and the others take no word length; word-differential does
    code, out, _ = run(capsys, "check", "all", "--max-word-len", "5")
    assert code == 0
    assert all(report["passed"] for report in json.loads(out))


def test_output_is_byte_identical_across_runs(write, capsys):
    path = write("edge.json", EDGE)
    _, out1, _ = run(capsys, "gamma", path)
    _, out2, _ = run(capsys, "gamma", path)
    assert out1 == out2


def test_output_flag_writes_file(write, capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "gamma", write("edge.json", EDGE), "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["gens"] == ["a", "b"]


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "gamma", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "gamma", "/nonexistent/file.json")
    assert code == 2


def test_usage_error_exits_3(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 3


def test_emitted_json_is_accepted_back(write, capsys):
    # gamma output reads back as the same comma object
    code, out, _ = run(capsys, "gamma", write("edge.json", EDGE))
    emitted = json.loads(out)
    assert comma_object_to_json(comma_object_from_json(emitted)) == emitted
    # commutation-graph output reads back as a graph
    code, out, _ = run(capsys, "commutation-graph", write("s3.json", S3))
    graph_data = json.loads(out)
    from commagraph.graphs import graph_to_json

    assert graph_to_json(graph_from_json(graph_data)) == graph_data


def test_check_all_passes(capsys):
    # the slowest CLI test: every suite at its default (acceptance) bounds
    code, out, err = run(capsys, "check", "all")
    assert code == 0
    reports = json.loads(out)
    from commagraph.verify import SUITE_NAMES

    assert [r["name"] for r in reports] == list(SUITE_NAMES)
    assert all(r["passed"] for r in reports)


def test_check_word_differential_cli_small(capsys):
    code, out, _ = run(
        capsys, "check", "word-differential", "--max-vertices", "2", "--max-word-len", "3"
    )
    assert code == 0
    report = json.loads(out)[0]
    assert report["passed"]
    # at the default length of 6 the suite would check 21,050 cases
    assert report["cases_checked"] == 186 + 10000
    assert "length <= 3" in report["scope"]


_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé☃𝄞'), st.characters()))
_SCALARS = st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | st.floats() | _STRINGS
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(_STRINGS, kids),
    max_leaves=40,
)


@given(_JSON_VALUES)
@example([[], {}, [[]], {"": {}}, ([],), float("nan"), float("-inf"), 2**100, -0.0])
def test_layout_matches_the_stdlib_indent_encoder(value):
    assert _layout(value) == json.dumps(value, indent=2)


LAYOUT_CALLS = {
    "gamma": lambda w: ["gamma", w("edge.json", EDGE)],
    "coreflect": lambda w: [
        "coreflect", w("obj.json", {"gens": ["x", "y"], "target": S3, "images": {"x": "213", "y": "132"}}),
    ],
    "raag-reduce": lambda w: ["raag-reduce", w("disc.json", DISCRETE2), "a", "b", "-a"],
    "commutation-graph": lambda w: ["commutation-graph", w("s3.json", S3)],
    "homs-graph": lambda w: ["homs", w("edge.json", EDGE), w("other.json", DISCRETE2)],
    "homs-group": lambda w: ["homs", w("edge.json", EDGE), w("c2.json", C2)],
    "check-failing": lambda w: ["check", "word-differential", "dvi"],
}


@pytest.mark.parametrize("call", LAYOUT_CALLS)
def test_stdout_is_indent_2_json_with_a_newline(write, capsys, monkeypatch, call):
    from commagraph import verify

    failed = verify.CheckReport(
        "word-differential",
        "forced",
        False,
        {"presentation": EDGE, "word": ["a", "-b", "é"], "fast": True, "oracle": False, "notes": [[], {}]},
        7,
    )
    monkeypatch.setattr(verify, "run_suite", lambda name, **kw: failed)
    code, out, _ = run(capsys, *LAYOUT_CALLS[call](write))
    assert code == (1 if call == "check-failing" else 0)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
