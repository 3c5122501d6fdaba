import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from commagraph.cli import _layout, main
from commagraph.comma import comma_object_from_json, comma_object_to_json
from commagraph.graphs import graph_from_json

EDGE = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
DISCRETE2 = {"vertices": ["a", "b"], "edges": []}
S3 = {"type": "perm", "degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}
C2 = {"type": "cayley", "elements": ["e", "g"], "table": [["e", "g"], ["g", "e"]]}


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


def test_default_closure_cap_refuses_s7(write, capsys):
    s7 = {"type": "perm", "degree": 7, "generators": [[2, 1, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 1]]}
    code, out, err = run(capsys, "commutation-graph", write("s7.json", s7))
    assert code == 2 and out == ""
    assert err.startswith("error: OrderCapExceeded") and err.count("\n") == 1


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
