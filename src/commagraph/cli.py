"""Command-line surface: construct, transform and check, JSON everywhere.

All results go to standard output as JSON; human-readable summaries go to
standard error.  Exit codes: 0 success, 1 a check suite failed, 2 bad
input, 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path

from . import verify
from .comma import (
    comma_object_from_json,
    comma_object_to_json,
    comma_morphism_to_json,
    coreflect,
    embed_graph,
)
from .errors import InputError, MalformedInput, UsageError
from .graphs import _graph_hom_images, graph_from_json, graph_to_json
from .groups import FiniteGroup, Raag, _raag_hom_images, commutation_graph, group_from_json, group_to_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"the file is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise MalformedInput("the JSON nests too deeply to read") from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise MalformedInput(f"the JSON holds a number too long to read: {exc}") from None


def _layout(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for values whose keys
    are all strings.  CPython runs its C encoder only when ``indent`` is
    None; with an indent every value goes through the generator-based
    encoder in ``json/encoder.py``, which yields one chunk per token and
    took most of the time of a large result.  Here each container is one
    join of its items, each string one call of the C quoting function,
    and every other scalar is left to ``json.dumps``."""
    if isinstance(value, dict) and value:
        inner = pad + "  "
        items = [
            _quote(k) + ": " + (_quote(v) if isinstance(v, str) else _layout(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        items = [_quote(v) if isinstance(v, str) else _layout(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value)


def _emit(data, args) -> None:
    _write([_layout(data), "\n"], args)


def _write(pieces, args) -> None:
    """Writes a result's text in the pieces given: no copy joins them."""
    if args.output:
        with Path(args.output).open("w") as out:
            out.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_gamma(args) -> int:
    g = graph_from_json(_load_json(args.graph))
    data = comma_object_to_json(embed_graph(g))
    _note(f"embedded a graph with {len(g.vertices)} vertices and {len(g.edges)} edges")
    _emit(data, args)
    return 0


def _cmd_coreflect(args) -> int:
    w = comma_object_from_json(_load_json(args.object))
    core = coreflect(w)
    data = {"graph": graph_to_json(core.graph), "counit": comma_morphism_to_json(core.counit)}
    _note(f"coreflection graph has {len(core.graph.edges)} edges on {len(core.graph.vertices)} vertices")
    _emit(data, args)
    return 0


def _cmd_raag_reduce(args) -> int:
    engine = Raag(graph_from_json(_load_json(args.graph))).engine
    codes = engine.read_tokens(args.word)
    reduced = engine.reduce(codes)
    _note(f"reduced {len(codes)} letters to {len(reduced)}")
    _emit({"reduced": engine.write_tokens(reduced), "identity": not reduced}, args)
    return 0


def _cmd_commutation_graph(args) -> int:
    h = group_from_json(_load_json(args.group))
    if not isinstance(h, FiniteGroup):
        raise MalformedInput("commutation graphs need a finite group")
    graph = commutation_graph(h)
    _note(f"group of order {len(h.elements)}, commutation graph has {len(graph.edges)} edges")
    _emit(graph_to_json(graph), args)
    return 0


def _hom_text(head: str, keys, labels, homs: list[tuple[int, ...]]):
    """A homs result in pieces: head, the _layout of the other fields, then
    "homs" as _layout lays out a list of dicts, each tuple read as the dict
    from keys to the labels at its indices.  The tuples come in
    lexicographic order, so those that share all but their last index form
    a run.  A %-template made once from the quoted keys, the last one as
    literal text, takes a run's shared labels once; each row of the run
    adds the last field's text, made once per label.  One piece per run,
    split every 1,000 rows: no dict per hom, and no string of the whole
    output."""
    yield head[:-2] + ',\n  "homs": '  # head ends "\n}"
    if not homs or not keys:  # no hom, or the empty domain's one hom
        yield _layout([{}] * len(homs), "\n  ") + "\n}\n"
        return
    *lead, last = [_quote(k).replace("%", "%%") for k in keys]
    template = "\n    {\n      " + "".join(k + ": %s,\n      " for k in lead) + last + ": "
    quoted = [_quote(x) for x in labels]
    tails = [q + "\n    }" for q in quoted]
    before = "["  # before the first row; a comma before every other
    for shared, run in groupby(homs, itemgetter(slice(-1))):
        prefix = template % tuple([quoted[i] for i in shared])
        rows = map(tails.__getitem__, map(itemgetter(-1), run))
        joiner = "," + prefix
        while piece := joiner.join(islice(rows, 1000)):
            yield before + prefix + piece
            before = ","
    yield "\n  ]\n}\n"


def _cmd_homs(args) -> int:
    g = graph_from_json(_load_json(args.graph))
    other = _load_json(args.target)
    if isinstance(other, dict) and "vertices" in other:
        h = graph_from_json(other)
        key, target, labels, homs = "cod", graph_to_json(h), h.vertices.labels, _graph_hom_images(g, h)
    else:
        h = group_from_json(other)
        if not isinstance(h, FiniteGroup):
            raise MalformedInput("hom enumeration needs a graph or a finite group")
        key, target, labels, homs = "group", group_to_json(h), h.elements.labels, _raag_hom_images(Raag(g), h)
    _note(f"{len(homs)} homomorphisms")
    head = _layout({"count": len(homs), "dom": graph_to_json(g), key: target})
    _write(_hom_text(head, g.vertices.labels, labels, homs), args)
    return 0


def _cmd_check(args) -> int:
    names = verify.SUITE_NAMES if "all" in args.suites else args.suites
    bounds = {"max_vertices": args.max_vertices, "max_len": args.max_word_len}
    for name in names:
        verify.validate(name, **bounds)
    reports = [verify.run_suite(name, seed=args.seed, **bounds) for name in names]
    for report in reports:
        status = "passed" if report.passed else "FAILED"
        _note(f"{report.name}: {status} ({report.cases_checked} cases; {report.scope})")
    _emit([report.to_json() for report in reports], args)
    return 0 if all(report.passed for report in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="commagraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the JSON result to this file instead of stdout")

    p = sub.add_parser("gamma", help="embed a graph as a comma object over its presented group")
    p.add_argument("graph", help="graph JSON file")
    common(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("coreflect", help="best graph approximation of a comma object")
    p.add_argument("object", help="comma object JSON file")
    common(p)
    p.set_defaults(func=_cmd_coreflect)

    p = sub.add_parser("raag-reduce", help="canonical form of a word in a graph's presented group")
    common(p)
    p.add_argument("graph", help="presentation graph JSON file")
    # main hands argparse only the arguments up to the graph (_split_word) and
    # sets the word itself; the positional stays for -h and the usage line,
    # required as 3.11 makes it, so a missing graph names it on later releases too.
    p.add_argument("word", nargs=argparse.REMAINDER, help='word tokens, "-" prefix for inverses').required = True
    p.set_defaults(func=_cmd_raag_reduce)

    p = sub.add_parser("commutation-graph", help="commutation graph of a finite group")
    p.add_argument("group", help="group JSON file")
    common(p)
    p.set_defaults(func=_cmd_commutation_graph)

    p = sub.add_parser("homs", help="enumerate homs from a graph into a graph or finite group")
    p.add_argument("graph", help="domain graph JSON file")
    p.add_argument("target", help="codomain graph or group JSON file")
    common(p)
    p.set_defaults(func=_cmd_homs)

    p = sub.add_parser("check", help="run named verification suites")
    p.add_argument("suites", nargs="+", help=f"suite names: {', '.join(verify.SUITE_NAMES)}, all")
    p.add_argument("--max-vertices", type=int, default=None, help="override the vertex bound")
    p.add_argument("--max-word-len", type=int, default=None, help="override the exhaustive word length")
    p.add_argument("--seed", type=int, default=0, help="seed for pooled objects and random words")
    common(p)
    p.set_defaults(func=_cmd_check)

    return parser


_PARSER = build_parser()  # parse_args keeps no state, so one parser serves every call
# raag-reduce's option strings, each with whether it takes a value
_RAAG_REDUCE_OPTIONS = {
    option: action.nargs != 0
    for sub in _PARSER._actions
    if isinstance(sub, argparse._SubParsersAction)
    for action in sub.choices["raag-reduce"]._actions
    for option in action.option_strings
}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse reads these as positionals


def _takes_value(token: str) -> bool | None:
    """How argparse (ArgumentParser._parse_optional) reads a raag-reduce
    argument: None for a positional, else whether the option it names takes
    the next argument as its value.  Long options may be abbreviated, and a
    value given as --name=VALUE, or -xVALUE for a short one, is part of the
    token.  An unknown option takes no value; argparse refuses it later."""
    options = _RAAG_REDUCE_OPTIONS
    if token in options:
        return options[token]
    if len(token) < 2 or token[0] != "-":
        return None
    if token[1] == "-":
        name, eq, _ = token.partition("=")
        prefixed = [option for option in options if option.startswith(name)]
        if prefixed:
            return not eq and options[prefixed[0]]
    elif token[:2] in options:
        return False
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return False


def _split_word(argv: list[str]) -> tuple[list[str], list[str]]:
    """A raag-reduce argv up to and including the graph, and the word tokens
    after it; any other argv, whole, and no word.  argparse does work for
    every argument it is given, though nargs=REMAINDER hands the word back
    as it came: on a 2,000-letter word, most of the call.  The graph is
    found as argparse finds it, past the options and their values.  A bare
    -- before the graph, or else just after it, goes to argparse, which
    drops it."""
    if argv[:1] != ["raag-reduce"]:
        return argv, []
    i, dashed = 1, False
    while i < len(argv):
        if argv[i] == "--" and not dashed:
            dashed = True
            i += 1
            continue
        takes = None if dashed else _takes_value(argv[i])
        if takes is None:
            end = i + 2 if not dashed and argv[i + 1:i + 2] == ["--"] else i + 1
            return argv[:end], argv[end:]
        i += 2 if takes else 1
    return argv, []


def _unglue_help(argv: list[str]) -> list[str]:
    """argv with each -h that has text glued on, up to a bare --, written as
    Python 3.11's argparse reads it: -h=TEXT, which every version refuses
    alike where it reads it, or -h if TEXT is only h's.  From 3.13 argparse
    reads -hx as -h -x and prints help."""
    for i, token in enumerate(argv[:argv.index("--")] if "--" in argv else argv):
        if token.startswith("-h") and token != "-h":
            text = token[3:] if token.startswith("-h=") else token[2:]
            argv[i] = "-h" if text and not text.lstrip("h") else "-h=" + text.lstrip("h")
    return argv


def main(argv=None) -> int:
    try:
        argv, word = _split_word(sys.argv[1:] if argv is None else list(argv))
        args = _PARSER.parse_args(_unglue_help(argv))
        if word:
            args.word = word
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
