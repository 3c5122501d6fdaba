"""Seeded inputs, op lists and independently derived answers for each workload.

Every op is one ``commagraph`` CLI call.  Its expected answer never comes
from the library: case counts come from closed formulas or a brute-force
count over small graphs, reduced words from exponent sums and a free
reduction written here, and group facts from class numbers, centralizer
orders and a permutation arithmetic written here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path
from typing import Callable

WORKLOADS = ("check-all", "check-universal", "word-long", "group-scale")

# The constants below mirror the scope of the library's suites (how many
# groups ac-bijection uses, how many random words word-differential adds),
# not anything the suites compute.
_AC_GROUPS = 5
_DVI_SETS = 4
_RANDOM_WORDS = 10000
_SUITES = (
    "unit-iso",
    "fullness",
    "ac-bijection",
    "dvi",
    "couniversal",
    "group-reflection",
    "word-differential",
)


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv (with ``--output``), the output file and a
    check of the parsed output that returns a problem or None."""

    label: str
    argv: list[str]
    output: Path
    check: Callable[[object], str | None]


def build(workload: str, seed: int, workdir: Path, tiny: bool, corrupt: bool) -> list[Op]:
    """Write the seeded inputs of a workload into workdir and return its ops.

    ``tiny`` shrinks every size for the self-test; ``corrupt`` makes one
    expected answer deliberately wrong, so that the check is seen to fail.
    """
    makers = {
        "check-all": _check_all,
        "check-universal": _check_universal,
        "word-long": _word_long,
        "group-scale": _group_scale,
    }
    return makers[workload](random.Random(seed), seed, workdir, tiny, corrupt)


# ---------------------------------------------------------------------------
# Check suites

def _labeled_graphs(n: int) -> int:
    return sum(2 ** math.comb(k, 2) for k in range(n + 1))


def _small_graphs(max_vertices: int):
    for n in range(max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(2 ** len(pairs)):
            yield n, {p for k, p in enumerate(pairs) if bits >> k & 1}


def _fullness_cases(max_vertices: int) -> int:
    """Graph homs (edges may collapse) summed over ordered pairs of graphs."""
    graphs = list(_small_graphs(max_vertices))
    total = 0
    for n1, e1 in graphs:
        for n2, e2 in graphs:
            for f in product(range(n2), repeat=n1):
                total += all(
                    f[i] == f[j] or (min(f[i], f[j]), max(f[i], f[j])) in e2 for i, j in e1
                )
    return total


def _word_differential_cases(max_vertices: int, max_len: int) -> int:
    exhaustive = sum(
        2 ** math.comb(k, 2) * sum((2 * k) ** n for n in range(max_len + 1))
        for k in range(max_vertices + 1)
    )
    return exhaustive + _RANDOM_WORDS


def _suite_cases(name: str, max_vertices: int | None, max_word_len: int | None) -> int | None:
    """Case count of a suite at the CLI's default or given bounds, or None
    where it depends on the seeded object pool."""
    def bound(default: int) -> int:
        return default if max_vertices is None else max_vertices

    if name == "unit-iso":
        return _labeled_graphs(bound(4))
    if name == "fullness":
        return _fullness_cases(bound(3))
    if name == "ac-bijection":
        return _AC_GROUPS * _labeled_graphs(bound(3))
    if name == "dvi":
        return _DVI_SETS * _labeled_graphs(bound(3))
    if name == "word-differential":
        return _word_differential_cases(bound(3), 6 if max_word_len is None else max_word_len)
    return None


def _reports_check(expected: dict[str, int | None]) -> Callable[[object], str | None]:
    def check(data):
        if not isinstance(data, list) or [r.get("name") for r in data] != list(expected):
            return f"expected reports for {list(expected)}"
        for report in data:
            name = report["name"]
            if report.get("passed") is not True or report.get("counterexample") is not None:
                return f"{name} did not pass"
            cases, want = report.get("cases_checked"), expected[name]
            if want is None and not (isinstance(cases, int) and cases > 0):
                return f"{name} checked {cases!r} cases"
            if want is not None and cases != want:
                return f"{name} checked {cases!r} cases, expected {want}"
        return None

    return check


def _check_op(workdir: Path, index: int, suites: list[str], bounds: dict, seed: int, corrupt: bool) -> Op:
    argv = ["check", *suites, "--seed", str(seed)]
    if "max_vertices" in bounds:
        argv += ["--max-vertices", str(bounds["max_vertices"])]
    if "max_word_len" in bounds:
        argv += ["--max-word-len", str(bounds["max_word_len"])]
    names = list(_SUITES) if suites == ["all"] else suites
    expected = {
        name: _suite_cases(name, bounds.get("max_vertices"), bounds.get("max_word_len"))
        for name in names
    }
    if corrupt and "unit-iso" in expected:
        expected["unit-iso"] += 1
    output = workdir / f"op{index:02d}.json"
    return Op(" ".join(argv), argv + ["--output", str(output)], output, _reports_check(expected))


def _check_all(rng, seed, workdir, tiny, corrupt) -> list[Op]:
    # At the default word length of 6 one call takes 7-10 s on a shared 2-core
    # Xeon VM: too few repetitions in a run to be steady.  Length 5 keeps the
    # oracle-heavy mix at about 2 s.
    bounds = {"max_vertices": 2, "max_word_len": 3} if tiny else {"max_word_len": 5}
    return [_check_op(workdir, 0, ["all"], bounds, seed, corrupt)]


def _check_universal(rng, seed, workdir, tiny, corrupt) -> list[Op]:
    # couniversal <= 4 takes 10-15 s per call, too long to repeat within a
    # run; couniversal <= 3 over several pool seeds keeps the comma-object
    # equality load at a fraction of the time per op.
    pool_seeds = [rng.randrange(1 << 20) for _ in range(2 if tiny else 4)]
    plan = [("couniversal", {"max_vertices": 2 if tiny else 3}, s) for s in pool_seeds]
    plan += [
        ("ac-bijection", {"max_vertices": 2 if tiny else 4}, seed),
        ("unit-iso", {"max_vertices": 3 if tiny else 5}, seed),
        ("dvi", {"max_vertices": 2 if tiny else 4}, seed),
        ("fullness", {"max_vertices": 2} if tiny else {}, seed),
        ("group-reflection", {}, seed),
    ]
    return [
        _check_op(workdir, i, [name], bounds, s, corrupt and name == "unit-iso")
        for i, (name, bounds, s) in enumerate(plan)
    ]


# ---------------------------------------------------------------------------
# Long words

def _token(gen: str, sign: int) -> str:
    return gen if sign > 0 else "-" + gen


def _free_reduce(word: list[tuple[str, int]]) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for gen, sign in word:
        if out and out[-1] == (gen, -sign):
            out.pop()
        else:
            out.append((gen, sign))
    return out


def _exponent_sums(tokens: list[str]) -> dict[str, int]:
    sums: dict[str, int] = {}
    for t in tokens:
        gen, sign = (t[1:], -1) if t.startswith("-") else (t, 1)
        sums[gen] = sums.get(gen, 0) + sign
    return {g: s for g, s in sums.items() if s}


def _reduce_check(word, vertices, kind, cancels, corrupt):
    tokens_in = [_token(g, s) for g, s in word]
    sums = _exponent_sums(tokens_in)
    if kind == "edgeless":
        expected = [_token(g, s) for g, s in _free_reduce(word)]
    elif kind == "complete":
        expected = [_token(v, 1 if sums[v] > 0 else -1) for v in vertices if v in sums for _ in range(abs(sums[v]))]
    else:
        expected = None
    if cancels:
        expected = []
    want_identity = cancels != corrupt

    def check(data):
        if not isinstance(data, dict) or not isinstance(data.get("reduced"), list):
            return "no reduced word in the output"
        reduced = data["reduced"]
        if _exponent_sums(reduced) != sums:
            return "exponent sums changed"
        if expected is not None and reduced != expected:
            return f"reduced word differs from the {kind} normal form"
        if data.get("identity") is not (reduced == []):
            return "identity flag disagrees with the reduced word"
        if data["identity"] is not want_identity:
            return f"identity is {data['identity']}, expected {want_identity}"
        return None

    return check


def _word_long(rng, seed, workdir, tiny, corrupt) -> list[Op]:
    vertices = [f"v{i:02d}" for i in range(20)]
    pairs = list(combinations(vertices, 2))
    graphs = {
        "edgeless": [],
        "complete": pairs,
        "half": [p for p in pairs if rng.random() < 0.5],
    }
    # Sizes double twice for the growth exponents.  At 4,000 letters one
    # repetition took about 15 s, too few repetitions per run to be steady.
    sizes = (20, 40, 80) if tiny else (500, 1000, 2000)
    ops = []
    for kind, edges in graphs.items():
        path = workdir / f"graph-{kind}.json"
        path.write_text(json.dumps({"vertices": vertices, "edges": [list(e) for e in edges]}))
        for n in sizes:
            random_word = [(rng.choice(vertices), rng.choice((1, -1))) for _ in range(n)]
            u = [(rng.choice(vertices), rng.choice((1, -1))) for _ in range(n // 2)]
            cancelling = u + [(g, -s) for g, s in reversed(u)]
            for shape, word, cancels in (("random", random_word, False), ("u.u^-1", cancelling, True)):
                output = workdir / f"op{len(ops):02d}.json"
                tokens = [_token(g, s) for g, s in word]
                ops.append(Op(
                    f"raag-reduce {kind} {shape} n={n}",
                    ["raag-reduce", "--output", str(output), str(path), *tokens],
                    output,
                    _reduce_check(word, vertices, kind, cancels, corrupt and not ops),
                ))
    return ops


# ---------------------------------------------------------------------------
# Finite groups, by a permutation arithmetic of our own

def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[i - 1] for i in q)


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, image in enumerate(p, start=1):
        out[image - 1] = i
    return tuple(out)


def _label(p: tuple[int, ...]) -> str:
    return "".join(map(str, p)) if len(p) <= 9 else ",".join(map(str, p))


def _parse(label: str) -> tuple[int, ...]:
    return tuple(int(x) for x in (label.split(",") if "," in label else label))


def _closure(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    ident = tuple(range(1, len(gens[0]) + 1))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def _commute(a: str, b: str) -> bool:
    p, q = _parse(a), _parse(b)
    return _compose(p, q) == _compose(q, p)


def _conjugated(rng: random.Random, degree: int, gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The generators conjugated by a seeded permutation: an isomorphic group
    on relabeled points, so the answers stay the same and the elements do not."""
    sigma = tuple(rng.sample(range(1, degree + 1), degree))
    return [_compose(_compose(sigma, g), _inverse(sigma)) for g in gens]


def _symmetric_gens(rng, degree):
    swap = (2, 1) + tuple(range(3, degree + 1))
    cycle = tuple(range(2, degree + 1)) + (1,)
    return _conjugated(rng, degree, [swap, cycle])


def _dihedral_gens(rng, m):
    rotation = tuple(i % m + 1 for i in range(1, m + 1))
    reflection = tuple((m + 1 - i) % m + 1 for i in range(1, m + 1))
    return _conjugated(rng, m, [rotation, reflection])


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _symmetric_centralizers(n: int) -> list[tuple[int, int]]:
    """(class size, centralizer order) per cycle type of S_n: the
    centralizer order is the product of i^m * m! over cycle lengths i
    occurring m times."""
    out = []
    for shape in _partitions(n):
        z = 1
        for i in set(shape):
            m = shape.count(i)
            z *= i ** m * math.factorial(m)
        out.append((math.factorial(n) // z, z))
    return out


def _path_homs(classes: list[tuple[int, int]], path_vertices: int) -> int:
    """Homs from the path on 2 or 3 vertices: sum |C(g)| or sum |C(g)|^2."""
    return sum(size * z ** (path_vertices - 1) for size, z in classes)


def _dihedral_classes(m: int) -> int:
    return (m + 3) // 2 if m % 2 else (m + 6) // 2


def _commutation_check(elements: set[str], classes: int, corrupt: bool):
    order = len(elements)
    want_edges = (order * classes - order) // 2 + corrupt

    def check(data):
        if not isinstance(data, dict) or set(data.get("vertices", ())) != elements:
            return "vertices are not the group's elements"
        edges = data.get("edges", [])
        if len(edges) != want_edges:
            return f"{len(edges)} edges, expected {want_edges}"
        pairs = {frozenset(e) for e in edges}
        if len(pairs) != len(edges) or any(len(p) != 2 or not p <= elements for p in pairs):
            return "edges are not distinct pairs of distinct elements"
        if not all(_commute(a, b) for a, b in edges):
            return "an edge joins elements that do not commute"
        return None

    return check


def _homs_check(elements: set[str], vertices: list[str], graph_edges: list[list[str]], want: int):
    def check(data):
        if not isinstance(data, dict) or data.get("count") != want or len(data.get("homs", ())) != want:
            return f"count {data.get('count') if isinstance(data, dict) else None!r}, expected {want}"
        if set(data["group"]["elements"]) != elements:
            return "target group elements differ"
        seen = set()
        for hom in data["homs"]:
            if set(hom) != set(vertices) or not set(hom.values()) <= elements:
                return "a hom sends a generator outside the group"
            if not all(_commute(hom[u], hom[v]) for u, v in graph_edges):
                return "a hom sends an edge to a non-commuting pair"
            seen.add(tuple(sorted(hom.items())))
        if len(seen) != want:
            return "homs are not distinct"
        return None

    return check


def _coreflect_check(gens: list[str], images: dict[str, str]):
    want = [[a, b] for a, b in combinations(gens, 2) if _commute(images[a], images[b])]

    def check(data):
        graph = data.get("graph", {}) if isinstance(data, dict) else {}
        if graph.get("vertices") != gens:
            return "coreflection vertices differ from the generators"
        if graph.get("edges") != want:
            return f"coreflection has {len(graph.get('edges', []))} edges, expected {len(want)}"
        if data.get("counit", {}).get("f_set") != {x: x for x in gens}:
            return "counit is not the identity on generators"
        return None

    return check


def _perm_json(degree: int, gens) -> dict:
    return {"type": "perm", "degree": degree, "generators": [list(g) for g in gens]}


def _group_scale(rng, seed, workdir, tiny, corrupt) -> list[Op]:
    # Orders 120 take 1-2 s per op here (the O(n^3) associativity check), so
    # only the dihedral series and the largest hom set run at that order;
    # the other ops use S4 and stay cheap.
    small, big, dihedral, n_gens = (3, 4, (3, 4, 5), 4) if tiny else (4, 5, (15, 30, 60), 12)
    ops: list[Op] = []

    def add(label, argv, check):
        output = workdir / f"op{len(ops):02d}.json"
        ops.append(Op(label, [argv[0], "--output", str(output), *argv[1:]], output, check))

    def write(name, data) -> str:
        path = workdir / name
        path.write_text(json.dumps(data))
        return str(path)

    sym_gens = {n: _symmetric_gens(rng, n) for n in (small, big)}
    sym_elements = {n: {_label(p) for p in _closure(g)} for n, g in sym_gens.items()}
    sym_classes = {n: _symmetric_centralizers(n) for n in (small, big)}
    perm_file = {n: write(f"s{n}.json", _perm_json(n, sym_gens[n])) for n in (small, big)}
    add(
        f"commutation-graph S{small} perm",
        ["commutation-graph", perm_file[small]],
        _commutation_check(sym_elements[small], len(sym_classes[small]), corrupt),
    )

    shuffled = sorted(_closure(sym_gens[small]))
    rng.shuffle(shuffled)
    cayley = {
        "type": "cayley",
        "elements": [_label(p) for p in shuffled],
        "table": [[_label(_compose(a, b)) for b in shuffled] for a in shuffled],
    }
    add(
        f"commutation-graph S{small} cayley",
        ["commutation-graph", write(f"s{small}-cayley.json", cayley)],
        _commutation_check(sym_elements[small], len(sym_classes[small]), False),
    )

    for m in dihedral:
        gens = _dihedral_gens(rng, m)
        add(
            f"commutation-graph D{m} order {2 * m}",
            ["commutation-graph", write(f"d{m}.json", _perm_json(m, gens))],
            _commutation_check({_label(p) for p in _closure(gens)}, _dihedral_classes(m), False),
        )

    homs = (
        ("edge", ["a", "b"], [["a", "b"]], small, _path_homs(sym_classes[small], 2)),
        ("path3", ["a", "b", "c"], [["a", "b"], ["b", "c"]], big, _path_homs(sym_classes[big], 3)),
        ("edgeless2", ["a", "b"], [], small, len(sym_elements[small]) ** 2),
    )
    for name, vertices, edges, n, want in homs:
        graph = write(f"{name}.json", {"vertices": vertices, "edges": edges})
        add(f"homs {name} -> S{n}", ["homs", graph, perm_file[n]], _homs_check(sym_elements[n], vertices, edges, want))

    gens = [f"x{i:02d}" for i in range(1, n_gens + 1)]
    images = {x: rng.choice(sorted(sym_elements[small])) for x in gens}
    obj = {"gens": gens, "target": _perm_json(small, sym_gens[small]), "images": images}
    add(
        f"coreflect {n_gens} generators over S{small}",
        ["coreflect", write("object.json", obj)],
        _coreflect_check(gens, images),
    )
    return ops
