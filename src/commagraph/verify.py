"""Named desk-scale verification suites.

Each suite exhaustively enumerates a bounded fragment, checks one universal
property or agreement, and returns a deterministic report.  A failing
report carries its counterexample in the CLI's JSON forms (graphs, groups,
comma objects, word tokens), so its inputs can be fed back to the CLI's
subcommands, though not every failure replays as one CLI call.

A suite is a generator that yields once per case: None when the case
passes, its counterexample when it fails.  A check that is not a case
(couniversal comparing a pair's morphism and hom counts, group reflection
checking its unit and a pair's hom list) ends the generator by returning
its counterexample.
One driver, ``run_suite``, counts the cases, stops at the first
counterexample and builds the report; one registry, ``SUITES``, holds each
suite's scope and the default and legal range of each bound a caller sets,
which the driver enforces on every call; a window no caller moves is a
constant of its suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb
from typing import Callable, Iterator, Sequence

from . import comma
from .errors import NotFactorable, UnknownSuite, UsageError
from .graphs import (
    Graph, _graph_hom_images, discrete, enumerate_graph_homs, graph_to_json, indiscrete, make_graph,
)
from .groups import (
    FiniteGroup, Raag, _raag_hom_images, commutation_graph,
    cyclic_group, enumerate_homs_finite_to_finite, group_to_json, klein_four_group, symmetric_group_3,
    trivial_group,
)
from .sets import make_set

_LABELS = ("a", "b", "c", "d", "e")

# Most words the exhaustive phase of word-differential may enumerate; the
# deepest sweep in use, length 7 over graphs on 0..3 vertices, is 2,731,330.
WORD_BUDGET = 3_000_000
_DVI_MAX_SET = 3  # dvi's largest set; no caller moves it, so it is no bound
_RANDOM_MAX_LEN, _RANDOM_MAX_VERTICES = 10, 4  # word-differential's random window, likewise


@dataclass(frozen=True)
class CheckReport:
    name: str
    scope: str
    passed: bool
    counterexample: dict | None
    cases_checked: int

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "scope": self.scope,
            "passed": self.passed,
            "cases_checked": self.cases_checked,
            "counterexample": self.counterexample,
        }


# The first n standard labels as a set, and their pairs (i, j), i < j, in
# lexicographic order, built once: every labelled graph is drawn over them.
_LABEL_SETS = [make_set(_LABELS[:n]) for n in range(len(_LABELS) + 1)]
_PAIRS = [tuple(combinations(_LABELS[:n], 2)) for n in range(len(_LABELS) + 1)]


def _labelled_graph(n: int, bits: int) -> Graph:
    """The graph on the first n standard labels whose edges are the pairs
    at the set bits of bits."""
    return make_graph(_LABEL_SETS[n], [p for k, p in enumerate(_PAIRS[n]) if bits >> k & 1])


def graphs_on(n: int):
    """All 2^C(n,2) labeled graphs on the first n standard labels."""
    for bits in range(2 ** comb(n, 2)):
        yield _labelled_graph(n, bits)


def graphs_up_to(max_vertices: int):
    for n in range(max_vertices + 1):
        yield from graphs_on(n)


def default_ac_groups() -> list[FiniteGroup]:
    return [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group(), symmetric_group_3()]


def default_pool(seed: int = 0) -> list[comma.CommaObject]:
    """Comma objects used by the couniversality and reflection sweeps:
    an empty-generator object, then one- and two-generator objects over
    C2, C3, C4, C2xC2 and S3 with seeded images, plus the standard
    noncommuting witness in S3."""
    rng = random.Random(seed)
    pool = [comma.make_comma_object(make_set([]), cyclic_group(2), {})]
    for h in default_ac_groups():
        elems = h.elements.labels
        pool.append(comma.make_comma_object(make_set(["x"]), h, {"x": rng.choice(elems)}))
        for _ in range(2):
            images = {"x": rng.choice(elems), "y": rng.choice(elems)}
            pool.append(comma.make_comma_object(make_set(["x", "y"]), h, images))
    s3 = symmetric_group_3()
    pool.append(comma.make_comma_object(make_set(["x", "y"]), s3, {"x": "213", "y": "231"}))
    return pool


# ---------------------------------------------------------------------------
# Suites: one generator each, yielding None or a counterexample per case

Cases = Iterator[dict | None]


def _unit_iso(max_vertices: int) -> Cases:
    """Embedding followed by coreflection gives every graph back exactly."""
    for g in graphs_up_to(max_vertices):
        core = comma.coreflect(comma.embed_graph(g))
        same = core.graph == g
        yield None if same else {"graph": graph_to_json(g), "coreflection": graph_to_json(core.graph)}


def _ac_bijection(max_vertices: int, groups: list[FiniteGroup]) -> Cases:
    """Graph homs into the commutation graph correspond one for one with
    group homs out of the presented group.

    One hom search runs on each side, from two readings of the rows: the
    graph side draws candidates from the commutation graph's edges, which
    commutation_graph reads from the rows itself, the group side from the
    group's commute_table, which coreflect also reads.  So an error in
    either reading fails here; fullness, dvi and couniversal check the
    search.  Each side's ordered list of index tuples must be equal, so a
    side that finds the right homs in another order fails too.  The tuples
    index the same list only because the commutation graph's vertices are
    the group's elements, so that is checked first, once per group.
    """
    targets = [(h, commutation_graph(h)) for h in groups]
    for h, h_graph in targets:
        if h_graph.vertices != h.elements:
            reason = "the commutation graph's vertices are not the group's elements"
            return {"group": group_to_json(h), "commutation_graph": graph_to_json(h_graph), "reason": reason}
    for g in graphs_up_to(max_vertices):
        for h, h_graph in targets:
            graph_side = _graph_hom_images(g, h_graph)
            group_side = _raag_hom_images(Raag(g), h)
            yield None if graph_side == group_side else {
                "graph": graph_to_json(g),
                "group": group_to_json(h),
                "graph_homs": len(graph_side),
                "group_homs": len(group_side),
            }


def _dvi(max_vertices: int) -> Cases:
    """Hom-count identities for the discrete and indiscrete constructions:
    |Gph(D(X), G)| = |V(G)|^|X| and |Gph(G, I(X))| = |X|^|V(G)|, each count
    the length of the graph-hom search's tuple list."""

    def mismatch(x, g, side: str, homs: list, expected: int) -> dict | None:
        if len(homs) == expected:
            return None
        return {"set": list(x.labels), "graph": graph_to_json(g), "side": side,
                "hom_count": len(homs), "expected": expected}

    for n in range(_DVI_MAX_SET + 1):
        x = make_set(_LABELS[:n])
        for g in graphs_up_to(max_vertices):
            v = len(g.vertices)
            yield mismatch(x, g, "discrete", _graph_hom_images(discrete(x), g), v ** n) or mismatch(
                x, g, "indiscrete", _graph_hom_images(g, indiscrete(x)), n ** v
            )


def _couniversal(pool: list[comma.CommaObject], max_vertices: int) -> Cases:
    """Morphisms from an embedded graph g into a pool object w correspond one
    for one with graph homs g -> core(w) through the counit: each enumerated
    morphism differs from the ones before it and factors by exactly one hom,
    and there are as many morphisms as homs.  Over a pool of embedded graphs
    E(d), whose coreflections are d again, this is fullness.  Each graph is
    built once per call, so everything out of it shares its one embedding."""
    graphs = list(graphs_up_to(max_vertices))
    for w in pool:
        core = comma.coreflect(w)
        for g in graphs:
            homs = enumerate_graph_homs(g, core.graph)
            # CommaMorphism equality compares set maps first, so only the
            # composites sharing m's set map can equal it
            composites: dict[frozenset, list] = {}
            for h in homs:
                composite = comma.compose_comma(comma.embed_graph_hom(h), core.counit)
                key = frozenset(composite.f_set.mapping.items())
                composites.setdefault(key, []).append((h, composite))
            morphisms = comma.enumerate_morphisms_from_embedded_graph(g, w)
            seen: set[frozenset] = set()
            for m in morphisms:
                key = frozenset(m.f_set.mapping.items())
                same_map = composites.get(key, ())
                factors = [h for h, composite in same_map if composite == m]
                witness = None
                if key in seen:  # the group part is forced, so the set map is the morphism
                    witness = "repeats an earlier morphism"
                elif len(factors) != 1:
                    witness = len(factors)
                else:
                    try:
                        found = comma.factor_through_coreflection(core, m)
                    except NotFactorable:
                        witness = "factor_through_coreflection failed"
                    else:
                        if found.vmap.mapping != factors[0].vmap.mapping:
                            witness = "disagrees with the direct factor"
                seen.add(key)
                yield None if witness is None else {
                    "graph": graph_to_json(g), "object": comma.comma_object_to_json(w),
                    "morphism_f_set": dict(m.f_set.mapping), "factorizations": witness,
                }
            if len(morphisms) != len(homs):  # not a case: a hom no morphism factors through
                return {"graph": graph_to_json(g), "object": comma.comma_object_to_json(w),
                        "morphisms": len(morphisms), "graph_homs": len(homs)}


def _table_homs(dom: FiniteGroup, cod: FiniteGroup) -> list[tuple[int, ...]]:
    """Every map of dom's elements into cod's that respects dom's whole
    product table, as index tuples in lexicographic order: images go to the
    elements in storage order, and x*y = z is checked as soon as x, y and z
    all have one.  No generating set and no walk: it shares no step with
    the hom search that group-reflection checks against it."""
    checks = [[] for _ in dom.rows]  # x*y = z, at the last of x, y and z to get an image
    for x, row in enumerate(dom.rows):
        for y, z in enumerate(row):
            checks[max(x, y, z)].append((x, y, z))
    maps = [()]
    for products in checks:
        extended = (m + (c,) for m in maps for c in range(len(cod.rows)))
        maps = [f for f in extended if all(cod.rows[f[x]][f[y]] == f[z] for x, y, z in products)]
    return maps


def _group_reflection(pool: list[comma.CommaObject], codomains: list[FiniteGroup]) -> Cases:
    """The unit into the embedded target group is couniversal the other way
    round: morphisms into embedded groups factor uniquely through it, and
    each pair's hom list is every hom, in order (_table_homs; not a case)."""
    for w in pool:
        reflection = comma.reflect_to_group(w)
        if not comma.is_comma_morphism(reflection.unit):
            return {"object": comma.comma_object_to_json(w), "reason": "unit is not a comma morphism"}
        source = comma.embed_group(w.target)  # not the unit's own codomain: composing compares by value
        for k in codomains:
            embedded = comma.embed_group(k)
            hom_list = enumerate_homs_finite_to_finite(w.target, k)
            composites = [
                comma.compose_comma(reflection.unit, comma.into_embedded_group(source, embedded, f))
                for f in hom_list
            ]
            where = {"object": comma.comma_object_to_json(w), "codomain": group_to_json(k)}
            for f in hom_list:
                m = comma.into_embedded_group(w, embedded, f)
                if comma.is_comma_morphism(m):
                    factors = sum(composite == m for composite in composites)
                    yield None if factors == 1 else {**where, "factorizations": factors}
                else:
                    reason = "induced morphism into the embedded group does not commute"
                    yield {**where, "reason": reason}
            homs = [tuple(k.elements.positions[f.images[a]] for a in w.target.elements) for f in hom_list]
            expected = _table_homs(w.target, k)
            if homs != expected:
                return {**where, "homs": len(homs), "table_homs": len(expected)}
    return None


def _word_differential(
    max_vertices: int,
    max_len: int,
    random_words: int,
    rng: random.Random,
) -> Cases:
    """The cancellation engine against two oracles that use none of it:
    exhaustively on every word within the bounds over every labeled graph,
    then on a seeded batch of random words over random graphs.

    The exhaustive phase reads a swap-and-cancel rewriting upward: each
    graph's identity words of every length are built once, and each
    length's are indexed by the rank of their prefix, the word less its
    last letter, in product order.  The engine walks each length's words in
    product order with one cancellation state.  An odometer turns over the
    prefixes: it undoes the letters from the last one that moved and pushes
    the new ones.  Under each prefix every last letter is pushed, the word
    read as trivial iff no letter of the state is live, and the letter
    undone; the rewriting's verdict is whether that letter ends one of the
    prefix's identity words.  The random phase, whose graphs and lengths
    would make those sets far too large, checks is_identity on each word
    against an exponent-sum gate and then the Tits representation of a
    right-angled Coxeter group, linear in its length: a word with a nonzero
    exponent sum is no identity, so only the zero-sum ones, about one in
    six, reach the Tits vector (_exponent_weights), and the gate changes no
    verdict.  Its words are rng's randint, random
    and randrange draws, made from getrandbits as those make them.  Its
    graphs are drawn one edge at a time, as bits over the pairs in
    graphs_on's order, and each distinct one, of at most 2^C(n,2) on n
    labels, is built once per call: a table keyed by the vertex count and
    the bits holds its Raag, which owns the engine."""

    def disagreement(raag: Raag, codes: Sequence[int], fast: bool, oracle: bool) -> dict:
        presentation = graph_to_json(raag.presentation)
        word = raag.engine.write_tokens(codes)
        return {"presentation": presentation, "word": word, "fast": fast, "oracle": oracle}

    for g in graphs_up_to(max_vertices):
        raag = Raag(g)
        engine = raag.engine
        push, undo = engine.push, engine.undo
        trivial = engine.oracle_identity_words(max_len)
        base = 2 * len(g.vertices)
        letters = range(base)
        ones = [(c,) for c in letters]
        kept, _, _, cancelled = engine.fresh_state()
        fast, oracle = len(kept) == len(cancelled), () in trivial[0]
        yield None if fast == oracle else disagreement(raag, (), fast, oracle)
        for length in range(1, max_len + 1):
            # each prefix's rank in product order -> the last letters of its
            # identity words, as bits: a slot per prefix, not a tuple per
            # identity word, which at one vertex and length 20 would double
            # the peak memory of the sets.  The set is spent once indexed.
            ends = [0] * base ** (length - 1)
            for w in trivial[length]:
                rank = 0
                for c in w[:-1]:
                    rank = rank * base + c
                ends[rank] |= 1 << w[-1]
            trivial[length].clear()
            state = engine.fresh_state()
            kept, _, _, cancelled = state
            last: tuple[int, ...] = ()
            for rank, prefix in enumerate(product(letters, repeat=length - 1)):
                # the letters after the last nonzero one wrapped round to 0,
                # so the prefix is new from that one on (from 0 at the first)
                i = length - 2
                while i > 0 and not prefix[i]:
                    i -= 1
                undo(state, last[i:])
                push(state, prefix[i:])
                last = prefix
                end = ends[rank]
                for c, one in enumerate(ones):
                    push(state, one)
                    fast = len(kept) == len(cancelled)
                    undo(state, one)
                    oracle = end >> c & 1 == 1
                    yield None if fast == oracle else disagreement(raag, (*prefix, c), fast, oracle)

    # rng.randrange(m) draws r = rng.getrandbits(m.bit_length()) until r < m,
    # and rng.randint(a, b) is a + randrange(b - a + 1): below makes the same
    # draws, and the letters' loop inlines it
    getrandbits, uniform = rng.getrandbits, rng.random

    def below(m: int) -> int:
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        return r

    weights = [_exponent_weights(n) for n in range(_RANDOM_MAX_VERTICES + 1)]
    raags = {}  # (n, bits) -> the group that graph presents
    for _ in range(random_words):
        n = 1 + below(_RANDOM_MAX_VERTICES)
        bits = sum([1 << k for k in range(comb(n, 2)) if uniform() < 0.5])
        if (n, bits) not in raags:
            raags[n, bits] = Raag(_labelled_graph(n, bits))
        raag = raags[n, bits]
        length = below(_RANDOM_MAX_LEN + 1)
        m = 2 * n
        k = m.bit_length()
        codes = []
        for _ in range(length):
            c = getrandbits(k)
            while c >= m:
                c = getrandbits(k)
            codes.append(c)
        engine = raag.engine
        fast = engine.is_identity(codes)
        oracle = not sum(map(weights[n].__getitem__, codes)) and engine.oracle_is_identity(codes)
        yield None if fast == oracle else disagreement(raag, codes, fast, oracle)


def _exponent_weights(n: int) -> list[int]:
    """Letter code c's weight in the random phase's exponent-sum gate:
    +-(2L + 1)^g for generator g = c >> 1, negative for an inverse letter,
    L being the phase's longest word.  Each of a word's exponent sums lies
    in -L..L, so its weighted sum is a balanced base-(2L + 1) numeral of
    them, zero iff every exponent sum is zero; a word with a nonzero one
    maps to a nonzero element of the abelianization, so it is no identity."""
    return [(-1) ** c * (2 * _RANDOM_MAX_LEN + 1) ** (c >> 1) for c in range(2 * n)]


def _exhaustive_words(max_vertices: int, max_len: int, **_) -> int:
    """Words of length <= max_len over all labeled graphs on 0..max_vertices vertices."""
    return sum(
        2 ** comb(n, 2) * sum((2 * n) ** length for length in range(max_len + 1))
        for n in range(max_vertices + 1)
    )


# ---------------------------------------------------------------------------
# The registry and the driver

@dataclass(frozen=True)
class Suite:
    cases: Callable[..., Cases]
    scope: str  # str.format template over the suite's arguments, a list given by its length
    bounds: dict[str, tuple[int, int, int | None]]  # bound -> (default, least, greatest or None)
    fixtures: dict[str, Callable[[int], object]] = field(default_factory=dict)  # built from the seed
    words: Callable[..., int] | None = None  # exhaustive words the bounds admit, at most WORD_BUDGET


_V = len(_LABELS)  # graphs are drawn on these labels, so no bound may ask for more vertices

SUITES: dict[str, Suite] = {
    "unit-iso": Suite(
        _unit_iso, "all labeled graphs on 0..{max_vertices} vertices", {"max_vertices": (4, 0, _V)}
    ),
    "fullness": Suite(
        lambda max_vertices: _couniversal(
            [comma.embed_graph(d) for d in graphs_up_to(max_vertices)], max_vertices
        ),
        "all ordered pairs of labeled graphs on 0..{max_vertices} vertices",
        {"max_vertices": (3, 0, 3)},
    ),
    "ac-bijection": Suite(
        _ac_bijection,
        "graphs on 0..{max_vertices} vertices against {groups} groups",
        {"max_vertices": (3, 0, _V)},
        {"groups": lambda seed: default_ac_groups()},
    ),
    "dvi": Suite(
        _dvi,
        f"sets of size 0..{_DVI_MAX_SET} against graphs on 0..{{max_vertices}} vertices",
        {"max_vertices": (3, 0, _V)},
    ),
    "couniversal": Suite(
        _couniversal,
        "graphs on 0..{max_vertices} vertices into a pool of {pool} objects",
        {"max_vertices": (3, 0, _V)},
        {"pool": default_pool},
    ),
    "group-reflection": Suite(
        _group_reflection,
        "a pool of {pool} objects into {codomains} embedded groups",
        {},
        {
            "pool": default_pool,
            "codomains": lambda seed: [
                trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group()
            ],
        },
    ),
    "word-differential": Suite(
        _word_differential,
        "all words of length <= {max_len} over graphs on 0..{max_vertices} vertices, "
        f"plus {{random_words}} seeded words of length <= {_RANDOM_MAX_LEN} "
        f"over graphs on <= {_RANDOM_MAX_VERTICES} vertices",
        {
            "max_vertices": (3, 0, _V),
            "max_len": (6, 0, 20),  # one vertex already gives 2^21 - 1 words at length 20
            "random_words": (10000, 0, None),
        },
        {"rng": random.Random},
        _exhaustive_words,
    ),
}

SUITE_NAMES = tuple(SUITES)
_ARGUMENT_NAMES = {key for suite in SUITES.values() for key in (*suite.bounds, *suite.fixtures)}


def _suite(name: str) -> Suite:
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return SUITES[name]


def validate(name: str, **given) -> dict:
    """The suite's bounds with defaults filled in, each checked against its
    range: raises what run_suite would raise for them, without running it."""
    suite = _suite(name)
    unknown = sorted(set(given) - _ARGUMENT_NAMES)
    if unknown:
        raise UsageError(f"{name}: no suite takes {', '.join(unknown)}")
    bounds = {}
    for key, (default, least, greatest) in suite.bounds.items():
        value = default if given.get(key) is None else given[key]
        if value < least or (greatest is not None and value > greatest):
            legal = f">= {least}" if greatest is None else f"{least}..{greatest}"
            raise UsageError(f"{name}: {key} = {value} is outside {legal}")
        bounds[key] = value
    words = 0 if suite.words is None else suite.words(**bounds)
    if words > WORD_BUDGET:
        raise UsageError(
            f"{name}: the bounds admit {words:,} exhaustive words, over the budget of {WORD_BUDGET:,}"
        )
    return bounds


def run_suite(name: str, seed: int = 0, **given) -> CheckReport:
    """Run a suite: the one place that counts cases and stops at the first
    counterexample.  Bounds and fixtures go by their registry names, None
    meaning the default; a name only other suites take is ignored, any other refused."""
    suite = _suite(name)
    args = validate(name, **given)
    for key, build in suite.fixtures.items():
        args[key] = build(seed) if given.get(key) is None else given[key]
    cases = suite.cases(**args)
    checked = 0
    counterexample = None
    try:
        while counterexample is None:
            counterexample = next(cases)
            checked += 1
    except StopIteration as end:
        counterexample = end.value
    scope = suite.scope.format(**{key: len(v) if isinstance(v, list) else v for key, v in args.items()})
    return CheckReport(name, scope, counterexample is None, counterexample, checked)
