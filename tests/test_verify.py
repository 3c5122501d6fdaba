import random
import time
from itertools import combinations, product

import pytest

from commagraph import cli, comma, verify
from commagraph.graphs import Graph, enumerate_graph_homs, graph_from_json, make_graph
from commagraph.groups import (
    FiniteGroup, GroupHom, Raag, commutation_graph, enumerate_homs_raag_to_finite,
)
from commagraph.sets import SetMap, make_set


def test_graphs_on_counts():
    for n, expected in [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64)]:
        assert sum(1 for _ in verify.graphs_on(n)) == expected


def test_unit_iso_passes_and_counts():
    report = verify.run_suite("unit-iso", max_vertices=3)
    assert report.passed and report.counterexample is None
    assert report.cases_checked == 12  # empty graph + 1 + 2 + 8
    assert verify.run_suite("unit-iso", max_vertices=1).passed


def test_unit_iso_rejects_oversized_bound():
    with pytest.raises(ValueError):
        verify.run_suite("unit-iso", max_vertices=6)


def test_unit_iso_mutation_is_caught(monkeypatch):
    # a corrupted coreflector must produce a counterexample, and the
    # counterexample must reproduce when replayed on its own
    real = comma.coreflect

    def corrupted(w):
        core = real(w)
        if core.graph.edges:
            return comma.Coreflection(Graph(core.graph.vertices, core.graph.edges[1:]), core.counit)
        return core

    monkeypatch.setattr(comma, "coreflect", corrupted)
    report = verify.run_suite("unit-iso", max_vertices=2)
    assert not report.passed
    assert report.counterexample is not None
    witness = graph_from_json(report.counterexample["graph"])
    replay = comma.coreflect(comma.embed_graph(witness))
    assert replay.graph.edges != witness.edges
    monkeypatch.undo()
    assert comma.coreflect(comma.embed_graph(witness)).graph == witness


def test_failed_report_carries_counterexample_json(monkeypatch):
    monkeypatch.setattr(
        comma,
        "coreflect",
        lambda w: comma.Coreflection(Graph(w.gens, ()), comma.identity_comma(w)),
    )
    report = verify.run_suite("unit-iso", max_vertices=2)
    assert not report.passed
    data = report.to_json()
    assert data["counterexample"]["graph"] == {"vertices": ["a", "b"], "edges": [["a", "b"]]}


def _brute_force_graph_hom_pairs(max_vertices: int) -> int:
    """The vertex maps between every ordered pair of graphs on 0..max_vertices
    vertices under which each edge collapses or lands on an edge, counted by
    trying every map: the fullness suite's case count, with no library search."""
    graphs = []
    for n in range(max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        graphs += [(n, edges) for k in range(len(pairs) + 1) for edges in combinations(pairs, k)]
    count = 0
    for n1, edges1 in graphs:
        for n2, edges2 in graphs:
            for f in product(range(n2), repeat=n1):
                count += all(f[u] == f[v] or (min(f[u], f[v]), max(f[u], f[v])) in edges2 for u, v in edges1)
    return count


def test_fullness_passes():
    for n, expected in enumerate([1, 3, 25, 1351]):
        assert _brute_force_graph_hom_pairs(n) == expected
        report = verify.run_suite("fullness", max_vertices=n)
        assert report.passed and report.counterexample is None
        assert report.cases_checked == expected


def test_fullness_edge_pair_counts():
    edge = next(g for g in verify.graphs_on(2) if g.edges)
    two = list(verify.graphs_on(2))
    discrete2 = next(g for g in two if not g.edges)
    squares = comma.enumerate_morphisms_from_embedded_graph(edge, comma.embed_graph(edge))
    assert len(squares) == 4
    squares = comma.enumerate_morphisms_from_embedded_graph(edge, comma.embed_graph(discrete2))
    assert len(squares) == 2


def test_ac_bijection_passes():
    report = verify.run_suite("ac-bijection", max_vertices=3)
    assert report.passed
    assert report.cases_checked == 12 * 5


def test_dvi_passes():
    report = verify.run_suite("dvi", max_vertices=3)
    assert report.passed
    assert report.cases_checked == 4 * 12


def test_couniversal_passes():
    report = verify.run_suite("couniversal", max_vertices=2)
    assert report.passed and report.cases_checked > 0


def test_couniversal_abelian_pool_object_alone():
    from commagraph import cyclic_group, make_comma_object

    pool = [make_comma_object(make_set(["x", "y"]), cyclic_group(4), {"x": "g", "y": "g2"})]
    report = verify.run_suite("couniversal", pool=pool, max_vertices=2)
    assert report.passed


def test_couniversal_is_fast_at_four_vertices():
    # about 0.4 s on a 2-core Xeon VM; 5 s leaves room for slower machines
    start = time.perf_counter()
    report = verify.run_suite("couniversal", max_vertices=4)
    assert time.perf_counter() - start < 5.0
    assert report.passed and report.cases_checked == 10778


def test_group_reflection_passes():
    report = verify.run_suite("group-reflection")
    assert report.passed and report.cases_checked > 0


def test_word_differential_tiny_bounds():
    report = verify.run_suite("word-differential", max_vertices=2, max_len=4, random_words=100)
    assert report.passed
    assert report.cases_checked > 100


def test_word_differential_single_generator():
    # one generator: the group is infinite cyclic, identity iff exponent sum 0
    report = verify.run_suite("word-differential", max_vertices=1, max_len=8, random_words=0)
    assert report.passed


def _replayed_verdict(ce) -> bool:
    """Replay a witness through the public API: the unmutated engine's and
    Tits oracle's common verdict on it."""
    from commagraph import raag_is_identity

    raag = Raag(graph_from_json(ce["presentation"]))
    w = raag.element_from_json(ce["word"])
    fast = raag_is_identity(raag, w)
    assert fast == raag.engine.oracle_is_identity(raag.engine.encode(w))
    return fast


def _mutated_push(cancels):
    """The engine's push step with its cancellation test replaced: x cancels
    the last live letter y of its generator iff cancels(self, state, x, y)."""

    def push(self, state, letters):
        kept, below, top, cancelled = state
        for c in letters:
            g = c >> 1
            p = top[g]
            if p >= 0 and cancels(self, state, c, p):
                kept[p] = -1
                top[g] = below[p]
                cancelled.append(p)
                continue
            below.append(p)
            top[g] = len(kept)
            kept.append(c)

    return push


def test_word_differential_mutation_is_caught(monkeypatch):
    from commagraph.groups import _RaagEngine

    def lying(self, state, c, p):
        # a letter also cancels its own copy, so a.a reads as the identity
        kept, _, top, _ = state
        return kept[p] in (c, c ^ 1) and all(top[h] <= p for h in self.blocking[c >> 1])

    monkeypatch.setattr(_RaagEngine, "push", _mutated_push(lying))
    report = verify.run_suite("word-differential", max_vertices=1, max_len=2, random_words=0)
    assert not report.passed
    ce = report.counterexample
    assert ce["word"] == ["a", "a"]
    monkeypatch.undo()
    assert _replayed_verdict(ce) == ce["oracle"] != ce["fast"]


def test_word_differential_random_phase_catches_a_lying_is_identity(monkeypatch):
    from commagraph.groups import _RaagEngine

    real = _RaagEngine.is_identity

    def lying(self, enc):
        if len(enc) == 2 and enc[0] == enc[1]:
            return True
        return real(self, enc)

    # the exhaustive phase reads its verdicts off the walked state, so only
    # the random phase asks is_identity
    monkeypatch.setattr(_RaagEngine, "is_identity", lying)
    assert verify.run_suite("word-differential", max_len=2, random_words=0).passed
    report = verify.run_suite("word-differential", max_len=0)
    assert not report.passed
    ce = report.counterexample
    assert len(ce["word"]) == 2 and ce["word"][0] == ce["word"][1]
    monkeypatch.undo()
    assert _replayed_verdict(ce) == ce["oracle"] != ce["fast"]


def test_word_differential_engine_blocking_mutation_is_caught(monkeypatch):
    from commagraph.groups import _RaagEngine

    def no_blocking_check(self, state, c, p):
        # cancels against the last live letter of the generator, past anything
        return state[0][p] == c ^ 1

    monkeypatch.setattr(_RaagEngine, "push", _mutated_push(no_blocking_check))
    report = verify.run_suite("word-differential", max_vertices=2, max_len=4, random_words=0)
    assert not report.passed
    ce = report.counterexample
    assert ce["presentation"]["edges"] == [] and ce["word"] == ["a", "b", "-a", "-b"]
    monkeypatch.undo()
    assert _replayed_verdict(ce) == ce["oracle"] != ce["fast"]


def _mutated_undo(revive, restore_top):
    """The engine's undo with a taken-back cancellation that may leave its
    letter cancelled, and a taken-back kept letter that may leave its
    generator with no top instead of the letter below it."""

    def undo(self, state, letters):
        kept, below, top, cancelled = state
        for c in reversed(letters):
            g = c >> 1
            if top[g] == len(kept) - 1:
                kept.pop()
                p = below.pop()
                top[g] = p if restore_top else -1
            else:
                p = cancelled.pop()
                if revive:
                    kept[p] = c ^ 1
                top[g] = p

    return undo


@pytest.mark.parametrize(
    "undo, window, word",
    [
        (_mutated_undo(revive=True, restore_top=False), 2, ["a", "-a"]),
        (_mutated_undo(revive=False, restore_top=True), 4, ["a", "-a", "a", "-a"]),
    ],
    ids=["top-not-restored", "letter-not-revived"],
)
def test_word_differential_undo_mutation_is_caught(monkeypatch, undo, window, word):
    from commagraph.groups import _RaagEngine

    monkeypatch.setattr(_RaagEngine, "undo", undo)
    assert verify.run_suite("word-differential", max_vertices=1, max_len=window - 1, random_words=0).passed
    report = verify.run_suite("word-differential", max_vertices=1, max_len=window, random_words=0)
    assert not report.passed
    ce = report.counterexample
    assert ce["presentation"] == {"vertices": ["a"], "edges": []} and ce["word"] == word
    monkeypatch.undo()
    assert _replayed_verdict(ce) == ce["oracle"] != ce["fast"]


def test_word_differential_oracle_swap_mutation_is_caught(monkeypatch):
    from commagraph.groups import _RaagEngine

    def insertions_only(self, max_len):
        letters = range(2 * len(self.labels))
        words = [{()}]
        for n in range(1, max_len + 1):
            shorter = words[n - 2] if n >= 2 else ()
            words.append({w[:i] + (c, c ^ 1) + w[i:] for w in shorter for i in range(n - 1) for c in letters})
        return words

    monkeypatch.setattr(_RaagEngine, "oracle_identity_words", insertions_only)
    report = verify.run_suite("word-differential", max_vertices=2, max_len=4, random_words=0)
    assert not report.passed
    ce = report.counterexample
    # abAB on an edge is trivial only after a swap
    assert ce["presentation"]["edges"] == [["a", "b"]] and ce["word"] == ["a", "b", "-a", "-b"]
    monkeypatch.undo()
    assert _replayed_verdict(ce) == ce["fast"] != ce["oracle"]


def _twins_commute(letter_adjacent):
    # each generator's two reflections commute: every generator is an involution
    for c, row in enumerate(letter_adjacent):
        row[c ^ 1] = True


def _one_entry_flipped(letter_adjacent):
    # one wrong off-diagonal entry, between the first reflections of a and b
    if len(letter_adjacent) > 2:
        letter_adjacent[0][2] = letter_adjacent[2][0] = not letter_adjacent[0][2]


@pytest.mark.parametrize("corrupt", [_twins_commute, _one_entry_flipped])
def test_word_differential_tits_form_mutation_is_caught(monkeypatch, corrupt):
    from commagraph.groups import _RaagEngine

    real = _RaagEngine.__init__

    def corrupted(self, graph):
        real(self, graph)
        corrupt(self.letter_adjacent)

    monkeypatch.setattr(_RaagEngine, "__init__", corrupted)
    report = verify.run_suite("word-differential", max_len=0)
    assert not report.passed
    ce = report.counterexample
    monkeypatch.undo()
    assert _replayed_verdict(ce) == ce["fast"] != ce["oracle"]


def test_word_differential_random_words_are_pinned(monkeypatch):
    # the random phase draws the same words in the same order: the first it
    # gets wrong under one flipped entry of the Tits form, at seed 0
    from commagraph.groups import _RaagEngine

    real = _RaagEngine.__init__

    def corrupted(self, graph):
        real(self, graph)
        _one_entry_flipped(self.letter_adjacent)

    monkeypatch.setattr(_RaagEngine, "__init__", corrupted)
    report = verify.run_suite("word-differential", seed=0, max_len=0)
    assert report.cases_checked == 692  # the 12 empty words of the exhaustive phase, then 680 random ones
    assert report.counterexample == {
        "presentation": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
        "word": ["a", "-b", "a", "b", "-a", "-b", "-a", "-a", "b", "a"],
        "fast": True,
        "oracle": False,
    }


def test_word_differential_blocking_table_mutation_is_caught(monkeypatch):
    from commagraph.groups import _RaagEngine

    real = _RaagEngine.__init__

    def leaky_blocking(self, graph):
        # the engine's table forgets the first non-neighbour of the first
        # generator that has one; the oracle reads letter_adjacent instead
        real(self, graph)
        for g, row in enumerate(self.blocking):
            others = [h for h in row if h != g]
            if others:
                self.blocking[g] = tuple(h for h in row if h != others[0])
                break

    monkeypatch.setattr(_RaagEngine, "__init__", leaky_blocking)
    report = verify.run_suite("word-differential", max_vertices=0, max_len=0)
    assert not report.passed
    ce = report.counterexample
    monkeypatch.undo()
    assert _replayed_verdict(ce) == ce["oracle"] != ce["fast"]


def _engine_graph(engine):
    """A presentation as its vertex count and its edges as index pairs in
    graphs_on's order."""
    n = len(engine.labels)
    return n, [(a, b) for a, b in combinations(range(n), 2) if b in engine.neighbours[a]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_word_differential_random_words_are_the_stdlib_draws(monkeypatch, seed):
    # the random phase draws from getrandbits itself; its words must be the
    # ones rng.randint, rng.random and rng.randrange give, in their order
    from commagraph.groups import _RaagEngine

    real = _RaagEngine.is_identity
    asked = []

    def recording(self, enc):
        asked.append((_engine_graph(self), tuple(enc)))
        return real(self, enc)

    monkeypatch.setattr(_RaagEngine, "is_identity", recording)
    report = verify.run_suite("word-differential", seed=seed, max_vertices=0, max_len=0)
    # the exhaustive phase, one empty word, asks is_identity nothing
    assert report.passed and report.cases_checked == 1 + 10000

    rng = random.Random(seed)
    expected = []
    for _ in range(10000):
        n = rng.randint(1, verify._RANDOM_MAX_VERTICES)
        pairs = list(combinations(range(n), 2))
        bits = sum([1 << k for k in range(len(pairs)) if rng.random() < 0.5])
        length = rng.randint(0, verify._RANDOM_MAX_LEN)
        codes = tuple([rng.randrange(2 * n) for _ in range(length)])
        expected.append(((n, [p for k, p in enumerate(pairs) if bits >> k & 1]), codes))
    assert asked == expected


@pytest.mark.parametrize(
    "edges, dropped",
    [
        # b.-a.a.-b: its prefix b.-a.a ends in letter 0, so the prefix odometer
        # has just wrapped from b.a.-b
        ([], (2, 1, 0, 3)),
        # -b.b on the last graph, under the last prefix of length 2
        ([(0, 1)], (3, 2)),
    ],
)
def test_word_differential_walks_every_word_once_in_product_order(monkeypatch, edges, dropped):
    from commagraph.groups import _RaagEngine

    max_vertices, max_len = 2, 4
    real = _RaagEngine.oracle_identity_words

    def dropping(self, max_len):
        words = real(self, max_len)
        if _engine_graph(self) == (2, edges):
            words[len(dropped)].remove(dropped)
        return words

    monkeypatch.setattr(_RaagEngine, "oracle_identity_words", dropping)
    report = verify.run_suite("word-differential", max_vertices=max_vertices, max_len=max_len, random_words=0)
    assert not report.passed

    # the words of the graphs before this one, of this graph's shorter
    # lengths, and of its length before the dropped word, then the word
    graphs = list(verify.graphs_up_to(max_vertices))
    at = next(i for i, g in enumerate(graphs) if _engine_graph(Raag(g).engine) == (2, edges))
    before = sum((2 * len(g.vertices)) ** length for g in graphs[:at] for length in range(max_len + 1))
    before += sum(4 ** length for length in range(len(dropped)))
    rank = sum(c * 4 ** (len(dropped) - 1 - i) for i, c in enumerate(dropped))
    assert report.cases_checked == before + rank + 1
    ce = report.counterexample
    tokens = ["a", "-a", "b", "-b"]
    assert ce == {
        "presentation": {"vertices": ["a", "b"], "edges": [["a", "b"]] if edges else []},
        "word": [tokens[c] for c in dropped],
        "fast": True,
        "oracle": False,
    }
    monkeypatch.undo()
    assert _replayed_verdict(ce) == ce["fast"] != ce["oracle"]


def test_word_differential_noncommuting_mutation_is_caught(monkeypatch):
    # the Tits oracle reads noncommuting, not letter_adjacent, so a corrupted
    # entry of that derived form alone must be caught.  A code removed from
    # one list is no fault: the two reflections still do not commute, and in
    # every graph on 1..3 vertices no such removal changes a verdict up to
    # length 6.  A code added to one list, a reflection that moves the entry
    # of one it commutes with, is a fault.
    from commagraph.groups import _RaagEngine

    real = _RaagEngine.__init__

    def corrupted(self, graph):
        real(self, graph)
        codes = range(2 * len(self.labels))
        for s, row in enumerate(self.noncommuting):
            commuting = [t for t in codes if t != s and t not in row]
            if commuting:
                row.append(commuting[0])
                break

    monkeypatch.setattr(_RaagEngine, "__init__", corrupted)
    report = verify.run_suite("word-differential", max_vertices=0, max_len=0)
    assert not report.passed
    ce = report.counterexample
    monkeypatch.undo()
    assert _replayed_verdict(ce) == ce["fast"] != ce["oracle"]


def test_reports_are_deterministic():
    for name, bounds in (
        ("unit-iso", {}),
        ("dvi", {"max_vertices": 2}),
        ("couniversal", {"max_vertices": 1}),
        ("word-differential", {"max_vertices": 2, "max_len": 3, "random_words": 50}),
    ):
        assert verify.run_suite(name, **bounds) == verify.run_suite(name, **bounds)


def test_default_pool_is_seed_deterministic():
    assert [comma.comma_object_to_json(w) for w in verify.default_pool(0)] == [
        comma.comma_object_to_json(w) for w in verify.default_pool(0)
    ]
    pool = verify.default_pool(0)
    assert any(len(w.gens) == 0 for w in pool)
    assert all(isinstance(w.target, FiniteGroup) and len(w.target.elements) <= 6 for w in pool)


def test_run_suite_dispatch():
    assert verify.run_suite("dvi").passed
    assert verify.run_suite("unit-iso", max_vertices=2).cases_checked == 4
    with pytest.raises(KeyError):
        verify.run_suite("bogus")


def test_report_json_shape():
    data = verify.run_suite("dvi", max_vertices=1).to_json()
    assert set(data) == {"name", "scope", "passed", "cases_checked", "counterexample"}
    assert data["passed"] is True and data["counterexample"] is None


# ---------------------------------------------------------------------------
# Failing reports: each mutation pins where the driver stops and what it counts

_CASE_KEYS = ["factorizations", "graph", "morphism_f_set", "object"]


def test_fullness_square_mutation_is_caught(monkeypatch):
    # an enumeration that ignores the edge test: every set map is offered
    # as a morphism, and one that is no graph hom has no factor
    def every_set_map(g, w):
        src = comma.embed_graph(g)
        return [
            comma._from_embedded(src, w, SetMap(g.vertices, w.gens, dict(zip(g.vertices.labels, combo))))
            for combo in product(w.gens.labels, repeat=len(g.vertices))
        ]

    monkeypatch.setattr(comma, "enumerate_morphisms_from_embedded_graph", every_set_map)
    for name, cases, f_set in (
        ("fullness", 22, {"a": "a", "b": "b"}),
        ("couniversal", 670, {"a": "x", "b": "y"}),
    ):
        report = verify.run_suite(name)
        assert not report.passed
        assert report.cases_checked == cases
        assert sorted(report.counterexample) == _CASE_KEYS
        assert report.counterexample["factorizations"] == 0
        assert report.counterexample["morphism_f_set"] == f_set


def test_fullness_hom_set_mutation_is_caught(monkeypatch):
    # the graph side drops the last hom of a graph into itself, so the
    # morphism it should have factored has none
    real = verify.enumerate_graph_homs

    def one_short(g1, g2):
        homs = real(g1, g2)
        return homs[:-1] if g1.edges and g1 == g2 else homs

    monkeypatch.setattr(verify, "enumerate_graph_homs", one_short)
    report = verify.run_suite("fullness", max_vertices=3)
    assert not report.passed
    assert report.cases_checked == 61
    assert sorted(report.counterexample) == _CASE_KEYS
    assert report.counterexample["factorizations"] == 0
    assert report.counterexample["morphism_f_set"] == {"a": "b", "b": "b"}


def test_dropped_morphism_mutation_fails_couniversal_and_fullness(monkeypatch):
    # every morphism still factors uniquely, so only the count comparison,
    # which is not a case, sees the hom with no morphism; it fails at the
    # first pair, the empty graph into the first pool object
    real = comma.enumerate_morphisms_from_embedded_graph
    monkeypatch.setattr(comma, "enumerate_morphisms_from_embedded_graph", lambda g, w: real(g, w)[:-1])
    for name in ("couniversal", "fullness"):
        report = verify.run_suite(name)
        assert not report.passed
        assert report.cases_checked == 0
        assert sorted(report.counterexample) == ["graph", "graph_homs", "morphisms", "object"]
        assert (report.counterexample["morphisms"], report.counterexample["graph_homs"]) == (0, 1)


def test_repeated_morphism_mutation_fails_couniversal_and_fullness(monkeypatch):
    # the last morphism of each pair is replaced by a copy of the first: the
    # counts still agree and each copy factors uniquely, so only the check
    # that each morphism is new sees it, at the first pair with two morphisms
    real = comma.enumerate_morphisms_from_embedded_graph
    monkeypatch.setattr(
        comma, "enumerate_morphisms_from_embedded_graph", lambda g, w: real(g, w)[:-1] + real(g, w)[:1]
    )
    for name in ("couniversal", "fullness"):
        report = verify.run_suite(name)
        assert not report.passed
        assert report.cases_checked == 16
        assert sorted(report.counterexample) == _CASE_KEYS
        assert report.counterexample["factorizations"] == "repeats an earlier morphism"
        assert report.counterexample["graph"] == {"vertices": ["a"], "edges": []}


def test_ac_bijection_index_views_match_public_lists():
    # ac-bijection compares the index views; homs prints the public lists
    for h in verify.default_ac_groups():
        h_graph = commutation_graph(h)
        index = {x: i for i, x in enumerate(h.elements)}
        for g in verify.graphs_up_to(4):
            graph_homs = [
                tuple(index[f(v)] for v in g.vertices) for f in enumerate_graph_homs(g, h_graph)
            ]
            group_homs = [
                tuple(index[f.images[v]] for v in g.vertices)
                for f in enumerate_homs_raag_to_finite(Raag(g), h)
            ]
            assert verify._graph_hom_images(g, h_graph) == graph_homs
            assert verify._raag_hom_images(Raag(g), h) == group_homs


def test_ac_bijection_mutation_is_caught(monkeypatch):
    real = verify._raag_hom_images

    def one_short(raag, h):
        homs = real(raag, h)
        return homs[1:] if len(raag.presentation.vertices) == 2 and len(h.elements) == 4 else homs

    monkeypatch.setattr(verify, "_raag_hom_images", one_short)
    report = verify.run_suite("ac-bijection", max_vertices=3)
    assert not report.passed
    assert report.cases_checked == 13
    assert sorted(report.counterexample) == ["graph", "graph_homs", "group", "group_homs"]
    assert (report.counterexample["graph_homs"], report.counterexample["group_homs"]) == (16, 15)


def test_ac_bijection_graph_side_mutation_is_caught(monkeypatch):
    real = verify._graph_hom_images

    def one_short(g, h):
        homs = real(g, h)
        return homs[1:] if len(g.vertices) == 2 and len(h.vertices) == 4 else homs

    monkeypatch.setattr(verify, "_graph_hom_images", one_short)
    report = verify.run_suite("ac-bijection", max_vertices=3)
    assert not report.passed
    assert report.cases_checked == 13
    assert sorted(report.counterexample) == ["graph", "graph_homs", "group", "group_homs"]
    assert (report.counterexample["graph_homs"], report.counterexample["group_homs"]) == (15, 16)


def test_ac_bijection_compares_the_hom_orders(monkeypatch):
    # both sides must list their homs in lexicographic storage order, so the
    # right homs in another order fail: the first graph with two homs into
    # the first group, one vertex into C2
    real = verify._graph_hom_images
    monkeypatch.setattr(verify, "_graph_hom_images", lambda g, h: real(g, h)[::-1])
    report = verify.run_suite("ac-bijection", max_vertices=3)
    assert not report.passed
    assert report.cases_checked == 6
    assert report.counterexample["graph"] == {"vertices": ["a"], "edges": []}
    assert (report.counterexample["graph_homs"], report.counterexample["group_homs"]) == (2, 2)


def test_dvi_counts_the_graph_hom_tuples(monkeypatch):
    # dvi counts the tuples of the graph-hom search: dropping the last hom
    # of an edgeless domain into a graph with an edge fails the discrete
    # side at its first such pair, one point into the edge
    real = verify._graph_hom_images

    def one_short(g, h):
        homs = real(g, h)
        return homs[:-1] if g.vertices and not g.edges and h.edges else homs

    monkeypatch.setattr(verify, "_graph_hom_images", one_short)
    report = verify.run_suite("dvi", max_vertices=3)
    assert not report.passed
    assert report.cases_checked == 16
    assert report.counterexample["side"] == "discrete"
    assert (report.counterexample["hom_count"], report.counterexample["expected"]) == (1, 2)


def test_ac_bijection_checks_the_index_spaces_agree(monkeypatch):
    # the index tuples of the two sides are comparable only when the
    # commutation graph lists the group's elements in storage order
    real = verify.commutation_graph

    def reversed_vertices(h):
        g = real(h)
        return Graph(make_set(reversed(g.vertices.labels)), g.edges)

    monkeypatch.setattr(verify, "commutation_graph", reversed_vertices)
    report = verify.run_suite("ac-bijection", max_vertices=3)
    assert not report.passed
    assert report.cases_checked == 0
    assert sorted(report.counterexample) == ["commutation_graph", "group", "reason"]


def _commute_table_says(commutes: bool):
    """A FiniteGroup.commute_table that gives its answer for the elements
    at storage positions 1 and 2.  Of the suite's groups, adding the pair
    changes only S3, and dropping it every other group of order 3 or more."""
    real = FiniteGroup.commute_table

    def mutated(self, elements):
        table = real(self, elements)
        positions = [self.elements.positions[x] for x in elements]
        for a, i in enumerate(positions):
            for b, j in enumerate(positions):
                if {i, j} == {1, 2}:
                    table[a][b] = commutes
        return table

    return FiniteGroup, "commute_table", mutated


def _commutation_graph_says(adjacent: bool):
    """A commutation_graph that gives its answer for the elements at
    storage positions 1 and 2."""
    real = verify.commutation_graph

    def mutated(h):
        g = real(h)
        pair = tuple(g.vertices.labels[1:3])
        edges = [e for e in g.edges if e != pair] + ([pair] if adjacent and len(pair) == 2 else [])
        return make_graph(g.vertices, edges)

    return verify, "commutation_graph", mutated


@pytest.mark.parametrize("mutation, cases, counts", [
    # the group's own reading of commutation, which coreflect also reads
    (_commute_table_says(False), 17, (9, 7)),
    (_commute_table_says(True), 20, (18, 20)),
    # C(H)'s edges, read from the rows by commutation_graph alone
    (_commutation_graph_says(False), 17, (7, 9)),
    (_commutation_graph_says(True), 20, (20, 18)),
], ids=["commute_table drops", "commute_table adds", "commutation_graph drops", "commutation_graph adds"])
def test_ac_bijection_compares_two_readings_of_commutation(monkeypatch, capsys, mutation, cases, counts):
    # the two sides read the multiplication rows apart, so an error in
    # either reading of the pair at positions 1 and 2 fails ac-bijection,
    # and so check all
    monkeypatch.setattr(*mutation)
    report = verify.run_suite("ac-bijection")
    assert not report.passed
    assert report.cases_checked == cases
    assert (report.counterexample["graph_homs"], report.counterexample["group_homs"]) == counts
    assert cli.main(["check", "all", "--max-word-len", "1"]) == 1
    assert "ac-bijection: FAILED" in capsys.readouterr().err


def test_the_shared_hom_search_is_checked_by_the_suites_that_count_homs(monkeypatch):
    # both sides of ac-bijection run the one search, so a search that drops
    # its last tuple wherever it finds more than one leaves them equal; the
    # suites that count homs against closed forms or morphisms catch it, at
    # the first pair with two homs
    from commagraph import graphs, groups

    real = graphs._hom_images

    def one_short(g, closed):
        homs = real(g, closed)
        return homs[:-1] if len(homs) > 1 else homs

    for module in (graphs, groups):
        monkeypatch.setattr(module, "_hom_images", one_short)
    assert verify.run_suite("ac-bijection").passed
    for name, cases in (("fullness", 16), ("dvi", 15), ("couniversal", 16)):
        report = verify.run_suite(name)
        assert not report.passed
        assert report.cases_checked == cases


def test_dvi_mutation_is_caught(monkeypatch):
    monkeypatch.setattr(verify, "indiscrete", verify.discrete)
    report = verify.run_suite("dvi", max_vertices=3)
    assert not report.passed
    assert report.cases_checked == 28
    assert sorted(report.counterexample) == ["expected", "graph", "hom_count", "set", "side"]
    assert report.counterexample["side"] == "indiscrete"


def test_couniversal_mutation_is_caught(monkeypatch):
    from commagraph.errors import NotFactorable

    real = comma.factor_through_coreflection

    def refuses_edges(core, m):
        if m.src.target.presentation.edges:
            raise NotFactorable("refused")
        return real(core, m)

    monkeypatch.setattr(comma, "factor_through_coreflection", refuses_edges)
    report = verify.run_suite("couniversal", max_vertices=3)
    assert not report.passed
    assert report.cases_checked == 5
    assert sorted(report.counterexample) == ["factorizations", "graph", "morphism_f_set", "object"]
    assert report.counterexample["factorizations"] == "factor_through_coreflection failed"


def test_group_reflection_unit_mutation_is_caught(monkeypatch):
    # the unit check is not a case: the cases of the earlier pool objects
    # are counted, the failing unit is not
    real = comma.reflect_to_group

    def collapsed_unit(w):
        reflection = real(w)
        if len(w.gens) < 2:
            return reflection
        first = w.images[w.gens.labels[0]]
        f_set = SetMap(w.gens, w.target.elements, {x: first for x in w.gens})
        unit = comma.CommaMorphism(reflection.unit.src, reflection.unit.dst, f_set, reflection.unit.f_grp)
        return comma.GroupReflection(reflection.group, unit)

    monkeypatch.setattr(comma, "reflect_to_group", collapsed_unit)
    report = verify.run_suite("group-reflection")
    assert not report.passed
    assert report.cases_checked == 20
    assert report.counterexample["reason"] == "unit is not a comma morphism"
    assert sorted(report.counterexample) == ["object", "reason"]


@pytest.mark.parametrize("group_type, name, cases", [(Raag, "fullness", 22), (FiniteGroup, "couniversal", 670)])
def test_a_commute_table_read_only_above_its_diagonal_is_caught(monkeypatch, group_type, name, cases):
    # coreflect reads only pairs i < j, so a table whose lower triangle says
    # "commutes" passes unit-iso; the morphism search reads both triangles
    # and offers a set map that is no graph hom into the coreflection
    real = group_type.commute_table

    def lower_triangle_true(self, elements):
        table = real(self, elements)
        return [[True if j < i else x for j, x in enumerate(row)] for i, row in enumerate(table)]

    monkeypatch.setattr(group_type, "commute_table", lower_triangle_true)
    assert verify.run_suite("unit-iso").passed
    report = verify.run_suite(name)
    assert not report.passed
    assert report.cases_checked == cases
    assert sorted(report.counterexample) == _CASE_KEYS
    assert report.counterexample["graph"] == {"vertices": ["a", "b"], "edges": [["a", "b"]]}
    assert report.counterexample["factorizations"] == 0


def _first_image_everywhere(monkeypatch):
    """Corrupt the one constructor of morphisms out of embedded graphs: the
    group part sends every vertex to the first vertex's image."""
    real = comma._from_embedded

    def corrupted(src, w, f_set):
        m = real(src, w, f_set)
        if not src.gens:
            return m
        first = m.f_grp.images[src.gens.labels[0]]
        f_grp = GroupHom(src.target, w.target, {v: first for v in src.gens})
        return comma.CommaMorphism(src, w, f_set, f_grp)

    monkeypatch.setattr(comma, "_from_embedded", corrupted)


def test_from_embedded_mutation_fails_fullness(monkeypatch):
    # the counit out of the two-vertex edgeless graph sends b to a's image
    _first_image_everywhere(monkeypatch)
    report = verify.run_suite("fullness")
    assert not report.passed
    assert sorted(report.counterexample) == _CASE_KEYS
    assert report.counterexample["factorizations"] == 0
    assert report.counterexample["morphism_f_set"] == {"a": "b"}


def test_from_embedded_mutation_fails_couniversal(monkeypatch):
    _first_image_everywhere(monkeypatch)
    report = verify.run_suite("couniversal")
    assert not report.passed
    assert report.counterexample["factorizations"] == 0


def test_couniversal_compares_each_embedding_by_identity(monkeypatch):
    # each graph's embedding is one object, so every comparison of comma
    # objects in the suites is of an object with itself
    real = comma.CommaObject.__eq__
    distinct = 0

    def counting(self, other):
        nonlocal distinct
        distinct += self is not other
        return real(self, other)

    monkeypatch.setattr(comma.CommaObject, "__eq__", counting)
    assert verify.run_suite("couniversal", max_vertices=4).passed
    assert verify.run_suite("fullness").passed
    assert distinct == 0


def test_into_embedded_group_mutation_fails_group_reflection(monkeypatch):
    # the set part sends every generator to one element, whatever f says
    def corrupted(w, dst, f):
        f_set = SetMap(w.gens, dst.gens, {x: dst.gens.labels[0] for x in w.gens})
        return comma.CommaMorphism(w, dst, f_set, f)

    monkeypatch.setattr(comma, "into_embedded_group", corrupted)
    report = verify.run_suite("group-reflection")
    assert not report.passed
    assert report.counterexample["reason"] == "unit is not a comma morphism"


def test_a_non_hom_among_the_group_homs_fails_group_reflection(monkeypatch):
    # into a nontrivial group the search also returns a map sending every
    # element to one that is not the identity; the morphism it induces has
    # no hom for its group part
    real = verify.enumerate_homs_finite_to_finite

    def with_a_non_hom(dom, cod):
        homs = real(dom, cod)
        other = next((x for x in cod.elements if x != cod.identity), None)
        return homs if other is None else homs + [GroupHom(dom, cod, {a: other for a in dom.elements})]

    monkeypatch.setattr(verify, "enumerate_homs_finite_to_finite", with_a_non_hom)
    report = verify.run_suite("group-reflection")
    assert not report.passed
    assert report.counterexample["reason"] == "induced morphism into the embedded group does not commute"
    assert sorted(report.counterexample) == ["codomain", "object", "reason"]
    assert report.cases_checked == 4  # C2 into the trivial group, into C2 twice, then the non-hom


# ---------------------------------------------------------------------------
# Bounds

def test_bounds_in_use_are_legal():
    # scripts/run_checks.py sweeps word length to 7 over graphs on <= 3 vertices
    verify.validate("word-differential", max_vertices=3, max_len=7)
    verify.validate("word-differential", max_vertices=1, max_len=8)
    verify.validate("unit-iso", max_vertices=5)
    verify.validate("ac-bijection", max_vertices=4)
    verify.validate("dvi", max_vertices=4)
    verify.validate("group-reflection", max_vertices=40)  # a bound it does not take is ignored


def test_out_of_range_bounds_raise_usage_errors():
    from commagraph.errors import UsageError

    with pytest.raises(UsageError):
        verify.run_suite("dvi", max_vertices=-1)
    with pytest.raises(UsageError):
        verify.run_suite("word-differential", max_len=8)  # 16,299,586 words over 0..3 vertices
    with pytest.raises(UsageError):
        verify.validate("word-differential", max_vertices=5)
    with pytest.raises(UsageError, match="no suite takes max_set"):
        verify.run_suite("dvi", max_set=3)  # dvi's set sizes are fixed at 0..3
    with pytest.raises(KeyError):
        verify.validate("bogus")
    # a misspelt name is refused, not ignored in favour of the default
    with pytest.raises(UsageError):
        verify.run_suite("word-differential", max_word_len=4)
