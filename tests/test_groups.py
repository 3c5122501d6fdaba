import gc
import random
import re
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commagraph import (
    commutation_graph,
    coreflect,
    cyclic_group,
    discrete,
    embed_group,
    embed_graph_hom,
    enumerate_homs_finite_to_finite,
    enumerate_homs_raag_to_finite,
    evaluate_word,
    finite_group_from_permutations,
    finite_group_from_table,
    hom_check,
    indiscrete,
    klein_four_group,
    make_graph,
    make_graph_hom,
    make_set,
    raag_is_identity,
    raag_reduce,
    symmetric_group_3,
    trivial_group,
)
from commagraph.errors import (
    InvalidHom,
    MalformedInput,
    MissingImage,
    NoIdentity,
    NoInverse,
    NotAPermutation,
    NotAssociative,
    OrderCapExceeded,
    UnknownElement,
    UnknownGenerator,
)
from commagraph.graphs import HOM_CAP, _graph_hom_images
from commagraph.groups import (
    GroupHom,
    Raag,
    _RaagEngine,
    _raag_hom_images,
    apply_hom,
    compose_group_homs,
    group_from_json,
    group_to_json,
    identity_group_hom,
)
from commagraph.verify import default_ac_groups, graphs_up_to

from .strategies import graph_with_word, graph_with_words, graphs


def word_inverse(w):
    return tuple((gen, -sign) for gen, sign in reversed(w))


A, B = ("a", 1), ("b", 1)
iA, iB = ("a", -1), ("b", -1)
COMMUTATOR = (A, B, iA, iB)


def edge_raag():
    return Raag(make_graph(make_set(["a", "b"]), [("a", "b")]))


def discrete_raag(n=2):
    return Raag(discrete(make_set(["a", "b", "c", "d"][:n])))


def _dihedral_group_4():
    """Symmetries of the square, order 8."""
    return finite_group_from_permutations(4, [(2, 3, 4, 1), (2, 1, 4, 3)])


# ---------------------------------------------------------------------------
# free reduction

def _free_reduce(w):
    """Cancel adjacent inverse pairs until none remain: the free group's
    normal form, as a reference for the engine."""
    out = []
    for gen, sign in w:
        if out and out[-1] == (gen, -sign):
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


def test_free_reduce_examples():
    assert _free_reduce([]) == ()
    assert _free_reduce([A, iA]) == ()
    assert _free_reduce([A, B, iB, iA, A]) == (A,)


@given(graph_with_word(max_len=12))
def test_free_reduce_idempotent_and_shorter(gw):
    _, w = gw
    reduced = _free_reduce(w)
    assert _free_reduce(reduced) == reduced
    assert len(reduced) <= len(w)


@given(graph_with_word(max_len=10))
def test_free_reduce_preserves_element(gw):
    g, w = gw
    free = Raag(discrete(g.vertices))
    assert free.equal(w, _free_reduce(w))


# ---------------------------------------------------------------------------
# RAAG reduction and the word problem

def test_commutator_dies_on_edge():
    assert raag_reduce(edge_raag(), COMMUTATOR) == ()
    assert raag_is_identity(edge_raag(), COMMUTATOR)


def test_commutator_survives_on_discrete():
    reduced = raag_reduce(discrete_raag(), COMMUTATOR)
    assert reduced == COMMUTATOR
    assert _free_reduce(COMMUTATOR) == COMMUTATOR
    assert not raag_is_identity(discrete_raag(), COMMUTATOR)


def test_inverse_pair_dies_anywhere():
    for raag in (edge_raag(), discrete_raag()):
        assert raag_reduce(raag, [A, iA]) == ()


def test_unknown_generator_rejected():
    with pytest.raises(UnknownGenerator):
        raag_reduce(edge_raag(), [("z", 1)])
    with pytest.raises(UnknownGenerator):
        raag_is_identity(edge_raag(), [("z", 1)])


def test_bad_letters_rejected_by_every_word_entry():
    # each entry checks its words once, where they are encoded; a malformed
    # letter anywhere wins over an unknown generator
    raag = edge_raag()
    entries = (
        lambda w: raag_reduce(raag, w),
        lambda w: raag_is_identity(raag, w),
        lambda w: raag.engine.oracle_is_identity(raag.engine.encode(w)),
        lambda w: raag.commutes(w, [A]),
        lambda w: raag.commutes([A], w),
        lambda w: raag.equal(w, [A]),
        lambda w: raag.equal([A], w),
        lambda w: evaluate_word({"a": w}, [iA], raag),
    )
    for entry in entries:
        for bad in ([A, ("a", 2)], [A, ("a",)], [A, "a"], [("z", 1), ("a", 2)]):
            with pytest.raises(MalformedInput):
                entry(bad)
        with pytest.raises(UnknownGenerator):
            entry([A, ("z", 1)])


# ---------------------------------------------------------------------------
# word tokens

TOKEN_LABELS = (["a", "b"], ["a", "-a"], ["", "a"], ["é", "𝄞"])


def _bad(token):
    return MalformedInput, f"bad word token {token!r}"


def _unknown(gen):
    return UnknownGenerator, f"{gen!r} is not a generator of this group"


def _all(outcome):
    return (outcome,) * len(TOKEN_LABELS)


# Each word with what reading it gives over each label set of TOKEN_LABELS,
# in order: its letter codes, or its error's type and message.  A malformed
# token anywhere wins over an unknown generator, the first bad token is
# named, and "-" marks an inverse only once.
TOKEN_WORDS = (
    ([], ([], [], [], [])),
    (["a"], ([0], [0], [2], _unknown("a"))),
    (["-a", "b", "-b"], ([1, 2, 3], _unknown("b"), _unknown("b"), _unknown("a"))),
    (["--a"], (_unknown("-a"), [3], _unknown("-a"), _unknown("-a"))),
    (["é", "-𝄞", "𝄞"], (_unknown("é"), _unknown("é"), _unknown("é"), [0, 3, 2])),
    ([""], _all(_bad(""))),
    (["-"], _all(_bad("-"))),
    (["--"], _all(_unknown("-"))),
    (["---a"], _all(_unknown("--a"))),
    (["z"], _all(_unknown("z"))),
    (["-z"], _all(_unknown("z"))),
    (["a", "-é"], (_unknown("é"), _unknown("é"), _unknown("é"), _unknown("a"))),
    (["a", "z", "-"], _all(_bad("-"))),  # an unknown generator before a bad token
    (["z", "-z", ""], _all(_bad(""))),
    (["a", "-", ""], _all(_bad("-"))),  # "-" before ""
    (["a", "", "-"], _all(_bad(""))),  # "" before "-"
    # not strings, hashable or not
    (["a", 1], _all(_bad(1))),
    (["z", None], _all(_bad(None))),
    (["a", ["a", 1]], _all(_bad(["a", 1]))),
    (["a", {"a": 1}], _all(_bad({"a": 1}))),
)


def _outcome(read, tokens):
    """What read makes of tokens: its letters, or its error's type and
    message."""
    try:
        return list(read(tokens))
    except (MalformedInput, UnknownGenerator) as exc:
        return type(exc), str(exc)


def _token_mismatches(read):
    """(labels, tokens) on which read(engine, tokens) differs from
    TOKEN_WORDS, in the codes or in the error raised."""
    out = []
    for i, labels in enumerate(TOKEN_LABELS):
        engine = Raag(discrete(make_set(labels))).engine
        for tokens, outcomes in TOKEN_WORDS:
            if _outcome(lambda t: read(engine, t), tokens) != outcomes[i]:
                out.append((labels, tokens))
    return out


def test_token_reader_returns_the_pinned_codes_or_errors():
    assert _token_mismatches(lambda engine, tokens: engine.read_tokens(tokens)) == []


def _read_empty_token_first(engine, tokens):
    """A token reader whose slow path looks for "" before "-": on a word
    holding both it names the wrong bad token."""
    codes = engine.token_table[0]
    try:
        return [codes[t] for t in tokens]
    except (KeyError, TypeError):
        pass
    for t in tokens:
        if not isinstance(t, str):
            raise MalformedInput(f"bad word token {t!r}")
    for bad in ("", "-"):
        if bad in tokens:
            raise MalformedInput(f"bad word token {bad!r}")
    unknown = next(t for t in tokens if t not in codes)
    raise UnknownGenerator(f"{unknown.removeprefix('-')!r} is not a generator of this group")


def test_token_contract_catches_a_reader_that_checks_empty_tokens_first():
    mismatches = _token_mismatches(_read_empty_token_first)
    assert {tuple(tokens) for _, tokens in mismatches} == {("a", "-", "")}
    assert len(mismatches) == len(TOKEN_LABELS)


def test_element_from_json_returns_the_pinned_words_or_errors():
    for i, labels in enumerate(TOKEN_LABELS):
        raag = Raag(discrete(make_set(labels)))
        for tokens, outcomes in TOKEN_WORDS:
            want = outcomes[i]
            if isinstance(want, list):
                want = [(labels[c >> 1], -1 if c & 1 else 1) for c in want]
            assert _outcome(raag.element_from_json, tokens) == want
    with pytest.raises(MalformedInput, match=re.escape("bad word token ['a', 1]")):
        edge_raag().element_from_json([["a", 1]])


def test_every_written_letter_reads_back_as_itself():
    # "-x" reads as the inverse of x and "" and "-" are no tokens, so the
    # positive letter of "", "-a" and "--a", and the inverse of "", have none
    for labels in TOKEN_LABELS + (["--a", "-", "a", ""],):
        raag = Raag(discrete(make_set(labels)))
        engine = raag.engine
        for c in range(2 * len(labels)):
            label = labels[c >> 1]
            if label[:1] not in ("", "-") or c & 1 and label:
                assert engine.read_tokens(engine.write_tokens([c])) == [c]
            else:
                with pytest.raises(MalformedInput, match=re.escape(f"generator {label!r}")):
                    engine.write_tokens([c])
                with pytest.raises(MalformedInput, match=re.escape(f"generator {label!r}")):
                    raag.element_to_json(engine.decode([c]))


def test_token_table_is_built_on_first_read():
    engine = edge_raag().engine
    assert "token_table" not in vars(engine)
    assert engine.read_tokens(["a", "-b"]) == [0, 3]
    assert engine.write_tokens([3, 0]) == ["-b", "a"]
    assert "token_table" in vars(engine)


def test_path_commutator_of_endpoints_is_not_identity():
    path = Raag(make_graph(make_set(["a", "b", "c"]), [("a", "b"), ("b", "c")]))
    endpoints = (A, ("c", 1), iA, ("c", -1))
    assert not raag_is_identity(path, endpoints)
    assert not path.engine.oracle_is_identity(path.engine.encode(endpoints))


def test_oracle_examples():
    edge, free = edge_raag().engine, discrete_raag().engine
    assert edge.oracle_is_identity(edge.encode(COMMUTATOR))
    assert not free.oracle_is_identity(free.encode(COMMUTATOR))
    assert edge.oracle_is_identity(edge.encode([]))


def test_engine_agrees_with_oracle_exhaustively_small():
    # every word of length <= 5 over every labeled graph with <= 3 vertices
    for g in graphs_up_to(3):
        raag = Raag(g)
        letters = [(v, s) for v in g.vertices for s in (1, -1)]
        for length in range(6):
            for w in product(letters, repeat=length):
                assert raag_is_identity(raag, w) == raag.engine.oracle_is_identity(raag.engine.encode(w))


def test_oracle_identity_words_agree_with_tits_oracle():
    # the rewriting oracle against the Tits one: every word of length <= 5
    # over graphs with <= 3 vertices, and of length <= 8 over <= 2 vertices
    for max_vertices, max_len in ((3, 5), (2, 8)):
        for g in graphs_up_to(max_vertices):
            engine = Raag(g).engine
            trivial = engine.oracle_identity_words(max_len)
            assert len(trivial) == max_len + 1 and trivial[0] == {()}
            letters = range(2 * len(g.vertices))
            for length in range(max_len + 1):
                for codes in product(letters, repeat=length):
                    in_set = codes in trivial[length]
                    assert in_set == engine.oracle_is_identity(codes), (g, codes)


def _folded(engine, word):
    state = engine.fresh_state()
    engine.push(state, word)
    return state


def test_undo_is_an_exact_inverse_of_push():
    # every word of length <= 5 over every labeled graph on <= 3 vertices,
    # pushed and undone one letter at a time, depth first: after each step
    # the state is the fold of the current word over a fresh state
    for g in graphs_up_to(3):
        engine = Raag(g).engine
        letters = range(2 * len(g.vertices))
        state = engine.fresh_state()

        def walk(word):
            assert state == _folded(engine, word), (g, word)
            assert [c for c in state[0] if c >= 0] == engine.cancel_fixpoint(word)
            if len(word) < 5:
                for c in letters:
                    engine.push(state, (c,))
                    walk(word + (c,))
                    engine.undo(state, (c,))
                    assert state == _folded(engine, word), (g, word)

        walk(())


@settings(max_examples=200)
@given(graphs(max_vertices=4, min_vertices=1), st.data())
def test_undo_takes_back_several_letters_at_once(g, data):
    # pushes and undos of several letters at a time, as an odometer walk makes them
    engine = Raag(g).engine
    letters = st.integers(0, 2 * len(g.vertices) - 1)
    state, word = engine.fresh_state(), ()
    for _ in range(data.draw(st.integers(1, 12))):
        if word and data.draw(st.booleans()):
            rest = len(word) - data.draw(st.integers(1, len(word)))
            engine.undo(state, word[rest:])
            word = word[:rest]
        else:
            more = tuple(data.draw(st.lists(letters, min_size=1, max_size=4)))
            engine.push(state, more)
            word += more
        assert state == _folded(engine, word), (g, word)
        assert [c for c in state[0] if c >= 0] == engine.cancel_fixpoint(word)


def test_engine_belongs_to_its_raag_and_changes_no_equality():
    r = edge_raag()
    engine = r.engine
    assert r.engine is engine and Raag(r.presentation).engine is not engine
    assert Raag(r.presentation) == r and hash(Raag(r.presentation)) == hash(r)
    # equal images as elements, different as words: only an engine can tell
    f = GroupHom(discrete_raag(), r, {"a": (A, B, iA), "b": (A,)})
    g = GroupHom(discrete_raag(), edge_raag(), {"a": (B,), "b": (A,)})
    assert f == g and g == f
    assert f != GroupHom(discrete_raag(), edge_raag(), {"a": (A,), "b": (B,)})


@settings(max_examples=300)
@given(graph_with_word(max_vertices=4, max_len=8))
def test_engine_agrees_with_oracle_sampled(gw):
    g, w = gw
    raag = Raag(g)
    assert raag_is_identity(raag, w) == raag.engine.oracle_is_identity(raag.engine.encode(w))


def test_engine_agrees_with_oracle_near_identity():
    # seeded words of 25-200 letters over graphs on <= 5 vertices, at or
    # next to the identity: u.u^-1, commutators [u, v] and conjugates u.x.u^-1
    # of a single letter, so most letters cancel only across commuting ones
    rng = random.Random(7)
    verdicts = {(shape, trivial): 0 for shape in range(3) for trivial in (True, False)}
    for _ in range(2000):
        labels = make_set("abcde"[: rng.randint(1, 5)])
        density = rng.random()
        edges = [
            (u, v) for i, u in enumerate(labels) for v in labels.labels[i + 1:]
            if rng.random() < density
        ]
        raag = Raag(make_graph(labels, edges))

        def word(low, high):
            return _random_word(rng, labels.labels, rng.randint(low, high))

        shape = rng.randrange(3)
        if shape == 0:
            u = word(13, 100)
            w = u + word_inverse(u)
        elif shape == 1:
            u, v = word(7, 50), word(7, 50)
            w = u + v + word_inverse(u) + word_inverse(v)
        else:
            u = word(12, 99)
            w = u + word(1, 1) + word_inverse(u)
        trivial = raag_is_identity(raag, w)
        assert trivial == raag.engine.oracle_is_identity(raag.engine.encode(w)), (edges, w)
        verdicts[shape, trivial] += 1
    assert verdicts[0, False] == verdicts[2, True] == 0
    assert verdicts[1, True] and verdicts[1, False]


@given(graph_with_word(max_len=8))
def test_reduce_output_is_cancellation_free_and_equal(gw):
    g, w = gw
    raag = Raag(g)
    reduced = raag_reduce(raag, w)
    assert raag.equal(w, reduced)
    assert raag_reduce(raag, reduced) == reduced
    # no free cancellation can hide in a reduced word
    assert _free_reduce(reduced) == reduced


@given(graph_with_words(2, max_vertices=4, max_len=6))
def test_reduced_form_is_a_complete_invariant(gws):
    g, u, v = gws
    raag = Raag(g)
    assert (raag_reduce(raag, u) == raag_reduce(raag, v)) == raag.equal(u, v)


@given(graph_with_word(max_vertices=4, max_len=10, min_vertices=1))
def test_discrete_graphs_reduce_like_free_groups(gw):
    g, w = gw
    free = Raag(discrete(g.vertices))
    assert raag_is_identity(free, w) == (_free_reduce(w) == ())


@given(graph_with_words(2, max_vertices=4, max_len=8))
def test_complete_graphs_reduce_like_free_abelian(gws):
    g, u, v = gws
    raag = Raag(indiscrete(g.vertices))

    def exponents(w):
        out = {x: 0 for x in g.vertices}
        for gen, sign in w:
            out[gen] += sign
        return out

    assert raag.equal(u, v) == (exponents(u) == exponents(v))


@given(graph_with_words(2, max_len=6), st.data())
def test_raag_equal_is_a_congruence(gws, data):
    g, u1, v1 = gws
    raag = Raag(g)
    # u2 is the canonical form of u1; v2 is v1 with a cancelling pair spliced in
    u2 = raag_reduce(raag, u1)
    if len(g.vertices):
        x = data.draw(st.sampled_from(g.vertices.labels))
        cut = data.draw(st.integers(0, len(v1)))
        v2 = v1[:cut] + ((x, 1), (x, -1)) + v1[cut:]
    else:
        v2 = v1
    assert raag.equal(u1, u2)
    assert raag.equal(v1, v2)
    assert raag.equal(u1 + v1, u2 + v2)


def _swap_closure(graph, word):
    """All shuffles of a word by swapping adjacent letters whose generators
    are adjacent in the graph. Independent of the engine's internals."""
    seen = {word}
    queue = [word]
    while queue:
        u = queue.pop()
        for i in range(len(u) - 1):
            (g1, _), (g2, _) = u[i], u[i + 1]
            if g1 != g2 and graph.has_edge(g1, g2):
                v = u[:i] + (u[i + 1], u[i]) + u[i + 2:]
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return seen


def _swap_classes(graph, max_len, every_word_len):
    """Each class of words of letter codes (2i for generator i, 2i+1 for its
    inverse) under swaps of adjacent letters whose generators are adjacent in
    the graph, with its least member: every class of each length up to
    every_word_len, then up to max_len the classes no member of which has an
    adjacent inverse pair, the cancellation-free ones.  Independent of the
    engine: a cancellation-free word of length n extends one of length n-1."""
    labels = graph.vertices.labels
    commute = [[graph.has_edge(u, v) for v in labels] for u in labels]
    letters = range(2 * len(labels))
    free = [()]
    for length in range(1, max_len + 1):
        if length <= every_word_len:
            words = product(letters, repeat=length)
        else:
            words = (w + (c,) for w in free for c in letters)
        seen, free = set(), []
        for w in words:
            if w in seen:
                continue
            members, stack = {w}, [w]
            while stack:
                u = stack.pop()
                for i in range(length - 1):
                    if commute[u[i] >> 1][u[i + 1] >> 1]:
                        v = u[:i] + (u[i + 1], u[i]) + u[i + 2:]
                        if v not in members:
                            members.add(v)
                            stack.append(v)
            seen |= members
            if not any(u[i] == u[i + 1] ^ 1 for u in members for i in range(length - 1)):
                free.extend(members)
            elif length > every_word_len:
                continue
            yield members, min(members)


def _lex_least_mismatch(max_vertices=3, max_len=6, every_word_len=5):
    """The first (graph, word) whose lex_normal is not the least member of
    its swap class, over the window of _swap_classes on every graph up to
    max_vertices; None if there is none."""
    for g in graphs_up_to(max_vertices):
        engine = Raag(g).engine
        for members, least in _swap_classes(g, max_len, every_word_len):
            for w in members:
                if engine.lex_normal(w) != list(least):
                    return g, w
    return None


def test_reduced_form_is_lex_least_of_its_shuffle_class(monkeypatch):
    # lex_normal must return the lexicographically least shuffle of every
    # word up to length 5 and of every cancellation-free word up to length 6,
    # on every graph up to 3 vertices; the window reaches the fallback.  It
    # takes words that are not cancellation-free because a back-scan that
    # crosses a's own generator goes wrong only on a cancellable pair
    fallbacks = []
    kahn = _RaagEngine._kahn_normal
    monkeypatch.setattr(_RaagEngine, "_kahn_normal", lambda self, w: fallbacks.append(w) or kahn(self, w))
    assert _lex_least_mismatch() is None
    assert fallbacks
    # raag_reduce must return the lexicographically least member of the
    # shuffle class of its own output (generator order = storage order,
    # a positive letter before its inverse)
    for g in graphs_up_to(3):
        raag = Raag(g)
        index = {v: i for i, v in enumerate(g.vertices)}

        def key(w):
            return tuple((index[gen], 0 if sign > 0 else 1) for gen, sign in w)

        letters = [(v, s) for v in g.vertices for s in (1, -1)]
        for length in range(5):
            for w in product(letters, repeat=length):
                reduced = raag_reduce(raag, w)
                closure = _swap_closure(g, reduced)
                assert reduced == min(closure, key=key)
                assert all(raag.equal(w, u) for u in closure)


def _mutated_lex_normal(own_generator_commutes=False, insert_at_run_start=False):
    """The engine's insertion, plainly written, with a back-scan that may
    cross letters of a's own generator and an insertion that may go at the
    start of the commuting run instead of before its first larger letter;
    the budget and the fallback are the engine's."""

    def lex_normal(self, reduced):
        weight = [len(b) for b in self.blocking for _ in (0, 1)]
        budget = sum(map(weight.__getitem__, reduced))
        out = []
        for a in reduced:
            commuting = self.neighbours[a >> 1] | ({a >> 1} if own_generator_commutes else set())
            end = i = p = len(out)
            while i and out[i - 1] >> 1 in commuting:
                i -= 1
                if out[i] > a or insert_at_run_start:
                    p = i
            budget -= end - i
            if budget < 0:
                return self._kahn_normal(reduced)
            out.insert(p, a)
        return out

    return lex_normal


def _stack_for_heap(monkeypatch):
    from commagraph import groups

    monkeypatch.setattr(groups, "heapify", lambda ready: None)
    monkeypatch.setattr(groups, "heappop", list.pop)
    monkeypatch.setattr(groups, "heappush", list.append)


@pytest.mark.parametrize(
    "mutate",
    [
        _stack_for_heap,
        lambda m: m.setattr(_RaagEngine, "lex_normal", lambda self, reduced: list(reduced)),
        lambda m: m.setattr(_RaagEngine, "lex_normal", _mutated_lex_normal(own_generator_commutes=True)),
        lambda m: m.setattr(_RaagEngine, "lex_normal", _mutated_lex_normal(insert_at_run_start=True)),
    ],
    ids=["stack-in-fallback", "identity", "own-generator-commutes", "insert-at-run-start"],
)
def test_lex_least_gate_catches_mutations(monkeypatch, mutate):
    mutate(monkeypatch)
    assert _lex_least_mismatch() is not None


def test_plain_insertion_passes_the_lex_least_gate(monkeypatch):
    # the mutations above are caught for what they change, not for the copy:
    # each is caught on graphs of at most 2 vertices, where the copy passes
    monkeypatch.setattr(_RaagEngine, "lex_normal", _mutated_lex_normal())
    assert _lex_least_mismatch(max_vertices=2) is None


def _reference_reduce(graph, word):
    """raag_reduce by the plain quadratic method, as a reference for the
    engine: delete the first pair x, x^-1 whose in-between letters all
    commute with x and rescan from the start until none is left, then
    repeatedly take out the least letter that commutes past everything to
    its left (generator order = storage order, a positive letter first)."""
    labels = graph.vertices.labels
    index = {v: i for i, v in enumerate(labels)}
    adjacent = [set() for _ in labels]
    for u, v in graph.edges:
        adjacent[index[u]].add(index[v])
        adjacent[index[v]].add(index[u])
    w = [2 * index[gen] + (0 if sign > 0 else 1) for gen, sign in word]
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(w):
            for j in range(i + 1, len(w)):
                g = w[j] >> 1
                if g == c >> 1:
                    if w[j] == c ^ 1:
                        del w[j]
                        del w[i]
                        changed = True
                    break
                if g not in adjacent[c >> 1]:
                    break
            if changed:
                break
    out = []
    while w:
        best, earlier = None, set()
        for idx, c in enumerate(w):
            if earlier <= adjacent[c >> 1] and (best is None or c < w[best]):
                best = idx
            earlier.add(c >> 1)
        out.append(w.pop(best))
    return tuple((labels[c >> 1], 1 if c % 2 == 0 else -1) for c in out)


def test_reduce_matches_reference_on_long_words():
    # words of 50-200 letters, far past the exhaustive and oracle windows;
    # half are u.v.u^-1 shapes, so long stretches cancel across commuting letters
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(1, 6)
        labels = make_set("abcdef"[:n])
        density = rng.random()
        edges = [
            (u, v) for i, u in enumerate(labels) for v in labels.labels[i + 1:]
            if rng.random() < density
        ]
        g = make_graph(labels, edges)

        def word(low, high):
            return tuple(
                (rng.choice(labels.labels), rng.choice((1, -1)))
                for _ in range(rng.randint(low, high))
            )

        if rng.random() < 0.5:
            w = word(50, 200)
        else:
            u = word(20, 80)
            w = u + word(0, 40) + word_inverse(u)
        expected = _reference_reduce(g, w)
        assert raag_reduce(Raag(g), w) == expected
        assert raag_is_identity(Raag(g), w) == (expected == ())


def _twenty_vertices(density, rng):
    labels = make_set([f"v{i}" for i in range(20)])
    edges = [(u, v) for i, u in enumerate(labels) for v in labels.labels[i + 1:] if rng.random() < density]
    return make_graph(labels, edges)


def test_lex_normal_matches_kahn_on_long_words(monkeypatch):
    # seeded words over 20-vertex graphs of density 0 to 1, a star and a
    # path: random ones and ones sorted by decreasing letter, whose late
    # letters scan far back; Kahn's heap called directly is the reference,
    # and words of up to 200 letters also meet _reference_reduce
    rng = random.Random(21)
    graphs = [_twenty_vertices(density, rng) for density in (0, 0.25, 0.5, 0.75, 1)]
    labels = graphs[0].vertices.labels
    graphs.append(make_graph(graphs[0].vertices, [("v0", v) for v in labels[1:]]))
    graphs.append(make_graph(graphs[0].vertices, list(zip(labels, labels[1:]))))
    kahn = _RaagEngine._kahn_normal
    fallbacks = []
    monkeypatch.setattr(_RaagEngine, "_kahn_normal", lambda self, w: fallbacks.append(w) or kahn(self, w))
    calls = 0
    for g in graphs:
        engine = Raag(g).engine
        for length in (500, 1000, 2000):
            w = [rng.randrange(40) for _ in range(length)]
            for reduced in (engine.cancel_fixpoint(w), engine.cancel_fixpoint(sorted(w, reverse=True))):
                assert engine.lex_normal(reduced) == kahn(engine, reduced)
                calls += 1
        for _ in range(5):
            w = tuple((rng.choice(labels), rng.choice((1, -1))) for _ in range(rng.randint(50, 200)))
            assert raag_reduce(Raag(g), w) == _reference_reduce(g, w)
            calls += 1
    assert 0 < len(fallbacks) < calls


def test_engine_is_fast_on_long_words():
    # a quadratic engine takes about a minute on the first word; each of
    # these takes tens of milliseconds in linear time
    rng = random.Random(7)
    labels = make_set([f"v{i}" for i in range(20)])
    edges = [
        (u, v) for i, u in enumerate(labels) for v in labels.labels[i + 1:] if rng.random() < 0.5
    ]
    u = tuple((rng.choice(labels.labels), rng.choice((1, -1))) for _ in range(16000))
    start = time.perf_counter()
    assert raag_is_identity(Raag(make_graph(labels, edges)), u + word_inverse(u))
    assert time.perf_counter() - start < 5.0
    # a scan back past commuting letters would cross all of b^16000 for every a
    adversarial = (iA,) + (B,) * 16000 + (A, iA) * 16000
    start = time.perf_counter()
    assert raag_reduce(edge_raag(), adversarial) == (iA,) + (B,) * 16000
    assert time.perf_counter() - start < 5.0


def _is_identity_mismatch(is_identity):
    """The first (graph, codes) on which is_identity, in the engine's place,
    disagrees with an empty cancel_fixpoint: every word up to length 5 over
    every labeled graph on <= 3 vertices, then seeded 2,000-letter random
    words and u.u^-1 words over 20-vertex edgeless, half-dense and complete
    graphs; None if there is none."""
    for g in graphs_up_to(3):
        engine = Raag(g).engine
        letters = range(2 * len(g.vertices))
        for n in range(6):
            for w in product(letters, repeat=n):
                if is_identity(engine, w) != (not engine.cancel_fixpoint(w)):
                    return g, w
    rng = random.Random(25)
    for density in (0, 0.5, 1):
        g = _twenty_vertices(density, rng)
        engine = Raag(g).engine
        u = [rng.randrange(40) for _ in range(1000)]
        for w in ([rng.randrange(40) for _ in range(2000)], u + [c ^ 1 for c in reversed(u)]):
            if is_identity(engine, w) != (not engine.cancel_fixpoint(w)):
                return g, w
    return None


def test_is_identity_reads_the_live_count():
    assert _is_identity_mismatch(_RaagEngine.is_identity) is None


def test_is_identity_that_counts_kept_letters_is_caught():
    # kept holds cancelled letters too, marked -1, so a word with a
    # cancellation is never empty there
    def kept_is_empty(engine, enc):
        state = engine.fresh_state()
        engine.push(state, enc)
        return len(state[0]) == 0

    assert _is_identity_mismatch(kept_is_empty) is not None


def _plain_insertion_killers():
    """Words whose normal form plain insertion, with no budget, builds in
    quadratic time: their late letters commute with, and sort before, long
    runs of the letters before them, so each scans back over such a run."""
    path = make_graph(make_set(["a", "x", "y"]), [("x", "a"), ("a", "y")])
    xy = (("x", 1), ("y", 1)) * 8000
    yield pytest.param(path, xy + (A,) * 8000, (A,) * 8000 + xy, id="path")
    rng = random.Random(7)
    complete = _twenty_vertices(1.0, rng)
    w = tuple((rng.choice(complete.vertices.labels), 1) for _ in range(10000))
    yield pytest.param(complete, w, tuple(sorted(w, key=lambda x: int(x[0][1:]))), id="complete")
    half = _twenty_vertices(0.5, rng)
    around = [v for v in half.vertices if half.has_edge("v0", v)]
    u = tuple((rng.choice(around), 1) for _ in range(8000))
    v0 = (("v0", 1),) * 8000
    engine = Raag(half).engine
    yield pytest.param(half, u + v0, v0 + engine.decode(engine._kahn_normal(engine.encode(u))), id="half-dense")


@pytest.mark.parametrize("graph, word, expected", _plain_insertion_killers())
def test_normal_form_is_fast_where_plain_insertion_is_quadratic(graph, word, expected):
    # each takes under 0.05 s; without the budget that hands the word to
    # Kahn's heap, insertion takes 2 s (complete) to 12 s (path)
    start = time.perf_counter()
    assert raag_reduce(Raag(graph), word) == expected
    assert time.perf_counter() - start < 0.5


def test_commute_examples():
    assert edge_raag().commutes((A,), (B,))
    assert not discrete_raag().commutes((A,), (B,))
    assert discrete_raag().commutes((A,), (A,))


def test_generators_commute_exactly_on_edges():
    for g in graphs_up_to(4):
        raag = Raag(g)
        for i, u in enumerate(g.vertices):
            for v in g.vertices.labels[i + 1:]:
                assert raag.commutes(((u, 1),), ((v, 1),)) == g.has_edge(u, v)


def _engine_commutes(raag, a, b):
    engine = raag.engine
    u, v = engine.encode(a), engine.encode(b)
    return engine.is_identity(u + v + tuple(c ^ 1 for c in reversed(u)) + tuple(c ^ 1 for c in reversed(v)))


def test_commute_table_is_the_pairwise_commutator():
    # every entry against the commutator of its own pair: the engine's for a
    # presented group, two products for a finite one
    from commagraph.verify import default_pool

    cases = []
    for seed in range(20):
        for w in default_pool(seed):
            cases.append((w.target, [w.images[x] for x in w.gens], w.target.multiply))
    for g in graphs_up_to(4):
        raag = Raag(g)
        cases.append((raag, [((v, 1),) for v in g.vertices], None))
    rng = random.Random(5)
    for _ in range(200):
        g = rng.choice(list(graphs_up_to(3))[1:])
        labels = g.vertices.labels
        words = [
            tuple((rng.choice(labels), rng.choice((1, -1))) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        cases.append((Raag(g), words, None))
    for group, elements, multiply in cases:
        table = group.commute_table(elements)
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                if multiply is None:
                    expected = _engine_commutes(group, a, b)
                else:
                    expected = multiply(a, b) == multiply(b, a)
                assert table[i][j] == expected
                assert group.commutes(a, b) == expected


# ---------------------------------------------------------------------------
# finite groups

def test_cyclic_group_2():
    c2 = cyclic_group(2)
    assert c2.elements.labels == ("e", "g")
    assert c2.multiply("g", "g") == "e"
    assert c2.invert("g") == "g"


def test_cyclic_group_needs_order_at_least_one():
    with pytest.raises(MalformedInput, match="order at least 1"):
        cyclic_group(0)


def test_trivial_group():
    t = trivial_group()
    assert len(t.elements) == 1 and t.identity == "e"


def test_from_table_rejects_non_associative():
    table = [
        ["e", "a", "b"],
        ["a", "e", "a"],
        ["b", "a", "b"],
    ]
    with pytest.raises(NotAssociative):
        finite_group_from_table(make_set(["e", "a", "b"]), table)


def test_from_table_rejects_missing_identity():
    table = [["a", "a"], ["a", "a"]]
    with pytest.raises(NoIdentity):
        finite_group_from_table(make_set(["a", "b"]), table)


def test_from_table_rejects_missing_inverse():
    # two-element monoid that is not a group
    table = [["e", "g"], ["g", "g"]]
    with pytest.raises(NoInverse):
        finite_group_from_table(make_set(["e", "g"]), table)


def test_from_table_accepts_rows():
    g = finite_group_from_table(make_set(["e", "g"]), [["e", "g"], ["g", "e"]])
    assert g.identity == "e"


def test_from_table_finds_identity_stored_last():
    g = _cyclic_3_identity_last()
    assert g.identity == "e" and g.elements.labels[-1] == "e"
    assert g.inverse == {"g": "g2", "g2": "g", "e": "e"}


def test_from_table_rejects_unknown_entry():
    with pytest.raises(UnknownElement):
        finite_group_from_table(make_set(["e"]), [["x"]])


def test_permutation_closure_s3():
    s3 = finite_group_from_permutations(3, [(2, 1, 3), (2, 3, 1)])
    assert len(s3.elements) == 6


def test_permutation_closure_cyclic_4():
    c = finite_group_from_permutations(4, [(2, 3, 4, 1)])
    assert len(c.elements) == 4
    assert all(c.commutes(a, b) for a in c.elements for b in c.elements)


def test_permutation_closure_no_generators():
    t = finite_group_from_permutations(3, [])
    assert len(t.elements) == 1


def test_permutation_closure_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        finite_group_from_permutations(3, [(1, 1, 3)])
    with pytest.raises(NotAPermutation):
        finite_group_from_permutations(3, [(1, 2)])


def _cycle(start: int, length: int, degree: int) -> list[int]:
    """The cycle start -> start+1 -> ... -> start+length-1 -> start on 1..degree."""
    image = list(range(1, degree + 1))
    for i in range(start, start + length):
        image[i - 1] = start + (i - start + 1) % length
    return image


def test_permutation_closure_cap():
    # C8 x C125 on 133 points has exactly CLOSURE_CAP elements;
    # C7 x C11 x C13 on 31 points has one more and is refused mid-closure
    assert len(finite_group_from_permutations(133, [_cycle(1, 8, 133), _cycle(9, 125, 133)]).elements) == 1000
    with pytest.raises(OrderCapExceeded):
        finite_group_from_permutations(31, [_cycle(1, 7, 31), _cycle(8, 11, 31), _cycle(19, 13, 31)])


def test_closure_cap_bounds_the_degree():
    assert len(finite_group_from_permutations(1000, []).elements) == 1
    with pytest.raises(OrderCapExceeded):
        finite_group_from_permutations(1001, [])


def test_closure_cap_below_one_is_refused():
    # the cap is the constant CLOSURE_CAP, so no call can lower it
    for cap in (0, -5):
        with pytest.raises(TypeError):
            group_from_json({"type": "perm", "degree": 2, "generators": []}, closure_cap=cap)
        with pytest.raises(TypeError):
            finite_group_from_permutations(2, [(2, 1)], cap=cap)
    trivial = group_from_json({"type": "perm", "degree": 2, "generators": []})
    assert trivial.elements.labels == ("12",)


def test_default_closure_cap_admits_s6_and_refuses_s7():
    # 1,000 elements: at most 10^6 table entries; S7 (5,040) is refused
    # during the closure, before any table exists
    assert len(finite_group_from_permutations(6, [(2, 1, 3, 4, 5, 6), (2, 3, 4, 5, 6, 1)]).elements) == 720
    with pytest.raises(OrderCapExceeded):
        finite_group_from_permutations(7, [(2, 1, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 1)])


def test_dihedral_order_8():
    assert len(_dihedral_group_4().elements) == 8


def _brute_force_verdict(labels, table):
    """The error a table should raise, or None for a group, by checking
    every triple, every identity candidate and every inverse pair."""
    if not all(
        table[(table[(a, b)], c)] == table[(a, table[(b, c)])]
        for a in labels
        for b in labels
        for c in labels
    ):
        return NotAssociative
    if not any(all(table[(e, x)] == x == table[(x, e)] for x in labels) for e in labels):
        return NoIdentity
    e = next(e for e in labels if all(table[(e, x)] == x == table[(x, e)] for x in labels))
    if not all(any(table[(a, b)] == e == table[(b, a)] for b in labels) for a in labels):
        return NoInverse
    return None


def _assert_construction_matches_brute_force(labels, table):
    verdict = _brute_force_verdict(labels, table)
    rows = [[table[(a, b)] for b in labels] for a in labels]
    try:
        h = finite_group_from_table(make_set(labels), rows)
    except (NotAssociative, NoIdentity, NoInverse) as exc:
        assert type(exc) is verdict
        if verdict is NotAssociative:
            # the message names a failing triple
            a, b, c = re.findall(r"'([^']*)'", str(exc))[:3]
            assert table[(table[(a, b)], c)] != table[(a, table[(b, c)])]
    else:
        assert verdict is None
        assert all(table[(h.identity, x)] == x == table[(x, h.identity)] for x in labels)
        assert all(table[(a, h.inverse[a])] == h.identity == table[(h.inverse[a], a)] for a in labels)


def test_light_test_matches_brute_force_on_all_small_magmas():
    for n in range(4):
        labels = [str(i) for i in range(n)]
        pairs = list(product(labels, repeat=2))
        for values in product(labels, repeat=n * n):
            _assert_construction_matches_brute_force(labels, dict(zip(pairs, values)))


def test_light_test_matches_brute_force_on_perturbed_groups():
    # every group table with one entry changed: mostly near-associative magmas
    for h in (symmetric_group_3(), _dihedral_group_4(), klein_four_group()):
        labels = h.elements.labels
        group_table = {(a, b): h.multiply(a, b) for a, b in product(labels, repeat=2)}
        for a, b in product(labels, repeat=2):
            for c in labels:
                table = dict(group_table)
                table[(a, b)] = c
                _assert_construction_matches_brute_force(labels, table)


def _permutation_of(label):
    return tuple(int(i) for i in (label.split(",") if "," in label else label))


def _assert_closure_table_is_composition(h):
    for a in h.elements:
        p = _permutation_of(a)
        for b in h.elements:
            q = _permutation_of(b)
            assert _permutation_of(h.multiply(a, b)) == tuple(p[i - 1] for i in q)


def _dihedral(m):
    rotation = tuple(range(2, m + 1)) + (1,)
    reflection = (1,) + tuple(range(m, 1, -1))
    return finite_group_from_permutations(m, [rotation, reflection])


def test_closure_table_is_permutation_composition():
    s4 = finite_group_from_permutations(4, [(2, 1, 3, 4), (2, 3, 4, 1)])
    assert len(s4.elements) == 24
    _assert_closure_table_is_composition(s4)
    for m in (5, 7):
        d = _dihedral(m)
        assert len(d.elements) == 2 * m
        _assert_closure_table_is_composition(d)


def test_order_120_groups_are_fast():
    # about a second each at O(n^3); tens of milliseconds at O(n^2)
    start = time.perf_counter()
    s5 = finite_group_from_permutations(5, [(2, 1, 3, 4, 5), (2, 3, 4, 5, 1)])
    assert len(commutation_graph(s5).edges) == (120 * 7 - 120) // 2  # 7 classes
    assert time.perf_counter() - start < 5.0
    start = time.perf_counter()
    d60 = _dihedral(60)
    assert len(commutation_graph(d60).edges) == (120 * 33 - 120) // 2  # 33 classes
    assert time.perf_counter() - start < 5.0
    # S6 on integer rows: about 5 MB at peak; a label-keyed table of its
    # 518,400 products alone takes several times that
    tracemalloc.start()
    try:
        s6 = finite_group_from_permutations(6, [(2, 1, 3, 4, 5, 6), (2, 3, 4, 5, 6, 1)])
        assert len(commutation_graph(s6).edges) == (720 * 11 - 720) // 2  # 11 classes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# ---------------------------------------------------------------------------
# commutation graphs

def test_commutation_graph_c2_is_complete():
    assert commutation_graph(cyclic_group(2)).edges == (("e", "g"),)


def test_commutation_graph_trivial():
    g = commutation_graph(trivial_group())
    assert len(g.vertices) == 1 and g.edges == ()


def test_commutation_graph_s3():
    s3 = symmetric_group_3()
    g = commutation_graph(s3)
    assert len(g.edges) == 6
    # the identity is adjacent to all five others; the two rotations commute
    assert sum(1 for e in g.edges if "123" in e) == 5
    assert g.has_edge("231", "312")


def test_commutation_graph_identity_degree():
    for h in (cyclic_group(3), klein_four_group(), symmetric_group_3(), _dihedral_group_4()):
        g = commutation_graph(h)
        degree = sum(1 for e in g.edges if h.identity in e)
        assert degree == len(h.elements) - 1


# ---------------------------------------------------------------------------
# the graph -> group functor

def test_raag_of_discrete_is_free():
    free = Raag(discrete(make_set(["a", "b"])))
    assert not free.commutes((A,), (B,))
    assert free.presentation.edges == ()


def test_raag_of_triangle_is_free_abelian():
    triangle = Raag(indiscrete(make_set(["a", "b", "c"])))
    labels = triangle.generators.labels
    for i, u in enumerate(labels):
        for v in labels[i + 1:]:
            assert triangle.commutes(((u, 1),), ((v, 1),))


def test_embed_graph_hom_group_part_functor_laws():
    g = make_graph(make_set(["a", "b"]), [("a", "b")])
    ident = embed_graph_hom(make_graph_hom(g, g, {"a": "a", "b": "b"})).f_grp
    assert ident == identity_group_hom(Raag(g))
    h = indiscrete(make_set(["c", "d", "e"]))
    f1 = make_graph_hom(g, h, {"a": "c", "b": "d"})
    f2 = make_graph_hom(h, h, {"c": "d", "d": "e", "e": "c"})
    composed = compose_group_homs(embed_graph_hom(f1).f_grp, embed_graph_hom(f2).f_grp)
    direct = embed_graph_hom(make_graph_hom(g, h, {"a": "d", "b": "e"})).f_grp
    assert composed == direct


def test_embed_graph_hom_rejects_non_hom():
    from commagraph.graphs import GraphHom
    from commagraph.sets import make_map

    g = make_graph(make_set(["a", "b"]), [("a", "b")])
    h = discrete(make_set(["c", "d"]))
    bad = make_map(g.vertices, h.vertices, {"a": "c", "b": "d"})
    with pytest.raises(InvalidHom):
        embed_graph_hom(GraphHom(g, h, bad))


def test_free_group_equality_matches_free_reduce():
    free = Raag(discrete(make_set(["a", "b"])))
    rng = random.Random(0)
    letters = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    for _ in range(1000):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        assert raag_is_identity(free, w) == (_free_reduce(w) == ())


def test_infinite_cyclic():
    free = Raag(discrete(make_set(["a"])))
    assert free.equal((A, A, iA), (A,))
    trivial = Raag(discrete(make_set([])))
    assert raag_is_identity(trivial, ())


# ---------------------------------------------------------------------------
# evaluation and homomorphisms

def test_evaluate_word_in_c4():
    c4 = cyclic_group(4)
    assert evaluate_word({"a": "g"}, (A, A), c4) == "g2"
    assert evaluate_word({"a": "g"}, (), c4) == "e"
    assert evaluate_word({"a": "g"}, (A, iA), c4) == "e"


def test_evaluate_word_unknown_generator():
    with pytest.raises(UnknownGenerator):
        evaluate_word({}, (A,), cyclic_group(2))


@pytest.mark.parametrize("word", [(A,), (iA,), (A, A)], ids=["a", "-a", "a a"])
def test_evaluate_word_image_outside_a_finite_group(word):
    with pytest.raises(UnknownElement, match="'zz' is not an element"):
        evaluate_word({"a": "zz"}, word, cyclic_group(2))


def _reference_evaluate(images, w, raag):
    """evaluate_word by reducing the accumulator after every letter."""
    acc = ()
    for gen, sign in w:
        x = images[gen] if sign > 0 else word_inverse(images[gen])
        acc = raag_reduce(raag, acc + x)
    return acc


def _random_word(rng, labels, length):
    return tuple((rng.choice(labels), rng.choice((1, -1))) for _ in range(length))


def test_evaluate_word_into_raag_matches_letter_by_letter():
    rng = random.Random(11)
    for _ in range(200):
        dom = make_set("abc"[: rng.randint(1, 3)])
        cod_labels = make_set("pqrst"[: rng.randint(1, 5)])
        edges = [
            (u, v) for i, u in enumerate(cod_labels) for v in cod_labels.labels[i + 1:]
            if rng.random() < 0.5
        ]
        cod = Raag(make_graph(cod_labels, edges))
        images = {v: _random_word(rng, cod_labels.labels, rng.randint(0, 4)) for v in dom}
        w = _random_word(rng, dom.labels, rng.randint(0, 30))
        assert evaluate_word(images, w, cod) == _reference_evaluate(images, w, cod)


def test_evaluate_word_into_raag_is_fast():
    # about 18 s letter by letter (quadratic); milliseconds in one reduction
    rng = random.Random(5)
    labels = make_set([f"v{i}" for i in range(20)])
    edges = [
        (u, v) for i, u in enumerate(labels) for v in labels.labels[i + 1:] if rng.random() < 0.5
    ]
    raag = Raag(make_graph(labels, edges))
    w = _random_word(rng, labels.labels, 4000)
    start = time.perf_counter()
    result = evaluate_word({v: ((v, 1),) for v in labels}, w, raag)
    assert time.perf_counter() - start < 5.0
    assert result == raag_reduce(raag, w)


def test_hom_check_equal_images_commute():
    s3 = symmetric_group_3()
    f = GroupHom(edge_raag(), s3, {"a": "213", "b": "213"})
    assert hom_check(f)


def test_hom_check_noncommuting_images_fail():
    s3 = symmetric_group_3()
    f = GroupHom(edge_raag(), s3, {"a": "213", "b": "231"})
    assert not hom_check(f)


def test_hom_check_free_domain_accepts_anything():
    s3 = symmetric_group_3()
    free = Raag(discrete(make_set(["a", "b"])))
    for x, y in product(s3.elements.labels, repeat=2):
        assert hom_check(GroupHom(free, s3, {"a": x, "b": y}))


def test_apply_hom_finite_domain():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    f = GroupHom(c2, c4, {"e": "e", "g": "g2"})
    assert apply_hom(f, "g") == "g2"
    assert hom_check(f)


def test_compose_group_homs_finite_domain():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    f = GroupHom(c2, c4, {"e": "e", "g": "g2"})
    squaring = GroupHom(c4, c4, {"e": "e", "g": "g2", "g2": "e", "g3": "g2"})
    assert compose_group_homs(f, squaring) == GroupHom(c2, c4, {"e": "e", "g": "e"})


def test_compose_group_homs_rejects_a_mismatched_middle():
    with pytest.raises(InvalidHom):
        compose_group_homs(identity_group_hom(cyclic_group(2)), identity_group_hom(cyclic_group(3)))


def test_hom_check_finite_domain_missing_image():
    with pytest.raises(MissingImage):
        hom_check(GroupHom(cyclic_group(2), cyclic_group(4), {"e": "e"}))


def test_hom_check_image_outside_the_codomain():
    c2 = cyclic_group(2)
    with pytest.raises(UnknownElement):
        hom_check(GroupHom(c2, c2, {"e": "e", "g": "zz"}))
    with pytest.raises(UnknownElement):
        hom_check(GroupHom(edge_raag(), c2, {"a": "zz", "b": "g"}))
    with pytest.raises(UnknownGenerator):
        hom_check(GroupHom(c2, edge_raag(), {"e": (), "g": (("zz", 1),)}))


def test_apply_hom_finite_domain_missing_image():
    f = GroupHom(cyclic_group(2), cyclic_group(4), {"e": "e"})
    with pytest.raises(MissingImage):
        apply_hom(f, "g")
    with pytest.raises(UnknownElement):
        apply_hom(f, "g2")


def _path_hom_into_itself():
    """A hom from Raag(P3), the path a - b - c, into itself whose images are
    no normal forms: a -> a.a^-1.b, b -> b.a, c -> c.b.c^-1; and the
    reduced normal form each of its one-letter words must evaluate to."""
    p3 = Raag(make_graph(make_set(["a", "b", "c"]), [("a", "b"), ("b", "c")]))
    C, iC = ("c", 1), ("c", -1)
    f = GroupHom(p3, p3, {"a": (A, iA, B), "b": (B, A), "c": (C, B, iC)})
    values = {
        (A,): (B,), (iA,): (iB,),
        (B,): (A, B), (iB,): (iA, iB),
        (C,): (B,), (iC,): (iB,),
    }
    return f, values


def _letter_value_failures(apply):
    """What apply, in apply_hom's place, gets wrong about the one-letter
    words of _path_hom_into_itself: each against its reduced normal form,
    the positive and inverse word of each generator on a first and on a
    repeated call, the list form against the tuple form, and an unknown
    generator, which must raise UnknownGenerator on every call."""
    f, values = _path_hom_into_itself()
    failures = []
    for call in ("first", "repeated"):
        for word, value in values.items():
            if apply(f, word) != value:
                failures.append((call, word))
            if apply(f, list(word)) != value:
                failures.append((call, "list", word))
        for _ in range(2):
            try:
                apply(f, (("z", 1),))
            except UnknownGenerator:
                continue
            failures.append((call, "unknown generator"))
    return failures


def test_one_letter_values_are_reduced_normal_forms_on_every_call():
    f, values = _path_hom_into_itself()
    assert hom_check(f)
    assert all(raag_reduce(f.cod, evaluate_word(f.images, w, f.cod)) == v for w, v in values.items())
    assert _letter_value_failures(apply_hom) == []
    # a hom keeps at most one value per letter, never an error or a longer word
    assert apply_hom(f, (A, B)) == (A, B, B)
    for word in values:
        apply_hom(f, word)
    assert f.letter_values == values


def test_one_letter_values_keyed_without_the_sign_are_caught():
    def keyed_by_generator(f, x):
        gen = x[0][0]
        if len(x) == 1 and gen in f.letter_values:
            return f.letter_values[gen]
        value = evaluate_word(f.images, x, f.cod)
        if len(x) == 1:
            f.letter_values[gen] = value
        return value

    assert _letter_value_failures(keyed_by_generator) != []


def test_one_letter_values_that_skip_reduce_are_caught():
    def unreduced(f, x):
        (gen, sign), = x
        if gen not in f.images:
            raise UnknownGenerator(gen)
        return f.images[gen] if sign > 0 else word_inverse(f.images[gen])

    assert _letter_value_failures(unreduced) != []


def test_composing_through_a_hom_evaluates_each_letter_once(monkeypatch):
    from commagraph import groups

    f, values = _path_hom_into_itself()
    calls = []
    monkeypatch.setattr(groups, "evaluate_word", lambda *args: calls.append(args) or evaluate_word(*args))
    identity = identity_group_hom(f.dom)
    for _ in range(3):
        composite = compose_group_homs(identity, f)
        assert composite.images == {"a": values[(A,)], "b": values[(B,)], "c": values[(("c", 1),)]}
    # the first composite evaluates each generator's letter; the others read it
    assert len(calls) == 3


def _hom_check_mismatches(check) -> list:
    """The maps on which check disagrees with f(ab) = f(a)f(b) on all n^2
    pairs of a product table built here, over every map, hom or not, from
    the built-in groups of order <= 4 and S3 into those of order <= 4: the
    five ac-bijection groups into the five group-reflection codomains
    (10,416 maps) and the trivial group into each.  Most are no hom, the
    side of hom_check that the suites, which enumerate homs, never show it.
    Also counts the maps and the homs among them."""
    small = [trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group()]
    domains = [*small, symmetric_group_3()]
    tables = {
        id(h): {(a, b): h.multiply(a, b) for a in h.elements.labels for b in h.elements.labels} for h in domains
    }
    pairs = [(dom, cod) for dom in domains for cod in small]
    mismatches = []
    maps = homs = 0
    for dom, cod in pairs:
        labels, dom_table, cod_table = dom.elements.labels, tables[id(dom)], tables[id(cod)]
        for values in product(cod.elements.labels, repeat=len(labels)):
            images = dict(zip(labels, values))
            every_product = all(images[ab] == cod_table[images[a], images[b]] for (a, b), ab in dom_table.items())
            if check(GroupHom(dom, cod, images)) != every_product:
                mismatches.append((labels, values))
            maps += 1
            homs += every_product
    assert maps == 10_416 + 14
    assert homs == sum(len(enumerate_homs_finite_to_finite(dom, cod)) for dom, cod in pairs)
    return mismatches


def test_hom_check_finite_domain_matches_every_product():
    assert _hom_check_mismatches(hom_check) == []


def test_an_always_true_hom_check_fails_the_product_test():
    assert _hom_check_mismatches(lambda f: True) != []


def test_hom_check_into_a_presented_group_multiplies_words():
    # C2 -> Raag(edge): g -> a would need a.a = f(g.g) = f(e), the empty word
    c2, raag = cyclic_group(2), edge_raag()
    assert raag.multiply((A,), (A, B)) == (A, A, B) and raag.multiply((A, B), (iB, iA)) == ()
    assert not hom_check(GroupHom(c2, raag, {"e": (), "g": (A,)}))
    assert hom_check(GroupHom(c2, raag, {"e": (), "g": ()}))


def test_homs_with_equal_images_differ_by_domain():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    images = {"e": "e", "g": "g2"}
    free = Raag(discrete(c2.elements))
    assert GroupHom(c2, c4, images) != GroupHom(free, c4, images)


def test_enumerate_homs_raag_to_finite_counts():
    s3 = symmetric_group_3()
    assert len(enumerate_homs_raag_to_finite(edge_raag(), s3)) == 18
    point = Raag(discrete(make_set(["a"])))
    assert len(enumerate_homs_raag_to_finite(point, s3)) == 6
    empty = Raag(discrete(make_set([])))
    assert len(enumerate_homs_raag_to_finite(empty, s3)) == 1


def test_enumerated_homs_are_homs():
    s3 = symmetric_group_3()
    for f in enumerate_homs_raag_to_finite(edge_raag(), s3):
        assert hom_check(f)


def test_enumerate_homs_matches_product_order():
    # every assignment in lexicographic storage order, kept when adjacent
    # images commute
    for h, max_vertices in ((symmetric_group_3(), 4), (_dihedral_group_4(), 3)):
        for g in graphs_up_to(max_vertices):
            gens = g.vertices.labels
            expected = [
                dict(zip(gens, images))
                for images in product(h.elements.labels, repeat=len(gens))
                if all(h.commutes(images[gens.index(u)], images[gens.index(v)]) for u, v in g.edges)
            ]
            found = enumerate_homs_raag_to_finite(Raag(g), h)
            assert [f.images for f in found] == expected
            assert all(list(f.images) == list(gens) for f in found)


def _cyclic_3_identity_last():
    labels = ["g", "g2", "e"]  # g^k stored at (k - 1) % 3
    return finite_group_from_table(
        make_set(labels), [[labels[(i + j + 1) % 3] for j in range(3)] for i in range(3)]
    )


def test_enumerate_finite_to_finite_matches_brute_force():
    # every map dom -> cod in lexicographic storage order, kept when it
    # respects every product
    groups = (
        trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4),
        klein_four_group(), symmetric_group_3(), _cyclic_3_identity_last(),
    )
    for dom, cod in product(groups, repeat=2):
        labels = dom.elements.labels
        expected = []
        for images in product(cod.elements.labels, repeat=len(labels)):
            f = dict(zip(labels, images))
            if all(f[dom.multiply(a, b)] == cod.multiply(f[a], f[b]) for a in labels for b in labels):
                expected.append(f)
        found = enumerate_homs_finite_to_finite(dom, cod)
        assert [f.images for f in found] == expected
        assert all(list(f.images) == list(labels) for f in found)


def test_enumerate_finite_to_finite_counts():
    c2, c3, c4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    s3, v4 = symmetric_group_3(), klein_four_group()
    assert len(enumerate_homs_finite_to_finite(c2, c2)) == 2
    assert len(enumerate_homs_finite_to_finite(c3, c4)) == 1
    assert len(enumerate_homs_finite_to_finite(c2, v4)) == 4
    assert len(enumerate_homs_finite_to_finite(s3, s3)) == 10
    for f in enumerate_homs_finite_to_finite(s3, c2):
        assert hom_check(f)


def test_hom_set_bijection_up_to_order_8():
    from commagraph import enumerate_graph_homs

    d4 = _dihedral_group_4()
    c_d4 = commutation_graph(d4)
    for g in graphs_up_to(3):
        graph_side = {
            tuple(sorted(f.vmap.mapping.items()))
            for f in enumerate_graph_homs(g, c_d4)
        }
        group_side = {
            tuple(sorted(f.images.items()))
            for f in enumerate_homs_raag_to_finite(Raag(g), d4)
        }
        assert graph_side == group_side


def test_level_searches_match_brute_force_where_a_middle_level_is_pruned():
    # d is adjacent to a, b and c, and a to b.  Into four disjoint edges the
    # third level holds 128 tuples and only 32 of them extend, so the search
    # holds more than its answer; every assignment is tried here instead
    g = make_graph(make_set(["a", "b", "c", "d"]), [("a", "b"), ("a", "d"), ("b", "d"), ("c", "d")])
    labels = [str(i) for i in range(8)]
    matching = make_graph(make_set(labels), [(labels[i], labels[i + 1]) for i in range(0, 8, 2)])
    edges = [(0, 1), (0, 3), (1, 3), (2, 3)]
    expected = [
        f for f in product(range(8), repeat=4) if all(f[u] // 2 == f[v] // 2 for u, v in edges)
    ]
    assert len(expected) == 64
    assert _graph_hom_images(g, matching) == expected
    for h in (symmetric_group_3(), _dihedral_group_4()):
        labels = h.elements.labels
        expected = [
            f for f in product(range(len(labels)), repeat=4)
            if all(h.multiply(labels[f[u]], labels[f[v]]) == h.multiply(labels[f[v]], labels[f[u]])
                   for u, v in edges)
        ]
        assert _raag_hom_images(Raag(g), h) == expected


def test_hom_searches_free_their_working_sets_at_once():
    # neither search leaves a reference cycle (as a recursive closure that
    # refers to itself would), so the search's tuple lists and lookup sets
    # go at once, not at the next full collection
    s3 = symmetric_group_3()
    g = make_graph(make_set(["a", "b", "c"]), [("a", "b"), ("b", "c")])
    s3_graph = commutation_graph(s3)
    gc.collect()
    gc.disable()
    try:
        _raag_hom_images(Raag(g), s3)
        assert gc.collect() == 0
        _graph_hom_images(g, s3_graph)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hom_cap_admits_path3_into_s6():
    # the largest hom set measured as a CLI input stays under the cap, and
    # so does each level of its search
    s6 = finite_group_from_permutations(6, [(2, 1, 3, 4, 5, 6), (2, 3, 4, 5, 6, 1)])
    path3 = make_graph(make_set(["a", "b", "c"]), [("a", "b"), ("b", "c")])
    assert len(_raag_hom_images(Raag(path3), s6)) == 648_720 < HOM_CAP


def test_commutation_counit_is_a_hom():
    # an embedded group coreflects to its commutation graph, and the
    # counit's group part evaluates the group that graph presents: each
    # element-named generator goes to its element
    s4 = finite_group_from_permutations(4, [(2, 1, 3, 4), (2, 3, 4, 1)])
    for h in (cyclic_group(1), *default_ac_groups(), s4):
        core = coreflect(embed_group(h))
        assert core.graph == commutation_graph(h)
        counit = core.counit.f_grp
        assert counit.dom == Raag(commutation_graph(h)) and counit.cod == h
        assert counit.images == {x: x for x in h.elements}
        assert hom_check(counit)


def test_commutation_counit_evaluates():
    counit = coreflect(embed_group(cyclic_group(2))).counit.f_grp
    assert apply_hom(counit, (("g", 1), ("g", 1))) == "e"


# ---------------------------------------------------------------------------
# JSON forms

def test_cayley_json_round_trip():
    s3 = symmetric_group_3()
    again = group_from_json(group_to_json(s3))
    assert again == s3


def test_raag_json_round_trip():
    raag = edge_raag()
    assert group_from_json(group_to_json(raag)) == raag


def test_perm_json_builds_cayley_group():
    h = group_from_json({"type": "perm", "degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]})
    assert h == symmetric_group_3()


def test_free_json_reads_as_edgeless_presentation():
    h = group_from_json({"type": "free", "generators": ["a", "b"]})
    assert isinstance(h, Raag)
    assert h.presentation.edges == ()


def test_group_json_rejects_unknown_type():
    with pytest.raises(MalformedInput):
        group_from_json({"type": "sporadic"})
