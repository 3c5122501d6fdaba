"""Computable groups: free groups, right-angled Artin groups, finite groups.

Elements of free groups and RAAGs are words, i.e. sequences of signed
generators, whose letters are checked once, where the engine reads them:
(generator, sign) pairs through encode, and word tokens, "a" for a letter
and "-a" for its inverse, through the one token table that also writes
them, so every word a group prints reads back as itself.  Equality of RAAG
elements is decided by a one-pass cancellation engine, O(n*k) for n
letters over k generators (Wrathall 1988), which each presented group
builds once and holds (Raag.engine), and double-checked elsewhere by two
oracles that use none of it and read the presentation graph's neighbour
sets themselves.  The engine's one step folds
letters into a cancellation state and has an exact undo, so a walk over
many words that share prefixes redoes only the letters that change.  A
rewriting (swaps of adjacent commuting letters, free cancellations) builds
every identity word of each length once, inserting an inverse pair into the
shorter ones and closing under swaps, so a short word is tested by a
lookup.  The faithful Tits representation of a right-angled Coxeter group
that contains the RAAG (Davis-Januszkiewicz 2000) tests a word of any
length in O(n*k), on exact integers, each letter applying its two
reflections and each reflection moving only the coordinates of the
reflections it does not commute with.  Reduced words are
put into a canonical form, the lexicographically least word obtainable by
swapping adjacent commuting letters, by inserting each letter before the
first larger one of the letters it commutes past, typically in O(n), with
Kahn's heap taking over once that costs more than it would, O(n*k + n log n);
two words denote the same element iff they reduce to the same canonical form.

Finite groups keep their Cayley table as rows of element indices, read
through the element set's label positions; labels appear only where
elements go in or out.  A table comes in one form, square rows of labels.
One validator checks every table: associativity by Light's test against a
greedy generating set S, in O(n^2 * |S|) with |S| <= log2(n) + 1 for a
group of order n, then it finds the identity and checks inverses in O(n^2).
A permutation closure derives its rows from the closure's own edges,
a * x = (a * parent(x)) * g, by n^2 integer lookups.  The two directions
between graphs and groups live here as well: a graph yields the RAAG
presented by it, and a finite group yields its commutation graph (distinct
elements joined iff they commute).  Each group type decides commutation in
one place, commute_table, for every two of a list of elements at once: a
presented group runs the engine once per unordered pair, a finite group
reads its rows; its commuting lists, that table read as index lists, feed
the hom search out of a presented group.  Its commutation graph reads the
rows itself, so ac-bijection compares two readings of them.  A hom out of
a presented group evaluates each one-letter word once and keeps its
reduced value (GroupHom.letter_values), so composing many homs through
one, as every hom of a suite goes through its object's counit, costs a
lookup per letter.  hom_check reads each product f(x)f(g) out of a finite
group from the codomain's multiply: a row lookup, or the engine's reduce of
the concatenation, so both kinds of codomain share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress, product
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
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
from .graphs import Graph, _hom_images, discrete, graph_from_json, graph_to_json
from .sets import FiniteSet, finite_set_from_json, make_set

Word = tuple[tuple[str, int], ...]
Cancellation = tuple[list[int], list[int], list[int], list[int]]  # see _RaagEngine.fresh_state

CLOSURE_CAP = 1000  # elements; the table then has at most 10^6 entries


# ---------------------------------------------------------------------------
# Words

def as_word(value: Iterable) -> Word:
    """Normalize a sequence of (generator, sign) pairs into a Word."""
    out = []
    for letter in value:
        try:
            gen, sign = letter
        except (TypeError, ValueError):
            raise MalformedInput(f"word letter {letter!r} is not a (generator, sign) pair")
        if not isinstance(gen, str) or sign not in (1, -1):
            raise MalformedInput(f"word letter {letter!r} is not a (generator, sign) pair")
        out.append((gen, sign))
    return tuple(out)


# ---------------------------------------------------------------------------
# Right-angled Artin groups

@dataclass(frozen=True)
class Raag:
    """The group presented by a graph: one generator per vertex, and the
    relations that adjacent generators commute.  An edgeless presentation
    graph gives a free group, a complete one a free abelian group."""

    presentation: Graph

    @property
    def generators(self) -> FiniteSet:
        return self.presentation.vertices

    @cached_property
    def engine(self) -> _RaagEngine:
        """The word machinery of the presentation, built once."""
        return _RaagEngine(self.presentation)

    def equal(self, a: Word, b: Word) -> bool:
        if a == b:
            return True
        engine = self.engine
        return engine.is_identity(engine.encode(a) + _inverse_codes(engine.encode(b)))

    def multiply(self, a: Word, b: Word) -> Word:
        """The product a.b in reduced normal form: the engine's reduce of the
        concatenation, as evaluate_word gives a product into this group."""
        engine = self.engine
        return engine.decode(engine.reduce(engine.encode(a) + engine.encode(b)))

    def commutes(self, a: Word, b: Word) -> bool:
        return self.commute_table((a, b))[0][1]

    def commute_table(self, elements: Sequence[Word]) -> list[list[bool]]:
        """Whether each two of elements commute: each is encoded once, and
        the engine tests the commutator u.v.u^-1.v^-1 once per unordered
        pair, mirrored; an element commutes with itself."""
        engine = self.engine
        codes = [engine.encode(x) for x in elements]
        inverses = [_inverse_codes(u) for u in codes]
        table = [[True] * len(codes) for _ in codes]
        for i, (u, u_inv) in enumerate(zip(codes, inverses)):
            for j in range(i + 1, len(codes)):
                table[i][j] = table[j][i] = engine.is_identity(u + codes[j] + u_inv + inverses[j])
        return table

    def validate_element(self, value) -> Word:
        return self.engine.decode(self.engine.encode(value))

    def element_to_json(self, value: Word) -> list[str]:
        return self.engine.write_tokens(self.engine.encode(value))

    def element_from_json(self, data) -> Word:
        if not isinstance(data, list):
            raise MalformedInput("an element of a presented group must be a word array")
        return self.engine.decode(self.engine.read_tokens(data))


class _RaagEngine:
    """Word machinery for one presentation graph, on integer letter codes,
    built once per Raag (Raag.engine).

    Generator i gets codes 2i (positive) and 2i+1 (inverse), so the inverse
    of a code is code^1 and its generator is code>>1.  blocking[i] holds i
    and its non-neighbours: the generators a letter of i never moves past.
    The oracles read neighbours instead; the Tits oracle's noncommuting
    lists, derived from it, are built on their first read, since reducing a
    word never needs them.  token_table, also built on its first read, maps
    word tokens to codes and back: words enter through read_tokens or
    encode, the two places their letters are checked, and leave through
    write_tokens or decode.
    """

    def __init__(self, graph: Graph):
        self.labels = graph.vertices.labels
        self.positions = graph.vertices.positions
        self.neighbours = graph.neighbours
        n = len(self.labels)
        self.blocking = [tuple([h for h in range(n) if h not in adj]) for adj in self.neighbours]

    @cached_property
    def noncommuting(self) -> list[list[int]]:
        """For each code c, the codes it does not commute with: its twin c^1,
        then both codes of each other generator not adjacent to c's."""
        n = len(self.neighbours)
        others = [[h for h in range(n) if h != g and h not in self.neighbours[g]] for g in range(n)]
        return [[c ^ 1] + [t for h in others[c >> 1] for t in (2 * h, 2 * h + 1)] for c in range(2 * n)]

    @cached_property
    def token_table(self) -> tuple[dict[str, int], list[str | None]]:
        """Each word token's code, and each code's token: "x" for 2i, "-x"
        for 2i+1.  As "-x" is x's inverse and "" and "-" are no tokens, the
        positive letter of a label that is empty or starts with "-", and the
        inverse of "", have none (None)."""
        codes: dict[str, int] = {}
        tokens: list[str | None] = []
        for i, label in enumerate(self.labels):
            positive = label if label[:1] not in ("", "-") else None
            inverse = "-" + label if label else None
            for code, token in ((2 * i, positive), (2 * i + 1, inverse)):
                if token is not None:
                    codes[token] = code
                tokens.append(token)
        return codes, tokens

    def read_tokens(self, tokens: Sequence) -> list[int]:
        """Letter codes of word tokens, one lookup each.  A word with a token
        that names no letter is refused: malformed at its first token that
        is no string or is "" or "-", else by the generator its first token
        outside the table names, one leading "-" (an inverse) dropped."""
        codes = self.token_table[0]
        try:
            return list(map(codes.__getitem__, tokens))
        except (KeyError, TypeError):  # TypeError: an unhashable token
            pass
        for token in tokens:
            if not isinstance(token, str) or token in ("", "-"):
                raise MalformedInput(f"bad word token {token!r}")
        unknown = next(token for token in tokens if token not in codes)
        raise UnknownGenerator(f"{unknown.removeprefix('-')!r} is not a generator of this group")

    def write_tokens(self, enc: Sequence[int]) -> list[str]:
        """Word tokens of letter codes; a letter no token names is refused,
        so every word written reads back as itself."""
        tokens = self.token_table[1]
        out = list(map(tokens.__getitem__, enc))
        if None in out:
            c = enc[out.index(None)]
            sign = "inverse" if c & 1 else "positive"
            raise MalformedInput(f"no word token names the {sign} letter of generator {self.labels[c >> 1]!r}")
        return out

    def encode(self, w: Iterable) -> tuple[int, ...]:
        enc = []
        for gen, sign in as_word(w):
            i = self.positions.get(gen)
            if i is None:
                raise UnknownGenerator(f"{gen!r} is not a generator of this group")
            enc.append(2 * i + (0 if sign > 0 else 1))
        return tuple(enc)

    def decode(self, enc: Sequence[int]) -> Word:
        return tuple((self.labels[c >> 1], 1 if c % 2 == 0 else -1) for c in enc)

    def fresh_state(self) -> Cancellation:
        """The cancellation state of the empty word: (kept, below, top,
        cancelled).  kept holds every pushed letter that cancelled nothing,
        marked -1 in place once a later letter cancels it; the others are
        live.  top[g] is the position of g's last live letter, below[i] that
        of the live letter of the same generator under position i, -1 for
        none.  cancelled logs the position each cancellation killed, the one
        thing undo cannot read back from the rest; as each cancellation kills
        one live letter, the live letters number len(kept) - len(cancelled)."""
        return [], [], [-1] * len(self.labels), []

    def push(self, state: Cancellation, letters: Iterable[int]) -> None:
        """Fold letters into state, left to right, in O(k) each over k
        generators (Wrathall 1988): x cancels the last live letter of its
        generator when that is x^-1 and no blocking generator has a live
        letter after it; otherwise x is kept."""
        kept, below, top, cancelled = state
        blocking = self.blocking
        for c in letters:
            g = c >> 1
            p = top[g]
            if p >= 0 and kept[p] == c ^ 1:
                for h in blocking[g]:
                    if top[h] > p:
                        break
                else:
                    kept[p] = -1
                    top[g] = below[p]
                    cancelled.append(p)
                    continue
            below.append(p)
            top[g] = len(kept)
            kept.append(c)

    def undo(self, state: Cancellation, letters: Sequence[int]) -> None:
        """Take back the pushes of letters, the last letters pushed, so that
        state is exactly what it was before them.  A pushed x was kept iff
        its generator's top is the last position: a kept x becomes that top,
        and a cancelling x moves it below the letter it killed."""
        kept, below, top, cancelled = state
        for c in reversed(letters):
            g = c >> 1
            if top[g] == len(kept) - 1:
                kept.pop()
                top[g] = below.pop()
            else:
                p = cancelled.pop()
                kept[p] = c ^ 1
                top[g] = p

    def cancel_fixpoint(self, enc: Sequence[int]) -> list[int]:
        """A cancellation-free word for the same element in one left-to-right
        pass, O(n*k) for n letters over k generators: the live letters of
        enc pushed into a fresh state."""
        state = self.fresh_state()
        self.push(state, enc)
        return [c for c in state[0] if c >= 0]

    def is_identity(self, enc: Sequence[int]) -> bool:
        """Whether enc is trivial: whether its letters, pushed into a fresh
        state, leave none live (see fresh_state)."""
        state = self.fresh_state()
        self.push(state, enc)
        return len(state[0]) == len(state[3])

    def reduce(self, enc: Sequence[int]) -> list[int]:
        return self.lex_normal(self.cancel_fixpoint(enc))

    def lex_normal(self, reduced: Sequence[int]) -> list[int]:
        """Lexicographically least shuffle of a word (reduce passes it a
        cancellation-free one), letters ordered by code: generator order is
        vertex storage order, a positive letter sorting before its inverse.

        Each letter a goes into out, the least shuffle of the letters before
        it.  A back-scan crosses the longest suffix S of out whose letters all
        commute with a (a's own generator and its non-neighbours block), and
        a goes just before the first letter of S greater than a, or last if
        there is none; moving a over letters it commutes with keeps the
        class.  A word is least in its class iff it has no factor b.u.c with
        c < b and c commuting with every letter of b.u (Anisimov-Knuth 1979),
        and the new out has none: with c = a, b.u would lie in S before a,
        where no letter exceeds a; with b = a, u.c would lie in S after a,
        and the letter just after a, greater than a and so not c, would
        start such a factor in the old out; any other one, with or without a
        inside u, was one of the old out.

        A back-scan can cross all of out, which makes plain insertion
        quadratic, so its steps are charged to a budget of Kahn's own work,
        the blocking generators summed over the letters; a scan that
        overdraws it hands the whole word to _kahn_normal.  The worst case
        stays O(n*k + n log n) for n letters over k generators, while a word
        whose letters seldom commute with the ones just before them costs
        O(n)."""
        neighbours = self.neighbours
        weight = [len(b) for b in self.blocking for _ in (0, 1)]
        budget = sum(map(weight.__getitem__, reduced))
        out: list[int] = []
        append = out.append
        last = -2  # out's last letter; the generator -1 commutes with none
        for a in reduced:
            commuting = neighbours[a >> 1]
            if last >> 1 not in commuting:
                append(a)
                last = a
                continue
            end = len(out)
            i = end - 1  # past last, which commutes with a
            p = i if last > a else end
            while i:
                b = out[i - 1]
                if b >> 1 not in commuting:
                    break
                i -= 1
                if b > a:
                    p = i
            budget -= end - i
            if budget < 0:
                return self._kahn_normal(reduced)
            if p == end:
                append(a)
                last = a
            else:
                out.insert(p, a)
        return out

    def _kahn_normal(self, reduced: Sequence[int]) -> list[int]:
        """lex_normal by Kahn's algorithm with a min-heap, in O(n*k + n log n),
        on the DAG linking each letter to the next letter of each blocking
        generator.  Emitting a letter releases the first unemitted letters of
        its blocking generators, so only in-degrees are stored."""
        blocking = self.blocking
        waiting = [0] * len(reduced)
        next_same = [-1] * len(reduced)
        first = [-1] * len(self.labels)
        for i in range(len(reduced) - 1, -1, -1):
            g = reduced[i] >> 1
            for h in blocking[g]:
                j = first[h]
                if j >= 0:
                    waiting[j] += 1
            next_same[i] = first[g]
            first[g] = i
        ready = [reduced[i] for i in first if i >= 0 and not waiting[i]]
        heapify(ready)
        out: list[int] = []
        while ready:
            c = heappop(ready)
            out.append(c)
            g = c >> 1
            first[g] = next_same[first[g]]
            for h in blocking[g]:
                j = first[h]
                if j >= 0:
                    waiting[j] -= 1
                    if not waiting[j]:
                        heappush(ready, reduced[j])
        return out

    def oracle_is_identity(self, enc: Sequence[int]) -> bool:
        """Identity check in the Tits representation, O(n*k) on exact integers.
        Letter c is the product of reflections c and c^1 in a graph product of
        infinite dihedral groups, a right-angled Coxeter group containing the
        RAAG: reflections commute iff their generators are adjacent, so twins
        never do.  Reflection s moves f, in the open fundamental chamber, by
        f[t] -= 2*B(s,t)*f[s], B being 1 on the diagonal, -1 between
        non-commuting reflections and 0 between commuting ones.  The chamber
        action is simply transitive (Bourbaki, ch. V 4): the word is trivial
        iff f comes back.  The form reads the graph only through
        noncommuting, each reflection's list of the others it does not
        commute with, so a reflection moves just the entries where B is
        nonzero; it never reads blocking."""
        noncommuting = self.noncommuting
        f = [1] * len(noncommuting)
        for c in enc:
            for s in (c, c ^ 1):
                fs = f[s]
                twice = 2 * fs
                for t in noncommuting[s]:
                    f[t] += twice
                f[s] = -fs  # B(s,s) = 1
        return f.count(1) == len(f)

    def oracle_identity_words(self, max_len: int) -> list[set[tuple[int, ...]]]:
        """Every identity word of each length 0..max_len, by a rewriting read
        upward: a word of length n is trivial iff a swap-equivalent word has
        an adjacent inverse pair whose removal leaves a trivial word.  So
        length n inserts an inverse pair at every position of every identity
        word of length n-2, then closes the result under swaps of adjacent
        commuting letters."""
        neighbours = self.neighbours
        letters = range(2 * len(neighbours))
        words: list[set[tuple[int, ...]]] = [{()}]
        for n in range(1, max_len + 1):
            found: set[tuple[int, ...]] = set()
            stack = []
            for w in words[n - 2] if n >= 2 else ():
                for i in range(n - 1):
                    for c in letters:
                        v = w[:i] + (c, c ^ 1) + w[i:]
                        if v not in found:
                            found.add(v)
                            stack.append(v)
            while stack:
                u = stack.pop()
                for i in range(n - 1):
                    a, b = u[i], u[i + 1]
                    if b >> 1 in neighbours[a >> 1]:
                        v = u[:i] + (b, a) + u[i + 2:]
                        if v not in found:
                            found.add(v)
                            stack.append(v)
            words.append(found)
        return words


def _inverse_codes(enc: Sequence[int]) -> tuple[int, ...]:
    return tuple(c ^ 1 for c in reversed(enc))


def raag_reduce(raag: Raag, w: Iterable) -> Word:
    """Cancellation-free canonical representative of the same element."""
    engine = raag.engine
    return engine.decode(engine.reduce(engine.encode(w)))


def raag_is_identity(raag: Raag, w: Iterable) -> bool:
    return raag.engine.is_identity(raag.engine.encode(w))


# ---------------------------------------------------------------------------
# Finite groups

@dataclass(frozen=True, eq=True)
class FiniteGroup:
    """A validated finite group.  rows[i][j] is the index of the product of
    the i-th and j-th elements, in storage order; elements.positions maps
    each label to its index.  Elements are labels at the interface."""

    elements: FiniteSet
    rows: list[list[int]]
    identity: str
    inverse: dict[str, str]

    __hash__ = None  # type: ignore[assignment]

    def multiply(self, a: str, b: str) -> str:
        return self.elements.labels[self.rows[self.elements.positions[a]][self.elements.positions[b]]]

    def invert(self, a: str) -> str:
        return self.inverse[a]

    def equal(self, a: str, b: str) -> bool:
        return a == b

    def commutes(self, a: str, b: str) -> bool:
        return self.commute_table((a, b))[0][1]

    def commute_table(self, elements: Sequence[str]) -> list[list[bool]]:
        """Whether each two of elements commute, read from the rows."""
        rows, positions = self.rows, self.elements.positions
        indices = [positions[x] for x in elements]
        return [[rows[i][j] == rows[j][i] for j in indices] for i in indices]

    @cached_property
    def commuting(self) -> list[list[int]]:
        """For each element index, the ascending indices of the elements that
        commute with it, itself included: commute_table of every element,
        read as index lists, built once."""
        return [list(compress(range(len(row)), row)) for row in self.commute_table(self.elements.labels)]

    def validate_element(self, value) -> str:
        if value not in self.elements:
            raise UnknownElement(f"{value!r} is not an element of this group")
        return value

    def element_to_json(self, value: str) -> str:
        return value

    def element_from_json(self, data) -> str:
        return self.validate_element(data)


GroupHandle = Union[Raag, FiniteGroup]


def finite_group_from_table(elements: FiniteSet, table: Sequence[Sequence[str]]) -> FiniteGroup:
    """Build and fully validate a finite group from its Cayley table, a
    square array of rows of labels in element order.  The table is read
    into rows of element indices, and every check runs on those:
    associativity by Light's test in O(n^2 * |S|) for a greedy generating
    set S, which has at most log2(n) + 1 elements when the table is a
    group; then the identity, which is searched for, and inverses in O(n^2).
    """
    n = len(elements)
    square = isinstance(table, (list, tuple)) and len(table) == n
    if not (square and all(isinstance(row, (list, tuple)) and len(row) == n for row in table)):
        raise MalformedInput("table must be square, one array row per element")
    labels, positions = elements.labels, elements.positions
    rows: list[list[int]] = []
    for a, source in zip(labels, table):
        try:
            rows.append([positions[value] for value in source])
        except (KeyError, TypeError):
            b = next(b for b, value in zip(labels, source) if value not in elements)
            raise UnknownElement(f"table entry for ({a!r}, {b!r}) is not an element") from None
    return _group_from_rows(elements, rows)


def _group_from_rows(elements: FiniteSet, rows: list[list[int]]) -> FiniteGroup:
    """Validate a table of element indices and wrap it: associativity, then
    the two-sided identity, which a magma has at most one of, then inverses."""
    labels = elements.labels
    _check_associative(labels, rows)
    everything = list(range(len(rows)))
    for e in everything:
        if rows[e] == everything and all(row[e] == x for x, row in enumerate(rows)):
            break
    else:
        raise NoIdentity("the table has no two-sided identity")
    inverse: dict[str, str] = {}
    for a, row in zip(labels, rows):
        # In a finite monoid a right inverse is two-sided and unique.
        if e not in row:
            raise NoInverse(f"{a!r} has no two-sided inverse")
        inverse[a] = labels[row.index(e)]
    return FiniteGroup(elements, rows, labels[e], inverse)


def _magma_generators(rows: list[list[int]]) -> list[int]:
    """A greedy generating set: each element, in storage order, that right
    multiplication by the earlier choices has not reached from them joins
    them.  O(n * |S|): an element met before a generator joins is
    multiplied by that generator once, a later one by all of them once."""
    gens: list[int] = []
    reached = [False] * len(rows)
    found: list[int] = []
    for s in range(len(rows)):
        if reached[s]:
            continue
        gens.append(s)
        reached[s] = True
        fresh = [s]
        for x in found:
            y = rows[x][s]
            if not reached[y]:
                reached[y] = True
                fresh.append(y)
        while fresh:
            x = fresh.pop()
            found.append(x)
            row = rows[x]
            for g in gens:
                y = row[g]
                if not reached[y]:
                    reached[y] = True
                    fresh.append(y)
    return gens


def _check_associative(labels: tuple[str, ...], rows: list[list[int]]) -> None:
    """Light's test (Clifford-Preston 1961, 1.2): (x*g)*y == x*(g*y) for all
    x, y and every g of a generating set.  Exact for any finite magma: the
    g passing it form a submagma, so one containing generators is all of it."""
    for g in _magma_generators(rows):
        row_g = rows[g]
        for x, row_x in enumerate(rows):
            left = rows[row_x[g]]
            right = [row_x[z] for z in row_g]
            if left != right:
                y = next(y for y in range(len(rows)) if left[y] != right[y])
                a, b, c = labels[x], labels[g], labels[y]
                raise NotAssociative(f"({a!r}*{b!r})*{c!r} != {a!r}*({b!r}*{c!r})")


def _permutation_label(perm: tuple[int, ...]) -> str:
    if len(perm) <= 9:
        return "".join(str(i) for i in perm)
    return ",".join(str(i) for i in perm)


def finite_group_from_permutations(
    degree: int,
    generators: Iterable[Sequence[int]],
) -> FiniteGroup:
    """Close a set of permutations of {1..degree} under composition.

    Elements are named by one-line notation (the sequence of images), in
    breadth-first order from the identity.  Composition is
    (p * q)(i) = p(q(i)): apply q first.  Each element x other than the
    identity is recorded as parent(x) * g for the generator g that found
    it, so the product table follows from the closure's own edges,
    a * x = (a * parent(x)) * g: n * |gens| compositions of permutations
    and n^2 integer lookups.

    Raises OrderCapExceeded for a degree or a closure above CLOSURE_CAP.
    """
    if type(degree) is not int or degree < 0:
        raise MalformedInput(f"a permutation degree must be a non-negative integer, not {degree!r}")
    # at most CLOSURE_CAP elements of at most CLOSURE_CAP points each: the
    # closure's own permutations stay within the table's 10^6 entries
    if degree > CLOSURE_CAP:
        raise OrderCapExceeded(f"degree {degree} exceeds the cap of {CLOSURE_CAP} points")
    points = list(range(1, degree + 1))
    gens: list[tuple[int, ...]] = []
    for g in generators:
        if (
            not isinstance(g, (list, tuple))
            or not all(type(i) is int for i in g)
            or sorted(g) != points
        ):
            raise NotAPermutation(f"{g!r} is not a permutation of 1..{degree}")
        gens.append(tuple(g))

    ident = tuple(points)
    found = [ident]
    index = {ident: 0}
    steps: list[tuple[int, int]] = []  # (parent, generator) of found[1:]
    right: list[list[int]] = []  # right[x][j]: index of found[x] * gens[j]
    for x, p in enumerate(found):  # found grows in breadth-first order
        row = []
        for j, g in enumerate(gens):
            q = tuple(p[i - 1] for i in g)
            y = index.get(q)
            if y is None:
                if len(found) >= CLOSURE_CAP:
                    raise OrderCapExceeded(f"closure exceeded the cap of {CLOSURE_CAP} elements")
                y = index[q] = len(found)
                found.append(q)
                steps.append((x, j))
            row.append(y)
        right.append(row)

    rows = []
    for a in range(len(found)):
        row = [a]
        for px, j in steps:
            row.append(right[row[px]][j])
        rows.append(row)
    elements = make_set(_permutation_label(p) for p in found)
    return _group_from_rows(elements, rows)


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def cyclic_group(n: int) -> FiniteGroup:
    """Cyclic group of order n with elements e, g, g2, ..."""
    if n < 1:
        raise MalformedInput("a cyclic group needs order at least 1")
    labels = ["e"] + ["g" if k == 1 else f"g{k}" for k in range(1, n)]
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _group_from_rows(make_set(labels), rows)


def klein_four_group() -> FiniteGroup:
    """The direct product of two copies of the order-2 cyclic group."""
    rows = [[i ^ j for j in range(4)] for i in range(4)]
    return _group_from_rows(make_set(["e", "a", "b", "ab"]), rows)


def symmetric_group_3() -> FiniteGroup:
    return finite_group_from_permutations(3, [(2, 1, 3), (2, 3, 1)])


def commutation_graph(h: FiniteGroup) -> Graph:
    """Graph on the elements of h, distinct vertices adjacent iff they
    commute, read from the rows apart from commute_table for ac-bijection."""
    labels, rows = h.elements.labels, h.rows
    edges = tuple(
        (labels[i], labels[j])
        for i, row in enumerate(rows) for j in range(i + 1, len(rows)) if row[j] == rows[j][i]
    )
    return Graph(h.elements, edges)


# ---------------------------------------------------------------------------
# Group homomorphisms

@dataclass(frozen=True, eq=False)
class GroupHom:
    """A homomorphism, given by its images on the domain's generators: the
    vertices of a presented group, or every element of a finite group, read
    as a quotient of the free group on its elements."""

    dom: GroupHandle
    cod: GroupHandle
    images: dict[str, object]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupHom):
            return NotImplemented
        if self.dom != other.dom or self.cod != other.cod:
            return False
        mine, theirs = self.images, other.images
        # equal words are equal elements, so one dict comparison settles most
        return mine == theirs or (
            mine.keys() == theirs.keys() and all(self.cod.equal(mine[k], theirs[k]) for k in mine)
        )

    @cached_property
    def letter_values(self) -> dict:
        """The value of each one-letter word of a presented domain that
        apply_hom has evaluated, keyed by the word as it was given: at most
        two per generator, built up on reads."""
        return {}


def apply_hom(f: GroupHom, x):
    """Image of an element of f's domain.  Out of a presented group a
    one-letter word is evaluated once and its value kept on f
    (letter_values); longer words, and words that are unhashable, such as
    a list, go through evaluate_word on every call, and so does every word
    that raises."""
    if isinstance(f.dom, Raag):
        values = f.letter_values
        try:
            return values[x]
        except (KeyError, TypeError):  # TypeError: an unhashable word
            pass
        value = evaluate_word(f.images, x, f.cod)
        # only a word that is its own normal letter is kept, so the keys
        # are at most the 2k letters of k generators
        if type(x) is tuple and len(x) == 1 and x == as_word(x):
            values[x] = value
        return value
    if f.dom.validate_element(x) not in f.images:
        raise MissingImage(f"no image given for generator {x!r}")
    return f.images[x]


def evaluate_word(images: Mapping[str, object], w: Iterable, h: GroupHandle):
    """Product in h of the images of a word's letters, signs applied.  Into
    a presented group the signed images are concatenated and reduced once."""
    letters = []
    for gen, sign in as_word(w):
        if gen not in images:
            raise UnknownGenerator(f"no image given for generator {gen!r}")
        letters.append((images[gen], sign))
    if isinstance(h, Raag):
        engine = h.engine
        enc: list[int] = []
        for x, sign in letters:
            codes = engine.encode(x)
            enc.extend(codes if sign > 0 else _inverse_codes(codes))
        return engine.decode(engine.reduce(enc))
    acc = h.identity
    try:
        for x, sign in letters:
            acc = h.multiply(acc, x if sign > 0 else h.invert(x))
    except KeyError as missing:  # acc is an element, so the missing key is an image
        raise UnknownElement(f"{missing.args[0]!r} is not an element of this group") from None
    return acc


def hom_check(f: GroupHom) -> bool:
    """Whether f respects the domain's relations.

    Presented domain: images of adjacent generators must commute (an
    edgeless presentation imposes nothing).  Finite domain: f(xg) = f(x)f(g)
    for every x and each g of a greedy generating set S, never empty, in
    n * |S| checks, each one product in the codomain (its multiply);
    induction on y as a product of S gives f(xy) = f(x)f(y).
    An image that is absent raises MissingImage, and one that is no element
    of the codomain raises what the codomain's validate_element raises.
    """
    dom, images, validate = f.dom, f.images, f.cod.validate_element
    presented = isinstance(dom, Raag)
    for x in dom.generators if presented else dom.elements:
        if x not in images:
            raise MissingImage(f"no image given for generator {x!r}")
        validate(images[x])
    if presented:
        return all(f.cod.commutes(images[u], images[v]) for u, v in dom.presentation.edges)
    labels, cod = dom.elements.labels, f.cod
    gens = [(g, images[labels[g]]) for g in _magma_generators(dom.rows)]
    return all(
        cod.equal(images[labels[row[g]]], cod.multiply(images[x], image))
        for x, row in zip(labels, dom.rows)
        for g, image in gens
    )


def identity_group_hom(h: GroupHandle) -> GroupHom:
    if isinstance(h, Raag):
        return GroupHom(h, h, {v: ((v, 1),) for v in h.generators})
    return GroupHom(h, h, {x: x for x in h.elements})


def compose_group_homs(f: GroupHom, g: GroupHom) -> GroupHom:
    """The composite g after f."""
    if f.cod != g.dom:
        raise InvalidHom("codomain of the first hom differs from domain of the second")
    return GroupHom(f.dom, g.cod, {x: apply_hom(g, y) for x, y in f.images.items()})


def _raag_hom_images(raag: Raag, h: FiniteGroup) -> list[tuple[int, ...]]:
    """Every homomorphism from a presented group to a finite group as the
    tuple of h-indices of its generator images: the search of
    ``graphs._hom_images`` over h's commuting lists, never a graph."""
    return _hom_images(raag.presentation, h.commuting)


def enumerate_homs_raag_to_finite(raag: Raag, h: FiniteGroup) -> list[GroupHom]:
    """All homomorphisms from a presented group to a finite group, as
    generator assignments with adjacent images commuting, in storage order:
    the homs of ``_raag_hom_images`` with labels attached.  Raises
    HomCapExceeded where the search would pass graphs.HOM_CAP."""
    gens, labels = raag.generators.labels, h.elements.labels
    return [
        GroupHom(raag, h, {v: labels[c] for v, c in zip(gens, images)})
        for images in _raag_hom_images(raag, h)
    ]


def enumerate_homs_finite_to_finite(dom: FiniteGroup, cod: FiniteGroup) -> list[GroupHom]:
    """All homomorphisms between two finite groups, one per assignment of
    images to a greedy generating set S of the domain, in lexicographic
    storage order.  An assignment extends along a breadth-first walk of the
    domain from the identity by right multiplication with S; every step
    x -> x*g that meets an element already reached must agree, f(x*g) =
    f(x)*f(g), and agreement on all of them makes f a homomorphism.
    O(|cod|^|S| * |dom| * |S|)."""
    rows, cod_rows = dom.rows, cod.rows
    e, cod_e = dom.elements.positions[dom.identity], cod.elements.positions[cod.identity]
    gens = [g for g in _magma_generators(rows) if g != e]
    labels, cod_labels = dom.elements.labels, cod.elements.labels
    out: list[GroupHom] = []
    for images in product(range(len(cod_rows)), repeat=len(gens)):
        image = [-1] * len(rows)
        image[e] = cod_e
        reached = [e]
        for x in reached:  # grows in breadth-first order
            row, cod_row = rows[x], cod_rows[image[x]]
            for g, c in zip(gens, images):
                y, z = row[g], cod_row[c]
                if image[y] < 0:
                    image[y] = z
                    reached.append(y)
                elif image[y] != z:
                    break
            else:
                continue
            break
        else:
            out.append(GroupHom(dom, cod, {a: cod_labels[c] for a, c in zip(labels, image)}))
    return out


# ---------------------------------------------------------------------------
# JSON forms

def group_to_json(h: GroupHandle) -> dict:
    if isinstance(h, Raag):
        return {"type": "raag", "presentation": graph_to_json(h.presentation)}
    labels = h.elements.labels
    return {
        "type": "cayley",
        "elements": list(labels),
        "table": [[labels[c] for c in row] for row in h.rows],
    }


def group_from_json(data: object) -> GroupHandle:
    """A presented ("raag", "free") or finite ("cayley", "perm") group; a
    "perm" group's degree and closure are each capped at CLOSURE_CAP."""
    if not isinstance(data, dict) or "type" not in data:
        raise MalformedInput('a group must be an object with a "type" field')
    kind = data["type"]
    if kind == "raag":
        if "presentation" not in data:
            raise MalformedInput('a "raag" group needs a "presentation" graph')
        return Raag(graph_from_json(data["presentation"]))
    if kind == "free":
        if "generators" not in data:
            raise MalformedInput('a "free" group needs a "generators" array')
        return Raag(discrete(finite_set_from_json(data["generators"])))
    if kind == "cayley":
        if "elements" not in data or "table" not in data:
            raise MalformedInput('a "cayley" group needs "elements" and "table"')
        return finite_group_from_table(finite_set_from_json(data["elements"]), data["table"])
    if kind == "perm":
        if "degree" not in data or "generators" not in data:
            raise MalformedInput('a "perm" group needs "degree" and "generators"')
        degree, gens = data["degree"], data["generators"]
        if not isinstance(degree, int) or not isinstance(gens, list):
            raise MalformedInput('"degree" must be an integer and "generators" an array')
        return finite_group_from_permutations(degree, gens)
    raise MalformedInput(f"unknown group type {kind!r}")
