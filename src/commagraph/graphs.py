"""Finite simple graphs and their collapse-permitting homomorphisms.

A homomorphism may send an edge to an edge or collapse it to a single
vertex.  Together with the discrete and indiscrete constructions this gives
the adjoint triple discrete -| vertices -| indiscrete against finite sets.

Edges are canonicalized on construction: each pair is ordered by vertex
storage position and the edge list is sorted by those positions, so equal
graphs compare equal and serialize identically.  A graph builds its
neighbour sets of vertex positions once; edge tests, the word engine and
the one hom search (_hom_images: into a graph, or the group it presents
into a finite group, groups._raag_hom_images) all read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DomainMismatch, HomCapExceeded, InvalidHom, LoopEdge, MalformedInput, UnknownVertex
from .sets import FiniteSet, SetMap, finite_set_from_json, finite_set_to_json, make_map

HOM_CAP = 1_000_000  # partial homs one level of the hom search may hold


@dataclass(frozen=True)
class Graph:
    vertices: FiniteSet
    edges: tuple[tuple[str, str], ...]

    @cached_property
    def neighbours(self) -> list[set[int]]:
        """The positions adjacent to each vertex position, built once."""
        pos = self.vertices.positions
        out: list[set[int]] = [set() for _ in self.vertices]
        for u, v in self.edges:
            out[pos[u]].add(pos[v])
            out[pos[v]].add(pos[u])
        return out

    def has_edge(self, u: str, v: str) -> bool:
        return self.vertices.positions[v] in self.neighbours[self.vertices.positions[u]]


@dataclass(frozen=True, eq=True)
class GraphHom:
    dom: Graph
    cod: Graph
    vmap: SetMap

    __hash__ = None  # type: ignore[assignment]

    def __call__(self, vertex: str) -> str:
        return self.vmap.mapping[vertex]


def make_graph(vertices: FiniteSet, edges: Iterable[Sequence[str]]) -> Graph:
    index = vertices.positions
    canonical: set[tuple[str, str]] = set()
    for edge in edges:
        u, v = edge
        if u not in index:
            raise UnknownVertex(f"edge endpoint {u!r} is not a vertex")
        if v not in index:
            raise UnknownVertex(f"edge endpoint {v!r} is not a vertex")
        if u == v:
            raise LoopEdge(f"loop edge at {u!r} is not allowed")
        if index[u] > index[v]:
            u, v = v, u
        canonical.add((u, v))
    ordered = tuple(sorted(canonical, key=lambda e: (index[e[0]], index[e[1]])))
    return Graph(vertices, ordered)


def discrete(x: FiniteSet) -> Graph:
    return Graph(x, ())


def indiscrete(x: FiniteSet) -> Graph:
    labels = x.labels
    edges = tuple((labels[i], labels[j]) for i in range(len(labels)) for j in range(i + 1, len(labels)))
    return Graph(x, edges)


def is_graph_hom(dom: Graph, cod: Graph, vmap: SetMap) -> bool:
    """True iff every edge lands on an edge or collapses to one vertex."""
    if vmap.dom != dom.vertices or vmap.cod != cod.vertices:
        raise DomainMismatch("vertex map does not match the graphs' vertex sets")
    for u, v in dom.edges:
        fu, fv = vmap.mapping[u], vmap.mapping[v]
        if fu != fv and not cod.has_edge(fu, fv):
            return False
    return True


def make_graph_hom(dom: Graph, cod: Graph, assignment) -> GraphHom:
    vmap = make_map(dom.vertices, cod.vertices, assignment)
    if not is_graph_hom(dom, cod, vmap):
        raise InvalidHom("vertex map does not preserve adjacency")
    return GraphHom(dom, cod, vmap)


def _hom_images(g: Graph, closed: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Every map of g's vertices into range(len(closed)) that sends each
    edge to some i and some j in closed[i], as the tuple of its images, in
    lexicographic storage order; closed[i] is ascending, holds i, and holds
    j iff closed[j] holds i.  Built one vertex of g at a time, each level of
    partial tuples in one comprehension: a vertex's candidates are closed[]
    of its first earlier neighbour's image (every index if it has none),
    kept if the closed sets of its other earlier neighbours' images hold
    them.  A whole level is held, so a domain whose middle level is pruned
    hard peaks at that level.  While a level times len(closed) per vertex
    left passes HOM_CAP, _level_sizes counts the next one before any level
    is built, and HomCapExceeded names the first past HOM_CAP.
    """
    sizes, size, left = _level_sizes(g, closed), 1, len(g.vertices)
    while size * len(closed) ** left > HOM_CAP:
        size, left = next(sizes), left - 1
        if size > HOM_CAP:
            raise HomCapExceeded(f"the hom search would hold {size} partial homs, over the cap of {HOM_CAP}")
    closed_sets, everything = [set(c) for c in closed], range(len(closed))
    level: list[tuple[int, ...]] = [()]
    for j, adj in enumerate(g.neighbours):
        earlier = sorted(i for i in adj if i < j)
        if not earlier:
            level = [t + (c,) for t in level for c in everything]
        elif len(earlier) == 1:
            level = [t + (c,) for t in level for c in closed[t[earlier[0]]]]
        else:
            first, second, *rest = earlier
            level = [
                t + (c,) for t in level
                for others in [closed_sets[t[second]].intersection(*[closed_sets[t[u]] for u in rest])]
                for c in closed[t[first]] if c in others
            ]
    return level


def _level_sizes(g: Graph, closed: Sequence[Sequence[int]]) -> Iterable[int]:
    """The size of each level of ``_hom_images(g, closed)``, counted as
    H-colourings are along a path decomposition (Diaz, Serna and Thilikos
    2002): a state is the images of the placed vertices that still have a
    later neighbour, with how many partial homs agree there.  A level is
    summed before its states, at most that many, are built."""
    everything = set(range(len(closed)))
    last = [max(adj | {j}) for j, adj in enumerate(g.neighbours)]
    states = {(): 1}  # images of the placed vertices with a later neighbour -> partial homs
    for j, adj in enumerate(g.neighbours):
        frontier = [i for i in range(j) if last[i] >= j] + [j]  # a state's vertices, then j
        at = [frontier.index(i) for i in adj if i < j]
        yield sum(n * len(everything.intersection(*[closed[s[k]] for k in at])) for s, n in states.items())
        keep, grown = [k for k, i in enumerate(frontier) if last[i] > j], {}
        for s, n in states.items():
            for c in everything.intersection(*[closed[s[k]] for k in at]):
                t = s + (c,)
                key = tuple([t[k] for k in keep])
                grown[key] = grown.get(key, 0) + n
        states = grown


def _graph_hom_images(g: Graph, h: Graph) -> list[tuple[int, ...]]:
    """Every homomorphism g -> h as the tuple of h-indices of its vertex
    images: the search over h's closed neighbourhoods."""
    return _hom_images(g, [sorted(adj | {i}) for i, adj in enumerate(h.neighbours)])


def enumerate_graph_homs(g: Graph, h: Graph) -> list[GraphHom]:
    """All homomorphisms g -> h, in lexicographic storage order of their
    vertex images: the tuples of ``_graph_hom_images`` with labels attached.
    Candidate images come from neighbour lists built once per call, so the
    cost does not grow with the number of h's edges.  Raises HomCapExceeded
    where the search would pass HOM_CAP.
    """
    dom_vs, cod_vs = g.vertices.labels, h.vertices.labels
    return [
        GraphHom(g, h, SetMap(g.vertices, h.vertices, {v: cod_vs[c] for v, c in zip(dom_vs, images)}))
        for images in _graph_hom_images(g, h)
    ]


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": finite_set_to_json(g.vertices),
        "edges": [[u, v] for u, v in g.edges],
    }


def graph_from_json(data: object) -> Graph:
    if not isinstance(data, dict) or "vertices" not in data:
        raise MalformedInput('a graph must be an object with "vertices" and "edges"')
    vertices = finite_set_from_json(data["vertices"])
    edges = data.get("edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e) for e in edges
    ):
        raise MalformedInput('"edges" must be an array of two-element arrays of vertex labels')
    return make_graph(vertices, edges)

