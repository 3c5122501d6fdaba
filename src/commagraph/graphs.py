"""Finite simple graphs and their collapse-permitting homomorphisms.

A homomorphism may send an edge to an edge or collapse it to a single
vertex.  Together with the discrete and indiscrete constructions this gives
the adjoint triple discrete -| vertices -| indiscrete against finite sets.

Edges are canonicalized on construction: each pair is ordered by vertex
storage position and the edge list is sorted by those positions, so equal
graphs compare equal and serialize identically.  A graph builds its
neighbour sets of vertex positions once; edge tests, hom searches and the
word engine all read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DomainMismatch, InvalidHom, LoopEdge, MalformedInput, UnknownVertex
from .sets import (
    FiniteSet,
    SetMap,
    compose_maps,
    finite_set_from_json,
    finite_set_to_json,
    identity_map,
    make_map,
)


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


def identity_hom(g: Graph) -> GraphHom:
    return GraphHom(g, g, identity_map(g.vertices))


def compose_homs(f: GraphHom, g: GraphHom) -> GraphHom:
    if f.cod != g.dom:
        raise DomainMismatch("codomain of the first hom differs from domain of the second")
    return GraphHom(f.dom, g.cod, compose_maps(f.vmap, g.vmap))


def _graph_hom_images(g: Graph, h: Graph) -> list[tuple[int, ...]]:
    """Every homomorphism g -> h as the tuple of h-indices of its vertex
    images, by depth-first search in lexicographic storage order.

    Vertices of g are assigned in storage order, every vertex of h is tried
    as the image in storage order, and an image is kept when it lies in the
    closed neighbour set of each earlier neighbour's image.  Each closed set
    holds its own vertex, so a collapsed edge passes; a test costs the same
    however many edges h has.
    """
    earlier = [sorted(i for i in adj if i < j) for j, adj in enumerate(g.neighbours)]
    neighbours = [adj | {i} for i, adj in enumerate(h.neighbours)]
    images = range(len(neighbours))

    out: list[tuple[int, ...]] = []
    chosen = [0] * len(earlier)

    def extend(i: int) -> None:
        if i == len(chosen):
            out.append(tuple(chosen))
            return
        tests = [neighbours[chosen[u]] for u in earlier[i]]
        for c in images:
            for adjacent in tests:
                if c not in adjacent:
                    break
            else:
                chosen[i] = c
                extend(i + 1)

    extend(0)
    del extend  # the closure refers to itself; free the search's sets now
    return out


def enumerate_graph_homs(g: Graph, h: Graph) -> list[GraphHom]:
    """All homomorphisms g -> h, in lexicographic storage order of their
    vertex images: the homs of ``_graph_hom_images`` with labels attached.
    Testing one candidate image costs one set lookup per earlier neighbour,
    so its cost does not grow with the number of h's edges.
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

