"""Finite simple graphs and their collapse-permitting homomorphisms.

A homomorphism may send an edge to an edge or collapse it to a single
vertex.  Together with the discrete and indiscrete constructions this gives
the adjoint triple discrete -| vertices -| indiscrete against finite sets.

Edges are canonicalized on construction: each pair is ordered by vertex
storage position and the edge list is sorted by those positions, so equal
graphs compare equal and serialize identically.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def has_edge(self, u: str, v: str) -> bool:
        i, j = self.vertices.index(u), self.vertices.index(v)
        if i > j:
            u, v = v, u
        return (u, v) in self.edges


@dataclass(frozen=True, eq=True)
class GraphHom:
    dom: Graph
    cod: Graph
    vmap: SetMap

    __hash__ = None  # type: ignore[assignment]

    def __call__(self, vertex: str) -> str:
        return self.vmap.mapping[vertex]


def make_graph(vertices: FiniteSet, edges: Iterable[Sequence[str]]) -> Graph:
    index = {v: i for i, v in enumerate(vertices)}
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


def enumerate_graph_homs(g: Graph, h: Graph) -> list[GraphHom]:
    """All homomorphisms g -> h, by depth-first search over vertex images.

    Vertices are assigned in storage order and candidate images are tried in
    storage order, so the output order is lexicographic and reproducible.
    """
    dom_vs = g.vertices.labels
    cod_vs = h.vertices.labels
    # Edges from each vertex back to already-assigned vertices, for pruning.
    earlier = {v: [] for v in dom_vs}
    pos = {v: i for i, v in enumerate(dom_vs)}
    for u, v in g.edges:
        if pos[u] > pos[v]:
            u, v = v, u
        earlier[v].append(u)

    out: list[GraphHom] = []
    assignment: dict[str, str] = {}

    def extend(i: int) -> None:
        if i == len(dom_vs):
            out.append(GraphHom(g, h, SetMap(g.vertices, h.vertices, dict(assignment))))
            return
        v = dom_vs[i]
        for image in cod_vs:
            ok = True
            for u in earlier[v]:
                fu = assignment[u]
                if fu != image and not h.has_edge(fu, image):
                    ok = False
                    break
            if ok:
                assignment[v] = image
                extend(i + 1)
                del assignment[v]

    extend(0)
    return out


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

