import time
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commagraph import (
    discrete,
    enumerate_graph_homs,
    indiscrete,
    is_graph_hom,
    make_graph,
    make_graph_hom,
    make_map,
    make_set,
)
from commagraph.errors import DomainMismatch, LoopEdge, UnknownVertex
from commagraph.graphs import _hom_images, _level_sizes, graph_from_json, graph_to_json
from commagraph.groups import (
    Raag,
    commutation_graph,
    enumerate_homs_raag_to_finite,
    finite_group_from_permutations,
)
from commagraph.sets import SetMap, compose_maps, identity_map
from commagraph.verify import default_ac_groups, graphs_up_to

from .strategies import LABELS, graphs


def edge_graph(u="a", v="b"):
    return make_graph(make_set([u, v]), [(u, v)])


def test_make_graph_basic():
    g = edge_graph()
    assert g.edges == (("a", "b"),)
    assert g.has_edge("a", "b") and g.has_edge("b", "a")


def test_make_graph_rejects_loop():
    with pytest.raises(LoopEdge):
        make_graph(make_set(["a"]), [("a", "a")])


def test_make_graph_rejects_unknown_vertex():
    with pytest.raises(UnknownVertex):
        make_graph(make_set(["a"]), [("a", "z")])


def test_make_graph_normalizes_symmetric_duplicates():
    g = make_graph(make_set(["a", "b"]), [("a", "b"), ("b", "a")])
    assert g.edges == (("a", "b"),)


@given(graphs(max_vertices=5))
def test_make_graph_invariants(g):
    index = {v: i for i, v in enumerate(g.vertices)}
    for u, v in g.edges:
        assert u != v
        assert index[u] < index[v]
        assert u in g.vertices and v in g.vertices
    assert len(set(g.edges)) == len(g.edges)


def test_has_edge_and_neighbours_agree_with_edges():
    for g in graphs_up_to(4):
        for u, v in product(g.vertices.labels, repeat=2):
            assert g.has_edge(u, v) == ((u, v) in g.edges or (v, u) in g.edges)
        for i, adjacent in enumerate(g.neighbours):
            assert i not in adjacent
            assert all(i in g.neighbours[j] for j in adjacent)


def test_hom_collapse_is_allowed():
    cd = edge_graph("c", "d")
    f = make_map(edge_graph().vertices, cd.vertices, {"a": "c", "b": "c"})
    assert is_graph_hom(edge_graph(), cd, f)


def test_hom_edge_to_discrete_fails():
    cod = discrete(make_set(["c", "d"]))
    f = make_map(edge_graph().vertices, cod.vertices, {"a": "c", "b": "d"})
    assert not is_graph_hom(edge_graph(), cod, f)


def test_hom_identity():
    for g in graphs_up_to(3):
        assert is_graph_hom(g, g, identity_map(g.vertices))


def test_hom_domain_mismatch():
    f = make_map(make_set(["x"]), make_set(["c"]), {"x": "c"})
    with pytest.raises(DomainMismatch):
        is_graph_hom(edge_graph(), discrete(make_set(["c"])), f)


def test_discrete_and_indiscrete_shapes():
    assert discrete(make_set(["a", "b"])).edges == ()
    assert discrete(make_set([])).edges == ()
    triangle = indiscrete(make_set(["a", "b", "c"]))
    assert len(triangle.edges) == 3
    assert indiscrete(make_set(["a"])).edges == ()


def test_vertex_functor_laws():
    # a graph hom is its vertex map, so identities and composites are the
    # set maps', and each of them is again a graph hom
    g = edge_graph()
    h = make_graph_hom(g, indiscrete(make_set(["c", "d", "e"])), {"a": "c", "b": "d"})
    k = make_graph_hom(h.cod, discrete(make_set(["z"])), {"c": "z", "d": "z", "e": "z"})
    assert is_graph_hom(g, g, identity_map(g.vertices))
    assert compose_maps(identity_map(g.vertices), h.vmap) == h.vmap
    assert compose_maps(h.vmap, identity_map(h.cod.vertices)) == h.vmap
    assert is_graph_hom(g, k.cod, compose_maps(h.vmap, k.vmap))


def test_enumerate_edge_to_edge():
    homs = enumerate_graph_homs(edge_graph(), edge_graph("c", "d"))
    assert [f.vmap.mapping for f in homs] == [
        {"a": "c", "b": "c"},
        {"a": "c", "b": "d"},
        {"a": "d", "b": "c"},
        {"a": "d", "b": "d"},
    ]


def test_enumerate_edge_to_discrete():
    homs = enumerate_graph_homs(edge_graph(), discrete(make_set(["c", "d"])))
    assert [f.vmap.mapping for f in homs] == [{"a": "c", "b": "c"}, {"a": "d", "b": "d"}]


def test_enumerate_into_single_vertex():
    point = make_graph(make_set(["z"]), [])
    for g in graphs_up_to(3):
        assert len(enumerate_graph_homs(g, point)) == 1


def _brute_force_homs(g, h):
    if len(g.vertices) == 0:
        return [{}]
    out = []
    for images in product(h.vertices.labels, repeat=len(g.vertices)):
        mapping = dict(zip(g.vertices.labels, images))
        if is_graph_hom(g, h, SetMap(g.vertices, h.vertices, mapping)):
            out.append(mapping)
    return out


def test_enumeration_matches_brute_force_exhaustive():
    pool = list(graphs_up_to(3))
    pairs = [(g, h) for g in pool for h in pool]
    # the traffic of ac-bijection: graphs into commutation graphs of groups
    targets = [commutation_graph(k) for k in default_ac_groups()]
    pairs += [(g, h) for g in graphs_up_to(4) for h in targets]
    for g, h in pairs:
        assert [f.vmap.mapping for f in enumerate_graph_homs(g, h)] == _brute_force_homs(g, h)


def test_enumeration_into_large_commutation_graph_is_fast():
    # S5's commutation graph has 120 vertices and 360 edges; a scan of the
    # edge list per adjacency test took 1.4-2 s per count on a 2-core Xeon VM
    s5 = finite_group_from_permutations(5, [(2, 1, 3, 4, 5), (2, 3, 4, 5, 1)])
    target = commutation_graph(s5)
    labels = make_set(["a", "b", "c"])
    path = make_graph(labels, [("a", "b"), ("b", "c")])
    triangle = make_graph(labels, [("a", "b"), ("b", "c"), ("a", "c")])
    for g, expected in ((path, 19320), (triangle, 4680)):
        start = time.perf_counter()
        count = len(enumerate_graph_homs(g, target))
        assert time.perf_counter() - start < 1.0
        assert count == expected == len(enumerate_homs_raag_to_finite(Raag(g), s5))


@given(graphs(max_vertices=4), graphs(max_vertices=4))
def test_enumeration_matches_brute_force_sampled(g, h):
    assert [f.vmap.mapping for f in enumerate_graph_homs(g, h)] == _brute_force_homs(g, h)


def test_composition_of_homs_is_hom_exhaustive():
    pool = list(graphs_up_to(3))
    hom_table = {
        (i, j): enumerate_graph_homs(g, h)
        for i, g in enumerate(pool)
        for j, h in enumerate(pool)
    }
    for i in range(len(pool)):
        for j in range(len(pool)):
            for k in range(len(pool)):
                for f in hom_table[(i, j)]:
                    for g in hom_table[(j, k)]:
                        assert is_graph_hom(pool[i], pool[k], compose_maps(f.vmap, g.vmap))


def test_hom_count_from_discrete():
    for n in range(4):
        x = make_set(LABELS[:n])
        for g in graphs_up_to(3):
            assert len(enumerate_graph_homs(discrete(x), g)) == len(g.vertices) ** n


def test_hom_count_into_indiscrete():
    for n in range(4):
        x = make_set(LABELS[:n])
        for g in graphs_up_to(3):
            assert len(enumerate_graph_homs(g, indiscrete(x))) == n ** len(g.vertices)


def test_make_graph_hom_rejects_non_hom():
    from commagraph.errors import InvalidHom

    with pytest.raises(InvalidHom):
        make_graph_hom(edge_graph(), discrete(make_set(["c", "d"])), {"a": "c", "b": "d"})


@given(graphs(max_vertices=4))
def test_graph_json_round_trip(g):
    assert graph_from_json(graph_to_json(g)) == g


def _closed(h):
    return [sorted(adj | {i}) for i, adj in enumerate(h.neighbours)]


def _induced(g, k):
    """The subgraph of g induced on its first k vertices."""
    labels = g.vertices.labels[:k]
    return make_graph(make_set(labels), [(u, v) for u, v in g.edges if u in labels and v in labels])


def _path(n):
    labels = [f"p{i}" for i in range(n)]
    return make_graph(make_set(labels), list(zip(labels, labels[1:])))


def test_level_sizes_count_every_level_of_the_hom_search():
    # every prefix of a labelled graph on <= 5 vertices is one of them, so
    # each hom set is enumerated once and read by every graph it prefixes
    targets = [commutation_graph(h) for h in default_ac_groups()] + [
        make_graph(make_set(["x", "y", "z"]), [("x", "y")]),
        make_graph(make_set(["x", "y", "z"]), [("x", "y"), ("y", "z")]),
    ]
    pool = list(graphs_up_to(5))
    assert len(pool) == 1_100
    prefixes = {g: [_induced(g, k) for k in range(1, len(g.vertices) + 1)] for g in pool}
    for h in targets:
        closed = _closed(h)
        homs = {g: len(_hom_images(g, closed)) for g in pool}
        for g in pool:
            want = [homs[prefix] for prefix in prefixes[g]]
            assert list(_level_sizes(g, closed)) == want, (graph_to_json(g), graph_to_json(h))


def _path_homs(n, h):
    """Homs from the n-vertex path into h: the sum of the entries of
    (A + I)^(n - 1), A the adjacency matrix of h, as n - 1 products with the
    all-ones vector, over h's edge list alone."""
    index = {v: i for i, v in enumerate(h.vertices.labels)}
    walks = [1] * len(index)
    for _ in range(n - 1):
        step = list(walks)
        for u, v in h.edges:
            step[index[u]] += walks[index[v]]
            step[index[v]] += walks[index[u]]
        walks = step
    return sum(walks)


def test_level_sizes_match_the_closed_form_for_paths():
    s6 = finite_group_from_permutations(6, [(2, 1, 3, 4, 5, 6), (2, 3, 4, 5, 6, 1)])
    c_s6 = commutation_graph(s6)
    assert _path_homs(3, c_s6) == 648_720  # as many as the search enumerates
    assert list(_level_sizes(_path(10), _closed(c_s6)))[-1] == _path_homs(10, c_s6) == 26_342_125_474_406_400
    assert list(_level_sizes(_path(20), _closed(edge_graph())))[-1] == _path_homs(20, edge_graph()) == 2**20
