import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from commagraph import (
    CommaMorphism,
    CommaObject,
    Raag,
    compose_comma,
    coreflect,
    cyclic_group,
    discrete,
    embed_graph,
    embed_graph_hom,
    embed_group,
    enumerate_graph_homs,
    enumerate_morphisms_from_embedded_graph,
    factor_through_coreflection,
    indiscrete,
    is_comma_morphism,
    klein_four_group,
    make_comma_object,
    make_graph,
    make_graph_hom,
    make_set,
    reflect_to_group,
    symmetric_group_3,
)
from commagraph.comma import _from_embedded, comma_morphism_to_json, comma_object_from_json, comma_object_to_json
from commagraph.errors import (
    MalformedInput,
    MissingImage,
    NotFactorable,
    NotFiniteTarget,
    NotInCodomain,
    NotTotal,
    ObjectMismatch,
    UnknownElement,
    UnknownGenerator,
)
from commagraph.groups import GroupHom, identity_group_hom
from commagraph.graphs import GraphHom
from commagraph.sets import SetMap, compose_maps, identity_map
from commagraph.verify import default_pool, graphs_up_to

from .strategies import graphs


def edge_graph():
    return make_graph(make_set(["a", "b"]), [("a", "b")])


def s3_witness():
    return make_comma_object(
        make_set(["x", "y"]), symmetric_group_3(), {"x": "213", "y": "231"}
    )


def abelian_witness():
    return make_comma_object(make_set(["x", "y"]), cyclic_group(4), {"x": "g", "y": "g2"})


def identity_morphism(w):
    """w's identity: the identity set map with the identity group hom."""
    return CommaMorphism(w, w, identity_map(w.gens), identity_group_hom(w.target))


def composite_hom(f, h):
    """The graph hom h after f: the composite of their vertex maps."""
    return GraphHom(f.dom, h.cod, compose_maps(f.vmap, h.vmap))


# ---------------------------------------------------------------------------
# objects and morphisms

def test_make_comma_object_finite_target():
    w = abelian_witness()
    assert w.images["x"] == "g" and w.images["y"] == "g2"


def test_make_comma_object_s3():
    w = make_comma_object(make_set(["x"]), symmetric_group_3(), {"x": "213"})
    assert w.images["x"] == "213"


def test_make_comma_object_missing_image():
    with pytest.raises(MissingImage):
        make_comma_object(make_set(["x"]), symmetric_group_3(), {})


def test_make_comma_object_unknown_element():
    with pytest.raises(UnknownElement):
        make_comma_object(make_set(["x"]), cyclic_group(2), {"x": "nope"})


def test_make_comma_object_extra_key():
    with pytest.raises(MalformedInput):
        make_comma_object(make_set(["x"]), cyclic_group(2), {"x": "g", "y": "g"})


def test_make_comma_object_raag_target_checks_letters():
    raag = Raag(edge_graph())
    w = make_comma_object(make_set(["x"]), raag, {"x": (("a", 1), ("b", 1))})
    assert w.images["x"] == (("a", 1), ("b", 1))
    with pytest.raises(UnknownGenerator):
        make_comma_object(make_set(["x"]), raag, {"x": (("z", 1),)})


def test_identity_is_comma_morphism():
    for w in (abelian_witness(), s3_witness(), embed_graph(edge_graph())):
        assert is_comma_morphism(identity_morphism(w))


def test_squaring_square_commutes():
    c4 = cyclic_group(4)
    src = make_comma_object(make_set(["x"]), c4, {"x": "g"})
    dst = make_comma_object(make_set(["x"]), c4, {"x": "g2"})
    squaring = GroupHom(c4, c4, {"e": "e", "g": "g2", "g2": "e", "g3": "g2"})
    assert is_comma_morphism(CommaMorphism(src, dst, identity_map(src.gens), squaring))


def test_identity_group_part_does_not_commute():
    c4 = cyclic_group(4)
    src = make_comma_object(make_set(["x"]), c4, {"x": "g"})
    dst = make_comma_object(make_set(["x"]), c4, {"x": "g2"})
    m = CommaMorphism(src, dst, identity_map(src.gens), identity_group_hom(c4))
    assert not is_comma_morphism(m)


def test_parts_between_other_objects_or_no_hom_are_rejected():
    # the last two squares commute on generators, so only the parts' own
    # checks refuse them
    c2, c4 = cyclic_group(2), cyclic_group(4)
    w = make_comma_object(make_set(["x"]), c4, {"x": "g"})
    other_gens = identity_map(make_set(["y"]))
    assert not is_comma_morphism(CommaMorphism(w, w, other_gens, identity_group_hom(c4)))
    # C2's "g" is also a label of C4, so its identity maps w's image to itself
    assert not is_comma_morphism(CommaMorphism(w, w, identity_map(w.gens), identity_group_hom(c2)))
    constant = GroupHom(c4, c4, {x: "g" for x in c4.elements})  # sends e to g
    assert not is_comma_morphism(CommaMorphism(w, w, identity_map(w.gens), constant))


def test_equality_over_a_raag_compares_elements_not_words():
    raag = Raag(edge_graph())
    a, b, ia = ("a", 1), ("b", 1), ("a", -1)

    def obj(image):
        return make_comma_object(make_set(["x"]), raag, {"x": image})

    # different words for one element: only the word engine can tell
    assert obj((a, b)) == obj((b, a))
    assert obj((a, ia, b)) == obj((b,))
    assert obj((a, b)) != obj((a,))
    free = Raag(discrete(make_set(["a", "b"])))
    assert make_comma_object(make_set(["x"]), free, {"x": (a, b)}) != make_comma_object(
        make_set(["x"]), free, {"x": (b, a)}
    )


def test_object_equals_itself_without_comparing_images(monkeypatch):
    class Compared(Exception):
        pass

    def refuse(self, a, b):
        raise Compared

    w = s3_witness()
    monkeypatch.setattr(type(w.target), "equal", refuse)
    assert w == w
    with pytest.raises(Compared):
        _ = w == CommaObject(w.gens, w.target, dict(w.images))


def test_morphisms_with_equal_set_maps_can_differ():
    raag = Raag(edge_graph())
    a, b, ib = ("a", 1), ("b", 1), ("b", -1)
    src = embed_graph(make_graph(make_set(["v"]), []))
    dst = make_comma_object(make_set(["x"]), raag, {"x": (a,)})
    other_dst = make_comma_object(make_set(["x"]), raag, {"x": (b,)})
    f_set = SetMap(src.gens, dst.gens, {"v": "x"})

    def f_grp(image):
        return GroupHom(src.target, raag, {"v": image})

    m = CommaMorphism(src, dst, f_set, f_grp((a,)))
    assert m == CommaMorphism(src, dst, f_set, f_grp((b, a, ib)))
    assert m != CommaMorphism(src, other_dst, f_set, f_grp((a,)))
    assert m != CommaMorphism(src, dst, f_set, f_grp((b,)))


def test_compose_with_identity():
    w = s3_witness()
    m = identity_morphism(w)
    assert compose_comma(identity_morphism(w), m) == m
    assert compose_comma(m, identity_morphism(w)) == m
    counit = coreflect(w).counit
    assert compose_comma(identity_morphism(counit.src), counit) == counit
    assert compose_comma(counit, identity_morphism(w)) == counit


def test_equality_with_another_type_is_not_implemented():
    w = s3_witness()
    m = identity_morphism(w)
    for value in (w, m, m.f_grp):
        assert type(value).__eq__(value, "x") is NotImplemented
        assert value != "x"
    assert w != m and m != m.f_grp


def test_compose_mismatch():
    with pytest.raises(ObjectMismatch):
        compose_comma(identity_morphism(s3_witness()), identity_morphism(abelian_witness()))


def test_compose_associative_on_counits():
    w = s3_witness()
    core = coreflect(w)
    g = core.graph
    f = make_graph_hom(discrete(make_set(["v"])), g, {"v": "x"})
    m1 = embed_graph_hom(f)
    m2 = core.counit
    left = compose_comma(compose_comma(m1, identity_morphism(m1.dst)), m2)
    right = compose_comma(m1, compose_comma(identity_morphism(m1.dst), m2))
    assert left == right


# ---------------------------------------------------------------------------
# the embedding

def test_embed_graph_shapes():
    w = embed_graph(edge_graph())
    assert w.gens == edge_graph().vertices
    assert w.target == Raag(edge_graph())
    assert w.images == {"a": (("a", 1),), "b": (("b", 1),)}

    point = embed_graph(discrete(make_set(["a"])))
    assert point.target.presentation.edges == ()

    empty = embed_graph(make_graph(make_set([]), []))
    assert len(empty.gens) == 0


@st.composite
def _graphs_on_any_labels(draw):
    """Graphs whose labels include the empty one and ones starting with "-",
    which the shared strategies never draw."""
    labels = draw(st.lists(st.sampled_from(["", "-", "-a", "--a", "a", "b"]), unique=True, max_size=5))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return make_graph(make_set(labels), edges)


@example(make_graph(make_set(["a", "-a"]), [("a", "-a")]))
@given(_graphs_on_any_labels())
def test_embedding_round_trips_through_json_or_is_refused(g):
    # a token "-x" reads as the inverse of x and "" is no token, so a
    # generator whose label is empty or starts with "-" cannot be written
    w = embed_graph(g)
    unwritable = [x for x in g.vertices.labels if x[:1] in ("", "-")]
    try:
        data = json.loads(json.dumps(comma_object_to_json(w)))
    except MalformedInput as exc:
        assert unwritable and repr(unwritable[0]) in str(exc)
        return
    assert not unwritable
    assert comma_object_from_json(data) == w


def test_embed_graph_hom_identity():
    g = edge_graph()
    assert embed_graph_hom(make_graph_hom(g, g, {"a": "a", "b": "b"})) == identity_morphism(embed_graph(g))


def test_forced_group_parts_run_between_the_objects_own_groups():
    f = make_graph_hom(edge_graph(), indiscrete(make_set(["c", "d", "e"])), {"a": "c", "b": "d"})
    m = embed_graph_hom(f)
    assert m.f_grp.dom is m.src.target and m.f_grp.cod is m.dst.target
    for w in (abelian_witness(), s3_witness(), embed_graph(edge_graph())):
        counit = coreflect(w).counit
        assert counit.f_grp.dom is counit.src.target and counit.f_grp.cod is counit.dst.target


def test_embed_collapse_square_commutes():
    point = make_graph(make_set(["c"]), [])
    collapse = make_graph_hom(edge_graph(), point, {"a": "c", "b": "c"})
    m = embed_graph_hom(collapse)
    assert is_comma_morphism(m)


def test_embedding_preserves_composition_exhaustively():
    pool = list(graphs_up_to(2))
    for g1 in pool:
        for g2 in pool:
            for f in enumerate_graph_homs(g1, g2):
                for g3 in pool:
                    for h in enumerate_graph_homs(g2, g3):
                        lhs = embed_graph_hom(composite_hom(f, h))
                        rhs = compose_comma(embed_graph_hom(f), embed_graph_hom(h))
                        assert lhs == rhs


@given(st.data())
def test_embedding_preserves_composition_sampled(data):
    from hypothesis import assume

    g1 = data.draw(graphs(max_vertices=3))
    g2 = data.draw(graphs(max_vertices=3))
    g3 = data.draw(graphs(max_vertices=3))
    homs12 = enumerate_graph_homs(g1, g2)
    homs23 = enumerate_graph_homs(g2, g3)
    assume(homs12 and homs23)
    f = data.draw(st.sampled_from(homs12))
    h = data.draw(st.sampled_from(homs23))
    assert embed_graph_hom(composite_hom(f, h)) == compose_comma(
        embed_graph_hom(f), embed_graph_hom(h)
    )


def test_embedding_preserves_identities_exhaustively():
    for g in graphs_up_to(3):
        ident = make_graph_hom(g, g, {v: v for v in g.vertices})
        assert embed_graph_hom(ident) == identity_morphism(embed_graph(g))


def test_embedding_is_faithful():
    for g1 in graphs_up_to(3):
        for g2 in graphs_up_to(3):
            images = [embed_graph_hom(f) for f in enumerate_graph_homs(g1, g2)]
            for i, m in enumerate(images):
                for m2 in images[i + 1:]:
                    assert m != m2


def test_enumerate_morphisms_from_embedded_graph_counts():
    # no edge constraint from a single vertex: one morphism per generator
    point = discrete(make_set(["v"]))
    assert len(enumerate_morphisms_from_embedded_graph(point, s3_witness())) == 2
    # the edge graph cannot hit the two noncommuting images
    assert len(enumerate_morphisms_from_embedded_graph(edge_graph(), s3_witness())) == 2
    assert len(enumerate_morphisms_from_embedded_graph(edge_graph(), abelian_witness())) == 4
    for m in enumerate_morphisms_from_embedded_graph(edge_graph(), abelian_witness()):
        assert is_comma_morphism(m)


# ---------------------------------------------------------------------------
# the coreflector

def test_coreflect_recovers_embedded_graphs():
    for g in graphs_up_to(4):
        core = coreflect(embed_graph(g))
        assert core.graph == g
        assert core.counit == identity_morphism(embed_graph(g))


def test_coreflect_abelian_target_is_complete():
    core = coreflect(abelian_witness())
    assert core.graph.edges == (("x", "y"),)


def test_coreflect_noncommuting_images_is_discrete():
    core = coreflect(s3_witness())
    assert core.graph.edges == ()


def test_counit_is_valid_on_pool():
    for w in default_pool():
        assert is_comma_morphism(coreflect(w).counit)


def test_counit_is_built_once_on_first_read_and_equals_the_eager_one():
    # coreflect keeps the object and builds no counit; the first read builds
    # it, every later read returns that same morphism, and it is the one
    # built straight from the graph and the object
    objects = [w for seed in range(3) for w in default_pool(seed)] + [embed_graph(g) for g in graphs_up_to(3)]
    for w in objects:
        core = coreflect(w)
        counit = core.counit
        assert core.counit is counit
        eager = _from_embedded(embed_graph(core.graph), w, identity_map(w.gens))
        assert counit == eager
        assert comma_morphism_to_json(counit) == comma_morphism_to_json(eager)


def test_counit_is_valid_on_random_order_8_targets():
    import random

    from commagraph import finite_group_from_permutations

    rng = random.Random(1)
    d4 = finite_group_from_permutations(4, [(2, 3, 4, 1), (2, 1, 4, 3)])
    for _ in range(25):
        gens = make_set(["x", "y", "z"][: rng.randint(0, 3)])
        w = make_comma_object(gens, d4, {x: rng.choice(d4.elements.labels) for x in gens})
        assert is_comma_morphism(coreflect(w).counit)


def test_factor_single_vertex_example():
    g = discrete(make_set(["v"]))
    w = s3_witness()
    for m in enumerate_morphisms_from_embedded_graph(g, w):
        core = coreflect(w)
        f = factor_through_coreflection(core, m)
        assert f.vmap.mapping == m.f_set.mapping
        assert compose_comma(embed_graph_hom(f), core.counit) == m
        # uniqueness: no other graph hom composes to m
        others = [
            h
            for h in enumerate_graph_homs(g, core.graph)
            if compose_comma(embed_graph_hom(h), core.counit) == m
        ]
        assert len(others) == 1


def test_counit_factors_through_itself():
    w = s3_witness()
    core = coreflect(w)
    f = factor_through_coreflection(core, core.counit)
    assert f.vmap.mapping == {"x": "x", "y": "y"}


def test_factor_exists_for_abelian_targets():
    w = abelian_witness()
    core = coreflect(w)
    for m in enumerate_morphisms_from_embedded_graph(edge_graph(), w):
        f = factor_through_coreflection(core, m)
        assert is_comma_morphism(compose_comma(embed_graph_hom(f), core.counit))


def test_factor_rejects_wrong_source():
    # the source's target is finite, so it embeds no graph
    w = s3_witness()
    m = identity_morphism(w)
    with pytest.raises(ObjectMismatch):
        factor_through_coreflection(coreflect(w), m)


def test_factor_rejects_coreflection_of_another_object():
    g = discrete(make_set(["v"]))
    other = coreflect(abelian_witness())
    for m in enumerate_morphisms_from_embedded_graph(g, s3_witness()):
        with pytest.raises(ObjectMismatch):
            factor_through_coreflection(other, m)


def _from_edgeless_pair(w, vertex_map):
    """A hand-built morphism out of the embedded edgeless graph on a, b
    into w, its set part taken as given and every vertex sent to x's image."""
    g = discrete(make_set(["a", "b"]))
    src = embed_graph(g)
    f_grp = GroupHom(src.target, w.target, {v: w.images["x"] for v in g.vertices})
    return CommaMorphism(src, w, SetMap(g.vertices, w.gens, vertex_map), f_grp)


def test_factor_rejects_a_partial_vertex_map():
    w = s3_witness()
    with pytest.raises(NotTotal):
        factor_through_coreflection(coreflect(w), _from_edgeless_pair(w, {"a": "x"}))


def test_factor_rejects_an_edge_onto_noncommuting_images():
    # a hand-built morphism out of the embedded edge a - b, sending a and b
    # to x and y, whose images do not commute: its set map is no graph hom
    # into the coreflection, which has no edge x - y
    w = s3_witness()
    src = embed_graph(edge_graph())
    f_grp = GroupHom(src.target, w.target, {"a": w.images["x"], "b": w.images["y"]})
    m = CommaMorphism(src, w, SetMap(src.gens, w.gens, {"a": "x", "b": "y"}), f_grp)
    assert not is_comma_morphism(m)
    with pytest.raises(NotFactorable):
        factor_through_coreflection(coreflect(w), m)


def test_factor_rejects_a_vertex_image_outside_the_coreflection():
    w = s3_witness()
    with pytest.raises(NotInCodomain):
        factor_through_coreflection(coreflect(w), _from_edgeless_pair(w, {"a": "x", "b": "zz"}))


# ---------------------------------------------------------------------------
# the group embedding

def test_embed_group_c2():
    c2 = cyclic_group(2)
    w = embed_group(c2)
    assert w.gens == c2.elements
    assert w.images == {"e": "e", "g": "g"}


def test_reflect_to_group_unit():
    c2 = cyclic_group(2)
    w = make_comma_object(make_set(["x"]), c2, {"x": "g"})
    reflection = reflect_to_group(w)
    assert reflection.group == c2
    assert reflection.unit.f_set.mapping == {"x": "g"}
    assert is_comma_morphism(reflection.unit)


def test_reflect_to_group_rejects_presented_targets():
    with pytest.raises(NotFiniteTarget):
        reflect_to_group(embed_graph(edge_graph()))


def test_group_reflection_universal_property_small():
    from commagraph.groups import enumerate_homs_finite_to_finite
    from commagraph.sets import SetMap

    w = make_comma_object(make_set(["x"]), cyclic_group(2), {"x": "g"})
    unit = reflect_to_group(w).unit
    for k in (trivial for trivial in [cyclic_group(1), cyclic_group(2), klein_four_group()]):
        embedded = embed_group(k)
        homs = enumerate_homs_finite_to_finite(w.target, k)
        through = [
            CommaMorphism(embed_group(w.target), embedded, SetMap(w.target.elements, k.elements, dict(f.images)), f)
            for f in homs
        ]
        for f in homs:
            m = CommaMorphism(w, embedded, SetMap(w.gens, k.elements, {"x": f.images["g"]}), f)
            assert is_comma_morphism(m)
            matches = [g for g in through if compose_comma(unit, g) == m]
            assert len(matches) == 1


def test_endomorphism_count_c2():
    from commagraph.groups import enumerate_homs_finite_to_finite

    c2 = cyclic_group(2)
    assert len(enumerate_homs_finite_to_finite(c2, c2)) == 2


# ---------------------------------------------------------------------------
# JSON forms

def test_comma_object_json_round_trip():
    for w in (abelian_witness(), s3_witness(), embed_graph(edge_graph())):
        data = comma_object_to_json(w)
        assert comma_object_from_json(data) == w
        assert comma_object_to_json(comma_object_from_json(data)) == data


def test_comma_object_json_perm_target():
    data = {
        "gens": ["x"],
        "target": {"type": "perm", "degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]},
        "images": {"x": "213"},
    }
    w = comma_object_from_json(data)
    assert w.target == symmetric_group_3()


def test_comma_morphism_json_out_of_a_presented_group():
    edge = Raag(edge_graph())
    w = make_comma_object(make_set(["x", "y"]), edge, {"x": (("a", 1),), "y": (("b", 1), ("a", -1))})
    assert comma_morphism_to_json(coreflect(w).counit) == {
        "from": {
            "gens": ["x", "y"],
            "target": {"type": "raag", "presentation": {"vertices": ["x", "y"], "edges": [["x", "y"]]}},
            "images": {"x": ["x"], "y": ["y"]},
        },
        "to": {
            "gens": ["x", "y"],
            "target": {"type": "raag", "presentation": {"vertices": ["a", "b"], "edges": [["a", "b"]]}},
            "images": {"x": ["a"], "y": ["b", "-a"]},
        },
        "f_set": {"x": "x", "y": "y"},
        "f_grp": {"generator_images": {"x": ["a"], "y": ["b", "-a"]}},
    }


def test_comma_morphism_json_out_of_a_finite_group():
    w = make_comma_object(make_set(["x"]), cyclic_group(2), {"x": "g"})
    c2 = {"type": "cayley", "elements": ["e", "g"], "table": [["e", "g"], ["g", "e"]]}
    assert comma_morphism_to_json(reflect_to_group(w).unit) == {
        "from": {"gens": ["x"], "target": c2, "images": {"x": "g"}},
        "to": {"gens": ["e", "g"], "target": c2, "images": {"e": "e", "g": "g"}},
        "f_set": {"x": "g"},
        "f_grp": {"table": {"e": "e", "g": "g"}},
    }


@given(graphs(max_vertices=3))
def test_embedded_graph_round_trips_through_json(g):
    w = embed_graph(g)
    assert comma_object_from_json(comma_object_to_json(w)) == w
