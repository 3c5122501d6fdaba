"""Comma objects under free groups and the embedding of graphs among them.

A comma object is a homomorphism out of a free group, recorded as a finite
generator set, a computable target group, and one target element per
generator.  A morphism between two such objects is a set map on generators
together with a group homomorphism of targets making the evident square
commute; since the domains are free, checking the square on generators is
enough.

A graph embeds as the quotient map from the free group on its vertices to
the group presented by the graph.  That embedding has an explicit right
adjoint: the coreflection graph puts an edge between two generators exactly
when their images commute in the target, and the counit evaluates the
presented group into the target.  Groups themselves embed via their full
multiplication structure, with the codomain projection as left adjoint.

Each embedding builds its forced morphisms in one place: ``_from_embedded``
out of an embedded graph, whose vertex map fixes the group part, and
``into_embedded_group`` into an embedded group, whose group part fixes the
set map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Mapping

from .errors import InvalidHom, MalformedInput, MissingImage, NotFactorable, NotFiniteTarget, ObjectMismatch
from .graphs import Graph, GraphHom, is_graph_hom, make_graph_hom
from .groups import (
    FiniteGroup,
    GroupHandle,
    GroupHom,
    Raag,
    apply_hom,
    compose_group_homs,
    group_from_json,
    group_to_json,
    hom_check,
    identity_group_hom,
)
from .sets import FiniteSet, SetMap, compose_maps, finite_set_from_json, identity_map


@dataclass(frozen=True, eq=False)
class CommaObject:
    gens: FiniteSet
    target: GroupHandle
    images: dict[str, object]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, CommaObject):
            return NotImplemented
        if self.gens != other.gens or self.target != other.target:
            return False
        return all(self.target.equal(self.images[x], other.images[x]) for x in self.gens)


@dataclass(frozen=True, eq=False)
class CommaMorphism:
    src: CommaObject
    dst: CommaObject
    f_set: SetMap
    f_grp: GroupHom

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommaMorphism):
            return NotImplemented
        # the set maps are plain dicts and settle most comparisons; the
        # objects and group parts may need the word engine
        return (
            self.f_set.mapping == other.f_set.mapping
            and self.src == other.src
            and self.dst == other.dst
            and self.f_grp == other.f_grp
        )


def make_comma_object(gens: FiniteSet, target: GroupHandle, images: Mapping[str, object]) -> CommaObject:
    extra = set(images) - gens.positions.keys()
    if extra:
        raise MalformedInput(f"images mention labels outside the generator set: {sorted(extra)}")
    validated: dict[str, object] = {}
    for x in gens:
        if x not in images:
            raise MissingImage(f"no image given for generator {x!r}")
        validated[x] = target.validate_element(images[x])
    return CommaObject(gens, target, validated)


def is_comma_morphism(m: CommaMorphism) -> bool:
    """True iff the generator-level square commutes; the domain side is free
    on the generators, so nothing more is needed."""
    if m.f_set.dom != m.src.gens or m.f_set.cod != m.dst.gens:
        return False
    if m.f_grp.dom != m.src.target or m.f_grp.cod != m.dst.target:
        return False
    if not hom_check(m.f_grp):
        return False
    t = m.dst.target
    return all(
        t.equal(apply_hom(m.f_grp, m.src.images[x]), m.dst.images[m.f_set.mapping[x]])
        for x in m.src.gens
    )


def compose_comma(m1: CommaMorphism, m2: CommaMorphism) -> CommaMorphism:
    if m1.dst != m2.src:
        raise ObjectMismatch("middle objects of the composite do not agree")
    return CommaMorphism(
        m1.src,
        m2.dst,
        compose_maps(m1.f_set, m2.f_set),
        compose_group_homs(m1.f_grp, m2.f_grp),
    )


# ---------------------------------------------------------------------------
# The embedding of graphs

def embed_graph(g: Graph) -> CommaObject:
    """A graph as a comma object: the quotient map from the free group on
    the vertices to the group the graph presents, one single-letter image
    per vertex.  Built once per graph instance and kept on it, as
    Graph.neighbours is, so the morphisms out of one graph share it and its
    engine, and compare it by identity."""
    cache = vars(g)
    if "_embedding" not in cache:
        cache["_embedding"] = CommaObject(g.vertices, Raag(g), {v: ((v, 1),) for v in g.vertices})
    return cache["_embedding"]


def _from_embedded(src: CommaObject, w: CommaObject, f_set: SetMap) -> CommaMorphism:
    """The morphism out of an embedded graph with vertex map f_set: each
    vertex is a single letter of src's presented group, so the commuting
    square forces its image to be w's image of f_set(v)."""
    images = {v: w.images[f_set.mapping[v]] for v in src.gens}
    return CommaMorphism(src, w, f_set, GroupHom(src.target, w.target, images))


def embed_graph_hom(f: GraphHom) -> CommaMorphism:
    """Functorial action: the vertex map paired with the induced map of
    presented groups.  Adjacent vertices map to equal or adjacent ones, so
    the images commute and the group part is a genuine homomorphism."""
    if not is_graph_hom(f.dom, f.cod, f.vmap):
        raise InvalidHom("the vertex map is not a graph homomorphism")
    return _from_embedded(embed_graph(f.dom), embed_graph(f.cod), f.vmap)


def enumerate_morphisms_from_embedded_graph(g: Graph, w: CommaObject) -> list[CommaMorphism]:
    """All comma morphisms from the embedded graph into w.

    The commuting square forces the group part on generators, so the search
    ranges only over set maps; a candidate survives iff the induced
    generator images commute wherever the graph has an edge, read from one
    table of which of w's generators have commuting images.
    """
    src = embed_graph(g)
    t, labels = w.target, w.gens.labels
    images = [w.images[x] for x in labels]
    commute = t.commute_table(images)
    edges = [(g.vertices.positions[u], g.vertices.positions[v]) for u, v in g.edges]
    out: list[CommaMorphism] = []
    for combo in product(range(len(labels)), repeat=len(g.vertices)):
        if all(commute[combo[i]][combo[j]] for i, j in edges):
            assignment = {v: labels[c] for v, c in zip(g.vertices.labels, combo)}
            out.append(_from_embedded(src, w, SetMap(g.vertices, w.gens, assignment)))
    return out


# ---------------------------------------------------------------------------
# The coreflection onto graphs

@dataclass(frozen=True, eq=False)
class Coreflection:
    """The coreflection of obj: its graph, and the counit from the embedded
    graph into obj, built on its first read and then kept, as embed_graph
    keeps an embedding; a caller that reads only the graph builds none."""

    obj: CommaObject
    graph: Graph

    @cached_property
    def counit(self) -> CommaMorphism:
        return _from_embedded(embed_graph(self.graph), self.obj, identity_map(self.obj.gens))


def coreflect(w: CommaObject) -> Coreflection:
    """Best graph approximation of a comma object.

    The graph lives on w's generators with an edge between distinct
    generators whose images commute in the target; the counit maps the
    embedded graph back into w by evaluating each generator at its image.
    """
    labels = w.gens.labels
    commute = w.target.commute_table([w.images[x] for x in labels])
    edges = tuple(
        (labels[i], labels[j]) for i in range(len(labels)) for j in range(i + 1, len(labels)) if commute[i][j]
    )
    return Coreflection(w, Graph(w.gens, edges))


def factor_through_coreflection(core: Coreflection, m: CommaMorphism) -> GraphHom:
    """The unique graph hom, out of the graph m's source embeds, whose embedding
    followed by the counit is m; make_map refuses a partial or stray vertex map."""
    source = m.src.target
    if not isinstance(source, Raag) or m.src != embed_graph(source.presentation) or m.dst != core.obj:
        raise ObjectMismatch("the morphism must run from the embedded graph to the coreflected object")
    try:
        return make_graph_hom(source.presentation, core.graph, m.f_set.mapping)
    except InvalidHom:
        raise NotFactorable(
            "the set part of a valid morphism must land as a graph hom in the coreflection"
        ) from None


# ---------------------------------------------------------------------------
# The embedding of groups

@dataclass(frozen=True, eq=False)
class GroupReflection:
    group: GroupHandle
    unit: CommaMorphism


def embed_group(h: FiniteGroup) -> CommaObject:
    """A finite group as a comma object: the free group on its underlying
    set mapping each element-named generator to itself."""
    return CommaObject(h.elements, h, {x: x for x in h.elements})


def into_embedded_group(w: CommaObject, dst: CommaObject, f: GroupHom) -> CommaMorphism:
    """The morphism from w into an embedded group with group part f: each
    generator of dst is the element it names, so the commuting square
    forces the set part to send x to f of w's image of x."""
    f_set = SetMap(w.gens, dst.gens, {x: f.images[w.images[x]] for x in w.gens})
    return CommaMorphism(w, dst, f_set, f)


def reflect_to_group(w: CommaObject) -> GroupReflection:
    """Project a comma object to its target group; the unit sends each
    generator to (the element-named generator of) its image."""
    if not isinstance(w.target, FiniteGroup):
        raise NotFiniteTarget("only finite targets have a computable underlying set")
    unit = into_embedded_group(w, embed_group(w.target), identity_group_hom(w.target))
    return GroupReflection(w.target, unit)


# ---------------------------------------------------------------------------
# JSON forms

def comma_object_to_json(w: CommaObject) -> dict:
    return {
        "gens": list(w.gens.labels),
        "target": group_to_json(w.target),
        "images": {x: w.target.element_to_json(w.images[x]) for x in w.gens},
    }


def comma_object_from_json(data: object) -> CommaObject:
    if not isinstance(data, dict) or not {"gens", "target", "images"} <= set(data):
        raise MalformedInput('a comma object needs "gens", "target" and "images"')
    gens = finite_set_from_json(data["gens"])
    target = group_from_json(data["target"])
    images_data = data["images"]
    if not isinstance(images_data, dict):
        raise MalformedInput('"images" must be an object keyed by generator')
    images = {x: target.element_from_json(v) for x, v in images_data.items()}
    return make_comma_object(gens, target, images)


def comma_morphism_to_json(m: CommaMorphism) -> dict:
    """The group part is keyed "generator_images" out of a presented group
    and "table" out of a finite one."""
    f = m.f_grp
    key = "generator_images" if isinstance(f.dom, Raag) else "table"
    return {
        "from": comma_object_to_json(m.src),
        "to": comma_object_to_json(m.dst),
        "f_set": {x: m.f_set.mapping[x] for x in m.f_set.dom},
        "f_grp": {key: {x: f.cod.element_to_json(y) for x, y in sorted(f.images.items())}},
    }
