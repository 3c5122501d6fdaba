"""Simple graphs as comma objects over free groups.

A graph embeds as the quotient map from the free group on its vertices to
the group it presents; the embedding is full, faithful and has an explicit
coreflector built from commutation tests.  Finite groups embed alongside
via their multiplication tables, reflected back by the codomain projection.
Everything is computable at desk scale and verified by exhaustive suites.
"""

from .errors import InputError
from .sets import FiniteSet, SetMap, compose_maps, identity_map, make_map, make_set
from .graphs import (
    Graph,
    GraphHom,
    discrete,
    enumerate_graph_homs,
    indiscrete,
    is_graph_hom,
    make_graph,
    make_graph_hom,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Raag,
    Word,
    commutation_graph,
    cyclic_group,
    enumerate_homs_finite_to_finite,
    enumerate_homs_raag_to_finite,
    evaluate_word,
    finite_group_from_permutations,
    finite_group_from_table,
    hom_check,
    klein_four_group,
    raag_is_identity,
    raag_reduce,
    symmetric_group_3,
    trivial_group,
)
from .comma import (
    CommaMorphism,
    CommaObject,
    compose_comma,
    coreflect,
    embed_graph,
    embed_graph_hom,
    embed_group,
    enumerate_morphisms_from_embedded_graph,
    factor_through_coreflection,
    is_comma_morphism,
    make_comma_object,
    reflect_to_group,
)
from .verify import CheckReport, default_pool
