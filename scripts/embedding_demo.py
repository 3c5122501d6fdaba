#!/usr/bin/env python3
"""Walk through the embedding on a few concrete inputs.

Shows a path graph going in and coming back unchanged, a comma object over
an abelian group coreflecting to a complete graph, the standard
noncommuting witness in S3 coreflecting to a discrete graph, a couple of
word reductions in the presented group of a path, and the bijection between
homs out of that group into S3 and graph homs into S3's commutation graph.
"""

import json

from commagraph import (
    Raag,
    comma,
    commutation_graph,
    coreflect,
    cyclic_group,
    embed_graph,
    enumerate_graph_homs,
    enumerate_homs_raag_to_finite,
    make_comma_object,
    make_graph,
    make_set,
    raag_is_identity,
    raag_reduce,
    symmetric_group_3,
)
from commagraph.graphs import graph_to_json


def show(title, data):
    print(f"--- {title}")
    print(json.dumps(data, indent=2))


def main() -> None:
    path = make_graph(make_set(["a", "b", "c"]), [("a", "b"), ("b", "c")])
    embedded = embed_graph(path)
    show("path graph a-b-c as a comma object", comma.comma_object_to_json(embedded))
    show("its coreflection (the path again)", graph_to_json(coreflect(embedded).graph))

    abelian = make_comma_object(make_set(["x", "y"]), cyclic_group(4), {"x": "g", "y": "g2"})
    show("two generators in a cyclic group coreflect to a complete graph",
         graph_to_json(coreflect(abelian).graph))

    witness = make_comma_object(make_set(["x", "y"]), symmetric_group_3(), {"x": "213", "y": "231"})
    show("a transposition and a rotation coreflect to a discrete graph",
         graph_to_json(coreflect(witness).graph))

    raag = Raag(path)
    for tokens in (["a", "b", "-a", "-b"], ["a", "c", "-a", "-c"], ["b", "a", "c", "-a"]):
        word = raag.element_from_json(tokens)
        reduced = raag_reduce(raag, word)
        print(
            f"word {' '.join(tokens)}  ->  {' '.join(raag.element_to_json(reduced)) or '(empty)'}"
            f"  identity={raag_is_identity(raag, word)}"
        )

    s3 = symmetric_group_3()
    group_homs = enumerate_homs_raag_to_finite(raag, s3)
    graph_homs = enumerate_graph_homs(path, commutation_graph(s3))
    print(f"homs from the group of a-b-c into S3: {len(group_homs)}")
    print(f"graph homs from a-b-c into the commutation graph of S3: {len(graph_homs)}")
    same = [f.images for f in group_homs] == [f.vmap.mapping for f in graph_homs]
    print(f"the same vertex assignments, in the same order: {same}")


if __name__ == "__main__":
    main()
