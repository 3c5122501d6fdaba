from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commagraph import compose_maps, identity_map, make_map, make_set
from commagraph.errors import DomainMismatch, DuplicateLabel, NotInCodomain, NotTotal
from commagraph.sets import (
    finite_set_from_json,
    finite_set_to_json,
)

from .strategies import LABELS


def test_make_set_keeps_order():
    s = make_set(["b", "a"])
    assert s.labels == ("b", "a")
    assert list(s) == ["b", "a"]
    assert "a" in s and "z" not in s


def test_positions_index_labels_and_membership_refuses_non_labels():
    s = make_set(["b", "a", "c"])
    assert all(s.positions[x] == s.labels.index(x) for x in s.labels)
    for probe in (1, None, ["a"]):
        assert probe not in s


def test_make_set_empty():
    assert len(make_set([])) == 0


def test_make_set_rejects_duplicates():
    with pytest.raises(DuplicateLabel):
        make_set(["a", "a"])


def test_make_map_constant():
    f = make_map(make_set(["a", "b"]), make_set(["c"]), {"a": "c", "b": "c"})
    assert f("a") == "c" and f("b") == "c"


def test_make_map_missing_label():
    with pytest.raises(NotTotal):
        make_map(make_set(["a"]), make_set(["c"]), {})


def test_make_map_extra_label():
    with pytest.raises(NotTotal):
        make_map(make_set(["a"]), make_set(["c"]), {"a": "c", "b": "c"})


def test_make_map_bad_value():
    with pytest.raises(NotInCodomain):
        make_map(make_set(["a"]), make_set(["c"]), {"a": "z"})


def test_compose_basic():
    x, y, z = make_set(["a"]), make_set(["c"]), make_set(["e"])
    f = make_map(x, y, {"a": "c"})
    g = make_map(y, z, {"c": "e"})
    assert compose_maps(f, g)("a") == "e"


def test_compose_mismatch():
    f = make_map(make_set(["a"]), make_set(["c"]), {"a": "c"})
    g = make_map(make_set(["d"]), make_set(["e"]), {"d": "e"})
    with pytest.raises(DomainMismatch):
        compose_maps(f, g)


def test_identity_map():
    s = make_set(["a", "b"])
    assert identity_map(s).mapping == {"a": "a", "b": "b"}
    assert identity_map(make_set([])).mapping == {}


def _all_maps(dom, cod):
    if len(dom) == 0:
        yield make_map(dom, cod, {})
        return
    for images in product(cod.labels, repeat=len(dom)):
        yield make_map(dom, cod, dict(zip(dom.labels, images)))


def test_identity_is_two_sided_unit_exhaustive():
    # all maps between sets of size <= 4
    for m in range(5):
        for n in range(5):
            dom, cod = make_set(LABELS[:m]), make_set(LABELS[:n])
            if m > 0 and n == 0:
                continue
            for f in _all_maps(dom, cod):
                assert compose_maps(identity_map(dom), f) == f
                assert compose_maps(f, identity_map(cod)) == f


def test_composition_associative_exhaustive_small():
    # every composable triple over sets of size <= 3
    sizes = range(4)
    for a, b, c, d in product(sizes, repeat=4):
        w, x = make_set(LABELS[:a]), make_set(LABELS[:b])
        y, z = make_set(LABELS[:c]), make_set(LABELS[:d])
        if (a and not b) or (b and not c) or (c and not d):
            continue
        for f in _all_maps(w, x):
            for g in _all_maps(x, y):
                gf = compose_maps(f, g)
                for h in _all_maps(y, z):
                    assert compose_maps(gf, h) == compose_maps(f, compose_maps(g, h))


@given(
    data=st.data(),
    sizes=st.tuples(*[st.integers(1, 4)] * 4),
)
def test_composition_associative_sampled_size_four(data, sizes):
    a, b, c, d = sizes
    w, x = make_set(LABELS[:a]), make_set(LABELS[:b])
    y, z = make_set(LABELS[:c]), make_set(LABELS[:d])
    f = make_map(w, x, {v: data.draw(st.sampled_from(x.labels)) for v in w})
    g = make_map(x, y, {v: data.draw(st.sampled_from(y.labels)) for v in x})
    h = make_map(y, z, {v: data.draw(st.sampled_from(z.labels)) for v in y})
    assert compose_maps(compose_maps(f, g), h) == compose_maps(f, compose_maps(g, h))


def test_finite_set_json_round_trip():
    s = make_set(["b", "a", "c"])
    assert finite_set_from_json(finite_set_to_json(s)) == s

