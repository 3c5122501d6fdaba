"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated bounds with its stated time limit; the
expected values frozen here were derived independently (labeled-graph
counts, centralizer-order sums, brute-force enumerations) before being
asserted against the library.
"""

import time

from commagraph import (
    Raag,
    comma,
    coreflect,
    cyclic_group,
    discrete,
    embed_graph,
    embed_group,
    enumerate_graph_homs,
    enumerate_homs_raag_to_finite,
    klein_four_group,
    make_graph,
    make_set,
    reflect_to_group,
    symmetric_group_3,
    trivial_group,
    verify,
)
from commagraph.groups import commutation_graph


def _report(number, name, passed, elapsed, limit):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.1f}s, limit {limit}s)")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_unit_isomorphism():
    report, elapsed = _timed(lambda: verify.run_suite("unit-iso", max_vertices=4))
    ok = report.passed and report.cases_checked == 76 and elapsed < 10
    _report(1, "unit isomorphism over all 76 graphs on 0-4 vertices", ok, elapsed, 10)
    assert report.passed, report.counterexample
    assert report.cases_checked == 76
    assert elapsed < 10


def test_criterion_2_fullness_faithfulness():
    report, elapsed = _timed(lambda: verify.run_suite("fullness", max_vertices=3))
    ok = report.passed and elapsed < 30
    _report(2, "fullness and faithfulness on graphs up to 3 vertices", ok, elapsed, 30)
    assert report.passed, report.counterexample
    assert elapsed < 30


def test_criterion_3_ac_hom_bijection():
    def run():
        report = verify.run_suite("ac-bijection", max_vertices=3)
        edge = make_graph(make_set(["a", "b"]), [("a", "b")])
        s3 = symmetric_group_3()
        graph_side = len(enumerate_graph_homs(edge, commutation_graph(s3)))
        group_side = len(enumerate_homs_raag_to_finite(Raag(edge), s3))
        return report, graph_side, group_side

    (report, graph_side, group_side), elapsed = _timed(run)
    ok = report.passed and graph_side == group_side == 18 and elapsed < 30
    _report(3, "hom-set bijection for the presented-group adjunction", ok, elapsed, 30)
    assert report.passed, report.counterexample
    assert graph_side == 18 and group_side == 18
    assert elapsed < 30


def test_criterion_4_discrete_indiscrete_bijections():
    report, elapsed = _timed(lambda: verify.run_suite("dvi", max_vertices=3))
    ok = report.passed and elapsed < 5
    _report(4, "discrete/indiscrete hom-count identities", ok, elapsed, 5)
    assert report.passed, report.counterexample
    assert elapsed < 5


def test_criterion_5_couniversality():
    report, elapsed = _timed(
        lambda: verify.run_suite("couniversal", pool=verify.default_pool(0), max_vertices=3)
    )
    ok = report.passed and elapsed < 60
    _report(5, "couniversality of the explicit coreflector", ok, elapsed, 60)
    assert report.passed, report.counterexample
    assert elapsed < 60


def test_criterion_6_group_reflection():
    report, elapsed = _timed(lambda: verify.run_suite("group-reflection"))
    ok = report.passed and elapsed < 30
    _report(6, "reflective embedding of groups", ok, elapsed, 30)
    assert report.passed, report.counterexample
    assert elapsed < 30


def test_criterion_7_word_problem_differential():
    report, elapsed = _timed(
        lambda: verify.run_suite(
            "word-differential", seed=0, max_vertices=3, max_len=6, random_words=10000
        )
    )
    ok = report.passed and elapsed < 120
    _report(7, "word-problem engine against the rewriting and Tits oracles", ok, elapsed, 120)
    assert report.passed, report.counterexample
    # the exhaustive phase alone covers every word of length <= 6 over every
    # labeled graph on 0..3 vertices, plus the 10000 random words
    assert report.cases_checked == 458946 + 10000
    assert report.scope.endswith("10000 seeded words of length <= 10 over graphs on <= 4 vertices")
    assert elapsed < 120


def test_criterion_8_degenerate_cases():
    def run():
        empty_graph = make_graph(make_set([]), [])
        point = make_graph(make_set(["a"]), [])
        # embedding and coreflection of the degenerate graphs
        for g in (empty_graph, point):
            core = coreflect(embed_graph(g))
            assert core.graph == g
            assert comma.is_comma_morphism(core.counit)
        # the trivial group embeds and reflects
        reflection = reflect_to_group(embed_group(trivial_group()))
        assert comma.is_comma_morphism(reflection.unit)
        # empty generator set over a nontrivial group
        w = comma.make_comma_object(make_set([]), symmetric_group_3(), {})
        assert coreflect(w).graph == make_graph(make_set([]), [])
        # empty set and empty graph flow through every suite
        pool = [w, comma.make_comma_object(make_set([]), trivial_group(), {})]
        assert verify.run_suite("unit-iso", max_vertices=0).passed
        assert verify.run_suite("fullness", max_vertices=0).passed
        assert verify.run_suite("ac-bijection", max_vertices=0, groups=[trivial_group()]).passed
        assert verify.run_suite("dvi", max_vertices=0).passed
        assert verify.run_suite("couniversal", pool=pool, max_vertices=1).passed
        codomains = [trivial_group(), cyclic_group(2)]
        assert verify.run_suite("group-reflection", pool=pool, codomains=codomains).passed
        assert verify.run_suite("word-differential", max_vertices=1, max_len=2, random_words=10).passed
        return True

    passed, elapsed = _timed(run)
    _report(8, "degenerate cases flow through everything", passed, elapsed, 30)
    assert passed


def test_acceptance_pool_matches_required_targets():
    # criterion 5's pool must range over C2, C3, C4, C2xC2 and S3
    orders = sorted(len(w.target.elements) for w in verify.default_pool(0))
    assert set(orders) <= {1, 2, 3, 4, 6}
    targets = {w.target.elements.labels for w in verify.default_pool(0)}
    for h in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group(), symmetric_group_3()):
        assert h.elements.labels in targets
