import random

import pytest

from signforge.core import (build_graph, canonical_form, from_canonical_form,
                            switch)
from signforge.cycles import enumerate_cycles, negative_cycles
from signforge.enumeration import (EnumBounds, _pair_list, _raw_candidates,
                                   _raw_to_graph, enumerate_critical,
                                   enumerate_signed_graphs)
from signforge.frustration import frustration_by_cover
from signforge.structure import is_decomposable, is_irreducible


def test_single_vertex_stream():
    # on one vertex only negative loops survive (no isolated vertices,
    # positive loops excluded as inert)
    b = EnumBounds(max_vertices=1, max_negative_loops_per_vertex=2)
    got = sorted(g.m for g in enumerate_signed_graphs(b))
    assert got == [1, 2]


def test_two_vertex_stream_counts():
    b = EnumBounds(max_vertices=2, max_multiplicity_per_pair=2,
                   max_negative_loops_per_vertex=1, max_edges=4)
    classes = list(enumerate_signed_graphs(b))
    keys = [canonical_form(g) for g in classes]
    assert len(keys) == len(set(keys))
    # the n=1 members (one negative loop) plus connected/disconnected
    # two-vertex shapes; spot-check a few expected members
    expect = [
        build_graph([(0, 0, "-")]),
        build_graph([(0, 1, "+")]),
        build_graph([(0, 1, "+"), (0, 1, "-")]),
        build_graph([(0, 0, "-"), (1, 1, "-")]),
    ]
    for g in expect:
        assert canonical_form(g) in keys


def test_stream_has_no_duplicate_classes_up_to_three_vertices():
    b = EnumBounds(max_vertices=3, max_multiplicity_per_pair=2,
                   max_negative_loops_per_vertex=1, max_edges=5)
    keys = [canonical_form(g) for g in enumerate_signed_graphs(b)]
    assert len(keys) == len(set(keys))


def test_relabeling_audit():
    # every emitted class is stable under a random relabel-and-switch
    rng = random.Random(20260826)
    b = EnumBounds(max_vertices=3, max_multiplicity_per_pair=2,
                   max_negative_loops_per_vertex=1, max_edges=4)
    for g in enumerate_signed_graphs(b):
        vs = list(g.vertices)
        perm = dict(zip(vs, rng.sample(vs, len(vs))))
        s = frozenset(v for v in vs if rng.random() < 0.5)
        gs = switch(g, s)
        relabeled = build_graph([(perm[e.u], perm[e.v], e.sign)
                                 for e in gs.edges])
        assert canonical_form(relabeled) == canonical_form(g)


def test_critically_1_classes_are_negative_cycles():
    b = EnumBounds(max_vertices=3, max_multiplicity_per_pair=2,
                   max_negative_loops_per_vertex=2, max_edges=6)
    classes = enumerate_critical(b, 1)
    assert classes
    for g in classes:
        for comp in g.components:
            sub = g.restrict(frozenset(
                e.eid for e in g.edges if e.u in comp))
            whole = frozenset(range(sub.m))
            assert [c.edge_set for c in negative_cycles(sub)] == [whole]
            assert [c.edge_set for c in enumerate_cycles(sub)] == [whole]


def test_irreducible_critically_1_is_single_loop():
    b = EnumBounds(max_vertices=3, max_multiplicity_per_pair=2,
                   max_negative_loops_per_vertex=2, max_edges=6)
    got = list(enumerate_critical(b, 1, irreducible_only=True))
    assert len(got) == 1
    g = got[0]
    assert g.n == 1 and g.m == 1 and g.edges[0].is_loop


def test_connected_only_filter():
    b = EnumBounds(max_vertices=2, max_multiplicity_per_pair=1,
                   max_negative_loops_per_vertex=1, max_edges=4,
                   connected_only=True)
    for g in enumerate_signed_graphs(b):
        assert len(g.components) == 1


def brute_force_critical(b, k, irreducible_only=False,
                         non_decomposable_only=False):
    """Oracle for enumerate_critical: every raw candidate, in order, kept
    when a minimum negative-cycle cover has size k and every single-edge
    deletion leaves one of size k - 1; then the same filters and the same
    first-member-wins dedupe."""
    seen, out = set(), []
    for n, loops, assignment in _raw_candidates(b):
        g = _raw_to_graph(n, loops, _pair_list(n), assignment)
        if frustration_by_cover(g) != k or not all(
                frustration_by_cover(g.delete_edges([e.eid])) == k - 1
                for e in g.edges):
            continue
        if irreducible_only and not is_irreducible(g):
            continue
        if non_decomposable_only and is_decomposable(g, k):
            continue
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            out.append(from_canonical_form(key))
    return tuple(out)


@pytest.mark.parametrize("bounds, k, irreducible_only, non_decomposable_only", [
    (EnumBounds(3, 2, 2, 6), 1, False, False),
    (EnumBounds(3, 2, 2, 6), 1, True, False),
    (EnumBounds(3, 2, 2, 6, connected_only=True), 1, False, False),
    (EnumBounds(3, 2, 2, 6), 2, False, False),
    (EnumBounds(3, 2, 2, 6), 2, True, False),
    (EnumBounds(3, 2, 2, 6), 2, False, True),
    (EnumBounds(3, 2, 2, 6), 2, True, True),
    (EnumBounds(4, 2, 1, 5), 2, False, False),
    (EnumBounds(4, 2, 0, 6), 2, True, True),
    (EnumBounds(4, 1, 1, 6, connected_only=True), 2, False, False),
    (EnumBounds(3, 3, 2, 6), 3, False, False),
    (EnumBounds(3, 2, 1, 6), 3, True, False),
])
def test_enumerate_critical_matches_brute_force(
        bounds, k, irreducible_only, non_decomposable_only):
    got = enumerate_critical(bounds, k, irreducible_only,
                             non_decomposable_only)
    assert got == brute_force_critical(bounds, k, irreducible_only,
                                       non_decomposable_only)
