import dataclasses
import gc
import itertools
import random

import pytest

from signforge import catalog
from signforge.core import (build_graph, canonical_form, from_canonical_form,
                            switch, switching_isomorphic)
from signforge.cycles import enumerate_cycles, negative_cycles
from signforge.enumeration import (EnumBounds, _pair_list, _raw_candidates,
                                   _raw_to_graph, enumerate_critical,
                                   enumerate_signed_graphs)
from signforge.errors import PreconditionError
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


def union_find_components(n, links):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in links:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)})


def oracle_raw_candidates(b):
    """Every raw candidate by plain products: all (mult, neg) per pair and
    all loop vectors, kept when within the edge budget, without isolated
    vertices and (if asked) connected, sorted by (n, assignment, loops)."""
    out = []
    for n in range(1, b.max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        opts = [(m, neg) for m in range(b.max_multiplicity_per_pair + 1)
                for neg in range(m + 1)]
        for assignment in itertools.product(opts, repeat=len(pairs)):
            used = sum(m for m, _ in assignment)
            if used > b.max_edges:
                continue
            links = [p for p, (m, _) in zip(pairs, assignment) if m]
            for loops in itertools.product(
                    range(b.max_negative_loops_per_vertex + 1), repeat=n):
                if sum(loops) + used > b.max_edges:
                    continue
                touched = {v for v in range(n) if loops[v]}
                touched.update(v for link in links for v in link)
                if len(touched) < n:
                    continue
                if b.connected_only and union_find_components(n, links) > 1:
                    continue
                out.append((n, assignment, loops))
    return [(n, loops, assignment) for n, assignment, loops in sorted(out)]


def brute_force_critical(b, k, irreducible_only=False,
                         non_decomposable_only=False):
    """Oracle for enumerate_critical: every candidate of the full
    product, in order, kept when a minimum negative-cycle cover has size
    k and every single-edge deletion leaves one of size k - 1; then the
    same filters and the same first-member-wins dedupe."""
    seen, out = set(), []
    for n, loops, assignment in oracle_raw_candidates(b):
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


def test_bounds_beyond_the_edge_budget_change_nothing():
    # a pair takes at most max_edges edges and a vertex at most max_edges
    # loops, so larger caps must give the same classes and not blow up
    # the option lists or the loop product
    assert enumerate_critical(EnumBounds(3, 10**9, 10**9, 6), 2) == \
        enumerate_critical(EnumBounds(3, 6, 6, 6), 2)
    assert list(enumerate_signed_graphs(EnumBounds(3, 10**9, 10**9, 4))) == \
        list(enumerate_signed_graphs(EnumBounds(3, 4, 4, 4)))


def switching_least(n, assignment):
    """Whether no switching of the pair assignment is lexicographically
    smaller, by trying all 2^n vertex sets."""
    pairs = list(itertools.combinations(range(n), 2))
    for s in range(1 << n):
        switched = tuple((m, m - neg) if (s >> u ^ s >> v) & 1 else (m, neg)
                         for (u, v), (m, neg) in zip(pairs, assignment))
        if switched < assignment:
            return False
    return True


@pytest.mark.parametrize("bounds", [
    EnumBounds(1, 2, 2, 10),
    EnumBounds(2, 2, 1, 4),
    EnumBounds(3, 2, 1, 5),
    EnumBounds(3, 2, 0, 6),
    EnumBounds(3, 1, 1, 6, connected_only=True),
    EnumBounds(4, 1, 0, 3, connected_only=True),
    EnumBounds(4, 3, 1, 6),
])
def test_raw_candidates_match_oracle(bounds):
    # the stream is the switching-least part of the full product, and the
    # classes of the full product, first member wins, are unchanged
    want = oracle_raw_candidates(bounds)
    assert list(_raw_candidates(bounds)) == \
        [c for c in want if switching_least(c[0], c[2])]
    seen, classes = set(), []
    for n, loops, assignment in want:
        key = canonical_form(_raw_to_graph(n, loops, _pair_list(n),
                                           assignment))
        if key not in seen:
            seen.add(key)
            classes.append(from_canonical_form(key))
    assert list(enumerate_signed_graphs(bounds)) == classes


def test_connected_critical_stream_matches_union_find():
    # a path of negative digons 0-1-2-3 is critically 3-frustrated with
    # vertex 3 three steps from vertex 0, so connectivity must be followed
    # past distance 2
    loose = EnumBounds(4, 2, 1, 6)
    want = [(n, loops, assignment)
            for n, loops, assignment in _raw_candidates(loose, 3)
            if union_find_components(n, [p for p, (m, _) in
                                         zip(_pair_list(n), assignment)
                                         if m]) == 1]
    connected = EnumBounds(4, 2, 1, 6, connected_only=True)
    assert list(_raw_candidates(connected, 3)) == want


@pytest.mark.parametrize("field", ["max_vertices", "max_multiplicity_per_pair",
                                   "max_negative_loops_per_vertex",
                                   "max_edges"])
def test_negative_bounds_are_a_precondition_error(field):
    b = dataclasses.replace(EnumBounds(3, 2, 2, 6), **{field: -1})
    with pytest.raises(PreconditionError, match="non-negative"):
        enumerate_critical(b, 2)
    with pytest.raises(PreconditionError, match="non-negative"):
        list(enumerate_signed_graphs(b))


def test_negative_k_is_a_precondition_error():
    with pytest.raises(PreconditionError, match="non-negative"):
        enumerate_critical(EnumBounds(3, 2, 2, 6), -1)


@pytest.mark.parametrize("call", [
    canonical_form,
    # abandons the second graph's search after its first leaf
    lambda g: switching_isomorphic(g, g),
    lambda g: enumerate_critical(EnumBounds(3, 2, 2, 6), 2),
], ids=["canonical_form", "switching_isomorphic", "enumerate_critical"])
def test_class_searches_leave_no_garbage(call):
    # nothing the searches build may outlive the call in a reference cycle
    g = catalog.get("g7").graph
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call(g)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
