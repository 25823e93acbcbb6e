import random
from itertools import combinations

import pytest

from signforge.core import build_graph, canonical_form, switching_isomorphic
from signforge.constructions import ghat
from signforge.cycles import (has_two_edge_disjoint_negative_cycles,
                              negative_cycles)
from signforge import structure
from signforge.errors import (PreconditionError, SignforgeError,
                              TheoremViolation)
from signforge.frustration import frustration_index
from signforge.structure import (check_packing_equality, find_decompositions,
                                 find_k4_minus_subdivision, in_s_star,
                                 is_decomposable, is_irreducible,
                                 k4_minus_subdivision_edge_sets,
                                 reduce_to_irreducible, subdivide, suppress,
                                 suppressible_vertices)


def k4_all_negative():
    return build_graph([(u, v, "-") for u in range(4) for v in range(u)])


# -- subdivision / suppression -----------------------------------------------------


def test_subdivide_single_edge():
    g = build_graph([(0, 1, "-")])
    h = subdivide(g, 0, 1)
    assert h.n == 3 and h.m == 2
    signs = sorted(e.sign for e in h.edges)
    assert signs == [-1, 1]  # sign carried on one arm, the other positive


def test_subdivide_negative_double_edge():
    g = build_graph([(0, 1, "-"), (0, 1, "-")])
    h = subdivide(g, 0, 1)
    assert h.n == 3 and h.m == 4
    w = next(v for v in h.vertices if v not in (0, 1))
    arm_u = [e for e in h.edges if {e.u, e.v} == {0, w}]
    arm_v = [e for e in h.edges if {e.u, e.v} == {w, 1}]
    assert sorted(e.sign for e in arm_u) == [-1, -1]
    assert sorted(e.sign for e in arm_v) == [1, 1]


def test_suppress_inverts_subdivide():
    g = k4_all_negative()
    h = subdivide(g, 0, 1)
    w = next(v for v in h.vertices if v not in g.vertices)
    assert w in suppressible_vertices(h)
    back = suppress(h, w)
    assert switching_isomorphic(back, g) is not None


def test_degree_two_vertex_with_loop_is_not_suppressible():
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-"), (1, 1, "-")])
    assert 1 not in suppressible_vertices(g)


def test_mixed_digon_to_one_neighbor_becomes_negative_loop():
    # equal counts of parallel positives and negatives to a single neighbor
    g = build_graph([(0, 1, "+"), (0, 1, "-"),
                     (1, 2, "+"), (2, 3, "+"), (3, 1, "-")])
    assert 0 in suppressible_vertices(g)
    h = suppress(g, 0)
    loops = [e for e in h.edges if e.is_loop]
    assert len(loops) == 1 and loops[0].u == 1 and loops[0].sign == -1


def test_reduce_subdivided_loop_to_negative_cycle():
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 3, "+"),
                     (3, 4, "+"), (4, 0, "-")])
    r = reduce_to_irreducible(g)
    assert is_irreducible(r)
    assert r.n == 1 and r.m == 1 and r.edges[0].is_loop


def test_reduction_is_confluent_up_to_switching_isomorphism():
    g = k4_all_negative()
    for u, v in ((0, 1), (1, 2), (2, 3)):
        g = subdivide(g, u, v)
    baseline = reduce_to_irreducible(g)
    rng = random.Random(7)
    for _ in range(5):
        r = reduce_to_irreducible(
            g, choose=lambda cands, rng=rng: rng.choice(sorted(cands, key=str)))
        assert switching_isomorphic(r, baseline) is not None


def test_ghat_is_irreducible():
    for t in range(3):
        assert is_irreducible(ghat(t))


# -- all-negative-K4 subdivisions --------------------------------------------------


def test_k4_subdivision_found_in_itself_and_subdivided_copy():
    g = k4_all_negative()
    w = find_k4_minus_subdivision(g)
    assert w is not None and w.edge_ids == {e.eid for e in g.edges}
    h = subdivide(subdivide(g, 0, 1), 2, 3)
    wh = find_k4_minus_subdivision(h)
    assert wh is not None
    assert set(wh.branch_vertices) == {0, 1, 2, 3}


def test_k4_subdivision_triangles_are_negative():
    g = ghat(0)
    w = find_k4_minus_subdivision(g)
    assert w is not None
    sub = g.restrict(w.edge_ids)
    tri = [c for c in negative_cycles(sub)]
    assert len(tri) >= 4


def test_no_k4_subdivision_in_theta_graph():
    g = build_graph([(0, 1, "+"), (0, 1, "-"), (0, 1, "-")])
    assert find_k4_minus_subdivision(g) is None


def test_k4_subdivision_edge_sets_in_k4():
    g = k4_all_negative()
    assert k4_minus_subdivision_edge_sets(g) == (frozenset(range(6)),)


def test_packing_equality_without_subdivision():
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-"),
                     (3, 4, "-"), (3, 4, "+")])
    rep = check_packing_equality(g)
    assert rep.subdivision is None
    assert len(rep.packing) == rep.frustration == 2


def test_packing_inequality_reported_for_k4():
    rep = check_packing_equality(k4_all_negative())
    assert rep.subdivision is not None and rep.packing is None
    assert rep.frustration == 2


def test_violated_packing_equality_is_a_typed_error(monkeypatch):
    # a negative triangle has no K4- subdivision and index 1; a packing
    # search that finds no cycle contradicts the theorem
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")])
    monkeypatch.setattr(structure, "max_edge_disjoint_negative_cycles",
                        lambda g: ())
    with pytest.raises(TheoremViolation) as info:
        check_packing_equality(g)
    assert isinstance(info.value, SignforgeError)


# -- decomposability ---------------------------------------------------------------


def test_k4_is_not_decomposable():
    assert not is_decomposable(k4_all_negative())
    assert find_decompositions(k4_all_negative()) == ()


def test_two_disjoint_negative_loops_decompose():
    g = build_graph([(0, 0, "-"), (1, 1, "-")])
    ds = find_decompositions(g)
    assert len(ds) == 1 and ds[0].kind == (1, 1)


def test_positive_bridge_blocks_decomposition():
    # the bridge cannot lie in any critical part, so no partition exists
    g = build_graph([(0, 0, "-"), (1, 1, "-"), (0, 1, "+")])
    assert not is_decomposable(g)


def test_ghat0_decomposes_into_three_cycles():
    ds = find_decompositions(ghat(0))
    assert ds and all(d.kind == (1, 1, 1) for d in ds)


def test_loop_plus_k4_decomposes_as_1_2():
    g = build_graph([(0, 0, "-")] +
                    [(u, v, "-") for u in range(1, 5) for v in range(1, u)])
    ds = find_decompositions(g)
    assert any(d.kind == (1, 2) for d in ds)


def test_decomposition_parts_partition_the_edges():
    for d in find_decompositions(ghat(0)):
        union = set()
        for edge_set, part_k in d.parts:
            assert part_k == 1
            assert not (edge_set & union)
            union |= edge_set
        assert union == set(range(ghat(0).m))


# -- star-class membership ---------------------------------------------------------


def test_in_s_star_examples():
    assert in_s_star(k4_all_negative())
    loop = build_graph([(0, 0, "-")])
    assert in_s_star(loop, 1)


def test_in_s_star_preconditions():
    with pytest.raises(PreconditionError):
        in_s_star(build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")]))  # reducible
    with pytest.raises(PreconditionError):
        # the positive bridge can be deleted without lowering the index
        in_s_star(build_graph([(0, 0, "-"), (1, 1, "-"), (0, 1, "+")]))
