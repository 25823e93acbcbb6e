import gc
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signforge import catalog
from signforge.core import NEG, POS, build_graph, switch, switching_isomorphic
from signforge.constructions import ghat, ghat_planar, h_join
from signforge.criticality import is_critical
from signforge.cycles import negative_cycles
from signforge import structure
from signforge.errors import (GuardExceeded, PreconditionError,
                              SignforgeError, TheoremViolation,
                              UnknownVertexError)
from signforge.frustration import frustration_index, minimum_signature_switch
from signforge.structure import (_k4_minus_edge_set, check_packing_equality,
                                 find_decompositions,
                                 find_k4_minus_subdivision, in_s_star,
                                 is_decomposable, is_irreducible,
                                 k4_minus_subdivision_edge_sets,
                                 reduce_to_irreducible, subdivide, suppress,
                                 suppressible_vertices)

from strategies import k4_all_negative, part_unions, signed_graphs


def is_k4_minus_edge_set(g, es):
    """`_k4_minus_edge_set` on the edge mask of the edge ids es."""
    return _k4_minus_edge_set(g, sum(1 << e for e in es))


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


def test_suppress_unknown_vertex_is_a_typed_error():
    with pytest.raises(UnknownVertexError):
        suppress(build_graph([(0, 1, "-"), (1, 2, "+")]), "nope")


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


@given(st.one_of(signed_graphs(max_n=6, max_m=10), part_unions(max_m=10)))
@settings(max_examples=60, deadline=None)
def test_linear_k4_minus_test_matches_the_enumerator(g):
    # every edge subset, against the path-system enumeration
    sets = set(k4_minus_subdivision_edge_sets(g))
    for r in range(g.m + 1):
        for combo in combinations(range(g.m), r):
            es = frozenset(combo)
            assert is_k4_minus_edge_set(g, es) == (es in sets)


def test_linear_k4_minus_test_on_catalog_edge_sets():
    for name in catalog.names():
        g = catalog.get(name).graph
        sets = k4_minus_subdivision_edge_sets(g)
        full = frozenset(range(g.m))
        assert is_k4_minus_edge_set(g, full) == (full in sets), name
        assert all(is_k4_minus_edge_set(g, es) for es in sets), name


def test_linear_k4_minus_test_rejects_near_misses():
    k4 = [(u, v, "-") for u in range(4) for v in range(u)]
    cases = {
        "k4": (k4, True),
        "k4 and a disjoint negative digon": (k4 + [(4, 5, "-"), (4, 5, "+")],
                                             False),
        "k4 with one positive edge": ([(1, 0, "+")] + k4[1:], False),
        "k4 with a doubled edge": (k4 + [(1, 0, "-")], False),
        "two doubled pairs joined twice": ([(0, 1, "-"), (0, 1, "+"),
                                            (2, 3, "-"), (2, 3, "+"),
                                            (0, 2, "-"), (1, 3, "+")], False),
        "subdivided k4": ([(1, 4, "-"), (4, 0, "+")] + k4[1:], True),
    }
    for name, (edges, expected) in cases.items():
        g = build_graph(edges)
        full = frozenset(range(g.m))
        assert is_k4_minus_edge_set(g, full) == expected, name
        assert (full in k4_minus_subdivision_edge_sets(g)) == expected, name


def test_linear_k4_minus_test_near_edge_sets_past_ten_edges():
    # past the exhaustive edge-subset checks (m <= 10): every K4- edge set,
    # it less one edge, plus one outside edge, or with one edge swapped
    # for an outside one
    graphs = [ghat(2), ghat(3)] + [
        catalog.get(n).graph
        for n in ("s3-petersen", "s3-projective",
                  *catalog.entries_with_tag("P3*"))]
    for g in graphs:
        sets = set(k4_minus_subdivision_edge_sets(g))
        assert sets
        for es in sets:
            outside = [e for e in range(g.m) if e not in es]
            near = [es] + [es - {e} for e in es] + [
                es | {f} for f in outside] + [
                es - {e} | {f} for e in es for f in outside]
            for other in near:
                assert is_k4_minus_edge_set(g, other) == (other in sets)


def test_k4_minus_witness_follows_the_search_order():
    # quadruples by vertex order, paths grown along ascending edge ids
    def paths(w):
        return [(p["ends"], p["edges"]) for p in w.to_json()["paths"]]

    assert paths(find_k4_minus_subdivision(ghat(1))) == [
        (["x", "y"], [0]), (["x", "w"], [2]), (["x", "z"], [5, 6]),
        (["y", "w"], [7, 8]), (["y", "z"], [3]), (["w", "z"], [1])]
    w5 = find_k4_minus_subdivision(catalog.get("w5").graph)
    assert w5.branch_vertices == ("1", "2", "3", "w")
    assert paths(w5) == [
        (["1", "2"], [0]), (["1", "3"], [3, 2, 1]), (["1", "w"], [5]),
        (["2", "3"], [4]), (["2", "w"], [7]), (["3", "w"], [8])]


def _k4_with_paths(length):
    """An all-negative K4 with each edge a path of length edges, its
    first edge negative."""
    edges, fresh = [], 4
    for a, b in combinations(range(4), 2):
        ends = [a, *range(fresh, fresh + length - 1), b]
        fresh += length - 1
        edges += [(u, v, NEG if i == 0 else POS)
                  for i, (u, v) in enumerate(zip(ends, ends[1:]))]
    return build_graph(edges)


def test_deep_k4_minus_search_is_a_guard_refusal():
    # the path search recurses once per step: six paths of 200 edges run
    # past the interpreter's recursion limit, six of 100 do not
    g = _k4_with_paths(100)
    assert k4_minus_subdivision_edge_sets(g) == (frozenset(range(g.m)),)
    with pytest.raises(GuardExceeded, match="recursion limit"):
        k4_minus_subdivision_edge_sets(_k4_with_paths(200))


def test_k4_minus_subdivision_counts_on_larger_graphs():
    # past the exhaustive edge-subset checks (m <= 10): a search that
    # prunes too much finds fewer edge sets
    def count(g):
        return len(k4_minus_subdivision_edge_sets(g))

    assert [count(ghat(t)) for t in range(4)] == [2, 12, 30, 56]
    for t in (1, 2):
        g = ghat_planar(t)[0]
        assert count(g) == 0 and find_k4_minus_subdivision(g) is None
    p3 = [count(catalog.get(n).graph) for n in catalog.entries_with_tag("P3*")]
    assert p3 == [2, 5, 4, 4, 6, 6, 4, 8, 4, 8]
    assert count(catalog.get("s3-projective").graph) == 120
    assert count(catalog.get("s3-petersen").graph) == 45
    assert count(ghat(4)) == 90
    g = ghat_planar(3)[0]
    assert count(g) == 0 and find_k4_minus_subdivision(g) is None

    def least_negative_edge(name):
        gmin = minimum_signature_switch(catalog.get(name).graph)
        return gmin, min(gmin.negative_edge_ids)

    # a join of two k = 3 entries as criterion 7 builds it, m = 27
    joined = h_join(*least_negative_edge("k5-minus"),
                    *least_negative_edge("s3-projective"))
    assert joined.m == 27 and count(joined) == 664


# -- the unpruned K4- path search, an oracle for the prune ---------------------------

# every triangle checked, the implied (3, 4, 5) included
_ALL_TRIANGLES = ((), (), (), ((0, 1, 3),), ((0, 2, 4),),
                  ((1, 2, 5), (3, 4, 5)))


def _unpruned_subdivisions(g, allowed=None, nodes=None):
    """The K4- subdivisions inside allowed, in the search order, found by
    the path search without the prune; appends one entry to nodes, when
    given, per search node."""
    adj = structure._adjacency(
        g, range(g.m) if allowed is None else sorted(allowed))
    pairs = structure._PAIR_ORDER

    def grow(quad, taken, steps, done, used, pi, v, sign, begin):
        if nodes is not None:
            nodes.append(quad)
        a, b = pairs[pi]
        y = quad[b]
        for eid, o, s in adj[v]:
            if used >> eid & 1:
                continue
            if o == y:
                steps.append((eid, o))
                path = steps[begin:]
                done.append((((quad[a], y), tuple(e for e, _ in path),
                              (quad[a], *[w for _, w in path])), sign * s))
                if all(done[i][1] * done[j][1] * done[k][1] == NEG
                       for i, j, k in _ALL_TRIANGLES[pi]):
                    if pi == 5:
                        yield tuple(p for p, _ in done)
                    else:
                        yield from grow(quad, taken, steps, done,
                                        used | 1 << eid, pi + 1,
                                        quad[pairs[pi + 1][0]], POS,
                                        len(steps))
                done.pop()
                steps.pop()
            elif o not in taken:
                taken.add(o)
                steps.append((eid, o))
                yield from grow(quad, taken, steps, done, used | 1 << eid,
                                pi, o, sign * s, begin)
                steps.pop()
                taken.remove(o)

    candidates = sorted((v for v, entries in adj.items() if len(entries) >= 3),
                        key=g.vindex.__getitem__)
    for quad in combinations(candidates, 4):
        for system in grow(quad, set(quad), [], [], 0, 0, quad[0], POS, 0):
            yield structure.K4MinusSubdivision(quad, system)


def _subdivisions(g):
    """`structure._systems` on every edge of g, as K4MinusSubdivision."""
    return [structure.K4MinusSubdivision(quad, paths)
            for quad, _, paths in structure._systems(g, range(g.m))]


# the first two quadruples, (2, 3, 4, 1) and (2, 3, 4, 0), have no system;
# the prune cuts nodes of both before the witness on (2, 3, 1, 0)
_PRUNED_BEFORE_WITNESS = build_graph([
    (2, 3, "-"), (4, 2, "+"), (4, 3, "-"), (1, 3, "-"), (0, 4, "+"),
    (0, 3, "+"), (4, 2, "-"), (3, 4, "-"), (0, 1, "+"), (1, 2, "-")])


# ghat_planar(1) beside k5-minus: 495 quadruples, the witness on one of
# the last five, so the lookahead runs past the gate and finds it
_WITNESS_PAST_THE_GATE = build_graph(
    [(f"p{e.u}", f"p{e.v}", e.sign) for e in ghat_planar(1)[0].edges]
    + [(f"k{e.u}", f"k{e.v}", e.sign)
       for e in catalog.get("k5-minus").graph.edges])


@given(st.one_of(signed_graphs(max_n=7, max_m=14), part_unions(max_m=14)),
       st.randoms(use_true_random=False))
@example(_PRUNED_BEFORE_WITNESS, random.Random(0))
@example(ghat_planar(1)[0], random.Random(0))  # 35 quadruples, no system
@example(_WITNESS_PAST_THE_GATE, random.Random(0))
@settings(max_examples=80, deadline=None)
def test_pruned_k4_minus_search_matches_the_unpruned_oracle(g, rng):
    assert _subdivisions(g) == list(_unpruned_subdivisions(g))
    assert find_k4_minus_subdivision(g) == next(_unpruned_subdivisions(g),
                                                None)
    # on an edge subset, as `_Stream.source(2)` runs it: each system's
    # paths and its edge mask
    allowed = frozenset(e for e in range(g.m) if rng.random() < 0.7)
    expected = list(_unpruned_subdivisions(g, allowed))
    systems = list(structure._systems(g, sorted(allowed)))
    assert [structure.K4MinusSubdivision(quad, paths)
            for quad, _, paths in systems] == expected
    assert [frozenset(structure._ids(es)) for _, es, _ in systems] == [
        w.edge_ids for w in expected]


def test_prune_cuts_the_search(monkeypatch):
    # the oracle test passes without the prune too; this one does not.
    # The node counts are deterministic: pinned, they also catch a prune
    # that loses the direct edges' share of free.
    grow, nodes = structure._grow, []

    def counted(*args):
        nodes.append(args)
        return grow(*args)

    monkeypatch.setattr(structure, "_grow", counted)
    g, oracle_nodes = _PRUNED_BEFORE_WITNESS, []
    witness = next(_unpruned_subdivisions(g, nodes=oracle_nodes))
    assert find_k4_minus_subdivision(g) == witness
    assert (len(nodes), len(oracle_nodes)) == (31, 42)
    g, nodes[:], oracle_nodes = ghat(1), [], []
    assert _subdivisions(g) == list(_unpruned_subdivisions(
        g, nodes=oracle_nodes))
    assert (len(nodes), len(oracle_nodes)) == (323, 477)


def test_lookahead_cuts_the_search_past_the_gate(monkeypatch):
    # deterministic node counts of find on graphs without a K4-, as (plain,
    # lookahead): the first _GATE quadruples on the plain search, the rest
    # on the lookahead (1053 / 8415 / 49049 nodes on the plain search alone)
    grow, nodes = structure._grow, []

    def counted(*args):
        nodes.append(args[-1] is not None)
        return grow(*args)

    monkeypatch.setattr(structure, "_grow", counted)
    counts = []
    for t in (1, 2, 3):
        nodes.clear()
        assert find_k4_minus_subdivision(ghat_planar(t)[0]) is None
        counts.append((nodes.count(False), nodes.count(True)))
    assert structure._GATE == 12
    assert counts == [(284, 62), (731, 453), (2169, 1591)]
    nodes.clear()
    witness = find_k4_minus_subdivision(_WITNESS_PAST_THE_GATE)
    assert witness == next(_unpruned_subdivisions(_WITNESS_PAST_THE_GATE))
    assert nodes[-1]


@given(st.one_of(signed_graphs(max_n=8, max_m=16), part_unions(max_m=16)))
@example(ghat_planar(1)[0])
@settings(max_examples=60, deadline=None)
def test_lookahead_keeps_every_system_in_order(g):
    # the oracle test sees only find's first witness past the gate; here
    # every system is listed with the lookahead from the first quadruple
    # and without it
    assert (list(structure._systems(g, range(g.m), 0))
            == list(structure._systems(g, range(g.m))))


@given(st.one_of(signed_graphs(max_n=8, max_m=16), part_unions(max_m=16)),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_each_system_mask_is_the_union_of_its_paths(g, rng):
    eids = sorted(e for e in range(g.m) if rng.random() < 0.8)
    for quad, es, paths in structure._systems(g, eids):
        ids = [e for _, path, _ in paths for e in path]
        assert es == sum({1 << e for e in ids}) and es.bit_count() == len(ids)
        assert {ends for ends, _, _ in paths} == {
            (quad[a], quad[b]) for a, b in structure._PAIR_ORDER}


@given(signed_graphs(max_n=7, max_m=12, loops=False), st.data())
@settings(max_examples=80, deadline=None)
def test_parity_reach_covers_every_simple_path(g, data):
    # the lookahead may cut only where no path of the needed sign exists
    adj = structure._adjacency(g, range(g.m))
    bits = structure._bits(adj)
    look = structure._Lookahead(adj, bits)
    taken = data.draw(st.integers(0, look.every))

    def paths(v, sign, seen):
        # (end, sign) of every simple path from v whose inner vertices lie
        # outside taken
        for _, o, s in adj[v]:
            if o not in seen:
                yield o, sign * s
                if not taken & bits[o]:
                    yield from paths(o, sign * s, seen | {o})

    for v in adj:
        even, odd = look.reach(taken, bits[v])
        for o, sign in paths(v, POS, {v}):
            assert (even if sign == POS else odd) & bits[o]


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


def _partition_oracle(g, k) -> set:
    """Brute force: every set partition of the edges into at least two
    blocks with indices summing to k, each block a negative cycle (1) or an
    enumerated K4- edge set (2), plus at k = 4 a negative cycle next to a
    critically 3-frustrated block with no such partition of its own.
    Blocks are tried as every subset holding the lowest open edge."""
    cycles = {c.edge_set for c in negative_cycles(g)}
    k4s = set(k4_minus_subdivision_edge_sets(g))
    everything = frozenset(range(g.m))
    out = set()

    def blocks(remaining, budget, parts):
        if not remaining:
            if budget == 0 and len(parts) >= 2:
                out.add(frozenset(parts))
            return
        e0 = min(remaining)
        rest = sorted(remaining - {e0})
        for r in range(len(rest) + 1):
            for combo in combinations(rest, r):
                block = frozenset((e0, *combo))
                w = 1 if block in cycles else 2 if block in k4s else 0
                if 0 < w <= budget:
                    blocks(remaining - block, budget - w,
                           parts + ((block, w),))

    blocks(everything, k, ())
    if k == 4:
        for c in cycles:
            sub = g.restrict(everything - c)
            if (sub.m and frustration_index(sub).index == 3
                    and is_critical(sub, 3) and not _partition_oracle(sub, 3)):
                out.add(frozenset({(c, 1), (everything - c, 3)}))
    return out


@given(st.one_of(part_unions(max_m=14), signed_graphs(max_n=6, max_m=10)))
@example(build_graph(  # K4- holding the lowest edge next to a loop: (1, 2)
    [(u, v, "-") for u in range(4) for v in range(u)] + [(4, 4, "-")]))
@example(build_graph(  # two disjoint K4-: (2, 2)
    [(u + s, v + s, "-") for s in (0, 4) for u in range(4) for v in range(u)]))
@example(build_graph(  # a critically 3-frustrated part next to a loop: (1, 3)
    [(e.u, e.v, e.sign) for e in catalog.get("k5-minus").graph.edges]
    + [("x", "x", "-")]))
@example(build_graph(  # K4- holding the lowest edge next to two loops
    [(u, v, "-") for u in range(4) for v in range(u)]
    + [(4, 4, "-"), (5, 5, "-")]))
@example(build_graph(  # K4- next to two negative cycles sharing 0-4, 5-1
    [(u, v, "-") for u in range(4) for v in range(u)]
    + [(0, 4, "-"), (4, 5, "+"), (4, 5, "+"), (5, 1, "+"), (1, 0, "+"),
       (1, 0, "+")]))
@settings(max_examples=120, deadline=None)
def test_decompositions_match_the_partition_oracle(g):
    for k in (2, 3, 4):
        got = find_decompositions(g, k)
        assert len({frozenset(d.parts) for d in got}) == len(got)
        assert {frozenset(d.parts) for d in got} == _partition_oracle(g, k)
        assert is_decomposable(g, k) == bool(got)


@pytest.mark.parametrize("make, counts", [
    (ghat, {0: 2, 1: 10, 2: 42, 3: 170, 4: 682}),
    (lambda t: ghat_planar(t)[0], {1: 22, 2: 86, 3: 342}),
])
def test_ladder_decomposition_counts(make, counts):
    assert {t: len(find_decompositions(make(t))) for t in counts} == counts


@pytest.mark.parametrize("g", [ghat(1), ghat(2), ghat(3),
                               ghat_planar(1)[0], ghat_planar(2)[0]],
                         ids=["ghat1", "ghat2", "ghat3", "planar1", "planar2"])
def test_ladder_decompositions_are_the_cycle_triples(g):
    # every decomposition of these ladders is three negative cycles: each
    # pair of disjoint negative cycles whose complement is a negative cycle,
    # read off negative_cycles alone
    cycles = [c.edge_set for c in negative_cycles(g)]
    known = set(cycles)
    everything = frozenset(range(g.m))
    triples = {frozenset((a, b, everything - a - b))
               for a, b in combinations(cycles, 2)
               if not a & b and everything - a - b in known}
    expected = sorted(tuple(sorted(map(sorted, t))) for t in triples)
    got = find_decompositions(g)
    assert all(d.kind == (1, 1, 1) for d in got)
    assert [tuple(sorted(map(sorted, (p for p, _ in d.parts))))
            for d in got] == expected


def _partition_brute_force(g):
    """Brute force that does not call the search: partitions(edges, k) is
    every partition of the edge set edges into at least two blocks with
    indices summing to k, each block critically frustrated (by
    frustration_index and is_critical) with no such partition of its own.
    Blocks are tried as every subset holding the lowest open edge, and the
    verdict on a block is memoized per edge set."""
    verdict = {}  # edge set -> its index if a non-decomposable critical part

    def part_index(block):
        if block not in verdict:
            sub = g.restrict(block)
            j = frustration_index(sub).index
            verdict[block] = j if (j and is_critical(sub, j)
                                   and not partitions(block, j)) else 0
        return verdict[block]

    def partitions(edges, k):
        out = set()

        def grow(remaining, budget, parts):
            if not remaining:
                if budget == 0:
                    out.add(frozenset(parts))
                return
            e0 = min(remaining)
            rest = sorted(remaining - {e0})
            for r in range(len(rest) + 1):
                for combo in combinations(rest, r):
                    block = frozenset((e0, *combo))
                    if block != edges and 0 < part_index(block) <= budget:
                        j = part_index(block)
                        grow(remaining - block, budget - j,
                             parts + ((block, j),))

        if k >= 2:
            grow(edges, k, ())
        return out

    return partitions


def _disjoint_union(*edge_lists):
    return build_graph([(f"{i}:{u}", f"{i}:{v}", s)
                        for i, edges in enumerate(edge_lists)
                        for u, v, s in edges])


_K4 = [(u, v, "-") for u in range(4) for v in range(u)]
_K5_MINUS = [(e.u, e.v, e.sign)
             for e in catalog.get("k5-minus").graph.edges]
_LOOP = [(0, 0, "-")]


@given(st.one_of(part_unions(max_m=11), signed_graphs(max_n=6, max_m=11)))
@example(_disjoint_union(_K4, _K5_MINUS))  # (2, 3), index 3 avoiding e0
@example(_disjoint_union(_K4, _K4, _LOOP))  # (1, 2, 2)
@example(_disjoint_union(_K5_MINUS, _LOOP, _LOOP))  # (1, 1, 3)
@example(_disjoint_union(_K4, _LOOP, _LOOP, _LOOP))  # (1, 1, 1, 2)
@settings(max_examples=40, deadline=None)
def test_decompositions_above_index_4_match_the_brute_force(g):
    partitions = _partition_brute_force(g)
    for k in (5, 6):
        got = find_decompositions(g, k)
        assert len({frozenset(d.parts) for d in got}) == len(got)
        assert ({frozenset(d.parts) for d in got}
                == partitions(frozenset(range(g.m)), k))
        assert all(g.restrict(part).is_connected
                   for d in got for part, _ in d.parts)


def test_pinned_examples_above_index_4_have_their_kinds():
    assert [d.kind for d in find_decompositions(
        _disjoint_union(_K5_MINUS, _K4))] == [(2, 3)]
    cases = {
        (2, 3): _disjoint_union(_K4, _K5_MINUS),
        (1, 2, 2): _disjoint_union(_K4, _K4, _LOOP),
        (1, 1, 3): _disjoint_union(_K5_MINUS, _LOOP, _LOOP),
        (1, 1, 1, 2): _disjoint_union(_K4, _LOOP, _LOOP, _LOOP),
    }
    for kind, g in cases.items():
        assert [d.kind for d in find_decompositions(g)] == [kind]


def test_loop_bouquet_splits_into_its_loops_without_part_tests(monkeypatch):
    calls = []
    tested = structure._critical_part
    monkeypatch.setattr(structure, "_critical_part",
                        lambda *args: calls.append(args) or tested(*args))
    ds = find_decompositions(build_graph([(0, 0, "-")] * 12))
    assert len(ds) == 1 and ds[0].kind == (1,) * 12
    assert calls == []


def test_parity_skips_the_k4_minus_tests_it_rules_out(monkeypatch):
    # cycles keep degree parity, so where the non-loop edges do not have
    # exactly four odd vertices no last part of index 2 is a K4-
    calls = []
    tested = structure._k4_minus_edge_set
    monkeypatch.setattr(structure, "_k4_minus_edge_set",
                        lambda *args: calls.append(args) or tested(*args))
    assert len(find_decompositions(ghat(4))) == 682
    assert calls == []
    two_loops = _disjoint_union(_K4, _LOOP, _LOOP)
    assert [d.kind for d in find_decompositions(two_loops)] == [(1, 1, 2)]
    assert calls


def test_the_verdict_builds_no_decomposition(monkeypatch):
    # only find_decompositions turns the search's edge masks into values;
    # the loop beside k5-minus makes its index-3 part a `_critical_part`
    def refuse(*args):
        raise AssertionError("Decomposition built")

    monkeypatch.setattr(structure, "Decomposition", refuse)
    assert is_decomposable(ghat(2))
    assert is_decomposable(_disjoint_union(_K5_MINUS, _LOOP), 4)


def test_positive_loop_blocks_decomposition_at_every_k():
    # a positive loop lies on no negative cycle, so in no critical part
    g = build_graph(_K4 + [(4, 4, "-"), (5, 5, "-"), (5, 5, "+")])
    assert all(find_decompositions(g, k) == () for k in range(7))


def test_no_partition_above_the_negative_edge_count(monkeypatch):
    # a minimum cover meets each part in a cover of it, so the part
    # indices sum to at most the index, which the negative edges bound:
    # ghat(3) has three, and k = 5 is answered without the subset search
    def refuse(*args):
        raise AssertionError("subset search reached")

    monkeypatch.setattr(structure, "_large_parts", refuse)
    g = ghat(3)
    assert g.negative_mask.bit_count() == 3
    assert not is_decomposable(g, 5)
    assert find_decompositions(g, 4) == ()


def test_k4_joins_of_index_4_are_not_decomposable():
    def minimum_form(name):
        g = catalog.get(name).graph
        gmin = switch(g, frustration_index(g).switch_set)
        return gmin, min(gmin.negative_edge_ids)

    k4, e = minimum_form("k4-minus-all")
    for name in ("k5-minus", "w5", "g4", "g4-prime", "s3-petersen"):
        other, f = minimum_form(name)
        for joined in (h_join(k4, e, other, f), h_join(other, f, k4, e)):
            assert frustration_index(joined).index == 4, name
            assert not is_decomposable(joined, 4), name


# -- star-class membership ---------------------------------------------------------


def test_in_s_star_examples():
    assert in_s_star(k4_all_negative())
    loop = build_graph([(0, 0, "-")])
    assert in_s_star(loop)


def test_in_s_star_preconditions():
    with pytest.raises(PreconditionError):
        in_s_star(build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")]))  # reducible
    with pytest.raises(PreconditionError):
        # the positive bridge can be deleted without lowering the index
        in_s_star(build_graph([(0, 0, "-"), (1, 1, "-"), (0, 1, "+")]))


def test_k4_minus_search_leaves_no_garbage():
    # the lookahead's memo and the search state may not outlive the call
    g = ghat_planar(3)[0]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert find_k4_minus_subdivision(g) is None
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("search", [find_decompositions, is_decomposable])
def test_decomposition_search_leaves_no_garbage(search):
    # nothing the search builds may outlive the call in a reference cycle
    g = ghat(4)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        search(g)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
