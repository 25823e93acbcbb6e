import itertools
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signforge.core import Cycle, NEG, build_graph, validate_cycle
from signforge import catalog
from signforge.acceptance import random_signed_graph
from signforge.cycles import (_cycle_table, _least_family, enumerate_cycles,
                              has_two_edge_disjoint_negative_cycles,
                              is_double_cover, is_leq2_cover,
                              max_edge_disjoint_negative_cycles,
                              min_negative_cycle_cover, negative_cycle_double_cover,
                              negative_cycles, packing_number)
from signforge.errors import (CycleCapExceeded, GuardExceeded,
                              PreconditionError)
from signforge.frustration import frustration_index
from signforge.constructions import ghat, ghat_planar
from signforge.structure import find_decompositions
from strategies import k4_all_negative, signed_graphs


def test_k4_cycle_census():
    g = k4_all_negative()
    cs = enumerate_cycles(g)
    assert len(cs) == 7  # 4 triangles + 3 four-cycles
    negs = negative_cycles(g)
    assert len(negs) == 4
    assert all(len(c.edge_ids) == 3 for c in negs)


def test_loops_and_digons_are_cycles():
    g = build_graph([(0, 0, "-"), (0, 1, "+"), (0, 1, "-")])
    cs = enumerate_cycles(g)
    assert sorted(len(c.edge_ids) for c in cs) == [1, 2]
    assert len(negative_cycles(g)) == 2


def test_cover_of_balanced_graph_is_empty():
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "+")])
    assert min_negative_cycle_cover(g) == ()


def test_cover_meets_every_negative_cycle_and_matches_index():
    g = k4_all_negative()
    cover = min_negative_cycle_cover(g)
    assert len(cover) == frustration_index(g).index == 2
    for c in negative_cycles(g):
        assert c.edge_set & set(cover)


def test_packing_examples():
    assert packing_number(k4_all_negative()) == 1
    assert packing_number(ghat(0)) == 3
    two = build_graph([(0, 0, "-"), (1, 1, "-"), (0, 1, "+")])
    assert packing_number(two) == 2
    assert has_two_edge_disjoint_negative_cycles(two)
    assert not has_two_edge_disjoint_negative_cycles(k4_all_negative())


def test_packing_witness_is_disjoint_and_negative():
    g = ghat(1)
    fam = max_edge_disjoint_negative_cycles(g)
    seen = set()
    for c in fam:
        assert not (c.edge_set & seen)
        seen |= c.edge_set
    assert len(fam) == packing_number(g)


def test_double_cover_k4():
    g = k4_all_negative()
    dc = negative_cycle_double_cover(g, 2)
    assert dc is not None and len(dc) == 4
    assert is_double_cover(g, dc)
    assert is_leq2_cover(g, dc)


def test_no_double_cover_above_the_index():
    # a minimum signature meets every member an odd number of times, so
    # 2k <= 2 * index: the family search agrees with the switching scan
    graphs = [catalog.get(name).graph for name in catalog.names()]
    graphs = [g for g in graphs if g.m <= 16]
    graphs += [random_signed_graph(Random(s), 7, 11) for s in range(300)]
    for g in graphs:
        k = frustration_index(g).index + 1
        assert negative_cycle_double_cover(g, k) is None


def test_double_cover_runs_past_the_switching_guard():
    g = build_graph([(i, (i + 1) % 30, "-" if i == 0 else "+")
                     for i in range(30)])
    with pytest.raises(GuardExceeded):
        frustration_index(g)
    dc = negative_cycle_double_cover(g, 1)
    assert [c.edge_ids for c in dc] == [tuple(range(30))] * 2


def test_double_cover_rejects_a_negative_k():
    with pytest.raises(PreconditionError):
        negative_cycle_double_cover(k4_all_negative(), -1)


def test_single_loop_needs_a_repeated_cycle():
    g = build_graph([(0, 0, "-")])
    dc = negative_cycle_double_cover(g, 1)
    assert dc is not None and len(dc) == 2


def test_leq2_cover_rejects_positive_members():
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "+")])
    c = Cycle((0, 1, 2), (0, 1, 2, 0))
    with pytest.raises(PreconditionError):
        is_leq2_cover(g, [c])


def test_overfull_family_is_not_leq2():
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")])
    c = negative_cycles(g)[0]
    assert is_leq2_cover(g, [c, c])
    assert not is_leq2_cover(g, [c, c, c])


def test_exact_hits_need_options_sorted_by_lowest_item():
    with pytest.raises(PreconditionError):
        _least_family([0b10, 0b01], 0b11, 2, 1, 1,
                      [0b10, 0b01])  # lo == hi
    assert _least_family([0b10, 0b01], 0b11, 1, 0, 1,
                         [0b10, 0b01]) == (0,)


@pytest.mark.parametrize("lo,hi", [(2, 2), (1, None), (0, 1)])
def test_empty_options_are_refused(lo, hi):
    # in block mode the search would skip the empty option and miss (0, 1, 2)
    with pytest.raises(PreconditionError):
        _least_family([0, 1, 1], 1, 3, lo, hi, [0b110])


def _digons(count):
    return build_graph([(2 * i, 2 * i + 1, sign) for i in range(count)
                        for sign in "-+"])


def test_a_family_search_past_the_recursion_limit_is_a_guard_refusal():
    # the family search recurses once per pick: a cover or packing of
    # 1200 digons runs past the interpreter's limit, one of 600 does not
    g = _digons(600)
    assert len(min_negative_cycle_cover(g)) == packing_number(g) == 600
    g = _digons(1200)
    for search in (min_negative_cycle_cover, packing_number):
        with pytest.raises(GuardExceeded, match="recursion limit"):
            search(g)


def test_cycle_cap_is_enforced(monkeypatch):
    import signforge.guards as guards
    monkeypatch.setattr(guards, "CYCLE_CAP", 3)
    g = k4_all_negative()
    with pytest.raises(CycleCapExceeded):
        enumerate_cycles(g)
    monkeypatch.setenv("SIGNFORGE_GUARD_OVERRIDE", "1")
    assert len(enumerate_cycles(g)) == 7


def test_cycle_cap_counts_every_cycle_at_the_boundary(monkeypatch):
    import signforge.guards as guards
    # an all-negative K4 (its three 4-cycles positive) beside a negative
    # triangle: index 3, so find_decompositions builds the cycle table
    g = build_graph([(u, v, "-") for u in range(4) for v in range(u)]
                    + [(3, 4, "+"), (4, 5, "+"), (5, 3, "-")])
    total = len(enumerate_cycles(g))
    assert (total, len(negative_cycles(g))) == (8, 5)
    calls = (negative_cycles, min_negative_cycle_cover, find_decompositions)
    monkeypatch.setattr(guards, "CYCLE_CAP", total)
    for call in calls:
        call(g)
    assert len(find_decompositions(g)) == 1
    monkeypatch.setattr(guards, "CYCLE_CAP", total - 1)
    for call in calls:
        with pytest.raises(CycleCapExceeded):
            call(g)


_loop = build_graph([(0, 0, NEG)])  # its only double cover repeats the loop
_bridge = build_graph([(0, 0, NEG), (0, 1, "+")])  # edge 1 on no negative cycle


# -- brute-force oracle for the enumerator ---------------------------------------

def _walks(g, eids):
    """The two closed walks around the cycle on edge set eids (one for a
    loop), from its least vertex, as Cycle values."""
    index = g.vindex
    start = min((v for e in eids for v in (g.edges[e].u, g.edges[e].v)),
                key=index.__getitem__)
    out = []
    for first in (e for e in eids if start in (g.edges[e].u, g.edges[e].v)):
        es, vs = [first], [start, g.edges[first].other(start)]
        while vs[-1] != start:
            es.append(next(e for e in eids if e not in es
                           and vs[-1] in (g.edges[e].u, g.edges[e].v)))
            vs.append(g.edges[es[-1]].other(vs[-1]))
        out.append(Cycle(tuple(es), tuple(vs)))
    return out


def _is_cycle(g, eids):
    """Connected and 2-regular, a loop counting 2: so a single loop is one."""
    ends = [v for e in eids for v in (g.edges[e].u, g.edges[e].v)]
    if any(ends.count(v) != 2 for v in ends):
        return False
    reach, grew = {ends[0]}, True
    while grew:
        grew = False
        for e in eids:
            u, v = g.edges[e].u, g.edges[e].v
            if (u in reach) != (v in reach):
                reach |= {u, v}
                grew = True
    return reach == set(ends)


@given(signed_graphs(max_n=5, max_m=8))
@example(build_graph([(0, 1, "+"), (0, 1, "-"), (1, 0, "+")]))  # triple bundle
@example(_loop)
# vertex 0's only edge to a later vertex is its highest: no walk starts there
@example(build_graph([(0, 0, NEG), (1, 2, "+"), (2, 3, "-"), (3, 1, "+"),
                      (0, 1, "-")]))
@example(build_graph([(0, 1, "-"), (0, 2, "+"), (2, 1, "+"), (0, 3, "+"),
                      (3, 1, "-")]))  # a theta graph
@example(build_graph([(0, 0, NEG), (0, 1, "+"), (1, 0, "-"),
                      (0, 1, "+")]))  # a triple bundle beside a negative loop
@settings(max_examples=100, deadline=None)
def test_enumerator_equals_brute_force_over_edge_subsets(g):
    cycles = [c for size in range(1, g.m + 1)
              for es in itertools.combinations(range(g.m), size)
              if _is_cycle(g, es)
              for c in [min(_walks(g, es), key=lambda c: c.edge_ids)]]
    want = sorted(cycles, key=lambda c: (len(c), c.edge_ids))
    neg = [c for c in want
           if sum(g.edges[e].sign == NEG for e in c.edge_ids) % 2]
    got = enumerate_cycles(g)
    assert got == tuple(want)
    assert enumerate_cycles(g, negative_only=True) == tuple(neg)
    for c in got:
        validate_cycle(g, c)


def _check_cycle_table(g):
    """_cycle_table against its definition: the negative cycles by sorted
    edge-id tuple, their edge masks, and per edge the mask of the cycles
    through it."""
    cycles = _sorted_negative_cycles(g)
    walks, masks, through = _cycle_table(g)
    assert [Cycle(*w) for w in walks] == cycles
    assert masks == [sum(1 << e for e in c.edge_ids) for c in cycles]
    assert through == [sum(1 << i for i, c in enumerate(cycles)
                           if e in c.edge_ids) for e in range(g.m)]


@pytest.mark.parametrize("name", catalog.names())
def test_cycle_table_on_the_catalog(name):
    _check_cycle_table(catalog.get(name).graph)


@given(signed_graphs(max_n=6, max_m=10))
@example(_loop)
@example(_bridge)
@settings(max_examples=100, deadline=None)
def test_cycle_table_matches_its_definition(g):
    _check_cycle_table(g)


# -- brute-force oracles for the one family search -------------------------------
# Each takes the first family in itertools order that meets the definition,
# so the search's lex-least witnesses are checked, not just its sizes.

def _sorted_negative_cycles(g):
    return sorted(negative_cycles(g), key=lambda c: tuple(sorted(c.edge_ids)))


def _first(families, ok):
    return next((f for f in families if ok(f)), None)


def _first_by_size(sizes, families, ok):
    """The first family meeting ok, of the first size that has one."""
    for size in sizes:
        found = _first(families(size), ok)
        if found is not None:
            return found


def _first_family(options, universe, size, lo, hi, repeat):
    """The first ascending index tuple in itertools order, no index more
    than repeat times, that hits every item of universe between lo and hi
    times (hi None: no bound)."""
    items = [i for i in range(universe.bit_length()) if universe >> i & 1]
    return _first(itertools.combinations_with_replacement(
        range(len(options)), size), lambda fam: all(
            fam.count(j) <= repeat for j in fam) and all(
            lo <= sum(options[j] >> i & 1 for j in fam) <= (hi or size)
            for i in items))


@st.composite
def _family_problems(draw, lo, hi):
    """Random non-empty options over a random universe of at most 6
    items, sorted by lowest item when lo == hi, and a family size."""
    universe = draw(st.integers(1, 63))
    options = draw(st.lists(st.integers(1, 63).map(universe.__and__)
                            .filter(bool), max_size=7))
    if lo == hi:
        options.sort(key=lambda o: o & -o)
    return options, universe, draw(st.integers(0, 5))


# repeat, the oracle's bound on each index's uses, is hi or 1: the search
# picks an option again only while hi leaves its items room
@pytest.mark.parametrize("lo,hi,repeat", [(1, None, 1), (0, 1, 1),
                                          (2, 2, 2)])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_least_family_is_the_first_family_in_itertools_order(
        lo, hi, repeat, data):
    options, universe, size = data.draw(_family_problems(lo, hi))
    hitters = [sum(1 << j for j, o in enumerate(options) if o >> i & 1)
               for i in range(universe.bit_length())]
    assert _least_family(options, universe, size, lo, hi,
                         hitters) == _first_family(options, universe, size,
                                                   lo, hi, repeat)


def _disjoint(fam):
    return sum(len(c.edge_ids) for c in fam) == len(
        set().union(*(c.edge_set for c in fam)))


@given(signed_graphs(max_n=5, max_m=8))
@example(_loop)
@example(_bridge)
@settings(max_examples=100, deadline=None)
def test_cover_is_the_first_hitting_edge_set_in_size_order(g):
    sets = [c.edge_set for c in negative_cycles(g)]
    want = _first_by_size(range(g.m + 1),
                          lambda size: itertools.combinations(range(g.m), size),
                          lambda es: all(s & set(es) for s in sets))
    assert min_negative_cycle_cover(g) == want


@given(signed_graphs(max_n=5, max_m=8))
@example(_loop)
@example(_bridge)
@settings(max_examples=100, deadline=None)
def test_packing_is_the_first_disjoint_family_largest_size_first(g):
    cycles = _sorted_negative_cycles(g)
    # a packing never outgrows the index: each member needs its own edge
    # of a minimum cover
    k = frustration_index(g).index
    want = _first_by_size(range(min(k, len(cycles)), -1, -1),
                          lambda size: itertools.combinations(cycles, size),
                          _disjoint)
    assert max_edge_disjoint_negative_cycles(g) == want
    want2 = want if len(want) <= 2 else _first(
        itertools.combinations(cycles, 2), _disjoint)
    assert max_edge_disjoint_negative_cycles(g, stop_at=2) == want2


@given(signed_graphs(max_n=5, max_m=8))
@example(_loop)
@example(_bridge)
@example(build_graph([]))  # edgeless: the empty family is its double cover
# its witness repeats the first option of a block the search skips to
@example(build_graph([(1, 2, "-"), (0, 1, "+"), (0, 1, "-"), (2, 0, "+"),
                      (0, 0, "-"), (2, 2, "-"), (2, 1, "+")]))
@settings(max_examples=100, deadline=None)
def test_double_cover_is_the_first_family_covering_each_edge_twice(g):
    cycles = _sorted_negative_cycles(g)
    k = frustration_index(g).index
    twice = sorted(list(range(g.m)) * 2)

    def covers(fam):
        return sorted(e for c in fam for e in c.edge_ids) == twice

    assert negative_cycle_double_cover(g, k) == _first(
        itertools.combinations_with_replacement(cycles, 2 * k), covers)


# Witnesses of the search before its block rule, where that rule skips the
# most: each family as its cycles' edge-id tuples.
_PINNED_DOUBLE_COVERS = {
    "ghat_planar(2)": [
        (0, 3, 1, 13, 6, 5), (0, 3, 1, 13, 6, 5), (2, 15, 16, 12, 8, 9),
        (2, 15, 16, 12, 8, 9), (4, 17, 14, 11, 10, 7), (4, 17, 14, 11, 10, 7)],
    "ghat(3)": [
        (0, 3, 1, 19, 7, 6, 5), (0, 3, 1, 19, 7, 6, 5), (2, 12, 11, 10, 13),
        (2, 12, 11, 10, 13), (4, 8, 18, 17, 16, 15, 14, 9),
        (4, 8, 18, 17, 16, 15, 14, 9)],
}


@pytest.mark.parametrize("label", sorted(_PINNED_DOUBLE_COVERS))
def test_pinned_double_cover_witnesses(label):
    g = ghat_planar(2)[0] if label == "ghat_planar(2)" else ghat(3)
    dc = negative_cycle_double_cover(g, 3)
    assert [c.edge_ids for c in dc] == _PINNED_DOUBLE_COVERS[label]
    assert is_double_cover(g, dc)


# Witnesses of the search before its live options and length window, on
# graphs past the oracles' reach: packings as their cycles' edge-id tuples,
# the cover as edge ids.  ghat_planar(2)'s double covers above are those of
# the catalog's ladder-planar-2, the same graph.
_PINNED_FAMILIES = {
    ("packing", "ghat(4)"): [
        (0, 3, 1, 23, 8, 7, 6, 5), (2, 14, 13, 12, 11, 15),
        (4, 9, 22, 21, 20, 19, 18, 17, 16, 10)],
    ("packing", "ghat_planar(3)"): [
        (0, 3, 1, 17, 7, 6, 5), (2, 19, 20, 16, 10, 9, 11),
        (4, 21, 18, 15, 14, 13, 12, 8)],
    ("cover", "ghat(4)"): [0, 2, 10],
}


@pytest.mark.parametrize("kind,label", sorted(_PINNED_FAMILIES))
def test_pinned_packing_and_cover_witnesses(kind, label):
    g = ghat(4) if label == "ghat(4)" else ghat_planar(3)[0]
    if kind == "cover":
        assert list(min_negative_cycle_cover(g)) == _PINNED_FAMILIES[
            kind, label]
    else:
        fam = max_edge_disjoint_negative_cycles(g)
        assert [c.edge_ids for c in fam] == _PINNED_FAMILIES[kind, label]
        assert _disjoint(fam)
