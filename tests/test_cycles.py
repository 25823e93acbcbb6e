import itertools

import pytest
from hypothesis import example, given, settings

from signforge.core import Cycle, NEG, build_graph
from signforge.cycles import (enumerate_cycles, has_two_edge_disjoint_negative_cycles,
                              is_double_cover, is_leq2_cover,
                              max_edge_disjoint_negative_cycles,
                              min_negative_cycle_cover, negative_cycle_double_cover,
                              negative_cycles, packing_number)
from signforge.errors import CycleCapExceeded, PreconditionError
from signforge.frustration import frustration_index
from signforge.constructions import ghat
from strategies import signed_graphs


def k4_all_negative():
    return build_graph([(u, v, "-") for u in range(4) for v in range(u)])


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


def test_double_cover_checks_index_precondition():
    g = k4_all_negative()
    with pytest.raises(PreconditionError):
        negative_cycle_double_cover(g, 3)


def test_single_loop_needs_a_repeated_cycle():
    g = build_graph([(0, 0, "-")])
    dc = negative_cycle_double_cover(g, 1)
    assert dc is not None and len(dc) == 2
    assert negative_cycle_double_cover(g, 1, distinct_only=True) is None


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


def test_cycle_cap_is_enforced(monkeypatch):
    import signforge.guards as guards
    monkeypatch.setattr(guards, "CYCLE_CAP", 3)
    g = k4_all_negative()
    with pytest.raises(CycleCapExceeded):
        enumerate_cycles(g)
    monkeypatch.setenv("SIGNFORGE_GUARD_OVERRIDE", "1")
    assert len(enumerate_cycles(g)) == 7


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


def _disjoint(fam):
    return sum(len(c.edge_ids) for c in fam) == len(
        set().union(*(c.edge_set for c in fam)))


_loop = build_graph([(0, 0, NEG)])  # its only double cover repeats the loop
_bridge = build_graph([(0, 0, NEG), (0, 1, "+")])  # edge 1 on no negative cycle


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
@settings(max_examples=100, deadline=None)
def test_double_cover_is_the_first_family_covering_each_edge_twice(g):
    cycles = _sorted_negative_cycles(g)
    k = frustration_index(g).index
    twice = sorted(list(range(g.m)) * 2)

    def covers(fam):
        return sorted(e for c in fam for e in c.edge_ids) == twice

    assert negative_cycle_double_cover(g, k) == _first(
        itertools.combinations_with_replacement(cycles, 2 * k), covers)
    assert negative_cycle_double_cover(g, k, distinct_only=True) == _first(
        itertools.combinations(cycles, 2 * k), covers)
