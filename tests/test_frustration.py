import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signforge import frustration
from signforge.core import build_graph, switch
from signforge.errors import GuardExceeded
from signforge.frustration import (all_minimum_signatures, frustration_by_cover, minimum_signature_switch,
                                   frustration_index, is_minimum_signature)

from strategies import signed_graphs


def brute_force_index(g):
    """Independent oracle: minimize |E^-| over all 2^n switchings."""
    best = g.m
    for r in range(g.n + 1):
        for s in combinations(g.vertices, r):
            best = min(best, len(switch(g, frozenset(s)).negative_edge_ids))
    return best


def test_known_values():
    c3 = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")])
    assert frustration_index(c3).index == 1
    k4 = build_graph([(u, v, "-") for u in range(4) for v in range(u)])
    assert frustration_index(k4).index == 2
    loop = build_graph([(0, 0, "-")])
    assert frustration_index(loop).index == 1
    balanced = build_graph([(0, 1, "+"), (1, 2, "-"), (2, 0, "-")])
    assert frustration_index(balanced).index == 0


@given(signed_graphs(max_n=6, max_m=10))
@settings(max_examples=80, deadline=None)
def test_witness_is_achieving(g):
    # core.switch is the oracle for the witness edges read off the scan
    r = frustration_index(g)
    switched = switch(g, r.switch_set)
    assert switched.negative_edge_ids == r.negative_edge_ids
    assert len(r.negative_edge_ids) == r.index


def test_k4_all_negative_minimum_signatures_are_matchings():
    g = build_graph([(u, v, "-") for u in range(4) for v in range(u)])
    sigs = all_minimum_signatures(g)
    assert len(sigs) == 3  # the three perfect matchings
    for sig in sigs:
        ends = list(chain.from_iterable(
            (g.edges[e].u, g.edges[e].v) for e in sig))
        assert len(set(ends)) == 4
    assert not is_minimum_signature(g)  # six negatives is not minimum
    assert is_minimum_signature(minimum_signature_switch(g))


@given(signed_graphs(max_n=5, max_m=8))
@settings(max_examples=120, deadline=None)
def test_matches_brute_force(g):
    assert frustration_index(g).index == brute_force_index(g)


@given(signed_graphs(max_n=5, max_m=8))
@settings(max_examples=60, deadline=None)
def test_matches_cycle_cover_definition(g):
    assert frustration_index(g).index == frustration_by_cover(g)


@given(signed_graphs(max_n=5, max_m=8))
@settings(max_examples=60, deadline=None)
def test_every_minimum_signature_is_realized_by_some_switching(g):
    k = frustration_index(g).index
    sigs = set(all_minimum_signatures(g))
    assert all(len(sig) == k for sig in sigs)
    realized = set()
    for r in range(g.n + 1):
        for s in combinations(g.vertices, r):
            neg = tuple(sorted(switch(g, frozenset(s)).negative_edge_ids))
            if len(neg) == k:
                realized.add(neg)
    assert realized == sigs


def test_disconnected_graphs_sum_components():
    g = build_graph([(0, 1, "-"), (1, 2, "+"), (2, 0, "+"),
                     (3, 4, "-"), (4, 5, "+"), (5, 3, "+")])
    assert frustration_index(g).index == 2


def brute_force_witness(g):
    """Independent oracle for the switch-set tie-break: per component, the
    minimizing switch set with the anchor (first vertex) unswitched whose
    sorted str tuple is least."""
    out = frozenset()
    for comp in g.components:
        anchor, *rest = [v for v in g.vertices if v in comp]
        best = None
        for r in range(len(rest) + 1):
            for s in combinations(rest, r):
                key = (len(switch(g, frozenset(s)).negative_edge_ids),
                       sorted(map(str, s)))
                if best is None or key < best[0]:
                    best = (key, frozenset(s))
        out |= best[1]
    return out


@given(signed_graphs(max_n=6, max_m=10))
@settings(max_examples=80, deadline=None)
def test_witness_is_the_lex_least_minimizer(g):
    assert frustration_index(g).switch_set == brute_force_witness(g)


def _least_by_sorted_strings(free, masks):
    """The tie-break as first written: the sorted tuple of each switch
    set's vertex strings, the first least one."""
    return min(range(len(masks)), key=lambda i: sorted(
        str(v) for j, v in enumerate(free) if masks[i] >> j & 1))


@pytest.mark.parametrize("n", range(9, 14))
def test_least_minimizer_on_all_negative_complete_graphs(n):
    # K13 has 1716 minimizers
    g = build_graph([(u, v, "-") for u in range(n) for v in range(u)])
    free, _, masks, _ = frustration._scan(g, g.components[0])
    assert (frustration._least(free, masks)
            == _least_by_sorted_strings(free, masks))


@given(st.lists(st.sampled_from([0, 1, 2, 10, 11, 20, "1", "10", "3", 3,
                                 "a", "b"]),
                min_size=0, max_size=8, unique=True), st.data())
@settings(max_examples=300, deadline=None)
def test_least_minimizer_matches_sorted_strings(free, data):
    # vertices such as 1 and "1" share a string, so their sets can tie
    masks = data.draw(st.lists(st.integers(0, (1 << len(free)) - 1),
                               min_size=1, max_size=40, unique=True))
    assert (frustration._least(free, masks)
            == _least_by_sorted_strings(free, masks))


def cycle(first, length):
    """Edges of a cycle on first, ..., first+length-1 with one negative edge."""
    return [(first + i, first + (i + 1) % length, "-" if i == 0 else "+")
            for i in range(length)]


def test_guard_bounds_the_largest_component_not_n(monkeypatch):
    monkeypatch.delenv("SIGNFORGE_GUARD_OVERRIDE", raising=False)
    three = build_graph(cycle(0, 10) + cycle(10, 10) + cycle(20, 10))
    assert three.n == 30
    assert frustration_index(three).index == 3
    with pytest.raises(GuardExceeded):
        frustration_index(build_graph(cycle(0, 25)))
    # the minimum signatures are a product over components: bounded by n
    with pytest.raises(GuardExceeded):
        all_minimum_signatures(three)


def reference_walk(inc, neg):
    """Independent oracle for `_walk`: every Gray-code position i on its
    own, with switch mask i ^ (i >> 1) and no running state."""
    best, masks, negs = None, [], []
    for i in range(1 << len(inc)):
        mask = i ^ (i >> 1)
        n = neg
        for j, b in enumerate(inc):
            if mask >> j & 1:
                n ^= b
        if best is None or n.bit_count() < best:
            best, masks, negs = n.bit_count(), [], []
        if n.bit_count() == best:
            masks.append(mask)
            negs.append(n)
    return best, masks, negs


def test_walk_matches_reference_across_the_block_boundary():
    # walks past frustration._BLOCK free vertices go by blocks of 2^9
    # positions, odd blocks reading the table backward
    rng = random.Random(18)
    for c in [*range(14), 9, 10, 10, 11, 11]:
        m = rng.randint(1, 2 * c + 2)
        inc = [rng.getrandbits(m) for _ in range(c)]
        neg = rng.getrandbits(m)
        assert frustration._walk(inc, neg) == reference_walk(inc, neg), c
    # a few edges over many vertices: ties across several blocks
    inc = [1 << rng.randrange(4) for _ in range(12)]
    assert frustration._walk(inc, 0b1011) == reference_walk(inc, 0b1011)


@pytest.mark.parametrize("c", [9, 10, 11])
def test_walk_keeps_every_tie_in_gray_order(c):
    # zero incidence masks: every switching is a minimizer, in odd and even
    # blocks alike
    best, masks, negs = frustration._walk([0] * c, 0b101)
    assert best == 2
    assert masks == [i ^ (i >> 1) for i in range(1 << c)]
    assert negs == [0b101] * (1 << c)


def random_connected(rng, n, extra):
    edges = [(v, rng.randrange(v), rng.choice("+-")) for v in range(1, n)]
    edges += [(*rng.sample(range(n), 2), rng.choice("+-"))
              for _ in range(extra)]
    return build_graph(edges)


def test_block_walk_matches_cycle_cover_definition():
    # connected graphs of 12-14 vertices reach the blocks through the
    # public path
    rng = random.Random(1812)
    for n, extra in [(n, e) for n in (12, 13, 14) for e in (4, 8, 12)]:
        g = random_connected(rng, n, extra)
        assert len(g.components) == 1
        r = frustration_index(g)
        assert r.index == frustration_by_cover(g)
        assert switch(g, r.switch_set).negative_edge_ids == r.negative_edge_ids
