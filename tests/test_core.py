import dataclasses
import itertools
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signforge import core
from signforge.core import (NEG, POS, Cycle, build_graph, canonical_form,
                            cut, cycle_sign, from_canonical_form, is_balanced,
                            parse_sg, serialize_sg, switch,
                            switching_isomorphic)
from signforge.errors import NotACycleError, ParseError

from strategies import signed_graphs, vertex_subsets


def triangle(signs="++-"):
    return build_graph([("a", "b", signs[0]), ("b", "c", signs[1]),
                        ("c", "a", signs[2])])


def test_build_and_accessors():
    g = build_graph([("a", "b", "+"), ("a", "b", "-"), ("c", "c", "-")])
    assert g.n == 3 and g.m == 3
    assert g.degree("a") == 2 and g.degree("c") == 2  # loop counts twice
    assert g.neighbors("a") == frozenset({"b"})
    assert g.negative_edge_ids == frozenset({1, 2})
    assert g.negative_mask == 0b110 and g.loop_mask == 0b100
    assert len(g.components) == 2


def test_cached_properties_are_computed_once_onto_the_instance():
    calls = []

    class Box:
        @core._cached
        def value(self):
            calls.append(self)
            return object()

    box = Box()
    assert box.value is box.value and calls == [box]
    assert vars(box) == {"value": box.value}
    g, h = triangle(), triangle()
    masks = g.incidence_masks
    assert vars(g)["incidence_masks"] is masks and g.incidence_masks is masks
    assert "incidence_masks" not in vars(h)
    # the frozen dataclass compares and hashes its fields only, and still
    # refuses assignment
    assert g == h and hash(g) == hash(h)
    assert g.components and g != triangle("+--")
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.incidence_masks = {}


def test_restrict_keeps_vertex_order_and_renumbers_edges():
    g = build_graph([("d", "c", "-"), ("a", "a", "-"), ("b", "c", "+"),
                     ("a", "d", "+"), ("e", "e", "+")], isolated=["f"])
    sub = g.restrict([4, 2, 1])
    # the endpoints of the kept edges, in g's vertex order: d and the
    # isolated f go, and the loop keeps its one endpoint
    assert sub.vertices == ("c", "a", "b", "e")
    assert [(e.eid, e.u, e.v, e.sign) for e in sub.edges] == [
        (0, "a", "a", NEG), (1, "b", "c", POS), (2, "e", "e", POS)]
    assert g.restrict([]).vertices == () and g.restrict([]).m == 0


def test_parse_serialize_round_trip_bit_exact():
    text = "a b +\na b -\nc c -\nvertex d\n"
    g = parse_sg(text)
    assert serialize_sg(g) == text
    assert parse_sg(serialize_sg(g)) == g


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_sg("a b\n")
    with pytest.raises(ParseError):
        parse_sg("a b ?\n")


def test_comments_and_blank_lines_ignored():
    g = parse_sg("# header\n\na b -  # trailing\n")
    assert g.m == 1 and g.edges[0].sign == NEG


def test_switch_flips_cut_edges_only():
    g = triangle("++-")
    s = switch(g, {"a"})
    assert [e.sign for e in s.edges] == [NEG, POS, POS]
    assert switch(g, {"a", "b", "c"}) == g  # switching everything: no cut


def test_loops_never_switch():
    g = build_graph([("a", "a", "-"), ("a", "b", "+")])
    s = switch(g, {"a"})
    assert s.edges[0].sign == NEG and s.edges[1].sign == NEG


def test_cut_counts():
    g = triangle("++-")
    c = cut(g, {"a"})
    assert c.boundary == frozenset({0, 2})
    assert (c.pos_count, c.neg_count) == (1, 1)
    assert c.equilibrated


@given(signed_graphs(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_cut_is_the_per_edge_boundary(g, positive_loop, data):
    if positive_loop:  # the strategy draws negative loops only
        v = g.vertices[-1]
        g = build_graph([(e.u, e.v, e.sign) for e in g.edges] + [(v, v, POS)])
    x = data.draw(vertex_subsets(g))
    boundary = [e for e in g.edges
                if not e.is_loop and (e.u in x) != (e.v in x)]
    neg = sum(e.sign == NEG for e in boundary)
    c = cut(g, x)
    assert c.side == x
    assert c.boundary == frozenset(e.eid for e in boundary)
    assert (c.pos_count, c.neg_count) == (len(boundary) - neg, neg)


def test_cycle_sign_and_validation():
    g = triangle("++-")
    c = Cycle((0, 1, 2), ("a", "b", "c", "a"))
    assert cycle_sign(g, c) == NEG
    with pytest.raises(NotACycleError):
        cycle_sign(g, Cycle((0, 1), ("a", "b", "c")))
    with pytest.raises(NotACycleError):
        cycle_sign(g, Cycle((0, 0), ("a", "b", "a")))


def test_balance():
    assert is_balanced(triangle("++" "+"))
    assert not is_balanced(triangle("++-"))
    assert is_balanced(triangle("+--"))  # two negatives switch away


@given(signed_graphs())
@settings(max_examples=200, deadline=None)
def test_switching_is_involution(g):
    s = frozenset(v for v in g.vertices if hash((v, g.m)) % 2)
    assert switch(switch(g, s), s) == g


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_switching_preserves_cycle_signs(data):
    from signforge.cycles import enumerate_cycles
    g = data.draw(signed_graphs(max_n=5, max_m=8))
    s = data.draw(vertex_subsets(g))
    gs = switch(g, s)
    for c in enumerate_cycles(g):
        assert cycle_sign(g, c) == cycle_sign(gs, c)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_switching_isomorphic_accepts_relabel_and_switch(data):
    g = data.draw(signed_graphs(max_n=5, max_m=8))
    s = data.draw(vertex_subsets(g))
    perm = data.draw(st.permutations(list(g.vertices)))
    mapping = dict(zip(g.vertices, perm))
    gs = switch(g, s)
    relabeled = build_graph([(mapping[e.u], mapping[e.v], e.sign)
                             for e in gs.edges],
                            isolated=[mapping[v] for v in gs.vertices])
    w = switching_isomorphic(g, relabeled)
    assert w is not None
    # the witness actually works
    mapped = build_graph([(w.mapping[e.u], w.mapping[e.v], e.sign)
                          for e in g.edges],
                         isolated=[w.mapping[v] for v in g.vertices])
    result = switch(mapped, w.switch_set)
    assert canonical_form(result) == canonical_form(relabeled)


def test_switching_isomorphic_negative_case():
    neg = triangle("++-")
    pos = triangle("+++")
    assert switching_isomorphic(neg, pos) is None


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_canonical_form_matches_isomorphism_test(data):
    g1 = data.draw(signed_graphs(max_n=4, max_m=6))
    g2 = data.draw(signed_graphs(max_n=4, max_m=6))
    same_key = canonical_form(g1) == canonical_form(g2)
    same_iso = switching_isomorphic(g1, g2) is not None
    assert same_key == same_iso


def brute_force_canonical_form(g):
    """Oracle: the lex-least key over all n! permutations and all 2^n
    switchings, with no pruning."""
    idx = g.vindex
    loops = [(idx[e.u], e.sign) for e in g.edges if e.is_loop]
    plain = [(idx[e.u], idx[e.v], e.sign) for e in g.edges if not e.is_loop]
    best = None
    for perm in itertools.permutations(range(g.n)):
        loop_key = tuple(sorted((perm[v], s) for v, s in loops))
        for mask in range(1 << g.n):
            enc = []
            for u, v, s in plain:
                if ((mask >> u) ^ (mask >> v)) & 1:
                    s = -s
                enc.append((*sorted((perm[u], perm[v])), s))
            key = (g.n, loop_key, tuple(sorted(enc)))
            if best is None or key < best:
                best = key
    return best


@st.composite
def loopy_multigraphs(draw):
    """Graphs on at most 5 vertices with loops of either sign and
    parallel edges of mixed signs."""
    n = draw(st.integers(1, 5))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1),
                                    st.sampled_from((POS, NEG))),
                          max_size=9))
    return build_graph(edges, isolated=range(n))


@st.composite
def loopy_pairs(draw):
    """A loopy multigraph and, half the time, a relabelled and switched
    copy of it; otherwise such a copy with one edge's sign flipped, or an
    unrelated graph."""
    g = draw(loopy_multigraphs())
    kind = draw(st.sampled_from(("copy", "copy", "flipped", "other")))
    if kind == "other":
        return g, draw(loopy_multigraphs())
    edges = [(e.u, e.v, e.sign) for e in g.edges]
    if kind == "flipped" and edges:
        i = draw(st.integers(0, len(edges) - 1))
        edges[i] = (*edges[i][:2], -edges[i][2])
    side = draw(vertex_subsets(g))
    label = dict(zip(g.vertices, draw(st.permutations(g.vertices))))
    return g, build_graph(
        [(label[u], label[v], -s if (u in side) != (v in side) else s)
         for u, v, s in draw(st.permutations(edges))],
        isolated=[label[v] for v in g.vertices])


def applies(w, g, h):
    """Whether mapping g by w and switching at w's set gives h."""
    image = switch(build_graph([(w.mapping[e.u], w.mapping[e.v], e.sign)
                                for e in g.edges],
                               isolated=[w.mapping[v] for v in g.vertices]),
                   w.switch_set)
    return (set(image.vertices) == set(h.vertices) and
            Counter((e.pair, e.sign) for e in image.edges) ==
            Counter((e.pair, e.sign) for e in h.edges))


@given(loopy_pairs())
@example((triangle("++-"), triangle("--+")))  # no loops
@example((build_graph([(0, 0, NEG), (1, 1, NEG), (0, 1, POS), (1, 2, NEG),
                       (1, 2, NEG), (2, 0, POS)]),
          build_graph([(0, 0, NEG), (2, 2, NEG), (0, 2, POS), (2, 1, NEG),
                       (2, 1, NEG), (1, 0, POS)])))  # ties on the loop part
@settings(max_examples=150, deadline=None)
def test_canonical_form_matches_unpruned_brute_force(pair):
    """The keys are the least over the search's leaves, not the n!
    minimum, so they agree with the brute force on which graphs are
    switching-isomorphic, not key for key."""
    g1, g2 = pair
    same = brute_force_canonical_form(g1) == brute_force_canonical_form(g2)
    assert (canonical_form(g1) == canonical_form(g2)) == same
    w = switching_isomorphic(g1, g2)
    assert (w is not None) == same
    assert w is None or applies(w, g1, g2)
    rep = from_canonical_form(canonical_form(g1))
    assert applies(switching_isomorphic(g1, rep), g1, rep)


def test_isomorphism_search_does_not_hang_on_isolated_vertices():
    # the 9 isolated vertices are exact twins, so the search tries one of
    # them per level instead of walking their 9! orders
    plus, minus = (build_graph([(0, 1, POS), (1, 2, POS), (2, 0, sign)],
                               isolated=range(12)) for sign in (POS, NEG))
    start = time.perf_counter()
    assert switching_isomorphic(plus, minus) is None
    assert time.perf_counter() - start < 1


def test_canonical_form_of_symmetric_7_vertex_graphs():
    pairs = list(itertools.combinations(range(7), 2))
    start = time.perf_counter()
    assert canonical_form(build_graph([(a, b, NEG) for a, b in pairs])) == (
        7, (), tuple((a, b, NEG) for a, b in pairs))
    assert canonical_form(build_graph([], isolated=range(7))) == (7, (), ())
    assert time.perf_counter() - start < 1


def union_find_components(g):
    """Components by union-find over the edges, as frozensets in order of
    their least vertex."""
    lead = {v: v for v in g.vertices}

    def find(v):
        while lead[v] != v:
            v = lead[v]
        return v

    for e in g.edges:
        lead[find(e.u)] = find(e.v)
    groups = {}
    for v in g.vertices:
        groups.setdefault(find(v), []).append(v)
    return tuple(frozenset(vs) for vs in groups.values())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_components_match_union_find(data):
    g = data.draw(signed_graphs(max_n=8, max_m=10))
    edges = [(e.u, e.v, e.sign) for e in g.edges]
    # extra vertices after g's: isolated ones, and ones with loops only
    # spliced into the edge list, so they fall between g's vertices
    isolated = []
    for x in range(g.n, g.n + data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()):
            isolated.append(x)
        else:
            at = data.draw(st.integers(0, len(edges)))
            edges[at:at] = [(x, x, NEG)] * data.draw(st.integers(1, 2))
    h = build_graph(edges, isolated=isolated)
    want = union_find_components(h)
    assert h.components == want
    assert h.is_connected == (len(want) == 1)
