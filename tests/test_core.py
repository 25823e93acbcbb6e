import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signforge.core import (NEG, POS, Cycle, build_graph, canonical_form,
                            cut, cycle_sign, is_balanced, parse_sg,
                            serialize_sg, switch, switching_isomorphic)
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
    assert len(g.components) == 2


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


@given(loopy_multigraphs())
@example(build_graph([(0, 1, POS), (1, 2, POS), (2, 0, NEG)]))  # no loops
@example(build_graph([(0, 0, NEG), (1, 1, NEG), (0, 1, POS), (1, 2, NEG),
                      (1, 2, NEG), (2, 0, POS)]))  # ties on the loop part
@settings(max_examples=150, deadline=None)
def test_canonical_form_matches_unpruned_brute_force(g):
    assert canonical_form(g) == brute_force_canonical_form(g)
