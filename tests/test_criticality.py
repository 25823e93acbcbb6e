from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signforge import catalog, core, criticality, frustration
from signforge.constructions import ghat
from signforge.core import POS, balancing_switch_set, build_graph, cut, switch
from signforge.errors import GuardExceeded, PreconditionError
from signforge.criticality import (METHODS, certify, equilibrated_cut_for_edge,
                                   is_critical)
from signforge.frustration import (all_minimum_signatures, frustration_index,
                                   minimum_signature_switch)
from signforge.planar import verify_planar_critical
from signforge.structure import in_s_star

from strategies import k4_all_negative, signed_graphs
from test_frustration import brute_force_index


def test_negative_cycle_is_critically_1():
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")])
    for method in METHODS:
        c = certify(g, method=method)
        assert c.critical and c.k == 1 and c.method == method


def test_k4_is_critically_2_all_methods():
    g = k4_all_negative()
    for method in METHODS:
        assert is_critical(g, method=method)
    assert certify(g).k == 2


def test_pendant_edge_breaks_criticality():
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-"), (2, 3, "+")])
    for method in METHODS:
        c = certify(g, method=method)
        assert not c.critical
    # the stated reason survives independent checking
    c = certify(g, method="deletion")
    bad = [eid for eid, idx in c.details["index_after_deletion"].items()
           if idx != c.k - 1]
    assert bad
    assert frustration_index(g.delete_edges([bad[0]])).index == c.k


def test_wrong_k_is_rejected_cheaply():
    g = k4_all_negative()
    c = certify(g, k=3)
    assert not c.critical and c.details["frustration_index"] == 2


def test_balanced_graph_is_never_critical():
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "+")])
    assert not certify(g).critical


def test_deletion_certificate_is_recheckable():
    g = k4_all_negative()
    c = certify(g, method="deletion")
    assert set(c.details["index_after_deletion"]) == {e.eid for e in g.edges}
    for eid, idx in c.details["index_after_deletion"].items():
        assert idx == c.k - 1
        assert frustration_index(g.delete_edges([eid])).index == idx


def test_signatures_certificate_is_recheckable():
    g = k4_all_negative()
    c = certify(g, method="signatures")
    witness = c.details["negative_in_signature"]
    assert set(witness) == {e.eid for e in g.edges}
    for eid, sig in witness.items():
        assert len(sig) == c.k and eid in sig


def test_cuts_certificate_is_recheckable():
    g = minimum_signature_switch(k4_all_negative())
    c = certify(g, method="cuts")
    assert c.critical
    for eid, rec in c.details["equilibrated_cuts"].items():
        e = g.edges[eid]
        side = frozenset(int(v) for v in rec["side"])
        assert (e.u in side) != (e.v in side)
        assert cut(g, side).equilibrated


def test_equilibrated_cut_for_edge():
    g = minimum_signature_switch(k4_all_negative())
    pos = next(e.eid for e in g.edges if e.eid not in g.negative_edge_ids)
    c = equilibrated_cut_for_edge(g, pos)
    assert c is not None and c.equilibrated
    assert pos in c.boundary
    loop = build_graph([(0, 0, "-"), (0, 1, "+"), (0, 1, "-")])
    assert equilibrated_cut_for_edge(loop, 0) is None


@pytest.mark.parametrize("eid", [-1, 3, 9])
def test_equilibrated_cut_for_bad_edge_id_is_a_typed_error(eid):
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")])
    with pytest.raises(PreconditionError, match="not an edge id"):
        equilibrated_cut_for_edge(g, eid)


@given(signed_graphs(max_n=5, max_m=8))
@settings(max_examples=80, deadline=None)
def test_three_methods_agree(g):
    answers = {m: is_critical(g, method=m) for m in METHODS}
    assert len(set(answers.values())) == 1, answers


@given(signed_graphs(max_n=5, max_m=8), st.data())
@settings(max_examples=80, deadline=None)
def test_a_positive_loop_changes_no_answer(g, data):
    # the strategies draw negative loops only; a positive loop is inert,
    # and it is never negative in a minimum signature, so never critical
    v = data.draw(st.sampled_from(g.vertices))
    h = build_graph([(e.u, e.v, e.sign) for e in g.edges] + [(v, v, POS)])
    assert frustration_index(h) == frustration_index(g)
    assert all_minimum_signatures(h) == all_minimum_signatures(g)
    assert balancing_switch_set(h) == balancing_switch_set(g)
    for method in METHODS:
        cert = certify(h, method=method)
        assert not cert.critical
        assert cert.k == frustration_index(g).index


def brute_force_cut(g, eid):
    """Independent oracle: the first side, in (size, combinations) order and
    containing the first vertex, whose cut is equilibrated and contains
    edge eid; checked one edge at a time with core.cut."""
    anchor, *rest = g.vertices
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            c = cut(g, (anchor,) + combo)
            if eid in c.boundary and c.equilibrated:
                return c
    return None


@given(signed_graphs(max_n=6, max_m=10))
@example(build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-"),  # two components
                      (3, 4, "+"), (4, 5, "+"), (5, 3, "-")]))
@settings(max_examples=60, deadline=None)
def test_deletion_certificate_matches_brute_force(g):
    details = certify(g, method="deletion").details
    for eid, idx in details.get("index_after_deletion", {}).items():
        assert idx == brute_force_index(g.delete_edges([eid]))


# disconnected graphs: the first vertex isolated, the first vertex's
# component balanced, and every positive edge of a minimum signature in
# the second component
TRIANGLE = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")])
DISCONNECTED = (
    core.SignedGraph((-1,) + TRIANGLE.vertices, TRIANGLE.edges),
    build_graph([(0, 1, "+"), (2, 3, "+"), (3, 4, "-"), (4, 2, "+")]),
    build_graph([(0, 0, "-"), (1, 2, "+"), (2, 3, "+"), (3, 1, "-")]),
)


@given(signed_graphs(max_n=6, max_m=10))
@example(DISCONNECTED[0])
@example(DISCONNECTED[1])
@example(DISCONNECTED[2])
@settings(max_examples=60, deadline=None)
def test_cut_witnesses_match_brute_force(g):
    for eid in range(g.m):
        assert equilibrated_cut_for_edge(g, eid) == brute_force_cut(g, eid)
    details = certify(g, method="cuts").details
    gmin = minimum_signature_switch(g)
    for eid, rec in details.get("equilibrated_cuts", {}).items():
        oracle = brute_force_cut(gmin, eid)
        assert rec == (oracle.to_json() if oracle is not None else None)


def brute_force_signatures(g):
    """Independent oracle: the negative-edge sets of the switchings that
    reach the least count, over all 2^n switchings, sorted."""
    sets = {tuple(sorted(switch(g, frozenset(s)).negative_edge_ids))
            for r in range(g.n + 1) for s in combinations(g.vertices, r)}
    k = min(map(len, sets))
    return sorted(s for s in sets if len(s) == k)


@given(signed_graphs(max_n=6, max_m=10))
@example(DISCONNECTED[0])
@example(DISCONNECTED[1])
@example(DISCONNECTED[2])
@settings(max_examples=60, deadline=None)
def test_signature_witnesses_match_brute_force(g):
    # each witness is the lex-least minimum signature holding its edge
    details = certify(g, method="signatures").details
    sigs = brute_force_signatures(g)
    for eid, sig in details.get("negative_in_signature", {}).items():
        assert sig == next((list(s) for s in sigs if eid in s), None)


def test_cut_certificate_walks_no_sides(monkeypatch):
    # the cuts read off the walk's minimizers are the side pass's answers
    # on the minimum signature
    graphs = [catalog.get("k5-minus").graph, ghat(2), two_triangles()]
    expected = []
    for g in graphs:
        gmin = minimum_signature_switch(g)
        expected.append({eid: equilibrated_cut_for_edge(gmin, eid).to_json()
                         for eid in range(g.m)
                         if eid not in gmin.negative_edge_ids})

    def refuse(*args):
        raise AssertionError("cut sides walked")

    monkeypatch.setattr(criticality, "equilibrated_cut_for_edge", refuse)
    for g, cuts in zip(graphs, expected):
        c = certify(g, method="cuts")
        assert c.critical and c.details["equilibrated_cuts"] == cuts


def triangle_and_isolated_vertices():
    # a negative triangle plus 22 isolated vertices: the switching walk
    # sees components of at most 3 vertices, 25 vertices in all
    return build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")],
                       isolated=range(3, 25))


def test_cut_search_is_guarded_on_n(monkeypatch):
    monkeypatch.delenv("SIGNFORGE_GUARD_OVERRIDE", raising=False)
    g = triangle_and_isolated_vertices()
    # the certificate reads its cuts off the walk's minimizers ...
    c = certify(g, method="cuts")
    assert (c.critical, c.k) == (True, 1)
    assert sorted(c.details["equilibrated_cuts"]) == [0, 1]
    # ... while the side pass for one edge walks the sides of all 25
    with pytest.raises(GuardExceeded):
        equilibrated_cut_for_edge(g, 0)


def test_signature_certificate_is_not_guarded_on_n(monkeypatch):
    monkeypatch.delenv("SIGNFORGE_GUARD_OVERRIDE", raising=False)
    g = triangle_and_isolated_vertices()
    c = certify(g, method="signatures")
    assert (c.critical, c.k) == (True, 1)
    assert c.details["negative_in_signature"] == {0: [0], 1: [1], 2: [2]}
    # the list of every minimum signature is a product over the
    # components, so g.n bounds it
    with pytest.raises(GuardExceeded):
        all_minimum_signatures(g)
    # a k that is not the index is refuted from the index alone
    assert certify(g, 2, method="signatures").details == {
        "frustration_index": 1}


def two_triangles():
    return build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-"),
                        (3, 4, "-"), (4, 5, "-"), (5, 3, "-")])


def test_one_walk_per_question(monkeypatch):
    walks = []
    walk = frustration._walk

    def counted(inc, neg):
        walks.append(len(inc))
        return walk(inc, neg)

    monkeypatch.setattr(frustration, "_walk", counted)
    g = catalog.get("s3-petersen").graph  # connected: one component scan
    assert in_s_star(g)
    assert len(walks) == 1
    for method in METHODS:
        walks.clear()
        assert certify(g, method=method).critical
        assert len(walks) == 1


def test_planar_report_scans_nothing_and_catalog_check_once(monkeypatch):
    scans = []
    component_scans = frustration._component_scans

    def counted(g):
        scans.append(g)
        return component_scans(g)

    for mod in (frustration, criticality):
        monkeypatch.setattr(mod, "_component_scans", counted)
    entry = catalog.get("g7")
    verify_planar_critical(entry.graph, entry.rotation, 3)
    assert not scans  # the faces need no switching
    catalog.verify("g7")
    assert len(scans) == 1  # the index and all three verdicts
    scans.clear()
    catalog.verify_all()
    assert len(scans) == len(catalog.names())


def test_answers_are_read_off_the_masks_not_switched_graphs(monkeypatch):
    graphs = [catalog.get("k5-minus").graph, two_triangles()]
    calls = [frustration_index, all_minimum_signatures]
    calls += [lambda g, m=m: certify(g, method=m) for m in METHODS]
    expected = [[f(g) for f in calls] for g in graphs]

    def refuse(*args):
        raise AssertionError("switched graph or cut built")

    for mod in (core, frustration, criticality):
        for name in ("switch", "cut"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    assert [[f(g) for f in calls] for g in graphs] == expected
