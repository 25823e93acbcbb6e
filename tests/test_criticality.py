from itertools import combinations

import pytest
from hypothesis import example, given, settings

from signforge.core import build_graph, cut, switch
from signforge.errors import GuardExceeded
from signforge.criticality import (METHODS, certify, equilibrated_cut_for_edge,
                                   is_critical)
from signforge.frustration import frustration_index, minimum_signature_switch

from strategies import signed_graphs
from test_frustration import brute_force_index


def k4_all_negative():
    return build_graph([(u, v, "-") for u in range(4) for v in range(u)])


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


@given(signed_graphs(max_n=5, max_m=8))
@settings(max_examples=80, deadline=None)
def test_three_methods_agree(g):
    answers = {m: is_critical(g, method=m) for m in METHODS}
    assert len(set(answers.values())) == 1, answers


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


@given(signed_graphs(max_n=6, max_m=10))
@settings(max_examples=60, deadline=None)
def test_cut_witnesses_match_brute_force(g):
    for eid in range(g.m):
        assert equilibrated_cut_for_edge(g, eid) == brute_force_cut(g, eid)
    details = certify(g, method="cuts").details
    gmin = minimum_signature_switch(g)
    for eid, rec in details.get("equilibrated_cuts", {}).items():
        oracle = brute_force_cut(gmin, eid)
        assert rec == (oracle.to_json(gmin) if oracle is not None else None)


def test_cut_search_is_guarded_on_n(monkeypatch):
    monkeypatch.delenv("SIGNFORGE_GUARD_OVERRIDE", raising=False)
    # a negative triangle plus 22 isolated vertices: the switching scan
    # sees components of at most 3 vertices, the cut search all 25
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")],
                    isolated=range(3, 25))
    assert frustration_index(g).index == 1
    with pytest.raises(GuardExceeded):
        certify(g, method="cuts")
    with pytest.raises(GuardExceeded):
        equilibrated_cut_for_edge(g, 0)


def test_signature_certificate_is_guarded_on_n_after_the_index(monkeypatch):
    monkeypatch.delenv("SIGNFORGE_GUARD_OVERRIDE", raising=False)
    # components of at most 3 vertices, 25 vertices in all
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")],
                    isolated=range(3, 25))
    assert certify(g, method="deletion").critical
    with pytest.raises(GuardExceeded):
        certify(g, method="signatures")
    # a k that is not the index is refuted before the guard is reached
    assert certify(g, 2, method="signatures").details == {
        "frustration_index": 1}
