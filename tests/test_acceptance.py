"""End-to-end acceptance battery.

Each criterion is an independent check in signforge.acceptance; this module
pins every one of them green.  The same battery is reachable from the
command line as `signforge reproduce`.
"""

from itertools import combinations

import pytest

from signforge import acceptance, catalog, criticality, cycles, frustration
from signforge import structure
from signforge.acceptance import CRITERIA, run_one
from signforge.constructions import ghat, ghat_planar
from signforge.criticality import is_critical
from signforge.cycles import negative_cycles
from signforge.enumeration import EnumBounds, enumerate_critical
from signforge.frustration import frustration_index
from signforge.structure import find_decompositions


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _ in CRITERIA],
    ids=[f"{num:02d}-{name}" for num, name, _ in CRITERIA])
def test_criterion(number, name):
    r = run_one(number)
    assert r.passed, f"criterion {number} ({name}): {r.detail}"


def test_the_join_criterion_attempts_every_pair_below_index_5():
    # the joins with k4-minus-all run at k <= 4, where the decomposition
    # search draws only cycle and K4- parts, so none is skipped for its size
    detail = run_one(7).detail
    assert detail.startswith("29 pairs verified;") and "skipped" not in detail


def test_ladder_criterion_checks_the_witness_cuts(monkeypatch):
    build = acceptance.ghat_planar

    def wrong_cuts(t):
        g, rot, _ = build(t)
        return g, rot, (frozenset({"w"}),)  # 3 positive, 1 negative edge

    monkeypatch.setattr(acceptance, "ghat_planar", wrong_cuts)
    r = run_one(8)
    assert not r.passed
    assert "witness cut not equilibrated" in r.detail


def _count_scans(monkeypatch) -> list:
    """The graphs each switching walk runs on, through either importer of
    `_component_scans`."""
    scans = []
    component_scans = frustration._component_scans

    def counted(g):
        scans.append(g)
        return component_scans(g)

    for mod in (frustration, criticality):
        monkeypatch.setattr(mod, "_component_scans", counted)
    return scans


@pytest.mark.parametrize("number,walks", [(3, 227), (12, 599)])
def test_one_walk_per_graph_for_the_index_and_every_verdict(monkeypatch,
                                                            number, walks):
    # criterion 3: the 27 catalog entries and 200 random graphs, one walk
    # each; criterion 12: one `certify` walk for g and one for its
    # subdivision, and one index walk after a deletion
    scans = _count_scans(monkeypatch)
    assert run_one(number).passed
    assert len(scans) == walks


def test_double_covers_are_witnessed_without_the_search(monkeypatch):
    def refuse(g, k):
        raise AssertionError("double cover search run")

    monkeypatch.setattr(acceptance, "negative_cycle_double_cover", refuse)
    r = run_one(10)
    assert r.passed, r.detail


def test_the_search_backs_a_missing_decomposition(monkeypatch):
    searched = []
    search = acceptance.negative_cycle_double_cover

    def recorded(g, k):
        searched.append(g)
        return search(g, k)

    monkeypatch.setattr(acceptance, "negative_cycle_double_cover", recorded)
    monkeypatch.setattr(acceptance, "max_edge_disjoint_negative_cycles",
                        lambda g, k: ())
    r = run_one(10)
    assert r.passed, r.detail
    # the three ladders, whose faces are no witness
    assert len(searched) == 3


@pytest.mark.parametrize("number", [8, 10])
def test_ladder_and_double_cover_criteria_list_no_partition(monkeypatch,
                                                            number):
    def refuse(g, k):
        raise AssertionError("decomposition search run")

    monkeypatch.setattr(structure, "_decomposition_stream", refuse)
    r = run_one(number)
    assert r.passed, r.detail


def test_double_covers_walk_the_cycles_of_the_ladders_alone(monkeypatch):
    walks = []
    walk = cycles._walks
    monkeypatch.setattr(cycles, "_walks",
                        lambda g, negative_only: walks.append(g)
                        or walk(g, negative_only))
    assert run_one(10).passed
    # the 11 entries whose faces are the witness walk none, each ladder one
    assert len(walks) == 3


def test_k_disjoint_negative_cycles_of_a_critical_graph_hold_every_edge():
    # criteria 8, 10 and 11 read a split into k negative cycles off the
    # lex-least k-packing; brute force over every family of k cycles
    b2 = EnumBounds(max_vertices=4, max_multiplicity_per_pair=2,
                    max_negative_loops_per_vertex=2, max_edges=8)
    graphs = [catalog.get(name).graph for name in catalog.names()]
    graphs = [g for g in graphs if g.m <= 12] + list(enumerate_critical(b2, 2))
    packings = 0
    for g in graphs:
        k = frustration_index(g).index
        assert is_critical(g, k)
        sets = [c.edge_set for c in negative_cycles(g)]
        for family in combinations(sets, k):
            union = frozenset().union(*family)
            if len(union) == sum(map(len, family)):  # pairwise disjoint
                packings += 1
                assert len(union) == g.m
    assert len(graphs) == 33 and packings


@pytest.mark.parametrize(
    "g", [ghat(t) for t in range(5)] + [ghat_planar(t)[0] for t in (1, 2, 3)],
    ids=[f"ghat{t}" for t in range(5)] + [f"planar{t}" for t in (1, 2, 3)])
def test_the_split_is_the_first_decomposition_into_cycles(g):
    first = next(d for d in find_decompositions(g, 3)
                 if d.kind == (1, 1, 1))
    split = acceptance._cycle_split(g, 3)
    assert [c.edge_set for c in split] == [es for es, _ in first.parts]


def test_a_wrong_facial_family_is_rejected(monkeypatch):
    build = acceptance.faces

    def one_face_repeated(g, rot):
        fs = build(g, rot)
        return fs[:-1] + fs[:1]  # the last face dropped, the first twice

    monkeypatch.setattr(acceptance, "faces", one_face_repeated)
    r = run_one(10)
    assert not r.passed
    assert "facial family rejected" in r.detail
