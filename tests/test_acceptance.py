"""End-to-end acceptance battery.

Each criterion is an independent check in signforge.acceptance; this module
pins every one of them green.  The same battery is reachable from the
command line as `signforge reproduce`.
"""

import pytest

from signforge import acceptance, criticality, frustration
from signforge.acceptance import CRITERIA, run_one


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _ in CRITERIA],
    ids=[f"{num:02d}-{name}" for num, name, _ in CRITERIA])
def test_criterion(number, name):
    r = run_one(number)
    assert r.passed, f"criterion {number} ({name}): {r.detail}"


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
    monkeypatch.setattr(acceptance, "find_decompositions", lambda g, k: ())
    r = run_one(10)
    assert r.passed, r.detail
    # the three ladders, whose faces are no witness
    assert len(searched) == 3


def test_a_wrong_facial_family_is_rejected(monkeypatch):
    build = acceptance.faces

    def one_face_repeated(g, rot):
        fs = build(g, rot)
        return fs[:-1] + fs[:1]  # the last face dropped, the first twice

    monkeypatch.setattr(acceptance, "faces", one_face_repeated)
    r = run_one(10)
    assert not r.passed
    assert "facial family rejected" in r.detail
