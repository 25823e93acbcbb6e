import random
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from signforge import catalog, criticality, frustration
from signforge.constructions import ghat_planar
from signforge.core import build_graph, parse_sg, serialize_sg, switch
from signforge.errors import (EmbeddingError, PreconditionError,
                              TheoremViolation)
from signforge.frustration import frustration_index
from signforge.planar import (RotationSystem, faces, parse_rot,
                              serialize_rot, validate_rotation,
                              verify_planar_critical)


def triangle_with_rotation():
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")])
    rot = RotationSystem({0: ((0, 0), (2, 1)),
                          1: ((0, 1), (1, 0)),
                          2: ((1, 1), (2, 0))})
    return g, rot


def test_triangle_has_two_faces():
    g, rot = triangle_with_rotation()
    fs = faces(g, rot)
    assert len(fs) == 2
    assert all(len(f.darts) == 3 for f in fs)
    assert sorted(f.sign(g) for f in fs) == [-1, -1]


def test_every_edge_side_appears_exactly_twice():
    for name in ("k4-minus-all", "k5-minus", "ladder-planar-2"):
        entry = catalog.get(name)
        fs = faces(entry.graph, entry.rotation)
        counts = Counter()
        for f in fs:
            counts.update(f.edge_ids)
        assert all(c == 2 for c in counts.values())


def test_faces_start_at_their_least_darts_in_ascending_order():
    for name in catalog.names():
        entry = catalog.get(name)
        if entry.rotation is not None:
            fs = faces(entry.graph, entry.rotation)
            least = [min(f.darts) for f in fs]
            assert [f.darts[0] for f in fs] == least == sorted(least)


def test_euler_formula_enforced():
    # a rotation of K5 cannot be planar: face traversal violates Euler's formula
    g = build_graph([(u, v, "-") for u in range(5) for v in range(u)])
    rot = RotationSystem({v: tuple(sorted(
        (e.eid, 0 if e.u == v else 1) for e in g.edges
        if v in (e.u, e.v))) for v in g.vertices})
    validate_rotation(g, rot)
    with pytest.raises(EmbeddingError):
        faces(g, rot)


def test_malformed_rotations_rejected():
    g = build_graph([(0, 1, "+"), (1, 2, "+"), (2, 0, "-")])
    with pytest.raises(EmbeddingError):
        validate_rotation(g, RotationSystem({0: ((0, 0),)}))  # missing darts
    with pytest.raises(EmbeddingError):
        validate_rotation(g, RotationSystem(
            {0: ((0, 0), (2, 1), (2, 1)), 1: ((0, 1), (1, 0)),
             2: ((1, 1), (2, 0))}))  # duplicated dart


def test_verify_planar_critical_on_catalog_entry():
    entry = catalog.get("k5-minus")
    rep = verify_planar_critical(entry.graph, entry.rotation, 3)
    assert rep.face_count == 6
    assert rep.all_faces_negative and rep.face_count_is_2k
    assert rep.one_negative_edge_per_face and rep.negative_bound_ok


def _embeddings():
    """(label, graph, rotation) for every catalog rotation,
    ghat_planar(1..6) and two bouquets of loops: three negative loops side
    by side (4 faces, all negative, but index 3) and two nested negative
    loops beside a positive one (4 faces = 2 * index, two positive)."""
    out = [(name, entry.graph, entry.rotation) for name, entry
           in ((name, catalog.get(name)) for name in catalog.names())
           if entry.rotation is not None]
    out += [(f"ghat_planar({t})", *ghat_planar(t)[:2]) for t in range(1, 7)]
    out.append(("three-negative-loops", build_graph([(0, 0, "-")] * 3),
                RotationSystem({0: ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0),
                                    (2, 1))})))
    out.append(("nested-negative-loops",
                build_graph([(0, 0, "-"), (0, 0, "-"), (0, 0, "+")]),
                RotationSystem({0: ((0, 0), (1, 0), (1, 1), (0, 1), (2, 0),
                                    (2, 1))})))
    return out


@pytest.mark.parametrize("label, g, rot", _embeddings(),
                         ids=[label for label, _, _ in _embeddings()])
def test_one_negative_edge_per_face_matches_a_per_face_count(label, g, rot):
    # the oracle counts each face's edges, with multiplicity, in one
    # minimum signature; switching moves that signature, not the answer
    rng = random.Random(label)
    graphs = [g] + [switch(g, [v for v in g.vertices if rng.random() < 0.5])
                    for _ in range(3)]
    for h in graphs:
        result = frustration_index(h)
        neg = result.negative_edge_ids
        once = all(sum(eid in neg for eid in f.edge_ids) == 1
                   for f in faces(h, rot))
        report = verify_planar_critical(h, rot, result.index)
        assert report.one_negative_edge_per_face == once


def test_negative_face_bound_violation_raises():
    # one negative edge, one face on each side: fine for k=1, absurd for k=0
    g = build_graph([(0, 1, "-"), (0, 1, "+")])
    rot = RotationSystem({0: ((0, 0), (1, 0)), 1: ((0, 1), (1, 1))})
    rep = verify_planar_critical(g, rot, 1)
    assert rep.negative_bound_ok
    with pytest.raises(TheoremViolation):
        verify_planar_critical(g, rot, 0)


def test_rot_round_trip():
    entry = catalog.get("ladder-planar-1")
    text = serialize_rot(entry.graph, entry.rotation)
    assert parse_rot(text).rotation == entry.rotation.rotation
    assert serialize_rot(entry.graph, parse_rot(text)) == text


def test_the_report_walks_no_switching_past_the_guard(monkeypatch):
    def refuse(g):
        raise AssertionError("switching scan")

    for mod in (frustration, criticality):
        monkeypatch.setattr(mod, "_component_scans", refuse)
    g, rot, _ = ghat_planar(12)  # n = 29, past the switching guard
    rep = verify_planar_critical(g, rot, 3)
    assert (rep.face_count, rep.negative_face_count) == (31, 2)
    assert rep.negative_bound_ok and not rep.one_negative_edge_per_face


# labels the line formats could mistake for a keyword, a separator or a dart
LABELS = ("vertex", "a:b", "x:", ":", "0", "1", "7", "e0.a", "+")


@given(st.data())
def test_sg_and_rot_round_trip_every_writable_label(data):
    labels = data.draw(st.lists(st.sampled_from(LABELS), min_size=1,
                                unique=True))
    end = st.sampled_from(labels)
    edges = data.draw(st.lists(st.tuples(end, end, st.sampled_from("+-")),
                               max_size=6))
    g = build_graph(edges, isolated=labels)
    assert parse_sg(serialize_sg(g)) == g
    ends = {v: [] for v in g.vertices}
    for e in g.edges:
        ends[e.u].append((e.eid, 0))
        ends[e.v].append((e.eid, 1))
    rot = RotationSystem({v: tuple(data.draw(st.permutations(darts)))
                          for v, darts in ends.items()})
    assert parse_rot(serialize_rot(g, rot)).rotation == rot.rotation


@pytest.mark.parametrize("label", ["", "a b", "a\tb", "a#b", "#"])
def test_unwritable_labels_are_refused(label):
    g = build_graph([(label, "x", "-")])
    rot = RotationSystem({label: ((0, 0),), "x": ((0, 1),)})
    for write in (lambda: serialize_sg(g), lambda: serialize_rot(g, rot)):
        with pytest.raises(PreconditionError, match=re.escape(repr(label))):
            write()
    with pytest.raises(PreconditionError):
        serialize_sg(build_graph([], isolated=[label]))
