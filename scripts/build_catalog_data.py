#!/usr/bin/env python3
"""Regenerate the shipped catalog data files (.sg/.rot + manifest).

Each entry's edge list is written out literally; rotations for the planar
entries are computed here once (planarity via networkx on a simple-graph
expansion) and then shipped as static data; networkx comes with the `dev`
extra and is not a dependency of the package.  Every expected property is
re-verified before anything is written, so a bad transcription fails this
script instead of landing in the data directory.
"""

import json
import pathlib
import sys

import networkx as nx

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from signforge import catalog
from signforge.constructions import ghat, ghat_planar
from signforge.core import build_graph, parse_sg, serialize_sg
from signforge.errors import PreconditionError
from signforge.planar import (RotationSystem, parse_rot, serialize_rot,
                              validate_rotation)

DATA = pathlib.Path(__file__).resolve().parents[1] / "src/signforge/data"

NEG, POS = "-", "+"


def _rotation_from_networkx(g):
    """Planar rotation for a loopless signed multigraph, via a simple-graph
    planarity test on a copy with parallel edges subdivided."""
    aux = nx.Graph()
    aux.add_nodes_from(g.vertices)
    # (vertex, aux-neighbor) -> real edge id
    dartmap = {}
    seen_pairs = set()
    for e in g.edges:
        if e.is_loop:
            raise PreconditionError("loops not supported here")
        pair = frozenset((e.u, e.v))
        if pair not in seen_pairs:
            seen_pairs.add(pair)
            aux.add_edge(e.u, e.v)
            dartmap[(e.u, e.v)] = e.eid
            dartmap[(e.v, e.u)] = e.eid
        else:
            mid = ("sub", e.eid)
            aux.add_edge(e.u, mid)
            aux.add_edge(mid, e.v)
            dartmap[(e.u, mid)] = e.eid
            dartmap[(e.v, mid)] = e.eid
    ok, emb = nx.check_planarity(aux)
    if not ok:
        raise PreconditionError("graph is not planar")
    rotation = {}
    for v in g.vertices:
        ring = []
        for nb in emb.neighbors_cw_order(v):
            eid = dartmap[(v, nb)]
            e = g.edges[eid]
            ring.append((eid, 0 if v == e.u else 1))
        rotation[v] = tuple(ring)
    rot = RotationSystem(rotation)
    validate_rotation(g, rot)
    return rot


def cyc(vs, sign=POS):
    return [(vs[i], vs[(i + 1) % len(vs)], sign) for i in range(len(vs))]


def path(vs, sign=POS):
    return [(vs[i], vs[i + 1], sign) for i in range(len(vs) - 1)]


# ---------------------------------------------------------------- edge lists

def loop_graph(pairs):
    return build_graph(pairs)


C_MINUS_1 = [("v", "v", NEG)]
TWO_C_MINUS_1 = [("v", "v", NEG), ("v", "v", NEG)]
C_MINUS_1_PAIR = [("u", "u", NEG), ("v", "v", NEG)]
K4_MINUS_ALL = [(a, b, NEG) for a in "abcd" for b in "abcd" if a < b]

# 12-vertex cubic graph: a 12-cycle with three positive chords and three
# negative "antipodal" chords
S3_PROJECTIVE = (cyc([str(i) for i in range(12)])
                 + [("1", "4", POS), ("5", "8", POS), ("9", "0", POS),
                    ("2", "7", NEG), ("3", "10", NEG), ("6", "11", NEG)])

# alternative drawing of the same graph (switching-isomorphic)
S3_PROJECTIVE_ALT = (cyc([str(i) for i in range(10)])
                     + [("1", "w2", POS), ("9", "w2", POS),
                        ("4", "w1", POS), ("6", "w1", POS),
                        ("w1", "w2", POS),
                        ("0", "5", NEG), ("2", "7", NEG), ("3", "8", NEG)])

# Petersen-like: 9-cycle with a hub on every third vertex, three negative
# long chords
S3_PETERSEN = (cyc([str(i) for i in range(1, 10)])
               + [("w", "3", POS), ("w", "6", POS), ("w", "9", POS),
                  ("1", "5", NEG), ("2", "7", NEG), ("4", "8", NEG)])

# -------- the ten planar entries (6 negative faces each) --------------------

K5_MINUS = [("1", "2", POS), ("1", "4", POS), ("1", "5", POS),
            ("2", "3", POS), ("3", "4", POS), ("3", "5", POS),
            ("2", "4", NEG), ("4", "5", NEG), ("2", "5", NEG)]

W5 = [("1", "2", POS), ("3", "4", POS), ("4", "5", POS), ("5", "1", POS),
      ("2", "3", NEG),
      ("w", "1", NEG), ("w", "4", NEG),
      ("w", "2", POS), ("w", "3", POS), ("w", "5", POS)]

G4 = [("x1", "x2", POS), ("x2", "x3", POS), ("x3", "x4", POS),
      ("y3", "x2", POS), ("y3", "x4", POS),
      ("y1", "x1", POS), ("y1", "x4", POS),
      ("x1", "x4", NEG), ("y3", "x3", NEG), ("y1", "x2", NEG)]

G4_PRIME = [("x2", "x3", POS), ("x1", "x4", POS), ("x1", "x3", POS),
            ("y3", "x4", POS), ("y1", "x1", POS), ("y1", "x2", POS),
            ("y3", "x3", POS),
            ("x1", "x2", NEG), ("x3", "x4", NEG), ("y1", "y3", NEG)]

G7 = (cyc([str(i) for i in range(1, 7)])
      + [("w", "1", POS), ("w", "4", POS),
         ("w", "2", NEG), ("w", "5", NEG), ("3", "6", NEG)])

G7_PRIME = [("1", "2", POS), ("2", "3", POS), ("4", "5", POS),
            ("5", "1", POS), ("w", "5", POS), ("x", "4", POS),
            ("x", "3", POS), ("w", "2", POS),
            ("3", "4", NEG), ("w", "x", NEG), ("w", "1", NEG)]

MOSER_SPINDLE = [("1", "2", POS), ("3", "4", POS), ("4", "5", POS),
                 ("5", "1", POS), ("x", "5", POS), ("x", "3", POS),
                 ("y", "5", POS), ("y", "2", POS),
                 ("2", "3", NEG), ("x", "4", NEG), ("y", "1", NEG)]

G8 = [("1", "2", POS), ("2", "3", POS), ("4", "5", POS), ("5", "1", POS),
      ("w", "y", POS), ("w", "5", POS), ("x", "4", POS), ("x", "3", POS),
      ("y", "2", POS),
      ("3", "4", NEG), ("w", "x", NEG), ("y", "1", NEG)]

G8_PRIME = [("2", "3", POS), ("3", "4", POS), ("4", "5", POS),
            ("5", "6", POS), ("6", "1", POS),
            ("x", "1", POS), ("x", "5", POS), ("y", "2", POS),
            ("y", "4", POS),
            ("1", "2", NEG), ("x", "6", NEG), ("y", "3", NEG)]

SIGNED_CUBE = [("x4", "x1", POS), ("x1", "x2", POS), ("x2", "x3", POS),
               ("y3", "y4", POS), ("y4", "y1", POS), ("y1", "y2", POS),
               ("x2", "y2", POS), ("x3", "y3", POS), ("x4", "y4", POS),
               ("x3", "x4", NEG), ("y2", "y3", NEG), ("x1", "y1", NEG)]

# -------- two further members of the irreducible non-decomposable class -----

L3_STAR_EXTRA_1 = [("x1", "x2", POS), ("x3", "x4", POS), ("x4", "x5", POS),
                   ("x5", "x1", POS),
                   ("y1", "y3", POS), ("y3", "y5", POS), ("y5", "y2", POS),
                   ("y2", "y4", POS),
                   ("x1", "y1", POS), ("x2", "y2", POS), ("x3", "y3", POS),
                   ("x4", "y4", POS),
                   ("x2", "x3", NEG), ("y1", "y4", NEG), ("x5", "y5", NEG)]

L3_STAR_EXTRA_2 = [(t, b, NEG if (t, b) in (("1", "2"), ("3", "4"),
                                            ("5", "6")) else POS)
                   for t in ("1", "3", "5", "7") for b in ("2", "4", "6")]


def crit(ell, critical=True, irreducible=True, decomposable=False,
         in_s_star=False, **extra):
    rec = {"ell": ell, "critical": critical, "irreducible": irreducible,
           "decomposable": decomposable, "in_s_star": in_s_star}
    rec.update(extra)
    return rec


P3_PROFILE = {"faces": 6, "all_negative": True,
              "one_negative_edge_per_face": True}

ENTRIES = [
    ("c-minus-1", "single negative loop (negative 1-cycle)",
     build_graph(C_MINUS_1), False,
     crit(1, in_s_star=True), ["L1"]),
    ("2c-minus-1", "two negative loops on one vertex",
     build_graph(TWO_C_MINUS_1), False,
     crit(2, decomposable=True), ["L2"]),
    ("c-minus-1-pair", "two disjoint negative loops",
     build_graph(C_MINUS_1_PAIR), False,
     crit(2, decomposable=True), ["L2"]),
    ("k4-minus-all", "complete graph on 4 vertices, all edges negative",
     build_graph(K4_MINUS_ALL), True,
     crit(2, in_s_star=True,
          planar_face_profile={"faces": 4, "all_negative": True,
                               "one_negative_edge_per_face": True}),
     ["L2", "L2*"]),
    ("s3-projective", "12-vertex cubic graph with three negative chords",
     build_graph(S3_PROJECTIVE), False,
     crit(3, in_s_star=True), ["S3*"]),
    ("s3-projective-alt",
     "alternative drawing of s3-projective (switching-isomorphic)",
     build_graph(S3_PROJECTIVE_ALT), False,
     crit(3, in_s_star=True), []),
    ("s3-petersen", "signed Petersen-type graph: 9-cycle, hub, three "
     "negative chords", build_graph(S3_PETERSEN), False,
     crit(3, in_s_star=True), ["S3*"]),
]

for name, desc, edges in [
        ("k5-minus", "K5 minus one edge, negative triangle on 2-4-5",
         K5_MINUS),
        ("w5", "5-wheel with three negative spokes-and-rim edges", W5),
        ("g4", "6-vertex planar graph, three negative edges", G4),
        ("g4-prime", "6-vertex planar companion of g4", G4_PRIME),
        ("g7", "wheel-like 7-vertex planar graph", G7),
        ("g7-prime", "7-vertex planar companion of g7", G7_PRIME),
        ("moser-spindle", "Moser spindle with three negative edges",
         MOSER_SPINDLE),
        ("g8", "cubic 8-vertex planar graph", G8),
        ("g8-prime", "cubic 8-vertex planar companion of g8", G8_PRIME),
        ("signed-cube", "cube graph with three negative edges",
         SIGNED_CUBE)]:
    ENTRIES.append((name, desc, build_graph(edges), True,
                    crit(3, planar_face_profile=dict(P3_PROFILE)), ["P3*"]))

for t in range(5):
    ENTRIES.append((f"ladder-{t}", f"ladder family member, t={t}",
                    ghat(t), False,
                    crit(3, decomposable=True), ["ladder"]))

for t in range(1, 4):
    g, rot, _ = ghat_planar(t)
    ENTRIES.append((f"ladder-planar-{t}",
                    f"planarized ladder family member, t={t}",
                    (g, rot), None,
                    crit(3, decomposable=True,
                         planar_face_profile={"faces": 2 * t + 7,
                                              "negative_faces_at_most": 6}),
                    ["ladder-planar"]))

ENTRIES += [
    ("l3-star-extra-1", "Petersen graph with three negative edges",
     build_graph(L3_STAR_EXTRA_1), False, crit(3), ["L3-extra"]),
    ("l3-star-extra-2", "complete bipartite K(3,4) with a negative "
     "perfect matching on the small side", build_graph(L3_STAR_EXTRA_2),
     False, crit(3), ["L3-extra"]),
]


def main():
    files = {}  # file name -> text, written only once every entry verified
    manifest = []
    for name, desc, payload, want_rot, expected, tags in ENTRIES:
        if isinstance(payload, tuple):
            g, rot = payload
        else:
            g = payload
            rot = _rotation_from_networkx(g) if want_rot else None
        rec = {"name": name, "description": desc, "sg": f"{name}.sg",
               "rot": None, "expected": expected, "tags": tags}
        files[rec["sg"]] = serialize_sg(g)
        if rot is not None:
            rec["rot"] = f"{name}.rot"
            files[rec["rot"]] = serialize_rot(g, rot)
            rot = parse_rot(files[rec["rot"]])
        # verify what will be written: the records re-read from their text
        got = catalog.verify_record(name, parse_sg(files[rec["sg"]]), rot,
                                    expected)
        print(f"  ok {name}: {got}")
        manifest.append(rec)
    files["catalog.json"] = json.dumps(manifest, indent=1) + "\n"
    DATA.mkdir(exist_ok=True)
    for fname, text in files.items():
        (DATA / fname).write_text(text)
    print(f"wrote {len(manifest)} entries to {DATA}")


if __name__ == "__main__":
    main()
