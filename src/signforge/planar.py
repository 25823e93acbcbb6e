"""Rotation-system embeddings: face traversal, Euler check, face signs.

An embedding is given as a rotation system: for each vertex, the clockwise
cyclic order of its incident edge-ends (darts).  Faces come out of the
standard traversal (the next dart of a face is the rotation successor of
the current dart's twin).  No embedding is computed by a planarity test:
the catalog's rotations are shipped data, and ghat_planar's is read off
its drawing.  Well-formedness plus the Euler count is the whole acceptance
bar for planarity claims.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .core import NEG, SignedGraph, _content_lines, _label
from .errors import EmbeddingError, TheoremViolation

# a dart is (edge id, end); end 0 = the 'a' end (edge.u), end 1 = 'b' (edge.v)
_DART_RE = re.compile(r"^e(\d+)\.([ab])$")


@dataclass(frozen=True)
class RotationSystem:
    """vertex -> clockwise tuple of darts at that vertex."""
    rotation: dict

    def successor(self, vertex, dart) -> tuple:
        ring = self.rotation[vertex]
        return ring[(ring.index(dart) + 1) % len(ring)]


def dart_vertex(g: SignedGraph, dart: tuple):
    eid, end = dart
    e = g.edges[eid]
    return e.u if end == 0 else e.v


def validate_rotation(g: SignedGraph, rot: RotationSystem) -> None:
    """Every edge-end at its own vertex, each exactly once, none missing."""
    seen = set()
    if set(rot.rotation) != set(g.vertices):
        raise EmbeddingError("rotation vertex set differs from the graph's")
    for v, ring in rot.rotation.items():
        for dart in ring:
            eid, end = dart
            if not (0 <= eid < g.m) or end not in (0, 1):
                raise EmbeddingError(f"unknown dart {dart!r} at {v!r}")
            if dart_vertex(g, dart) != v:
                raise EmbeddingError(f"dart {dart!r} listed at wrong vertex {v!r}")
            if dart in seen:
                raise EmbeddingError(f"dart {dart!r} listed twice")
            seen.add(dart)
    if len(seen) != 2 * g.m:
        raise EmbeddingError("missing edge-ends in rotation")


@dataclass(frozen=True)
class FaceWalk:
    darts: tuple

    @property
    def edge_ids(self) -> tuple:
        return tuple(eid for eid, _ in self.darts)

    def __len__(self) -> int:
        return len(self.darts)

    def sign(self, g: SignedGraph) -> int:
        return math.prod(g.edges[eid].sign for eid in self.edge_ids)


def faces(g: SignedGraph, rot: RotationSystem) -> tuple:
    """All facial walks of the embedding, each from its least dart, in the
    order of those darts: one pass over the darts in ascending order.

    A rotation system here claims a planar embedding, so for a connected
    graph the Euler count n - m + f = 2 is enforced (EmbeddingError).
    """
    validate_rotation(g, rot)
    if g.m == 0:
        raise EmbeddingError("empty graph has no faces")

    def next_dart(d):
        twin = (d[0], 1 - d[1])
        return rot.successor(dart_vertex(g, twin), twin)

    out, on_face = [], set()
    for start in ((eid, end) for eid in range(g.m) for end in (0, 1)):
        if start not in on_face:
            walk, d = [start], next_dart(start)
            while d != start:
                walk.append(d)
                d = next_dart(d)
            on_face.update(walk)
            out.append(FaceWalk(tuple(walk)))
    if g.is_connected and g.n - g.m + len(out) != 2:
        raise EmbeddingError(
            f"Euler violation: {g.n} - {g.m} + {len(out)} != 2")
    return tuple(out)


@dataclass(frozen=True)
class PlanarCriticalReport:
    k: int
    face_count: int
    negative_face_count: int
    all_faces_negative: bool
    face_count_is_2k: bool
    one_negative_edge_per_face: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "faces": self.face_count,
            "negative_faces": self.negative_face_count,
            "all_faces_negative": self.all_faces_negative,
            "face_count_is_2k": self.face_count_is_2k,
            "one_negative_edge_per_face": self.one_negative_edge_per_face,
        }


def verify_planar_critical(g: SignedGraph, rot: RotationSystem,
                           k: int) -> PlanarCriticalReport:
    """Face-level report of a planar embedding; k must be its frustration
    index, and criticality is not checked (`signforge faces --k` does).

    A minimum signature N (|N| = k) meets the face walks 2k times, as each
    edge has two darts, and a face an odd number of times iff it is
    negative.  So at its index any embedding, critical or not, has at most
    2k negative faces (else TheoremViolation), and N meets every face once
    iff there are 2k faces, all negative.  No switching is walked.
    """
    fs = faces(g, rot)
    neg_faces = sum(1 for f in fs if f.sign(g) == NEG)
    if neg_faces > 2 * k:
        raise TheoremViolation(
            f"embedding with {neg_faces} negative faces exceeds 2k={2*k}")
    return PlanarCriticalReport(
        k=k,
        face_count=len(fs),
        negative_face_count=neg_faces,
        all_faces_negative=neg_faces == len(fs),
        face_count_is_2k=len(fs) == 2 * k,
        one_negative_edge_per_face=neg_faces == len(fs) == 2 * k,
    )


# -- .rot text format -----------------------------------------------------------

def parse_rot(text: str) -> RotationSystem:
    """Parse the .rot format: `v: e0.a e3.b ...` per vertex, clockwise.
    Each line splits at its last `:`, as darts hold none."""
    rotation = {}
    for ln, line in _content_lines(text):
        if ":" not in line:
            raise EmbeddingError(f"line {ln}: expected `v: darts...`")
        vtok, dpart = line.rsplit(":", 1)
        v = vtok.strip()
        if v.split() != [v] or v in rotation:
            raise EmbeddingError(f"line {ln}: bad or repeated vertex {v!r}")
        ring = []
        for tok in dpart.split():
            m = _DART_RE.match(tok)
            if not m:
                raise EmbeddingError(f"line {ln}: malformed dart {tok!r}")
            ring.append((int(m.group(1)), 0 if m.group(2) == "a" else 1))
        rotation[v] = tuple(ring)
    return RotationSystem(rotation)


def serialize_rot(g: SignedGraph, rot: RotationSystem) -> str:
    lines = []
    for v in g.vertices:
        darts = " ".join(f"e{eid}.{'a' if end == 0 else 'b'}"
                         for eid, end in rot.rotation[v])
        lines.append(f"{_label(v)}: {darts}")
    return "\n".join(lines) + "\n"
