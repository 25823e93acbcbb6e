"""Named-graph catalog: machine-readable copies of the studied graphs.

Entries ship as .sg (+ optional .rot) files in the data directory with a
manifest of expected properties.  verify() recomputes everything from the
shipped files — frustration index, criticality by all three methods,
irreducibility, decomposability, star-class membership, and the face
profile where an embedding is shipped — and compares against the
manifest.  scripts/build_catalog_data.py regenerates the data files.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .core import SignedGraph, parse_sg
from .criticality import _certificates
from .cycles import has_two_edge_disjoint_negative_cycles
from .errors import SignforgeError
from .planar import RotationSystem, parse_rot, verify_planar_critical
from .structure import is_decomposable, is_irreducible


class CatalogMismatch(SignforgeError):
    """A recomputed property differs from the catalog's expected value."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    graph: SignedGraph
    rotation: Optional[RotationSystem]
    expected: dict
    tags: tuple


@functools.cache
def _data_root():
    return resources.files("signforge.data")


@functools.cache
def _records() -> dict:
    """name -> manifest record, in manifest order, read once."""
    return {rec["name"]: rec for rec in
            json.loads((_data_root() / "catalog.json").read_text())}


def names() -> tuple:
    return tuple(_records())


def entries_with_tag(tag: str) -> tuple:
    return tuple(name for name, rec in _records().items()
                 if tag in rec["tags"])


def get(name: str) -> CatalogEntry:
    """The entry, parsed afresh: it shares nothing with another call."""
    rec = _records().get(name)
    if rec is None:
        raise SignforgeError(f"no catalog entry named {name!r}")
    graph = parse_sg((_data_root() / rec["sg"]).read_text())
    rot = (parse_rot((_data_root() / rec["rot"]).read_text())
           if rec.get("rot") else None)
    return CatalogEntry(name, rec["description"], graph, rot,
                        copy.deepcopy(rec["expected"]), tuple(rec["tags"]))


def verify(name: str) -> dict:
    """Recompute all expected properties of one entry; raise on mismatch."""
    entry = get(name)
    return verify_record(name, entry.graph, entry.rotation, entry.expected)


def verify_record(name: str, g: SignedGraph,
                  rotation: Optional[RotationSystem], exp: dict) -> dict:
    """Recompute the expected record exp for graph g (faces from rotation,
    if given); raise CatalogMismatch, naming name, on any difference."""
    got: dict = {}

    certs = _certificates(g)  # the index and all three verdicts, one walk
    k = got["ell"] = certs[0].k
    got["critical"] = all(c.critical for c in certs)
    got["irreducible"] = is_irreducible(g)
    got["decomposable"] = is_decomposable(g, k)
    # each part holds a negative cycle: a partition is a packing of two
    got["in_s_star"] = (got["critical"] and got["irreducible"]
                        and not got["decomposable"]
                        and not has_two_edge_disjoint_negative_cycles(g))

    if rotation is not None:
        report = verify_planar_critical(g, rotation, k)
        profile = {
            "faces": report.face_count,
            "negative_faces": report.negative_face_count,
            "all_negative": report.all_faces_negative,
            "one_negative_edge_per_face": report.one_negative_edge_per_face}
        got["planar_face_profile"] = {
            key: value for key, value in profile.items()
            if key in exp.get("planar_face_profile", {})}

    # an expected key that is not computed (a profile without a rotation,
    # say) is a mismatch too
    mismatches = {key: (value, got.get(key, "not computed"))
                  for key, value in exp.items()
                  if key not in got or got[key] != value}
    if mismatches:
        raise CatalogMismatch(f"{name}: expected vs got {mismatches}")
    return got


def verify_all() -> dict:
    """name -> recomputed record; raises on the first mismatch."""
    return {name: verify(name) for name in names()}
