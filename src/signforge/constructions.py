"""Generators: the base quadrilateral graph, the ladder family and its
planarization, and the negative-edge join of two critical graphs.

ghat(t) is a 4-regular graph on x, y, z, w and 2t interior vertices with
exactly three negative edges (one x-w copy and both y-z copies).  It is
critically 3-frustrated, irreducible, and decomposes into three negative
cycles.  ghat_planar(t) resolves the single drawing crossing with a new
degree-4 vertex s, giving a planar member of the same class; its rotation
is read off that drawing, not found by a planarity test.
"""

from __future__ import annotations

from typing import Tuple

from .core import NEG, POS, SignedGraph, build_graph
from .errors import PreconditionError
from .planar import RotationSystem, validate_rotation


def ghat(t: int) -> SignedGraph:
    """The ladder family member with 4 + 2t vertices and 4t + 8 edges.

    Vertices x, y, z, w plus a1..at, b1..bt.  Three negative edges: one
    x-w copy and both y-z copies.  The three positive paths (x..z through
    the a-side, y..w through the b-side, and the long alternating x..w
    path) interleave so that every interior vertex has four distinct
    neighbors, which makes the graph irreducible.
    """
    if t < 0:
        raise PreconditionError("t must be >= 0")
    a, b, alternating = _ladder_sequences(t)
    edges = [("x", "y", POS), ("w", "z", POS),
             ("x", "w", NEG), ("y", "z", NEG), ("y", "z", NEG)]

    def path(seq):
        return [(seq[i], seq[i + 1], POS) for i in range(len(seq) - 1)]

    edges += path(["x"] + a + ["z"])
    edges += path(["y"] + b + ["w"])
    edges += path(alternating)
    return build_graph(edges)


def _ladder_sequences(t: int) -> tuple:
    """(a1..at, b1..bt, the x, b1, a1, ..., bt, at, w path): the sequences
    both ghat(t) and its decomposition cycles are built on."""
    a = [f"a{i}" for i in range(1, t + 1)]
    b = [f"b{i}" for i in range(1, t + 1)]
    alternating = ["x"]
    for ai, bi in zip(a, b):
        alternating += [bi, ai]
    return a, b, alternating + ["w"]


def ghat_decomposition_cycles(t: int) -> tuple:
    """The three negative cycles partitioning the edges of ghat(t), as
    vertex sequences (closed walks)."""
    a, b, alternating = _ladder_sequences(t)
    return (
        tuple(alternating + ["x"]),                 # negative x-w copy + long path
        tuple(["x", "y", "z"] + list(reversed(a)) + ["x"]),  # one y-z copy
        tuple(["w", "z", "y"] + b + ["w"]),                  # the other y-z copy
    )


def _ladder_rotation(g: SignedGraph, t: int) -> RotationSystem:
    """The planar rotation of ghat_planar(t), read off its drawing.

    x, a1..at, w run right to left along the top row and y, b1..bt, z
    right to left along the bottom row; s sits where at-z and bt-w used to
    cross.  x-w arcs above the rows and the two y-z copies nest below
    them, so the copies meet y and z in opposite order.
    """
    top = ["x"] + [f"a{i}" for i in range(1, t + 1)] + ["w"]
    bottom = ["y"] + [f"b{i}" for i in range(1, t + 1)] + ["s"]
    # clockwise neighbour orders; top[-1] is w, reached from x over the arc
    ring = {"y": ["x", "z", "z", "b1"], "w": ["x", top[t], "s", "z"],
            "z": ["w", "s", "y", "y"], "s": ["w", top[t], bottom[t], "z"]}
    for i in range(t + 1):
        ring[top[i]] = [top[i - 1], bottom[i], bottom[i + 1], top[i + 1]]
    for i in range(1, t + 1):
        ring[bottom[i]] = [bottom[i + 1], top[i], top[i - 1], bottom[i - 1]]
    ids = {}
    for e in g.edges:
        ids.setdefault((e.u, e.v), []).append(e.eid)
        ids.setdefault((e.v, e.u), []).append(e.eid)
    ids["z", "y"].reverse()  # z meets the nested y-z copies inner first
    rotation = {}
    for v, nbrs in ring.items():
        pending = {u: iter(ids[v, u]) for u in nbrs}
        rotation[v] = tuple((eid, 0 if g.edges[eid].u == v else 1)
                            for eid in (next(pending[u]) for u in nbrs))
    rot = RotationSystem(rotation)
    validate_rotation(g, rot)
    return rot


def ghat_planar(t: int) -> Tuple[SignedGraph, RotationSystem, tuple]:
    """Planarized ladder member: crossing resolved by a new vertex s.

    Removes the two crossing edges (the last y..w path edge bt-w and the
    last x..z path edge at-z) and reconnects them through s with four
    positive edges.  Returns (graph, planar rotation, witness cuts): the
    vertex sets {w, z} and {w, z, s} both bound equilibrated cuts.
    """
    if t < 1:
        raise PreconditionError("t must be >= 1 (no crossing at t = 0)")
    base = ghat(t)
    at, bt = f"a{t}", f"b{t}"
    drop = [e.eid for e in base.edges
            if e.pair in (frozenset((bt, "w")), frozenset((at, "z")))]
    edge_list = [(e.u, e.v, e.sign) for e in base.edges if e.eid not in drop]
    edge_list += [(bt, "s", POS), ("s", "w", POS),
                  (at, "s", POS), ("s", "z", POS)]
    g = build_graph(edge_list, isolated=base.vertices)
    rot = _ladder_rotation(g, t)
    witness_cuts = (frozenset(("w", "z")), frozenset(("w", "z", "s")))
    return g, rot, witness_cuts


def h_join(g1: SignedGraph, eid1: int, g2: SignedGraph, eid2: int
           ) -> SignedGraph:
    """Join at designated negative edges x-y and u-v.

    Both edges are deleted; a negative x-u and a positive y-v edge splice
    the graphs together (x, u are the stored first endpoints).  Vertices
    are prefixed 'a.'/'b.' to keep the two sides apart.  When the inputs
    are critically k1- and k2-frustrated members of the irreducible
    non-decomposable class, the join lands in the class for k1 + k2 - 1.
    """
    for name, g, eid in (("first", g1, eid1), ("second", g2, eid2)):
        if not 0 <= eid < g.m:
            raise PreconditionError(f"{name} designated edge {eid} is not "
                                    f"an edge id (0..{g.m - 1})")
    e1, e2 = g1.edges[eid1], g2.edges[eid2]
    for name, e in (("first", e1), ("second", e2)):
        if e.sign != NEG:
            raise PreconditionError(f"{name} designated edge must be negative")
        if e.is_loop:
            raise PreconditionError(f"{name} designated edge must not be a loop")

    def tag(prefix, v):
        return f"{prefix}.{v}"

    edge_list = [(tag("a", e.u), tag("a", e.v), e.sign)
                 for e in g1.edges if e.eid != eid1]
    edge_list += [(tag("b", e.u), tag("b", e.v), e.sign)
                  for e in g2.edges if e.eid != eid2]
    edge_list.append((tag("a", e1.u), tag("b", e2.u), NEG))
    edge_list.append((tag("a", e1.v), tag("b", e2.v), POS))
    isolated = [tag("a", v) for v in g1.vertices] + \
               [tag("b", v) for v in g2.vertices]
    return build_graph(edge_list, isolated=isolated)
