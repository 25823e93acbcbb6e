"""Structural tests: all-negative-K4 subdivisions, (ir)reducibility,
decomposability, and the star-class membership test.

The decomposition search partitions the edge set into parts that are
themselves critically frustrated, with the part indices summing to the
whole.  Parts are required to be non-decomposable, which pins down their
shape for small indices: a non-decomposable critically-1 part is a
negative cycle, a non-decomposable critically-2 part is an all-negative-K4
subdivision, and at total index <= 4 at most one part of index >= 3 can
occur (its partner is then a single negative cycle).  That makes the
bounded search complete through total index 4; larger indices fall back to
a guarded exponential subset search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import guards
from .core import (NEG, POS, Edge, SignedGraph, build_graph, cycle_sign)
from .cycles import max_edge_disjoint_negative_cycles, negative_cycles
from .errors import PreconditionError, TheoremViolation
from .frustration import frustration_index


# -- all-negative-K4 subdivisions ------------------------------------------------

# pair order for the six connecting paths of branch vertices (a, b, c, d)
_PAIR_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# triangles checkable after each path completes: (path indices, ready-after)
_TRIANGLES = (((0, 1, 3), 3), ((0, 2, 4), 4), ((1, 2, 5), 5), ((3, 4, 5), 5))


@dataclass(frozen=True)
class K4MinusSubdivision:
    branch_vertices: tuple
    paths: tuple  # six (endpoint pair, edge-id tuple, vertex sequence)

    @property
    def edge_ids(self) -> frozenset:
        return frozenset(e for _, eids, _ in self.paths for e in eids)

    def to_json(self) -> dict:
        return {
            "branch_vertices": [str(v) for v in self.branch_vertices],
            "paths": [{"ends": [str(a), str(b)], "edges": list(eids)}
                      for (a, b), eids, _ in self.paths],
        }


def _path_systems(g: SignedGraph, quad: tuple, allowed: frozenset
                  ) -> Iterator[tuple]:
    """All systems of six internally-disjoint paths joining quad pairwise
    such that the four triangle-image cycles are negative."""
    branch = set(quad)
    used_edges: set = set()
    used_internal: set = set()
    paths: list = []
    signs: list = []

    def triangles_ok(upto: int) -> bool:
        for tri, ready in _TRIANGLES:
            if ready == upto:
                if signs[tri[0]] * signs[tri[1]] * signs[tri[2]] != NEG:
                    return False
        return True

    def connect(pi: int) -> Iterator[tuple]:
        if pi == 6:
            yield tuple(paths)
            return
        x = quad[_PAIR_ORDER[pi][0]]
        y = quad[_PAIR_ORDER[pi][1]]

        def extend(v, eids, vseq, sgn) -> Iterator[tuple]:
            for eid in sorted(g.incidence[v]):
                if eid in used_edges or eid not in allowed:
                    continue
                e = g.edges[eid]
                if e.is_loop:
                    continue
                o = e.other(v)
                if o == y:
                    path = ((x, y), tuple(eids) + (eid,), tuple(vseq) + (y,))
                    paths.append(path)
                    signs.append(sgn * e.sign)
                    inner = path[2][1:-1]
                    if triangles_ok(pi):
                        used_edges.update(path[1])
                        used_internal.update(inner)
                        yield from connect(pi + 1)
                        used_edges.difference_update(path[1])
                        used_internal.difference_update(inner)
                    signs.pop()
                    paths.pop()
                elif (o not in branch and o not in used_internal
                        and o not in vseq):
                    yield from extend(o, eids + [eid], vseq + [o], sgn * e.sign)

        yield from extend(x, [], [x], POS)

    yield from connect(0)


def _iter_k4_minus_subdivisions(g: SignedGraph,
                                allowed: Optional[frozenset] = None
                                ) -> Iterator[K4MinusSubdivision]:
    if allowed is None:
        allowed = frozenset(range(g.m))
    touched = sorted(
        {v for eid in allowed for v in (g.edges[eid].u, g.edges[eid].v)},
        key=lambda v: g.vindex[v])

    def allowed_degree(v):
        return sum(1 for eid in g.incidence[v]
                   if eid in allowed and not g.edges[eid].is_loop)

    candidates = [v for v in touched if allowed_degree(v) >= 3]
    for quad in itertools.combinations(candidates, 4):
        for system in _path_systems(g, quad, allowed):
            yield K4MinusSubdivision(quad, system)


def find_k4_minus_subdivision(g: SignedGraph,
                              max_vertices: int = None,
                              max_edges: int = None
                              ) -> Optional[K4MinusSubdivision]:
    """First all-negative-K4 subdivision in deterministic order, or None.

    Order: branch quadruples ascending by vertex index; within a
    quadruple, paths grown with ascending edge ids.
    """
    nv = guards.QUADRUPLE_SEARCH_MAX_VERTICES if max_vertices is None else max_vertices
    ne = guards.QUADRUPLE_SEARCH_MAX_EDGES if max_edges is None else max_edges
    guards.check(g.n, nv, "quadruple search (vertices)")
    guards.check(g.m, ne, "quadruple search (edges)")
    return next(_iter_k4_minus_subdivisions(g), None)


def k4_minus_subdivision_edge_sets(g: SignedGraph,
                                   allowed: Optional[frozenset] = None
                                   ) -> tuple:
    """Distinct edge sets of all-negative-K4 subdivisions inside allowed."""
    out = {w.edge_ids for w in _iter_k4_minus_subdivisions(g, allowed)}
    return tuple(sorted(out, key=sorted))


# -- packing vs frustration (subdivision-free equality) --------------------------

@dataclass(frozen=True)
class PackingReport:
    frustration: int
    subdivision: Optional[K4MinusSubdivision]
    packing: Optional[tuple]

    @property
    def equality(self) -> Optional[bool]:
        if self.packing is None:
            return None
        return len(self.packing) == self.frustration


def check_packing_equality(g: SignedGraph) -> PackingReport:
    """If no all-negative-K4 subdivision exists, the maximum number of
    edge-disjoint negative cycles must equal the frustration index; check
    it (TheoremViolation if not) and return the packing.  Otherwise return
    the subdivision witness.
    """
    ell = frustration_index(g).index
    sub = find_k4_minus_subdivision(g)
    if sub is not None:
        return PackingReport(ell, sub, None)
    pack = max_edge_disjoint_negative_cycles(g)
    report = PackingReport(ell, None, pack)
    if not report.equality:
        raise TheoremViolation(
            f"packing {len(pack)} != frustration index {ell} on a "
            "subdivision-free instance")
    return report


# -- signed subdivision and suppression -------------------------------------------

def subdivide(g: SignedGraph, u, v, new_vertex=None) -> SignedGraph:
    """Subdivide the monochromatic bundle between u and v (u = v for loops).

    The bundle, say t edges of sign s, becomes t edges u-w of sign s plus
    t positive edges w-v through a fresh vertex w.
    """
    g.check_vertices((u, v))
    pair = frozenset((u, v))
    ids = g.bundles.get(pair, [])
    if not ids:
        raise PreconditionError(f"no bundle between {u!r} and {v!r}")
    signs = {g.edges[i].sign for i in ids}
    if len(signs) != 1:
        raise PreconditionError("bundle is not monochromatic")
    (s,) = signs
    if new_vertex is None:
        i = 0
        while f"w{i}" in g.vindex:
            i += 1
        new_vertex = f"w{i}"
    elif new_vertex in g.vindex:
        raise PreconditionError(f"vertex {new_vertex!r} already present")
    drop = set(ids)
    edge_list = [(e.u, e.v, e.sign) for e in g.edges if e.eid not in drop]
    edge_list += [(u, new_vertex, s)] * len(ids)
    edge_list += [(new_vertex, v, POS)] * len(ids)
    return build_graph(edge_list, isolated=g.vertices)


def _suppression_result(g: SignedGraph, v) -> Optional[list]:
    """Replacement edges if v is suppressible, else None."""
    if any(g.edges[eid].is_loop for eid in g.incidence[v]):
        return None
    nb = sorted(g.neighbors(v), key=lambda w: g.vindex[w])
    if len(nb) == 2:
        x, y = nb
        bx = g.bundles[frozenset((v, x))]
        by = g.bundles[frozenset((v, y))]
        sx = {g.edges[i].sign for i in bx}
        sy = {g.edges[i].sign for i in by}
        if len(bx) == len(by) and len(sx) == 1 and len(sy) == 1:
            s = next(iter(sx)) * next(iter(sy))
            return [(x, y, s)] * len(bx)
        return None
    if len(nb) == 1:
        # inverse of subdividing loops: t edges of one sign + t positive
        (x,) = nb
        ids = g.bundles[frozenset((v, x))]
        neg = sum(1 for i in ids if g.edges[i].sign == NEG)
        if len(ids) == 2 * neg and neg >= 1:
            return [(x, x, NEG)] * neg
        return None
    return None


def suppressible_vertices(g: SignedGraph) -> tuple:
    return tuple(v for v in g.vertices if _suppression_result(g, v) is not None)


def is_irreducible(g: SignedGraph) -> bool:
    """No vertex can be suppressed: g is not a proper subdivision."""
    return not suppressible_vertices(g)


def suppress(g: SignedGraph, v) -> SignedGraph:
    repl = _suppression_result(g, v)
    if repl is None:
        raise PreconditionError(f"vertex {v!r} is not suppressible")
    gone = set(g.incidence[v])
    edge_list = [(e.u, e.v, e.sign) for e in g.edges if e.eid not in gone]
    edge_list += repl
    isolated = [w for w in g.vertices if w != v]
    return build_graph(edge_list, isolated=isolated)


def reduce_to_irreducible(g: SignedGraph,
                          choose: Optional[Callable] = None) -> SignedGraph:
    """Suppress vertices until none is suppressible.

    choose picks among the currently suppressible vertices (default: least
    by vertex order); the fixpoint is unique up to switching isomorphism
    regardless, which the test suite checks with randomized orders.
    """
    while True:
        cand = suppressible_vertices(g)
        if not cand:
            return g
        v = cand[0] if choose is None else choose(cand)
        g = suppress(g, v)


# -- star-class membership ---------------------------------------------------------

def in_s_star(g: SignedGraph, k: Optional[int] = None) -> bool:
    """Irreducible critical graphs with no two edge-disjoint negative cycles.

    Raises PreconditionError unless g is irreducible and critically
    k-frustrated; then membership is exactly packing number <= 1.
    """
    from .criticality import is_critical  # local import, cycle of concerns

    if not is_irreducible(g):
        raise PreconditionError("graph is reducible")
    ell = frustration_index(g).index
    if k is None:
        k = ell
    if ell != k or not is_critical(g, k):
        raise PreconditionError(f"graph is not critically {k}-frustrated")
    from .cycles import has_two_edge_disjoint_negative_cycles
    return not has_two_edge_disjoint_negative_cycles(g)


# -- decomposability -----------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Partition of the edge ids into critically k_i-frustrated parts."""
    parts: tuple  # of (frozenset of edge ids, k_i), sorted

    @property
    def kind(self) -> tuple:
        return tuple(k for _, k in self.parts)

    def to_json(self) -> dict:
        return {"kind": list(self.kind),
                "parts": [{"k": k, "edges": sorted(eids)}
                          for eids, k in self.parts]}


def _normalize(parts) -> Decomposition:
    return Decomposition(tuple(sorted(parts, key=lambda p: (p[1], sorted(p[0])))))


def _is_nondecomposable_critical(g: SignedGraph, part: frozenset, k: int) -> bool:
    from .criticality import is_critical

    sub = g.restrict(part)
    if frustration_index(sub).index != k:
        return False
    if not is_critical(sub, k):
        return False
    return not any(True for _ in _decomposition_stream(sub, k))


def _decomposition_stream(g: SignedGraph, k: int) -> Iterator[Decomposition]:
    """All partitions into non-decomposable critical parts (t >= 2 parts)."""
    if k < 2 or g.m == 0:
        return
    all_edges = frozenset(range(g.m))
    negs = negative_cycles(g)
    cycles_by_edge: dict = {}
    for c in negs:
        for eid in c.edge_set:
            cycles_by_edge.setdefault(eid, []).append(c.edge_set)
    seen: set = set()

    def emit(parts) -> Iterator[Decomposition]:
        d = _normalize(parts)
        key = frozenset(d.parts)
        if key not in seen:
            seen.add(key)
            yield d

    if k <= 4:
        # parts of index 1 (negative cycles) and 2 (all-negative-K4
        # subdivisions), extracted at the lowest uncovered edge
        def search(remaining: frozenset, budget: int, parts: tuple
                   ) -> Iterator[Decomposition]:
            if not remaining:
                if budget == 0 and len(parts) >= 2:
                    yield from emit(parts)
                return
            if budget == 0:
                return
            e0 = min(remaining)
            for cyc in cycles_by_edge.get(e0, ()):
                if cyc <= remaining:
                    yield from search(remaining - cyc, budget - 1,
                                      parts + ((cyc, 1),))
            if budget >= 2:
                for es in k4_minus_subdivision_edge_sets(g, remaining):
                    if e0 in es:
                        yield from search(remaining - es, budget - 2,
                                          parts + ((es, 2),))

        yield from search(all_edges, k, ())

        if k >= 4:
            # one part of index k-1 >= 3 next to a single negative cycle
            for c in negs:
                rest = all_edges - c.edge_set
                if rest and _is_nondecomposable_critical(g, rest, k - 1):
                    yield from emit(((c.edge_set, 1), (rest, k - 1)))
        return

    # guarded general fallback: extract any critical non-decomposable part
    # containing the lowest edge, recurse on the rest
    guards.check(g.m, guards.PARTITION_SEARCH_MAX_EDGES, "partition search")

    def part_candidates(remaining: frozenset) -> Iterator[tuple]:
        e0 = min(remaining)
        rest = sorted(remaining - {e0})
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                yield frozenset((e0,) + combo)

    def general(remaining: frozenset, budget: int, parts: tuple
                ) -> Iterator[Decomposition]:
        if not remaining:
            if budget == 0 and len(parts) >= 2:
                yield from emit(parts)
            return
        if budget == 0:
            return
        for cand in part_candidates(remaining):
            sub = g.restrict(cand)
            kc = frustration_index(sub).index
            if not 1 <= kc <= budget:
                continue
            if _is_nondecomposable_critical(g, cand, kc):
                yield from general(remaining - cand, budget - kc,
                                   parts + ((cand, kc),))

    yield from general(all_edges, k, ())


def find_decompositions(g: SignedGraph, k: Optional[int] = None,
                        parts_connected: bool = False) -> tuple:
    """All partitions of the edges into non-decomposable critical parts.

    k defaults to the frustration index.  With parts_connected, parts
    inducing disconnected subgraphs are rejected (non-decomposable parts
    are connected anyway, so this only bites in the fallback regime).
    """
    if k is None:
        k = frustration_index(g).index
    out = []
    for d in _decomposition_stream(g, k):
        if parts_connected and any(
                not g.restrict(eids).is_connected for eids, _ in d.parts):
            continue
        out.append(d)
    out.sort(key=lambda d: (d.kind, tuple(sorted(map(sorted, (p for p, _ in d.parts))))))
    return tuple(out)


def is_decomposable(g: SignedGraph, k: Optional[int] = None,
                    parts_connected: bool = False) -> bool:
    if k is None:
        k = frustration_index(g).index
    for d in _decomposition_stream(g, k):
        if parts_connected and any(
                not g.restrict(eids).is_connected for eids, _ in d.parts):
            continue
        return True
    return False
