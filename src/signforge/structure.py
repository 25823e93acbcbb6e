"""Structural tests: all-negative-K4 subdivisions, (ir)reducibility,
decomposability, and the star-class membership test.

The decomposition search partitions the edge set into parts that are
themselves critically frustrated, with the part indices summing to the
whole.  Parts are required to be non-decomposable, which pins down their
shape for small indices: a non-decomposable critically-1 part is a
negative cycle, a non-decomposable critically-2 part is an all-negative-K4
subdivision (K4-), and at total index <= 4 at most one part of index >= 3
can occur (its partner is then a single negative cycle).  That makes the
bounded search complete through total index 4; larger indices fall back to
a guarded exponential subset search.

Through index 4 the search takes, at each node, the part containing the
lowest open edge e0 with a budget b left.  A negative-cycle part is
branched on; a K4- part is not searched for, by the complement rule: it
is everything that remains minus the parts after it, whose budgets sum to
b - 2, and a linear test (`_k4_minus_edge_set`) decides whether an edge
set is a K4- subdivision.  So b = 2 tests what remains, b = 3 tests what
remains minus each negative cycle avoiding e0, and b = 4, which occurs
only at the root of k = 4, tests the complement of each pair of disjoint
negative cycles avoiding e0 and of each K4- subdivision containing e0.
That is the one place subdivisions are enumerated, and only when the
degrees leave the two K4- parts exactly 8 branch vertices between them.
Also at k = 4, a part of index 3 next to one negative cycle is checked
directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import guards
from .core import NEG, POS, SignedGraph, build_graph
from .cycles import (has_two_edge_disjoint_negative_cycles,
                     max_edge_disjoint_negative_cycles, negative_cycles)
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


def _path_systems(adj: dict, quad: tuple) -> Iterator[tuple]:
    """All systems of six internally-disjoint paths joining quad pairwise
    such that the four triangle-image cycles are negative.

    adj maps each vertex to its allowed non-loop (eid, other end, sign)
    entries in ascending eid order."""
    branch = set(quad)
    used_edges = 0  # bitmask of the edges on completed paths
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
        nonlocal used_edges
        if pi == 6:
            yield tuple(paths)
            return
        x = quad[_PAIR_ORDER[pi][0]]
        y = quad[_PAIR_ORDER[pi][1]]

        def extend(v, eids, vseq, sgn, mask) -> Iterator[tuple]:
            nonlocal used_edges
            for eid, o, s in adj[v]:
                if used_edges >> eid & 1:
                    continue
                if o == y:
                    path = ((x, y), tuple(eids) + (eid,), tuple(vseq) + (y,))
                    paths.append(path)
                    signs.append(sgn * s)
                    inner = path[2][1:-1]
                    if triangles_ok(pi):
                        used_edges |= mask | 1 << eid
                        used_internal.update(inner)
                        yield from connect(pi + 1)
                        used_edges ^= mask | 1 << eid
                        used_internal.difference_update(inner)
                    signs.pop()
                    paths.pop()
                elif (o not in branch and o not in used_internal
                        and o not in vseq):
                    yield from extend(o, eids + [eid], vseq + [o], sgn * s,
                                      mask | 1 << eid)

        yield from extend(x, [], [x], POS, 0)

    yield from connect(0)


def _iter_k4_minus_subdivisions(g: SignedGraph,
                                allowed: Optional[frozenset] = None
                                ) -> Iterator[K4MinusSubdivision]:
    if allowed is None:
        allowed = frozenset(range(g.m))
    adj: dict = {}
    for eid in sorted(allowed):
        e = g.edges[eid]
        if not e.is_loop:
            adj.setdefault(e.u, []).append((eid, e.v, e.sign))
            adj.setdefault(e.v, []).append((eid, e.u, e.sign))
    candidates = sorted((v for v, entries in adj.items() if len(entries) >= 3),
                        key=g.vindex.__getitem__)
    for quad in itertools.combinations(candidates, 4):
        for system in _path_systems(adj, quad):
            yield K4MinusSubdivision(quad, system)


def find_k4_minus_subdivision(g: SignedGraph
                              ) -> Optional[K4MinusSubdivision]:
    """First all-negative-K4 subdivision in deterministic order, or None.

    Order: branch quadruples ascending by vertex index; within a
    quadruple, paths grown with ascending edge ids.
    """
    guards.check(g.n, guards.QUADRUPLE_SEARCH_MAX_VERTICES,
                 "quadruple search (vertices)")
    guards.check(g.m, guards.QUADRUPLE_SEARCH_MAX_EDGES,
                 "quadruple search (edges)")
    return next(_iter_k4_minus_subdivisions(g), None)


def k4_minus_subdivision_edge_sets(g: SignedGraph,
                                   allowed: Optional[frozenset] = None
                                   ) -> tuple:
    """Distinct edge sets of all-negative-K4 subdivisions inside allowed."""
    out = {w.edge_ids for w in _iter_k4_minus_subdivisions(g, allowed)}
    return tuple(sorted(out, key=sorted))


def _k4_minus_edge_set(g: SignedGraph, es: frozenset) -> bool:
    """Whether es is the edge set of an all-negative-K4 subdivision.

    Linear in |es|: no loops, exactly four vertices of degree 3 and the
    rest of degree 2, the paths traced from the degree-3 vertices through
    the degree-2 ones join the six distinct pairs and use every edge, and
    all four triangle images are negative.  Equal to
    ``es in k4_minus_subdivision_edge_sets(g)``.
    """
    inc: dict = {}
    for eid in es:
        e = g.edges[eid]
        if e.is_loop:
            return False
        inc.setdefault(e.u, []).append(eid)
        inc.setdefault(e.v, []).append(eid)
    branch = [v for v, ids in inc.items() if len(ids) == 3]
    if len(branch) != 4 or any(len(ids) not in (2, 3)
                               for ids in inc.values()):
        return False
    path_sign: dict = {}  # branch pair -> sign; each path is traced twice
    traced = 0
    for a in branch:
        for eid in inc[a]:
            v, sign = a, POS
            while True:
                e = g.edges[eid]
                v = e.other(v)
                sign *= e.sign
                traced += 1
                if len(inc[v]) == 3:
                    break
                first, second = inc[v]
                eid = second if eid == first else first
            if v == a:
                return False
            path_sign[frozenset((a, v))] = sign
    if len(path_sign) != 6 or traced != 2 * len(es):
        return False
    return all(path_sign[frozenset((a, b))] * path_sign[frozenset((a, c))]
               * path_sign[frozenset((b, c))] == NEG
               for a, b, c in itertools.combinations(branch, 3))


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


def _branch_slots(g: SignedGraph) -> int:
    """Branch vertices two edge-disjoint K4- parts covering g would have:
    a vertex of degree 3 or 5 is a branch vertex of one part, a vertex of
    degree 6 of both; a partition into two such parts needs exactly 8."""
    return sum({3: 1, 5: 1, 6: 2}.get(g.degree(v), 0) for v in g.vertices)


def _is_nondecomposable_critical(g: SignedGraph, part: frozenset, k: int) -> bool:
    from .criticality import is_critical

    sub = g.restrict(part)
    # is_critical(sub, k) already fails unless k is the index of sub
    return is_critical(sub, k) and not any(
        True for _ in _decomposition_stream(sub, k))


def _decomposition_stream(g: SignedGraph, k: int) -> Iterator[Decomposition]:
    """All partitions into non-decomposable critical parts (t >= 2 parts)."""
    if k < 2 or g.m == 0:
        return
    all_edges = frozenset(range(g.m))
    neg_sets = [c.edge_set for c in negative_cycles(g)]
    cycles_by_edge: dict = {}
    for cyc in neg_sets:
        for eid in cyc:
            cycles_by_edge.setdefault(eid, []).append(cyc)
    seen: set = set()

    def emit(parts) -> Iterator[Decomposition]:
        d = _normalize(parts)
        key = frozenset(d.parts)
        if key not in seen:
            seen.add(key)
            yield d

    if k <= 4:
        # parts of index 1 (negative cycles) and 2 (all-negative-K4
        # subdivisions), extracted at the lowest uncovered edge e0.  A K4-
        # part taking e0 with budget b is the complement of the parts
        # after it, whose budgets sum to b - 2, so it is tested, not
        # searched for.
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
            if budget == 2:
                # the K4- part is all that remains; alone it is no partition
                if parts and _k4_minus_edge_set(g, remaining):
                    yield from emit(parts + ((remaining, 2),))
            elif budget >= 3:
                # the K4- part next to one or two negative cycles
                free = [c for c in neg_sets if e0 not in c and c <= remaining]
                if budget == 3:
                    for cyc in free:
                        if _k4_minus_edge_set(g, remaining - cyc):
                            yield from emit(parts + ((remaining - cyc, 2),
                                                     (cyc, 1)))
                else:  # budget 4 only at the root of k = 4
                    for i, c1 in enumerate(free):
                        for c2 in free[i + 1:]:
                            if not c1 & c2 and _k4_minus_edge_set(
                                    g, remaining - c1 - c2):
                                yield from emit(((remaining - c1 - c2, 2),
                                                 (c1, 1), (c2, 1)))
            if budget == 4 and _branch_slots(g) == 8:
                # the root of k = 4 split into two K4- parts
                for es in k4_minus_subdivision_edge_sets(g, remaining):
                    if e0 in es and _k4_minus_edge_set(g, remaining - es):
                        yield from emit(((es, 2), (remaining - es, 2)))

        yield from search(all_edges, k, ())

        if k >= 4:
            # one part of index k-1 >= 3 next to a single negative cycle
            for cyc in neg_sets:
                rest = all_edges - cyc
                if rest and _is_nondecomposable_critical(g, rest, k - 1):
                    yield from emit(((cyc, 1), (rest, k - 1)))
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


def _decompositions(g: SignedGraph, k: Optional[int],
                    parts_connected: bool) -> Iterator[Decomposition]:
    """The decomposition stream at k (default: the frustration index),
    without the partitions having a disconnected part if parts_connected."""
    if k is None:
        k = frustration_index(g).index
    for d in _decomposition_stream(g, k):
        if not parts_connected or all(
                g.restrict(eids).is_connected for eids, _ in d.parts):
            yield d


def find_decompositions(g: SignedGraph, k: Optional[int] = None,
                        parts_connected: bool = False) -> tuple:
    """All partitions of the edges into non-decomposable critical parts.

    k defaults to the frustration index.  With parts_connected, parts
    inducing disconnected subgraphs are rejected (non-decomposable parts
    are connected anyway, so this only bites in the fallback regime).
    """
    return tuple(sorted(
        _decompositions(g, k, parts_connected),
        key=lambda d: (d.kind, tuple(sorted(map(sorted, (p for p, _ in d.parts)))))))


def is_decomposable(g: SignedGraph, k: Optional[int] = None,
                    parts_connected: bool = False) -> bool:
    return next(_decompositions(g, k, parts_connected), None) is not None
