"""Structural tests: all-negative-K4 subdivisions, (ir)reducibility,
decomposability, and the star-class membership test.

The decomposition search partitions the edge set into parts that are
themselves critically frustrated, with the part indices summing to the
whole.  Parts are required to be non-decomposable, which pins down their
shape for small indices: a non-decomposable critically-1 part is a
negative cycle, and a non-decomposable critically-2 part is an
all-negative-K4 subdivision (K4-).  An edge on no negative cycle lies in
no critical part, so such an edge (a positive loop, say) leaves no
partition.  A negative loop is always a part on its own: a critical part
of index >= 2 minus one of its negative loops is critical again, one
index lower, so a non-decomposable part of index >= 2 has no loop.  The
loops are set aside first.

One recursion serves every index, on int edge masks.  At each node it
takes the part holding the lowest open edge e0, with a budget b of index
left.  Either that part is a negative cycle through e0, and is branched
on, or it has index j >= 2 and is the last part taken: everything that
remains minus a family F of later parts, which avoid e0 and have indices
summing to b - j.  The cycle branch picks from `through[e0] & ~dead` in
ascending cycle order: `through[e]` masks over cycle indices the
negative cycles through edge e, and `dead`, the OR of `through` over the
edges of the cycles taken, the cycles that share an edge with them;
every other cycle through an open edge lies in what remains, so no
subset test is needed.  At b = 1 the last part is what remains, found by
one lookup among the cycle masks.  F is drawn, once per unordered
family, from three sources: the negative cycles (index 1), the K4-
subdivisions (index 2) and, only when b >= 5, a guarded subset search
for non-decomposable critical parts of index >= 3.  The last part is
then tested, not searched for: at j = 2 by the K4- path search on that
edge set alone (`_k4_minus_edge_set`), linear since the set needs four
vertices of degree 3 and the rest of degree 2, which forces every path
out of the four; at j >= 3 by a criticality check and a recursive
decomposition search.  The other parts of a partition avoid its part
through e0, so they are exactly such an F; the search is complete at
every index and emits each partition once.

The j = 2 test is skipped where parity rules it out.  A cycle is an even
subgraph, so removing one keeps every vertex's degree parity; a node
reached through cycles alone, with a family of cycles alone, leaves a
last part with the odd-degree vertices of the non-loop edges, and a K4-
has exactly four.  That count is taken once per search.

Every K4- answer is read off one stream, `_systems`: one loop over the
quadruples of branch vertices and, per quadruple, one depth-first search
that grows the six connecting paths in turn and skips every step that
leaves a branch vertex fewer usable edges than the later paths ending
there need.  It yields each system with its edge mask, which the
enumeration, the decomposition search's index-2 parts and the edge-set
test read as they are.  Once _GATE
quadruples have yielded no system, `find_k4_minus_subdivision` adds a
sign-parity lookahead (`_Lookahead`): it cuts a step after which some
triangle not yet closed can no longer close negative through the
untaken vertices.  Both cuts open only subtrees without a system, so the
systems, their order and the witness are the plain search's.  The gate
spares searches that find a witness within a few quadruples the cost of
the lookahead's walk searches.  The enumeration and the edge-set test
keep the plain search: the test's paths are forced, and most of the
enumeration's subtrees hold systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from . import guards
from .core import NEG, POS, SignedGraph, _ids, build_graph
from .criticality import certify
from .cycles import (_cycle_table, has_two_edge_disjoint_negative_cycles,
                     max_edge_disjoint_negative_cycles)
from .errors import PreconditionError, TheoremViolation
from .frustration import frustration_index


# -- all-negative-K4 subdivisions ------------------------------------------------

# pair order for the six connecting paths of branch vertices (a, b, c, d)
_PAIR_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# per path: the triangles (as path indices) its completion makes checkable;
# (3, 4, 5) is implied, as each path lies on two triangles, so the four
# triangle signs multiply to +1
_TRIANGLES = ((), (), (), ((0, 1, 3),), ((0, 2, 4),), ((1, 2, 5),))
# per path: how many of the paths after it end at each branch vertex
_LATER = tuple(tuple(sum(i in pair for pair in _PAIR_ORDER[pi + 1:])
                     for i in range(4)) for pi in range(6))
# per path pi: each triangle still open while pi grows, as (its paths done
# before pi, whether pi is on it, the (source, target) branch indices of
# what is left of it), target None standing for the end of pi so far
_OPEN = tuple(tuple((tuple(p for p in tri if p < pi), pi in tri,
                     tuple((_PAIR_ORDER[p][1],
                            None if p == pi else _PAIR_ORDER[p][0])
                           for p in tri if p >= pi))
                    for tri in ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))
                    if tri[2] >= pi) for pi in range(6))
# the sign set of the products of two sign sets, as masks with bit 0 for
# POS and bit 1 for NEG
_TIMES = tuple(tuple(sum({1 << (i ^ j) for i in (0, 1) for j in (0, 1)
                          if p >> i & q >> j & 1}) for q in range(4))
               for p in range(4))
# quadruples `find_k4_minus_subdivision` searches without a system before
# it turns the lookahead on
_GATE = 12


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


def _systems(g: SignedGraph, eids: Iterable[int],
             gate: Optional[int] = None) -> Iterator[tuple]:
    """(quadruple, edge mask, paths) for every system of six
    internally-disjoint paths on the edges eids that joins a quadruple of
    branch vertices pairwise such that the four triangle-image cycles are
    negative: an all-negative-K4 subdivision.  The quadruples come
    ascending by vertex index, and from quadruple number gate on (never
    by default) the search adds the lookahead.

    adj maps each vertex to its non-loop (eid, other end, sign) entries
    (`_adjacency`), and bits maps each of its vertices to a bit of its own
    (`_bits`).  One depth-first search per quadruple quad grows the paths
    in `_PAIR_ORDER`, each along the order of those entries, on one state:
    the bitmask `used` of the edges on the paths so far, the bitmask
    `taken`, by bits, of the branch vertices and every inner vertex so
    far, the stack `steps` of (edge id, far end) steps, whose slice from a
    path's first step is that path, the list `done` of the finished paths
    with their signs, and `free[i]`, the count of unused edges at quad[i]
    whose far end is not an inner vertex.  `hits[o]` lists the branch
    index of each edge between a non-branch vertex o and quad: a step onto
    o as an inner vertex takes those edges out of `free`, and a path that
    is one direct edge takes that edge out at both of its ends.  `used`
    and `taken` are passed down, so a return clears them; everything else
    is marked on the way down and cleared on the way back.

    The prune: each path after path pi needs an edge of its own at each of
    its two ends, one that is unused and does not lead to a vertex taken
    before it.  So a step onto an inner vertex that leaves some free[i]
    below `_LATER[pi][i]`, the number of later paths ending at quad[i],
    opens a subtree without a system and is skipped.  The current path is
    left out of that count, as its last edge may come from an inner vertex
    it already took.  A direct edge needs no check: when path pi starts,
    both its ends still hold one edge more than the later paths need.

    With the lookahead, every step onto an inner vertex and every path
    boundary also asks `_Lookahead.completable` whether each triangle not
    yet closed can still close negative, and a step where one cannot is
    skipped.  Both cuts open only subtrees without a system, so the
    systems and their order are those of the unpruned search.
    """
    adj, look = _adjacency(g, eids), None
    bits = _bits(adj)
    candidates = sorted((v for v, entries in adj.items() if len(entries) >= 3),
                        key=g.vindex.__getitem__)
    try:  # one level per path step
        for count, quad in enumerate(itertools.combinations(candidates, 4)):
            if count == gate:
                look = _Lookahead(adj, bits)
            hits: dict = {}
            for i, x in enumerate(quad):
                for _, o, _ in adj[x]:
                    if o not in quad:
                        hits.setdefault(o, []).append(i)
            for es, paths in _grow(adj, quad, bits, hits,
                                   [len(adj[x]) for x in quad],
                                   sum([bits[x] for x in quad]), [], [],
                                   0, 0, quad[0], POS, 0, look):
                yield quad, es, paths
    except RecursionError:
        raise guards._too_deep("K4- path search") from None


def _grow(adj: dict, quad: tuple, bits: dict, hits: dict, free: list,
          taken: int, steps: list, done: list, used: int, pi: int, v,
          sign: int, begin: int, look: Optional[_Lookahead]
          ) -> Iterator[tuple]:
    """`_systems`' search of quad from path pi, grown as far as v with the
    given sign, its first step at steps[begin]: (edge mask, paths) per
    system."""
    a, b = _PAIR_ORDER[pi]
    y = quad[b]
    later = _LATER[pi]
    for eid, o, s in adj[v]:
        if used >> eid & 1:
            continue
        if o == y:
            direct = begin == len(steps)
            if direct:
                free[a] -= 1
                free[b] -= 1
            steps.append((eid, o))
            path = steps[begin:]
            done.append((((quad[a], y), tuple([e for e, _ in path]),
                          (quad[a], *[w for _, w in path])), sign * s))
            if all([done[i][1] * done[j][1] * done[k][1] == NEG
                    for i, j, k in _TRIANGLES[pi]]):
                if pi == 5:
                    yield used | 1 << eid, tuple([p for p, _ in done])
                else:
                    x = quad[_PAIR_ORDER[pi + 1][0]]
                    if look is None or look.completable(
                            quad, done, pi + 1, bits[x], POS, taken):
                        yield from _grow(adj, quad, bits, hits, free,
                                         taken, steps, done, used | 1 << eid,
                                         pi + 1, x, POS, len(steps), look)
            done.pop()
            steps.pop()
            if direct:
                free[a] += 1
                free[b] += 1
        elif not taken & bits[o]:
            ends = hits.get(o, ())
            fits = True
            for i in ends:
                free[i] -= 1
                if free[i] < later[i]:
                    fits = False
            if fits:
                now = taken | bits[o]
                if look is None or look.completable(
                        quad, done, pi, bits[o], sign * s, now):
                    steps.append((eid, o))
                    yield from _grow(adj, quad, bits, hits, free, now,
                                     steps, done, used | 1 << eid, pi, o,
                                     sign * s, begin, look)
                    steps.pop()
            for i in ends:
                free[i] += 1


class _Lookahead:
    """The sign-parity lookahead of one `find_k4_minus_subdivision` call.

    Vertex i is the one whose bit is 1 << i in bits.  `pos[i]`/`neg[i]`
    mask vertex i's neighbours across positive/negative edges in adj,
    `every` masks all vertices, and `memo` keeps `reach` by (taken,
    source) for the call.
    """

    __slots__ = ("bits", "pos", "neg", "every", "memo")

    def __init__(self, adj: dict, bits: dict):
        self.bits = bits
        self.pos, self.neg = [0] * len(bits), [0] * len(bits)
        for v, entries in adj.items():
            i = bits[v].bit_length() - 1
            for _, o, s in entries:
                (self.pos if s == POS else self.neg)[i] |= bits[o]
        self.every = (1 << len(bits)) - 1
        self.memo: dict = {}

    def reach(self, taken: int, x: int) -> tuple:
        """(even, odd): the masks of the vertices that a walk from the
        vertex of bit x with its inner vertices outside taken reaches
        across an even / odd number of negative edges."""
        found = self.memo.get((taken, x))
        if found is not None:
            return found
        pos, neg, region = self.pos, self.neg, self.every ^ taken
        even = fresh_even = x
        odd = fresh_odd = 0
        while fresh_even or fresh_odd:
            if fresh_even:
                u = (fresh_even & -fresh_even).bit_length() - 1
                fresh_even &= fresh_even - 1
                e, o = pos[u] & ~even, neg[u] & ~odd
            else:
                u = (fresh_odd & -fresh_odd).bit_length() - 1
                fresh_odd &= fresh_odd - 1
                e, o = neg[u] & ~even, pos[u] & ~odd
            even |= e
            odd |= o
            fresh_even |= e & region
            fresh_odd |= o & region
        found = self.memo[taken, x] = (even, odd)
        return found

    def completable(self, quad: tuple, done: list, pi: int, v: int,
                    sign: int, taken: int) -> bool:
        """Whether every triangle left open while path pi grows, as far as
        the vertex of bit v with the given sign, can still close negative
        through the vertices outside taken.

        What is left of an open triangle is a walk between the ends of its
        known part through its other branch vertices, so a completion
        needs, between each pair in turn, a walk outside taken of some
        sign, and those signs times the known ones must be NEG.  The walks
        relax the paths (they may cross each other and reuse vertices), so
        a False opens only subtrees without a system.
        """
        reached = [None] * 4
        for before, holds, rest in _OPEN[pi]:
            known = sign if holds else POS
            for p in before:
                known *= done[p][1]
            have = 1 if known == POS else 2
            for x, y in rest:
                walks = reached[x]
                if walks is None:
                    walks = reached[x] = self.reach(taken,
                                                    self.bits[quad[x]])
                y = v if y is None else self.bits[quad[y]]
                have = _TIMES[have][bool(walks[0] & y)
                                    | bool(walks[1] & y) << 1]
            if not have & 2:
                return False
        return True


def _adjacency(g: SignedGraph, eids: Iterable[int]) -> dict:
    """Each vertex's non-loop (eid, other end, sign) entries, in the
    order of eids."""
    adj: dict = {}
    for eid in eids:
        e = g.edges[eid]
        if not e.is_loop:
            adj.setdefault(e.u, []).append((eid, e.v, e.sign))
            adj.setdefault(e.v, []).append((eid, e.u, e.sign))
    return adj


def _bits(adj: dict) -> dict:
    """A bit of its own for each vertex of adj, in adj's order."""
    return {v: 1 << i for i, v in enumerate(adj)}


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
    found = next(_systems(g, range(g.m), _GATE), None)
    return None if found is None else K4MinusSubdivision(found[0], found[2])


def k4_minus_subdivision_edge_sets(g: SignedGraph) -> tuple:
    """Distinct edge sets of all-negative-K4 subdivisions of g."""
    out = {es for _, es, _ in _systems(g, range(g.m))}
    return tuple(map(frozenset, sorted(tuple(_ids(es)) for es in out)))


def _k4_minus_edge_set(g: SignedGraph, es: int) -> bool:
    """Whether the edge mask es is the edge set of an all-negative-K4
    subdivision, that is ``frozenset(_ids(es)) in
    k4_minus_subdivision_edge_sets(g)``.

    es needs four vertices of degree 3 and every other vertex it meets of
    degree 2, read off the incidence masks, which rejects most sets before
    any adjacency is built.  Then every path out of the four is forced,
    `_systems` on es alone finds at most one system in linear time, and es
    is one when that system uses every edge; a loop, which no path uses,
    fails that test.
    """
    degree = [(m & es).bit_count() for m in g.incidence_masks.values()]
    if degree.count(3) != 4 or degree.count(2) + degree.count(0) != g.n - 4:
        return False
    return next(_systems(g, _ids(es)), (None, 0))[1] == es


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

def subdivide(g: SignedGraph, u, v) -> SignedGraph:
    """Subdivide the monochromatic bundle between u and v (u = v for loops).

    The bundle, say t edges of sign s, becomes t edges u-w of sign s plus
    t positive edges w-v through a fresh vertex w, the first of w0, w1,
    ... not in g.
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
    i = 0
    while f"w{i}" in g.vindex:
        i += 1
    w = f"w{i}"
    drop = set(ids)
    edge_list = [(e.u, e.v, e.sign) for e in g.edges if e.eid not in drop]
    edge_list += [(u, w, s)] * len(ids)
    edge_list += [(w, v, POS)] * len(ids)
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
    g.check_vertices((v,))
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

def in_s_star(g: SignedGraph) -> bool:
    """Irreducible critical graphs with no two edge-disjoint negative cycles.

    Raises PreconditionError unless g is irreducible and critically
    k-frustrated, k its frustration index; then membership is exactly
    packing number <= 1.
    """
    if not is_irreducible(g):
        raise PreconditionError("graph is reducible")
    cert = certify(g)  # k is the index, read off the same scan
    if not cert.critical:
        raise PreconditionError(f"graph is not critically {cert.k}-frustrated")
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


def _critical_part(g: SignedGraph, part: int, lo: int, hi: int) -> int:
    """The index j of g restricted to the edge mask part if lo <= j <= hi,
    the part is critically j-frustrated and it has no decomposition; else
    0.  One `certify` scan gives both the index and the verdict."""
    sub = g.restrict(_ids(part))
    cert = certify(sub)
    return cert.k if (lo <= cert.k <= hi and cert.critical
                      and not is_decomposable(sub, cert.k)) else 0


def _large_parts(g: SignedGraph, edges: int, top: int, cycles: list) -> list:
    """Non-decomposable critical parts of index 3..top inside the edge mask
    edges, by subset search, as (edge mask, index) pairs in ascending mask
    order.  cycles lists the edge masks of the negative cycles of g."""
    guards.check(edges.bit_count(), guards.PARTITION_SEARCH_MAX_EDGES,
                 "partition search")
    inside = [c for c in cycles if not c & ~edges]
    out = []
    s = (-edges) & edges  # the submasks of edges, ascending
    while s:
        # every edge of a critical part lies on a negative cycle inside it
        cover = 0
        for c in inside:
            if not c & ~s:
                cover |= c
        if cover == s:
            j = _critical_part(g, s, 3, top)
            if j:
                out.append((s, j))
        s = (s - edges) & edges
    return out


def _families(members: list, room: int, start: int = 0, used: int = 0,
              total: int = 0, chosen: tuple = ()) -> Iterator[tuple]:
    """Every family of pairwise disjoint members whose indices sum to at
    most room, once each and in list order: (union mask, index sum,
    family).  members are (edge mask, index) pairs sorted by index; the
    other arguments are the recursion's: the family so far and where the
    next member may start."""
    yield used, total, chosen
    for i in range(start, len(members)):
        es, j = members[i]
        if total + j > room:
            break
        if not es & used:
            yield from _families(members, room, i + 1, used | es, total + j,
                                 chosen + ((es, j),))


class _Stream:
    """The tables of one `_decomposition_stream` call.

    walks, masks and through are `_cycle_table`'s for g's negative
    cycles, in its one order, and known the set of the masks.  rest
    masks the non-loop edges and budget is the index they share; odd4
    says whether rest has exactly four odd-degree vertices.  sources
    memoizes `source`.
    """

    __slots__ = ("g", "walks", "masks", "through", "known", "rest",
                 "budget", "odd4", "sources")

    def __init__(self, g: SignedGraph, budget: int):
        self.g = g
        self.walks, self.masks, self.through = _cycle_table(g)
        self.known = set(self.masks)
        self.rest = (1 << g.m) - 1 & ~g.loop_mask
        self.budget = budget
        self.odd4 = sum(mask.bit_count() & 1
                        for mask in g.incidence_masks.values()) == 4
        self.sources: dict = {}

    def source(self, j: int) -> list:
        """The (edge mask, j) parts of index j that avoid the lowest edge
        of rest: the later parts at any node avoid the root's lowest edge,
        so each source is drawn once, inside the root's other edges."""
        if j not in self.sources:
            avail = self.rest & (self.rest - 1)
            if j == 1:
                self.sources[1] = [(c, 1) for c in self.masks
                                   if not c & ~avail]
            elif j == 2:
                self.sources[2] = [(es, 2) for es in sorted(
                    {es for _, es, _ in _systems(self.g, _ids(avail))})]
            else:
                large = _large_parts(self.g, avail, self.budget - 2,
                                     self.masks)
                for i in range(3, self.budget - 1):
                    self.sources[i] = [p for p in large if p[1] == i]
        return self.sources[j]


def _search(s: _Stream, remaining: int, budget: int, dead: int,
            parts: tuple) -> Iterator:
    """`_decomposition_stream`'s recursion on the lowest open edge.

    remaining masks the open edges and parts holds the (edge mask, index)
    pairs taken, the loops and then cycles; dead masks, over cycle
    indices, the negative cycles that share an edge with a cycle taken,
    so every other cycle through an open edge lies inside remaining.
    """
    if not remaining:
        if budget == 0 and len(parts) >= 2:
            yield parts
        return
    if budget <= 0:
        return
    if budget == 1:
        # the one part left is a negative cycle: remaining itself
        if parts and remaining in s.known:
            yield parts + ((remaining, 1),)
        return
    low = remaining & -remaining
    through, g = s.through, s.g
    # the part holding e0 is a live negative cycle through it ...
    live = through[low.bit_length() - 1] & ~dead
    while live:
        bit = live & -live
        live ^= bit
        i = bit.bit_length() - 1
        cyc, now = s.masks[i], dead
        for e in s.walks[i][0]:
            now |= through[e]
        yield from _search(s, remaining ^ cyc, budget - 1, now,
                           parts + ((cyc, 1),))
    # ... or of index j >= 2 and the last one: what the later parts, a
    # family avoiding e0, leave over; at budget 2 that family is empty.
    # Cycles are even, so a family of cycles alone leaves the odd-degree
    # vertices of rest, and a K4- has four
    if budget == 2:
        if parts and s.odd4 and _k4_minus_edge_set(g, remaining):
            yield parts + ((remaining, 2),)
        return
    avail = remaining ^ low
    members = [p for j in range(1, budget - 1) for p in s.source(j)
               if not p[0] & ~avail]
    for used, total, family in _families(members, budget - 2):
        if not (parts or family):
            continue  # a single part is no partition
        last, j = remaining & ~used, budget - total
        if j >= 3:
            found = _critical_part(g, last, j, j)
        else:
            found = ((s.odd4 or total > len(family))
                     and _k4_minus_edge_set(g, last))
        if found:
            yield parts + family + ((last, j),)


def _decomposition_stream(g: SignedGraph, k: Optional[int]) -> Iterator:
    """All partitions into non-decomposable critical parts (t >= 2 parts),
    each once, as tuples of (edge mask, index) pairs; k defaults to the
    frustration index.  A minimum cover meets each part in a cover of it,
    so the part indices of a partition sum to at most the index, and so
    to at most the number of negative edges."""
    if k is None:
        k = frustration_index(g).index
    if not 2 <= k <= g.negative_mask.bit_count():
        return
    loops = tuple((1 << e, 1) for e in _ids(g.loop_mask))
    s = _Stream(g, k - len(loops))
    if not all(s.through):
        return  # an edge on no negative cycle lies in no critical part
    # every loop is now negative, and a part on its own
    try:  # one level per part
        yield from _search(s, s.rest, s.budget, 0, loops)
    except RecursionError:
        raise guards._too_deep("decomposition search") from None


def find_decompositions(g: SignedGraph, k: Optional[int] = None) -> tuple:
    """All partitions of the edges into non-decomposable critical parts.

    k defaults to the frustration index.  The partitions come by kind,
    then by their parts' sorted edge-id tuples; parts by (index, edge ids).
    """
    memo: dict = {}  # per part mask: its sorted edge ids and edge set
    found = []
    for parts in _decomposition_stream(g, k):
        for es, _ in parts:
            if es not in memo:
                ids = tuple(_ids(es))
                memo[es] = ids, frozenset(ids)
        # disjoint parts: their id tuples differ, so no tie is left
        named = sorted((j, *memo[es]) for es, j in parts)
        d = Decomposition(tuple((es, j) for j, _, es in named))
        found.append(((d.kind, tuple(sorted(ids for _, ids, _ in named))), d))
    found.sort(key=itemgetter(0))
    return tuple(d for _, d in found)


def is_decomposable(g: SignedGraph, k: Optional[int] = None) -> bool:
    return next(_decomposition_stream(g, k), None) is not None
