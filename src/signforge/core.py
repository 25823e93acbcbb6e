"""Signed multigraphs: the value type plus switching, cuts and cycle signs.

A signed graph is a multigraph (loops and parallel edges allowed) with a
sign in {+1, -1} on every edge.  All values are immutable; every operation
returns a new value.  Edge ids are dense (0..m-1) and stable under
switching, so cuts and cycles stay addressable across switchings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from . import guards
from .errors import NotACycleError, ParseError, UnknownVertexError

Vertex = Hashable
POS = 1
NEG = -1

_SIGN_TOKENS = {"+": POS, "-": NEG, "+1": POS, "-1": NEG, 1: POS, -1: NEG,
                POS: POS, NEG: NEG, "−": NEG}


def parse_sign(token) -> int:
    try:
        return _SIGN_TOKENS[token]
    except (KeyError, TypeError):
        raise ParseError(f"malformed sign token: {token!r}")


def sign_token(sign: int) -> str:
    return "+" if sign == POS else "-"


@dataclass(frozen=True)
class Edge:
    eid: int
    u: Vertex
    v: Vertex
    sign: int

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def other(self, w: Vertex) -> Vertex:
        return self.v if w == self.u else self.u

    @property
    def pair(self) -> frozenset:
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class SignedGraph:
    vertices: tuple
    edges: tuple

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def vindex(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def incidence(self) -> dict:
        """Vertex -> tuple of incident edge ids (loops listed once)."""
        inc = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e.u].append(e.eid)
            if not e.is_loop:
                inc[e.v].append(e.eid)
        return {v: tuple(ids) for v, ids in inc.items()}

    def degree(self, v: Vertex) -> int:
        """Edge-end count at v; loops count twice."""
        return sum(2 if self.edges[e].is_loop else 1 for e in self.incidence[v])

    def neighbors(self, v: Vertex) -> frozenset:
        return frozenset(
            self.edges[e].other(v) for e in self.incidence[v]
            if not self.edges[e].is_loop
        )

    def distinct_neighbor_count(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        return max((self.degree(v) for v in self.vertices), default=0)

    @cached_property
    def negative_edge_ids(self) -> frozenset:
        return frozenset(e.eid for e in self.edges if e.sign == NEG)

    @cached_property
    def loop_edge_ids(self) -> frozenset:
        return frozenset(e.eid for e in self.edges if e.is_loop)

    @cached_property
    def negative_mask(self) -> int:
        """Bitmask of the negative edge ids (bit eid set iff negative)."""
        return sum(1 << eid for eid in self.negative_edge_ids)

    @cached_property
    def incidence_masks(self) -> dict:
        """Vertex -> bitmask of its incident non-loop edge ids.

        Switching at v flips exactly the edges in its mask, and the
        boundary of a vertex set is the XOR of its members' masks (an edge
        with both ends inside cancels).
        """
        out = dict.fromkeys(self.vertices, 0)
        for e in self.edges:
            if not e.is_loop:
                out[e.u] |= 1 << e.eid
                out[e.v] |= 1 << e.eid
        return out

    def check_vertices(self, vs: Iterable[Vertex]) -> None:
        for v in vs:
            if v not in self.vindex:
                raise UnknownVertexError(f"unknown vertex: {v!r}")

    # -- components --------------------------------------------------------

    @cached_property
    def components(self) -> tuple:
        """Connected components as frozensets of vertices."""
        seen = set()
        out = []
        for root in self.vertices:
            if root in seen:
                continue
            comp = {root}
            stack = [root]
            while stack:
                w = stack.pop()
                for eid in self.incidence[w]:
                    o = self.edges[eid].other(w)
                    if o not in comp:
                        comp.add(o)
                        stack.append(o)
            seen |= comp
            out.append(frozenset(comp))
        return tuple(out)

    @property
    def is_connected(self) -> bool:
        return len(self.components) <= 1

    # -- derived graphs ----------------------------------------------------

    def delete_edges(self, eids: Iterable[int]) -> "SignedGraph":
        """Same vertex set, listed edges removed; remaining edges renumbered."""
        drop = set(eids)
        kept = [e for e in self.edges if e.eid not in drop]
        return SignedGraph(
            self.vertices,
            tuple(Edge(i, e.u, e.v, e.sign) for i, e in enumerate(kept)),
        )

    def restrict(self, eids: Iterable[int]) -> "SignedGraph":
        """Edge-induced subgraph: only the endpoints of kept edges survive."""
        keep = set(eids)
        kept = [e for e in self.edges if e.eid in keep]
        vs = tuple(v for v in self.vertices
                   if any(v in (e.u, e.v) for e in kept))
        return SignedGraph(
            vs, tuple(Edge(i, e.u, e.v, e.sign) for i, e in enumerate(kept))
        )

    # -- bundles (parallel classes) ----------------------------------------

    @cached_property
    def bundles(self) -> dict:
        """Unordered vertex pair -> list of edge ids (loops keyed by {v})."""
        out = {}
        for e in self.edges:
            out.setdefault(e.pair, []).append(e.eid)
        return out

    def bundle_profile(self, pair: frozenset) -> tuple:
        """(multiplicity, negative count) of the parallel class at pair."""
        ids = self.bundles.get(pair, [])
        return len(ids), sum(1 for i in ids if self.edges[i].sign == NEG)


def build_graph(edge_list: Sequence, isolated: Sequence = ()) -> SignedGraph:
    """Build a signed graph from (u, v, sign) triples.

    Edge ids are assigned in input order.  The vertex set is the union of
    all endpoints plus any declared isolated vertices, in first-seen order.
    """
    vertices = []
    seen = set()

    def note(v):
        if v not in seen:
            seen.add(v)
            vertices.append(v)

    edges = []
    for i, (u, v, s) in enumerate(edge_list):
        note(u)
        note(v)
        edges.append(Edge(i, u, v, parse_sign(s)))
    for v in isolated:
        note(v)
    return SignedGraph(tuple(vertices), tuple(edges))


# -- switching ---------------------------------------------------------------

SwitchSet = frozenset


def switch(g: SignedGraph, s: Iterable[Vertex]) -> SignedGraph:
    """Flip the sign of every non-loop edge with exactly one endpoint in s."""
    s = frozenset(s)
    g.check_vertices(s)
    new = []
    for e in g.edges:
        flip = (not e.is_loop) and ((e.u in s) != (e.v in s))
        new.append(Edge(e.eid, e.u, e.v, -e.sign if flip else e.sign))
    return SignedGraph(g.vertices, tuple(new))


# -- edge cuts ----------------------------------------------------------------

@dataclass(frozen=True)
class EdgeCut:
    side: frozenset
    boundary: frozenset
    pos_count: int
    neg_count: int

    @property
    def equilibrated(self) -> bool:
        return self.pos_count == self.neg_count

    def to_json(self, g: SignedGraph) -> dict:
        return {
            "side": sorted(map(str, self.side)),
            "boundary": sorted(self.boundary),
            "pos": self.pos_count,
            "neg": self.neg_count,
            "equilibrated": self.equilibrated,
        }


def cut(g: SignedGraph, x: Iterable[Vertex]) -> EdgeCut:
    """The edge-cut at vertex subset x, with sign counts (loops never cut)."""
    x = frozenset(x)
    g.check_vertices(x)
    boundary = []
    neg = 0
    for e in g.edges:
        if e.is_loop:
            continue
        if (e.u in x) != (e.v in x):
            boundary.append(e.eid)
            if e.sign == NEG:
                neg += 1
    return EdgeCut(x, frozenset(boundary), len(boundary) - neg, neg)


# -- cycles -------------------------------------------------------------------

@dataclass(frozen=True)
class Cycle:
    """A connected 2-regular subgraph, as an edge-id walk.

    vertex_seq is the closed walk v0, v1, ..., vk=v0 traced by edge_ids.
    Degenerate forms: a single loop (length 1) and a parallel-edge pair
    (length 2).
    """
    edge_ids: tuple
    vertex_seq: tuple

    def __len__(self) -> int:
        return len(self.edge_ids)

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edge_ids)


def validate_cycle(g: SignedGraph, c: Cycle) -> None:
    k = len(c.edge_ids)
    if k == 0 or len(c.vertex_seq) != k + 1 or c.vertex_seq[0] != c.vertex_seq[-1]:
        raise NotACycleError("edge sequence does not close up")
    if len(set(c.edge_ids)) != k:
        raise NotACycleError("repeated edge id")
    inner = c.vertex_seq[:-1]
    if len(set(inner)) != len(inner):
        raise NotACycleError("vertex visited twice")
    for i, eid in enumerate(c.edge_ids):
        if not 0 <= eid < g.m:
            raise NotACycleError(f"edge {eid} not in graph")
        e = g.edges[eid]
        a, b = c.vertex_seq[i], c.vertex_seq[i + 1]
        if {e.u, e.v} != {a, b}:
            raise NotACycleError(f"edge {eid} does not join {a!r} and {b!r}")
    if k == 1 and not g.edges[c.edge_ids[0]].is_loop:
        raise NotACycleError("length-1 cycle must be a loop")


def cycle_sign(g: SignedGraph, c: Cycle) -> int:
    """-1 iff the cycle carries an odd number of negative edges."""
    validate_cycle(g, c)
    neg = sum(1 for eid in c.edge_ids if g.edges[eid].sign == NEG)
    return NEG if neg % 2 else POS


# -- balance -------------------------------------------------------------------

def is_balanced(g: SignedGraph) -> bool:
    """True iff g contains no negative cycle (switchable to all-positive)."""
    return balancing_switch_set(g) is not None


def balancing_switch_set(g: SignedGraph) -> Optional[frozenset]:
    """A switch set making g all-positive, or None if g is unbalanced."""
    if any(g.edges[e].sign == NEG for e in g.loop_edge_ids):
        return None
    pot = {}
    for comp in g.components:
        root = min(comp, key=lambda v: g.vindex[v])
        pot[root] = POS
        stack = [root]
        while stack:
            w = stack.pop()
            for eid in g.incidence[w]:
                e = g.edges[eid]
                if e.is_loop:
                    continue
                o = e.other(w)
                want = pot[w] * e.sign
                if o not in pot:
                    pot[o] = want
                    stack.append(o)
                elif pot[o] != want:
                    return None
    return frozenset(v for v, p in pot.items() if p == NEG)


# -- switching isomorphism ------------------------------------------------------

@dataclass(frozen=True)
class IsoWitness:
    mapping: Mapping
    switch_set: frozenset


def _loop_signature(g: SignedGraph, v: Vertex) -> tuple:
    negs = sum(1 for e in g.incidence[v]
               if g.edges[e].is_loop and g.edges[e].sign == NEG)
    poss = sum(1 for e in g.incidence[v]
               if g.edges[e].is_loop and g.edges[e].sign == POS)
    return negs, poss


def _bundle_compatible(m1: tuple, m2: tuple) -> bool:
    # bundle profiles (mult, neg): a switching flips neg -> mult - neg
    mult1, neg1 = m1
    mult2, neg2 = m2
    return mult1 == mult2 and neg2 in (neg1, mult1 - neg1)


def _resolve_switch_set(g1: SignedGraph, g2: SignedGraph,
                        mapping: dict) -> Optional[frozenset]:
    """Find a switch set T of g2 with switch(map(g1), T) == g2, if any."""
    parity = {}
    adj = {v: [] for v in g2.vertices}
    for pair, ids in g1.bundles.items():
        if len(pair) == 1:
            (v,) = pair
            if _loop_signature(g1, v) != _loop_signature(g2, mapping[v]):
                return None
            continue
        a, b = tuple(pair)
        mult, neg1 = g1.bundle_profile(pair)
        pair2 = frozenset((mapping[a], mapping[b]))
        mult2, neg2 = g2.bundle_profile(pair2)
        if mult != mult2:
            return None
        need_flip = None
        if neg2 == neg1 and neg2 == mult - neg1:
            need_flip = None  # self-complementary bundle, unconstrained
        elif neg2 == neg1:
            need_flip = 0
        elif neg2 == mult - neg1:
            need_flip = 1
        else:
            return None
        if need_flip is not None:
            x, y = mapping[a], mapping[b]
            adj[x].append((y, need_flip))
            adj[y].append((x, need_flip))
    for root in g2.vertices:
        if root in parity:
            continue
        parity[root] = 0
        stack = [root]
        while stack:
            w = stack.pop()
            for o, flip in adj[w]:
                want = parity[w] ^ flip
                if o not in parity:
                    parity[o] = want
                    stack.append(o)
                elif parity[o] != want:
                    return None
    return frozenset(v for v, p in parity.items() if p == 1)


def switching_isomorphic(g1: SignedGraph, g2: SignedGraph,
                         max_vertices: int = None) -> Optional[IsoWitness]:
    """Vertex bijection + switching mapping g1 onto g2, or None.

    Truthy result is the witness.  Backtracking over degree-compatible
    vertex assignments with bundle pruning; guarded by vertex count.
    """
    limit = guards.ISO_SEARCH_MAX_VERTICES if max_vertices is None else max_vertices
    guards.check(max(g1.n, g2.n), limit, "switching-isomorphism search")
    if g1.n != g2.n or g1.m != g2.m:
        return None
    if sorted(g1.degree(v) for v in g1.vertices) != sorted(
            g2.degree(v) for v in g2.vertices):
        return None

    # order g1 vertices to keep the search frontier connected where possible
    order = sorted(g1.vertices, key=lambda v: (-g1.degree(v), str(v)))
    mapping: dict = {}
    used: set = set()

    def feasible(v1, v2) -> bool:
        if g1.degree(v1) != g2.degree(v2):
            return False
        if _loop_signature(g1, v1) != _loop_signature(g2, v2):
            return False
        for w1 in g1.neighbors(v1) | {v1}:
            if w1 in mapping or w1 == v1:
                w2 = v2 if w1 == v1 else mapping[w1]
                p1 = g1.bundle_profile(frozenset((v1, w1)))
                p2 = g2.bundle_profile(frozenset((v2, w2)))
                if not _bundle_compatible(p1, p2):
                    return False
        # mapped vertices not adjacent to v1 must not be adjacent to v2
        for w1, w2 in mapping.items():
            if w1 not in g1.neighbors(v1) and w2 in g2.neighbors(v2):
                return False
        return True

    def backtrack(i: int) -> Optional[IsoWitness]:
        if i == len(order):
            t = _resolve_switch_set(g1, g2, mapping)
            if t is None:
                return None
            return IsoWitness(dict(mapping), t)
        v1 = order[i]
        for v2 in g2.vertices:
            if v2 in used or not feasible(v1, v2):
                continue
            mapping[v1] = v2
            used.add(v2)
            found = backtrack(i + 1)
            if found is not None:
                return found
            del mapping[v1]
            used.discard(v2)
        return None

    return backtrack(0)


# -- canonical form (brute force, enumeration scale) ---------------------------

def canonical_form(g: SignedGraph, max_vertices: int = 7) -> tuple:
    """Lexicographic minimum encoding over all (permutation, switching) pairs.

    Equal keys iff switching-isomorphic.  Brute force over the n!
    permutations; intended for the enumeration module's scale.  The
    switchings are not scanned: the edge part is sorted by vertex pair,
    and a bundle reads smallest with the most negative edges, so the
    pairs are taken in order and each gets the switching parity that
    leaves its majority negative, unless the earlier pairs already fix
    that parity.  A bundle with as many negative as positive edges reads
    the same either way and fixes nothing.  A permutation whose loop part
    already exceeds the best key's is skipped (the loop part is compared
    before the edges).
    """
    guards.check(g.n, max_vertices, "canonical form brute force")
    n = g.n
    idx = g.vindex
    loops = [(idx[e.u], e.sign) for e in g.edges if e.is_loop]
    counts: dict = {}  # vertex pair -> [positive, negative] edges
    for e in g.edges:
        if not e.is_loop:
            counts.setdefault(frozenset((idx[e.u], idx[e.v])),
                              [0, 0])[e.sign == NEG] += 1
    bundles = [(*pair, pos, neg) for pair, (pos, neg) in counts.items()]
    best = None
    for perm in itertools.permutations(range(n)):
        loop_key = tuple(sorted((perm[v], s) for v, s in loops))
        if best is not None and loop_key > best[1]:
            continue
        # comp/par: the parity classes fixed so far, as component labels
        # and each vertex's parity relative to its component
        comp = list(range(n))
        par = [0] * n
        enc = []
        for a, b, pos, neg in sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v]), pos, neg)
                for u, v, pos, neg in bundles):
            if comp[a] == comp[b]:
                flip = par[a] ^ par[b]
            else:
                flip = pos > neg
                if pos != neg:
                    ca, cb = comp[a], comp[b]
                    delta = par[a] ^ par[b] ^ flip
                    for x in range(n):
                        if comp[x] == cb:
                            comp[x] = ca
                            par[x] ^= delta
            if flip:
                pos, neg = neg, pos
            enc += [(a, b, NEG)] * neg + [(a, b, POS)] * pos
        key = (n, loop_key, tuple(enc))
        if best is None or key < best:
            best = key
    return best


def from_canonical_form(key: tuple) -> SignedGraph:
    """Rebuild the representative graph encoded by canonical_form."""
    n, loop_key, enc = key
    edge_list = [(v, v, s) for v, s in loop_key]
    edge_list += [(a, b, s) for a, b, s in enc]
    return build_graph(edge_list, isolated=range(n))


# -- .sg text format ------------------------------------------------------------

def parse_sg(text: str) -> SignedGraph:
    """Parse the .sg edge-list format.

    One edge per line: `u v s` with s in {+,-}; `vertex u` declares an
    isolated vertex; `#` starts a comment.
    """
    edge_list = []
    isolated = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise ParseError(f"line {ln}: expected `vertex u`")
            isolated.append(parts[1])
            continue
        if len(parts) != 3:
            raise ParseError(f"line {ln}: expected `u v s`")
        u, v, s = parts
        edge_list.append((u, v, parse_sign(s)))
    return build_graph(edge_list, isolated=isolated)


def serialize_sg(g: SignedGraph) -> str:
    """Inverse of parse_sg; round-trips the edge multiset bit-exactly."""
    lines = []
    covered = set()
    for e in g.edges:
        covered.add(e.u)
        covered.add(e.v)
        lines.append(f"{e.u} {e.v} {sign_token(e.sign)}")
    for v in g.vertices:
        if v not in covered:
            lines.append(f"vertex {v}")
    return "\n".join(lines) + "\n"
