"""Signed multigraphs: the value type plus switching, cuts and cycle signs.

A signed graph is a multigraph (loops and parallel edges allowed) with a
sign in {+1, -1} on every edge.  All values are immutable; every operation
returns a new value.  Edge ids are dense (0..m-1) and stable under
switching, so cuts and cycles stay addressable across switchings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from . import guards
from .errors import (NotACycleError, ParseError, PreconditionError,
                     UnknownVertexError)

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


def _ids(mask: int) -> list:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask_components(masks: Iterable[int]) -> list:
    """Indices grouped by shared mask bits, directly or through other
    masks, each group ascending and the groups by least index; a mask of 0
    is a group of its own.  One step per set bit."""
    first: dict = {}  # bit -> the least index whose mask holds it
    link = []  # per index, the indices it shares a bit with (and itself)
    for i, mask in enumerate(masks):
        link.append([])
        while mask:
            bit = mask.bit_length() - 1
            j = first.setdefault(bit, i)
            link[i].append(j)
            link[j].append(i)
            mask ^= 1 << bit
    seen, out = [False] * len(link), []
    for root in range(len(link)):
        if not seen[root]:
            seen[root] = True
            group = [root]
            for i in group:  # the flood: the group grows while it is read
                for j in link[i]:
                    if not seen[j]:
                        seen[j] = True
                        group.append(j)
            out.append(sorted(group))
    return out


class _cached:
    """`functools.cached_property` without its lock: the value is stored
    in the instance `__dict__`, which shadows this non-data descriptor."""

    def __init__(self, func):
        self.func = func

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.func.__name__] = self.func(obj)
        return value


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

    @_cached
    def vindex(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @_cached
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

    def max_degree(self) -> int:
        return max((self.degree(v) for v in self.vertices), default=0)

    @_cached
    def negative_edge_ids(self) -> frozenset:
        return frozenset(e.eid for e in self.edges if e.sign == NEG)

    @_cached
    def negative_mask(self) -> int:
        """Bitmask of the negative edge ids (bit eid set iff negative)."""
        return sum(1 << eid for eid in self.negative_edge_ids)

    @_cached
    def loop_mask(self) -> int:
        """Bitmask of the loop edge ids (bit eid set iff a loop)."""
        return sum(1 << e.eid for e in self.edges if e.is_loop)

    @_cached
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

    @_cached
    def components(self) -> tuple:
        """Connected components as frozensets, by least vertex: the
        `_mask_components` flood, shared with the enumeration's filter."""
        return tuple(frozenset(map(self.vertices.__getitem__, group)) for group
                     in _mask_components(self.incidence_masks.values()))

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
        ends = {v for e in kept for v in (e.u, e.v)}
        vs = tuple(v for v in self.vertices if v in ends)
        return SignedGraph(
            vs, tuple(Edge(i, e.u, e.v, e.sign) for i, e in enumerate(kept))
        )

    # -- bundles (parallel classes) ----------------------------------------

    @_cached
    def bundles(self) -> dict:
        """Unordered vertex pair -> list of edge ids (loops keyed by {v})."""
        out = {}
        for e in self.edges:
            out.setdefault(e.pair, []).append(e.eid)
        return out


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

    def to_json(self) -> dict:
        return {
            "side": sorted(map(str, self.side)),
            "boundary": sorted(self.boundary),
            "pos": self.pos_count,
            "neg": self.neg_count,
            "equilibrated": self.equilibrated,
        }


def cut(g: SignedGraph, x: Iterable[Vertex]) -> EdgeCut:
    """The edge-cut at vertex subset x, with sign counts (loops never cut):
    its boundary is the XOR of x's incidence masks."""
    x = frozenset(x)
    g.check_vertices(x)
    b = 0
    for v in x:
        b ^= g.incidence_masks[v]
    neg = (b & g.negative_mask).bit_count()
    return EdgeCut(x, frozenset(_ids(b)), b.bit_count() - neg, neg)


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
    if g.loop_mask & g.negative_mask:
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


# -- switching isomorphism and canonical form: one search ---------------------
#
# Both read the individualization-refinement tree of `_labellings` (McKay &
# Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60, 2014).

@dataclass(frozen=True)
class IsoWitness:
    mapping: Mapping
    switch_set: frozenset


def _leaf_key(n: int, loops: list, bundles: list, perm: list) -> tuple:
    """The key of the graph relabelled by perm (vertex index -> position)
    and switched to read least, and that switching as a parity per
    position.

    The switchings are not scanned: the edge part is sorted by vertex
    pair, and a bundle reads smallest with the most negative edges, so the
    pairs are taken in order and each gets the switching parity that
    leaves its majority negative, unless the earlier pairs already fix
    that parity.  A bundle with as many negative as positive edges reads
    the same either way and fixes nothing.
    """
    loop_key = tuple(sorted((perm[v], s) for v, s in loops))
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
    return (n, loop_key, tuple(enc)), par


def _labellings(g: SignedGraph, target: tuple = None) -> Iterator[tuple]:
    """Yield (key, order, parity, path) for each leaf of g's
    individualization-refinement tree, depth first.

    A node is an ordered partition of the vertex indices.  The root splits
    them by loop signature.  Refinement splits each cell by the sorted
    (neighbour's cell, bundle profile up to flip) pairs of its vertices,
    (multiplicity, min(negative, positive)), until no cell splits; the new
    cells follow the order of those signatures.  Nothing it reads changes
    under switching or depends on labels, so a switching isomorphism maps
    tree onto tree.  A node branches on its first cell of several
    vertices by taking each vertex out in front, one per class of exact
    twins (equal bundles to every other vertex, which makes swapping them
    an automorphism; vertices of one cell share their loops).  A leaf's
    partition is discrete: order[p] is the vertex index at position p, and
    `_leaf_key` gives the key and the parity of each position.  path is
    the trace of every node from the root, each the signatures of its
    cells; with a target path, a node whose trace differs from the
    target's at its depth is cut.
    """
    n = g.n
    idx = g.vindex
    loops = [(idx[e.u], e.sign) for e in g.edges if e.is_loop]
    exact = [{} for _ in range(n)]  # neighbour -> [positive, negative]
    for e in g.edges:
        a, b = idx[e.u], idx[e.v]
        if a != b:  # both ends share the one count
            exact[b][a] = exact[a].setdefault(b, [0, 0])
            exact[a][b][e.sign == NEG] += 1
    bundles = [(a, b, pos, neg) for a in range(n)
               for b, (pos, neg) in exact[a].items() if a < b]
    flipless = [[(w, (pos + neg, min(pos, neg)))  # profiles up to flip
                 for w, (pos, neg) in exact[v].items()] for v in range(n)]

    def others(v, u):  # v's bundles, the one to u left out
        return {w: b for w, b in exact[v].items() if w != u}

    rep = list(range(n))  # each vertex's least exact twin
    for v in range(n):
        rep[v] = next((u for u in range(v)
                       if rep[u] == u and others(u, v) == others(v, u)), v)
    ring_sigs = [tuple(sorted(s for u, s in loops if u == v))
                 for v in range(n)]

    def refine(cells):
        while True:
            where = [0] * n
            for i, cell in enumerate(cells):
                for v in cell:
                    where[v] = i
            split, trace = [], []
            for cell in cells:
                groups: dict = {}
                for v in cell:
                    groups.setdefault(tuple(sorted(
                        (where[w], p) for w, p in flipless[v])), []).append(v)
                for sig in sorted(groups):
                    split.append(groups[sig])
                    trace.append(sig)
            if len(split) == len(cells):
                return cells, tuple(trace)
            cells = split

    def search(cells, path):
        cells, trace = refine(cells)
        if target is not None and trace != target[len(path)]:
            return
        path += (trace,)
        i = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if i is None:
            order = [cell[0] for cell in cells]
            perm = [0] * n
            for p, v in enumerate(order):
                perm[v] = p
            key, parity = _leaf_key(n, loops, bundles, perm)
            yield key, order, parity, path
            return
        tried = set()
        for v in cells[i]:
            if rep[v] not in tried:
                tried.add(rep[v])
                rest = [w for w in cells[i] if w != v]
                yield from search(cells[:i] + [[v], rest] + cells[i + 1:],
                                  path)

    try:
        yield from search([[v for v in range(n) if ring_sigs[v] == sig]
                           for sig in sorted(set(ring_sigs))], ())
    finally:
        del search  # it refers to itself; a caller may stop at any leaf


def switching_isomorphic(g1: SignedGraph,
                         g2: SignedGraph) -> Optional[IsoWitness]:
    """Vertex bijection + switching mapping g1 onto g2, or None.

    Truthy result is the witness: g1 relabelled by its mapping and then
    switched at its switch set (vertices of g2) is g2.  Takes g2's first
    leaf of `_labellings` and walks g1's tree along the nodes whose traces
    equal that leaf's path; the first g1 leaf with the same key maps
    position to position, and the switch set is where the two leaf
    parities differ.  Guarded by vertex count.
    """
    guards.check(max(g1.n, g2.n), guards.ISO_SEARCH_MAX_VERTICES,
                 "switching-isomorphism search")
    if g1.n != g2.n or g1.m != g2.m:
        return None
    key, order2, par2, path = next(_labellings(g2))
    for key1, order1, par1, _ in _labellings(g1, path):
        if key1 == key:
            return IsoWitness(
                {g1.vertices[a]: g2.vertices[b]
                 for a, b in zip(order1, order2)},
                frozenset(g2.vertices[b]
                          for b, p, q in zip(order2, par1, par2) if p != q))
    return None


def canonical_form(g: SignedGraph) -> tuple:
    """The least leaf key of `_labellings`, (n, loop part, edge part).

    Equal keys iff switching-isomorphic, and `from_canonical_form` rebuilds
    the graph the key encodes.  The key is the least over the leaves of the
    individualization-refinement search, not over all n! permutations, so
    it is a canonical label only for this search; the labels of the
    representatives built from it follow the search too.  Guarded by
    guards.CANONICAL_FORM_MAX_VERTICES.
    """
    guards.check(g.n, guards.CANONICAL_FORM_MAX_VERTICES,
                 "canonical form search")
    return min(key for key, *_ in _labellings(g))


def from_canonical_form(key: tuple) -> SignedGraph:
    """Rebuild the representative graph encoded by canonical_form."""
    n, loop_key, enc = key
    edge_list = [(v, v, s) for v, s in loop_key]
    edge_list += [(a, b, s) for a, b, s in enc]
    return build_graph(edge_list, isolated=range(n))


# -- .sg text format ------------------------------------------------------------

def _content_lines(text: str) -> Iterator[tuple]:
    """(number from 1, line) of each line of text left non-blank once its
    `#` comment is cut off and it is stripped: the .sg and .rot line loop."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return ((ln, line) for ln, line in enumerate(lines, start=1) if line)


def _label(v) -> str:
    """v as a .sg/.rot token; no token is empty or holds whitespace or `#`."""
    text = str(v)
    if text.split() != [text] or "#" in text:
        raise PreconditionError(f"vertex label {text!r} cannot be written: "
                                "it is empty or holds whitespace or `#`")
    return text


def parse_sg(text: str) -> SignedGraph:
    """Parse the .sg edge-list format.

    A three-token line is an edge `u v s` with s in {+,-}; a two-token line
    `vertex u` declares an isolated vertex; `#` starts a comment.
    """
    edge_list = []
    isolated = []
    for ln, line in _content_lines(text):
        parts = line.split()
        if len(parts) == 3:
            edge_list.append((parts[0], parts[1], parse_sign(parts[2])))
        elif len(parts) == 2 and parts[0] == "vertex":
            isolated.append(parts[1])
        else:
            raise ParseError(f"line {ln}: expected " + (
                "`vertex u`" if parts[0] == "vertex" else "`u v s`"))
    return build_graph(edge_list, isolated=isolated)


def serialize_sg(g: SignedGraph) -> str:
    """Inverse of parse_sg; round-trips the edge multiset bit-exactly.
    A label that no .sg token can carry raises PreconditionError."""
    label = {v: _label(v) for v in g.vertices}
    lines = [f"{label[e.u]} {label[e.v]} {sign_token(e.sign)}"
             for e in g.edges]
    covered = {v for e in g.edges for v in (e.u, e.v)}
    lines += [f"vertex {label[v]}" for v in g.vertices if v not in covered]
    return "\n".join(lines) + "\n"
