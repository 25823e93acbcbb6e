"""Frustration index by exhaustive switching, with witnesses.

The frustration index of a signed graph is the minimum number of negative
edges over all switchings.  One kernel, `_scan`, walks the switchings of
each connected component with one anchor vertex pinned (a switch set and
its complement give the same signature), so a component of c vertices
costs 2^(c-1) steps.  The walk is in Gray-code order: each step switches
one vertex.  Edge sets are ints with bit eid per edge, and every vertex
keeps the mask of its incident non-loop edges, so a step is one XOR of
the negative-edge mask with that vertex's mask and one popcount.

For each component the kernel returns the minimum, every minimizing
switch mask, and the OR of the negative-edge masks those switchings
induce.  The index, its lex-least witness, all minimum signatures and the
deletion and signature certificates in `criticality` are all read from
that one pass.  The Gray-code loop itself, `_walk`, takes raw masks, so
`enumeration` runs it on masks built straight from its integer encoding.

Negative loops are unswitchable and each contributes exactly 1; positive
loops contribute 0.  Loops never enter the masks, and the negative loops
are added back to the total.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import guards
from .core import NEG, SignedGraph, switch


@dataclass(frozen=True)
class FrustrationResult:
    index: int
    switch_set: frozenset
    negative_edge_ids: frozenset

    def to_json(self) -> dict:
        return {
            "frustration_index": self.index,
            "switch_set": sorted(map(str, self.switch_set)),
            "negative_edges": sorted(self.negative_edge_ids),
        }


def _walk(inc: list, neg: int) -> tuple:
    """The Gray-code switching loop, on raw masks.

    inc[i] is the incidence mask of the i-th free vertex and neg the
    negative-edge mask to start from; the pinned vertex is implicit.
    Bit i of a switch mask switches the i-th free vertex.  Returns
    (minimum, masks, neg_or): the least popcount of the negative-edge mask
    over all 2^len(inc) switchings, every switch mask reaching it (in
    Gray-code order, starting from the empty switching), and the OR of the
    negative-edge masks those switchings induce.
    """
    best = neg.bit_count()
    masks = [0]
    neg_or = neg
    for step in range(1, 1 << len(inc)):
        neg ^= inc[(step & -step).bit_length() - 1]
        count = neg.bit_count()
        if count <= best:
            if count < best:
                best = count
                masks = []
                neg_or = 0
            masks.append(step ^ (step >> 1))
            neg_or |= neg
    return best, masks, neg_or


def _scan(g: SignedGraph, comp: frozenset) -> tuple:
    """`_walk` over the 2^(c-1) switchings of one component, its anchor
    pinned.

    The anchor is the component's first vertex in vertex order; the other
    c-1 vertices, in vertex order, are `free`, and bit i of a switch mask
    switches free[i].  Returns (free, minimum, masks, neg_or) for the
    component's non-loop edges.
    """
    anchor, *free = sorted(comp, key=g.vindex.__getitem__)
    inc = [g.incidence_masks[v] for v in free]
    edges = g.incidence_masks[anchor]
    for mask in inc:
        edges |= mask
    return (free, *_walk(inc, g.negative_mask & edges))


def _switch_set(free: list, mask: int) -> frozenset:
    """The vertex set a switch mask of `_scan` stands for."""
    return frozenset(v for i, v in enumerate(free) if mask >> i & 1)


def _limit(max_vertices) -> int:
    return guards.SWITCH_SEARCH_MAX_VERTICES if max_vertices is None else max_vertices


def _component_scans(g: SignedGraph, max_vertices: int = None) -> list:
    """`_scan` of every component, in component order, under the switching
    guard; the scan is exponential in the largest component only."""
    guards.check(max(map(len, g.components), default=0),
                 _limit(max_vertices), "switching search")
    return [_scan(g, comp) for comp in g.components]


def _loop_baseline(g: SignedGraph) -> int:
    return sum(1 for eid in g.loop_edge_ids if g.edges[eid].sign == NEG)


def frustration_index(g: SignedGraph, max_vertices: int = None) -> FrustrationResult:
    """Minimum negative-edge count over all switchings, with a witness.

    Ties are broken, per component and with its anchor unswitched,
    toward the lexicographically least switch set (by sorted tuple of
    vertex strings).  The reported negative edge ids are those of
    switch(g, switch_set).
    """
    total = _loop_baseline(g)
    full = frozenset()
    for free, best, masks, _ in _component_scans(g, max_vertices):
        total += best
        names = [str(v) for v in free]
        least = min(masks, key=lambda m: sorted(
            [s for i, s in enumerate(names) if m >> i & 1]))
        full |= _switch_set(free, least)
    return FrustrationResult(total, full, switch(g, full).negative_edge_ids)


def all_minimum_signatures(g: SignedGraph,
                           max_vertices: int = None) -> tuple:
    """Every distinct minimum negative-edge set, as sorted eid tuples.

    Returned sorted lexicographically.  Distinct switch sets can induce
    the same negative edge set; duplicates are collapsed.
    """
    # the answer is a product over the components, so g.n bounds it
    guards.check(g.n, _limit(max_vertices), "minimum-signature enumeration")
    return _signatures(g, [_scan(g, comp) for comp in g.components])


def _signatures(g: SignedGraph, scans: list) -> tuple:
    """`all_minimum_signatures` read from the components' `_scan`s."""
    per_comp = [[_switch_set(free, m) for m in masks]
                for free, _, masks, _ in scans]
    out = set()
    for combo in itertools.product(*per_comp):
        full = frozenset().union(*combo)
        out.add(tuple(sorted(switch(g, full).negative_edge_ids)))
    return tuple(sorted(out))


def minimum_signature_switch(g: SignedGraph,
                             max_vertices: int = None) -> SignedGraph:
    """g switched into a minimum signature (the frustration_index witness)."""
    return switch(g, frustration_index(g, max_vertices).switch_set)


def is_minimum_signature(g: SignedGraph, max_vertices: int = None) -> bool:
    """True iff g already realizes its frustration index."""
    return len(g.negative_edge_ids) == frustration_index(g, max_vertices).index


def frustration_by_cover(g: SignedGraph, cap: int = None) -> int:
    """Independent oracle: size of a minimum negative-cycle cover.

    Equals the frustration index (a minimum signature is a cover, and a
    minimal cover is the negative set of some minimum signature).
    """
    from .cycles import min_negative_cycle_cover
    return len(min_negative_cycle_cover(g, cap))
