"""Frustration index by exhaustive switching, with witnesses.

The frustration index of a signed graph is the minimum number of negative
edges over all switchings.  One kernel, `_scan`, walks the switchings of
each connected component with one anchor vertex pinned (a switch set and
its complement give the same signature), so a component of c vertices
costs 2^(c-1) steps.  The walk is in Gray-code order: each step switches
one vertex.  Edge sets are ints with bit eid per edge, and every vertex
keeps the mask of its incident non-loop edges, so a step is one XOR of
the negative-edge mask with that vertex's mask and one popcount.

For each component the kernel returns the minimum and every minimizing
switch mask, each next to the negative-edge mask it induces.  The index
and its witness edges, all minimum signatures (a product of those masks)
and the certificates in `criticality` are read off them, with no switched
graph built.  The Gray-code loop itself, `_walk`, takes raw masks, so
`enumeration` runs it on masks built straight from its integer encoding.
Past 9 free vertices it goes 512 switchings at a time, off one table of
the first 9 vertices' masks in Gray order; smaller walks, every
enumeration walk among them, stay a loop.

Negative loops are unswitchable and each contributes exactly 1; positive
loops contribute 0.  Loops never enter the masks: the negative loops are
a last part of their own, with one switching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import guards
from .core import SignedGraph, _ids, switch
from .cycles import min_negative_cycle_cover


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


_BLOCK = 9  # blocks of 2^9 beat the loop only past 9 free vertices


def _walk(inc: list, neg: int) -> tuple:
    """The Gray-code switching loop, on raw masks.

    inc[i] is the incidence mask of the i-th free vertex and neg the
    negative-edge mask to start from; the pinned vertex is implicit.
    Bit i of a switch mask switches the i-th free vertex.  Returns
    (minimum, masks, negs): the least popcount of the negative-edge mask
    over all 2^len(inc) switchings, every switch mask reaching it (in
    Gray-code order, starting from the empty switching), and next to each,
    at the same position in negs, the negative-edge mask it induces.

    Past _BLOCK free vertices, block hi of 2^_BLOCK positions is a table of
    the first _BLOCK masks XORed in Gray order (read backward when hi is
    odd: the code reflects) XORed with the rest's Gray-walked mask, so a
    block is one comprehension of popcounts and one `min`, in loop order.
    """
    best, masks, negs = neg.bit_count(), [0], [neg]
    if len(inc) <= _BLOCK:
        for step in range(1, 1 << len(inc)):
            neg ^= inc[(step & -step).bit_length() - 1]
            count = neg.bit_count()
            if count <= best:
                if count < best:
                    best = count
                    masks, negs = [], []
                masks.append(step ^ (step >> 1))
                negs.append(neg)
        return best, masks, negs
    table = [0]
    for b in inc[:_BLOCK]:
        table += [t ^ b for t in reversed(table)]
    tables, masks, negs = (table, table[::-1]), [], []
    for hi in range(1 << len(inc) - _BLOCK):
        if hi:
            neg ^= inc[_BLOCK + (hi & -hi).bit_length() - 1]
        table = tables[hi & 1]
        counts = [(neg ^ t).bit_count() for t in table]
        count = min(counts)
        if count <= best:
            if count < best:
                best, masks, negs = count, [], []
            p = -1
            for _ in range(counts.count(count)):
                p = counts.index(count, p + 1)
                step = hi << _BLOCK | p
                masks.append(step ^ (step >> 1))
                negs.append(neg ^ table[p])
    return best, masks, negs


def _scan(g: SignedGraph, comp: frozenset) -> tuple:
    """`_walk` over the 2^(c-1) switchings of one component, its anchor
    pinned.

    The anchor is the component's first vertex in vertex order; the other
    c-1 vertices, in vertex order, are `free`, and bit i of a switch mask
    switches free[i].  Returns (free, minimum, masks, negs) for the
    component's non-loop edges.
    """
    anchor, *free = sorted(comp, key=g.vindex.__getitem__)
    inc = [g.incidence_masks[v] for v in free]
    edges = g.incidence_masks[anchor]
    for mask in inc:
        edges |= mask
    return (free, *_walk(inc, g.negative_mask & edges))


def _component_scans(g: SignedGraph) -> list:
    """`_scan` of every component, in component order, under the switching
    guard (exponential in the largest component only), then the negative
    loops as a last part, with no free vertex."""
    guards.check(max(map(len, g.components), default=0),
                 guards.SWITCH_SEARCH_MAX_VERTICES, "switching search")
    loops = g.loop_mask & g.negative_mask
    return [_scan(g, comp) for comp in g.components] + [
        ([], loops.bit_count(), [0], [loops])]


def _least(free: list, masks: list) -> int:
    """The position in masks of the switch set whose sorted tuple of vertex
    strings is least, the first such on ties.

    Each free vertex is ranked by its `str`, equal strings sharing a rank,
    so a set's ranks in ascending order compare as its sorted strings do.
    """
    if len(masks) == 1:  # one minimizer, or no free vertex
        return 0
    names = [str(v) for v in free]
    rank = {name: r for r, name in enumerate(sorted(set(names)))}
    order = sorted([(rank[name], 1 << j) for j, name in enumerate(names)])
    return min(range(len(masks)),
               key=lambda i: [r for r, bit in order if masks[i] & bit])


def _minimizer(g: SignedGraph, scans: list) -> tuple:
    """`frustration_index`'s witness read from the parts' scans, as
    (switch set, negative-edge mask, the chosen minimizer's position in
    each part's masks)."""
    full, neg, picks = frozenset(), 0, []
    for free, _, masks, negs in scans:
        i = _least(free, masks)
        full |= frozenset(map(free.__getitem__, _ids(masks[i])))
        neg |= negs[i]
        picks.append(i)
    return full, neg, picks


def frustration_index(g: SignedGraph) -> FrustrationResult:
    """Minimum negative-edge count over all switchings, with a witness.

    Ties are broken, per component and with its anchor unswitched,
    toward the lexicographically least switch set (by sorted tuple of
    vertex strings).  The reported negative edge ids are those of
    switch(g, switch_set).
    """
    full, neg, _ = _minimizer(g, _component_scans(g))
    return FrustrationResult(neg.bit_count(), full, frozenset(_ids(neg)))


def all_minimum_signatures(g: SignedGraph) -> tuple:
    """Every distinct minimum negative-edge set, as sorted eid tuples.

    Returned sorted lexicographically.  Distinct switch sets can induce
    the same negative edge set; duplicates are collapsed.  Read off the
    parts' scans: a minimizer's mask per part.
    """
    # the answer is a product over the components, so g.n bounds it
    guards.check(g.n, guards.SWITCH_SEARCH_MAX_VERTICES,
                 "minimum-signature enumeration")
    # the parts' masks are disjoint, so their sum is their union
    out = {sum(combo) for combo
           in itertools.product(*(s[3] for s in _component_scans(g)))}
    return tuple(sorted(tuple(_ids(neg)) for neg in out))


def minimum_signature_switch(g: SignedGraph) -> SignedGraph:
    """g switched into a minimum signature (the frustration_index witness)."""
    return switch(g, frustration_index(g).switch_set)


def is_minimum_signature(g: SignedGraph) -> bool:
    """True iff g already realizes its frustration index."""
    return len(g.negative_edge_ids) == frustration_index(g).index


def frustration_by_cover(g: SignedGraph) -> int:
    """Independent oracle: size of a minimum negative-cycle cover.

    Equals the frustration index (a minimum signature is a cover, and a
    minimal cover is the negative set of some minimum signature).
    """
    return len(min_negative_cycle_cover(g))
