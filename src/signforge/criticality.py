"""Critical frustration: three equivalent tests, each with a certificate.

A signed graph with frustration index k is critically frustrated when
deleting any single edge drops the index to k-1.  Three checks:

* deletion   -- the index after each single-edge deletion.  Deleting e
                lowers the index by one exactly when e is a negative loop
                or e is negative in some minimum switching of its
                component; otherwise the index stays k.  So one switching
                scan (the OR of the minimizers' negative-edge masks) gives
                every ℓ(G-e), with no rescans;
* signatures -- every edge is negative in some minimum signature, made
                of one minimizer's mask per `_component_scans` part;
* cuts       -- after switching to a minimum signature, every positive
                edge lies in some equilibrated cut (equally many positive
                and negative boundary edges).  Switching at such a cut
                keeps the signature minimum while making the edge
                negative, so this is the signature test in disguise.  The
                cuts are read off the walk's minimizers: switching the
                chosen one into another is an equilibrated cut, whose
                boundary is the XOR of their negative-edge masks.

All three agree; the oracle tests exercise that agreement on random
inputs.  Each returns per-edge witnesses for independent re-checking.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Optional

from . import guards
from .core import EdgeCut, SignedGraph, _ids, cut
from .errors import PreconditionError
from .frustration import _component_scans, _minimizer


@dataclass(frozen=True)
class CriticalityCertificate:
    critical: bool
    k: int
    method: str
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"critical": self.critical, "k": self.k,
                "method": self.method, "details": self.details}


def equilibrated_cut_for_edge(g: SignedGraph, eid: int) -> Optional[EdgeCut]:
    """Smallest (then lex-least) equilibrated cut containing edge eid.

    Only one side of each cut is scanned: the side containing the least
    vertex, in (size, itertools.combinations) order.  Returns None when no
    equilibrated cut contains the edge.  g's signature need not be minimum,
    so its cuts are not read off the walk's minimizers: the sides are
    walked.
    """
    if not 0 <= eid < g.m:
        raise PreconditionError(f"edge {eid} is not an edge id "
                                f"(0..{g.m - 1})")
    guards.check(g.n, guards.SWITCH_SEARCH_MAX_VERTICES,
                 "equilibrated cut search")
    if g.edges[eid].is_loop:
        return None
    anchor, *rest = g.vertices
    inc, neg = g.incidence_masks, g.negative_mask
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            # a side's boundary is the XOR of its vertices' incidence masks
            b = functools.reduce(operator.xor, map(inc.__getitem__, combo),
                                 inc[anchor])
            if b >> eid & 1 and 2 * (b & neg).bit_count() == b.bit_count():
                return cut(g, (anchor, *combo))
    return None


def _lex(mask: int) -> tuple:
    """Descending sort key: bit sets by size, then lex by position.  Of two
    sets of one size, the one holding the lowest bit where they differ has
    the greater bit string read lowest bit first."""
    return -mask.bit_count(), bin(mask)[:1:-1]


def _equilibrated_cuts(g: SignedGraph, scans: list, picks: list,
                       open_mask: int) -> dict:
    """eid -> the smallest, then lex-least, equilibrated cut containing
    that edge, with its side holding g's first vertex, for each edge in
    open_mask under the chosen minimizers `picks`; others are left out.

    Switching a component's chosen minimizer at t = masks[i] ^ masks[pick]
    gives minimizer i, so t and the rest of the component (the anchored
    side) bound every equilibrated cut there, with boundary
    negs[pick] ^ negs[i].  A cut is equilibrated when each component's part
    is, and equal-size parts on disjoint vertex sets compare lex as the
    parts do.  So an edge of another component than the first joins its
    least side there to the first component's least anchored side.
    """
    found, base, bound = {}, [], 0
    parts = zip(g.components, scans, picks)  # the loop part holds no cut
    for c, (comp, (free, _, masks, negs), pick) in enumerate(parts):
        if not open_mask:
            break
        # bit 0 of a side is the anchor, bit j+1 the j-th free vertex
        verts = [min(comp, key=g.vindex.__getitem__), *free]
        full, sides = (2 << len(free)) - 1, {}
        for m, n in zip(masks, negs):
            t = (m ^ masks[pick]) << 1
            sides[full ^ t] = n ^ negs[pick]
            if c:
                sides[t] = n ^ negs[pick]
        order = sorted(sides, key=_lex, reverse=True)
        for side in order:
            hit = sides[side] & open_mask
            if hit:
                open_mask ^= hit
                b = sides[side] | bound
                half = b.bit_count() // 2
                found.update(dict.fromkeys(_ids(hit), EdgeCut(
                    frozenset([*base, *map(verts.__getitem__, _ids(side))]),
                    frozenset(_ids(b)), half, half)))
        if not c:
            base = list(map(verts.__getitem__, _ids(order[0])))
            bound = sides[order[0]]
    return found


def _certify_deletion(g: SignedGraph, k: int, scans: list) -> tuple:
    # the edges negative in some minimum switching of their part
    lowered = functools.reduce(operator.or_, (n for s in scans for n in s[3]))
    drops = {eid: k - 1 if lowered >> eid & 1 else k for eid in range(g.m)}
    critical = all(sub == k - 1 for sub in drops.values())
    return critical, {"index_after_deletion": drops}


def _certify_signatures(g: SignedGraph, k: int, scans: list) -> tuple:
    # the lex-least minimum signature holding an edge is, per part, the
    # lex-least mask (holding the edge in its own part): a part's masks
    # are of one size
    ranked = [sorted(s[3], key=_lex, reverse=True) for s in scans]
    least = sum(negs[0] for negs in ranked)
    witness, open_mask = dict.fromkeys(range(g.m)), (1 << g.m) - 1
    for negs in ranked:
        for n in negs:
            hit = n & open_mask
            if hit:
                open_mask ^= hit
                sig = _ids(least ^ negs[0] ^ n)
                witness.update((eid, list(sig)) for eid in _ids(hit))
    return None not in witness.values(), {"negative_in_signature": witness}


def _certify_cuts(g: SignedGraph, k: int, scans: list) -> tuple:
    switch_set, neg, picks = _minimizer(g, scans)
    # edges already negative in the minimum signature need no cut
    positive = [eid for eid in range(g.m) if not neg >> eid & 1]
    cuts = _equilibrated_cuts(g, scans, picks,
                              (1 << g.m) - 1 & ~(neg | g.loop_mask))
    return len(cuts) == len(positive), {
        "minimum_switch_set": sorted(map(str, switch_set)),
        "equilibrated_cuts": {eid: cuts[eid].to_json() if eid in cuts
                              else None for eid in positive}}


_CERTIFIERS = {"deletion": _certify_deletion,
               "signatures": _certify_signatures, "cuts": _certify_cuts}
METHODS = tuple(_CERTIFIERS)


def _certificates(g: SignedGraph, k: Optional[int] = None,
                  methods: tuple = METHODS) -> list:
    """`certify`'s certificate for each of methods, all read off one
    switching walk: its index and its minimizers' negative-edge masks."""
    scans = _component_scans(g)
    index = sum(s[1] for s in scans)
    if k is None:
        k = index
    out = []
    for method in methods:
        if index != k or k == 0:
            critical, details = False, {"frustration_index": index}
        else:
            critical, details = _CERTIFIERS[method](g, k, scans)
        out.append(CriticalityCertificate(critical, k, method, details))
    return out


def certify(g: SignedGraph, k: Optional[int] = None,
            method: str = "deletion") -> CriticalityCertificate:
    """Certificate that g is (or is not) critically k-frustrated.

    k defaults to the frustration index of g.  Passing an explicit k that
    differs from the index yields a non-critical certificate recording the
    mismatch.  k = 0 is never critical (nothing to drop).
    """
    if method not in METHODS:
        raise PreconditionError(f"unknown method {method!r}; use one of {METHODS}")
    return _certificates(g, k, (method,))[0]


def is_critical(g: SignedGraph, k: Optional[int] = None) -> bool:
    return certify(g, k).critical
