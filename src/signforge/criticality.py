"""Critical frustration: three equivalent tests, each with a certificate.

A signed graph with frustration index k is critically frustrated when
deleting any single edge drops the index to k-1.  Three checks:

* deletion   -- the index after each single-edge deletion.  Deleting e
                lowers the index by one exactly when e is a negative loop
                or e is negative in some minimum switching of its
                component; otherwise the index stays k.  So one switching
                scan (the OR of the minimizers' negative-edge masks) gives
                every ℓ(G-e), with no rescans;
* signatures -- every edge is negative in some minimum signature;
* cuts       -- after switching to a minimum signature, every positive
                edge lies in some equilibrated cut (equally many positive
                and negative boundary edges).  Switching at such a cut
                keeps the signature minimum while making the edge
                negative, so this is the signature test in disguise.  One
                pass over the cut sides serves every positive edge.

All three agree; the oracle tests exercise that agreement on random
inputs.  Each returns per-edge witnesses for independent re-checking.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import guards
from .core import NEG, EdgeCut, SignedGraph, cut, switch
from .errors import PreconditionError
from .frustration import (_component_scans, _frustration, _loop_baseline,
                          _signatures)


@dataclass(frozen=True)
class CriticalityCertificate:
    critical: bool
    k: int
    method: str
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"critical": self.critical, "k": self.k,
                "method": self.method, "details": self.details}


def _first_equilibrated_sides(g: SignedGraph, eids: Iterable[int]) -> dict:
    """eid -> side of the smallest, then lex-least, equilibrated cut
    containing that edge; edges in no equilibrated cut are left out.

    Only one side of each cut is scanned: the side containing the least
    vertex, in (size, itertools.combinations) order.  A side's boundary is
    the XOR of its vertices' incidence masks.  One pass serves every edge
    and stops once each has its side.
    """
    guards.check(g.n, guards.SWITCH_SEARCH_MAX_VERTICES,
                 "equilibrated cut search")
    open_mask = sum(1 << eid for eid in eids if not g.edges[eid].is_loop)
    if not open_mask:
        return {}
    found = {}
    anchor, *rest = g.vertices
    masks = [g.incidence_masks[v] for v in rest]
    first = g.incidence_masks[anchor]
    neg = g.negative_mask
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(range(len(rest)), r):
            b = functools.reduce(operator.xor, map(masks.__getitem__, combo),
                                 first)
            hit = b & open_mask
            if not hit or 2 * (b & neg).bit_count() != b.bit_count():
                continue
            side = frozenset([anchor, *map(rest.__getitem__, combo)])
            open_mask ^= hit
            while hit:
                low = hit & -hit
                found[low.bit_length() - 1] = side
                hit ^= low
            if not open_mask:
                return found
    return found


def equilibrated_cut_for_edge(g: SignedGraph, eid: int) -> Optional[EdgeCut]:
    """Smallest (then lex-least) equilibrated cut containing edge eid.

    Only one side of each cut is scanned: the side containing the least
    vertex.  Returns None when no equilibrated cut contains the edge.
    """
    if not 0 <= eid < g.m:
        raise PreconditionError(f"edge {eid} is not an edge id "
                                f"(0..{g.m - 1})")
    side = _first_equilibrated_sides(g, [eid]).get(eid)
    return None if side is None else cut(g, side)


def _certify_deletion(g: SignedGraph, k: int, scans: list) -> tuple:
    # edges negative in some minimum switching
    lowered = functools.reduce(operator.or_, (s[3] for s in scans), 0)
    drops = {}
    for e in g.edges:
        drop = (e.sign == NEG) if e.is_loop else bool(lowered >> e.eid & 1)
        drops[e.eid] = k - 1 if drop else k
    critical = all(sub == k - 1 for sub in drops.values())
    return critical, {"index_after_deletion": drops}


def _certify_signatures(g: SignedGraph, k: int, scans: list) -> tuple:
    # the signatures are a product over the components, so g.n bounds them
    guards.check(g.n, guards.SWITCH_SEARCH_MAX_VERTICES,
                 "minimum-signature enumeration")
    sigs = _signatures(g, scans)
    witness = {}
    critical = True
    for e in g.edges:
        hit = next((s for s in sigs if e.eid in s), None)
        witness[e.eid] = list(hit) if hit is not None else None
        if hit is None:
            critical = False
    return critical, {"negative_in_signature": witness}


def _certify_cuts(g: SignedGraph, k: int, scans: list) -> tuple:
    switch_set = _frustration(g, scans).switch_set
    gmin = switch(g, switch_set)
    # edges already negative in the minimum signature need no cut
    positive = [e.eid for e in gmin.edges if e.sign != NEG]
    sides = _first_equilibrated_sides(gmin, positive)
    cuts = {eid: cut(gmin, sides[eid]).to_json(gmin) if eid in sides else None
            for eid in positive}
    return len(sides) == len(positive), {
        "minimum_switch_set": sorted(map(str, switch_set)),
        "equilibrated_cuts": cuts}


_CERTIFIERS = {"deletion": _certify_deletion,
               "signatures": _certify_signatures, "cuts": _certify_cuts}
METHODS = tuple(_CERTIFIERS)


def certify(g: SignedGraph, k: Optional[int] = None,
            method: str = "deletion") -> CriticalityCertificate:
    """Certificate that g is (or is not) critically k-frustrated.

    k defaults to the frustration index of g.  Passing an explicit k that
    differs from the index yields a non-critical certificate recording the
    mismatch.  k = 0 is never critical (nothing to drop).
    """
    if method not in METHODS:
        raise PreconditionError(f"unknown method {method!r}; use one of {METHODS}")
    # one scan per component gives the index and every ℓ(G-e), every
    # minimum signature, or the lex-least minimum switching
    scans = _component_scans(g)
    index = _loop_baseline(g) + sum(s[1] for s in scans)
    if k is None:
        k = index
    if index != k or k == 0:
        return CriticalityCertificate(
            False, k, method, {"frustration_index": index})
    critical, details = _CERTIFIERS[method](g, k, scans)
    return CriticalityCertificate(critical, k, method, details)


def is_critical(g: SignedGraph, k: Optional[int] = None,
                method: str = "deletion") -> bool:
    return certify(g, k, method).critical
