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
                pass over the cut sides serves every positive edge.  The
                minimum signature is the scan's negative-edge mask, and
                each cut witness is read off the boundary mask the pass
                XORs, so no switched graph is built.

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
from .core import EdgeCut, SignedGraph, _bits
from .errors import PreconditionError
from .frustration import (_component_scans, _minimizer, _negative_loops,
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


def _first_equilibrated_cuts(g: SignedGraph, eids: Iterable[int],
                             neg: int) -> dict:
    """eid -> the smallest, then lex-least, equilibrated cut containing
    that edge, when the edges in mask neg are the negative ones; edges in
    no equilibrated cut are left out.

    Only one side of each cut is scanned: the side containing the least
    vertex, in (size, itertools.combinations) order.  A side's boundary is
    the XOR of its vertices' incidence masks, and its cut is read off that
    mask.  One pass serves every edge and stops once each has its cut.
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
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(range(len(rest)), r):
            b = functools.reduce(operator.xor, map(masks.__getitem__, combo),
                                 first)
            hit = b & open_mask
            if not hit or 2 * (b & neg).bit_count() != b.bit_count():
                continue
            half = b.bit_count() // 2
            found.update(dict.fromkeys(_bits(hit), EdgeCut(
                frozenset([anchor, *map(rest.__getitem__, combo)]),
                frozenset(_bits(b)), half, half)))
            open_mask ^= hit
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
    return _first_equilibrated_cuts(g, [eid], g.negative_mask).get(eid)


def _certify_deletion(g: SignedGraph, k: int, scans: list) -> tuple:
    # the edges negative in some minimum switching, negative loops included
    lowered = functools.reduce(operator.or_,
                               (neg for s in scans for neg in s[3]),
                               _negative_loops(g))
    drops = {eid: k - 1 if lowered >> eid & 1 else k for eid in range(g.m)}
    critical = all(sub == k - 1 for sub in drops.values())
    return critical, {"index_after_deletion": drops}


def _certify_signatures(g: SignedGraph, k: int, scans: list) -> tuple:
    sigs = _signatures(g, scans)
    witness = {eid: next((list(s) for s in sigs if eid in s), None)
               for eid in range(g.m)}
    return None not in witness.values(), {"negative_in_signature": witness}


def _certify_cuts(g: SignedGraph, k: int, scans: list) -> tuple:
    switch_set, neg = _minimizer(g, scans)
    # edges already negative in the minimum signature need no cut
    positive = [eid for eid in range(g.m) if not neg >> eid & 1]
    cuts = _first_equilibrated_cuts(g, positive, neg)
    return len(cuts) == len(positive), {
        "minimum_switch_set": sorted(map(str, switch_set)),
        "equilibrated_cuts": {eid: cuts[eid].to_json(g) if eid in cuts
                              else None for eid in positive}}


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
    # one scan per component gives the index, and its minimizers'
    # negative-edge masks give every ℓ(G-e), every minimum signature, or
    # the lex-least minimum signature
    scans = _component_scans(g)
    index = _negative_loops(g).bit_count() + sum(s[1] for s in scans)
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
