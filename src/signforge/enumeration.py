"""Exhaustive generation of small signed multigraphs up to switching
isomorphism.

Raw candidates are assignments of (multiplicity, negative count) to each
vertex pair plus a negative-loop count per vertex.  Positive loops are
excluded (they affect nothing studied here), as are isolated vertices, so
vertex count is a class invariant.  One representative per switching-
isomorphism class survives a brute-force canonical-form filter.

The critical-graph filter runs on the raw integer encoding before any
deduplication, through the switching kernel of `frustration`: each pair
assignment becomes edge bitmasks (one bit run per bundle) and is scanned
once, whatever its loops.  Deleting a pair edge lowers the index exactly
when the edge is negative in some minimum switching (the kernel's
OR-mask), and deleting a negative loop always does, so an assignment
gives critical candidates only when its OR-mask covers every pair edge,
and then exactly those whose loops number k minus its index.  The work
is one scan per pair assignment, not one per (loop vector, assignment)
and deleted edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from . import guards
from .core import NEG, POS, SignedGraph, build_graph, canonical_form
from .errors import GuardExceeded
from .frustration import _walk


@dataclass(frozen=True)
class EnumBounds:
    max_vertices: int
    max_multiplicity_per_pair: int = 2
    max_negative_loops_per_vertex: int = 2
    max_edges: int = 10
    connected_only: bool = False

    def check(self) -> None:
        if min(self.max_vertices, self.max_multiplicity_per_pair,
               self.max_negative_loops_per_vertex, self.max_edges) < 0:
            raise GuardExceeded("bounds must be non-negative")
        guards.check(self.max_vertices, guards.ENUM_MAX_VERTICES,
                     "enumeration (vertices)")
        guards.check(self.max_edges, guards.ENUM_MAX_EDGES,
                     "enumeration (edges)")


# raw candidate: (n, loops, pairs) with loops a tuple of per-vertex negative
# loop counts and pairs a tuple of (mult, neg) per pair of _pair_list(n)

def _pair_list(n: int) -> tuple:
    return tuple(itertools.combinations(range(n), 2))


def _assignments(b: EnumBounds, pairs: tuple, budget: int) -> Iterator[tuple]:
    """(assignment, edges used) for every assignment of (mult, neg) to
    pairs using at most budget edges, in lexicographic order."""
    pair_opts = [(m, neg) for m in range(b.max_multiplicity_per_pair + 1)
                 for neg in range(m + 1)]

    def assign(i: int, acc: list, used: int) -> Iterator[tuple]:
        if i == len(pairs):
            yield tuple(acc), used
            return
        for opt in pair_opts:
            if used + opt[0] > budget:
                continue
            acc.append(opt)
            yield from assign(i + 1, acc, used + opt[0])
            acc.pop()

    return assign(0, [], 0)


def _raw_candidates(b: EnumBounds) -> Iterator[tuple]:
    """All raw candidates within bounds, no isolated vertices, deterministic
    lexicographic order."""
    for n in range(1, b.max_vertices + 1):
        pairs = _pair_list(n)
        loop_opts = range(b.max_negative_loops_per_vertex + 1)
        for loops in itertools.product(loop_opts, repeat=n):
            lsum = sum(loops)
            if lsum > b.max_edges:
                continue
            for assignment, _ in _assignments(b, pairs, b.max_edges - lsum):
                deg = [2 * l for l in loops]
                for (u, v), (mult, _) in zip(pairs, assignment):
                    deg[u] += mult
                    deg[v] += mult
                if any(d == 0 for d in deg):
                    continue
                if b.connected_only and not _raw_connected(n, pairs, assignment):
                    continue
                yield (n, loops, assignment)


def _raw_connected(n: int, pairs: tuple, assignment: tuple) -> bool:
    adj = {i: set() for i in range(n)}
    for (u, v), (mult, _) in zip(pairs, assignment):
        if mult:
            adj[u].add(v)
            adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        w = stack.pop()
        for o in adj[w]:
            if o not in seen:
                seen.add(o)
                stack.append(o)
    return len(seen) == n


def _raw_to_graph(n: int, loops: tuple, pairs: tuple,
                  assignment: tuple) -> SignedGraph:
    edge_list = []
    for v, cnt in enumerate(loops):
        edge_list += [(v, v, NEG)] * cnt
    for (u, v), (mult, nneg) in zip(pairs, assignment):
        edge_list += [(u, v, NEG)] * nneg
        edge_list += [(u, v, POS)] * (mult - nneg)
    return build_graph(edge_list, isolated=range(n))


def enumerate_signed_graphs(b: EnumBounds) -> Iterator[SignedGraph]:
    """One representative per switching-isomorphism class within bounds.

    Deterministic: candidates stream in lexicographic order, first class
    member wins, and the emitted value is rebuilt from its canonical key.
    """
    b.check()
    from .core import from_canonical_form
    seen = set()
    for n, loops, assignment in _raw_candidates(b):
        g = _raw_to_graph(n, loops, _pair_list(n), assignment)
        key = canonical_form(g)
        if key in seen:
            continue
        seen.add(key)
        yield from_canonical_form(key)


def _raw_critical_hits(b: EnumBounds, k: int) -> list:
    """Every critically k-frustrated raw candidate, in `_raw_candidates`
    order, from one scan per pair assignment (see the module docstring)."""
    hits = []
    for n in range(1, b.max_vertices + 1):
        pairs = _pair_list(n)
        for assignment, used in _assignments(b, pairs, b.max_edges):
            # bit runs per bundle, negative edges first; per-vertex masks
            inc = [0] * n
            neg = bit = 0
            for (u, v), (mult, nneg) in zip(pairs, assignment):
                if mult:
                    run = ((1 << mult) - 1) << bit
                    neg |= ((1 << nneg) - 1) << bit
                    inc[u] |= run
                    inc[v] |= run
                    bit += mult
            # critical graphs have minimum degree >= 2 (a pendant edge is
            # in no cycle, so deleting it cannot change the index); a loop
            # adds 2 and the pair edges at v are the bits of inc[v]
            low = [int(mask.bit_count() < 2) for mask in inc]
            room = b.max_edges - used
            if sum(low) > min(k, room) or b.connected_only and \
                    not _raw_connected(n, pairs, assignment):
                continue
            index, _, neg_or = _walk(inc[1:], neg)  # vertex 0 pinned
            lsum = k - index
            if neg_or != (1 << bit) - 1 or not sum(low) <= lsum <= room:
                continue
            for loops in itertools.product(
                    *(range(lo, b.max_negative_loops_per_vertex + 1)
                      for lo in low)):
                if sum(loops) == lsum:
                    hits.append((n, loops, assignment))
    hits.sort()
    return hits


def enumerate_critical(b: EnumBounds, k: int,
                       irreducible_only: bool = False,
                       non_decomposable_only: bool = False) -> tuple:
    """All critically k-frustrated classes within bounds.

    irreducible_only additionally drops proper subdivisions;
    non_decomposable_only drops decomposable graphs.
    """
    b.check()
    from .core import from_canonical_form
    from .structure import is_decomposable, is_irreducible

    seen = set()
    out = []
    for n, loops, assignment in _raw_critical_hits(b, k):
        g = _raw_to_graph(n, loops, _pair_list(n), assignment)
        if irreducible_only and not is_irreducible(g):
            continue
        if non_decomposable_only and is_decomposable(g, k):
            continue
        key = canonical_form(g)
        if key in seen:
            continue
        seen.add(key)
        out.append(from_canonical_form(key))
    return tuple(out)
