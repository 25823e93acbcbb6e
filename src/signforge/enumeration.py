"""Exhaustive generation of small signed multigraphs up to switching
isomorphism.

Raw candidates are assignments of (multiplicity, negative count) to each
vertex pair plus a negative-loop count per vertex.  Positive loops are
excluded (they affect nothing studied here), as are isolated vertices, so
vertex count is a class invariant.  One stream, `_raw_candidates`, yields
them in (n, pair assignment, loops) order, with only the switching-least
pair assignments, which no switching makes lexicographically smaller
(`_assignments`).  A switching keeps n, the multiplicities, the loops and
every filter below, so the first candidate of each class in a stream
over every signing is switching-least: the classes, their order and
their representatives are the same.  Each pair assignment becomes
edge bitmasks once (one bit run per bundle, per-vertex incidence masks);
a vertex whose pair edges give it degree below 1 needs a loop, and so
does one of degree below 2 when only critical candidates are wanted (a
critical graph has minimum degree 2: a pendant edge is in no cycle), and
connectivity is read off the same masks.  No multiplicity or loop count
above the edges left is tried, so bounds past `max_edges` cost nothing.

With a k, the stream keeps only the critically k-frustrated candidates,
through the switching kernel of `frustration`: each pair assignment is
scanned once by `_walk`, whatever its loops.  Deleting a pair edge lowers
the index exactly when the edge is negative in some minimum switching
(the OR of its minimizers' negative-edge masks, as `_walk` returns
them), and deleting a negative loop always does, so an assignment gives
critical candidates only when that OR covers every pair edge, and then
exactly those whose loops number k minus its index.

One class loop sits behind both enumerations: candidates that pass the
filters go through a canonical-form filter (`core.canonical_form`, an
individualization-refinement search) and the first member of each
switching-isomorphism class wins.  The representative is rebuilt from its
key, so its vertex labels follow that search, while the classes and their
order follow the first raw candidate of each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import guards
from .core import (NEG, POS, SignedGraph, _mask_components, build_graph,
                   canonical_form, from_canonical_form)
from .errors import PreconditionError
from .frustration import _walk
from .structure import is_decomposable, is_irreducible


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
            raise PreconditionError("bounds must be non-negative")
        guards.check(self.max_vertices, guards.ENUM_MAX_VERTICES,
                     "enumeration (vertices)")
        guards.check(self.max_edges, guards.ENUM_MAX_EDGES,
                     "enumeration (edges)")


# raw candidate: (n, loops, assignment) with loops a tuple of per-vertex
# negative loop counts and assignment a tuple of (mult, neg) per pair of
# _pair_list(n)

def _pair_list(n: int) -> tuple:
    return tuple(itertools.combinations(range(n), 2))


def _assignments(pairs: tuple, pair_opts: list, budget: int, acc: list,
                 used: int, comp: tuple) -> Iterator[tuple]:
    """(assignment, edges used) for every switching-least way to give the
    pairs after acc a (mult, neg) of pair_opts, within budget edges in
    all, in lexicographic order.

    comp labels the vertices by component of the pairs placed so far that
    a switching changes (2·neg != mult).  A pair with 2·neg > mult across
    two components is skipped: switching one of them flips this pair
    first and gives a smaller assignment.  Any other pair is taken, and
    an asymmetric one joins its ends' components.  So an assignment comes
    out iff no switching makes it smaller.
    """
    if len(acc) == len(pairs):
        yield tuple(acc), used
        return
    u, v = pairs[len(acc)]
    cu, cv = comp[u], comp[v]
    for mult, neg in pair_opts:
        if used + mult > budget or 2 * neg > mult and cu != cv:
            continue
        acc.append((mult, neg))
        yield from _assignments(
            pairs, pair_opts, budget, acc, used + mult,
            comp if 2 * neg == mult or cu == cv
            else tuple(cu if c == cv else c for c in comp))
        acc.pop()


def _raw_candidates(b: EnumBounds, k: Optional[int] = None) -> Iterator[tuple]:
    """All raw candidates within bounds, no isolated vertices, in
    (n, assignment, loops) order; with k, only the critically k-frustrated
    ones (see the module docstring)."""
    need = 1 if k is None else 2  # least degree a vertex needs
    pair_opts = [(m, neg) for m in range(min(b.max_multiplicity_per_pair,
                                             b.max_edges) + 1)
                 for neg in range(m + 1)]
    for n in range(1, b.max_vertices + 1):
        pairs = _pair_list(n)
        for assignment, used in _assignments(pairs, pair_opts, b.max_edges,
                                             [], 0, tuple(range(n))):
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
            # a loop adds 2 to the degree; the pair edges at v are inc[v]
            low = [int(mask.bit_count() < need) for mask in inc]
            room = b.max_edges - used
            if sum(low) > (room if k is None else min(k, room)) or \
                    b.connected_only and len(_mask_components(inc)) > 1:
                continue
            least, most = 0, room  # bounds on the loop total
            if k is not None:
                index, _, negs = _walk(inc[1:], neg)  # vertex 0 pinned
                least = most = k - index
                lowered = 0  # the edges negative in some minimum switching
                for mask in negs:
                    lowered |= mask
                if lowered != (1 << bit) - 1 or not sum(low) <= most <= room:
                    continue
            top = min(b.max_negative_loops_per_vertex, most)
            for loops in itertools.product(*(range(lo, top + 1)
                                             for lo in low)):
                if least <= sum(loops) <= most:
                    yield n, loops, assignment


def _raw_to_graph(n: int, loops: tuple, pairs: tuple,
                  assignment: tuple) -> SignedGraph:
    edge_list = []
    for v, cnt in enumerate(loops):
        edge_list += [(v, v, NEG)] * cnt
    for (u, v), (mult, nneg) in zip(pairs, assignment):
        edge_list += [(u, v, NEG)] * nneg
        edge_list += [(u, v, POS)] * (mult - nneg)
    return build_graph(edge_list, isolated=range(n))


def _classes(candidates: Iterator[tuple],
             keep: Callable = lambda g: True) -> Iterator[SignedGraph]:
    """The class loop: one representative per switching-isomorphism class
    of the candidates that keep accepts, first member wins, rebuilt from
    its canonical key."""
    seen = set()
    for n, loops, assignment in candidates:
        g = _raw_to_graph(n, loops, _pair_list(n), assignment)
        if not keep(g):
            continue
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            yield from_canonical_form(key)


def enumerate_signed_graphs(b: EnumBounds) -> Iterator[SignedGraph]:
    """One representative per switching-isomorphism class within bounds.

    Deterministic: candidates stream in (n, pair assignment, loops) order,
    first class member wins, and the emitted value is rebuilt from its
    canonical key.
    """
    b.check()
    yield from _classes(_raw_candidates(b))


def enumerate_critical(b: EnumBounds, k: int,
                       irreducible_only: bool = False,
                       non_decomposable_only: bool = False) -> tuple:
    """All critically k-frustrated classes within bounds.

    irreducible_only additionally drops proper subdivisions;
    non_decomposable_only drops decomposable graphs.  Classes come in the
    order of their first raw candidate, (n, pair assignment, loops).
    """
    if k < 0:
        raise PreconditionError("k must be non-negative")
    b.check()

    def keep(g: SignedGraph) -> bool:
        return (not irreducible_only or is_irreducible(g)) and \
            (not non_decomposable_only or not is_decomposable(g, k))

    return tuple(_classes(_raw_candidates(b, k), keep))
