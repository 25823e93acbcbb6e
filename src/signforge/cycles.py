"""Cycle enumeration and negative-cycle covering/packing.

All cycles here are simple: loops (length 1), parallel pairs (length 2)
and longer vertex-disjoint circuits.  Enumeration is DFS from each start
vertex using only later vertices, deduplicated by edge set, with a hard
cap.  Cover and packing are exact branch-and-bound searches returning
deterministic, lexicographically least witnesses.
"""

from __future__ import annotations

from typing import Optional

from . import guards
from .core import NEG, Cycle, SignedGraph, cycle_sign
from .errors import CycleCapExceeded, PreconditionError


def _canonical_cycle(g: SignedGraph, eids: tuple, vseq: tuple) -> Cycle:
    """Fix the traversal direction: keep the lex-smaller edge-id tuple."""
    k = len(eids)
    if k <= 2:
        return Cycle(tuple(sorted(eids)), vseq if k == 1 else vseq)
    rev_e = tuple(reversed(eids))
    if rev_e < eids:
        return Cycle(rev_e, tuple(reversed(vseq)))
    return Cycle(eids, vseq)


def enumerate_cycles(g: SignedGraph, cap: int = None,
                     negative_only: bool = False) -> tuple:
    """All simple cycles of g, sorted by (length, edge-id tuple).

    Raises CycleCapExceeded past the cap (default guards.CYCLE_CAP),
    unless the guard override is active.
    """
    if negative_only:
        return _negative(g, enumerate_cycles(g, cap))
    limit = guards.CYCLE_CAP if cap is None else cap
    order = {v: i for i, v in enumerate(g.vertices)}
    seen = set()
    out = []

    def emit(eids, vseq):
        key = frozenset(eids)
        if key in seen:
            return
        seen.add(key)
        out.append(_canonical_cycle(g, tuple(eids), tuple(vseq)))
        if len(out) > limit and not guards.override_active():
            raise CycleCapExceeded(
                f"more than {limit} cycles; raise the cap or override")

    for eid in sorted(g.loop_edge_ids):
        e = g.edges[eid]
        emit((eid,), (e.u, e.u))

    for start in g.vertices:
        s = order[start]
        # path state: vertex sequence and edge-id sequence from start
        path_v = [start]
        path_e = []
        on_path = {start}

        def dfs(v):
            for eid in g.incidence[v]:
                e = g.edges[eid]
                if e.is_loop or eid in path_e:
                    continue
                o = e.other(v)
                if o == start and len(path_e) >= 1:
                    emit(path_e + [eid], path_v + [start])
                    continue
                if o in on_path or order[o] <= s:
                    continue
                path_v.append(o)
                path_e.append(eid)
                on_path.add(o)
                dfs(o)
                on_path.discard(o)
                path_e.pop()
                path_v.pop()

        dfs(start)

    out.sort(key=lambda c: (len(c), c.edge_ids))
    return tuple(out)


def _negative(g: SignedGraph, cycles: tuple) -> tuple:
    """The negative members of cycles the enumerator built (so already
    valid): those with an odd number of edges in g's negative mask."""
    neg = g.negative_mask
    return tuple(c for c in cycles
                 if sum(neg >> eid & 1 for eid in c.edge_ids) & 1)


def negative_cycles(g: SignedGraph, cap: int = None) -> tuple:
    return _negative(g, enumerate_cycles(g, cap))


# -- minimum negative-cycle cover ----------------------------------------------


def min_negative_cycle_cover(g: SignedGraph, cap: int = None
                             ) -> tuple:
    """Smallest edge set meeting every negative cycle, lex-least witness.

    Returns a sorted tuple of edge ids.  By the switching characterization
    this has the same size as the frustration index; the two are
    cross-checked in the oracle tests, not here.
    """
    cycles = [c.edge_set for c in negative_cycles(g, cap)]
    if not cycles:
        return ()

    # phase 1: optimal size by branching on an uncovered cycle's edges
    best = len(frozenset().union(*cycles))

    def covered(chosen: set) -> Optional[frozenset]:
        for cyc in cycles:
            if not (cyc & chosen):
                return cyc
        return None

    def search(chosen: set, bound: int) -> Optional[int]:
        nonlocal best
        miss = covered(chosen)
        if miss is None:
            if len(chosen) < best:
                best = len(chosen)
            return
        if len(chosen) + 1 >= best:
            return
        for eid in sorted(miss):
            chosen.add(eid)
            search(chosen, bound)
            chosen.discard(eid)

    search(set(), best)

    # phase 2: lex-least witness of the optimal size, ascending combinations
    edge_pool = sorted(frozenset().union(*cycles))

    def lex_search(prefix: list, start: int) -> Optional[tuple]:
        if covered(set(prefix)) is None:
            return tuple(prefix) if len(prefix) == best else None
        if len(prefix) == best:
            return None
        for i in range(start, len(edge_pool)):
            # enough edges left to reach the target size?
            if len(edge_pool) - i < best - len(prefix):
                break
            prefix.append(edge_pool[i])
            found = lex_search(prefix, i + 1)
            if found is not None:
                return found
            prefix.pop()
        return None

    witness = lex_search([], 0)
    assert witness is not None
    return witness


# -- maximum edge-disjoint negative-cycle packing --------------------------------


def max_edge_disjoint_negative_cycles(g: SignedGraph, cap: int = None,
                                      stop_at: int = None) -> tuple:
    """Largest family of pairwise edge-disjoint negative cycles.

    Returns a tuple of Cycle values, lexicographically least at the
    maximum size (cycles compared by sorted edge-id tuple).  With stop_at,
    the search ends as soon as that many disjoint cycles are known to
    exist — the returned family then has exactly stop_at members.
    """
    cycles = sorted(negative_cycles(g, cap),
                    key=lambda c: tuple(sorted(c.edge_ids)))
    if not cycles:
        return ()
    sets = [c.edge_set for c in cycles]
    nmax = len(cycles)
    shortest = min(len(s) for s in sets)

    best = 0
    # iterative take/skip over cycle indices; bound by how many more
    # disjoint cycles could still fit in the untouched edges
    stack = [(0, frozenset(), 0)]
    while stack:
        i, used, count = stack.pop()
        if count > best:
            best = count
            if stop_at is not None and best >= stop_at:
                best = stop_at
                break
        if i == nmax:
            continue
        room = (g.m - len(used)) // shortest
        if count + min(nmax - i, room) <= best:
            continue
        stack.append((i + 1, used, count))
        if not (sets[i] & used):
            stack.append((i + 1, used | sets[i], count + 1))

    # retrieve the lex-least packing attaining best
    def pick(i: int, used: frozenset, chosen: list) -> Optional[tuple]:
        if len(chosen) == best:
            return tuple(chosen)
        if nmax - i < best - len(chosen):
            return None
        for j in range(i, nmax):
            if sets[j] & used:
                continue
            chosen.append(cycles[j])
            found = pick(j + 1, used | sets[j], chosen)
            if found is not None:
                return found
            chosen.pop()
        return None

    witness = pick(0, frozenset(), [])
    assert witness is not None
    return witness


def packing_number(g: SignedGraph, cap: int = None) -> int:
    return len(max_edge_disjoint_negative_cycles(g, cap))


def has_two_edge_disjoint_negative_cycles(g: SignedGraph,
                                          cap: int = None) -> bool:
    return len(max_edge_disjoint_negative_cycles(g, cap, stop_at=2)) >= 2


# -- negative-cycle double covers -------------------------------------------------


def negative_cycle_double_cover(g: SignedGraph, k: int, cap: int = None,
                                distinct_only: bool = False
                                ) -> Optional[tuple]:
    """A family of exactly 2k negative cycles covering every edge twice.

    Cycles may repeat, at most twice each (a single negative loop needs
    the loop cycle taken twice); distinct_only forbids repetition.
    Returns the family as a tuple of Cycle values or None if no such
    cover exists.  Exact cover search branching on the lowest edge with
    unmet demand.  Requires k to be the frustration index of g.
    """
    from .frustration import frustration_index
    if frustration_index(g).index != k:
        raise PreconditionError(
            f"k={k} is not the frustration index of the graph")
    cycles = sorted(negative_cycles(g, cap),
                    key=lambda c: tuple(sorted(c.edge_ids)))
    if not cycles:
        return None
    multiplicity_cap = 1 if distinct_only else 2
    sets = [c.edge_set for c in cycles]
    by_edge = {e.eid: [] for e in g.edges}
    for i, s in enumerate(sets):
        for eid in s:
            by_edge[eid].append(i)

    demand = {e.eid: 2 for e in g.edges}
    chosen: list = []
    counts = [0] * len(cycles)
    longest = max(len(s) for s in sets)
    shortest = min(len(s) for s in sets)
    dead: set = set()  # (demand snapshot, picks left, floor) with no solution

    def step(floor: int) -> Optional[tuple]:
        remaining = sum(demand.values())
        picks_left = 2 * k - len(chosen)
        if remaining == 0:
            return tuple(cycles[i] for i in chosen) if picks_left == 0 else None
        if picks_left == 0 or not (picks_left * shortest <= remaining
                                   <= picks_left * longest):
            return None
        memo_key = (tuple(sorted(demand.items())), picks_left, floor)
        if memo_key in dead:
            return None
        # branch on the lowest edge with unmet demand; it stays the branch
        # edge until its demand is exhausted, so a per-edge index floor
        # dedupes the (at most two) cycles chosen to cover it
        eid = min(e for e, d in demand.items() if d > 0)
        for i in by_edge[eid]:
            if i < floor or counts[i] >= multiplicity_cap:
                continue
            if any(demand[x] == 0 for x in sets[i]):
                continue
            for x in sets[i]:
                demand[x] -= 1
            counts[i] += 1
            chosen.append(i)
            found = step(i if demand[eid] > 0 else 0)
            if found is not None:
                return found
            chosen.pop()
            counts[i] -= 1
            for x in sets[i]:
                demand[x] += 1
        dead.add(memo_key)
        return None

    return step(0)


def _edge_counts(g: SignedGraph, cs) -> list:
    """How many cycles of cs contain each edge of g, by edge id; every
    member must be a negative cycle of g (positive cycles raise)."""
    counts = [0] * g.m
    for c in cs:
        if cycle_sign(g, c) != NEG:
            raise PreconditionError("cover contains a positive cycle")
        for eid in c.edge_ids:
            counts[eid] += 1
    return counts


def is_leq2_cover(g: SignedGraph, cs) -> bool:
    """True iff every edge of g lies in at most two cycles of cs.

    Every member must be a negative cycle of g; positive cycles or
    non-cycles raise.
    """
    return all(v <= 2 for v in _edge_counts(g, cs))


def is_double_cover(g: SignedGraph, cs) -> bool:
    """True iff every edge of g lies in exactly two cycles of cs (all
    members negative cycles of g)."""
    return all(v == 2 for v in _edge_counts(g, cs))


def cycleset_to_json(g: SignedGraph, cs) -> dict:
    """CycleSet JSON: the cycles as edge-id lists plus the per-edge
    incidence histogram."""
    hist = {e.eid: 0 for e in g.edges}
    for c in cs:
        for eid in c.edge_ids:
            hist[eid] += 1
    return {"cycles": [sorted(c.edge_ids) for c in cs],
            "edge_incidence": {str(eid): n for eid, n in sorted(hist.items())}}
