"""Cycle enumeration and negative-cycle covering/packing.

All cycles here are simple: loops (length 1), parallel pairs (length 2)
and longer vertex-disjoint circuits.  Enumeration is one DFS, `_walks`,
from each cycle's least vertex through later vertices only, which walks
each cycle once, in its lex-smaller direction, with a hard cap that
counts every cycle.  That direction fixes the first edge below the
closing one, so a walk keeps going only while some vertex it may close
at, a later neighbour of the start across a higher edge, is off its
path.  The minimum cover, the maximum packing and the double cover are
one exact search, `_least_family`, for the lexicographically least
family of options (edges or cycles, as bitmasks) that hits every item
(cycles or edges) between a lower and an upper number of times; each
returns that search's deterministic, lex-least witness, read off one
table, `_cycle_table`: the negative cycles as plain (edge ids, vertex
sequence) walks in one order, by sorted edge ids, their edge masks and
the cycles through each edge.  Only the members a caller returns become
Cycle values.  A node picks only among its live options, a mask over
option indices: those from its start on that hit no item already at the
upper bound, and for the double cover only those through the lowest
item still short.  Only the double cover may pick an option again, as
a lone negative loop needs: its child starts at the pick, and the bound
of two hits per edge stops a third.  A pick must also fit the length
window that the count bounds leave its child.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from . import guards
from .core import NEG, Cycle, SignedGraph, cycle_sign
from .errors import CycleCapExceeded, PreconditionError


def enumerate_cycles(g: SignedGraph, negative_only: bool = False) -> tuple:
    """All simple cycles of g (only the negative ones with negative_only),
    as Cycle values sorted by (length, edge-id tuple): `_walks`' cycles.
    Raises CycleCapExceeded once more than guards.CYCLE_CAP cycles exist,
    positive ones counted too, unless the guard override is active.
    """
    walks = _walks(g, negative_only)
    walks.sort(key=lambda walk: (len(walk[0]), walk[0]))
    return tuple(Cycle(ids, vs) for ids, vs in walks)


def _walks(g: SignedGraph, negative_only: bool) -> list:
    """Every simple cycle of g (only the negative ones with negative_only)
    once, unsorted, as an (edge ids, vertex sequence) pair.

    A DFS walks each cycle from its least vertex s, through later vertices
    only, in one direction: the one whose first edge e is below its
    closing edge, which gives the lex-smaller edge-id tuple of the two (a
    parallel pair comes out sorted).  So the walk can close only at a
    later vertex joined to s by an edge above e, its targets (a vertex
    bitmask): a first edge without targets is skipped, and a node whose
    path already holds every target takes no further step.  The path's
    vertex set is a bitmask too, and the walk carries the parity of its
    negative edges.  Every cycle is counted toward guards.CYCLE_CAP, past
    which CycleCapExceeded is raised unless the guard override is active.
    """
    limit = guards.CYCLE_CAP
    neg = g.negative_mask
    index = g.vindex
    # per vertex index: (edge id, other end, its index, negative bit)
    adj = [[(eid, o, index[o], neg >> eid & 1) for eid in g.incidence[v]
            for o in (g.edges[eid].other(v),)] for v in g.vertices]
    path_v, path_e, out = [], [], []
    count = 0

    def dfs(i, s, first, targets, seen, odd):
        nonlocal count
        step = targets & ~seen  # some target is still off the path
        for eid, o, j, bit in adj[i]:
            if j == s:  # a closing edge, or a loop at s on the empty path
                if eid > first:
                    count += 1
                    if count > limit and not guards.override_active():
                        raise CycleCapExceeded(f"more than {limit} cycles; "
                                               "raise the cap or override")
                    if odd ^ bit or not negative_only:
                        out.append((tuple(path_e) + (eid,),
                                    tuple(path_v) + (o,)))
            elif step and not seen >> j & 1:
                path_v.append(o)
                path_e.append(eid)
                dfs(j, s, first, targets, seen | 1 << j, odd ^ bit)
                path_e.pop()
                path_v.pop()

    try:  # one level per path step
        for s, start in enumerate(g.vertices):
            below = (2 << s) - 1  # s and the vertices before it
            path_v.append(start)
            dfs(s, s, -1, 0, below, 0)  # no targets: only loops at s close
            later = 0  # the later ends of the edges at s above the current
            for eid, o, j, bit in sorted(adj[s], reverse=True):
                if j > s:
                    if later:
                        path_v.append(o)
                        path_e.append(eid)
                        dfs(j, s, eid, later, below | 1 << j, bit)
                        path_e.pop()
                        path_v.pop()
                    later |= 1 << j
            path_v.pop()
    except RecursionError:
        raise guards._too_deep("cycle search") from None
    del dfs  # a self-referencing closure: free its state now, not at gc
    return out


def negative_cycles(g: SignedGraph) -> tuple:
    return enumerate_cycles(g, negative_only=True)


# -- the family search behind cover, packing and double cover ----------------


def _least_family(options: list, universe: int, size: int, lo: int,
                  hi: Optional[int],
                  hitters: Optional[list]) -> Optional[tuple]:
    """The lex-least ascending tuple of `size` indices into options such
    that every item of universe is hit by between lo and hi of the chosen
    options (0 <= lo <= 2, hi 1, 2 or None for no upper bound), or None
    if there is none.  An index may repeat only when hi == 2, and at
    most twice then: a third pick would overfill its items.

    Options and universe are int bitmasks of items, every option
    non-empty (checked) and within the universe; hitters[item] masks the
    options that hit the item, read only when hi is set (the cover
    passes None).  The search tries the indices in ascending order, so
    the first family found is the lex-least.  A branch ends when an item
    still short of lo is hit by no option from here on, or when the
    picks left cannot supply the missing hits or cannot fit under hi;
    failed states are remembered.  A node's candidates are the indices
    from its start on minus `dead`, the OR of hitters over the items at
    hi, whose length lies between the count bounds applied to the child:
    they only tighten further down.

    When lo == hi the options must come sorted by lowest item (checked).
    Then every item below the lowest short item e0 is full, so a live
    option through e0 starts at e0: the candidates are e0's block,
    `hitters[e0] & ~dead`, and the failure memo keys the state by the
    block's start.
    """
    n = len(options)
    beyond = [0] * (n + 1)  # beyond[i]: the items options[i:] hit
    for i in range(n - 1, -1, -1):
        beyond[i] = beyond[i + 1] | options[i]
    lengths = [o.bit_count() for o in options]
    longest, shortest = max(lengths, default=0), min(lengths, default=0)
    u = universe.bit_count()
    deep = 2 in (lo, hi)  # whether "hit twice" must be tracked
    lows = [o & -o for o in options]  # each option's lowest item, as a bit
    if n and not shortest:
        raise PreconditionError("an empty option")
    block = lo == hi
    if block and lows != sorted(lows):
        raise PreconditionError("options not sorted by lowest item")
    every = (1 << n) - 1
    failed = set()

    def step(start, left, once, twice, dead, picked):
        # hits[t]: the hits so far, each item counted at most t times
        o = once.bit_count()
        hits = (0, o, o + twice.bit_count())
        if left * longest < lo * u - hits[lo]:
            return None
        if hi is not None and left * shortest > hi * u - hits[hi]:
            return None
        if not left:
            return ()
        short = universe & ~(universe, once, twice)[lo]  # items below lo
        if block:  # skip to the lowest short item's block
            first = bisect_left(lows, short & -short)
            start = max(start, first)
        key = (start, left, once, twice)
        if key in failed:
            return None
        if hi:
            full = (once, twice)[hi - 1] & picked  # the items just filled
            while full:
                bit = full & -full
                dead |= hitters[bit.bit_length() - 1]
                full ^= bit
        live = every >> start << start & ~dead
        if block and short:
            live &= hitters[(short & -short).bit_length() - 1]
        top = hi * u - hits[hi] - (left - 1) * shortest if hi else longest
        bottom = lo * u - hits[lo] - (left - 1) * longest
        while live:
            bit = live & -live
            live ^= bit
            j = bit.bit_length() - 1
            if short & ~beyond[j] or (n - j) * (hi or 1) < left:
                break
            if not bottom <= lengths[j] <= top:
                continue
            opt = options[j]
            found = step(j if hi == 2 else j + 1, left - 1, once | opt,
                         twice | once & opt if deep else 0, dead, opt)
            if found is not None:
                return (j,) + found
        failed.add(key)
        return None

    try:  # one level per pick
        found = step(0, size, 0, 0, 0, 0)
    except RecursionError:
        raise guards._too_deep("cycle family search") from None
    del step  # a self-referencing closure: free its memo now, not at gc
    return found


def _cycle_table(g: SignedGraph) -> tuple:
    """The negative cycles of g as `_walks` pairs, by sorted edge-id tuple
    (the order in which packings and double covers are lex-least; the
    cover and the decomposition search do not depend on it); their edge
    masks; and through[e], the mask over cycle indices of the cycles
    through edge e."""
    walks = _walks(g, True)
    walks.sort(key=lambda walk: sorted(walk[0]))
    masks, through = [], [0] * g.m
    for i, (ids, _) in enumerate(walks):
        bit, mask = 1 << i, 0
        for e in ids:
            mask |= 1 << e
            through[e] |= bit
        masks.append(mask)
    return walks, masks, through


def min_negative_cycle_cover(g: SignedGraph) -> tuple:
    """Smallest edge set meeting every negative cycle, lex-least witness.

    Returns a sorted tuple of edge ids: the family search over the edges
    on negative cycles, each hitting the cycles through it, at ascending
    sizes until one covers every cycle once.  By the switching
    characterization this has the same size as the frustration index;
    the two are cross-checked in the oracle tests, not here.
    """
    walks, _, through = _cycle_table(g)
    pool = [e for e in range(g.m) if through[e]]
    options = [through[e] for e in pool]
    universe = (1 << len(walks)) - 1
    for size in range(len(pool) + 1):  # the whole pool is a cover
        found = _least_family(options, universe, size, 1, None, None)
        if found is not None:
            return tuple(pool[i] for i in found)


def max_edge_disjoint_negative_cycles(g: SignedGraph,
                                      stop_at: int = None) -> tuple:
    """Largest family of pairwise edge-disjoint negative cycles.

    Returns a tuple of Cycle values, lexicographically least at the
    maximum size (cycles compared by sorted edge-id tuple): the family
    search over the negative cycles, each edge hit at most once, at
    ascending sizes until none exists.  With stop_at, the search ends as
    soon as that many disjoint cycles are found, and the returned family
    is the lex-least with exactly stop_at members.
    """
    walks, masks, through = _cycle_table(g)
    family = ()
    while len(family) != stop_at:
        found = _least_family(masks, (1 << g.m) - 1, len(family) + 1,
                              0, 1, through)
        if found is None:
            break
        family = found
    return tuple(Cycle(*walks[i]) for i in family)


def packing_number(g: SignedGraph) -> int:
    return len(max_edge_disjoint_negative_cycles(g))


def has_two_edge_disjoint_negative_cycles(g: SignedGraph) -> bool:
    return len(max_edge_disjoint_negative_cycles(g, stop_at=2)) >= 2


def negative_cycle_double_cover(g: SignedGraph, k: int) -> Optional[tuple]:
    """A family of exactly 2k negative cycles covering every edge twice.

    Cycles may repeat, at most twice each (a single negative loop needs
    the loop cycle taken twice).  Returns the family as a tuple of Cycle
    values, lexicographically least (cycles compared by sorted edge-id
    tuple), or None if no such cover exists: the family search over the
    negative cycles with every edge of g hit exactly twice, so an edge on
    no negative cycle gives None.  k must be >= 0 but need not be the
    frustration index ℓ.  None exists for k > ℓ: every negative cycle
    meets a minimum signature N an odd number of times and every edge of
    N lies in two members, so 2k <= 2ℓ.  So a family found at k = ℓ
    certifies the index from below.
    """
    if k < 0:
        raise PreconditionError(f"k={k} is negative")
    walks, masks, through = _cycle_table(g)
    found = _least_family(masks, (1 << g.m) - 1, 2 * k, 2, 2, through)
    return None if found is None else tuple(Cycle(*walks[i]) for i in found)


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
    incidence histogram (every member a negative cycle of g)."""
    return {"cycles": [sorted(c.edge_ids) for c in cs],
            "edge_incidence": {str(eid): n for eid, n in
                               enumerate(_edge_counts(g, cs))}}
