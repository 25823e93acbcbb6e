"""Size guards for the exhaustive searches.

The exact searches check explicit size bounds, except two (ROADMAP item
5): the K4- enumeration, `structure.k4_minus_subdivision_edge_sets`,
whose search also draws the decomposition search's index-2 parts, and
`cycles.negative_cycle_double_cover`, which has only the cycle cap (the
switching guard never bounded it).  Setting SIGNFORGE_GUARD_OVERRIDE=1 in
the environment unlocks all guards (a warning is emitted once per process).
The recursive searches (the cycle walk, the family search, the
decomposition recursion and the K4- path search) also refuse an input
that runs past the interpreter's recursion limit, which no override
lifts.
"""

import os
import sys

from .errors import GuardExceeded

# Defaults, tuned to the catalog scale.
SWITCH_SEARCH_MAX_VERTICES = 24
ISO_SEARCH_MAX_VERTICES = 12
CANONICAL_FORM_MAX_VERTICES = 7
CYCLE_CAP = 100_000
QUADRUPLE_SEARCH_MAX_VERTICES = 13
QUADRUPLE_SEARCH_MAX_EDGES = 24
# edges searched for decomposition parts of index >= 3; only a budget of
# 5 or more reaches that subset search
PARTITION_SEARCH_MAX_EDGES = 20
ENUM_MAX_VERTICES = 5
ENUM_MAX_EDGES = 10

_warned = False


def override_active() -> bool:
    return os.environ.get("SIGNFORGE_GUARD_OVERRIDE", "") == "1"


def check(value: int, limit: int, what: str) -> None:
    """Raise GuardExceeded when value exceeds limit, unless overridden."""
    global _warned
    if value <= limit:
        return
    if override_active():
        if not _warned:
            print(
                "signforge: size guards overridden via SIGNFORGE_GUARD_OVERRIDE=1; "
                "expect long runtimes",
                file=sys.stderr,
            )
            _warned = True
        return
    raise GuardExceeded(
        f"{what}: {value} exceeds guard {limit} "
        "(set SIGNFORGE_GUARD_OVERRIDE=1 to force)"
    )


def _too_deep(what: str) -> GuardExceeded:
    """The refusal of a recursive search that raised RecursionError: it ran
    deeper than the interpreter's recursion limit, which no override
    lifts."""
    return GuardExceeded(
        f"{what}: deeper than the recursion limit "
        f"{sys.getrecursionlimit()} (SIGNFORGE_GUARD_OVERRIDE=1 "
        "cannot lift it)")
