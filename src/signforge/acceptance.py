"""The acceptance suite: twelve exact checks reproducing the classification
results and structural claims at desk scale.

Each criterion is a function returning a CriterionResult; run_all executes
them in order.  The CLI `reproduce` subcommand prints the table, and
tests/test_acceptance.py asserts each row.  Everything is deterministic:
randomized criteria use fixed seeds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import catalog
from .constructions import ghat, ghat_planar, h_join
from .core import (NEG, POS, Cycle, SignedGraph, build_graph, canonical_form,
                   cut, cycle_sign, switch)
from .criticality import _certificates, certify, is_critical
from .cycles import (is_double_cover, max_edge_disjoint_negative_cycles,
                     negative_cycle_double_cover, negative_cycles)
from .enumeration import EnumBounds, enumerate_critical
from .errors import EmbeddingError
from .frustration import (frustration_by_cover, frustration_index,
                          minimum_signature_switch)
from .planar import dart_vertex, faces
from .structure import (check_packing_equality, is_decomposable,
                        is_irreducible, subdivide)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def random_signed_graph(rng: random.Random, max_n: int,
                        max_m: int) -> SignedGraph:
    """A random signed multigraph without isolated vertices."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        sign = NEG if rng.random() < 0.5 else POS
        if u == v and sign == POS:
            sign = NEG  # positive loops are inert; keep instances meaningful
        edges.append((u, v, sign))
    used = {u for u, v, _ in edges} | {v for _, v, _ in edges}
    remap = {v: i for i, v in enumerate(sorted(used))}
    return build_graph([(remap[u], remap[v], s) for u, v, s in edges])


# ---------------------------------------------------------------- criteria

def crit_1_catalog_indices() -> tuple:
    expected = {"k4-minus-all": 2, "c-minus-1": 1,
                "s3-projective": 3, "s3-petersen": 3}
    expected.update({n: 3 for n in catalog.entries_with_tag("P3*")})
    expected.update({f"ladder-{t}": 3 for t in range(5)})
    bad = []
    for name, want in sorted(expected.items()):
        got = frustration_index(catalog.get(name).graph).index
        if got != want:
            bad.append(f"{name}: {got} != {want}")
    return not bad, "; ".join(bad) or f"{len(expected)} values exact"


def crit_2_dual_oracle() -> tuple:
    bad = []
    for name in catalog.names():
        g = catalog.get(name).graph
        if frustration_index(g).index != frustration_by_cover(g):
            bad.append(name)
    rng = random.Random(20260901)
    for i in range(500):
        g = random_signed_graph(rng, 7, 14)
        if frustration_index(g).index != frustration_by_cover(g):
            bad.append(f"random#{i}")
    return not bad, "; ".join(bad) or "catalog + 500 random agree"


def crit_3_three_methods() -> tuple:
    bad = []
    for name in catalog.names():
        g = catalog.get(name).graph
        votes = {c.method: c.critical for c in _certificates(g)}
        if len(set(votes.values())) != 1:
            bad.append(f"{name}: {votes}")
    rng = random.Random(20260902)
    for i in range(200):
        g = random_signed_graph(rng, 6, 10)
        votes = {c.method: c.critical for c in _certificates(g)}
        if len(set(votes.values())) != 1:
            bad.append(f"random#{i}: {votes}")
    return not bad, "; ".join(bad) or "catalog + 200 random agree"


def crit_4_small_classifications() -> tuple:
    b1 = EnumBounds(max_vertices=3, max_multiplicity_per_pair=2,
                    max_negative_loops_per_vertex=2, max_edges=6)
    got1 = {canonical_form(g) for g in enumerate_critical(b1, 1, True)}
    want1 = {canonical_form(catalog.get("c-minus-1").graph)}

    b2 = EnumBounds(max_vertices=4, max_multiplicity_per_pair=2,
                    max_negative_loops_per_vertex=2, max_edges=8)
    got2 = {canonical_form(g) for g in enumerate_critical(b2, 2, True)}
    want2 = {canonical_form(catalog.get(n).graph)
             for n in catalog.entries_with_tag("L2")}
    got2star = {canonical_form(g)
                for g in enumerate_critical(b2, 2, True, True)}
    want2star = {canonical_form(catalog.get(n).graph)
                 for n in catalog.entries_with_tag("L2*")}
    ok = got1 == want1 and got2 == want2 and got2star == want2star
    return ok, (f"k=1: {len(got1)} class(es); k=2: {len(got2)}; "
                f"k=2 non-decomposable: {len(got2star)}")


def _verify_tagged(tag: str, count: int, detail: str) -> tuple:
    """Verify the count catalog entries tagged tag; detail on success."""
    names = catalog.entries_with_tag(tag)
    if len(names) != count:
        return False, f"expected {count} flagged entries, found {len(names)}"
    for name in names:
        catalog.verify(name)  # raises on any mismatch
    return True, detail


def crit_5_planar_ten() -> tuple:
    return _verify_tagged("P3*", 10,
                          "all ten verified (index, criticality, faces)")


def crit_6_star_two() -> tuple:
    return _verify_tagged("S3*", 2, "both verified (critical, irreducible, "
                          "non-decomposable, packing 1)")


def crit_7_join() -> tuple:
    members = [("k4-minus-all", 2)]
    members += [(n, 3) for n in catalog.entries_with_tag("P3*")]
    members += [(n, 3) for n in catalog.entries_with_tag("S3*")]
    members += [(n, 3) for n in catalog.entries_with_tag("L3-extra")]

    # each member in its minimum form, with its least negative edge
    forms = {}
    for name, _ in members:
        gmin = minimum_signature_switch(catalog.get(name).graph)
        forms[name] = gmin, min(gmin.negative_edge_ids)

    checked, bad = [], []

    def run(n1, k1, n2, k2):
        k = k1 + k2 - 1
        joined = h_join(*forms[n1], *forms[n2])
        # is_critical(joined, k) fails unless k is the index of joined; at
        # k <= 4 the decomposition search draws only cycle and K4- parts
        # and never reaches the guarded subset search, whatever m is
        ok = (is_critical(joined, k)
              and is_irreducible(joined)
              and not is_decomposable(joined, k))
        (checked if ok else bad).append(f"{n1}x{n2}")

    run("k4-minus-all", 2, "k4-minus-all", 2)
    for name, kk in members[1:]:
        run("k4-minus-all", 2, name, kk)
        run(name, kk, "k4-minus-all", 2)
    # two 3-frustrated members join to k = 5, where non-decomposability
    # needs the subset search for parts of index 3, exponential in m and
    # without a measured budget on these joins, so those pairs are not
    # attempted
    unattempted = (len(members) - 1) ** 2
    detail = (f"{len(checked)} pairs verified; {unattempted} not attempted "
              f"(k = 5 needs the unbudgeted index-3 part search)")
    return not bad, detail if not bad else "; ".join(bad)


def _cycle_split(g: SignedGraph, k: int) -> tuple:
    """k negative cycles that split the edges of g, or (): the lex-least k
    edge-disjoint ones, kept when they hold all m edges.  If g is
    critically k-frustrated, any k such cycles hold every edge: deleting
    one off them would leave all k, so the index would not drop."""
    pack = max_edge_disjoint_negative_cycles(g, k)
    return pack if len(pack) == k and sum(map(len, pack)) == g.m else ()


def crit_8_ladder() -> tuple:
    bad = []
    for t in range(5):
        g = ghat(t)
        if not (is_critical(g, 3) and is_irreducible(g)
                and _cycle_split(g, 3)):
            bad.append(f"ghat({t})")
    for t in range(1, 4):
        g, rot, cuts = ghat_planar(t)
        try:
            faces(g, rot)  # Euler enforced inside
        except EmbeddingError as exc:
            bad.append(f"ghat_planar({t}): {exc}")
            continue
        if not is_critical(g, 3):
            bad.append(f"ghat_planar({t}) not critical")
        if not all(cut(g, side).equilibrated for side in cuts):
            bad.append(f"ghat_planar({t}) witness cut not equilibrated")
    return not bad, "; ".join(bad) or "t=0..4 and planar t=1..3 verified"


def crit_9_packing_equality() -> tuple:
    rng = random.Random(20260909)
    tested = 0
    while tested < 300:
        # a counterexample raises TheoremViolation
        report = check_packing_equality(random_signed_graph(rng, 7, 12))
        if report.subdivision is None:
            tested += 1
    return True, "300 subdivision-free instances equal"


def _double_cover_witness(g: SignedGraph, rot, k: int) -> tuple:
    """(source, family) for a double cover of order 2k: the faces, each
    traced by its own darts, when all 2k are negative cycles; else k
    negative cycles that split the edges (`_cycle_split`) taken twice;
    else the lex-least search's answer (or None)."""
    fs = faces(g, rot)
    fc = [Cycle(f.edge_ids, vs + vs[:1]) for f in fs
          for vs in (tuple(dart_vertex(g, d) for d in f.darts),)
          if len(set(vs)) == len(f) and f.sign(g) == NEG]
    if len(fs) == len(fc) == 2 * k:
        return "facial", fc
    split = _cycle_split(g, k)
    if split:
        return "doubled decomposition", split * 2
    return "searched", negative_cycle_double_cover(g, k)


def crit_10_double_covers() -> tuple:
    bad = []
    for name in catalog.names():
        entry = catalog.get(name)
        if entry.rotation is None:
            continue
        g = entry.graph
        k = frustration_index(g).index
        if k not in (2, 3):
            continue
        source, family = _double_cover_witness(g, entry.rotation, k)
        if family is None:
            bad.append(f"{name}: no double cover of order {2 * k}")
        elif not is_double_cover(g, family):
            bad.append(f"{name}: {source} family rejected")
    return not bad, "; ".join(bad) or "all planar entries covered; facial "\
                                      "witnesses accepted"


def crit_11_degree_bound() -> tuple:
    bad = []
    for name in catalog.names():
        entry = catalog.get(name)
        if not entry.expected.get("critical"):
            continue
        g = entry.graph
        k = entry.expected["ell"]
        delta = g.max_degree()
        if delta > 2 * k:
            bad.append(f"{name}: max degree {delta} > {2 * k}")
        elif delta == 2 * k:
            # equality must mean: k edge-disjoint negative cycles through
            # one common vertex, covering every edge
            v = max(g.vertices, key=g.degree)
            pack = _cycle_split(g, k)
            if not (pack and all(v in c.vertex_seq for c in pack)):
                bad.append(f"{name}: degree-equality structure missing")
    return not bad, "; ".join(bad) or "bound holds on all critical entries"


def crit_12_invariants() -> tuple:
    rng = random.Random(20261212)
    cases = 200
    bad = []
    for i in range(cases):
        g = random_signed_graph(rng, 6, 10)
        sset = frozenset(v for v in g.vertices if rng.random() < 0.4)
        # switching is an involution
        if switch(switch(g, sset), sset) != g:
            bad.append(f"involution#{i}")
        # cycle signs are switching-invariant
        gs = switch(g, sset)
        for c in negative_cycles(g):
            if cycle_sign(gs, c) != NEG:
                bad.append(f"cycle-sign#{i}")
                break
        # negative count shifts by the cut imbalance
        c = cut(g, sset)
        if len(gs.negative_edge_ids) != (len(g.negative_edge_ids)
                                         - c.neg_count + c.pos_count):
            bad.append(f"cut-shift#{i}")
        # deleting one edge drops the index by at most one
        cert = certify(g)  # the index and its criticality, one walk
        ell = cert.k
        eid = rng.randrange(g.m)
        sub = frustration_index(g.delete_edges([eid])).index
        if not (ell - 1 <= sub <= ell):
            bad.append(f"deletion#{i}")
        # subdividing a monochromatic bundle preserves index + criticality
        mono = [p for p, ids in g.bundles.items()
                if len({g.edges[j].sign for j in ids}) == 1]
        if mono:
            p = sorted(mono, key=lambda q: sorted(map(str, q)))[
                rng.randrange(len(mono))]
            vs = tuple(p) if len(p) == 2 else (next(iter(p)),) * 2
            cert2 = certify(subdivide(g, *vs))
            if cert2.k != ell:
                bad.append(f"subdivision-ell#{i}")
            elif cert.critical != cert2.critical:
                bad.append(f"subdivision-critical#{i}")
    return not bad, "; ".join(bad[:5]) or f"{cases} cases x 6 invariants"


CRITERIA = (
    (1, "catalog frustration indices", crit_1_catalog_indices),
    (2, "switching oracle = cover oracle", crit_2_dual_oracle),
    (3, "three criticality methods agree", crit_3_three_methods),
    (4, "k=1 and k=2 classifications re-derived", crit_4_small_classifications),
    (5, "ten planar entries: faces and criticality", crit_5_planar_ten),
    (6, "two star-class entries verified", crit_6_star_two),
    (7, "join construction lands in the expected class", crit_7_join),
    (8, "ladder family and planarization", crit_8_ladder),
    (9, "packing = index on subdivision-free instances", crit_9_packing_equality),
    (10, "negative cycle double covers of order 2k", crit_10_double_covers),
    (11, "max degree bound on critical entries", crit_11_degree_bound),
    (12, "randomized invariant suite", crit_12_invariants),
)


def run_one(number: int) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            t0 = time.monotonic()
            try:
                passed, detail = fn()
            except Exception as exc:  # a raised check is a failed check
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            return CriterionResult(num, name, passed, detail,
                                   time.monotonic() - t0)
    raise ValueError(f"no criterion {number}")


def run_all() -> tuple:
    return tuple(run_one(num) for num, _, _ in CRITERIA)
