"""The three seeded workloads: inputs, items and their reference checks.

An item is one question: one public signforge call on one graph (or one
pair of graphs for ``switching_isomorphic``).  A workload builds its
inputs once from the seed (that is set-up), hands out the same batch of
items for every pass, on fresh graph values so no per-graph cache carries
over between passes, and checks every answer afterwards against a
reference that the layer answering the item did not produce: the catalog
manifest, a known property of a construction, an independent oracle
computed outside the timed loop, or the benchmark's own re-check of a
witness (the helpers at the bottom of this file).
"""

from __future__ import annotations

import importlib
import random

import signforge as sf
from signforge import catalog
from signforge.core import NEG, POS, Edge, SignedGraph
from signforge.enumeration import EnumBounds

# ------------------------------------------------------------------ inputs


def fresh(g: SignedGraph) -> SignedGraph:
    """The same graph as a new value, so none of g's cached properties
    (incidence, components, ...) carries over into a timed item."""
    return SignedGraph(g.vertices, g.edges)


def random_switching(g: SignedGraph, rng: random.Random) -> SignedGraph:
    """g switched at a random vertex set.  Every property a workload asks
    about (index, criticality, cycle signs, faces, decompositions) is
    switching-invariant, and so is the search work, so the seed changes
    the inputs without changing how much work they take."""
    side = {v for v in g.vertices if rng.random() < 0.5}
    return SignedGraph(g.vertices, tuple(
        Edge(e.eid, e.u, e.v,
             -e.sign if (e.u in side) != (e.v in side) else e.sign)
        for e in g.edges))


def random_bridgeless(rng: random.Random, n: int, m: int) -> SignedGraph:
    """Random unbalanced signed multigraph on n vertices with m edges: a
    Hamiltonian cycle in random order plus random chords (parallel edges
    allowed, no loops).  Having no bridge keeps every single-edge deletion
    connected, so the switching work per graph depends on n and m only."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
        while len(pairs) < m:
            u, v = rng.sample(range(n), 2)
            pairs.append((u, v))
        g = sf.build_graph([(u, v, NEG if rng.random() < 0.5 else POS)
                            for u, v in pairs])
        if not balanced(g):
            return g


def random_small(rng: random.Random, n: int, m: int) -> SignedGraph:
    """Random signed multigraph on vertices 0..n-1 with m edges, a few of
    them negative loops; isolated vertices kept."""
    edges = []
    for _ in range(m):
        if rng.random() < 0.1:
            v = rng.randrange(n)
            edges.append((v, v, NEG))
        else:
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, NEG if rng.random() < 0.5 else POS))
    return sf.build_graph(edges, isolated=range(n))


def relabelled_switched_copy(g: SignedGraph, rng: random.Random
                             ) -> SignedGraph:
    """g with its vertices permuted, switched at a random set and its edges
    listed in random order: switching-isomorphic to g by construction."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    label = {v: perm[i] for i, v in enumerate(g.vertices)}
    side = {v for v in g.vertices if rng.random() < 0.5}
    edges = [(label[e.u], label[e.v],
              -e.sign if (not e.is_loop and (e.u in side) != (e.v in side))
              else e.sign) for e in g.edges]
    rng.shuffle(edges)
    return sf.build_graph(edges, isolated=sorted(label.values()))


def entry(name: str):
    e = catalog.get(name)
    return e.graph, e.rotation, e.expected


def construction_graphs():
    """ghat(0..4) and ghat_planar(1..3), each with the manifest record of
    the catalog entry it builds (the catalog's ladder-t and
    ladder-planar-t files are these very graphs, so they are taken from
    here and not parsed twice)."""
    out = []
    for t in range(5):
        out.append((f"ghat({t})", sf.ghat(t), None,
                    catalog.get(f"ladder-{t}").expected))
    for t in range(1, 4):
        g, rot, _ = sf.ghat_planar(t)
        out.append((f"ghat_planar({t})", g, rot,
                    catalog.get(f"ladder-planar-{t}").expected))
    return out


def _catalog_names(keep) -> list:
    return [n for n in catalog.names()
            if not n.startswith("ladder") and keep(catalog.get(n))]


# ---------------------------------------------------------------- workloads


class Workload:
    """Base: a subclass's __init__ is the set-up; it adds the items with
    _add, in the order they are asked."""

    name = ""

    def __init__(self):
        # (label, function name, arguments, keyword arguments) per item
        self.items_spec: list = []
        self.expect: list = []  # per item: what the check needs to know

    def _add(self, expect, label: str, fname: str, args: tuple, **kwargs):
        self.items_spec.append((label, fname, args, kwargs))
        self.expect.append(expect)

    @property
    def labels(self) -> list:
        return [spec[0] for spec in self.items_spec]

    def items(self) -> list:
        """(label, thunk) per item, on fresh graph values.  The function
        is looked up when the thunk runs, so a tracer installed after
        set-up sees the call."""
        out = []
        for label, fname, graphs, kwargs in self.items_spec:
            args = tuple(fresh(g) if isinstance(g, SignedGraph) else g
                         for g in graphs)
            out.append((label, _thunk(fname, args, kwargs)))
        return out

    def check(self, results: list) -> list:
        """One bool per item: did it return, and does the answer agree with
        the reference?  results holds (ok, value) pairs in item order."""
        raise NotImplementedError


def _thunk(fname: str, args: tuple, kwargs: dict):
    """fname is a name the package re-exports or ``module.name``."""
    module, _, attr = fname.rpartition(".")
    ns = importlib.import_module(f"signforge.{module}") if module else sf

    def run():
        return getattr(ns, attr)(*args, **kwargs)
    return run


class CertifyMixed(Workload):
    """Frustration index and the three criticality certificates."""

    name = "certify-mixed"

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(f"{self.name}:{seed}")
        # (label, graph, expected index or None, expected criticality or None)
        graphs = []
        for name in _catalog_names(lambda e: e.expected.get("critical")):
            g, _, exp = entry(name)
            graphs.append((name, g, exp["ell"], exp["critical"]))
        for label, g, _, exp in construction_graphs():
            graphs.append((label, g, exp["ell"], exp["critical"]))
        k4 = catalog.get("k4-minus-all").graph
        k4_neg = min(k4.negative_edge_ids)
        for name in catalog.entries_with_tag("P3*") + ("s3-petersen",) + \
                catalog.entries_with_tag("L3-extra"):
            # join at an edge that is negative in a minimum signature, as
            # reproduce criterion 7 does; the join is critically
            # (2 + 3 - 1)-frustrated
            g = catalog.get(name).graph
            gmin = sf.switch(g, sf.frustration_index(g).switch_set)
            joined = sf.h_join(k4, k4_neg, gmin, min(gmin.negative_edge_ids))
            graphs.append((f"h_join(k4-minus-all,{name})", joined, 4, True))
        graphs = [(lbl, random_switching(g, rng), ell, crit)
                  for lbl, g, ell, crit in graphs]
        # seeded pool: fixed (n, m) per slot, random structure and signs
        slots = [(n, r) for n in (10, 11)
                 for r in (1.3, 1.4, 1.5, 1.6, 1.7, 1.75, 1.8, 1.9)]
        for i, (n, ratio) in enumerate(slots):
            g = random_bridgeless(rng, n, round(n * ratio))
            graphs.append((f"random#{i}(n={n},m={g.m})", g, None, None))
        # two large graphs get the index item only
        large = [(f"random-large#{i}(n=18,m=34)",
                  random_bridgeless(rng, 18, 34), None, None)
                 for i in range(2)]
        self.graphs = graphs + large
        # expect: (position in self.graphs, "index" or the certify method)
        for pos, (label, g, _, _) in enumerate(self.graphs):
            self._add((pos, "index"), f"frustration_index {label}",
                      "frustration_index", (g,))
            if pos >= len(graphs):
                continue
            for method in ("deletion", "signatures", "cuts"):
                self._add((pos, method), f"certify[{method}] {label}",
                          "certify", (g,), method=method)
        self._ell = None

    def _reference_ell(self) -> list:
        """Expected indices; where neither the manifest nor a construction
        gives one, the negative-cycle-cover oracle does."""
        if self._ell is None:
            from signforge.frustration import frustration_by_cover
            self._ell = [ell if ell is not None else frustration_by_cover(g)
                         for _, g, ell, _ in self.graphs]
        return self._ell

    def check(self, results: list) -> list:
        ell = self._reference_ell()
        ok = []
        verdicts: dict = {}
        for (pos, kind), (returned, value) in zip(self.expect, results):
            _, g, _, crit = self.graphs[pos]
            if not returned:
                good = False
            elif kind == "index":
                good = (value.index == ell[pos]
                        and negatives_after_switching(g, value.switch_set)
                        == value.index)
            else:
                verdicts.setdefault(pos, set()).add(value.critical)
                good = value.k == ell[pos] and (crit is None
                                                or value.critical == crit)
            ok.append(good)
        # the three verdicts on one graph must agree
        for i, (pos, kind) in enumerate(self.expect):
            if kind != "index" and len(verdicts.get(pos, ())) > 1:
                ok[i] = False
        return ok


class CycleCovers(Workload):
    """Cycle enumeration, covers, packings, decompositions, subdivisions,
    faces and double covers."""

    name = "cycle-covers"

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(f"{self.name}:{seed}")
        graphs = []
        for name in _catalog_names(
                lambda e: e.rotation is not None or e.graph.n >= 7):
            g, rot, exp = entry(name)
            graphs.append((name, g, rot, exp))
        graphs += construction_graphs()
        self.graphs = [(lbl, random_switching(g, rng), rot, exp)
                       for lbl, g, rot, exp in graphs]

        def add(pos, kind, label, fname, args):
            self._add((pos, kind), f"{kind} {label}", fname, args)

        # expect: (position in self.graphs, kind)
        for pos, (label, g, rot, exp) in enumerate(self.graphs):
            k = exp["ell"]
            add(pos, "negative_cycles", label, "negative_cycles", (g,))
            add(pos, "cover", label, "min_negative_cycle_cover", (g,))
            add(pos, "packing", label, "max_edge_disjoint_negative_cycles",
                (g,))
            add(pos, "decompositions", label, "find_decompositions", (g,))
            # within the quadruple-search guard only (n <= 13, m <= 24)
            if g.n <= 13 and g.m <= 24:
                add(pos, "k4_subdivision", label, "find_k4_minus_subdivision",
                    (g,))
            if rot is not None:
                add(pos, "faces", label, "faces", (g, rot))
                # the order-6 double cover of ghat_planar(3) alone takes
                # ~15 s, longer than a whole pass of everything else
                if k in (2, 3) and label != "ghat_planar(3)":
                    add(pos, "double_cover", label,
                        "negative_cycle_double_cover", (g, k))

    def check(self, results: list) -> list:
        by_graph: dict = {}
        for (pos, kind), res in zip(self.expect, results):
            by_graph.setdefault(pos, {})[kind] = res
        ok = []
        for (pos, kind), (returned, value) in zip(self.expect, results):
            _, g, _, exp = self.graphs[pos]
            k = exp["ell"]
            if not returned:
                ok.append(False)
                continue
            if kind == "negative_cycles":
                good = (len(value) >= 1
                        and all(is_negative_cycle(g, c) for c in value)
                        and len({c.edge_set for c in value}) == len(value))
            elif kind == "cover":
                good = (len(value) == k
                        and balanced(g.delete_edges(value)))
            elif kind == "packing":
                sub = by_graph[pos].get("k4_subdivision")
                subdivision_free = sub is not None and sub[0] and sub[1] is None
                good = (is_packing(g, value) and len(value) <= k
                        and (len(value) <= 1) == exp["in_s_star"]
                        and (not subdivision_free or len(value) == k))
            elif kind == "decompositions":
                good = ((len(value) > 0) == exp["decomposable"]
                        and all(is_decomposition(g, d, k) for d in value))
            elif kind == "k4_subdivision":
                good = ((value is None or is_k4_minus_subdivision(g, value))
                        and (value is not None or not exp["in_s_star"]))
            elif kind == "faces":
                good = (len(value) == exp["planar_face_profile"]["faces"]
                        and is_face_partition(g, value))
            else:  # double_cover
                good = value is not None and is_double_cover(g, value, k)
            ok.append(good)
        return ok


class SmallExhaustive(Workload):
    """Exhaustive enumeration plus canonical forms and isomorphism tests
    on small graphs."""

    name = "small-exhaustive"

    # (k, max vertices, max edges, irreducible only, non-decomposable only,
    #  catalog tag whose entries are the expected classes; without the
    #  irreducible filter, the expected classes are all their subdivisions
    #  within the bounds)
    ENUMERATIONS = ((1, 3, 6, True, False, "L1"),
                    (2, 4, 7, True, False, "L2"),
                    (2, 4, 7, True, True, "L2*"),
                    (2, 4, 6, False, False, "L2"))
    # vertex counts of the random pairs, m = 2n edges each
    PAIR_SIZES = (4,) * 18 + (5,) * 20 + (6,) * 2

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(f"{self.name}:{seed}")
        # expect: ("enumeration", its ENUMERATIONS row) or
        # ("canonical" / "iso", pair number)
        for i, (k, n, m, irr, nd, _) in enumerate(self.ENUMERATIONS):
            bounds = EnumBounds(max_vertices=n, max_multiplicity_per_pair=2,
                                max_negative_loops_per_vertex=2, max_edges=m)
            filt = ("irreducible" if irr else "") + \
                   (",non-decomposable" if nd else "")
            self._add(("enumeration", i),
                      f"enumerate_critical k={k} n<={n} m<={m} "
                      f"[{filt or 'all'}]",
                      "enumeration.enumerate_critical", (bounds, k, irr, nd))
        self.pairs = []
        for i, n in enumerate(self.PAIR_SIZES):
            g = random_small(rng, n, 2 * n)
            h = relabelled_switched_copy(g, rng)
            self.pairs.append((g, h))
            for which, graph in (("a", g), ("b", h)):
                self._add(("canonical", i), f"canonical_form pair#{i}{which}",
                          "canonical_form", (graph,))
            self._add(("iso", i), f"switching_isomorphic pair#{i}",
                      "switching_isomorphic", (g, h))
        self._ref = None

    def _reference(self) -> list:
        """Per enumeration, the canonical forms it must return.  The bounds
        are those of reproduce criterion 4 except m <= 7 (6 unfiltered)
        instead of 8, which keeps each call near 2 s; every class found at
        m <= 8 has at most 6 edges, so the sets agree."""
        if self._ref is None:
            self._ref = []
            for (_, _, (bounds, _, irr, _), _), row in zip(
                    self.items_spec, self.ENUMERATIONS):
                classes = [catalog.get(n).graph
                           for n in catalog.entries_with_tag(row[5])]
                self._ref.append(
                    {sf.canonical_form(g) for g in classes} if irr
                    else subdivision_closure(classes, bounds))
        return self._ref

    def check(self, results: list) -> list:
        ref = self._reference()
        keys: dict = {}
        for (kind, i), (returned, value) in zip(self.expect, results):
            if kind == "canonical" and returned:
                keys.setdefault(i, []).append(value)
        ok = []
        for (kind, i), (returned, value) in zip(self.expect, results):
            if not returned:
                ok.append(False)
                continue
            if kind == "enumeration":
                got = [sf.canonical_form(g) for g in value]
                good = len(set(got)) == len(got) and set(got) == ref[i]
            elif kind == "canonical":
                pair = keys.get(i, [])
                good = len(pair) == 2 and pair[0] == pair[1]
            else:
                g, h = self.pairs[i]
                good = value is not None and is_iso_witness(g, h, value)
            ok.append(good)
        return ok


WORKLOADS = {w.name: w for w in (CertifyMixed, CycleCovers, SmallExhaustive)}


# ------------------------------------------------- independent re-checks
# Small, direct implementations of the definitions; they share no code
# with the searches they check.


def _sign_after(e: Edge, side) -> int:
    if e.is_loop or (e.u in side) == (e.v in side):
        return e.sign
    return -e.sign


def negatives_after_switching(g: SignedGraph, side) -> int:
    side = set(side)
    return sum(1 for e in g.edges if _sign_after(e, side) == NEG)


def balanced(g: SignedGraph) -> bool:
    """No negative cycle: vertex potentials consistent with every sign."""
    pot: dict = {}
    for e in g.edges:
        if e.is_loop and e.sign == NEG:
            return False
    adj: dict = {v: [] for v in g.vertices}
    for e in g.edges:
        if not e.is_loop:
            adj[e.u].append((e.v, e.sign))
            adj[e.v].append((e.u, e.sign))
    for root in g.vertices:
        if root in pot:
            continue
        pot[root] = 1
        stack = [root]
        while stack:
            w = stack.pop()
            for o, s in adj[w]:
                if o not in pot:
                    pot[o] = pot[w] * s
                    stack.append(o)
                elif pot[o] != pot[w] * s:
                    return False
    return True


def is_negative_cycle(g: SignedGraph, c) -> bool:
    eids, vseq = tuple(c.edge_ids), tuple(c.vertex_seq)
    k = len(eids)
    if k == 0 or len(vseq) != k + 1 or vseq[0] != vseq[-1]:
        return False
    if len(set(eids)) != k or len(set(vseq[:-1])) != k:
        return False
    for i, eid in enumerate(eids):
        if not 0 <= eid < g.m:
            return False
        e = g.edges[eid]
        if {e.u, e.v} != {vseq[i], vseq[i + 1]}:
            return False
    return sum(1 for eid in eids if g.edges[eid].sign == NEG) % 2 == 1


def is_packing(g: SignedGraph, cycles) -> bool:
    used: set = set()
    for c in cycles:
        if not is_negative_cycle(g, c) or used & set(c.edge_ids):
            return False
        used |= set(c.edge_ids)
    return True


def is_double_cover(g: SignedGraph, cycles, k: int) -> bool:
    count = [0] * g.m
    for c in cycles:
        if not is_negative_cycle(g, c):
            return False
        for eid in c.edge_ids:
            count[eid] += 1
    return len(cycles) == 2 * k and all(x == 2 for x in count)


def is_decomposition(g: SignedGraph, d, k: int) -> bool:
    seen: list = []
    for eids, _ in d.parts:
        seen += list(eids)
    return (sorted(seen) == list(range(g.m)) and len(d.parts) >= 2
            and sum(ki for _, ki in d.parts) == k)


def is_k4_minus_subdivision(g: SignedGraph, w) -> bool:
    """Six internally disjoint paths joining four branch vertices pairwise,
    each of the four triangles of K4 mapped to a negative cycle."""
    branch = tuple(w.branch_vertices)
    if len(set(branch)) != 4 or len(w.paths) != 6:
        return False
    order = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    used_edges: set = set()
    used_inner: set = set()
    signs = []
    for (i, j), ((a, b), eids, vseq) in zip(order, w.paths):
        if (a, b) != (branch[i], branch[j]) or vseq[0] != a or vseq[-1] != b:
            return False
        if len(vseq) != len(eids) + 1:
            return False
        inner = set(vseq[1:-1])
        if inner & set(branch) or inner & used_inner or \
                len(inner) != len(vseq) - 2:
            return False
        sign = 1
        for t, eid in enumerate(eids):
            e = g.edges[eid]
            if eid in used_edges or {e.u, e.v} != {vseq[t], vseq[t + 1]}:
                return False
            used_edges.add(eid)
            sign *= e.sign
        used_inner |= inner
        signs.append(sign)
    triangles = ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))
    return all(signs[a] * signs[b] * signs[c] == NEG
               for a, b, c in triangles)


def is_face_partition(g: SignedGraph, walks) -> bool:
    darts = [d for f in walks for d in f.darts]
    return sorted(darts) == sorted((e.eid, end) for e in g.edges
                                   for end in (0, 1))


def _subdivisions(g: SignedGraph):
    """Every graph that suppressing its new vertex turns back into g: t
    parallel edges of one sign s (or t negative loops) replaced by t
    edges of sign s to a new vertex and t positive edges on from it."""
    w = f"s{g.n}"
    for pair, ids in g.bundles.items():
        u, v = (tuple(pair) * 2)[:2]
        for s in ((NEG,) if u == v else (NEG, POS)):
            same = [i for i in ids if g.edges[i].sign == s]
            for t in range(1, len(same) + 1):
                drop = set(same[:t])
                edges = [(e.u, e.v, e.sign) for e in g.edges
                         if e.eid not in drop]
                edges += [(u, w, s)] * t + [(w, v, POS)] * t
                yield sf.build_graph(edges, isolated=g.vertices)


def subdivision_closure(graphs, b: EnumBounds) -> set:
    """Canonical forms of the given graphs and all their repeated
    subdivisions that fit the enumeration bounds.  Criticality and the
    index survive subdivision, and every critical graph reduces to an
    irreducible one, so from the irreducible classes this is every
    critical class.  A subdivision only adds vertices and edges, but it
    can split a bundle that is over the multiplicity bound, so that bound
    is applied only to the results."""
    seen: dict = {}
    todo = list(graphs)
    while todo:
        g = todo.pop()
        if g.n > b.max_vertices or g.m > b.max_edges:
            continue
        key = sf.canonical_form(g)
        if key not in seen:
            seen[key] = g
            todo.extend(_subdivisions(g))
    return {key for key, g in seen.items()
            if all(len(ids) <= (b.max_negative_loops_per_vertex
                                if len(pair) == 1
                                else b.max_multiplicity_per_pair)
                   for pair, ids in g.bundles.items())}


def is_iso_witness(g: SignedGraph, h: SignedGraph, w) -> bool:
    """Mapping g's vertices by w.mapping and switching at w.switch_set
    turns g's edge multiset into h's."""
    mapping, side = w.mapping, set(w.switch_set)
    if sorted(mapping) != sorted(g.vertices) or \
            sorted(mapping.values()) != sorted(h.vertices):
        return False

    def key(u, v, s):
        return (min(u, v), max(u, v), s)

    image = sorted(key(mapping[e.u], mapping[e.v],
                       _sign_after(Edge(e.eid, mapping[e.u], mapping[e.v],
                                        e.sign), side))
                   for e in g.edges)
    return image == sorted(key(e.u, e.v, e.sign) for e in h.edges)
