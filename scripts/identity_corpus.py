#!/usr/bin/env python3
"""Byte-identity digests of the cycle, decomposition, switching, K4-,
planar/cut and verification answers.

Rebuilds six fixed corpora of calls and prints, per public function, the
number of calls and a sha256 over their newline-joined outputs.  Two
checkouts print the same digests iff every answer (and every error) is
the same byte for byte, so a change that must not alter outputs can be
checked by running this on both sides:

    python3 scripts/identity_corpus.py                 # this checkout
    python3 scripts/identity_corpus.py --src OTHER/src # another one

The family-search corpus is the 27 catalog entries and
random_signed_graph(Random(s), 7, 11) for s = 0..2499; per graph four
calls: min_negative_cycle_cover, max_edge_disjoint_negative_cycles
without and with stop_at=2, and negative_cycle_double_cover(g, k), k
the frustration index (2,527 calls per function).

The decomposition corpus calls find_decompositions(g, k) and
is_decomposable(g, k) on: the catalog entries, ghat(0..4) and
ghat_planar(1..3) at their index; six hand unions of all-negative K4s,
k5-minus, negative loops and a negative triangle at k = 2..6; 200
random_signed_graph(Random(99), 6, 11) at k = 2..6; 150
random_signed_graph(Random(7), 5, 11), a positive loop added to every
other one, at k = 2..5; and 120 random switched unions of negative
loops, digons, triangles, all-negative K4s (one edge subdivided or not)
and k5-minus, drawn from Random(5) with at most 14 edges, at k = 2..6
(2,265 calls per function).

The switching corpus is the catalog entries and
random_signed_graph(Random(s), 7, 12) for s = 0..1499, a positive loop
at vertex s mod n put first for s = 1 mod 3 and last for s = 2 mod 3;
per graph six calls: frustration_index(g).to_json(),
all_minimum_signatures, balancing_switch_set (sorted vertex strings, or
None) and certify(g, method=m).to_json() for each of the three methods
(1,527 calls per function).

The K4- corpus is the catalog entries, ghat(0..4), ghat_planar(1..3) and
random_signed_graph(Random(s), 8, 16) for s = 0..1499; per graph two
calls: find_k4_minus_subdivision(g) (its to_json, or None) and
k4_minus_subdivision_edge_sets(g) (as sorted edge-id lists) (1,535
calls per function).

The planar corpus is verify_planar_critical(h, rot, k).to_json(), k the
frustration index, for h each catalog entry with a rotation and
ghat_planar(1..6), and three switchings of each at vertex sets drawn
from Random(i), i the graph's position (80 calls); then, on
random_signed_graph(Random(s), 7, 12) for s = 0..599, cut(g, x).to_json()
at a vertex set x drawn from Random(s) (600 calls) and
equilibrated_cut_for_edge(g, e) (its to_json, or None) for every edge e
(3,849 calls).

The verification corpus is catalog.verify_all() (one call, the record of
every entry) and (passed, detail) of acceptance.run_one(n) for each of
the twelve criteria, its seconds left out, with one line per criterion
(run_one(1) .. run_one(12), one call each), so a changed detail names
its criterion.

One output line per call: the repr of the answer (a decomposition by
its to_json), or the type and message of a SignforgeError.  The script
re-executes itself with PYTHONHASHSEED=0.  --corpus picks one corpus.
"""

import argparse
import hashlib
import os
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _answer(call):
    from signforge.errors import SignforgeError
    try:
        return repr(call())
    except SignforgeError as exc:
        return f"{type(exc).__name__}: {exc}"


def family_calls():
    """(function name, thunk) for every call of the family-search corpus."""
    from signforge import catalog, cycles
    from signforge.acceptance import random_signed_graph
    from signforge.frustration import frustration_index

    graphs = [catalog.get(name).graph for name in catalog.names()]
    graphs += [random_signed_graph(random.Random(s), 7, 11)
               for s in range(2500)]
    for g in graphs:
        k = frustration_index(g).index
        yield "min_negative_cycle_cover", (
            lambda g=g: cycles.min_negative_cycle_cover(g))
        yield "max_edge_disjoint_negative_cycles", (
            lambda g=g: cycles.max_edge_disjoint_negative_cycles(g))
        yield "max_edge_disjoint_negative_cycles(stop_at=2)", (
            lambda g=g: cycles.max_edge_disjoint_negative_cycles(g, 2))
        yield "negative_cycle_double_cover", (
            lambda g=g, k=k: cycles.negative_cycle_double_cover(g, k))


def _k4(vs):
    return [(vs[i], vs[j], "-") for i in range(4) for j in range(i + 1, 4)]


def _triangle(vs):
    return [(vs[0], vs[1], "+"), (vs[1], vs[2], "+"), (vs[2], vs[0], "-")]


def _relabel(edges, vs):
    return [(vs[u], vs[v], s) for u, v, s in edges]


def _union(rng, k5):
    """A random union of decomposition parts on at most 8 vertices, at
    most 14 edges, switched at a random vertex set."""
    n = rng.randint(4, 8)
    edges = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(("loop", "digon", "triangle", "k4", "k4-sub",
                           "k5-minus"))
        vs = rng.sample(range(n), min(n, 5))
        if kind == "loop":
            part = [(vs[0], vs[0], "-")]
        elif kind == "digon":
            part = [(vs[0], vs[1], "+"), (vs[0], vs[1], "-")]
        elif kind == "triangle":
            part = _triangle(vs)
        elif kind == "k5-minus":
            if n < 5:
                continue
            part = _relabel(k5, vs)
        else:
            part = _k4(vs)
            if kind == "k4-sub" and n > 4:
                u, v, _ = part.pop(rng.randrange(6))
                w = rng.choice(sorted(set(range(n)) - set(vs[:4])))
                part += [(u, w, "-"), (w, v, "+")]
        if len(edges) + len(part) <= 14:
            edges += part
    side = {v for v in range(n) if rng.random() < 0.5}
    flip = {"+": "-", "-": "+"}
    edges = [(u, v, flip[s] if (u in side) != (v in side) else s)
             for u, v, s in edges]
    rng.shuffle(edges)
    return edges


def decomposition_graphs():
    """(graph, k) for every call of the decomposition corpus."""
    from signforge import catalog
    from signforge.acceptance import random_signed_graph
    from signforge.constructions import ghat, ghat_planar
    from signforge.core import build_graph

    for name in catalog.names():
        yield catalog.get(name).graph, None
    for t in range(5):
        yield ghat(t), None
    for t in range(1, 4):
        yield ghat_planar(t)[0], None
    g = catalog.get("k5-minus").graph
    index = g.vindex
    k5 = [(index[e.u], index[e.v], "-" if e.sign < 0 else "+")
          for e in g.edges]
    hand = [
        _k4(range(4)) + _k4((3, 4, 5, 6)),
        k5 + [(0, 0, "-")],
        _k4(range(4)) + _triangle((3, 4, 5)),
        [(0, 0, "-"), (1, 1, "-")] + _triangle((0, 1, 2)),
        _k4(range(4)) + [(0, 0, "-"), (2, 2, "-")],
        k5 + _triangle((4, 5, 6)),
    ]
    for edges in hand:
        for k in range(2, 7):
            yield build_graph(edges), k
    rng = random.Random(99)
    for _ in range(200):
        g = random_signed_graph(rng, 6, 11)
        for k in range(2, 7):
            yield g, k
    rng = random.Random(7)
    for i in range(150):
        g = random_signed_graph(rng, 5, 11)
        if i % 2:
            g = build_graph([(e.u, e.v, e.sign) for e in g.edges]
                            + [(g.vertices[0], g.vertices[0], "+")])
        for k in range(2, 6):
            yield g, k
    rng = random.Random(5)
    for _ in range(120):
        g = build_graph(_union(rng, k5))
        for k in range(2, 7):
            yield g, k


def decomposition_calls():
    from signforge.structure import find_decompositions, is_decomposable

    for g, k in decomposition_graphs():
        yield "find_decompositions", (
            lambda g=g, k=k: [d.to_json() for d in find_decompositions(g, k)])
        yield "is_decomposable", lambda g=g, k=k: is_decomposable(g, k)


def _strings(vertices):
    """A vertex set as its sorted vertex strings, None kept."""
    return None if vertices is None else sorted(map(str, vertices))


def switching_calls():
    """(function name, thunk) for every call of the switching corpus."""
    from signforge import catalog
    from signforge.acceptance import random_signed_graph
    from signforge.core import balancing_switch_set, build_graph
    from signforge.criticality import METHODS, certify
    from signforge.frustration import all_minimum_signatures, frustration_index

    graphs = [catalog.get(name).graph for name in catalog.names()]
    for s in range(1500):
        g = random_signed_graph(random.Random(s), 7, 12)
        edges = [(e.u, e.v, e.sign) for e in g.edges]
        loop = [(g.vertices[s % g.n], g.vertices[s % g.n], "+")]
        graphs.append(build_graph((edges, loop + edges, edges + loop)[s % 3]))
    for g in graphs:
        yield "frustration_index", lambda g=g: frustration_index(g).to_json()
        yield "all_minimum_signatures", lambda g=g: all_minimum_signatures(g)
        yield "balancing_switch_set", lambda g=g: _strings(
            balancing_switch_set(g))
        for method in METHODS:
            yield f"certify({method})", (
                lambda g=g, method=method: certify(g, method=method).to_json())


def k4_calls():
    """(function name, thunk) for every call of the K4- corpus."""
    from signforge import catalog
    from signforge.acceptance import random_signed_graph
    from signforge.constructions import ghat, ghat_planar
    from signforge.structure import (find_k4_minus_subdivision,
                                     k4_minus_subdivision_edge_sets)

    graphs = [catalog.get(name).graph for name in catalog.names()]
    graphs += [ghat(t) for t in range(5)]
    graphs += [ghat_planar(t)[0] for t in range(1, 4)]
    graphs += [random_signed_graph(random.Random(s), 8, 16)
               for s in range(1500)]

    def witness(g):
        w = find_k4_minus_subdivision(g)
        return None if w is None else w.to_json()

    for g in graphs:
        yield "find_k4_minus_subdivision", lambda g=g: witness(g)
        yield "k4_minus_subdivision_edge_sets", lambda g=g: [
            sorted(es) for es in k4_minus_subdivision_edge_sets(g)]


def planar_calls():
    """(function name, thunk) for every call of the planar corpus."""
    from signforge import catalog
    from signforge.acceptance import random_signed_graph
    from signforge.constructions import ghat_planar
    from signforge.core import cut, switch
    from signforge.criticality import equilibrated_cut_for_edge
    from signforge.frustration import frustration_index
    from signforge.planar import verify_planar_critical

    embedded = [(e.graph, e.rotation) for e in map(catalog.get,
                                                   catalog.names())
                if e.rotation is not None]
    embedded += [ghat_planar(t)[:2] for t in range(1, 7)]
    for i, (g, rot) in enumerate(embedded):
        rng = random.Random(i)
        for h in [g] + [switch(g, [v for v in g.vertices
                                   if rng.random() < 0.5]) for _ in range(3)]:
            k = frustration_index(h).index
            yield "verify_planar_critical", (
                lambda h=h, rot=rot, k=k:
                verify_planar_critical(h, rot, k).to_json())
    for s in range(600):
        rng = random.Random(s)
        g = random_signed_graph(rng, 7, 12)
        side = [v for v in g.vertices if rng.random() < 0.5]
        yield "cut", lambda g=g, side=side: cut(g, side).to_json()
        for eid in range(g.m):
            yield "equilibrated_cut_for_edge", (
                lambda g=g, eid=eid: _json(equilibrated_cut_for_edge(g, eid)))


def verification_calls():
    """(function name, thunk) for every call of the verification corpus."""
    from signforge import catalog
    from signforge.acceptance import CRITERIA, run_one

    yield "catalog.verify_all", catalog.verify_all
    def verdict(number):
        r = run_one(number)
        return r.passed, r.detail

    for number, _, _ in CRITERIA:
        yield f"run_one({number})", lambda number=number: verdict(number)


def _json(value):
    """value.to_json(), None kept."""
    return None if value is None else value.to_json()


CORPORA = {"family": family_calls, "decompositions": decomposition_calls,
           "switching": switching_calls, "k4": k4_calls,
           "planar": planar_calls, "verification": verification_calls}


def digests(calls) -> dict:
    """function name -> (number of calls, sha256 of its output lines)."""
    lines: dict = {}
    for name, call in calls:
        lines.setdefault(name, []).append(_answer(call))
    return {name: (len(out), hashlib.sha256(
        "\n".join(out).encode()).hexdigest()) for name, out in lines.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="the src directory of the checkout to import")
    p.add_argument("--corpus", choices=sorted(CORPORA) + ["all"],
                   default="all")
    args = p.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.path.insert(0, str(pathlib.Path(args.src).resolve()))
    for corpus in sorted(CORPORA) if args.corpus == "all" else [args.corpus]:
        for name, (count, digest) in digests(CORPORA[corpus]()).items():
            print(f"{corpus} {name} {count} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
