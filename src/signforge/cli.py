"""Command-line interface.

Exit codes: 0 success, 2 property mismatch (e.g. `certify` on a
non-critical graph, catalog verification failure, failed reproduction),
3 guard refusal, 64 usage error.  Machine-readable output behind --json
(schema version 1); human summaries otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import catalog as catalog_mod
from .acceptance import CRITERIA, run_all, run_one
from .constructions import ghat, ghat_planar, h_join
from .core import SignedGraph, parse_sg, serialize_sg
from .criticality import METHODS, certify, is_critical
from .cycles import cycleset_to_json, max_edge_disjoint_negative_cycles
from .enumeration import EnumBounds, enumerate_critical
from .errors import GuardExceeded, PreconditionError, SignforgeError
from .frustration import frustration_index
from .planar import faces, parse_rot, serialize_rot, verify_planar_critical
from .structure import (find_decompositions, find_k4_minus_subdivision,
                        is_irreducible, reduce_to_irreducible)

SCHEMA = 1

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_GUARD = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load(path: str) -> SignedGraph:
    return parse_sg(pathlib.Path(path).read_text())


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(human)


def _cmd_frustration(args) -> int:
    g = _load(args.graph)
    res = frustration_index(g)
    _emit(args, {"command": "frustration", **res.to_json()},
          f"ell={res.index}\nswitch_set={sorted(map(str, res.switch_set))}\n"
          f"negative_edges={sorted(res.negative_edge_ids)}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    g = _load(args.graph)
    cert = certify(g, args.k, args.method)
    verdict = "critical" if cert.critical else "not critical"
    _emit(args, {"command": "certify", **cert.to_json()},
          f"{verdict} (k={cert.k}, method={cert.method})")
    return EXIT_OK if cert.critical else EXIT_MISMATCH


def _cmd_decompose(args) -> int:
    g = _load(args.graph)
    ds = find_decompositions(g, args.k)
    _emit(args,
          {"command": "decompose",
           "decompositions": [d.to_json() for d in ds]},
          "\n".join(str(d.to_json()) for d in ds) or "non-decomposable")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    g = _load(args.graph)
    red = reduce_to_irreducible(g)
    text = serialize_sg(red)
    if args.out:
        pathlib.Path(args.out).write_text(text)
    _emit(args, {"command": "reduce", "irreducible": True,
                 "vertices": red.n, "edges": red.m, "sg": text},
          text.rstrip("\n") if not args.out else f"wrote {args.out}")
    return EXIT_OK


def _cmd_structure(args) -> int:
    g = _load(args.graph)
    sub = find_k4_minus_subdivision(g)
    pack = max_edge_disjoint_negative_cycles(g)
    ell = frustration_index(g).index
    payload = {"command": "structure",
               "frustration_index": ell,
               "irreducible": is_irreducible(g),
               "k4_minus_subdivision": sub.to_json() if sub else None,
               "max_packing": cycleset_to_json(g, pack)}
    human = (f"ell={ell} irreducible={payload['irreducible']} "
             f"packing={len(pack)} "
             f"subdivision={'yes' if sub else 'none'}")
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_faces(args) -> int:
    g = _load(args.graph)
    rot = parse_rot(pathlib.Path(args.rotation).read_text())
    fs = faces(g, rot)
    lines = [f"face {i}: edges={list(f.edge_ids)} sign="
             f"{'-' if f.sign(g) < 0 else '+'}" for i, f in enumerate(fs)]
    payload = {"command": "faces",
               "faces": [{"edges": list(f.edge_ids),
                          "sign": f.sign(g)} for f in fs]}
    if args.k is not None:
        if not is_critical(g, args.k):
            raise PreconditionError(
                f"graph is not critically {args.k}-frustrated")
        report = verify_planar_critical(g, rot, args.k)
        payload["report"] = report.to_json()
        lines.append(str(report.to_json()))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.what == "hjoin":
        g = h_join(_load(args.graph1), args.edge1,
                   _load(args.graph2), args.edge2)
        out = args.out or "hjoin.sg"
        pathlib.Path(out).write_text(serialize_sg(g))
        _emit(args, {"command": "construct", "kind": "hjoin",
                     "vertices": g.n, "edges": g.m, "out": out},
              f"wrote {out} ({g.n} vertices, {g.m} edges)")
        return EXIT_OK
    t = args.t
    if args.planar:
        g, rot, cuts = ghat_planar(t)
        base = (args.out or f"ladder-planar-{t}").removesuffix(".sg")
        pathlib.Path(f"{base}.sg").write_text(serialize_sg(g))
        pathlib.Path(f"{base}.rot").write_text(serialize_rot(g, rot))
        _emit(args, {"command": "construct", "kind": "ladder-planar",
                     "t": t, "vertices": g.n, "edges": g.m,
                     "witness_cuts": [sorted(c) for c in cuts],
                     "out": [f"{base}.sg", f"{base}.rot"]},
              f"wrote {base}.sg and {base}.rot; witness cuts "
              f"{[sorted(c) for c in cuts]}")
    else:
        g = ghat(t)
        out = (args.out or f"ladder-{t}").removesuffix(".sg") + ".sg"
        pathlib.Path(out).write_text(serialize_sg(g))
        _emit(args, {"command": "construct", "kind": "ladder", "t": t,
                     "vertices": g.n, "edges": g.m, "out": out},
              f"wrote {out} ({g.n} vertices, {g.m} edges)")
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.action == "list":
        recs = [{"name": n, "tags": list(catalog_mod.get(n).tags)}
                for n in catalog_mod.names()]
        _emit(args, {"command": "catalog", "entries": recs},
              "\n".join(f"{r['name']} [{', '.join(r['tags'])}]" for r in recs))
        return EXIT_OK
    if args.action == "show":
        entry = catalog_mod.get(args.name)
        _emit(args, {"command": "catalog", "name": entry.name,
                     "description": entry.description,
                     "expected": entry.expected,
                     "tags": list(entry.tags),
                     "sg": serialize_sg(entry.graph)},
              f"{entry.name}: {entry.description}\n{serialize_sg(entry.graph)}")
        return EXIT_OK
    # verify
    names = catalog_mod.names() if args.all else [args.name]
    failures = []
    results = {}
    for name in names:
        try:
            results[name] = catalog_mod.verify(name)
        except SignforgeError as exc:
            failures.append(f"{name}: {exc}")
    _emit(args, {"command": "catalog", "verified": results,
                 "failures": failures},
          "\n".join([f"ok {n}" for n in results]
                    + [f"FAIL {f}" for f in failures]))
    return EXIT_MISMATCH if failures else EXIT_OK


def _cmd_enumerate(args) -> int:
    bounds = EnumBounds(max_vertices=args.max_n,
                        max_multiplicity_per_pair=args.max_mult,
                        max_negative_loops_per_vertex=args.max_loops,
                        max_edges=args.max_edges,
                        connected_only=args.connected)
    found = enumerate_critical(bounds, args.k,
                               irreducible_only=args.irreducible,
                               non_decomposable_only=args.non_decomposable)
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, g in enumerate(found):
        fname = f"critical-k{args.k}-{i:03d}.sg"
        (outdir / fname).write_text(serialize_sg(g))
        manifest.append({"file": fname, "vertices": g.n, "edges": g.m})
    (outdir / "manifest.json").write_text(
        json.dumps({"schema": SCHEMA, "k": args.k,
                    "bounds": vars(bounds),
                    "classes": manifest}, indent=1, default=str) + "\n")
    _emit(args, {"command": "enumerate", "k": args.k,
                 "classes": len(found), "out": str(outdir)},
          f"{len(found)} class(es) written to {outdir}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    results = list(run_all()) if args.only is None else [run_one(args.only)]
    ok = all(r.passed for r in results)
    width = max(len(r.name) for r in results)
    lines = [f"{r.number:>2}  {'PASS' if r.passed else 'FAIL'}  "
             f"{r.name:<{width}}  {r.seconds:7.1f}s  {r.detail}"
             for r in results]
    lines.append("all criteria passed" if ok else "FAILURES present")
    _emit(args,
          {"command": "reproduce",
           "criteria": [{"number": r.number, "name": r.name,
                         "passed": r.passed, "seconds": r.seconds,
                         "detail": r.detail} for r in results],
           "all_passed": ok},
          "\n".join(lines))
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser() -> _Parser:
    p = _Parser(prog="signforge",
                description="frustration indices and critical signed graphs")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("frustration", _cmd_frustration,
             help="frustration index of a .sg file")
    sp.add_argument("graph")

    sp = add("certify", _cmd_certify, help="critical k-frustration check")
    sp.add_argument("graph")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--method", choices=METHODS, default="deletion")

    sp = add("decompose", _cmd_decompose,
             help="partitions into critical parts")
    sp.add_argument("graph")
    sp.add_argument("--k", type=int, default=None)

    sp = add("reduce", _cmd_reduce, help="suppress to an irreducible graph")
    sp.add_argument("graph")
    sp.add_argument("-o", "--out", default=None)

    sp = add("structure", _cmd_structure,
             help="subdivision, packing and irreducibility summary")
    sp.add_argument("graph")

    sp = add("faces", _cmd_faces, help="facial walks of an embedding")
    sp.add_argument("graph")
    sp.add_argument("rotation")
    sp.add_argument("--k", type=int, default=None,
                    help="also run the planar-critical report")

    sp = add("construct", _cmd_construct, help="builders: hjoin, ladder")
    kinds = sp.add_subparsers(dest="what", required=True)
    sp = kinds.add_parser("hjoin")
    sp.add_argument("graph1")
    sp.add_argument("edge1", type=int)
    sp.add_argument("graph2")
    sp.add_argument("edge2", type=int)
    sp.add_argument("-o", "--out", default=None)
    sp = kinds.add_parser("ladder")
    sp.add_argument("t", type=int)
    sp.add_argument("--planar", action="store_true")
    sp.add_argument("-o", "--out", default=None)

    sp = add("catalog", _cmd_catalog, help="named-graph catalog")
    sp.add_argument("action", choices=["list", "show", "verify"])
    sp.add_argument("name", nargs="?")
    sp.add_argument("--all", action="store_true")

    sp = add("enumerate", _cmd_enumerate,
             help="critical classes within bounds")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--max-edges", type=int, required=True)
    sp.add_argument("--max-mult", type=int, default=2)
    sp.add_argument("--max-loops", type=int, default=2)
    sp.add_argument("--connected", action="store_true")
    sp.add_argument("--irreducible", action="store_true")
    sp.add_argument("--non-decomposable", action="store_true")
    sp.add_argument("--out", default="enumerated")

    sp = add("reproduce", _cmd_reproduce, help="run the acceptance suite")
    sp.add_argument("--only", type=int, default=None,
                    choices=[num for num, _, _ in CRITERIA])

    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("catalog",) and args.action in ("show",) \
            and not args.name:
        parser.error("catalog show requires a name")
    if args.command == "catalog" and args.action == "verify" \
            and not (args.all or args.name):
        parser.error("catalog verify requires a name or --all")
    try:
        return args.fn(args)
    except GuardExceeded as exc:
        print(f"guard refusal: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except SignforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
