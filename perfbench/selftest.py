"""The benchmark's own tests.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

* Work counters repeat exactly across processes run with one seed, even
  with different string-hash seeds.
* A second seed changes the generated inputs but not the metric names.
* The metric names match BENCHMARK.json.
* The independent re-checks reject wrong answers.

The traced processes run with --seconds 0: one untraced and one traced
pass each, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# counts that must repeat exactly; times are free to vary
COUNTERS = ("frustration.switchings", "cycles.negative_cycles",
            "cycles.enumerations", "enumeration.classes",
            "core.canonical_form_calls")


def _traced(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if k.endswith((".calls", ".guard_refusals")) or k in COUNTERS}


def _spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: [m["name"] for m in spec[key]]
            for key in ("end_to_end", "per_layer", "workloads")}


def test_counters_repeat_and_names_hold_across_seeds():
    for name in workloads.WORKLOADS:
        first = _traced(name, 3, "1")
        again = _traced(name, 3, "2")
        other = _traced(name, 4, "1")
        assert first["failed"] == again["failed"] == other["failed"] == 0
        assert _counts(first["layers"]) == _counts(again["layers"]), name
        assert set(first["layers"]) == set(other["layers"]), name
        declared = set(_spec()["per_layer"])
        assert set(first["layers"]) == declared, name


def test_second_seed_changes_the_inputs():
    for name, cls in workloads.WORKLOADS.items():
        a, b, a2 = cls(3), cls(4), cls(3)

        def inputs(w):
            return [tuple(g.edges if hasattr(g, "edges") else g
                          for g in spec[2]) for spec in w.items_spec]

        assert inputs(a) == inputs(a2), name
        assert inputs(a) != inputs(b), name
        assert a.labels == a2.labels, name


def test_workload_names_match_the_spec():
    assert set(_spec()["workloads"]) == set(workloads.WORKLOADS)


def test_rechecks_reject_wrong_answers():
    w = workloads.CycleCovers(1)
    results = [(True, thunk()) for _, thunk in w.items()]
    assert all(w.check(results))
    kinds = [kind for _, kind in w.expect]
    wrong = {
        "negative_cycles": lambda v: v + v[:1],   # a cycle twice
        "packing": lambda v: v + v[:1],           # not edge-disjoint
        "cover": lambda v: v[1:],                 # one edge short
        "double_cover": lambda v: v[1:],          # a cycle short
        "faces": lambda v: v[1:],                 # a face short
        "decompositions": lambda v: (),           # decomposable, none given
    }
    for kind, spoil in wrong.items():
        i = next(j for j, k in enumerate(kinds)
                 if k == kind and results[j][1])
        bad = list(results)
        bad[i] = (True, spoil(results[i][1]))
        assert not w.check(bad)[i], kind
        bad[i] = (False, RuntimeError("refused"))
        assert not w.check(bad)[i], kind

    w = workloads.SmallExhaustive(1)
    g, h = w.pairs[0]
    witness = workloads.sf.switching_isomorphic(g, h)
    assert workloads.is_iso_witness(g, h, witness)
    u = next(e.u for e in g.edges if not e.is_loop)
    flipped = type(witness)(witness.mapping,
                            witness.switch_set ^ {witness.mapping[u]})
    assert not workloads.is_iso_witness(g, h, flipped)


if __name__ == "__main__":
    for fn in (test_workload_names_match_the_spec,
               test_second_seed_changes_the_inputs,
               test_rechecks_reject_wrong_answers,
               test_counters_repeat_and_names_hold_across_seeds):
        fn()
        print(f"ok {fn.__name__}")
