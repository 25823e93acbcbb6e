"""One benchmark process: set up one workload, answer its items in passes,
print one JSON line with the raw measurements.

run.py starts this file in a fresh interpreter, so the process runs only
the one workload and its peak resident set is that workload's.  The load
is a closed loop with one client: one thread asks one item at a time,
each after the previous answer returned.  Passes repeat the same batch
until the next pass would end after the deadline (at least one pass).
A short calibration burst (hostspeed.py) runs before every item, after the
last and every 0.1 s inside an item; the item times are reported raw and
scaled to the reference host speed by the bursts around and inside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import signforge  # noqa: E402
from signforge.criticality import METHODS  # noqa: E402
from signforge.errors import GuardExceeded  # noqa: E402

import hostspeed  # noqa: E402
from spans import ITEM, LAYERS, SETUP, Tracer, layer_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

now = time.perf_counter


def _switchings(args, kwargs, result) -> int:
    """Switchings the scan visits: 2^(c-1) per component of c vertices."""
    return sum(1 << (len(comp) - 1) for comp in args[0].components)


def _certify_method(args, kwargs, result) -> int:
    return METHODS.index(result.method)


def _size(args, kwargs, result) -> int:
    return len(result)


NOTES = {
    "frustration.frustration_index": _switchings,
    "frustration.all_minimum_signatures": _switchings,
    "criticality.certify": _certify_method,
    "cycles.negative_cycles": _size,
    "enumeration.enumerate_critical": _size,
}


def run_pass(items, tracer=None):
    """Answer every item once; return (wall seconds, latencies, bursts,
    bursts inside each item, results).  A burst is timed before each item
    and after the last; the time of those inside an item is not in its
    latency.  A result is (True, answer) or (False, the exception raised)."""
    latencies, bursts, inside, results = [], [], [], []
    start = now()
    with hostspeed.Sampler() as sampler:
        for i, (_, thunk) in enumerate(items):
            bursts.append(hostspeed.burst())
            sampler.start()
            t0 = now()
            try:
                if tracer is None:
                    value = thunk()
                else:
                    with tracer.span(ITEM, i):
                        value = thunk()
                results.append((True, value))
            except Exception as exc:  # an item that raises is a failed item
                results.append((False, exc))
            t1 = now()
            within, spent = sampler.stop(t1)
            latencies.append(t1 - t0 - spent)
            inside.append(within)
    bursts.append(hostspeed.burst())
    return now() - start, latencies, bursts, inside, results


class Passes:
    """Runs passes and keeps their times.  The first pass's answers are
    kept for the full check; every later answer must equal the first
    pass's and is then dropped, so memory does not grow with the number
    of passes."""

    def __init__(self, workload):
        self.workload = workload
        self.walls: list = []
        self.latencies: list = []   # per pass: raw item latencies
        self.scaled: list = []      # per pass: latencies at reference speed
        self.bursts: list = []
        self.reference = None       # the first pass's results
        self.differs = None         # per item: later passes that differ
        self.refused = 0            # items refused by a guard, all passes
        self.peak_rss_mb = None     # after set-up and the first pass

    def run(self, deadline: float, tracer=None, spans: list = None) -> None:
        """Passes until the next one, as long as the last, would end after
        the deadline; at least one."""
        while True:
            first = len(tracer) if tracer is not None else 0
            wall, latencies, bursts, inside, results = run_pass(
                self.workload.items(), tracer)
            if spans is not None:
                spans.append(range(first, len(tracer)))
            self.walls.append(wall)
            self.latencies.append(latencies)
            self.scaled.append(
                hostspeed.scaled_latencies(latencies, bursts, inside))
            self.bursts += bursts
            self.refused += sum(1 for returned, value in results
                                if isinstance(value, GuardExceeded))
            if self.reference is None:
                # later passes grow the peak by a few MB each (the heap
                # fragments), so the peak is read before they run
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
                self.reference = results
                self.differs = [0] * len(results)
            else:
                for i, (a, b) in enumerate(zip(self.reference, results)):
                    if not (a[0] and b[0] and a[1] == b[1]):
                        self.differs[i] += 1
            if now() + wall > deadline:
                return


def layer_metrics(tracer: Tracer, spans: list) -> dict:
    """Per-layer metrics over the given span indices."""
    names = tracer.names
    self_t = {}
    for r in spans:
        self_t.update(tracer.self_times(r))
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.guard_refusals"] = 0
    fid = {name: i for i, name in enumerate(names)}

    def ids(*qualnames):
        return {fid[q] for q in qualnames if q in fid}

    scans = ids("frustration.frustration_index",
                "frustration.all_minimum_signatures")
    certify = ids("criticality.certify")
    # metric -> functions whose outermost spans' durations are summed
    inclusive = {
        "cycles.double_cover_s": ids("cycles.negative_cycle_double_cover"),
        "cycles.cover_s": ids("cycles.min_negative_cycle_cover"),
        "cycles.packing_s": ids("cycles.max_edge_disjoint_negative_cycles"),
        "structure.decompose_s": ids("structure.find_decompositions",
                                     "structure.is_decomposable"),
        "structure.k4_subdivision_s": ids(
            "structure.find_k4_minus_subdivision"),
        "core.canonical_form_s": ids("core.canonical_form"),
        "core.parse_sg_s": ids("core.parse_sg"),
    }
    for key in list(inclusive) + [f"criticality.{m}_s" for m in METHODS]:
        out[key] = 0.0
    inclusive_of = {}  # function id -> [(metric, its function ids)]
    for key, fids in inclusive.items():
        for f in fids:
            inclusive_of.setdefault(f, []).append((key, fids))
    switchings, scan_self, certify_calls, nested_scans = 0, 0.0, 0, 0
    enumerations = negative = classes = canonical_calls = 0
    for r in spans:
        for i in r:
            name = names[tracer.fn[i]]
            layer = layer_of(name)
            if layer not in LAYERS:
                continue  # benchmark spans (items, set-up)
            f = tracer.fn[i]
            dur = tracer.end[i] - tracer.start[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += self_t[i]
            if i in tracer.refused:
                out[f"{layer}.guard_refusals"] += 1
            note = tracer.notes.get(i)
            if f in scans:
                if note is not None:
                    switchings += note
                scan_self += self_t[i]
                if tracer.has_ancestor(i, certify):
                    nested_scans += 1
            elif f in certify:
                certify_calls += 1
                if note is not None:
                    out[f"criticality.{METHODS[note]}_s"] += dur
            elif name == "cycles.enumerate_cycles":
                enumerations += 1
            elif name == "cycles.negative_cycles" and note is not None:
                negative += note
            elif name == "enumeration.enumerate_critical" and note is not None:
                classes += note
            elif name == "core.canonical_form":
                canonical_calls += 1
            for key, fids in inclusive_of.get(f, ()):
                if not tracer.has_ancestor(i, fids):
                    out[key] += dur
    out.update({
        "frustration.switchings": switchings,
        "frustration.us_per_switching":
            1e6 * scan_self / switchings if switchings else 0.0,
        "criticality.scans_per_certify":
            nested_scans / certify_calls if certify_calls else 0.0,
        "cycles.enumerations": enumerations,
        "cycles.negative_cycles": negative,
        "enumeration.classes": classes,
        "core.canonical_form_calls": canonical_calls,
    })
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop at the first timed item")
    p.add_argument("--spans-out", help="write the traced spans here")
    args = p.parse_args()
    if Path(signforge.__file__).resolve().parent != SRC / "signforge":
        sys.exit(f"signforge imported from {signforge.__file__}, not {SRC}")

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(NOTES)
        with tracer.span(SETUP):
            workload = WORKLOADS[args.workload](args.seed)
        setup_spans = range(0, len(tracer))
        tracer.uninstall()
    else:
        workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.items()
    ready = now()
    setup_bursts = [hostspeed.burst() for _ in range(hostspeed.SETUP_BURSTS)]
    report = {"ready": ready, "setup_scale": hostspeed.scale(setup_bursts)}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    passes = Passes(workload)
    report["items_per_pass"] = len(workload.labels)
    if tracer is None:
        passes.run(ready + args.seconds)
    else:
        # half the time untraced, for the overhead ratio; then traced
        passes.run(ready + args.seconds / 2)
        untraced = list(passes.walls)
        traced_spans: list = []
        tracer.install(NOTES)
        passes.run(ready + args.seconds, tracer, traced_spans)
        tracer.uninstall()
        traced = passes.walls[len(untraced):]
        per_pass = [layer_metrics(tracer, [setup_spans, r])
                    for r in traced_spans]
        metrics = {key: statistics.median(m[key] for m in per_pass)
                   for key in per_pass[0]}
        metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(untraced))
        report["layers"] = metrics
        if args.spans_out:
            tracer.write(args.spans_out, range(0, traced_spans[0].stop),
                         workload.labels)

    labels = workload.labels
    ok = workload.check(passes.reference)
    npass = len(passes.walls)
    attempted = len(labels) * npass
    # an item wrong in the first pass is wrong in every pass
    failed = sum(npass if not good else later
                 for good, later in zip(ok, passes.differs))
    failures = []
    for label, good, (returned, value) in zip(labels, ok, passes.reference):
        if not good and len(failures) < 10:
            why = (f"{type(value).__name__}: {value}" if not returned
                   else "answer disagrees with the reference")
            failures.append(f"{label}: {why}")
    differ = sum(later for good, later in zip(ok, passes.differs) if good)
    if differ:
        failures.append(f"{differ} answers of later passes differ from the "
                        "first pass")
    # per item: its median over the passes, raw and scaled
    report.update({
        "item_s": [statistics.median(t) for t in zip(*passes.latencies)],
        "item_scaled_s": [statistics.median(t)
                          for t in zip(*passes.scaled)],
        "burst_median_s": statistics.median(passes.bursts),
        "pass_walls": passes.walls,
        "attempted": attempted, "failed": failed, "refused": passes.refused,
        "failures": failures, "peak_rss_mb": passes.peak_rss_mb,
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
