"""signforge benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload certify-mixed --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the library is imported from ./src.
With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run.  Every answer is checked against a reference; a wrong, refused or
raising item counts as failed.  The lines before it are a readable report
(host record, calibration, error rate, failures); the full report is also
written to perfbench/out/.

Set-up time is sampled in fresh interpreters (SETUP_SAMPLES of them, the
workload's own process included) and reported as the median.  The
workload process answers items in passes for --seconds; each item's time
is its median over the passes, wall_s is the sum of those times and the
latency quantiles are taken over them.  Every reported time is scaled to
the reference host speed by calibration bursts timed next to it
(hostspeed.py); the raw times are in the report.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
CALIBRATION_LOOPS = 3_000_000
# the whole run has to end within 180 s
RUN_LIMIT_S = 170.0

now = hostspeed.now


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; tells a slow host apart in
    the report."""
    t0 = now()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i & 7
    return now() - t0


def host_record() -> dict:
    versions = {}
    for dist in ("numpy", "networkx"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(), **versions}


def worker(args, extra: list, started: float) -> dict:
    """Run worker.py to completion and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    left = RUN_LIMIT_S - (now() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list, q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    started = now()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "signforge" / "__init__.py").is_file():
        print(f"no signforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        print("--seconds must be between 1 and 60", file=sys.stderr)
        return 64

    host = host_record()
    calibration = [calibrate()]
    setup, setup_scaled = [], []

    def setup_sample(reply: dict, t0: float) -> None:
        setup.append(reply["ready"] - t0)
        setup_scaled.append(setup[-1] * reply["setup_scale"])

    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            t0 = now()
            setup_sample(worker(args, ["--setup-only"], started), t0)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    extra = ["--spans-out", str(OUT / f"{stem}-spans.tsv.gz")] \
        if args.trace else []
    t0 = now()
    rep = worker(args, extra, started)
    setup_sample(rep, t0)
    calibration.append(calibrate())

    lat_ms = [1e3 * x for x in rep["item_scaled_s"]]
    raw_ms = [1e3 * x for x in rep["item_s"]]
    raw = {"setup_s": statistics.median(setup), "wall_s": sum(rep["item_s"]),
           "item_p50_ms": quantile(raw_ms, 50),
           "item_p90_ms": quantile(raw_ms, 90)}
    if args.trace:
        values = rep["layers"]
    else:
        values = {"setup_s": statistics.median(setup_scaled),
                  "wall_s": sum(rep["item_scaled_s"]),
                  "item_p50_ms": quantile(lat_ms, 50),
                  "item_p90_ms": quantile(lat_ms, 90),
                  "peak_rss_mb": rep["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    error_rate = rep["failed"] / rep["attempted"]
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "host": host,
            "calibration_s": calibration,
            "calibration_loops": CALIBRATION_LOOPS,
            "burst_median_s": rep["burst_median_s"],
            "reference_burst_s": hostspeed.REFERENCE_BURST_S,
            "setup_samples_s": setup, "setup_samples_scaled_s": setup_scaled,
            "passes": len(rep["pass_walls"]),
            "pass_walls_s": rep["pass_walls"],
            "items_per_pass": rep["items_per_pass"],
            "item_s": rep["item_s"],
            "item_scaled_s": rep["item_scaled_s"], "raw": raw,
            "error_rate": error_rate,
            "guard_refusals": rep["refused"], "failures": rep["failures"],
            "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  host {json.dumps(host)}")
    print(f"calibration {CALIBRATION_LOOPS} loops: start "
          f"{calibration[0]:.3f} s, end {calibration[1]:.3f} s; "
          f"burst median {1e3 * rep['burst_median_s']:.3f} ms, reference "
          f"{1e3 * hostspeed.REFERENCE_BURST_S:.3f} ms")
    print(f"{len(rep['pass_walls'])} passes of {rep['items_per_pass']} items; "
          f"error_rate {error_rate:.4f} "
          f"({rep['failed']} of {rep['attempted']} failed, "
          f"{rep['refused']} refused by a guard)")
    for line in rep["failures"]:
        print(f"  FAILED {line}")
    for name, m in metrics.items():
        unscaled = (f"  (raw {raw[name]:.6g})" if name in raw
                    and not args.trace else "")
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{unscaled}")
    print(json.dumps({"correct": rep["failed"] == 0,
                      "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
