"""Host speed, measured with a fixed burst of pure-Python work.

The benchmark runs on shared virtual machines whose speed drifts by a
factor of two over minutes and swings by tens of percent from one second
to the next.  A short burst of fixed work, timed before every item and
every SAMPLE_EVERY_S inside it, tracks that speed; the end-to-end times
are scaled by ``REFERENCE_BURST_S / burst time``, which makes them
seconds at the reference speed.  The burst runs no signforge code, so a
change to the library moves the scaled times by the same factor as the
raw ones.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

# The burst's median time on the reference host (a 2-vCPU x86_64 virtual
# machine, Python 3.11.7) in a fast minute.  It sets the scale only.
REFERENCE_BURST_S = 1.2e-3
# bursts taken right after set-up, to scale the set-up time
SETUP_BURSTS = 15
# item i is scaled by the median of the bursts i-WINDOW .. i+WINDOW+1
# (burst i runs just before item i, burst i+1 just after it) and of the
# bursts taken inside it
WINDOW = 3
# a burst every this many seconds inside an item: about 1% of its time
SAMPLE_EVERY_S = 0.1

now = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


# the Petersen graph: vertex -> [(neighbour, edge id)]
_ADJ: dict = {v: [] for v in range(10)}
for _e, (_u, _v) in enumerate(
        [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]):
    _ADJ[_u].append((_v, _e))
    _ADJ[_v].append((_u, _e))


def _cycles_through(start: int) -> list:
    """Edge sets of the cycles whose least vertex is ``start``."""
    out = []

    def dfs(v, seen, path):
        for w, e in _ADJ[v]:
            if w == start and len(path) > 2:
                out.append(frozenset(path + [e]))
            elif w > start and w not in seen:
                seen.add(w)
                path.append(e)
                dfs(w, seen, path)
                path.pop()
                seen.discard(w)

    dfs(start, {start}, [])
    return out


def burst() -> float:
    """Seconds for a fixed mix of the interpreter work signforge does:
    recursive search with sets and frozensets, dict and tuple updates, a
    keyed sort, bit counting and itertools.product.  Short items tracked
    the host's speed better with this mix than with a plain integer loop."""
    t0 = now()
    cycles = set()
    for start in range(3):
        cycles.update(_cycles_through(start))
    counts: dict = {}
    for i in range(1000):
        key = (i & 63, i & 7)
        counts[key] = counts.get(key, 0) + 1
    sorted(([i % 97, (i * 7) % 31, i] for i in range(600)),
           key=lambda r: (r[1], -r[2]))
    sum(bin(mask & 0x155).count("1") for mask in range(1 << 9))
    sum(1 for p in itertools.product(range(3), repeat=5) if sum(p) == 5)
    return now() - t0


class Sampler:
    """Times bursts inside an item from a SIGALRM handler, so a long item's
    speed is sampled throughout and not only at its ends.  ``stop`` returns
    the bursts and the seconds the handler took before a given instant,
    which the caller takes out of the item's latency.  The handler runs
    between two bytecodes of the item, in the one thread."""

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _handler(self, signum, frame):
        t0 = now()
        self._bursts.append(burst())
        self._spent.append((t0, now() - t0))

    def start(self) -> None:
        self._bursts, self._spent = [], []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self, until: float) -> tuple:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self._bursts, sum(d for t, d in self._spent if t < until)


def scale(bursts: list) -> float:
    """Factor from measured to reference seconds, from a list of bursts."""
    return REFERENCE_BURST_S / statistics.median(bursts)


def scaled_latencies(latencies: list, bursts: list, inside: list) -> list:
    """Each latency scaled by the bursts around and inside it; ``bursts``
    has one more entry than ``latencies``, ``inside`` one list per item."""
    return [lat * scale(bursts[max(0, i - WINDOW):i + WINDOW + 2] + within)
            for i, (lat, within) in enumerate(zip(latencies, inside))]
