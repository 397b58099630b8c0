"""A fixed reference workload that measures the host's momentary speed.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent within seconds and by up to 2x between phases of minutes;
thread CPU time drifts just as much, so the noise is the CPU's own speed,
not preemption.  Every time the benchmark reports is therefore expressed
at a reference host speed: short samples of this module's loop run on
the same CPU right before the timed work (or alongside it, for the
service), and the time is scaled by ``REFERENCE_S`` over the samples'
median.

The loop imitates what the simulator spends its time on - a heap-ordered
event queue of small slotted objects, dict counters and integer mixing -
and never changes with the program, so a faster program still reads
faster.  Changing the loop or ``REFERENCE_S`` changes every reported
time; do it only together with a new baseline.

Run as a script, it samples in the background and writes the samples at
exit (``serve-mixed`` uses this on its worker's CPU)::

    python3 perfbench/yardstick.py --cpu 1 --period 0.05 --out FILE

It samples until its standard input closes; the file holds a JSON list
of ``[start, seconds]`` pairs on the ``time.perf_counter`` clock (which
is system-wide on Linux).
"""

from __future__ import annotations

import gc
import heapq
import time

#: Nominal seconds of one sample at the reference host speed (about the
#: median on a 2-vCPU x86 VM at 2.1 GHz in a fast phase; slow phases read
#: up to 1.9 ms).
REFERENCE_S = 0.001

#: Events popped per sample.
EVENTS = 1400


class _Item:
    __slots__ = ("when", "value")

    def __init__(self, index: int) -> None:
        self.when = index
        self.value = index * 3


_ITEMS = [_Item(index) for index in range(512)]


def _loop(events: int = EVENTS) -> int:
    items = _ITEMS
    for index, item in enumerate(items):
        item.when = index
        item.value = index * 3
    counts: dict[int, int] = {}
    heap = [(index, index, items[index]) for index in range(64)]
    heapq.heapify(heap)
    order = 64
    total = 0
    for _ in range(events):
        when, _, item = heapq.heappop(heap)
        key = item.value & 1023
        counts[key] = counts.get(key, 0) + 1
        item.value = (item.value * 1103515245 + 12345) & 0xFFFF
        total += when
        heapq.heappush(heap, (when + 1 + (item.value & 7), order,
                              items[item.value & 511]))
        order += 1
    return total


def sample() -> float:
    """Seconds one pass of the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float]) -> float:
    """The factor that brings times measured alongside ``samples`` to the
    reference speed: ``REFERENCE_S`` over the samples' median."""
    ordered = sorted(samples)
    return REFERENCE_S / ordered[len(ordered) // 2]


#: Samples taken at each end of a set-up.
SETUP_SAMPLES = 8

_setup_samples: list[float] = []


def start_setup() -> float:
    """Sample the speed, then return the set-up's start time.

    Set-up spans a second or so of imports, compiling and process starts,
    so it is scaled by samples from both of its ends (see
    :func:`setup_seconds`).
    """
    _setup_samples[:] = [sample() for _ in range(SETUP_SAMPLES)]
    return time.perf_counter()


def setup_seconds(started: float) -> float:
    """The set-up time since ``started`` (from :func:`start_setup`), at
    the reference speed."""
    elapsed = time.perf_counter() - started
    late = [sample() for _ in range(SETUP_SAMPLES)]
    return elapsed * scale(_setup_samples + late)


def main(argv=None) -> int:
    import argparse
    import json
    import os
    import sys
    import threading

    parser = argparse.ArgumentParser(description="Sample the reference loop "
                                                 "until standard input closes.")
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--period", type=float, required=True,
                        help="seconds from one sample's start to the next")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()),
                     daemon=True).start()
    samples = []
    while not stop.is_set():
        start = time.perf_counter()
        samples.append((start, sample()))
        stop.wait(max(0.0, start + args.period - time.perf_counter()))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
