"""Speed probe: fixed reference work for scaling times to one machine speed.

On a shared machine the same code runs up to a quarter faster or slower
from one minute to the next, and raw end-to-end times drift with it.  The
probe is a fixed piece of work that shares no code with pnbounds: Python
loops, dict building, JSON encoding and small dense solves, the kind of
steps a report is made of.  Runs interleave probes with the reports; a
time, divided by the median time of the probes run next to it and
multiplied by ``PROBE_REF_MS``, is the time at the reference speed.  A
change to pnbounds moves the reports and not the probe.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Probe time at the reference speed: a shared 2-core 2.1 GHz Xeon virtual
#: machine, one thread, at its faster moments.
PROBE_REF_MS = 1.5

_MATRIX = np.arange(400.0).reshape(20, 20) + 50.0 * np.eye(20)


def probe() -> int:
    """Run the reference work once and return its wall time in ns."""
    start = time.perf_counter_ns()
    for _ in range(20):
        np.linalg.solve(_MATRIX, _MATRIX[0])
    json.dumps({f"k{i}": [i * 0.5, i] for i in range(200)})
    total = 0
    for i in range(20000):
        total += i % 7
    return time.perf_counter_ns() - start


def probe_for(ns: float, share: float = 0.02) -> list[int]:
    """Probe until the probes took ``share`` of ``ns``, at least once."""
    times = [probe()]
    while sum(times) < share * ns:
        times.append(probe())
    return times


def scale(probe_ns: list[int]) -> float:
    """Factor that takes a time measured alongside these probes to the reference speed."""
    return PROBE_REF_MS * 1e6 / float(np.median(probe_ns))
