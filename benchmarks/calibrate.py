"""Calibration kernel: fixed work whose time tracks the machine's speed.

On a shared host the same code runs up to 25% slower or faster for tens
of seconds at a time, as other tenants come and go. Longer runs do not
average that out, because the slow and fast spells last longer than a
run. So the benchmark times this kernel next to every timed op and
scales each op time by ``REFERENCE_S / kernel time``: the time the op
would take on a machine that runs the kernel in ``REFERENCE_S``. The
kernel does the kinds of work the package's hot paths do (interpreted
loops, ``json.loads``, ``float`` parsing) and none of the package's code,
so a change to the package moves the scaled times fully.
"""

from __future__ import annotations

import json
from time import perf_counter

# Kernel time on the machine the benchmark was tuned on (2 vCPUs of an
# x86-64 VM, CPython 3.11) when that machine was not slowed down.
REFERENCE_S = 0.005

_DOC = json.dumps({"people": [{"pose_keypoints_2d": [i * 1.5 for i in range(75)]}]})
_CELLS = [repr(i * 0.37) for i in range(75)]


def kernel() -> int:
    total = 0
    for i in range(50000):
        total += i * i % 7
    for _ in range(70):
        total += len(json.loads(_DOC)["people"])
        total += len([float(c) for c in _CELLS])
    return total


def scale() -> float:
    """Factor that turns a time measured now into a reference-speed time."""
    t0 = perf_counter()
    kernel()
    return REFERENCE_S / (perf_counter() - t0)
