"""CPU speed calibration.

The virtual CPUs this benchmark was built on change speed, each on its
own, for spells of a second to a minute; in the slow state Python code
runs up to 1.7x longer. Wall times taken in different spells are not
comparable, so every latency the benchmark reports is divided by the mean
of ``factor()`` measured on the same CPU just before and just after the
operation: times read as milliseconds at the reference speed.

The kernel is a dict update on tuple keys, the kind of work that
dominates hesschrom. Over 176 alternating samples, medians of 20
consecutive wall times ranged over 32% (a cold ``xg`` request) and 64%
(a warm in-process call); divided by this kernel, over 7% and 10%. A
plain arithmetic loop corrected cold requests as well but warm calls only
half as well.
"""

from __future__ import annotations

import time

LOOPS = 15_000
# spin() in the fast state of the reference machine (2-vCPU Xeon at
# 2.0 GHz, Python 3.11)
REFERENCE_S = 0.0035


def spin() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(LOOPS):
        key = (i % 997, i % 13)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def factor() -> float:
    """Current slowness relative to the reference: 1.5 means the CPU runs
    at two thirds of the reference speed."""
    return min(spin(), spin()) / REFERENCE_S
