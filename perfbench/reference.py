"""A fixed reference loop that measures how fast this machine runs Python right now.

On a shared host the interpreter's speed drifts by tens of percent over
minutes as other tenants come and go, and every timing of ergolab drifts with
it.  Each invocation's own interpreter runs passes of this loop right after
the invocation, in the same process and on the same CPU, and the benchmark
reports the invocation's wall time in units of one pass (`wall_norm`), which
cancels that drift.  The loop does not depend on ergolab and never changes
with it: it does the kinds of work ergolab's layers do (exact Fractions, tuple
keys in a dict, small numpy array operations) in fixed amounts, on data small
enough that where a process's memory lands does not change its speed.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import List

import numpy as np

PASS_STEPS = 3000  # one pass takes about 40 ms on a 2-vCPU cloud VM
MIN_PASSES = 3
REF_SHARE = 0.2  # reference-loop time after each invocation, as a share of its wall time


def one_pass() -> tuple:
    acc = Fraction(0)
    counts: dict = {}
    base = np.arange(24, dtype=float)
    total = 0.0
    for i in range(1, PASS_STEPS + 1):
        acc += Fraction(i % 11, 3 * i + 1)
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
        total += float(np.abs(base - (i % 24)).sum())
    return acc, len(counts), total


def median_pass(budget_s: float) -> float:
    """Median wall seconds of one pass, over passes repeated until `budget_s` is spent."""
    times: List[float] = []
    while len(times) < MIN_PASSES or sum(times) < budget_s:
        start = time.perf_counter()
        one_pass()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
