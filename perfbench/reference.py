"""Reference loop that gauges how fast the host runs the program right now.

On a shared virtual machine the same code runs up to 2x slower at times the
benchmark cannot control (2-vCPU Xeon of the baseline, no steal time
reported): each vCPU slows in phases from under a second to minutes, and a
single-threaded worker stays on one vCPU for a whole run. In ten 40-second
runs of the same code the raw median op time of `simulate` spread by 20%
and its fastest op by 42% (quartile distance over median). So the worker
times this loop right before and right after every op, and the runner
reports op times scaled to the loop's nominal speed: op time * REFERENCE_S
/ (time of the loop around that op). The loop draws scalar binomial and
Poisson variates from a Philox generator in a Python loop and stores them
in a numpy array, the inner loop of the seed code's simulators, so the host
slows it by much the same factor as the program: in the same ten runs the
median scaled op time spread by 8.5% (`simulate`), 7.6% (`check`) and 3.0%
(`appendix`, whose raw median spread by 11%). A plain integer loop tracked
the program badly (their ratio moved by 24% between 10-second windows).

The loop is fixed: same key, same parameters, same length every time, and
nothing in it depends on inarq. If a change to the program alters its inner
loops (vectorized simulators, say), the host may slow the program and the
loop by different factors; compare the raw op times the runner reports
alongside as well.
"""

from __future__ import annotations

import time

import numpy as np

STEPS = 10_000  # per call; the runner calls it twice around every op
# Seconds for the two calls around one op on the 2-vCPU Xeon of the baseline
# (Python 3.11.7, numpy 2.4.6) when the host did not slow it: the fastest
# pair observed there.
REFERENCE_S = 0.027


def reference() -> float:
    """Seconds the fixed loop takes now."""
    gen = np.random.Generator(np.random.Philox(key=np.array([0, 1], dtype=np.uint64)))
    out = np.empty(STEPS, dtype=np.int64)
    start = time.perf_counter()
    x = 3
    for t in range(STEPS):
        x = int(gen.binomial(x, 0.52)) + int(gen.poisson(1.62))
        out[t] = x
    return time.perf_counter() - start
