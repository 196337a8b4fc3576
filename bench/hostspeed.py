"""Gauge how fast the shared host runs at the moment, with a fixed task.

The host this benchmark runs on gives it a few vCPUs of a shared machine,
whose speed swings with its neighbours' load: a command's wall time (and its
CPU time, which follows it) changes by up to half from one half-minute to the
next, and a whole run of a workload cannot outlast these swings. The
benchmark therefore times this fixed task just before and just after every
timed process and scales the process's wall time by the task's reference time
over its time at that moment (`scaled`). The task never calls expanderlab, so
a change to the program moves the scaled times exactly as it moves the wall
times.

The task is a dense symmetric eigensolve (LAPACK, one thread). Of the tasks
tried alongside the workloads' commands, it followed their wall times best;
a pure-Python BFS swings about twice as far as the commands do, so scaling by
it adds noise instead of removing it (README.md, "Host noise").
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The task's median time on the host the reference figures come from (a
# 2-vCPU Intel Xeon VM at 2.1 GHz, CPython 3.11.7, numpy 2.4.6 on
# scipy-openblas 0.3.31, one BLAS thread). Scaled times are seconds at that
# host's typical speed.
REFERENCE_S = 0.0055
SAMPLES = 40  # task timings per gauge (about 0.2 s); their median is its reading

_M = np.random.default_rng(2).standard_normal((300, 300))
_M = _M + _M.T


def _task() -> float:
    start = time.perf_counter()
    np.linalg.eigvalsh(_M)
    return time.perf_counter() - start


def gauge() -> list[float]:
    """SAMPLES timings of the task, in seconds."""
    return [_task() for _ in range(SAMPLES)]


def scaled(wall: float, before: list[float], after: list[float]) -> float:
    """`wall` in seconds at the reference speed, from the gauges around it."""
    return wall * REFERENCE_S / statistics.median(before + after)


_task()  # warm-up: the first call pays for LAPACK's first use
