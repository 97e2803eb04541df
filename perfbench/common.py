"""Process placement, resource readings, and summary statistics."""

from __future__ import annotations

import os
import resource
from typing import Any, List, Optional, Sequence

import numpy as np


def pick_cpus() -> List[Optional[int]]:
    """Two CPUs for (server or simulator, fleet); ``None`` = no pinning.

    With at least two usable CPUs each process gets its own, following
    the usual core-pinning practice for load generators; with one CPU
    nothing is pinned.  Only this benchmark's own processes are
    placed — no machine setting is read or changed.
    """
    usable = sorted(os.sched_getaffinity(0))
    if len(usable) < 2:
        return [None, None]
    return [usable[0], usable[1]]


def pin(cpu: Optional[int]) -> None:
    """Pin the calling process to ``cpu`` (no-op for ``None``)."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def reap(process: Any, grace_s: float = 30.0) -> None:
    """Wait for a child process to end: terminate it, then kill it, if it will not."""
    process.join(timeout=grace_s)
    if process.is_alive():
        process.terminate()
        process.join(timeout=10)
    if process.is_alive():
        process.kill()
        process.join()


def peak_rss_mb() -> float:
    """Peak resident set size of the calling process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)
