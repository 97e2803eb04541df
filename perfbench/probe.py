"""The reference probe: a fixed kernel timed beside every measured slot.

CPU time on a shared box drifts by tens of percent within minutes (a
fixed loop's CPU time has been seen to range over 1.6x with no steal
time reported).  The probe is timed in the same process, right after
the work it steadies, so each slot's time can be scaled by
``PROBE_NOMINAL_* / probe_measured`` — a slot measured while the box
ran slow is scaled down by as much as the probe was slowed.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from typing import Dict, Sequence, Tuple

import numpy as np

#: The probe's time on the box the figures in README.md come from, as
#: measured between slots (about 1.5 ms in the classroom server, 1.2 ms
#: in the simulator; back to back, with its data still cached, 0.75 ms).
#: Only the ratio to a measured probe matters; a different box keeps
#: its figures comparable with each other, not with these constants.
PROBE_NOMINAL_CPU_S = 0.0014
PROBE_NOMINAL_WALL_S = 0.0014

_LOOP_ITERATIONS = 3500
_NUMPY_ROUNDS = 15
_VECTOR = np.linspace(0.5, 1.5, 257)
_OBJECT_STEPS = 400
_GATHER_ROUNDS = 3
_random = random.Random(12345)
#: A fixed 8000-record table walked in a fixed random order, and a
#: 1 MiB array gathered at fixed random indices: the program's own work
#: between two probes evicts them, so the probe misses in cache and
#: slows when a neighbour contends for caches or memory, as the
#: program's object graphs do.  Together they add about 2.5 MiB to the
#: resident set of every process that probes.
_TABLE = [(_random.random(), _random.randrange(1 << 20), str(i)) for i in range(8000)]
_ORDER = _random.sample(range(len(_TABLE)), _OBJECT_STEPS)
_ARRAY = np.random.default_rng(7).random(1 << 17)
_GATHER = np.random.default_rng(8).integers(0, 1 << 17, 4096)


class _Record:
    __slots__ = ("value", "bits")

    def __init__(self, value: float, bits: int) -> None:
        self.value = value
        self.bits = bits


def _kernel() -> float:
    """Fixed work in three parts, mirroring the program's own mix.

    A pure-Python integer loop with small numpy calls (the slot
    pipeline's interpreter-bound code and short kernels), object churn
    over a table larger than the private caches (dicts, attributes,
    allocation, a sort), and numpy gathers over a 1 MiB array.  Each
    part alone tracks the simulator's slowdowns less well than the
    three together.  The result is returned so no step is dead.
    """
    acc = 0
    for i in range(_LOOP_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFF
    vector = _VECTOR
    total = 0.0
    for _ in range(_NUMPY_ROUNDS):
        vector = np.sort(vector * 1.0001)[::-1]
        total += float(np.dot(vector, vector))
    index: Dict[str, _Record] = {}
    for position in _ORDER:
        value, bits, key = _TABLE[position]
        record = _Record(value, bits)
        index[key] = record
        total += record.value * 0.5 + (record.bits & 7)
    total += sorted(index.values(), key=lambda r: r.value)[0].value
    for _ in range(_GATHER_ROUNDS):
        total += float(_ARRAY[_GATHER].sum())
        total += float(np.cumsum(_ARRAY[:16384])[-1])
    return acc + total


def run_probe() -> Tuple[float, float]:
    """Run the kernel once; returns ``(wall_s, cpu_s)`` it took."""
    wall_start = time.perf_counter()
    cpu_start = time.thread_time()
    _kernel()
    cpu_s = time.thread_time() - cpu_start
    wall_s = time.perf_counter() - wall_start
    return wall_s, cpu_s


def unnormalized(raw: float, probe_s: float, nominal_s: float) -> float:
    """The raw figure, for printing beside its normalized one."""
    return raw


def normalize(raw: float, probe_s: float, nominal_s: float) -> float:
    """Scale one measured time by ``nominal / probe`` for its slot."""
    if probe_s <= 0:
        raise ValueError(f"probe time must be positive, got {probe_s}")
    return raw * (nominal_s / probe_s)


#: Probe readings pooled (a centred running median) per slot's figure:
#: one ~1 ms reading scatters by about +-30% on its own, while the
#: box's drift moves over seconds.
PROBE_WINDOW = 5


class ProbeTrack:
    """Probe readings by slot, smoothed by a centred running median."""

    def __init__(self, readings: Sequence[Tuple[int, float]]) -> None:
        if not readings:
            raise ValueError("a probe track needs at least one reading")
        ordered = sorted(readings)
        self._slots = [slot for slot, _ in ordered]
        values = [value for _, value in ordered]
        half = PROBE_WINDOW // 2
        self._smoothed = [
            statistics.median(values[max(0, i - half): i + half + 1])
            for i in range(len(values))
        ]

    def at(self, slot: int) -> float:
        """The smoothed reading of the first probe at or after ``slot``."""
        index = bisect.bisect_left(self._slots, slot)
        return self._smoothed[min(index, len(self._smoothed) - 1)]

    def median(self) -> float:
        return statistics.median(self._smoothed)
