"""The ``sim-30`` workload: Fig. 3's trace-driven simulator in one process.

One spawned process constructs a fresh :class:`TraceSimulator` per
episode and runs fresh episodes (``0, 1, 2, ...`` of the run's seed)
with :class:`DensityValueGreedyAllocator` until the run's time is up.
No server, no sockets: this is the research path, which bypasses
``repro.system.server`` and ``repro.serve``.

Slot boundaries come from wrapping the scheduler's public methods:
an episode's first ``build_slot_problem`` call ends its set-up, and
every ``record_outcomes`` return ends a slot.  Every
``PROBE_EVERY`` slots the reference probe runs there, between slots;
each slot is scaled by the probe that follows it (smoothed, see
:class:`perfbench.probe.ProbeTrack`).
"""

from __future__ import annotations

import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from perfbench import checks
from perfbench.common import peak_rss_mb, pin
from perfbench.probe import run_probe
from perfbench.spans import SpanLog

#: Slots per probe reading in the simulator (a slot takes ~3 ms).
PROBE_EVERY = 4
#: Every this many slots, Algorithm 1's allocation is checked against
#: half the fractional bound V_p.
HALF_BOUND_EVERY = 60


class _SlotClock:
    """Slot and set-up timings of one simulator process."""

    def __init__(self, log: Optional[SpanLog]) -> None:
        self.log = log
        #: (setup_s, slot index of the episode's first slot) per episode.
        self.setups: List[Tuple[float, int]] = []
        #: (wall_s, cpu_s) per slot.
        self.slots: List[Tuple[float, float]] = []
        #: (index of the last slot probed for, probe_wall_s, probe_cpu_s).
        self.probes: List[Tuple[int, float, float]] = []
        self._unprobed = 0
        self._episode_start = 0.0
        self._awaiting_first = False
        self._wall = 0.0
        self._cpu = 0.0

    def begin_episode(self) -> None:
        self._episode_start = time.perf_counter()
        self._awaiting_first = True

    def first_slot(self) -> None:
        """Set-up ends: start the first slot's clock."""
        if not self._awaiting_first:
            return
        setup_s = time.perf_counter() - self._episode_start
        self.setups.append((setup_s, len(self.slots)))
        self._awaiting_first = False
        self._restart()

    def end_slot(self) -> None:
        wall = time.perf_counter()
        cpu = time.process_time()
        self.slots.append((wall - self._wall, cpu - self._cpu))
        self._unprobed += 1
        if self.log is not None:
            self.log.slot += 1
        if self._unprobed >= PROBE_EVERY:
            self.flush()
        else:
            self._wall = wall
            self._cpu = cpu

    def flush(self) -> None:
        if not self._unprobed:
            return
        probe_wall, probe_cpu = run_probe()
        self.probes.append((len(self.slots) - 1, probe_wall, probe_cpu))
        self._unprobed = 0
        self._restart()

    def _restart(self) -> None:
        self._wall = time.perf_counter()
        self._cpu = time.process_time()


def _install(clock: _SlotClock, log: Optional[SpanLog], decisions: List[Any]) -> None:
    from repro.content.rate import RateModel
    from repro.core.scheduler import CollaborativeVrScheduler
    from repro.prediction.fov import CoverageEvaluator
    from repro.simulation.delaymodel import MM1DelayModel

    if log is not None:
        # Spans first, so they sit inside the timing hooks below and
        # never cover a probe.
        log.wrap(CollaborativeVrScheduler, "build_slot_problem", "core.problem")
        log.wrap(CollaborativeVrScheduler, "allocate", "core.solve")
        log.wrap(RateModel, "curve", "content.curve")
        log.wrap(CoverageEvaluator, "evaluate", "simulation.coverage")
        log.wrap(MM1DelayModel, "delay", "simulation.delay")
        log.wrap_returned(MM1DelayModel, "delay_fn", "simulation.delay")

    build = CollaborativeVrScheduler.build_slot_problem
    allocate = CollaborativeVrScheduler.allocate
    record = CollaborativeVrScheduler.record_outcomes

    def build_slot_problem(self: Any, *args: Any, **kwargs: Any) -> Any:
        clock.first_slot()
        return build(self, *args, **kwargs)

    def allocate_hook(self: Any, problem: Any) -> Any:
        levels = allocate(self, problem)
        decisions.append((problem, levels))
        return levels

    def record_outcomes(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = record(self, *args, **kwargs)
        clock.end_slot()
        return result

    CollaborativeVrScheduler.build_slot_problem = build_slot_problem
    CollaborativeVrScheduler.allocate = allocate_hook
    CollaborativeVrScheduler.record_outcomes = record_outcomes


def _episode_outputs(
    decisions: List[Any], slot_s: float, log: Optional[SpanLog]
) -> Tuple[float, int, List[float]]:
    """(payload bytes, user-slots, sampled V_p ratios) of one episode."""
    if log is not None:
        log.paused = True
    payload = 0.0
    user_slots = 0
    ratios: List[float] = []
    for index, (problem, levels) in enumerate(decisions):
        for user, level in zip(problem.users, levels):
            if level > 0:
                payload += user.sizes[level - 1] * 1e6 * slot_s / 8.0
        user_slots += len(levels)
        if index % HALF_BOUND_EVERY == HALF_BOUND_EVERY // 2:
            ratios.append(
                checks.half_bound_ratio(
                    [problem.objective_curve(n) for n in range(problem.num_users)],
                    [user.sizes for user in problem.users],
                    [user.cap_mbps for user in problem.users],
                    problem.budget_mbps,
                    levels,
                )
            )
    if log is not None:
        log.paused = False
    return payload, user_slots, ratios


def sim_child(
    conn: Any,
    users: int,
    slots: int,
    seed: int,
    seconds: float,
    traced: bool,
    cpu: Optional[int],
    span_path: Optional[str],
) -> None:
    """Spawned entry point: run episodes, send the readings back."""
    pin(cpu)
    from repro.core.allocation import DensityValueGreedyAllocator
    from repro.simulation.simulator import SimulationConfig, TraceSimulator

    log = SpanLog() if traced else None
    clock = _SlotClock(log)
    decisions: List[Any] = []
    _install(clock, log, decisions)
    config = SimulationConfig(num_users=users, duration_slots=slots, seed=seed)
    qualities: List[float] = []
    qoes: List[float] = []
    payload = 0.0
    user_slots = 0
    ratios: List[float] = []
    failed = 0
    episodes = 0
    deadline = time.perf_counter() + seconds
    while True:
        clock.begin_episode()
        decisions.clear()
        try:
            simulator = TraceSimulator(config)
            result = simulator.run_episode(DensityValueGreedyAllocator(), episodes)
        except Exception:  # an operation failing is a counted outcome
            traceback.print_exc(file=sys.stderr)
            failed += 1
        else:
            clock.flush()
            qualities.extend(user.quality for user in result.users)
            qoes.extend(user.qoe for user in result.users)
            ep_payload, ep_user_slots, ep_ratios = _episode_outputs(
                decisions, config.slot_s, log
            )
            payload += ep_payload
            user_slots += ep_user_slots
            ratios.extend(ep_ratios)
        episodes += 1
        if time.perf_counter() >= deadline:
            break
    decisions.clear()
    reply: Dict[str, Any] = {
        "episodes": episodes,
        "failed": failed,
        "users": users,
        "setups": clock.setups,
        "slots": clock.slots,
        "probes": clock.probes,
        "qualities": qualities,
        "qoes": qoes,
        "payload_bytes": payload,
        "user_slots": user_slots,
        "ratios": ratios,
        "rss_mb": peak_rss_mb(),
    }
    if log is not None:
        reply["self_s"] = log.self_times()
        reply["span_slots"] = log.slot
        if span_path is not None:
            log.write(span_path, "simulator")
    conn.send(reply)
    conn.close()
