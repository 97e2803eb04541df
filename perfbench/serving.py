"""The serving workloads: ``classroom-128`` and ``paced-8``.

Each session spawns the edge server (:class:`VrServeServer`) in a
process of its own and points one long-lived fleet process at it; the
fleet runs :func:`repro.serve.mux.run_mux_fleet`, multiplexing every
emulated phone over at most ``nproc`` sockets from a single thread.
With two or more CPUs the server and the fleet are pinned to CPUs of
their own.

The reference probe runs in the server once per slot, right after the
slot's frames are sent — where :meth:`SlotLoop.wait_slots` wakes — so
it fills a gap where the server would otherwise wait for reports (or
for the next tick).  Each slot's server CPU time and each of its
seat-slots' frame latency is scaled by ``nominal / probe`` for that
slot.

All timestamps that cross processes are ``time.monotonic()``, the
clock asyncio's loop reads, shared by every process on the host.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import checks
from perfbench.common import median, peak_rss_mb, percentile, pin, reap
from perfbench.probe import (
    PROBE_NOMINAL_CPU_S,
    PROBE_NOMINAL_WALL_S,
    ProbeTrack,
    normalize,
    run_probe,
    unnormalized,
)
from perfbench.spans import SpanLog

#: Routers per seat in the scaled classroom: one 400 Mbps router per 8.
SEATS_PER_ROUTER = 8

#: Session seeds of one run seed: ``seed * SESSIONS_PER_SEED + index``.
SESSIONS_PER_SEED = 1000

_PIPE_TIMEOUT_S = 120.0
#: Least time left before a paced slot's next tick for the probe to run.
_PROBE_SLACK_S = 3 * PROBE_NOMINAL_WALL_S


@dataclass(frozen=True)
class ServeSpec:
    """One serving workload's make-up."""

    seats: int
    slots: int
    lockstep: bool


def serve_config(spec: ServeSpec, seed: int) -> Any:
    """The server's configuration for one session.

    ``classroom-128`` scales setup 1 by the paper's Section VI rule —
    B = 36 Mbps per seat and one 400 Mbps router per 8 seats — which
    ``serve_setup1`` cannot express (it keeps setup 1's single router
    at any seat count).  ``paced-8`` is setup 1 unchanged.
    """
    from repro.serve.config import ServeConfig, serve_setup1
    from repro.system.experiment import setup1_config
    from repro.units import SERVER_MBPS_PER_USER

    if not spec.lockstep:
        return serve_setup1(
            max_users=spec.seats,
            duration_slots=spec.slots + 1,
            seed=seed,
            expect_clients=spec.seats,
        )
    experiment = replace(
        setup1_config(duration_slots=spec.slots + 1, seed=seed),
        num_users=spec.seats,
        num_routers=max(1, math.ceil(spec.seats / SEATS_PER_ROUTER)),
        server_budget_mbps=SERVER_MBPS_PER_USER * spec.seats,
    )
    return ServeConfig(
        experiment=experiment, expect_clients=spec.seats, lockstep=True
    )


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def _install_server_spans(log: SpanLog, fold_entries: List[float]) -> None:
    from repro.content.database import ServerTileCache, TileDatabase
    from repro.content.rate import RateModel
    from repro.core.scheduler import CollaborativeVrScheduler
    from repro.prediction.delay import PolynomialDelayPredictor
    from repro.prediction.fov import CoverageEvaluator
    from repro.prediction.motion import LinearMotionPredictor
    from repro.serve import protocol2
    from repro.serve.slotloop import DataPlane, SlotLoop
    from repro.system.server import EdgeServer

    def served(plan: Any) -> None:
        log.count("seats_served", sum(1 for u in plan.users if u.level > 0))

    def tiles(keys: Any) -> None:
        log.count("tiles", len(keys))

    def looked_up(hit: Any) -> None:
        log.count("cache_lookups")
        if hit:
            log.count("cache_hits")

    log.wrap(EdgeServer, "plan_slot", "system.plan", on_result=served)
    log.wrap(LinearMotionPredictor, "predict", "prediction.motion")
    log.wrap(CoverageEvaluator, "tiles_to_deliver", "prediction.coverage")
    log.wrap(PolynomialDelayPredictor, "predict", "prediction.delay")
    log.wrap(RateModel, "curve", "content.curve")
    log.wrap(CollaborativeVrScheduler, "build_slot_problem", "core.problem")
    log.wrap(CollaborativeVrScheduler, "allocate", "core.solve")
    log.wrap(TileDatabase, "tiles_for", "content.tiles", on_result=tiles)
    log.wrap(TileDatabase, "tile_size_bits", "content.tiles")
    log.wrap(ServerTileCache, "lookup", "content.cache", on_result=looked_up)
    log.wrap(ServerTileCache, "move_to", "content.cache")
    log.wrap(EdgeServer, "complete_slot", "serve.fold")
    log.wrap(EdgeServer, "observe_pose", "serve.fold")
    for attr in ("step", "achieved", "transmit"):
        log.wrap(DataPlane, attr, "serve.netem")
    log.wrap(protocol2, "wire_encode", "serve.encode")
    log.wrap(protocol2.BinaryChannelCodec, "encode_plan_batch", "serve.encode")

    fold = SlotLoop._fold_pending

    def fold_pending(self: Any) -> None:
        # The first stage of every slot: its entry is the slot's start.
        fold_entries.append(time.monotonic())
        fold(self)

    SlotLoop._fold_pending = fold_pending  # type: ignore[method-assign]


def _probe_or_nominal(probe: bool) -> Tuple[float, float]:
    """A probe reading, or the nominal times when the probe is off.

    With the probe off every normalization is the identity, so the
    same bookkeeping yields raw figures; that run shows what the
    probe's own time changes in the program's outputs.
    """
    if probe:
        return run_probe()
    return PROBE_NOMINAL_WALL_S, PROBE_NOMINAL_CPU_S


async def _probe_slots(
    slot_loop: Any,
    num_slots: int,
    readings: Dict[str, Any],
    log: Optional[SpanLog],
    probe: bool,
    next_tick: Optional[Callable[[int], float]],
) -> None:
    """Probe once per slot, right after the slot's frames are sent.

    ``wait_slots(k)`` returns once slot ``k``'s iteration has folded
    slot ``k - 1`` and reached its first wait, i.e. after slot ``k``'s
    sends.  ``wakes`` maps each slot to that moment; a ``records``
    entry is ``(slot, slots_covered, cpu_s, probe_wall_s,
    probe_cpu_s)``, where ``cpu_s`` is the process CPU time since the
    previous probe ended.
    """
    wakes: Dict[int, float] = readings["wakes"]
    records: List[Tuple] = readings["records"]
    last_cpu = time.process_time()
    previous = 0
    k = 1
    while k < num_slots:
        got = await slot_loop.wait_slots(k)
        if got < k or got >= num_slots:
            break
        wake_s = time.monotonic()
        wakes[got] = wake_s
        k = got + 1
        if next_tick is not None and next_tick(got) - wake_s < _PROBE_SLACK_S:
            # A paced slot that left no slack: probing now would push
            # the next slot late.  The next probe covers this slot.
            continue
        cpu_s = time.process_time() - last_cpu
        probe_wall, probe_cpu = _probe_or_nominal(probe)
        records.append((got, got - previous, cpu_s, probe_wall, probe_cpu))
        if log is not None:
            log.slot = got + 1
        last_cpu = time.process_time()
        previous = got


async def _serve(
    conn: Any, config: Any, log: Optional[SpanLog], probe: bool
) -> Dict[str, Any]:
    from repro.serve.server import VrServeServer

    server = VrServeServer(config)
    await server.start()
    conn.send(server.port)
    await server.wait_for_ready(config.expect_clients, config.start_timeout_s)
    ready_s = time.monotonic()
    readings: Dict[str, Any] = {"wakes": {}, "records": []}
    start_s = time.monotonic()
    next_tick = (
        None if config.lockstep
        else lambda slot: start_s + (slot + 1) * config.slot_s
    )
    prober = asyncio.ensure_future(
        _probe_slots(
            server.slot_loop, config.num_tx_slots, readings, log, probe,
            next_tick,
        )
    )
    result = await server.run()
    await prober
    return {
        "ready_s": ready_s,
        "start_s": start_s,
        "wakes": readings["wakes"],
        "records": readings["records"],
        "slots_run": result.slots,
        "missed_reports": result.metrics.missed_reports,
        "degraded_seat_slots": result.metrics.degraded_user_slots,
        "num_levels": server.experiment.database.num_levels,
        "budget_mbps": config.experiment.server_budget_mbps,
        "slot_s": config.slot_s,
    }


def server_child(
    conn: Any,
    spec: ServeSpec,
    seed: int,
    traced: bool,
    probe: bool,
    cpu: Optional[int],
    span_path: Optional[str],
) -> None:
    """Spawned entry point: serve one session, send the readings back."""
    pin(cpu)
    config = serve_config(spec, seed)
    log = SpanLog() if traced else None
    fold_entries: List[float] = []
    if log is not None:
        _install_server_spans(log, fold_entries)
    reply = asyncio.run(_serve(conn, config, log, probe))
    reply["rss_mb"] = peak_rss_mb()
    if log is not None:
        last = config.num_tx_slots - 1
        # Slots 0 and 1 share the first probe interval; slot T only
        # folds the last reports.  Per-slot figures use slots 2..T-1.
        reply["self_s"] = log.self_times(2, last)
        reply["span_slots"] = max(last - 1, 1)
        reply["counts"] = {
            name: log.counted(name, 2, last) for name in log.counts
        }
        reply["fold_entries"] = fold_entries
        if span_path is not None:
            log.write(span_path, "server")
    conn.send(reply)
    conn.close()


# ----------------------------------------------------------------------
# The fleet process
# ----------------------------------------------------------------------
@dataclass
class _FleetRecorder:
    """What the fleet saw in one session."""

    seats: int
    probe: bool
    last_read_s: float = 0.0
    #: (seat, slot, level, demand_mbps, viewed_quality, decoded_s)
    plans: List[Tuple[int, int, int, float, float, float]] = field(
        default_factory=list
    )
    #: slot -> seats reported so far.
    reported: Dict[int, int] = field(default_factory=dict)
    #: slot -> when the last report for it was sent.
    reports_sent: Dict[int, float] = field(default_factory=dict)
    #: (slot, probe_wall_s) once every seat has reported the slot.
    probes: List[Tuple[int, float]] = field(default_factory=list)
    plan_bytes: int = 0
    report_bytes: int = 0


def _install_fleet_hooks(rec: List[_FleetRecorder]) -> None:
    """Always-on fleet hooks: decode stamps, plan views, wire bytes.

    The fleet's own probe runs once every seat has reported a slot —
    the fleet then waits for the next plans — and steadies the
    fleet's share of each frame's latency.
    """
    from repro.serve import mux, protocol2

    wire_read = mux.wire_read
    read_frame = protocol2.read_frame
    evaluate_plan = mux._evaluate_plan
    encode_reports = protocol2.BinaryChannelCodec.encode_report_batch
    answer_plans = mux._MuxLink._answer_plans
    plan_types = (protocol2.TYPE_PLAN, protocol2.TYPE_PLAN_BATCH)

    async def wire_read_hook(reader: Any, wire: Any) -> Any:
        units = await wire_read(reader, wire)
        rec[0].last_read_s = time.monotonic()
        return units

    async def read_frame_hook(reader: Any) -> Any:
        frame = await read_frame(reader)
        if frame is not None and frame[0] in plan_types:
            rec[0].plan_bytes += protocol2.HEADER.size + len(frame[2])
        return frame

    def evaluate_plan_hook(plan: Any, trace: Any, coverage: Any, phone: Any) -> Any:
        report = evaluate_plan(plan, trace, coverage, phone)
        rec[0].plans.append(
            (phone.user_id, plan.slot, plan.level, plan.demand_mbps,
             report.viewed_quality, rec[0].last_read_s)
        )
        return report

    def encode_reports_hook(self: Any, reports: Any) -> Any:
        frames = encode_reports(self, reports)
        rec[0].report_bytes += sum(len(frame) for frame in frames)
        return frames

    async def answer_plans_hook(self: Any, plans: Any) -> None:
        await answer_plans(self, plans)
        sent_s = time.monotonic()
        session = rec[0]
        for slot in sorted({plan.slot for _, plan in plans}):
            session.reported[slot] = session.reported.get(slot, 0) + sum(
                1 for _, plan in plans if plan.slot == slot
            )
            if session.reported[slot] == session.seats:
                session.reports_sent[slot] = sent_s
                probe_wall, _ = _probe_or_nominal(session.probe)
                session.probes.append((slot, probe_wall))

    mux.wire_read = wire_read_hook
    protocol2.read_frame = read_frame_hook
    mux._evaluate_plan = evaluate_plan_hook
    protocol2.BinaryChannelCodec.encode_report_batch = encode_reports_hook
    mux._MuxLink._answer_plans = answer_plans_hook


def _install_fleet_spans(log: SpanLog) -> None:
    from repro.prediction.fov import CoverageEvaluator
    from repro.serve.protocol2 import BinaryChannelCodec
    from repro.system.client import Client

    log.wrap(BinaryChannelCodec, "decode", "mux.decode")
    log.wrap(Client, "receive_frame", "mux.client")
    log.wrap(CoverageEvaluator, "evaluate", "mux.client")


def fleet_child(conn: Any, cpu: Optional[int]) -> None:
    """Spawned entry point: run one mux fleet per command, until ``None``.

    A command is ``(port, seats, seed, connections, traced, probe,
    span_path)``.
    """
    pin(cpu)
    from repro.serve.loadgen import LoadGenConfig
    from repro.serve.mux import run_mux_fleet

    rec = [_FleetRecorder(0, False)]
    _install_fleet_hooks(rec)
    log: Optional[SpanLog] = None
    while True:
        command = conn.recv()
        if command is None:
            break
        port, seats, seed, connections, traced, probe, span_path = command
        rec[0] = _FleetRecorder(seats, probe)
        if traced and log is None:
            log = SpanLog()
            _install_fleet_spans(log)
        if log is not None:
            log.reset()
            log.paused = not traced
        fleet = asyncio.run(
            run_mux_fleet(
                LoadGenConfig(port=port, num_clients=seats, seed=seed),
                connections,
            )
        )
        reply: Dict[str, Any] = {
            "plans": rec[0].plans,
            "reports_sent": rec[0].reports_sent,
            "probes": rec[0].probes,
            "plan_bytes": rec[0].plan_bytes,
            "report_bytes": rec[0].report_bytes,
            "clients": [
                (
                    c.seat,
                    c.end_reason,
                    c.mean_viewed_quality,
                    (c.server_summary or {}).get("qoe", math.nan),
                )
                for c in fleet.clients
            ],
        }
        if traced and log is not None:
            reply["self_s"] = log.self_times()
            if span_path is not None:
                log.write(span_path, "fleet")
        conn.send(reply)
    conn.close()


# ----------------------------------------------------------------------
# The orchestrating parent
# ----------------------------------------------------------------------
def _recv(conn: Any, what: str) -> Any:
    if not conn.poll(_PIPE_TIMEOUT_S):
        raise TimeoutError(f"no {what} within {_PIPE_TIMEOUT_S:.0f} s")
    return conn.recv()


class Fleet:
    """The long-lived fleet process of one benchmark run."""

    def __init__(self, ctx: Any, cpu: Optional[int]) -> None:
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=fleet_child, args=(child, cpu))
        self.process.start()
        child.close()

    def close(self, grace_s: float = 30.0) -> None:
        """Ask the fleet to end and wait ``grace_s`` before stopping it."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        reap(self.process, grace_s)
        self.conn.close()


def run_session(
    ctx: Any,
    fleet: Fleet,
    spec: ServeSpec,
    seed: int,
    traced: bool,
    probe: bool,
    cpus: List[Optional[int]],
    connections: int,
    span_path: Optional[str],
) -> Dict[str, Any]:
    """One server spawn, one fleet run; both processes' readings."""
    conn, child = ctx.Pipe()
    spawned_s = time.monotonic()
    server = ctx.Process(
        target=server_child,
        args=(child, spec, seed, traced, probe, cpus[0], span_path),
    )
    server.start()
    child.close()
    served = None
    try:
        port = _recv(conn, "server port")
        fleet.conn.send(
            (port, spec.seats, seed, connections, traced, probe, span_path)
        )
        served = _recv(conn, "server result")
        seen = _recv(fleet.conn, "fleet result")
    finally:
        # A server that has replied is ending; one that has not is stopped.
        reap(server, grace_s=30.0 if served is not None else 0.0)
        conn.close()
    served["setup_s"] = served["ready_s"] - spawned_s
    return {"server": served, "fleet": seen, "traced": traced, "seed": seed}


def session_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th session: each session is a new world.

    Averaging several worlds per run is what keeps a run's figures
    close to the next run's, whose seed draws other worlds.
    """
    return seed * SESSIONS_PER_SEED + index


def due_times(session: Dict[str, Any], spec: ServeSpec) -> Dict[int, float]:
    """When each slot ``k >= 1`` was due, on the shared monotonic clock.

    Paced: the server's start plus ``k`` slot periods.  Lockstep: when
    the fleet sent the last report of slot ``k - 1`` (the barrier the
    server waits on before planning slot ``k``).
    """
    server = session["server"]
    slots = server["slots_run"]
    if spec.lockstep:
        sent = session["fleet"]["reports_sent"]
        return {k: sent[k - 1] for k in range(1, slots) if k - 1 in sent}
    return {
        k: server["start_s"] + k * server["slot_s"] for k in range(1, slots)
    }


def session_outcome(
    session: Dict[str, Any], spec: ServeSpec
) -> Tuple[int, int, List[str]]:
    """(attempted, failed, check errors) of one session.

    An operation is one seat-slot plan.  It fails when its client
    never decoded it, or when the client's session ended in any state
    other than ``complete``; the checks speak of the others.
    """
    server = session["server"]
    fleet = session["fleet"]
    slots = spec.slots
    ends = {seat: reason for seat, reason, _, _ in fleet["clients"]}
    plans: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}
    views: Dict[Tuple[int, int], Tuple[int, float]] = {}
    for seat, slot, level, demand, viewed, _ in fleet["plans"]:
        plans.setdefault((seat, slot), []).append((level, demand))
        views[(seat, slot)] = (level, viewed)
    failed = 0
    for seat in range(spec.seats):
        if ends.get(seat) != "complete":
            failed += slots
            continue
        failed += sum(1 for slot in range(slots) if (seat, slot) not in plans)
    errors = checks.check_complete(
        {seat: ends.get(seat, "never joined") for seat in range(spec.seats)}
    )
    errors += checks.check_plans(
        plans, spec.seats, slots, server["budget_mbps"], server["num_levels"]
    )
    errors += checks.check_views(views)
    if server["slots_run"] != slots:
        errors.append(f"server ran {server['slots_run']} of {slots} slots")
    return spec.seats * slots, failed, errors


def served_ledger(session: Dict[str, Any]) -> Dict[int, Tuple[float, float]]:
    """Per seat (client-side mean viewed quality, server-side QoE)."""
    return {
        seat: (quality, qoe)
        for seat, _, quality, qoe in session["fleet"]["clients"]
    }


def reference_ledger(spec: ServeSpec, seed: int) -> List[Tuple[float, float]]:
    """The in-process ``SystemExperiment`` on the same config and seed.

    Recomputed in every invocation from the code under test, never
    stored; lockstep serving must reproduce it (see
    :func:`perfbench.checks.check_reference` for the one known gap).
    """
    from repro.core.allocation import DensityValueGreedyAllocator
    from repro.system.experiment import SystemExperiment

    experiment = serve_config(spec, seed).experiment
    result = SystemExperiment(experiment).run_repeat(
        DensityValueGreedyAllocator(), 0
    )
    return [(user.quality, user.qoe) for user in result.users]


def end_to_end(
    sessions: List[Dict[str, Any]], spec: ServeSpec, raw: bool = False
) -> Dict[str, float]:
    """The end-to-end metrics over a run's sessions, probe-normalized.

    A frame's latency splits at the moment the server finished sending
    its slot: the part before is the server's and is scaled by the
    server's probe for that slot, the part after is the wire's and the
    fleet's and is scaled by the fleet's probe.  ``raw`` skips every
    normalization (the figures printed beside).
    """
    scale = unnormalized if raw else normalize
    setups: List[float] = []
    latencies: List[float] = []
    cpu_ms: List[float] = []
    periods: List[float] = []
    paced_rates: List[float] = []
    rss: List[float] = []
    wire_bytes = 0
    #: Per session: mean viewed quality per seat-slot, mean QoE per seat.
    viewed: List[float] = []
    qoes: List[float] = []
    for session in sessions:
        server = session["server"]
        fleet = session["fleet"]
        records = server["records"]
        wakes = {int(k): v for k, v in server["wakes"].items()}
        server_probe = ProbeTrack([(r[0], r[3]) for r in records])
        cpu_probe = ProbeTrack([(r[0], r[4]) for r in records])
        fleet_probe = ProbeTrack(fleet["probes"])
        setups.append(
            scale(server["setup_s"], server_probe.median(), PROBE_NOMINAL_WALL_S)
        )
        due = due_times(session, spec)
        server_part: Dict[int, float] = {}
        for slot, due_s in due.items():
            if slot in wakes:
                server_part[slot] = scale(
                    wakes[slot] - due_s, server_probe.at(slot), PROBE_NOMINAL_WALL_S
                )
        viewed.append(
            sum(plan[4] for plan in fleet["plans"]) / len(fleet["plans"])
        )
        for seat, slot, _, _, quality, decoded_s in fleet["plans"]:
            if slot in server_part:
                fleet_part = scale(
                    decoded_s - wakes[slot], fleet_probe.at(slot), PROBE_NOMINAL_WALL_S
                )
                latencies.append((server_part[slot] + fleet_part) * 1e3)
        for slot, covered, cpu_s, _, _ in records[1:]:
            cpu_ms.append(
                scale(cpu_s / covered, cpu_probe.at(slot), PROBE_NOMINAL_CPU_S) * 1e3
            )
        if spec.lockstep:
            # One closed-loop period: the server's part of slot k plus
            # the fleet's part until its last report of slot k.
            sent = fleet["reports_sent"]
            for slot, part in server_part.items():
                if slot in sent and slot >= 2:
                    periods.append(
                        part + scale(
                            sent[slot] - wakes[slot], fleet_probe.at(slot),
                            PROBE_NOMINAL_WALL_S,
                        )
                    )
        elif len(wakes) > 1:
            first, last = min(wakes), max(wakes)
            paced_rates.append(spec.seats * (last - first) / (wakes[last] - wakes[first]))
        rss.append(server["rss_mb"])
        wire_bytes += fleet["plan_bytes"] + fleet["report_bytes"]
        qoes.append(
            sum(qoe for _, _, _, qoe in fleet["clients"]) / len(fleet["clients"])
        )
    if spec.lockstep:
        user_slots_per_s = spec.seats / (sum(periods) / len(periods))
    else:
        user_slots_per_s = median(paced_rates)
    return {
        "setup_s": median(setups),
        "frame_latency_ms_p50": percentile(latencies, 50),
        "frame_latency_ms_p90": percentile(latencies, 90),
        "server_cpu_ms_per_slot": sum(cpu_ms) / len(cpu_ms),
        "user_slots_per_s": user_slots_per_s,
        "rss_mb": max(rss),
        "wire_bytes_per_seat_slot": wire_bytes / (spec.seats * spec.slots * len(sessions)),
        # Per-session means, then the median over sessions: a few
        # worlds score far below the rest, and a median keeps one of
        # them from moving a whole run.
        "viewed_quality_mean": median(viewed),
        "qoe_mean": median(qoes),
    }


#: The layers ``EdgeServer.plan_slot`` calls into, for the accounting.
PLAN_SUBLAYERS = (
    "prediction.motion_ms", "prediction.coverage_ms", "prediction.delay_ms",
    "content.curve_ms", "core.problem_ms", "core.solve_ms",
    "content.tiles_ms", "content.cache_ms",
)


def plan_accounting(layers: Dict[str, float]) -> str:
    """How much of ``system.plan_ms`` its sub-layers' self times cover."""
    plan = layers["system.plan_ms"]
    covered = sum(layers[name] for name in PLAN_SUBLAYERS)
    share = covered / plan * 100 if plan else 0.0
    return (
        f"plan accounting: system.plan_ms {plan:.3f} ms, sub-layers "
        f"{covered:.3f} ms ({share:.1f}%), planner's own code "
        f"{plan - covered:.3f} ms"
    )


def per_layer(
    sessions: List[Dict[str, Any]], spec: ServeSpec
) -> Dict[str, float]:
    """Per-layer figures from traced sessions (per slot unless noted)."""
    self_ms: Dict[str, float] = {}
    fleet_ms: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    span_slots = 0
    fleet_slots = 0
    lags: List[float] = []
    missed = 0
    degraded = 0
    for session in sessions:
        server = session["server"]
        fleet = session["fleet"]
        for name, value in server["self_s"].items():
            self_ms[name] = self_ms.get(name, 0.0) + value
        for name, value in server["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
        for name, value in fleet["self_s"].items():
            fleet_ms[name] = fleet_ms.get(name, 0.0) + value
        span_slots += server["span_slots"]
        fleet_slots += spec.slots
        due = due_times(session, spec)
        for slot, entered_s in enumerate(server["fold_entries"]):
            if slot in due:
                lags.append((entered_s - due[slot]) * 1e3)
        missed += server["missed_reports"]
        degraded += server["degraded_seat_slots"]

    def ms(name: str) -> float:
        return self_ms.get(name, 0.0) * 1e3 / span_slots

    def fleet(name: str) -> float:
        return fleet_ms.get(name, 0.0) * 1e3 / fleet_slots

    lookups = counts.get("cache_lookups", 0.0)
    return {
        # The planner is reported whole; every layer below it by self time.
        "system.plan_ms": ms("system.plan:total"),
        "prediction.motion_ms": ms("prediction.motion"),
        "prediction.coverage_ms": ms("prediction.coverage"),
        "prediction.delay_ms": ms("prediction.delay"),
        "prediction.delay_calls": self_ms.get("prediction.delay:calls", 0.0) / span_slots,
        "content.curve_ms": ms("content.curve"),
        "core.problem_ms": ms("core.problem"),
        "core.solve_ms": ms("core.solve"),
        "content.tiles_ms": ms("content.tiles"),
        "content.tiles_per_slot": counts.get("tiles", 0.0) / span_slots,
        "content.cache_ms": ms("content.cache"),
        "content.cache_hit_ratio": counts.get("cache_hits", 0.0) / lookups if lookups else 0.0,
        "system.seats_served": counts.get("seats_served", 0.0) / span_slots,
        "serve.fold_ms": ms("serve.fold"),
        "serve.netem_ms": ms("serve.netem"),
        "serve.encode_ms": ms("serve.encode"),
        "serve.start_lag_ms_p90": percentile(lags, 90) if lags else 0.0,
        "serve.missed_reports": float(missed),
        "serve.degraded_seat_slots": float(degraded),
        "mux.decode_ms": fleet("mux.decode"),
        "mux.client_ms": fleet("mux.client"),
    }


def outputs_line(sessions: List[Dict[str, Any]]) -> str:
    """The program outputs the probe must not change, one line per run.

    Missed and degraded counts are timing-dependent in paced mode; the
    per-seat ledger digest is deterministic in lockstep mode.
    """
    missed = sum(s["server"]["missed_reports"] for s in sessions)
    degraded = sum(s["server"]["degraded_seat_slots"] for s in sessions)
    digests = sorted(
        {hash(tuple(sorted(served_ledger(s).items()))) & 0xFFFFFFFF for s in sessions}
    )
    return (
        f"outputs: {len(sessions)} sessions, missed reports {missed}, "
        f"degraded seat-slots {degraded}, ledger digests "
        + " ".join(f"{d:08x}" for d in digests)
    )
