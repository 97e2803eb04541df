"""Slot benchmark: ``classroom-128``, ``paced-8`` and ``sim-30``.

Run from the repository root::

    python3 perfbench/run.py --workload paced-8 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (and, on an earlier line, the
tracing overhead against an untraced part of the same run).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import multiprocessing.resource_tracker
import os
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

# The program is imported from this checkout's sources, never from an
# installed copy; spawned children inherit this path.
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from perfbench import checks  # noqa: E402
from perfbench.common import median, percentile, pick_cpus, reap  # noqa: E402
from perfbench.probe import (  # noqa: E402
    PROBE_NOMINAL_CPU_S,
    PROBE_NOMINAL_WALL_S,
    ProbeTrack,
    normalize,
    unnormalized,
)

#: Workload make-up: serving sizes are (seats, slots per session,
#: lockstep), the simulator's (users, slots per episode); ``--smoke``
#: runs the small size.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "classroom-128": {"kind": "serve", "full": (128, 24, True), "smoke": (16, 6, True)},
    "paced-8": {"kind": "serve", "full": (8, 300, False), "smoke": (8, 30, False)},
    "sim-30": {"kind": "sim", "full": (30, 600), "smoke": (30, 60)},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "frame_latency_ms_p50": "ms",
    "frame_latency_ms_p90": "ms",
    "server_cpu_ms_per_slot": "ms",
    "user_slots_per_s": "user-slots/s",
    "rss_mb": "MiB",
    "wire_bytes_per_seat_slot": "bytes",
    "viewed_quality_mean": "level",
    "qoe_mean": "QoE",
}

PER_LAYER_UNITS = {
    "system.plan_ms": "ms",
    "prediction.motion_ms": "ms",
    "prediction.coverage_ms": "ms",
    "prediction.delay_ms": "ms",
    "prediction.delay_calls": "calls",
    "content.curve_ms": "ms",
    "core.problem_ms": "ms",
    "core.solve_ms": "ms",
    "content.tiles_ms": "ms",
    "content.tiles_per_slot": "tiles",
    "content.cache_ms": "ms",
    "content.cache_hit_ratio": "hits/lookups",
    "system.seats_served": "seats",
    "serve.fold_ms": "ms",
    "serve.netem_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.start_lag_ms_p90": "ms",
    "serve.missed_reports": "count",
    "serve.degraded_seat_slots": "count",
    "mux.decode_ms": "ms",
    "mux.client_ms": "ms",
    "simulation.episode_setup_ms": "ms",
    "simulation.delay_ms": "ms",
    "simulation.coverage_ms": "ms",
    "simulation.slot_ms": "ms",
}

#: Share of a ``--trace 1`` run spent untraced, as the overhead baseline.
_UNTRACED_SHARE = 0.5

#: (attempted, failed, check errors, metrics, raw end-to-end figures)
Outcome = Tuple[int, int, List[str], Dict[str, float], Dict[str, float]]


def _phases(seconds: float, trace: bool) -> List[Tuple[bool, float]]:
    if not trace:
        return [(False, seconds)]
    return [(False, seconds * _UNTRACED_SHARE), (True, seconds * (1 - _UNTRACED_SHARE))]


def _span_path(workload: str, seed: int) -> str:
    """Prefix of this run's span files, cleared of an earlier run's."""
    prefix = f"spans-{workload}-seed{seed}"
    for stale in OUT_DIR.glob(prefix + "-*.tsv.gz"):
        stale.unlink()
    return str(OUT_DIR / prefix)


#: The figures tracing can change: outputs are the same traced or not.
_TIMED = ("setup_s", "frame_latency_ms_p50", "frame_latency_ms_p90",
          "server_cpu_ms_per_slot", "user_slots_per_s", "rss_mb")


def _overhead(traced: Dict[str, float], untraced: Dict[str, float]) -> str:
    parts = []
    for name in _TIMED:
        base = untraced[name]
        share = (traced[name] - base) / base * 100 if base else 0.0
        parts.append(f"{name} {share:+.1f}%")
    return "tracing overhead (traced vs untraced): " + ", ".join(parts)


def run_serving(
    workload: str, size: Tuple, seed: int, seconds: float, trace: bool,
    probe: bool = True,
) -> Outcome:
    from perfbench import serving

    spec = serving.ServeSpec(*size)
    ctx = multiprocessing.get_context("spawn")
    cpus = pick_cpus()
    connections = min(len(os.sched_getaffinity(0)), spec.seats)
    span_path = _span_path(workload, seed) if trace else None
    fleet = serving.Fleet(ctx, cpus[1])
    sessions: List[Dict[str, Any]] = []
    finished = False
    try:
        for traced, budget in _phases(seconds, trace):
            end = time.monotonic() + budget
            # Both phases serve the same worlds, in the same order.
            for index in itertools.count():
                sessions.append(
                    serving.run_session(
                        ctx, fleet, spec, serving.session_seed(seed, index),
                        traced, probe, cpus, connections, span_path,
                    )
                )
                if time.monotonic() >= end:
                    break
        finished = True
    finally:
        fleet.close(grace_s=30.0 if finished else 0.0)
    attempted = failed = 0
    errors: List[str] = []
    for session in sessions:
        a, f, e = serving.session_outcome(session, spec)
        attempted += a
        failed += f
        errors += e
    if spec.lockstep:
        # One reference per run: the in-process experiment takes as
        # long as the session it checks.
        first = sessions[0]
        reference = serving.reference_ledger(spec, first["seed"])
        mismatches, divergences = checks.check_reference(
            serving.served_ledger(first), reference, spec.slots
        )
        errors += mismatches
        for line in divergences:
            print(f"reference divergence (float32 pose uploads): {line}")
    untraced = [s for s in sessions if not s["traced"]]
    print(serving.outputs_line(untraced))
    metrics = serving.end_to_end(untraced, spec)
    raw = serving.end_to_end(untraced, spec, raw=True)
    if trace:
        traced_sessions = [s for s in sessions if s["traced"]]
        # Overhead over the worlds both halves served.
        paired = min(len(untraced), len(traced_sessions))
        print(_overhead(
            serving.end_to_end(traced_sessions[:paired], spec),
            serving.end_to_end(untraced[:paired], spec),
        ))
        metrics = {name: 0.0 for name in PER_LAYER_UNITS}
        metrics.update(serving.per_layer(traced_sessions, spec))
        print(serving.plan_accounting(metrics))
    return attempted, failed, errors, metrics, raw


def _sim_run(ctx: Any, size: Tuple, seed: int, seconds: float, traced: bool,
             cpu: Any, span_path: Any) -> Dict[str, Any]:
    from perfbench.sim import sim_child

    conn, child = ctx.Pipe()
    process = ctx.Process(
        target=sim_child,
        args=(child, size[0], size[1], seed, seconds, traced, cpu, span_path),
    )
    process.start()
    child.close()
    reply = None
    try:
        if not conn.poll(seconds + 120):
            raise TimeoutError("no simulator result")
        reply = conn.recv()
    finally:
        # A child that has replied is ending; one that has not is stopped.
        reap(process, grace_s=30.0 if reply is not None else 0.0)
        conn.close()
    return reply


def _sim_end_to_end(reply: Dict[str, Any], raw: bool = False) -> Dict[str, float]:
    """End-to-end figures of the simulator; each slot scaled by its probe.

    With no sockets in this workload, a slot's frames are ready when
    its pipeline ends: frame latency is the slot's own time, and the
    wire bytes are the tile payload its allocation puts on the link.
    """
    scale = unnormalized if raw else normalize
    wall_probe = ProbeTrack([(i, w) for i, w, _ in reply["probes"]])
    cpu_probe = ProbeTrack([(i, c) for i, _, c in reply["probes"]])
    wall_ms = [
        scale(w, wall_probe.at(i), PROBE_NOMINAL_WALL_S) * 1e3
        for i, (w, _) in enumerate(reply["slots"])
    ]
    cpu_ms = [
        scale(c, cpu_probe.at(i), PROBE_NOMINAL_CPU_S) * 1e3
        for i, (_, c) in enumerate(reply["slots"])
    ]
    setups = [
        scale(s, wall_probe.at(i), PROBE_NOMINAL_WALL_S)
        for s, i in reply["setups"]
    ]
    return {
        "setup_s": median(setups),
        "frame_latency_ms_p50": percentile(wall_ms, 50),
        "frame_latency_ms_p90": percentile(wall_ms, 90),
        "server_cpu_ms_per_slot": sum(cpu_ms) / len(cpu_ms),
        "user_slots_per_s": reply["users"] * len(wall_ms) / (sum(wall_ms) / 1e3),
        "rss_mb": reply["rss_mb"],
        "wire_bytes_per_seat_slot": reply["payload_bytes"] / reply["user_slots"],
        "viewed_quality_mean": sum(reply["qualities"]) / len(reply["qualities"]),
        "qoe_mean": sum(reply["qoes"]) / len(reply["qoes"]),
    }


def _sim_per_layer(reply: Dict[str, Any]) -> Dict[str, float]:
    slots = max(reply["span_slots"], 1)
    self_s = reply["self_s"]

    def ms(name: str) -> float:
        return self_s.get(name, 0.0) * 1e3 / slots

    layers = {name: 0.0 for name in PER_LAYER_UNITS}
    layers.update(
        {
            "content.curve_ms": ms("content.curve"),
            "core.problem_ms": ms("core.problem"),
            "core.solve_ms": ms("core.solve"),
            "simulation.delay_ms": ms("simulation.delay"),
            "simulation.coverage_ms": ms("simulation.coverage"),
            "simulation.episode_setup_ms": 1e3 * sum(s for s, _ in reply["setups"]) / len(reply["setups"]),
            "simulation.slot_ms": 1e3 * sum(w for w, _ in reply["slots"]) / len(reply["slots"]),
        }
    )
    return layers


def run_sim(workload: str, size: Tuple, seed: int, seconds: float, trace: bool) -> Outcome:
    ctx = multiprocessing.get_context("spawn")
    cpu = pick_cpus()[0]
    replies = [
        (traced, _sim_run(ctx, size, seed, budget, traced, cpu,
                          _span_path(workload, seed) if traced else None))
        for traced, budget in _phases(seconds, trace)
    ]
    attempted = sum(reply["episodes"] for _, reply in replies)
    failed = sum(reply["failed"] for _, reply in replies)
    errors: List[str] = []
    for _, reply in replies:
        errors += checks.check_half_bound(reply["ratios"])
        if not reply["ratios"]:
            errors.append("no slot was sampled for the 1/2 V_p check")
    metrics = _sim_end_to_end(replies[0][1])
    raw = _sim_end_to_end(replies[0][1], raw=True)
    if trace:
        traced_reply = replies[-1][1]
        print(_overhead(_sim_end_to_end(traced_reply), metrics))
        metrics = _sim_per_layer(traced_reply)
    return attempted, failed, errors, metrics, raw


def _exit_on_signal(signum: int, frame: Any) -> None:
    sys.exit(128 + signum)


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that ``spawn`` starts.

    Every ``spawn`` child shares one resource-tracker process, which
    otherwise outlives this process by a moment and is left for init
    to reap.  Call once every child has been joined: the tracker ends
    when the last holder of its pipe closes it.
    """
    stop = getattr(multiprocessing.resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, for the benchmark's own tests",
    )
    parser.add_argument(
        "--no-probe", action="store_true",
        help="serving workloads: skip the reference probe (figures are "
        "raw), to show the probe does not change the program's outputs",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = workload["smoke" if args.smoke else "full"]
    # SIGTERM unwinds like an error, so every child is joined on the way out.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        if workload["kind"] == "serve":
            outcome = run_serving(
                args.workload, size, args.seed, args.seconds, bool(args.trace),
                probe=not args.no_probe,
            )
        else:
            outcome = run_sim(args.workload, size, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()
    attempted, failed, errors, metrics, raw = outcome
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        beside = "" if args.trace else f"   (raw {raw[name]:.6f})"
        print(f"{name:30s} {value:14.6f} {units[name]}{beside}")
    print(f"attempted {attempted}, failed {failed}, checks "
          f"{'passed' if not errors else f'FAILED ({len(errors)})'}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
