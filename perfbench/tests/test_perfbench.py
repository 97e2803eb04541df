"""The benchmark's own tests: smoke runs, check corruption, the probe.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.probe import (  # noqa: E402
    PROBE_NOMINAL_CPU_S,
    PROBE_NOMINAL_WALL_S,
    ProbeTrack,
    normalize,
)
from perfbench.run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["classroom-128", "paced-8", "sim-30"])
def test_smoke_run_through_the_command(workload: str, trace: int) -> None:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if workload == "paced-8":
            # Eq. (1) charges each missed fold 60 slots of delay, and a
            # host stall in a paced slot can miss enough of them to take
            # a short session's QoE below zero.
            assert math.isfinite(values.pop("qoe_mean"))
        assert all(value > 0 for value in values.values())
    else:
        assert "tracing overhead" in completed.stdout


def _session_members(sid: int) -> list:
    """Processes, zombies included, whose session id is ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            members.append((entry.name, fields[0]))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("workload", ["classroom-128", "sim-30"])
def test_run_leaves_no_process_behind(workload: str) -> None:
    # Its own session, so every process the run starts is findable
    # after it exits, including one reparented to init.
    run = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert run.wait(timeout=170) == 0
    assert _session_members(run.pid) == []


def test_command_fails_without_the_program(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-30",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def _plans(seats: int, slots: int, demand: float):
    return {(seat, slot): [(2, demand)] for seat in range(seats) for slot in range(slots)}


def test_plan_check_passes_on_good_plans() -> None:
    assert checks.check_plans(_plans(4, 3, 10.0), 4, 3, 40.0, 6) == []


def test_plan_check_catches_a_plan_over_budget() -> None:
    plans = _plans(4, 3, 10.0)
    plans[(1, 2)] = [(2, 10.5)]
    errors = checks.check_plans(plans, 4, 3, 40.0, 6)
    assert len(errors) == 1 and "over budget" in errors[0]


def test_plan_check_catches_levels_and_plan_counts() -> None:
    plans = _plans(2, 2, 1.0)
    plans[(0, 0)] = [(7, 1.0)]
    plans[(0, 1)] = [(2, 1.0), (2, 1.0)]
    del plans[(1, 1)]
    errors = checks.check_plans(plans, 2, 2, 100.0, 6)
    assert any("outside 0..6" in e for e in errors)
    assert any("2 plans" in e for e in errors)
    assert any("no plan decoded" in e for e in errors)


def test_view_check_catches_quality_above_the_level() -> None:
    assert checks.check_views({(0, 0): (3, 3.0)}) == []
    assert len(checks.check_views({(0, 0): (3, 4.0)})) == 1


def test_reference_check_catches_a_ledger_off_by_one_level() -> None:
    reference = [(2.5, 1.75)] * 100
    served = {seat: (2.5, 1.75) for seat in range(100)}
    assert checks.check_reference(served, reference, 24) == ([], [])
    served[7] = (3.5, 1.75)
    errors, _ = checks.check_reference(served, reference, 24)
    assert len(errors) == 1


def test_reference_check_bounds_the_known_divergence() -> None:
    reference = [(2.5, 1.75)] * 100
    served = {seat: (2.5, 1.75) for seat in range(100)}
    # One seat one level up in one of 24 slots: reported, not an error.
    served[3] = (2.5 + 1 / 24, 1.76)
    errors, divergences = checks.check_reference(served, reference, 24)
    assert errors == [] and len(divergences) == 1
    # Two levels in one slot, or too many seats, are errors.
    served[3] = (2.5 + 2 / 24, 1.76)
    assert len(checks.check_reference(served, reference, 24)[0]) == 1
    for seat in (3, 4, 5):
        served[seat] = (2.5 + 1 / 24, 1.76)
    errors, divergences = checks.check_reference(served, reference, 24)
    assert len(errors) == 4 and divergences == []


def test_complete_check() -> None:
    assert checks.check_complete({0: "complete", 1: "complete"}) == []
    assert len(checks.check_complete({0: "complete", 1: "disconnected"})) == 1


_VALUES = [[1.0, 3.0, 4.0], [1.0, 2.5, 3.0]]
_WEIGHTS = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]


def test_fractional_bound_by_hand() -> None:
    # Room 2 over the base: user 0's first upgrade (2 per unit) and
    # user 1's first upgrade (1.5 per unit) fill it exactly.
    assert checks.fractional_gain_bound(_VALUES, _WEIGHTS, [9, 9], 4.0) == pytest.approx(3.5)
    # A cap below level 2's weight removes that user's upgrades.
    assert checks.fractional_gain_bound(_VALUES, _WEIGHTS, [1.5, 9], 4.0) == pytest.approx(2.0)


def test_half_bound_check_catches_an_allocation_under_half_vp() -> None:
    good = checks.half_bound_ratio(_VALUES, _WEIGHTS, [9, 9], 4.0, [2, 2])
    base = checks.half_bound_ratio(_VALUES, _WEIGHTS, [9, 9], 4.0, [1, 1])
    assert good == pytest.approx(1.0)
    assert checks.check_half_bound([good]) == []
    assert base == 0.0
    assert len(checks.check_half_bound([good, base])) == 1


def test_fractional_bound_is_above_the_integer_optimum() -> None:
    rng = np.random.default_rng(7)
    for _ in range(200):
        users = int(rng.integers(1, 4))
        levels = int(rng.integers(1, 5))
        values = [np.cumsum(np.sort(rng.uniform(0, 2, levels))[::-1]).tolist() for _ in range(users)]
        weights = [np.cumsum(np.sort(rng.uniform(0.1, 2, levels))).tolist() for _ in range(users)]
        caps = rng.uniform(0.5, 6, users).tolist()
        if any(w[0] > c for w, c in zip(weights, caps)):
            continue
        budget = float(sum(w[0] for w in weights) + rng.uniform(0, 4))
        best = 0.0
        for choice in itertools.product(range(levels), repeat=users):
            weight = sum(weights[u][k] for u, k in enumerate(choice))
            if weight <= budget and all(weights[u][k] <= caps[u] for u, k in enumerate(choice)):
                best = max(best, sum(values[u][k] - values[u][0] for u, k in enumerate(choice)))
        bound = checks.fractional_gain_bound(values, weights, caps, budget)
        assert bound >= best - 1e-9


def test_probe_normalization_is_identity_at_nominal() -> None:
    for raw in (0.0, 1e-6, 0.125, 3.5):
        assert normalize(raw, PROBE_NOMINAL_CPU_S, PROBE_NOMINAL_CPU_S) == raw
        assert normalize(raw, PROBE_NOMINAL_WALL_S, PROBE_NOMINAL_WALL_S) == raw
    assert normalize(8.0, 2 * PROBE_NOMINAL_WALL_S, PROBE_NOMINAL_WALL_S) == pytest.approx(4.0)
    track = ProbeTrack([(slot, PROBE_NOMINAL_WALL_S) for slot in range(1, 40, 3)])
    for slot in range(0, 45):
        assert normalize(0.125, track.at(slot), PROBE_NOMINAL_WALL_S) == 0.125
    with pytest.raises(ValueError):
        normalize(1.0, 0.0, PROBE_NOMINAL_CPU_S)
