"""Correctness checks on the program's outputs, computed apart from it.

Each check returns its error strings (none when it passes), so a run
can report every violation and the tests can feed each check a
deliberately corrupted output.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

#: (seat, slot) -> (level, demand_mbps) of every plan a client decoded.
Plans = Mapping[Tuple[int, int], List[Tuple[int, float]]]
#: (seat, slot) -> (level planned, viewed quality the client displayed).
Views = Mapping[Tuple[int, int], Tuple[int, float]]

_REL_EPS = 1e-9


def check_plans(
    plans: Plans,
    seats: int,
    slots: int,
    budget_mbps: float,
    num_levels: int,
) -> List[str]:
    """Budget, level range, and one plan per seat per slot."""
    errors: List[str] = []
    demand_by_slot: Dict[int, float] = {}
    for (seat, slot), received in plans.items():
        if len(received) != 1:
            errors.append(
                f"seat {seat} slot {slot}: {len(received)} plans, expected 1"
            )
        for level, demand_mbps in received:
            if not 0 <= level <= num_levels:
                errors.append(
                    f"seat {seat} slot {slot}: level {level} outside "
                    f"0..{num_levels}"
                )
            demand_by_slot[slot] = demand_by_slot.get(slot, 0.0) + demand_mbps
    for slot, demand_mbps in sorted(demand_by_slot.items()):
        if demand_mbps > budget_mbps * (1 + _REL_EPS):
            errors.append(
                f"slot {slot}: total demand {demand_mbps:.3f} Mbps over "
                f"budget {budget_mbps:.3f} Mbps"
            )
    for seat in range(seats):
        for slot in range(slots):
            if (seat, slot) not in plans:
                errors.append(f"seat {seat} slot {slot}: no plan decoded")
    return errors


def check_views(views: Views) -> List[str]:
    """A client never views a quality above the level it was sent."""
    return [
        f"seat {seat} slot {slot}: viewed {viewed} above level {level}"
        for (seat, slot), (level, viewed) in sorted(views.items())
        if viewed > level + _REL_EPS
    ]


def check_complete(end_reasons: Mapping[int, str]) -> List[str]:
    """Every client's session ended ``complete``."""
    return [
        f"seat {seat}: session ended {reason!r}"
        for seat, reason in sorted(end_reasons.items())
        if reason != "complete"
    ]


#: Share of seats allowed to diverge from the in-process reference, each
#: by at most one level in one slot (see :func:`check_reference`).
DIVERGENT_SEAT_SHARE = 0.02
#: Largest QoE difference a divergent seat may show.
DIVERGENT_QOE = 0.1


def check_reference(
    served: Mapping[int, Tuple[float, float]],
    reference: Sequence[Tuple[float, float]],
    slots: int,
) -> Tuple[List[str], List[str]]:
    """Per-seat (viewed quality, QoE) against the in-process experiment.

    Returns ``(errors, divergences)``.  Lockstep serving removes every
    wall-clock influence, so seats are compared exactly.  One known
    difference remains: the in-process experiment rounds each pose
    upload to float32 while the serving wire carries float64, which on
    a few seeds flips one seat's level in one slot.  Such a seat is a
    divergence, reported but not an error, while at most
    ``DIVERGENT_SEAT_SHARE`` of the seats (at least one) diverge, each
    by at most one level in one slot and ``DIVERGENT_QOE`` of QoE.
    Anything more is an error.
    """
    errors: List[str] = []
    divergences: List[str] = []
    if sorted(served) != list(range(len(reference))):
        errors.append(
            f"served seats {sorted(served)} differ from the reference's "
            f"{len(reference)} users"
        )
        return errors, divergences
    for seat, (quality, qoe) in enumerate(reference):
        got_quality, got_qoe = served[seat]
        if (got_quality, got_qoe) == (quality, qoe):
            continue
        line = (
            f"seat {seat}: served (quality, qoe) ({got_quality}, {got_qoe}) "
            f"!= reference ({quality}, {qoe})"
        )
        level_slots = abs(got_quality - quality) * slots
        if level_slots <= 1 + _REL_EPS and abs(got_qoe - qoe) <= DIVERGENT_QOE:
            divergences.append(line)
        else:
            errors.append(line)
    allowed = max(1, int(DIVERGENT_SEAT_SHARE * len(reference)))
    if len(divergences) > allowed:
        errors.extend(divergences)
        errors.append(
            f"{len(divergences)} seats diverge from the reference, "
            f"more than {allowed}"
        )
        divergences = []
    return errors, divergences


def fractional_gain_bound(
    values: Sequence[Sequence[float]],
    weights: Sequence[Sequence[float]],
    caps: Sequence[float],
    budget: float,
) -> float:
    """V_p: the fractional optimum's gain over the all-level-1 base.

    Theorem 1's proof bounds the integer optimum by the LP relaxation,
    which a density sweep solves: every user's upgrades within its cap
    are reduced to their upper concave hull (so densities fall along
    each user), all hull segments are sorted by density, and segments
    with positive value are taken whole until the next one only fits
    in part.
    """
    segments: List[Tuple[float, float]] = []
    for user_values, user_weights, cap in zip(values, weights, caps):
        points = [(user_weights[0], user_values[0])]
        for value, weight in zip(user_values[1:], user_weights[1:]):
            if weight > cap * (1 + _REL_EPS):
                break
            points.append((weight, value))
        hull = [points[0]]
        for point in points[1:]:
            while len(hull) >= 2 and _slope(hull[-2], hull[-1]) <= _slope(
                hull[-1], point
            ):
                hull.pop()
            hull.append(point)
        for (w0, v0), (w1, v1) in zip(hull, hull[1:]):
            if v1 > v0 and w1 > w0:
                segments.append((v1 - v0, w1 - w0))
    room = budget - sum(user_weights[0] for user_weights in weights)
    segments.sort(key=lambda s: s[0] / s[1], reverse=True)
    gain = 0.0
    for value, weight in segments:
        if room <= 0:
            break
        take = min(1.0, room / weight)
        gain += take * value
        room -= take * weight
    return gain


def _slope(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return (b[1] - a[1]) / (b[0] - a[0]) if b[0] > a[0] else float("inf")


def half_bound_ratio(
    values: Sequence[Sequence[float]],
    weights: Sequence[Sequence[float]],
    caps: Sequence[float],
    budget: float,
    levels: Sequence[int],
) -> float:
    """Algorithm 1's gain over the base as a share of V_p (>= 0.5 holds).

    Returns 1.0 when V_p is zero (no upgrade fits; nothing to earn).
    """
    gain = sum(
        user_values[level - 1] - user_values[0]
        for user_values, level in zip(values, levels)
    )
    bound = fractional_gain_bound(values, weights, caps, budget)
    if bound <= _REL_EPS:
        return 1.0
    return gain / bound


def check_half_bound(ratios: Sequence[float]) -> List[str]:
    """Theorem 1: every sampled slot reaches half the fractional bound."""
    return [
        f"sampled slot {i}: gain is {ratio:.4f} of V_p, below 1/2"
        for i, ratio in enumerate(ratios)
        if ratio < 0.5 - _REL_EPS
    ]
