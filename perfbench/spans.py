"""In-memory span recording around the program's public functions.

The traced run wraps each layer's entry points from the benchmark's
own code (the program is not edited): every call keeps one span
``(name, start, end, parent, slot)`` in memory, and the spans are
written out when the run ends.  A layer's self time is its spans'
durations minus the time their child spans cover.

Spans live in flat typed arrays (about 28 bytes each): the simulator
makes a few hundred calls per slot, a million spans per traced run.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class SpanLog:
    """Spans of one process, plus the counters recorded beside them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.reset()
        #: While set, wrappers call straight through and record nothing
        #: (bookkeeping the benchmark itself does between slots).
        self.paused = False

    def reset(self) -> None:
        """Drop every span and count (a new session starts)."""
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.slot_of = array("i")
        #: name -> slot -> amount, for counters kept beside the spans.
        self.counts: Dict[str, Dict[int, float]] = {}
        #: Slot the next spans belong to; each process's slot clock
        #: advances it at its slot boundary.
        self.slot = 0
        self._stack: List[int] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.paused:
            return
        per_slot = self.counts.setdefault(name, {})
        per_slot[self.slot] = per_slot.get(self.slot, 0.0) + amount

    def counted(self, name: str, first_slot: int, last_slot: int) -> float:
        """Total of counter ``name`` over slots in ``[first, last]``."""
        return sum(
            amount
            for slot, amount in self.counts.get(name, {}).items()
            if first_slot <= slot <= last_slot
        )

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrapper(original, name, on_result))

    def _wrapper(
        self,
        original: Callable[..., Any],
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        log = self
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if log.paused:
                return original(*args, **kwargs)
            stack = log._stack
            index = len(log.start)
            log.name_of.append(name_id)
            log.parent.append(stack[-1] if stack else -1)
            log.slot_of.append(log.slot)
            log.start.append(0.0)
            log.end.append(0.0)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                log.start[index] = start
                log.end[index] = end
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_returned(self, owner: Any, attr: str, name: str) -> None:
        """Wrap the callables ``owner.attr`` returns (delay closures)."""
        original = getattr(owner, attr)
        log = self

        @functools.wraps(original)
        def factory(*args: Any, **kwargs: Any) -> Any:
            return log._wrapper(original(*args, **kwargs), name)

        setattr(owner, attr, factory)

    def self_times(
        self, first_slot: int = 0, last_slot: int = 1 << 30
    ) -> Dict[str, float]:
        """Per span name over a slot range: self time (s), and under
        ``name:total`` the time including children, ``name:calls`` the
        number of calls."""
        covered = [0.0] * len(self.start)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        totals: Dict[str, float] = {}
        for index, name_id in enumerate(self.name_of):
            if not first_slot <= self.slot_of[index] <= last_slot:
                continue
            name = self.names[name_id]
            duration = self.end[index] - self.start[index]
            totals[name] = totals.get(name, 0.0) + duration - covered[index]
            totals[name + ":total"] = totals.get(name + ":total", 0.0) + duration
            totals[name + ":calls"] = totals.get(name + ":calls", 0.0) + 1
        return totals

    def write(self, prefix: str, tag: str) -> None:
        """Append the spans to ``<prefix>-<tag>.tsv.gz``, a line each.

        Columns: process tag, name, start, end (``perf_counter``
        seconds), parent (line index within the same block, -1 for
        none), slot.  Each process kind has its own file, so processes
        that end together never write to the same one.
        """
        path = Path(f"{prefix}-{tag}.tsv.gz")
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "at", encoding="utf-8", compresslevel=1) as handle:
            handle.writelines(
                f"{tag}\t{self.names[self.name_of[i]]}\t{self.start[i]!r}\t"
                f"{self.end[i]!r}\t{self.parent[i]}\t{self.slot_of[i]}\n"
                for i in range(len(self.start))
            )
