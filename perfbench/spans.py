"""Arithmetic over latency samples and recorded spans.

Pure functions, no I/O: the benchmark and its tests share them.

A span is a tuple ``(span_id, parent_id, request_id, name, start, end,
attr)`` as :mod:`launcher` writes it.  Times are ``time.perf_counter``
seconds, which on Linux is ``CLOCK_MONOTONIC`` and so comparable
between the client and server processes.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL_SAMPLES = 10

Span = Tuple[int, Optional[int], Optional[int], str, float, float, object]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def tail_count(samples: Iterable[float], threshold: float) -> int:
    """How many samples lie strictly beyond ``threshold``."""
    return sum(1 for value in samples if value > threshold)


def samples_needed(q: float, min_tail: int = MIN_TAIL_SAMPLES) -> int:
    """The fewest distinct samples that put ``min_tail`` beyond the
    q-quantile (as :func:`percentile` interpolates it)."""
    count = min_tail + 1
    while count - 1 - math.floor(q * (count - 1)) < min_tail:
        count += 1
    return count


def tail_percentile(
    samples: Sequence[float], q: float, min_tail: int = MIN_TAIL_SAMPLES
) -> Tuple[float, int]:
    """``(q-quantile, samples beyond it)``; refuses an unsupported tail.

    A percentile is only reported when at least ``min_tail`` samples
    lie strictly beyond it, so it is not decided by one or two
    outliers.
    """
    value = percentile(samples, q)
    beyond = tail_count(samples, value)
    if beyond < min_tail:
        raise ValueError(
            f"p{q * 100:g} of {len(samples)} samples has only {beyond} "
            f"beyond it; at least {min_tail} are required"
        )
    return value, beyond


@dataclass
class Window:
    """One slice of the measured phase."""

    seconds: float
    cpu_seconds: float
    latencies: List[float] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return len(self.latencies) / self.seconds


def split_windows(
    samples: Iterable[Tuple[float, float]],
    boundaries: Sequence[Tuple[float, float]],
) -> List[Window]:
    """Windows between consecutive ``(time, cpu)`` boundaries, each with
    the latencies of the ``(end time, latency)`` samples ending in it.
    Samples ending outside every window are left out."""
    windows = [
        Window(after[0] - before[0], after[1] - before[1])
        for before, after in zip(boundaries, boundaries[1:])
    ]
    times = [boundary[0] for boundary in boundaries]
    for end, latency in samples:
        index = bisect.bisect_left(times, end) - 1
        if 0 <= index < len(windows):
            windows[index].latencies.append(latency)
    return windows


def trimmed(windows: Sequence[Window]) -> List[Window]:
    """The windows without the fastest and the slowest one.

    The host's CPU speed drifts, and a burst of load from outside
    slows a few seconds of a run; dropping the extreme windows keeps
    one burst from moving the reported figures.
    """
    if len(windows) < 3:
        return list(windows)
    order = sorted(range(len(windows)), key=lambda i: (windows[i].rate, i))
    dropped = {order[0], order[-1]}
    return [w for i, w in enumerate(windows) if i not in dropped]


def covered_length(
    intervals: Iterable[Tuple[float, float]], start: float, end: float
) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for lo, hi in intervals
        if hi > start and lo < end
    )
    total = 0.0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span[1]
        if parent is not None:
            children[parent].append((span[4], span[5]))
    return {
        span[0]: (span[5] - span[4])
        - covered_length(children.get(span[0], ()), span[4], span[5])
        for span in spans
    }


def group_requests(
    spans: Sequence[Span], route: str, window: Tuple[float, float]
) -> Dict[int, List[Span]]:
    """Spans of the requests to ``route`` whose handling lies in ``window``.

    A request is kept when its ``app.handle`` span names ``route`` and
    starts and ends inside ``window`` — the measured phase, so warm-up
    and ``/metrics`` scrapes drop out.
    """
    by_request: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            by_request[span[2]].append(span)
    kept: Dict[int, List[Span]] = {}
    for request_id, members in by_request.items():
        handles = [s for s in members if s[3] == "app.handle"]
        if len(handles) != 1:
            continue
        handle = handles[0]
        if handle[6] != route:
            continue
        if handle[4] < window[0] or handle[5] > window[1]:
            continue
        kept[request_id] = members
    return kept


def layer_summary(
    requests: Mapping[int, Sequence[Span]],
) -> Dict[str, Dict[str, object]]:
    """Per span name: call count, per-call durations and self times.

    Returns ``{name: {"calls", "durations", "self", "attrs"}}`` where
    ``durations``/``self`` are lists of seconds, one per call, and
    ``attrs`` the recorded attribute of each call.
    """
    summary: Dict[str, Dict[str, object]] = {}
    for members in requests.values():
        own = self_times(members)
        for span in members:
            entry = summary.setdefault(
                span[3],
                {"calls": 0, "durations": [], "self": [], "attrs": []},
            )
            entry["calls"] += 1  # type: ignore[operator]
            entry["durations"].append(span[5] - span[4])  # type: ignore[union-attr]
            entry["self"].append(own[span[0]])  # type: ignore[union-attr]
            entry["attrs"].append(span[6])  # type: ignore[union-attr]
    return summary


def handle_closure(requests: Mapping[int, Sequence[Span]]) -> Tuple[float, float]:
    """``(sum of app.handle durations, sum of self times under them)``.

    Every span below ``app.handle`` contributes its self time, and the
    handle span its own (the unattributed remainder); the two sums are
    equal when the spans tile each request's handling.
    """
    handle_total = 0.0
    self_total = 0.0
    for members in requests.values():
        own = self_times(members)
        by_id = {span[0]: span for span in members}
        handle_ids = {s[0] for s in members if s[3] == "app.handle"}
        for span in members:
            if span[3] == "app.handle":
                handle_total += span[5] - span[4]
            if _under(span, by_id, handle_ids):
                self_total += own[span[0]]
    return handle_total, self_total


def _under(span: Span, by_id: Mapping[int, Span], roots: set) -> bool:
    """True if ``span`` is one of ``roots`` or descends from one."""
    current: Optional[Span] = span
    while current is not None:
        if current[0] in roots:
            return True
        parent = current[1]
        current = by_id.get(parent) if parent is not None else None
    return False
