"""Percentiles, resource usage and the result line.

A timing is reported as its median and the highest percentile with at
least ten samples beyond it; with p90 that needs 100 samples, and
:func:`p90` refuses fewer rather than report a tail it cannot see.
"""

from __future__ import annotations

import json
import os
import re
import resource
import statistics
from typing import Dict, List, Sequence, Tuple

#: Every metric name the benchmark prints must match this.
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Samples needed for p90 to have ten beyond it.
MIN_P90_SAMPLES = 100


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise TooFewSamples("no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))  # ceil, at least 1
    return ordered[int(rank) - 1]


def p90(values: Sequence[float]) -> float:
    if len(values) < MIN_P90_SAMPLES:
        raise TooFewSamples(f"p90 needs at least {MIN_P90_SAMPLES} samples, "
                            f"got {len(values)}")
    return percentile(values, 0.9)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    times = os.times()
    return (times.user + times.system
            + times.children_user + times.children_system)


def descendants(pid: int) -> List[int]:
    """Live descendants of a process, from /proc."""
    found: List[int] = []
    stack = [pid]
    while stack:
        current = stack.pop()
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    children = [int(child) for child in handle.read().split()]
                found.extend(children)
                stack.extend(children)
        except FileNotFoundError:
            continue  # exited between listing and reading
    return found


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check_names(metrics: Dict[str, Tuple[float, str]]) -> None:
    for name in metrics:
        if not NAME_PATTERN.match(name):
            raise ValueError(f"bad metric name {name!r}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    """The final stdout line the benchmark contract asks for."""
    check_names(metrics)
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})


def table(metrics: Dict[str, Tuple[float, str]]) -> List[str]:
    """Human-readable ``name value unit`` rows."""
    width = max((len(name) for name in metrics), default=0)
    return [f"  {name:<{width}}  {value:>14.6g}  {unit}"
            for name, (value, unit) in metrics.items()]
