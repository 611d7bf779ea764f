"""The declared metrics, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the checkout root is the one list of metric names
and units.  Per-layer names are ``<module>.<metric>`` after the
repository's packages.  Every workload reports every per-layer name; a
layer a workload does not pass through reports zero work.  Timings
ending in ``_s`` are seconds of that layer's work per request; counts
marked exact are totals over the workload's distinct requests and
repeat exactly for one seed.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Tuple

BENCHMARK_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def declared(section: str) -> Dict[str, str]:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares in
    ``section`` (``end_to_end`` or ``per_layer``), in report order."""
    with open(BENCHMARK_FILE) as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[section]}


def report(section: str, values: Dict[str, float],
           absent: Optional[float] = None) -> Dict[str, Tuple[float, str]]:
    """Every metric declared in ``section``, with its unit.  A metric
    without a value reads ``absent`` when that is given and is an error
    otherwise; a value no metric declares is always an error."""
    units = declared(section)
    unknown = set(values) - set(units)
    missing = set(units) - set(values) if absent is None else set()
    if unknown or missing:
        raise KeyError(f"{section} metrics: undeclared {sorted(unknown)}, "
                       f"missing {sorted(missing)}")
    return {name: (float(values.get(name, absent)), unit)
            for name, unit in units.items()}
