"""Distributed solving: work-stealing shards.

:func:`run_sharded` is :func:`repro.bench.batch.run_batch` over several
locality-aware shard queues: many independent jobs, idle shards steal
from busy ones, and a crashed worker's job is requeued to its home
shard (and retried on the legacy engine).  Parallelism within one
instance is the plain first-answer-wins race of
:func:`repro.core.portfolio.run_portfolio`.
"""

from __future__ import annotations

from typing import Sequence

from ..bench.batch import (BatchJob, BatchJobResult, BatchResult, run_batch,
                           shard_of)

__all__ = [
    "BatchJob", "BatchJobResult", "BatchResult",
    "ShardedResult", "run_sharded", "shard_of",
]


#: The result of :func:`run_sharded` — the batch result, which carries
#: the per-shard counters and the steal total.
ShardedResult = BatchResult


def run_sharded(jobs: Sequence[BatchJob], num_shards: int = 2,
                **batch_kwargs) -> BatchResult:
    """:func:`repro.bench.batch.run_batch` over ``num_shards``
    work-stealing shard queues (two by default)."""
    return run_batch(jobs, num_shards=num_shards, **batch_kwargs)
