"""Distributed solving: shards, clause sharing, and cube-and-conquer.

Three cooperating parallelism modes behind one scheduler:

* **Work-stealing shards** (:func:`run_sharded`, the
  :func:`repro.bench.batch.run_batch` scheduler over several queues) —
  many jobs, locality-aware queues, crash-tolerant requeue.  The
  throughput layer.
* **Clause-sharing portfolios** (:mod:`repro.dist.sharing`,
  :mod:`repro.dist.portfolio`) — one hard instance, seed-diverse
  members exchanging short learned clauses.  The latency layer for
  instances where diversity helps.
* **Cube-and-conquer** (:mod:`repro.dist.cubes`) — one very hard
  instance split into symmetry-respecting partial assignments, solved
  by persistent assumption workers.  The latency layer for hard-UNSAT
  instances, where the measured win is *work reduction* (learned-clause
  reuse across cubes), not core count.

:func:`run_jobs` is the policy facade tying them together: it shards a
corpus, and — because cubing pays off through work reduction even when
cores are scarce — routes each job *through the cube splitter* when
more than one worker is available.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..bench.batch import (BatchJob, BatchJobResult, BatchResult,
                           _dedup_jobs, _fan_out_duplicates, run_batch,
                           shard_of)
from ..core.pipeline import ColoringOutcome
from ..obs import trace
from ..sat.status import SolveLimits
from .cubes import (Cube, CubePlan, CubeResult, cube_tree, generate_cubes,
                    run_cubed)
from .portfolio import run_cooperative, seed_diverse_members
from .sharing import (ClauseHub, ClauseImportFilter, LoopbackChannel,
                      ShareConfig)

__all__ = [
    "BatchJob", "BatchJobResult", "BatchResult",
    "ShardedResult", "run_sharded", "shard_of",
    "ShareConfig", "ClauseHub", "ClauseImportFilter", "LoopbackChannel",
    "run_cooperative", "seed_diverse_members",
    "Cube", "CubePlan", "CubeResult", "cube_tree", "generate_cubes",
    "run_cubed",
    "run_jobs",
]


#: The result of :func:`run_sharded` — the batch result, which carries
#: the per-shard counters and the steal total.
ShardedResult = BatchResult


def run_sharded(jobs: Sequence[BatchJob], num_shards: int = 2,
                **batch_kwargs) -> BatchResult:
    """:func:`repro.bench.batch.run_batch` over ``num_shards``
    work-stealing shard queues (two by default)."""
    return run_batch(jobs, num_shards=num_shards, **batch_kwargs)


def _cube_outcome(job: BatchJob, cube: CubeResult) -> ColoringOutcome:
    """A cube run flattened to the pipeline's outcome shape, so batch
    consumers (reports, CLI tables) need no cube-specific path."""
    return ColoringOutcome(
        strategy=job.strategy, status=cube.status, coloring=cube.coloring,
        encode_time=0.0, solve_time=cube.wall_time,
        num_vars=0, num_clauses=0,
        solver_stats={"cubes": len(cube.plan.cubes),
                      "cubes_closed": cube.cubes_closed,
                      "cube_depth": cube.plan.depth,
                      "cube_winner": -1 if cube.winner is None
                      else cube.winner},
        graph_time=job.graph_time)


def run_jobs(jobs: Sequence[BatchJob], workers: int = 1,
             num_shards: Optional[int] = None, cube: str = "auto",
             share=None, job_timeout: Optional[float] = None,
             limits: Optional[SolveLimits] = None,
             timeout: Optional[float] = None, faults=None,
             dedup: bool = True, **shard_kwargs) -> BatchResult:
    """Solve a corpus with ``workers`` processes — the policy facade.

    ``cube`` picks the parallelism mode per the measured trade-offs:

    * ``"auto"`` (default): with one worker, jobs run monolithically on
      the shard scheduler (cube fan-out has nothing to feed); with
      ``workers > 1`` each job is cube-split across all workers, one
      job at a time — on hard instances the cube tree's work reduction
      is where the speedup lives, and it compounds with the extra
      cores.
    * ``"off"``: always the shard scheduler (``num_shards`` queues,
      default ``min(workers, 2)``), the ``workers`` slots spread across
      the shards.
    * ``"always"``: cube-split every job even at one worker.

    ``share`` threads a :class:`ShareConfig` (or True) into the cube
    workers' clause channel; it is ignored on the pure shard path,
    where jobs are independent instances with nothing sound to share.
    Returns a :class:`~repro.bench.batch.BatchResult` either way.
    """
    if cube not in ("auto", "off", "always"):
        raise ValueError(f"unknown cube policy {cube!r}")
    if workers < 1:
        raise ValueError("workers must be positive")
    cubing = cube == "always" or (cube == "auto" and workers > 1)
    if not cubing:
        shards = num_shards if num_shards is not None else min(workers, 2)
        return run_sharded(
            jobs, num_shards=shards, max_workers=workers,
            job_timeout=job_timeout, limits=limits, timeout=timeout,
            faults=faults, dedup=dedup, **shard_kwargs)

    fanout = {}
    duplicates = 0
    if dedup and len(jobs) > 1:
        jobs, fanout = _dedup_jobs(jobs, limits, job_timeout)
        duplicates = sum(len(d) for d in fanout.values())
    start = time.perf_counter()
    deadline = None if timeout is None else start + timeout
    with trace.span("dist.run_jobs", jobs=len(jobs), workers=workers,
                    mode="cube", deduped=duplicates) as span:
        results = []
        pending = list(jobs)
        cancelled = False
        for job in jobs:
            now = time.perf_counter()
            if deadline is not None and now >= deadline:
                cancelled = True
                break
            budget = job_timeout
            if deadline is not None:
                remaining = deadline - now
                budget = remaining if budget is None \
                    else min(budget, remaining)
            cube_result = run_cubed(
                job.problem, job.strategy, max_workers=workers,
                limits=limits, timeout=budget, faults=faults, share=share)
            pending.remove(job)
            results.append(BatchJobResult(
                job=job, status=cube_result.status,
                outcome=_cube_outcome(job, cube_result),
                wall_time=cube_result.wall_time,
                engine=job.strategy.engine))
        result = BatchResult(results=results, pending=pending,
                             cancelled=cancelled,
                             wall_time=time.perf_counter() - start)
        if fanout:
            _fan_out_duplicates(result, fanout)
        span.set("settled", len(result.results))
        return result
