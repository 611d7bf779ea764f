"""End-to-end smoke check for distributed solving (CI's ``dist-smoke``).

Run with ``python -m repro.dist.smoke`` (or ``make dist-smoke``).  One
asserted scenario with a deterministic fault seed: a tiny corpus over 2
shards with an injected ``crash@dist_shard`` killing every first (arena)
attempt; the scheduler must requeue each job to its home shard, fall
back to the legacy engine, and settle every job with the correct
verdict — zero lost jobs.
"""

from __future__ import annotations

import sys

from ..core.strategy import Strategy
from ..qa.generators import conflict_instances
from ..reliability.faults import FaultPlan
from ..reliability.quarantine import QuarantinePolicy
from ..sat.status import SolveStatus
from . import BatchJob, run_sharded

STRATEGY = Strategy(encoding="muldirect", symmetry="s1")

#: Small but non-trivial planted-clique UNSAT instances (sub-second
#: each; the point is the machinery, not the solving).
def _corpus(count: int = 4):
    return [
        (inst.name, inst.problem)
        for inst in conflict_instances(7, count, num_vertices=24,
                                       edge_probability=0.4, clique_size=5)
    ]


def _check(label: str, condition: bool, detail: str = "") -> None:
    if not condition:
        print(f"dist-smoke FAILED: {label} {detail}", file=sys.stderr)
        sys.exit(1)
    print(f"  {label}: OK {detail}")


def main() -> int:
    print("dist-smoke: shard crash recovery")
    jobs = [BatchJob(name, problem, STRATEGY)
            for name, problem in _corpus()]
    # Every arena attempt at the dist_shard site crashes; the legacy
    # fallback label escapes the match, so attempt 2 must succeed.
    result = run_sharded(
        jobs, num_shards=2, max_workers=2,
        quarantine=QuarantinePolicy(threshold=5, base_backoff=0.05,
                                    max_backoff=0.2),
        faults=FaultPlan.parse("seed=3; crash@dist_shard:match=*/s1"))
    _check("all jobs settled",
           len(result.results) == len(jobs) and not result.pending,
           f"({len(result.results)}/{len(jobs)}, "
           f"pending {len(result.pending)})")
    _check("zero lost jobs: every verdict correct",
           all(r.status is SolveStatus.UNSAT for r in result.results),
           str({str(k): v for k, v in result.status_counts().items()}))
    requeued = sum(s["requeued"] for s in result.shards.values())
    _check("crashes were requeued", requeued >= len(jobs),
           f"({requeued} requeues)")
    _check("retries fell back to the legacy engine",
           all(r.attempts == 2 and r.engine == "legacy"
               for r in result.results))

    print("dist-smoke: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
