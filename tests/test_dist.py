"""Tests for the distributed solving subsystem (repro.dist)."""

import pytest

from repro import obs
from repro.bench.batch import run_batch
from repro.coloring import ColoringProblem, complete_graph, cycle_graph
from repro.core import Strategy
from repro.dist import BatchJob, run_sharded, shard_of
from repro.obs import trace
from repro.qa.generators import conflict_instances
from repro.reliability.faults import FaultPlan
from repro.reliability.quarantine import QuarantinePolicy
from repro.sat.status import SolveStatus

DIRECT = Strategy("direct", "s1")
FAST_QUARANTINE = QuarantinePolicy(threshold=3, base_backoff=0.05,
                                   max_backoff=0.2)

def _conflict_suite(count=3, num_vertices=24):
    return list(conflict_instances(7, count, num_vertices=num_vertices,
                                   edge_probability=0.4, clique_size=5))


def _jobs(count=3, strategy=DIRECT):
    return [BatchJob(inst.name, inst.problem, strategy)
            for inst in _conflict_suite(count)]


# ----------------------------------------------------------------------
# Work-stealing shard scheduler
# ----------------------------------------------------------------------

class TestShardScheduler:
    def test_shard_of_is_stable(self):
        assert shard_of("foo", 4) == shard_of("foo", 4)
        assert 0 <= shard_of("foo", 4) < 4

    def test_all_jobs_complete_across_shards(self):
        jobs = _jobs(4)
        result = run_sharded(jobs, num_shards=2, max_workers=4)
        assert len(result.results) == len(jobs) and not result.pending
        assert all(r.status is SolveStatus.UNSAT for r in result.results)
        launched = sum(s["launched"] for s in result.shards.values())
        assert launched == len(jobs)

    def test_idle_shard_steals_from_backlog(self):
        insts = _conflict_suite(8)
        skewed = [i for i in insts if shard_of(i.name, 2) == 0]
        assert len(skewed) >= 2, "suite must put >=2 instances on shard0"
        jobs = [BatchJob(i.name, i.problem, DIRECT) for i in skewed]
        result = run_sharded(jobs, num_shards=2, max_workers=2)
        assert result.steals >= 1
        assert result.shards["shard1"]["stolen"] == result.steals
        assert len(result.results) == len(jobs) and not result.pending

    def test_crashed_shard_worker_requeues_zero_lost(self):
        jobs = _jobs(3)
        result = run_sharded(
            jobs, num_shards=2, max_workers=2,
            quarantine=FAST_QUARANTINE,
            faults=FaultPlan.parse("seed=3; crash@dist_shard:match=*/s1"))
        assert len(result.results) == len(jobs) and not result.pending
        assert all(r.status is SolveStatus.UNSAT for r in result.results)
        assert sum(s["requeued"] for s in result.shards.values()) >= 1
        assert all(r.attempts == 2 and r.engine == "legacy"
                   for r in result.results)

    def test_single_shard_degenerates_to_flat_batch(self):
        jobs = _jobs(2)
        result = run_sharded(jobs, num_shards=1, max_workers=2)
        assert result.steals == 0
        assert len(result.results) == len(jobs)

    def test_dedup_fans_duplicates_back_out(self):
        jobs = _jobs(2)
        duplicated = jobs + [BatchJob(jobs[0].instance, jobs[0].problem,
                                      jobs[0].strategy)]
        result = run_sharded(duplicated, num_shards=2, max_workers=2)
        assert len(result.results) == 3
        launched = sum(s["launched"] for s in result.shards.values())
        assert launched == 2  # the duplicate never dispatched

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_sharded([], num_shards=0)
        with pytest.raises(ValueError):
            run_sharded([], max_attempts=0)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            run_sharded(_jobs(1), max_workers=0)

    @pytest.mark.parametrize("max_workers,slots", [
        (1, [1, 0]), (2, [1, 1]), (3, [2, 1])])
    def test_worker_slots_sum_to_max_workers(self, max_workers, slots):
        # A shard with no slot drains by being stolen from.
        jobs = _jobs(3)
        result = run_sharded(jobs, num_shards=2, max_workers=max_workers)
        assert [s["slots"] for s in result.shards.values()] == slots
        assert len(result.results) == len(jobs) and not result.pending
        assert all(r.status is SolveStatus.UNSAT for r in result.results)

    @pytest.mark.parametrize("runner,kwargs", [
        (run_batch, {}), (run_sharded, {"num_shards": 2})],
        ids=["run_batch", "run_sharded"])
    def test_both_names_run_one_loop(self, runner, kwargs):
        sat = ColoringProblem(cycle_graph(5), 3)
        crasher = Strategy("muldirect", "s1")
        jobs = [BatchJob("c5", sat, DIRECT),
                BatchJob("c5-copy", sat, DIRECT),
                BatchJob("k5", ColoringProblem(complete_graph(5), 4), DIRECT),
                BatchJob("c7", ColoringProblem(cycle_graph(7), 3), crasher)]
        obs.reset()
        trace.enable()
        try:
            result = runner(
                jobs, max_workers=2, audit=True, quarantine=FAST_QUARANTINE,
                faults=FaultPlan.parse(
                    f"seed=3; crash@arena:match={crasher.label}"),
                **kwargs)
            spans = [r for r in trace.tracer().drain_spans()
                     if r["name"] == "dist.schedule"]
        finally:
            obs.reset()
        table = {r.key: (r.status, r.attempts, r.engine)
                 for r in result.results}
        assert table == {
            ("c5", DIRECT.label): (SolveStatus.SAT, 1, "arena"),
            ("c5-copy", DIRECT.label): (SolveStatus.SAT, 1, "arena"),
            ("k5", DIRECT.label): (SolveStatus.UNSAT, 1, "arena"),
            ("c7", crasher.label): (SolveStatus.SAT, 2, "legacy"),
        }
        (span,) = spans
        assert "steals" in span["attrs"] and span["attrs"]["deduped"] == 1
        assert any(event["name"] == "job.requeued"
                   for event in span["events"])


# ----------------------------------------------------------------------
# Batch dedup (repro.bench.batch satellite)
# ----------------------------------------------------------------------

class TestBatchDedup:
    def test_run_batch_dedups_identical_jobs(self):
        from repro.bench.batch import run_batch
        inst = _conflict_suite(1)[0]
        jobs = [BatchJob(inst.name, inst.problem, DIRECT)
                for _ in range(3)]
        result = run_batch(jobs, max_workers=2)
        assert len(result.results) == 3
        assert all(r.status is SolveStatus.UNSAT for r in result.results)
        # All three carry the same wall time: one solve, fanned out.
        assert len({r.wall_time for r in result.results}) == 1

    def test_dedup_merges_same_content_across_names(self):
        # Content addressing, not name matching: distinct instance
        # names with identical (graph, colors, strategy) dedup too.
        from repro.bench.batch import run_batch
        problem = ColoringProblem(cycle_graph(5), 3)
        jobs = [BatchJob("c5-a", problem, DIRECT),
                BatchJob("c5-b", problem, DIRECT)]
        result = run_batch(jobs, max_workers=2)
        assert {r.job.instance for r in result.results} == {"c5-a", "c5-b"}
        assert len({r.wall_time for r in result.results}) == 1

    def test_dedup_opt_out(self):
        from repro.bench.batch import run_batch
        problem = ColoringProblem(cycle_graph(5), 3)
        jobs = [BatchJob("c5-a", problem, DIRECT),
                BatchJob("c5-b", problem, DIRECT)]
        result = run_batch(jobs, max_workers=2, dedup=False)
        assert len(result.results) == 2
        assert len({r.wall_time for r in result.results}) == 2
