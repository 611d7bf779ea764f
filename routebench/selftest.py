"""The benchmark's own checks.

    python3 routebench/selftest.py

Run from the repository root.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from typing import Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.fpga import ALL_BENCHMARKS  # noqa: E402

from routebench import corpus, layers, stats, workloads  # noqa: E402
from routebench.workloads import WORKLOADS  # noqa: E402


def check_generator_deterministic() -> None:
    def specs(seed):
        return [corpus.variant(profile, seed, index, 0.5)
                for index, profile in enumerate(ALL_BENCHMARKS * 2)]

    assert specs(7) == specs(7)
    assert len({spec.seed for spec in specs(7)}) == 24
    assert {s.seed for s in specs(8)}.isdisjoint(s.seed for s in specs(7))
    batch = WORKLOADS["batch-sharded"]
    state = batch.setup(7)
    assert state.fingerprint == batch.setup(7).fingerprint
    replay = workloads.SERVE_REPLAY
    circuits = replay.circuits(state.circuits)
    assert len(circuits) == replay.count, circuits

    def arrivals(seed):
        return [(due, request.cache_key()) for due, _, request
                in replay._schedule(circuits, seed, replay.seconds)]

    assert arrivals(7) == arrivals(7), "same seed, new schedule"
    assert arrivals(7) != arrivals(8), "the seed does not reach the schedule"


def check_p90_needs_100_samples() -> None:
    try:
        stats.p90([1.0] * 99)
    except stats.TooFewSamples:
        pass
    else:
        raise AssertionError("p90 accepted 99 samples")
    assert stats.p90([float(i) for i in range(1, 101)]) == 90.0


def check_metric_names() -> None:
    for section in ("end_to_end", "per_layer"):
        for name in layers.declared(section):
            assert stats.NAME_PATTERN.match(name), name
    with open(layers.BENCHMARK_FILE) as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def _faulted_run(workload: str) -> Tuple[str, int]:
    """Run ``workload`` with the program's own fault injection flipping
    a variable of every SAT model (``wrong_model`` via ``REPRO_FAULTS``);
    the run must report failures and exit non-zero.  Returns its stdout
    and how many timed requests failed."""
    env = dict(os.environ, REPRO_FAULTS="seed=1; wrong_model@solver")
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert run.returncode != 0, f"faulted {workload} run exited 0"
    assert not result["correct"] and result["failed"] > 0, result
    timed = re.search(r"requests timed over [0-9.]+ s, (\d+) failed",
                      run.stdout)
    assert timed, run.stdout
    return run.stdout, int(timed.group(1))


def check_wrong_model_is_a_failure() -> None:
    """Corrupted SAT answers in the timed loop are counted as failed:
    ``batch-sharded`` sends a SAT request at W_min for every circuit,
    solved in the shard workers."""
    _, timed_failures = _faulted_run("batch-sharded")
    assert timed_failures > 0, "no timed SAT answer was counted as failed"


def check_wrong_verdict_in_setup_is_a_failure() -> None:
    """On ``unroutable`` every timed request is UNSAT, so a wrong model
    can only show outside the timed loop, in the verdict oracle's
    routing at W_min.  Those circuits must fail the run, not drop out
    of it."""
    stdout, timed_failures = _faulted_run("unroutable")
    assert "FAILED oracle" in stdout, stdout
    assert timed_failures == 0, stdout


def _tampered(change) -> dict:
    """A copy of the calibrated pool with ``change`` applied to it."""
    pool = json.loads(json.dumps(corpus.load_pool()))
    change(pool["pool"])
    return pool


def _pooled_with(pool: dict, count: int) -> workloads.State:
    load_pool = corpus.load_pool
    corpus.load_pool = lambda: pool
    try:
        return workloads.pooled(count)
    finally:
        corpus.load_pool = load_pool


def check_pool_mismatch_is_a_failure() -> None:
    """A circuit whose width, instance or width search no longer matches
    its pool entry stays in the workload, with its recorded width, and
    is named as a failure."""
    def entries(section):
        section["variants"][0][2] += 1
        section["variants"][1][3] = "0" * 16

    def budget(section):
        section["search_budget"] = 1

    tampered = _tampered(entries)
    state = _pooled_with(tampered, 3)
    assert len(state.circuits) == 3, state.circuits
    assert state.circuits[0].width == tampered["pool"]["variants"][0][2]
    assert len(state.failures) == 2, state.failures
    assert "pool.json records" in state.failures[0]
    assert "digest" in state.failures[1]
    # The second pool circuit needs more than one conflict per probe.
    state = _pooled_with(_tampered(budget), 2)
    assert len(state.circuits) == 2, state.circuits
    assert len(state.failures) == 1, state.failures
    assert "width search" in state.failures[0], state.failures


CHECKS = (check_generator_deterministic, check_p90_needs_100_samples,
          check_metric_names, check_pool_mismatch_is_a_failure,
          check_wrong_model_is_a_failure,
          check_wrong_verdict_in_setup_is_a_failure)


def main() -> int:
    failures = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as error:
            failures += 1
            print(f"FAIL {check.__name__}: {error}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
