"""Run one benchmark workload and print its metrics.

    python3 routebench/run.py --workload unroutable --seed 1 \
        --seconds 45 --trace 0

Run from the repository root: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``routebench/METRICS.md``), as ``BENCHMARK.json`` declares
them.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every set-up check, oracle verdict and timed answer was correct.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    sys.path[:0] = [source, ROOT]
    try:
        import repro  # the program under test
    except ImportError as error:
        print(f"routebench: cannot import the program from {source}: "
              f"{error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"routebench: imported repro from {repro.__file__}, "
              f"not from {source}", file=sys.stderr)
        return 2
    from routebench import layers, stats
    from routebench.spans import Spans
    from routebench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"routebench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    setup_times, prints = [], set()
    for _ in range(SETUP_REPS):
        began = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - began)
        prints.add(state.fingerprint)
    if len(prints) != 1:
        print("routebench: set-up is not deterministic for this seed",
              file=sys.stderr)
        return 1
    spans = Spans(bool(args.trace))
    began = time.perf_counter()
    workload.prepare(state, args.seed, spans)
    oracle_s = time.perf_counter() - began
    print(f"workload {workload.name} seed {args.seed}: "
          f"{len(state.circuits)} circuits")
    print(f"input fingerprint {state.fingerprint} "
          f"K={[c.width for c in state.circuits]}")
    print(f"setup {', '.join(f'{t:.3f}' for t in setup_times)} s; "
          f"oracle and preparation {oracle_s:.3f} s")

    out = workload.run(state, args.seconds, args.seed, spans)
    for note in state.notes + out.notes:
        print(note)
    for failure in state.failures:
        print(f"FAILED {failure}")
    try:
        p90 = stats.p90(out.latencies_ms)
    except stats.TooFewSamples as error:
        print(f"routebench: {error}", file=sys.stderr)
        return 1
    # Each failed set-up or oracle check counts as one failed operation
    # next to the timed requests.
    attempted = out.attempted + len(state.failures)
    failed = out.failed + len(state.failures)
    print(f"{out.attempted} requests timed over {out.elapsed:.2f} s, "
          f"{out.failed} failed; {len(state.failures)} set-up or oracle "
          f"checks failed (fail_ratio {failed / attempted:g})")
    if args.trace:
        metrics = layers.report("per_layer", out.layers, absent=0.0)
        scratch = os.path.join(ROOT, ".routebench")
        os.makedirs(scratch, exist_ok=True)
        spans.write(os.path.join(
            scratch, f"spans-{workload.name}-{args.seed}.jsonl"),
            f"{workload.name}:{args.seed}")
    else:
        metrics = layers.report("end_to_end", {
            "setup_s": stats.median(setup_times),
            "latency_p50_ms": stats.median(out.latencies_ms),
            "latency_p90_ms": p90,
            "goodput_rps": out.good / out.elapsed,
            "cpu_ms_per_req": 1000 * out.cpu_s / out.attempted,
            "peak_rss_mb": out.rss_mb,
        })
    print("\n".join(stats.table(metrics)))
    print(stats.result_line(failed == 0, attempted, failed, metrics))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
