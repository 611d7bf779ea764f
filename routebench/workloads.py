"""The two workloads: what each sends, how it is checked and timed.

``unroutable``    closed loop, 1 caller: ``repro.api.solve`` at W_min-1
                  (provably UNSAT), alternating the paper's best strategy
                  and the repository's best.  The SAT solver does most of
                  the work: this is the paper's Table-2 regime.
``batch-sharded`` ``repro.api.solve_batch`` over two shards and two
                  workers; the only path through ``repro.dist``.

A workload has a ``setup`` (timed, repeated for ``setup_s``), a
``prepare`` run once outside any timed region (the verdict oracle), and
``run`` for the timed window.  The traced ``unroutable`` run also
replays a short open loop against ``repro serve`` after its window
(:class:`ServeReplay`) for the service's layer metrics.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.core.encodings.registry import get_encoding
from repro.core.symmetry.clauses import apply_symmetry
from repro.fpga import detailed_route, route_netlist
from repro.obs import trace as obs_trace
from repro.sat.status import SolveStatus
from repro.serve.client import ServeClient, ServeRejected

from . import corpus, stats
from .corpus import PAPER_BEST, POP
from .spans import Spans

#: The checkout the benchmark runs in (scratch files go under it).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Outcome:
    """What one timed window produced."""

    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Correct answers, which count toward goodput.
    good: int = 0


def _passes(requests: Sequence, seconds: float, seed: int,
            samples_per_pass: int):
    """Closed-loop order: whole passes over the distinct requests, each
    in a seeded order, until a pass ends after ``seconds`` and the p90
    has its 100 samples.  Whole passes keep the request mix of every run
    the same; a window cut mid-pass let the order decide which requests
    were counted."""
    if not requests or samples_per_pass < 1:
        raise ValueError("a closed loop needs at least one request")
    rng = random.Random(seed)
    order = list(range(len(requests)))
    deadline = time.perf_counter() + seconds
    passes = 0
    while (time.perf_counter() < deadline
           or passes * samples_per_pass < stats.MIN_P90_SAMPLES):
        rng.shuffle(order)
        yield from order
        passes += 1


def _attempt(call, *args, **kwargs):
    """One request at the loop's boundary: an exception is a failed
    answer, reported with its traceback, not the end of the run."""
    try:
        return call(*args, **kwargs)
    except Exception:  # every failure counts; the run goes on
        traceback.print_exc()
        return None


def answer_ok(circuit: corpus.Circuit, request: api.SolveRequest,
              response: api.SolveResponse,
              spans: Spans = corpus.UNTRACED) -> bool:
    if request.colors < circuit.width:
        return response.status is SolveStatus.UNSAT
    return (response.status is SolveStatus.SAT
            and corpus.sat_answer_ok(circuit, request.colors,
                                     response.coloring, spans=spans))


def codec_ms(spans: Spans, requests: Sequence[api.SolveRequest]
             ) -> Dict[str, float]:
    """Time the request codecs and the content address once per
    distinct request (tracing-only work)."""
    with spans.extra():
        for index, request in enumerate(requests):
            with spans.span("api.to_wire", index):
                wire = request.to_wire()
            with spans.span("api.from_wire", index):
                api.SolveRequest.from_wire(wire)
            with spans.span("api.cache_key", index):
                request.cache_key()
    count = max(1, len(requests))
    return {"api.wire_ms": 1000 * (spans.total("api.to_wire")
                                   + spans.total("api.from_wire")) / count,
            "api.cache_key_ms": 1000 * spans.total("api.cache_key") / count}


def cnf_size(spans: Spans, requests: Sequence[api.SolveRequest]
             ) -> Dict[str, float]:
    """Exact CNF size summed over the distinct requests (re-encoded
    outside the timed window; encoding is deterministic)."""
    variables = clauses = 0
    with spans.extra():
        for request in requests:
            for strategy in request.strategies[:1]:
                encoded = get_encoding(strategy.encoding).encode(
                    request.problem())
                apply_symmetry(encoded, strategy.symmetry)
                variables += encoded.cnf.num_vars
                clauses += encoded.cnf.num_clauses
    return {"core.vars": variables, "core.clauses": clauses}


class _ResponseLayers:
    """Per-layer sums from SolveResponse timings and report stats."""

    def __init__(self) -> None:
        self.cnf = self.symmetry = self.solve = 0.0
        self.propagations = 0.0
        self.first: Dict[str, api.SolveResponse] = {}

    def add(self, response: api.SolveResponse) -> None:
        self.cnf += response.timings.get("cnf_time", 0.0)
        self.symmetry += response.timings.get("symmetry_time", 0.0)
        self.solve += response.timings.get("solve_time", 0.0)
        self.propagations += response.report.propagations
        self.first.setdefault(response.digest, response)

    def layers(self, requests: int, busy: float) -> Dict[str, float]:
        reports = [r.report for r in self.first.values()]
        return {
            "core.cnf_s": self.cnf / requests,
            "core.symmetry_s": self.symmetry / requests,
            "sat.solve_s": self.solve / requests,
            "sat.props_per_s": (self.propagations / self.solve
                                if self.solve else 0.0),
            "sat.share": self.solve / busy if busy else 0.0,
            "sat.conflicts": sum(r.conflicts for r in reports),
            "sat.decisions": sum(r.decisions for r in reports),
            "sat.propagations": sum(r.propagations for r in reports),
        }


def route_layers(spans: Spans, circuits: Sequence[corpus.Circuit]
                 ) -> Dict[str, float]:
    """Seconds per circuit of global routing and of the CSP build and
    decode inside ``detailed_route`` at W_min: the ``repro.fpga`` work
    of set-up and of the verdict oracle, timed once per circuit after
    the timed window (tracing-only work)."""
    route_s = csp_s = decode_s = 0.0
    with spans.extra():
        for index, circuit in enumerate(circuits):
            began = time.perf_counter()
            with spans.span("fpga.route_netlist", index):
                route_netlist(circuit.netlist)
            middle = time.perf_counter()
            with spans.span("fpga.detailed_route", index):
                result = detailed_route(circuit.routing, circuit.width, POP)
            detailed_s = time.perf_counter() - middle
            route_s += middle - began
            csp_s += result.csp.build_time
            decode_s += (detailed_s - result.csp.build_time
                         - result.outcome.encode_time
                         - result.outcome.solve_time)
    count = max(1, len(circuits))
    return {"fpga.route_s": route_s / count, "fpga.csp_s": csp_s / count,
            "fpga.decode_s": decode_s / count}


def _input_layers(circuits: Sequence[corpus.Circuit]) -> Dict[str, float]:
    return {"fpga.nets": sum(c.nets for c in circuits),
            "fpga.edges": sum(c.edges for c in circuits)}


def _confirm(state: "State", spans: Spans) -> None:
    """Run the verdict oracle on every circuit; a circuit it cannot
    confirm stays in the workload and fails the run."""
    budget = corpus.load_pool()["pool"]["oracle_budget"]
    for circuit in state.circuits:
        reason = corpus.confirm(circuit, budget, spans)
        if reason is not None:
            state.failures.append(f"oracle: {circuit.name}: {reason}")


def pooled(count: int) -> "State":
    """The first ``count`` circuits of the pool, each checked against
    its pool entry.  A circuit that does not match is kept, with its
    recorded width, and named in ``failures``; it is never dropped.

    The circuit set does not depend on the workload seed: drawing fresh
    circuits per seed made the run-to-run spread of every latency metric
    wider than its bound.  The seed orders and groups the requests and
    draws the service replay's arrival schedule."""
    records = corpus.load_pool()["pool"]["variants"][:count]
    if len(records) < count:
        raise RuntimeError(f"pool.json holds {len(records)} circuits, "
                           f"the workload needs {count}")
    state = State([])
    for record in records:
        circuit, reason = corpus.from_pool(record)
        state.circuits.append(circuit)
        if reason is not None:
            state.failures.append(f"set-up: {circuit.name}: {reason}")
    state.fingerprint = corpus.fingerprint(
        (c.graph, c.width) for c in state.circuits)
    return state


@dataclass
class State:
    circuits: List[corpus.Circuit]
    fingerprint: str = ""
    requests: List[Tuple[corpus.Circuit, api.SolveRequest]] = \
        field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Set-up and oracle checks that failed; each fails the run.
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)


class Unroutable:
    name = "unroutable"
    count = 40

    def setup(self, seed: int) -> State:
        return pooled(self.count)

    def prepare(self, state: State, seed: int, spans: Spans) -> None:
        _confirm(state, spans)
        state.requests = [(c, corpus.request(c, c.width - 1, [s]))
                          for c in state.circuits
                          for s in (PAPER_BEST, POP)]
        state.extra["pairs"] = [state.requests[i:i + 2] for i in
                                range(0, len(state.requests), 2)]

    def run(self, state: State, seconds: float, seed: int,
            spans: Spans) -> Outcome:
        out = Outcome()
        sums = _ResponseLayers()
        cpu0, overhead0 = stats.cpu_seconds(), spans.overhead
        start = time.perf_counter()
        pairs = state.extra["pairs"]
        for index in _passes(pairs, seconds, seed, len(state.requests)):
            # Each circuit's two strategies run back to back, so the
            # strategies alternate whatever order the pass takes.
            for circuit, request in pairs[index]:
                began = time.perf_counter()
                with spans.span("api.solve", index):
                    response = _attempt(api.solve, request)
                out.latencies_ms.append(1000 * (time.perf_counter() - began))
                out.attempted += 1
                if response is not None and answer_ok(circuit, request,
                                                      response, spans):
                    out.good += 1
                else:
                    out.failed += 1
                if spans.enabled and response is not None:
                    with spans.extra():
                        sums.add(response)
        out.elapsed = time.perf_counter() - start
        out.cpu_s = stats.cpu_seconds() - cpu0
        out.rss_mb = stats.peak_rss_mb()
        if spans.enabled:
            window_overhead = spans.overhead - overhead0
            distinct = [r for _, r in state.requests]
            out.layers.update(_input_layers(state.circuits))
            out.layers.update(sums.layers(out.attempted,
                                          sum(out.latencies_ms) / 1000))
            out.layers.update(cnf_size(spans, distinct))
            out.layers.update(codec_ms(spans, distinct))
            out.layers.update(route_layers(spans, state.circuits))
            out.layers["trace.overhead_ratio"] = \
                1 - window_overhead / out.elapsed
            # The service layers, from a short open-loop replay; its
            # answers are checked and count like the timed ones.
            with spans.extra():
                replay = SERVE_REPLAY.replay(state.circuits, seed, spans)
            out.layers.update(replay.layers)
            out.attempted += replay.attempted
            out.failed += replay.failed
            out.notes += replay.notes
        return out


class ServeReplay:
    """Open-loop replay against ``python -m repro serve`` in its shipped
    configuration: default worker count, disk cache, fsync'd journal,
    audit forced on every fill.  It runs only in the traced
    ``unroutable`` run, after the timed window, and gives the
    ``serve``, ``reliability`` and ``loadgen`` layer metrics.

    It is not a timed workload: between two arrivals the server's
    processor idles, and how long the machine takes to wake it varied so
    much with the load of the shared host that the p50 and p90 of ten
    32-second runs spread by up to 0.30 of their median, past every
    bound the benchmark can set."""

    #: Mid-size profiles only (about 200-300 conflict edges each): a hit
    #: costs time in proportion to the instance size, so with sizes
    #: spread 4:1 the seed's choice of popular digests moved the median.
    profiles = ("alu2", "too_large", "example2")
    count = 5
    #: Offered rate (requests per second) of the Poisson schedule and
    #: the replay's length.  At 10/s over 8 s the 25% fresh requests are
    #: exactly the 20 distinct ones (5 circuits x 2 widths x 2
    #: strategies), so every replay misses on the same set and only the
    #: order and the repeats follow the seed.
    rate, seconds = 10.0, 8.0
    connections = 2
    #: Shares of fresh digests and of superset asks; the rest (65%)
    #: repeat an earlier digest with Zipf popularity.
    fresh_share, superset_share, zipf_exponent = 0.25, 0.1, 0.6
    #: A superset request names a single issued at least this many
    #: fresh requests earlier, so its answer is normally cached by then.
    superset_lag = 5

    def circuits(self, circuits: Sequence[corpus.Circuit]
                 ) -> List[corpus.Circuit]:
        """The replay's circuits: the first of ``circuits`` from the
        mid-size profiles."""
        return [c for c in circuits
                if c.name.split("#")[0] in self.profiles][:self.count]

    def _schedule(self, circuits: Sequence[corpus.Circuit], seed: int,
                  seconds: float):
        """(due offset, circuit, request) for every arrival.  The count
        is fixed (rate x seconds) and the arrival times are uniform over
        the window, which is a Poisson process conditioned on its count;
        the shares of fresh, superset and repeated requests are exact
        in every block of 20 arrivals."""
        rng = random.Random(seed)
        total = round(self.rate * seconds)
        dues = sorted(rng.uniform(0, seconds) for _ in range(total))
        # Kinds are shuffled within blocks of 20 arrivals, so the exact
        # shares hold in every second of the replay and misses cannot
        # bunch up behind the single worker by chance.
        block = (["fresh"] * round(self.fresh_share * 20)
                 + ["superset"] * round(self.superset_share * 20))
        block += ["repeat"] * (20 - len(block))
        kinds: List[str] = []
        while len(kinds) < total:
            rng.shuffle(block)
            kinds += block
        kinds = kinds[:total]
        kinds.remove("fresh")
        kinds.insert(0, "fresh")
        pool = [(c, corpus.request(c, colors, [s], client="bench"))
                for c in circuits
                for colors in (c.width - 1, c.width)
                for s in (POP, PAPER_BEST)]
        rng.shuffle(pool)
        issued: List[Tuple[corpus.Circuit, api.SolveRequest]] = []
        schedule = []
        for due, kind in zip(dues, kinds):
            if kind == "fresh" and pool:
                item = pool.pop()
                issued.append(item)
            elif kind == "superset" and len(issued) > self.superset_lag:
                circuit, single = issued[self._zipf(
                    rng, len(issued) - self.superset_lag)]
                item = (circuit, corpus.request(
                    circuit, single.colors, (POP, PAPER_BEST),
                    client="bench"))
            else:
                item = issued[self._zipf(rng, len(issued))]
            schedule.append((due,) + item)
        return schedule

    def _zipf(self, rng: random.Random, size: int) -> int:
        weights = [1.0 / (rank + 1) ** self.zipf_exponent
                   for rank in range(size)]
        return rng.choices(range(size), weights)[0]

    def _boot(self, workdir: str) -> Tuple[subprocess.Popen, int]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--cache-dir", os.path.join(workdir, "cache"),
                   "--journal-dir", os.path.join(workdir, "journal"),
                   "--trace", os.path.join(workdir, "server.jsonl")]
        server = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                  text=True)
        line = server.stdout.readline()
        if "listening on" not in line:
            server.kill()
            server.wait()
            raise RuntimeError(f"repro serve failed to start: {line!r}")
        port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        return server, port

    def replay(self, circuits: Sequence[corpus.Circuit], seed: int,
               spans: Spans) -> Outcome:
        """Boot the service, replay the schedule, stop the service."""
        scratch = os.path.join(ROOT, ".routebench")
        os.makedirs(scratch, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="serve-", dir=scratch)
        server, port = self._boot(workdir)
        try:
            return self._drive(self.circuits(circuits), seed, spans, server,
                               port, workdir)
        finally:
            _stop(server)
            shutil.rmtree(workdir, ignore_errors=True)

    def _drive(self, circuits: Sequence[corpus.Circuit], seed: int,
               spans: Spans, server: subprocess.Popen, port: int,
               workdir: str) -> Outcome:
        schedule = self._schedule(circuits, seed, self.seconds)
        clients = [ServeClient("127.0.0.1", port, timeout=120)
                   for _ in range(self.connections)]
        results: List[Optional[tuple]] = [None] * len(schedule)
        cursor = iter(range(len(schedule)))
        lock = threading.Lock()
        out = Outcome()

        def sender(client: ServeClient) -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                offset, circuit, request = schedule[index]
                due = start + offset
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                try:
                    response = client.solve(request)
                    error = None
                except ServeRejected as rejected:
                    response, error = None, f"rejected: {rejected}"
                except Exception as failure:  # every failure counts
                    traceback.print_exc()
                    response, error = None, f"error: {failure!r}"
                done = time.perf_counter()
                spans.record("serve.ServeClient.solve", sent, done, index)
                results[index] = (due, sent, done, response, error)

        start = time.perf_counter()
        threads = [threading.Thread(target=sender, args=(c,))
                   for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        dump = clients[0].metrics()
        clients[0].shutdown()
        for client in clients:
            client.close()
        server.wait(timeout=60)

        late, hits, misses, overheads = [], [], [], []
        rejected = 0
        for (offset, circuit, request), result in zip(schedule, results):
            due, sent, done, response, error = result
            latency = 1000 * (done - due)
            late.append(1000 * (sent - due))
            out.attempted += 1
            if response is None or not answer_ok(circuit, request, response,
                                                 spans):
                out.failed += 1
                rejected += bool(error and error.startswith("rejected"))
                if error:
                    out.notes.append(f"request {request.cache_key()[:12]}: "
                                     f"{error}")
                continue
            if response.cached:
                hits.append(latency)
            else:
                misses.append(latency)
                overheads.append(latency - 1000 * response.report.wall_time)
        out.notes.append(f"serve replay: {out.attempted} requests offered "
                         f"at {self.rate:g}/s over {self.connections} "
                         f"connections, {out.failed} failed")
        counters = (dump.get("metrics") or {}).get("counters") or {}
        n = out.attempted
        out.layers.update({
            "reliability.audit_s": _span_seconds(
                os.path.join(workdir, "server.jsonl"), "audit") / n,
            "reliability.audit_fail": counters.get("audit.fail", 0),
            "serve.hit_ratio": len(hits) / n,
            "serve.superset_hits": counters.get(
                "serve.responses.superset", 0),
            "serve.coalesced": counters.get("serve.coalesced", 0),
            "serve.rejected": counters.get("serve.rejected", 0) + rejected,
            "serve.hit_p50_ms": stats.median(hits),
            "serve.miss_p50_ms": stats.median(misses),
            "serve.miss_overhead_ms": stats.median(overheads),
            "loadgen.late_p90_ms": stats.percentile(late, 0.9),
            "loadgen.offered_rps": n / (max(r[1] for r in results) - start),
        })
        return out


#: The replay the traced ``unroutable`` run makes.
SERVE_REPLAY = ServeReplay()


def _stop(server: subprocess.Popen) -> None:
    """Make sure the server and its pool workers have ended: a clean run
    has already shut it down; otherwise SIGTERM (a draining stop), then
    SIGKILL for the server and every worker still alive."""
    if server.poll() is None:
        workers = stats.descendants(server.pid)
        server.terminate()
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    server.stdout.close()


def _span_seconds(path: str, name: str) -> float:
    """Total wall seconds of the spans called ``name`` in a trace file
    the program wrote."""
    total = 0.0
    if not os.path.exists(path):
        return total
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("type") == "span" and record.get("name") == name:
                total += record.get("wall", 0.0)
    return total


class BatchSharded:
    name = "batch-sharded"
    count = 18
    shards = workers = 2
    #: Circuits per batch: each adds a SAT request at W_min and an
    #: UNSAT one at W_min-1 with the repository's best strategy.
    per_batch = 3

    def setup(self, seed: int) -> State:
        return pooled(self.count)

    def prepare(self, state: State, seed: int, spans: Spans) -> None:
        _confirm(state, spans)
        order = state.circuits
        batches = []
        for first in range(0, len(order), self.per_batch):
            group = order[first:first + self.per_batch]
            batch = [(c, corpus.request(c, colors, [POP]))
                     for c in group for colors in (c.width, c.width - 1)]
            # A few hard proofs (the paper's best strategy at W_min-1)
            # unbalance the shards so idle ones steal, and one repeated
            # request exercises content-addressed dedup.
            batch += [(c, corpus.request(c, c.width - 1, [PAPER_BEST]))
                      for c in group[:2]]
            batch.append(batch[0])
            batches.append(batch)
        state.extra["batches"] = batches
        state.requests = [item for batch in batches for item in batch]

    def run(self, state: State, seconds: float, seed: int,
            spans: Spans) -> Outcome:
        out = Outcome()
        sums = _ResponseLayers()
        batches = state.extra["batches"]
        slot_seconds = worked = 0.0
        jobs = steals = requeued = deduped = 0
        if spans.enabled:
            # The scheduler's own span carries its steal, dedup and
            # requeue accounting.  Its metrics-registry counters are not
            # used: forked workers ship back the registry they inherited,
            # so those counters compound across jobs.
            obs_trace.tracer().reset()
            obs_trace.enable()
        cpu0, overhead0 = stats.cpu_seconds(), spans.overhead
        start = time.perf_counter()
        for index in _passes(batches, seconds, seed,
                             len(state.requests)):
            batch = batches[index]
            began = time.perf_counter()
            with spans.span("api.solve_batch", index):
                responses = _attempt(
                    api.solve_batch, [request for _, request in batch],
                    num_shards=self.shards, max_workers=self.workers
                ) or [None] * len(batch)
            wall = time.perf_counter() - began
            if spans.enabled:
                with spans.extra():
                    for record in obs_trace.tracer().drain_spans():
                        if record.get("name") != "dist.schedule":
                            continue
                        attrs = record.get("attrs") or {}
                        steals += attrs.get("steals", 0)
                        deduped += attrs.get("deduped", 0)
                        requeued += sum(
                            event["name"] == "job.requeued"
                            for event in record.get("events") or ())
            for (circuit, request), response in zip(batch, responses):
                out.latencies_ms.append(1000 * wall)
                out.attempted += 1
                if response is not None and answer_ok(circuit, request,
                                                      response, spans):
                    out.good += 1
                else:
                    out.failed += 1
                if spans.enabled and response is not None:
                    with spans.extra():
                        sums.add(response)
            slot_seconds += wall * self.workers
            worked += sum(r.report.wall_time for r in responses
                          if r is not None)
            jobs += len(batch)
        out.elapsed = time.perf_counter() - start
        window_overhead = spans.overhead - overhead0
        out.cpu_s = stats.cpu_seconds() - cpu0
        out.rss_mb = stats.peak_rss_mb()
        if spans.enabled:
            obs_trace.tracer().reset()
            n = out.attempted
            distinct = list({r.cache_key(): r
                             for _, r in state.requests}.values())
            out.layers.update(_input_layers(state.circuits))
            out.layers.update(sums.layers(n, sum(out.latencies_ms) / 1000))
            out.layers.update(cnf_size(spans, distinct))
            out.layers.update(codec_ms(spans, distinct))
            out.layers.update({
                "dist.steals": steals,
                "dist.requeued": requeued,
                "dist.deduped": deduped,
                "dist.busy_ratio": worked / slot_seconds,
                "dist.overhead_ms_per_job":
                    1000 * (slot_seconds - worked) / jobs,
                "trace.overhead_ratio": 1 - window_overhead / out.elapsed,
            })
        return out


WORKLOADS = {w.name: w for w in (Unroutable(), BatchSharded())}
