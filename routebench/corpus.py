"""Seeded routing corpora for the benchmark workloads.

Every circuit is a :class:`repro.fpga.CircuitSpec` variant of one of the
twelve MCNC-like profiles in :mod:`repro.fpga.mcnc`: the profile fixes
the grid, net count and locality, a seed and a variant index only
replace the spec's ``seed`` field.  The program under test receives
nothing but the generated netlists, global routings and conflict graphs.

The workloads draw from a calibrated pool (``pool.json``, written by
``calibrate.py``).  Its ``pool`` corpus lists variants whose W_min
search and W_min-1 proofs fit conflict budgets, so that one run's cost
does not hinge on a single pathological instance.  Every entry records
the width and an instance digest, and set-up checks both: a circuit
that no longer matches its entry is a failure of the run, never a
silent drop.
Budgets are counted in conflicts, so the pool does not depend on the
machine.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import zlib
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro import api
from repro.coloring.dimacs import canonical_bytes
from repro.coloring.greedy import greedy_num_colors
from repro.coloring.problem import ColoringProblem, Graph
from repro.core.pipeline import solve_coloring
from repro.core.strategy import Strategy
from repro.fpga import (ALL_BENCHMARKS, CircuitSpec, GlobalRouting, Netlist,
                        RoutingCSP, assignment_from_coloring, benchmark_spec,
                        build_conflict_graph, build_routing_csp,
                        generate_netlist, minimum_channel_width,
                        route_netlist, verify_track_assignment)
from repro.fpga.flow import detailed_route
from repro.reliability.audit import audit_outcome
from repro.sat.solver.cdcl import BudgetExceeded
from repro.sat.status import SolveLimits, SolveStatus

from .spans import Spans

#: The recorder handed to code that may run outside a traced run.
UNTRACED = Spans(False)

#: Variant seed of the calibrated pool (``routebench/pool.json``).
POOL_SEED = 0

POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pool.json")

#: The repository's best single strategy (docs/encodings.md, Table 2).
POP = Strategy("pop", "s1")
#: The paper's best single strategy.
PAPER_BEST = Strategy("ITE-linear-2+muldirect", "s1")


@dataclass
class Circuit:
    """One generated circuit and what set-up learned about it."""

    name: str
    spec: CircuitSpec
    netlist: Netlist
    routing: GlobalRouting
    graph: Graph
    #: W_min once searched, DSATUR's width before.
    width: int

    @property
    def nets(self) -> int:
        return len(self.netlist.nets)

    @property
    def edges(self) -> int:
        return self.graph.num_edges


def variant(profile: str, seed: int, index: int, scale: float) -> CircuitSpec:
    """The ``index``-th seeded variant of an MCNC-like profile."""
    spec = benchmark_spec(profile, scale)
    mixed = zlib.crc32(f"{profile}:{seed}:{index}".encode("utf-8"))
    return replace(spec, seed=mixed, name=f"{profile}#{index}")


def route(spec: CircuitSpec) -> Circuit:
    """Generate and globally route one circuit; width is DSATUR's."""
    netlist = generate_netlist(spec)
    routing = route_netlist(netlist)
    graph = build_conflict_graph(routing)
    return Circuit(spec.name, spec, netlist, routing, graph,
                   max(1, greedy_num_colors(graph)))


def search_width(circuit: Circuit, budget: int) -> Optional[str]:
    """Set ``circuit.width`` to W_min, found with the repository's best
    strategy under ``budget`` conflicts per probe.  Returns None on
    success, else why no W_min with a width below it was found."""
    try:
        circuit.width = minimum_channel_width(
            circuit.routing, POP, limits=SolveLimits(conflict_budget=budget))
    except BudgetExceeded as error:
        return f"width search: {error}"
    return None if circuit.width >= 2 else f"W_min is {circuit.width}"


def sat_answer_ok(circuit: Circuit, colors: int, coloring,
                  csp: Optional[RoutingCSP] = None,
                  spans: Spans = UNTRACED) -> bool:
    """A SAT answer is a proper coloring of the circuit's conflict graph
    whose decoded track assignment passes the routing-level verifier.
    ``csp`` is the one the answer was solved on, when the caller has it;
    otherwise it is rebuilt from the circuit's routing."""
    if coloring is None:
        return False
    if csp is None:
        with spans.span("fpga.build_routing_csp"):
            csp = build_routing_csp(circuit.routing, colors)
    return (csp.width == colors
            and csp.problem.graph.num_edges == circuit.edges
            and csp.problem.is_valid_coloring(coloring)
            and not verify_track_assignment(
                assignment_from_coloring(csp, coloring)))


def confirm(circuit: Circuit, budget: int, spans: Spans = UNTRACED,
            strategies: Sequence[Strategy] = (POP, PAPER_BEST)
            ) -> Optional[str]:
    """The verdict oracle, run once outside the timed region.

    W_min must route: the decoded track assignment is re-verified.
    W_min - 1 must be UNSAT under every strategy within ``budget``
    conflicts, and the first strategy's DRUP proof must replay through
    the independent RUP checker.  Returns None when the circuit is
    confirmed, else why it is not.
    """
    with spans.span("fpga.detailed_route", circuit.name):
        routed = detailed_route(circuit.routing, circuit.width, POP)
    if not (routed.routable and sat_answer_ok(
            circuit, circuit.width, routed.outcome.coloring, routed.csp)):
        return f"no verified routing at W_min={circuit.width}"
    problem = ColoringProblem(circuit.graph, circuit.width - 1)
    limits = SolveLimits(conflict_budget=budget)
    for position, strategy in enumerate(strategies):
        with spans.span("core.solve_coloring", circuit.name):
            outcome = solve_coloring(problem, strategy, limits=limits,
                                     proof_log=position == 0,
                                     keep_model=position == 0)
        if outcome.status is not SolveStatus.UNSAT:
            return f"{strategy.label} at W_min-1: {outcome.status}"
        if position == 0:
            with spans.span("reliability.audit_outcome", circuit.name):
                audit = audit_outcome(problem, outcome)
            if not audit.passed:
                return f"{strategy.label} proof failed RUP replay"
    return None


def calibrate(scale: float, count: int, search_budget: int,
              oracle_budget: int, tries: int = 40) -> List[List]:
    """Pool entries (see :func:`entry`) of ``count`` pool-seed variants,
    taken round-robin over the profiles, whose width search and verdict
    oracle fit the budgets.  A profile stops contributing after
    ``tries`` variants in a row miss them."""
    chosen: List[List] = []
    next_index = {profile: 0 for profile in ALL_BENCHMARKS}
    misses = {profile: 0 for profile in ALL_BENCHMARKS}
    while len(chosen) < count:
        live = [p for p in ALL_BENCHMARKS if misses[p] < tries]
        if not live:
            raise RuntimeError(f"only {len(chosen)} variants fit the budgets")
        for profile in live:
            if len(chosen) == count:
                break
            while misses[profile] < tries:
                index = next_index[profile]
                next_index[profile] += 1
                circuit = route(variant(profile, POOL_SEED, index, scale))
                if (search_width(circuit, search_budget) is None
                        and confirm(circuit, oracle_budget) is None):
                    chosen.append(entry(profile, index, circuit))
                    misses[profile] = 0
                    break
                misses[profile] += 1
    return chosen


def entry(profile: str, index: int, circuit: Circuit) -> List:
    """``[profile, index, width, digest]``: how the pool records one
    variant and what set-up must find for it again."""
    return [profile, index, circuit.width, digest(circuit)]


def digest(circuit: Circuit) -> str:
    return fingerprint([(circuit.graph, circuit.width)])[:16]


@functools.lru_cache(maxsize=None)
def load_pool() -> dict:
    with open(POOL_FILE) as handle:
        return json.load(handle)


def from_pool(record: Sequence) -> Tuple[Circuit, Optional[str]]:
    """Generate one pool circuit and check it against its entry: the
    same instance and the same width (W_min, found again within the
    pool's search budget).  The circuit carries the recorded width
    whatever set-up found, so the inputs never depend on the program
    being measured.  Returns the circuit and why it does not match, or
    None."""
    section = load_pool()["pool"]
    profile, index, width, expected = record
    circuit = route(variant(profile, POOL_SEED, index, section["scale"]))
    reason = search_width(circuit, section["search_budget"])
    if reason is None and circuit.width != width:
        reason = f"width {circuit.width}, pool.json records {width}"
    circuit.width = width
    if reason is None and digest(circuit) != expected:
        reason = "instance differs from its pool.json digest"
    return circuit, reason


def fingerprint(items) -> str:
    """SHA-256 over each instance's canonical DIMACS bytes plus its K,
    in order — equal on two commits iff they ran the same inputs."""
    hasher = hashlib.sha256()
    for graph, colors in items:
        hasher.update(canonical_bytes(graph))
        hasher.update(b"\x00K=%d\x00" % colors)
    return hasher.hexdigest()


def request(circuit: Circuit, colors: int, strategies, **kwargs
            ) -> api.SolveRequest:
    return api.SolveRequest(graph=circuit.graph, colors=colors,
                            strategies=tuple(strategies), **kwargs)
