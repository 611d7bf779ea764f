"""The pre-arena CDCL engine, kept as a measurable baseline.

This is the original clause-object implementation of the solver: each
clause is its own Python list and watch lists hold bare clause indices.
:mod:`repro.sat.solver.cdcl` superseded it with a flat clause arena and
blocker-literal watch pairs; this copy is retained behind
``SolverConfig(engine="legacy")`` so the benchmark harness can measure
the BCP speedup of the arena engine against it *in the same run*
(``repro.bench.throughput``), and so search-behavior regressions can be
cross-checked against the original trajectory.

Apart from routing the DIMACS-literal↔code conversion through
:mod:`repro.sat.literals`, the algorithm is byte-for-byte the seed
solver: same propagation order, same learning, same restarts — the two
engines produce identical decision/conflict counts on every instance.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Dict, List, Optional

from ..cnf import CNF
from ..literals import clause_to_codes, lit_to_code, var_of
from ..model import Model, SolveResult
from ..status import CancelToken, SolveStatus
from .cdcl import BudgetExceeded, CDCLSolver
from .config import SolverConfig
from .luby import luby

_UNDEF = 0
_TRUE = 1
_FALSE = -1

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


class LegacyCDCLSolver:
    """The clause-object CDCL engine (see module docstring).

    Drop-in API-compatible with
    :class:`repro.sat.solver.cdcl.CDCLSolver`; the arena-only stats
    counters (``blocker_hits``, ``watch_inspections``,
    ``arena_compactions``) are simply absent from ``stats``.
    """

    def __init__(self, cnf: CNF, config: Optional[SolverConfig] = None) -> None:
        self.config = config or SolverConfig()
        self.num_vars = cnf.num_vars
        self._rng = random.Random(self.config.seed)

        n = self.num_vars
        # values is indexed by literal code; entry 0/1 are padding.
        self._values: List[int] = [_UNDEF] * (2 * n + 2)
        self._level: List[int] = [0] * (n + 1)
        self._reason: List[int] = [-1] * (n + 1)  # clause index, -1 = none
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0

        self._activity: List[float] = [0.0] * (n + 1)
        self._var_inc = 1.0
        self._heap: List = [(0.0, v) for v in range(1, n + 1)]
        heapq.heapify(self._heap)
        if self.config.default_phase == "true":
            self._saved_phase = [True] * (n + 1)
        elif self.config.default_phase == "random":
            self._saved_phase = [self._rng.random() < 0.5 for _ in range(n + 1)]
        else:
            self._saved_phase = [False] * (n + 1)

        self._clauses: List[Optional[List[int]]] = []
        self._learnt: List[bool] = []
        self._clause_act: List[float] = []
        self._clause_inc = 1.0
        self._num_original = 0
        self._num_learned_live = 0
        self._watches: List[List[int]] = [[] for _ in range(2 * n + 2)]
        self._seen = bytearray(n + 1)

        self._ok = True  # False once root-level unsatisfiability is known
        #: DRUP-style clausal proof: every learned clause in DIMACS
        #: literals, in derivation order, terminated by () on UNSAT.
        #: Populated only when config.proof_log is set.
        self.proof: List[tuple] = []
        self.stats: Dict[str, float] = {
            "conflicts": 0, "decisions": 0, "propagations": 0,
            "restarts": 0, "learned_clauses": 0, "deleted_clauses": 0,
            "minimized_literals": 0,
        }
        self._ingest(cnf)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _ingest(self, cnf: CNF) -> None:
        for clause in cnf:
            if not self._ok:
                return
            codes = clause_to_codes(clause)
            if codes is None:  # tautology
                continue
            if not codes:
                self._ok = False
                return
            if len(codes) == 1:
                value = self._values[codes[0]]
                if value == _FALSE:
                    self._ok = False
                elif value == _UNDEF:
                    self._enqueue(codes[0], -1)
            else:
                self._attach(codes, learnt=False)
        if self._ok and self._propagate() != -1:
            self._ok = False

    def _attach(self, codes: List[int], learnt: bool) -> int:
        index = len(self._clauses)
        self._clauses.append(codes)
        self._learnt.append(learnt)
        self._clause_act.append(0.0)
        self._watches[codes[0]].append(index)
        self._watches[codes[1]].append(index)
        if learnt:
            self._num_learned_live += 1
        else:
            self._num_original += 1
        return index

    # ------------------------------------------------------------------
    # Assignment / trail
    # ------------------------------------------------------------------

    def _enqueue(self, code: int, reason: int) -> None:
        self._values[code] = _TRUE
        self._values[code ^ 1] = _FALSE
        var = code >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(code)

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        values = self._values
        saved = self._saved_phase
        heap = self._heap
        activity = self._activity
        for code in reversed(self._trail[limit:]):
            var = code >> 1
            saved[var] = not (code & 1)
            values[code] = _UNDEF
            values[code ^ 1] = _UNDEF
            self._reason[var] = -1
            heapq.heappush(heap, (-activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # Unit propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> int:
        """Propagate all enqueued assignments.

        Returns the index of a conflicting clause, or -1 if none.
        """
        values = self._values
        watches = self._watches
        clauses = self._clauses
        trail = self._trail
        conflict = -1
        while self._qhead < len(trail):
            propagated = trail[self._qhead]
            self._qhead += 1
            self.stats["propagations"] += 1
            false_code = propagated ^ 1
            watchers = watches[false_code]
            i = 0
            j = 0
            count = len(watchers)
            while i < count:
                ci = watchers[i]
                i += 1
                lits = clauses[ci]
                if lits is None:
                    continue  # deleted clause: drop from this watch list
                if lits[0] == false_code:
                    lits[0] = lits[1]
                    lits[1] = false_code
                first = lits[0]
                if values[first] == _TRUE:
                    watchers[j] = ci
                    j += 1
                    continue
                found = False
                for k in range(2, len(lits)):
                    code = lits[k]
                    if values[code] != _FALSE:
                        lits[1] = code
                        lits[k] = false_code
                        watches[code].append(ci)
                        found = True
                        break
                if found:
                    continue
                watchers[j] = ci
                j += 1
                if values[first] == _FALSE:
                    # Conflict: keep remaining watchers and stop.
                    while i < count:
                        watchers[j] = watchers[i]
                        j += 1
                        i += 1
                    self._qhead = len(trail)
                    conflict = ci
                else:
                    self._enqueue(first, ci)
            del watchers[j:]
            if conflict != -1:
                return conflict
        return -1

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > _RESCALE_LIMIT:
            self._rescale_activities()
        if self._values[2 * var] == _UNDEF:
            heapq.heappush(self._heap, (-self._activity[var], var))

    def _rescale_activities(self) -> None:
        for var in range(1, self.num_vars + 1):
            self._activity[var] *= _RESCALE_FACTOR
        self._var_inc *= _RESCALE_FACTOR
        values = self._values
        self._heap = [(-self._activity[v], v) for v in range(1, self.num_vars + 1)
                      if values[2 * v] == _UNDEF]
        heapq.heapify(self._heap)

    def _bump_clause(self, index: int) -> None:
        self._clause_act[index] += self._clause_inc
        if self._clause_act[index] > _RESCALE_LIMIT:
            for i in range(len(self._clause_act)):
                self._clause_act[i] *= _RESCALE_FACTOR
            self._clause_inc *= _RESCALE_FACTOR

    def _analyze(self, conflict: int) -> (List[int], int):
        """First-UIP analysis.  Returns (learnt clause codes, backtrack level)
        with the asserting literal in position 0."""
        learnt: List[int] = [0]
        seen = self._seen
        trail = self._trail
        level = self._level
        current_level = len(self._trail_lim)
        to_clear: List[int] = []
        counter = 0
        p = -1
        index = len(trail) - 1
        clause = conflict
        while True:
            lits = self._clauses[clause]
            if self._learnt[clause]:
                self._bump_clause(clause)
            for q in (lits if p == -1 else lits[1:]):
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    self._bump_var(var)
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            var = p >> 1
            clause = self._reason[var]
            seen[var] = 0
            counter -= 1
            index -= 1
            if counter <= 0:
                break
        learnt[0] = p ^ 1

        # Local minimisation: drop a literal whose reason clause is entirely
        # covered by the rest of the learnt clause (or by root assignments).
        if len(learnt) > 2:
            kept = [learnt[0]]
            for q in learnt[1:]:
                reason = self._reason[q >> 1]
                if reason == -1:
                    kept.append(q)
                    continue
                redundant = True
                for other in self._clauses[reason]:
                    var = other >> 1
                    if var == q >> 1:
                        continue
                    if not seen[var] and level[var] > 0:
                        redundant = False
                        break
                if redundant:
                    self.stats["minimized_literals"] += 1
                else:
                    kept.append(q)
            learnt = kept

        for var in to_clear:
            seen[var] = 0

        if len(learnt) == 1:
            return learnt, 0
        # Move a literal from the highest remaining level to position 1.
        best = 1
        for k in range(2, len(learnt)):
            if level[learnt[k] >> 1] > level[learnt[best] >> 1]:
                best = k
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[learnt[1] >> 1]

    # ------------------------------------------------------------------
    # Learned-clause database reduction
    # ------------------------------------------------------------------

    def _reduce_db(self) -> None:
        # Clauses currently acting as reason for a trail literal must
        # survive the reduction *unconditionally* — deleting one would
        # leave a dangling _reason index for _analyze.  An explicit set
        # over the trail replaces the old slot-0 heuristic, so the
        # guarantee no longer depends on watch normalisation.
        reason = self._reason
        protected = {reason[code >> 1] for code in self._trail}
        protected.discard(-1)
        candidates = [i for i in range(len(self._clauses))
                      if self._learnt[i] and self._clauses[i] is not None
                      and len(self._clauses[i]) > 2 and i not in protected]
        candidates.sort(key=lambda i: self._clause_act[i])
        for i in candidates[:len(candidates) // 2]:
            self._clauses[i] = None
            self._num_learned_live -= 1
            self.stats["deleted_clauses"] += 1

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        values = self._values
        if (self.config.random_decision_freq > 0.0
                and self._rng.random() < self.config.random_decision_freq):
            for _ in range(10):
                var = self._rng.randint(1, self.num_vars)
                if values[2 * var] == _UNDEF:
                    return var
        heap = self._heap
        while heap:
            _, var = heapq.heappop(heap)
            if values[2 * var] == _UNDEF:
                return var
        for var in range(1, self.num_vars + 1):
            if values[2 * var] == _UNDEF:
                return var
        return 0

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def solve(self, assumptions: Optional[List[int]] = None,
              cancel: Optional[CancelToken] = None) -> SolveResult:
        """Run the CDCL search and return the result.

        ``assumptions`` is an optional list of DIMACS literals assumed
        true for this call only.  An UNSAT result under assumptions does
        not mean the formula itself is unsatisfiable
        (``stats["assumption_failed"]`` distinguishes the two).

        Soft budgets and the ``cancel`` token behave exactly as in the
        arena engine (see :meth:`CDCLSolver.solve`): checked on conflict
        and decision boundaries, ending the call with a
        TIMEOUT / BUDGET_EXHAUSTED status instead of an exception.
        """
        start = time.perf_counter()
        # Chaos hook, shared with the arena engine (see
        # CDCLSolver._fault_injector); None on the normal path.
        injector = self._injector = self._fault_injector()
        if injector is not None:
            injector.maybe_hang()
            injector.maybe_crash()
        self._props_at_start = self.stats["propagations"]
        self._cancel_until(0)  # fresh call on a reused solver
        self.stats.pop("assumption_failed", None)
        self.stats.pop("stop_reason", None)
        assumed = []
        for lit in (assumptions or []):
            var = var_of(lit)
            if not 1 <= var <= self.num_vars:
                raise ValueError(f"assumption {lit} outside variables "
                                 f"1..{self.num_vars}")
            assumed.append(lit_to_code(lit))
        if not self._ok:
            return self._finish(SolveStatus.UNSAT, start)
        if self.num_vars == 0:
            return self._finish(SolveStatus.SAT, start)

        config = self.config
        conflict_budget = config.conflict_budget
        propagation_budget = config.propagation_budget
        deadline = (None if config.wall_clock_limit is None
                    else start + config.wall_clock_limit)
        conflicts_before = self.stats["conflicts"]
        bounded = (conflict_budget is not None
                   or propagation_budget is not None
                   or deadline is not None or cancel is not None)
        restart_index = 1
        if config.restart_policy == "luby":
            restart_limit = luby(restart_index) * config.restart_base
        else:
            restart_limit = config.restart_base
        conflicts_since_restart = 0
        max_learnts = max(100.0, config.max_learnts_factor * max(1, self._num_original))

        while True:
            conflict = self._propagate()
            if conflict != -1:
                self.stats["conflicts"] += 1
                conflicts_since_restart += 1
                if injector is not None:
                    delay = injector.slowdown_delay()
                    if delay > 0.0:
                        time.sleep(delay)
                if bounded:
                    stop = self._budget_stop(
                        cancel, deadline, conflict_budget,
                        propagation_budget, conflicts_before)
                    if stop is not None:
                        return self._finish(stop, start)
                if config.max_conflicts is not None \
                        and self.stats["conflicts"] > config.max_conflicts:
                    raise BudgetExceeded(
                        f"conflict budget {config.max_conflicts} exhausted")
                if not self._trail_lim:
                    # A root-level conflict refutes the formula itself:
                    # remember it, or the next call (whose propagation
                    # starts past this conflict) would report a model.
                    self._ok = False
                    return self._finish(SolveStatus.UNSAT, start)
                learnt, back_level = self._analyze(conflict)
                if config.proof_log:
                    self.proof.append(tuple(
                        code >> 1 if not code & 1 else -(code >> 1)
                        for code in learnt))
                self._cancel_until(back_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    index = self._attach(learnt, learnt=True)
                    self._bump_clause(index)
                    self._enqueue(learnt[0], index)
                self.stats["learned_clauses"] += 1
                self._var_inc /= config.var_decay
                self._clause_inc /= config.clause_decay
            else:
                if bounded:
                    # Decision boundary: re-check the external bounds.
                    if cancel is not None and cancel.cancelled:
                        self.stats["stop_reason"] = "cancelled"
                        return self._finish(SolveStatus.TIMEOUT, start)
                    if deadline is not None \
                            and time.perf_counter() >= deadline:
                        self.stats["stop_reason"] = "wall-clock limit"
                        return self._finish(SolveStatus.TIMEOUT, start)
                if conflicts_since_restart >= restart_limit:
                    self.stats["restarts"] += 1
                    conflicts_since_restart = 0
                    restart_index += 1
                    if config.restart_policy == "luby":
                        restart_limit = luby(restart_index) * config.restart_base
                    else:
                        restart_limit *= config.restart_factor
                    max_learnts *= config.max_learnts_growth
                    self._cancel_until(0)
                    continue
                if self._num_learned_live - len(self._trail) > max_learnts:
                    self._reduce_db()
                # Assumptions are consumed as pseudo-decisions, one level
                # each, before any free decision (MiniSat style).
                code = 0
                while len(self._trail_lim) < len(assumed):
                    assumption = assumed[len(self._trail_lim)]
                    value = self._values[assumption]
                    if value == _TRUE:
                        self._trail_lim.append(len(self._trail))
                        continue
                    if value == _FALSE:
                        self.stats["assumption_failed"] = 1
                        return self._finish(SolveStatus.UNSAT, start)
                    code = assumption
                    break
                if code == 0:
                    var = self._pick_branch_var()
                    if var == 0:
                        return self._finish(SolveStatus.SAT, start)
                    self.stats["decisions"] += 1
                    if config.max_decisions is not None \
                            and self.stats["decisions"] > config.max_decisions:
                        raise BudgetExceeded(
                            f"decision budget {config.max_decisions} "
                            f"exhausted")
                    code = 2 * var if self._saved_phase[var] else 2 * var + 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(code, -1)

    def _budget_stop(self, cancel, deadline, conflict_budget,
                     propagation_budget, conflicts_before):
        """Status to stop with at a conflict boundary, or None to go on
        (same per-call semantics as the arena engine)."""
        if cancel is not None and cancel.cancelled:
            self.stats["stop_reason"] = "cancelled"
            return SolveStatus.TIMEOUT
        if deadline is not None and time.perf_counter() >= deadline:
            self.stats["stop_reason"] = "wall-clock limit"
            return SolveStatus.TIMEOUT
        if conflict_budget is not None and \
                self.stats["conflicts"] - conflicts_before >= conflict_budget:
            self.stats["stop_reason"] = \
                f"conflict budget {conflict_budget}"
            return SolveStatus.BUDGET_EXHAUSTED
        if propagation_budget is not None and \
                self.stats["propagations"] - self._props_at_start \
                >= propagation_budget:
            self.stats["stop_reason"] = \
                f"propagation budget {propagation_budget}"
            return SolveStatus.BUDGET_EXHAUSTED
        return None

    # Fault-injection resolution is identical to the arena engine's;
    # only the engine-specific site name differs.
    _fault_injector = CDCLSolver._fault_injector
    _engine_site = "legacy"
    # Observability hook (metrics absorb + solve-finish span event) is
    # shared with the arena engine; the site name distinguishes them.
    _observe = CDCLSolver._observe

    def _finish(self, status: SolveStatus, start: float) -> SolveResult:
        elapsed = time.perf_counter() - start
        self.stats["solve_time"] = elapsed
        self.stats["solver"] = self.config.name
        injector = getattr(self, "_injector", None)
        if status is not SolveStatus.SAT:
            if status is SolveStatus.UNSAT and self.config.proof_log:
                self.proof.append(())
                if injector is not None:
                    cut = injector.truncated_proof_length(len(self.proof))
                    if cut is not None:
                        del self.proof[cut:]
            if injector is not None and injector.log:
                self.stats["injected_faults"] = ",".join(injector.log)
            self._observe(status, elapsed)
            return SolveResult(status, stats=self.stats)
        values = [self._values[2 * v] == _TRUE for v in range(1, self.num_vars + 1)]
        if injector is not None:
            flip = injector.wrong_model_var(self.num_vars)
            if flip is not None:
                values[flip - 1] = not values[flip - 1]
            if injector.log:
                self.stats["injected_faults"] = ",".join(injector.log)
        # Observe after fault application so an injected wrong_model /
        # truncated_proof shows up in the fault.injected event.
        self._observe(status, elapsed)
        return SolveResult(SolveStatus.SAT, Model(values), stats=self.stats)


