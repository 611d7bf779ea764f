"""A conflict-driven clause-learning (CDCL) SAT solver.

This is the substrate that stands in for the ``siege_v4`` / ``MiniSat``
binaries used in the paper.  It implements the standard modern CDCL
architecture:

* two-literal watching for unit propagation,
* first-UIP conflict analysis with local (reason-based) clause
  minimisation,
* VSIDS variable activities with phase saving,
* Luby or geometric restarts,
* activity-driven learned-clause database reduction.

Literals are handled internally as *codes* (``2*v`` for ``v``, ``2*v + 1``
for ``-v``), so negation is ``code ^ 1`` and codes index flat arrays.

Clause storage — the flat arena
-------------------------------

BCP dominates CDCL runtime, so the clause database is laid out for the
propagation loop rather than for object-at-a-time convenience:

* **Arena.**  All clause literals live in one flat list
  (``self._arena``); clause *ref* ``i`` owns the slice
  ``arena[_coff[i] : _coff[i] + _clen[i]]``.  Refs are stable for the
  solver's lifetime (headers are append-only), so reason pointers and
  watch lists never need fixing up; deleting a clause just zeroes its
  length, and :meth:`_compact_arena` squeezes the dead literals out once
  they exceed half the arena.
* **Blocker literals.**  Watch lists hold *watcher records*, two per
  clause: record ``e`` belongs to clause ``e >> 1``, its partner is
  ``e ^ 1``, and ``self._wother[e]`` caches the clause's *other*
  watched literal — its blocker.  When the blocker is true at a visit,
  the clause is already satisfied and the loop skips it without
  touching the clause at all — the MiniSat blocker-literal
  optimisation, and the single most common case on real instances
  (``stats["blocker_hits"] / stats["watch_inspections"]``).

  Unlike MiniSat's per-watcher blocker copies, which are allowed to go
  stale when the partner watch moves, the cache here is kept *fresh*:
  a watch move performs one extra write (``_wother[e ^ 1] = new``) so
  the partner record always names the current other watch.  Freshness
  is what makes the skip exact — it fires precisely when the reference
  engine's "first watched literal is true" keep would, so the search
  trajectory is unchanged, and a failed test means the clause is
  genuinely unit, conflicting, deleted, or must move its watch (the
  "satisfied after dereference" case cannot occur).
* **Write-free scanning.**  Each watch list is first walked by a plain
  ``for`` loop (C-level list iteration) that does not write the list
  back while entries are merely skipped or kept; only after the first
  genuine removal (a moved watch or a deleted clause) does an indexed
  compacting scan shift the remaining entries.  Passes without a
  removal — the common case — leave the list object untouched.

The arena is a representation change only: the engine visits clauses in
the same order and picks the same watches as the pre-arena engine
(:mod:`repro.sat.solver.legacy`, kept behind
``SolverConfig(engine="legacy")``), so both produce identical
decision/conflict counts — the determinism fixture suite pins this.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from typing import Dict, List, Optional

from ...obs import metrics as obs_metrics
from ...obs import trace as obs_trace
from ..cnf import CNF
from ..literals import clause_to_codes, lit_to_code, var_of
from ..model import Model, SolveResult
from ..status import CancelToken, SolveStatus
from .config import SolverConfig
from .luby import luby

_UNDEF = 0
_TRUE = 1
_FALSE = -1

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


class BudgetExceeded(Exception):
    """Raised when a configured conflict/decision budget is exhausted."""


class CDCLSolver:
    """Solve one CNF formula, optionally under assumptions.

    ``solve()`` may be called repeatedly with different assumption sets;
    learned clauses persist across calls (incremental solving), which is
    what makes the channel-width sweep in
    :mod:`repro.core.incremental` cheap.

    Constructing with ``SolverConfig(engine="legacy")`` returns the
    pre-arena :class:`~repro.sat.solver.legacy.LegacyCDCLSolver`
    instead — same API, same search trajectory, original clause-object
    storage — so the two BCP implementations can be raced against each
    other (see :mod:`repro.bench.throughput`).

    Parameters
    ----------
    cnf:
        The formula to solve.
    config:
        Solver parameters; defaults to a MiniSat-like configuration.
    """

    #: Glucose reduction cadence for ``reduce_policy="tier"``:
    #: reduce every ``base + step * reductions_so_far`` conflicts.
    #: Class-level so experiments (and tests) can tune it without
    #: touching the per-run :class:`SolverConfig` surface.  (1000, 150)
    #: measured ~25% fewer watch inspections than Glucose's classic
    #: (2000, 300) on the conflict-heavy suite at equal conflict counts.
    _tier_cadence = (1000, 150)

    def __new__(cls, cnf: CNF, config: Optional[SolverConfig] = None):
        if cls is CDCLSolver and config is not None:
            if config.engine == "legacy":
                from .legacy import LegacyCDCLSolver
                return LegacyCDCLSolver(cnf, config)
        return super().__new__(cls)

    def __init__(self, cnf: CNF, config: Optional[SolverConfig] = None) -> None:
        self.config = config or SolverConfig()
        self.num_vars = cnf.num_vars
        self._rng = random.Random(self.config.seed)

        n = self.num_vars
        # values is indexed by literal code; entry 0/1 are padding.
        self._values: List[int] = [_UNDEF] * (2 * n + 2)
        self._level: List[int] = [0] * (n + 1)
        self._reason: List[int] = [-1] * (n + 1)  # clause ref, -1 = none
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

        # Flat clause arena (see module docstring): literals of clause
        # ref i are arena[_coff[i] : _coff[i] + _clen[i]]; _clen[i] == 0
        # marks a deleted clause whose literals are dead arena space.
        self._arena: List[int] = []
        self._coff: List[int] = []
        self._clen: List[int] = []
        self._learnt: List[bool] = []
        self._clause_act: List[float] = []
        self._arena_dead = 0
        self._clause_inc = 1.0
        self._num_original = 0
        self._num_learned_live = 0
        self._watches: List[List[int]] = [[] for _ in range(2 * n + 2)]
        # Watcher records: clause ref R owns entries 2*R and 2*R + 1,
        # one per watched literal; entry e caches the clause's *other*
        # watched literal in _wother[e] (its blocker), and e ^ 1 is the
        # partner entry.  See _propagate.
        self._wother: List[int] = []
        self._seen = bytearray(n + 1)
        # Per-clause LBD (conflict-time literal-block distance, 0 =
        # unknown) and last-used conflict stamp; only consulted when
        # reduce_policy == "tier" but always allocated so _attach stays
        # branch-free.
        self._lbd: List[int] = []
        self._used_at: List[int] = []
        self._tier_on = self.config.reduce_policy == "tier"
        self._last_reduce_conflicts = 0
        self._tier_reductions = 0
        # Variables resolved away by inprocessing BVE (all zeros — and
        # therefore trajectory-neutral — until a pass eliminates one).
        self._eliminated = bytearray(n + 1)
        self._inpro = None  # lazily built Inprocessor

        self._ok = True  # False once root-level unsatisfiability is known
        #: DRUP-style clausal proof: every learned clause in DIMACS
        #: literals, in derivation order, terminated by () on UNSAT.
        #: Populated only when config.proof_log is set.
        self.proof: List[tuple] = []
        self.stats: Dict[str, float] = {
            "conflicts": 0, "decisions": 0, "propagations": 0,
            "restarts": 0, "learned_clauses": 0, "deleted_clauses": 0,
            "minimized_literals": 0,
            "watch_inspections": 0, "blocker_hits": 0,
            "arena_compactions": 0,
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
        ref = len(self._coff)
        self._coff.append(len(self._arena))
        self._clen.append(len(codes))
        self._arena.extend(codes)
        self._learnt.append(learnt)
        self._clause_act.append(0.0)
        self._lbd.append(0)
        self._used_at.append(0)
        # Watcher records 2*ref and 2*ref + 1, each caching the other
        # watch as its blocker (kept fresh by _propagate on every move).
        self._wother.extend((codes[1], codes[0]))
        self._watches[codes[0]].append(2 * ref)
        self._watches[codes[1]].append(2 * ref + 1)
        if learnt:
            self._num_learned_live += 1
        else:
            self._num_original += 1
        return ref

    def _clause_codes(self, ref: int) -> List[int]:
        """The literal codes of clause ``ref`` (a copy; test/debug hook)."""
        off = self._coff[ref]
        return self._arena[off:off + self._clen[ref]]

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
        reason = self._reason
        heappush = heapq.heappush
        for code in reversed(self._trail[limit:]):
            var = code >> 1
            saved[var] = not (code & 1)
            values[code] = _UNDEF
            values[code ^ 1] = _UNDEF
            reason[var] = -1
            heappush(heap, (-activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # Unit propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> int:
        """Propagate all enqueued assignments.

        Returns the ref of a conflicting clause, or -1 if none.

        This is the solver's hot loop and it is written accordingly:

        * every attribute is localised and the enqueue is inlined;
        * watch entry ``e`` is a *watcher record*: clause ref
          ``e >> 1``, partner record ``e ^ 1``, and cached blocker
          ``_wother[e]`` — the clause's other watched literal, updated
          on the partner record whenever a watch moves, so it is never
          stale.  The skip test ``values[_wother[e]] == 1`` therefore
          fires exactly when the reference engine's "first watched
          literal is true" keep would, and a failed test means the
          clause is genuinely unit, conflicting, deleted, or must move
          its watch — the "satisfied after dereference" case cannot
          occur;
        * each watch list is first walked by a *write-free* ``for``
          scan (C-level list iteration, no index arithmetic) — skips
          and keeps do not rewrite the list.  Only once an entry must
          actually be removed (a moved watch or a deleted clause) does
          an indexed compacting scan take over, locating the removal
          point with ``list.index`` (entries are unique within a list).

        Stats are accumulated in locals and flushed once on exit.
        """
        values = self._values
        watches = self._watches
        arena = self._arena
        coff = self._coff
        clen = self._clen
        wother = self._wother
        trail = self._trail
        level = self._level
        reason = self._reason
        level_num = len(self._trail_lim)
        qhead = self._qhead
        trail_len = len(trail)
        props = 0
        inspections = 0
        derefs = 0
        conflict = -1
        while qhead < trail_len:
            propagated = trail[qhead]
            qhead += 1
            props += 1
            false_code = propagated ^ 1
            watchers = watches[false_code]
            if not watchers:
                continue
            inspections += len(watchers)
            removed_at = -1
            for e in watchers:
                if values[wother[e]] == 1:  # blocker true: satisfied
                    continue
                derefs += 1
                other = wother[e]
                value = values[other]
                # Freshness means `other` IS the clause's other watched
                # literal, so nothing below re-reads it from the arena.
                ci = e >> 1
                length = clen[ci]
                if length == 2:
                    off = coff[ci]
                    arena[off] = other  # normalise slots for _analyze
                    arena[off + 1] = false_code
                elif length == 3:
                    off = coff[ci]
                    code = arena[off + 2]
                    if values[code] != -1:
                        if arena[off] == false_code:
                            arena[off] = other
                        arena[off + 1] = code
                        arena[off + 2] = false_code
                        watches[code].append(e)
                        wother[e ^ 1] = code
                        removed_at = watchers.index(e)
                        break
                    arena[off] = other
                    arena[off + 1] = false_code
                elif length == 0:  # deleted: entry must be dropped
                    removed_at = watchers.index(e)
                    break
                else:
                    off = coff[ci]
                    if arena[off] == false_code:
                        arena[off] = other
                        arena[off + 1] = false_code
                    moved = False
                    for k in range(off + 2, off + length):
                        code = arena[k]
                        if values[code] != -1:
                            arena[off + 1] = code
                            arena[k] = false_code
                            watches[code].append(e)
                            wother[e ^ 1] = code
                            moved = True
                            break
                    if moved:
                        removed_at = watchers.index(e)
                        break
                if value == 0:
                    # Unit: inlined _enqueue.
                    values[other] = 1
                    values[other ^ 1] = -1
                    var = other >> 1
                    level[var] = level_num
                    reason[var] = ci
                    trail.append(other)
                    trail_len += 1
                    continue
                # Conflict; list untouched so far.  Slots after `e` were
                # pre-counted as inspected but never scanned — undo that.
                inspections -= len(watchers) - watchers.index(e) - 1
                qhead = trail_len
                conflict = ci
                break
            if removed_at >= 0:
                # Compacting scan: an entry was removed above, so every
                # kept entry from here on is shifted left by the gap.
                j = removed_at
                i = removed_at + 1
                count = len(watchers)
                while i < count:
                    e = watchers[i]
                    i += 1
                    if values[wother[e]] == 1:  # blocker true: satisfied
                        watchers[j] = e
                        j += 1
                        continue
                    derefs += 1
                    other = wother[e]
                    value = values[other]
                    ci = e >> 1
                    length = clen[ci]
                    if length == 2:
                        off = coff[ci]
                        arena[off] = other
                        arena[off + 1] = false_code
                    elif length == 3:
                        off = coff[ci]
                        code = arena[off + 2]
                        if values[code] != -1:
                            if arena[off] == false_code:
                                arena[off] = other
                            arena[off + 1] = code
                            arena[off + 2] = false_code
                            watches[code].append(e)
                            wother[e ^ 1] = code
                            continue
                        arena[off] = other
                        arena[off + 1] = false_code
                    elif length == 0:
                        continue  # deleted: drop
                    else:
                        off = coff[ci]
                        if arena[off] == false_code:
                            arena[off] = other
                            arena[off + 1] = false_code
                        moved = False
                        for k in range(off + 2, off + length):
                            code = arena[k]
                            if values[code] != -1:
                                arena[off + 1] = code
                                arena[k] = false_code
                                watches[code].append(e)
                                wother[e ^ 1] = code
                                moved = True
                                break
                        if moved:
                            continue
                    watchers[j] = e
                    j += 1
                    if value == 0:
                        values[other] = 1
                        values[other ^ 1] = -1
                        var = other >> 1
                        level[var] = level_num
                        reason[var] = ci
                        trail.append(other)
                        trail_len += 1
                        continue
                    inspections -= count - i  # rest kept unscanned
                    while i < count:  # conflict: keep the rest
                        watchers[j] = watchers[i]
                        j += 1
                        i += 1
                    qhead = trail_len
                    conflict = ci
                    break
                del watchers[j:]
            if conflict != -1:
                break
        self._qhead = qhead
        stats = self.stats
        stats["propagations"] += props
        stats["watch_inspections"] += inspections
        # Every inspected slot either passed the blocker test (hit) or
        # fell through to a clause dereference — hits are the difference,
        # which keeps the hot skip path free of counter updates.
        stats["blocker_hits"] += inspections - derefs
        return conflict

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

    def _bump_clause(self, ref: int) -> None:
        self._clause_act[ref] += self._clause_inc
        if self._clause_act[ref] > _RESCALE_LIMIT:
            self._rescale_clause_acts()

    def _rescale_clause_acts(self) -> None:
        clause_act = self._clause_act
        for i in range(len(clause_act)):
            clause_act[i] *= _RESCALE_FACTOR
        self._clause_inc *= _RESCALE_FACTOR

    def _analyze(self, conflict: int) -> (List[int], int):
        """First-UIP analysis.  Returns (learnt clause codes, backtrack level)
        with the asserting literal in position 0."""
        learnt: List[int] = [0]
        seen = self._seen
        trail = self._trail
        level = self._level
        reason = self._reason
        arena = self._arena
        coff = self._coff
        clen = self._clen
        learnt_flags = self._learnt
        activity = self._activity
        values = self._values
        heap = self._heap
        heappush = heapq.heappush
        clause_act = self._clause_act
        clause_inc = self._clause_inc
        current_level = len(self._trail_lim)
        # Tier policy: stamp every learned clause visited during
        # analysis as "used", so the mid tier can keep recently useful
        # clauses through a reduction.  None (the default policy) keeps
        # the loop branch cost to one comparison.
        used_at = self._used_at if self._tier_on else None
        now = self.stats["conflicts"]
        to_clear: List[int] = []
        counter = 0
        p = -1
        index = len(trail) - 1
        clause = conflict
        while True:
            if learnt_flags[clause]:
                # Inlined _bump_clause.
                act = clause_act[clause] + clause_inc
                clause_act[clause] = act
                if act > _RESCALE_LIMIT:
                    self._rescale_clause_acts()
                    clause_inc = self._clause_inc
                if used_at is not None:
                    used_at[clause] = now
            off = coff[clause]
            var_inc = self._var_inc
            # Slice, don't index: C-level iteration over the clause's
            # literals beats per-literal index arithmetic.
            for q in arena[off if p == -1 else off + 1:off + clen[clause]]:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    # Inlined _bump_var.
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > _RESCALE_LIMIT:
                        self._rescale_activities()
                        var_inc = self._var_inc
                        heap = self._heap
                        act = activity[var]
                    if values[var << 1] == 0:
                        heappush(heap, (-act, var))
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            var = p >> 1
            clause = reason[var]
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
            minimized = 0
            for q in learnt[1:]:
                ref = reason[q >> 1]
                if ref == -1:
                    kept.append(q)
                    continue
                redundant = True
                qvar = q >> 1
                off = coff[ref]
                for code in arena[off:off + clen[ref]]:
                    var = code >> 1
                    if var == qvar:
                        continue
                    if not seen[var] and level[var] > 0:
                        redundant = False
                        break
                if redundant:
                    minimized += 1
                else:
                    kept.append(q)
            learnt = kept
            if minimized:
                self.stats["minimized_literals"] += minimized

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

    def _delete_clause(self, ref: int) -> None:
        """Delete clause ``ref``: zero its length (its watch-list
        entries drop lazily in _propagate, its literals stay as dead
        arena space until the next compaction)."""
        length = self._clen[ref]
        if length == 0:
            return
        self._arena_dead += length
        self._clen[ref] = 0
        if self._learnt[ref]:
            self._num_learned_live -= 1
        else:
            self._num_original -= 1
        self.stats["deleted_clauses"] += 1

    def _protected_refs(self) -> set:
        """Refs of clauses currently acting as reason for a trail
        literal.  Deleting one would leave ``_reason`` dangling, so DB
        reduction must skip them *unconditionally* — not via any
        heuristic on watch slots or activities."""
        reason = self._reason
        protected = {reason[code >> 1] for code in self._trail}
        protected.discard(-1)
        return protected

    def _reduce_db(self) -> None:
        if self._tier_on:
            self._reduce_db_tier(self._protected_refs())
        else:
            self._reduce_db_activity(self._protected_refs())
        # Watch-list entries of deleted clauses are dropped lazily by
        # _propagate; the arena itself is compacted once most of it is dead.
        if self._arena_dead * 2 > len(self._arena):
            self._compact_arena()

    def _reduce_db_activity(self, protected: set) -> None:
        """Classic MiniSat policy: drop the less active half."""
        learnt = self._learnt
        clen = self._clen
        candidates = [i for i in range(len(clen))
                      if learnt[i] and clen[i] > 2 and i not in protected]
        candidates.sort(key=self._clause_act.__getitem__)
        for i in candidates[:len(candidates) // 2]:
            self._delete_clause(i)

    def _reduce_db_tier(self, protected: set) -> None:
        """Glucose-style tiers keyed on conflict-time LBD.

        *core* (``lbd <= tier_core_lbd``) clauses are never deleted;
        *mid* (``lbd <= tier_mid_lbd``) clauses survive if conflict
        analysis touched them since the previous reduction, else they
        compete with the *local* tier, which is halved worst-first
        (highest LBD, then lowest activity).  Unknown LBD (0 — e.g.
        clauses learned before the policy was switched on) competes as
        worst.
        """
        with obs_trace.span("reduce.tier") as span:
            learnt = self._learnt
            clen = self._clen
            lbd = self._lbd
            used_at = self._used_at
            act = self._clause_act
            core = self.config.tier_core_lbd
            mid = self.config.tier_mid_lbd
            last = self._last_reduce_conflicts
            unknown = 1 << 30
            pool: List[int] = []
            kept_mid = 0
            for i in range(len(clen)):
                if not learnt[i] or clen[i] <= 2 or i in protected:
                    continue
                d = lbd[i] or unknown
                if d <= core:
                    continue
                if d <= mid and used_at[i] > last:
                    kept_mid += 1
                    continue
                pool.append(i)
            pool.sort(key=lambda i: (-(lbd[i] or unknown), act[i]))
            for i in pool[:len(pool) // 2]:
                self._delete_clause(i)
            self._last_reduce_conflicts = self.stats["conflicts"]
            self._tier_reductions += 1
            span.set("deleted", len(pool) // 2)
            span.set("kept_mid", kept_mid)

    def _compact_arena(self) -> None:
        """Squeeze deleted clauses' literals out of the arena.

        Clause refs are indices into the header lists, not arena
        offsets, so only the offsets change — watch lists and reason
        pointers stay valid untouched.
        """
        arena = self._arena
        coff = self._coff
        clen = self._clen
        compacted: List[int] = []
        for ref in range(len(coff)):
            length = clen[ref]
            if length == 0:
                continue
            off = coff[ref]
            coff[ref] = len(compacted)
            compacted.extend(arena[off:off + length])
        self._arena = compacted
        self._arena_dead = 0
        self.stats["arena_compactions"] += 1

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        values = self._values
        eliminated = self._eliminated
        if (self.config.random_decision_freq > 0.0
                and self._rng.random() < self.config.random_decision_freq):
            for _ in range(10):
                var = self._rng.randint(1, self.num_vars)
                if values[2 * var] == _UNDEF and not eliminated[var]:
                    return var
        heap = self._heap
        while heap:
            _, var = heapq.heappop(heap)
            if values[2 * var] == _UNDEF and not eliminated[var]:
                return var
        for var in range(1, self.num_vars + 1):
            if values[2 * var] == _UNDEF and not eliminated[var]:
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

        The search runs to completion unless bounded: soft budgets on
        the config (``conflict_budget``, ``propagation_budget``,
        ``wall_clock_limit``) and the cooperative ``cancel`` token are
        checked on conflict boundaries (the wall clock and token also on
        decision boundaries), ending the call with a
        TIMEOUT / BUDGET_EXHAUSTED status and valid partial stats
        instead of an exception.  With no budget and no token the search
        trajectory is bit-identical to an unbounded run.  The solver
        stays usable after a bounded stop — a later call resumes from
        the root with everything learned so far.
        """
        start = time.perf_counter()
        # Chaos hook: with a fault plan active (config.fault_plan or the
        # REPRO_FAULTS environment variable) build the injector for this
        # call; `None` on the normal path keeps the loop untouched.
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
            if self._eliminated[var]:
                raise ValueError(
                    f"assumption {lit} is on variable {var}, which was "
                    f"eliminated by inprocessing BVE in an earlier call; "
                    f"set inprocess_bve=False for incremental use with "
                    f"assumptions on arbitrary variables")
            assumed.append(lit_to_code(lit))
        if not self._ok:
            return self._finish(SolveStatus.UNSAT, start)
        if self.num_vars == 0:
            return self._finish(SolveStatus.SAT, start)

        config = self.config
        # Soft budgets: per-call counters, checked only at conflict and
        # decision boundaries so the hot BCP loop stays untouched.  With
        # no budget and no cancel token `bounded` is False and the main
        # loop below is exactly the unbudgeted one.
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
        # Inprocessing: build the (per-solver, persistent) Inprocessor
        # lazily and run an initial pass before the first decision.  The
        # current call's assumption variables are frozen — BVE must not
        # resolve away a variable the caller is about to assume.
        inpro = None
        frozen: set = set()
        if config.inprocessing:
            if self._inpro is None:
                from ..inprocess import Inprocessor
                self._inpro = Inprocessor(self)
            inpro = self._inpro
            frozen = {code >> 1 for code in assumed}
        timing = config.phase_timing
        if timing:
            for key in ("time_propagate", "time_analyze", "time_reduce",
                        "time_inprocess"):
                self.stats.setdefault(key, 0.0)
        if inpro is not None:
            self._run_inprocess(frozen, deadline)
            if not self._ok:
                return self._finish(SolveStatus.UNSAT, start)
        max_learnts = max(100.0, config.max_learnts_factor * max(1, self._num_original))

        while True:
            if timing:
                t0 = time.perf_counter()
                conflict = self._propagate()
                self.stats["time_propagate"] += time.perf_counter() - t0
            else:
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
                if timing:
                    t0 = time.perf_counter()
                    learnt, back_level = self._analyze(conflict)
                    self.stats["time_analyze"] += time.perf_counter() - t0
                else:
                    learnt, back_level = self._analyze(conflict)
                if config.proof_log:
                    self.proof.append(tuple(
                        code >> 1 if not code & 1 else -(code >> 1)
                        for code in learnt))
                self._cancel_until(back_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    ref = self._attach(learnt, learnt=True)
                    if self._tier_on:
                        # Conflict-time LBD: _cancel_until never
                        # rewrites _level entries, so the levels read
                        # here are the pre-backtrack ones.
                        level = self._level
                        self._lbd[ref] = len({level[q >> 1]
                                              for q in learnt})
                    self._bump_clause(ref)
                    self._enqueue(learnt[0], ref)
                self.stats["learned_clauses"] += 1
                self._var_inc /= config.var_decay
                self._clause_inc /= config.clause_decay
            else:
                if bounded:
                    # Decision boundary: only the externally imposed
                    # bounds (deadline, cancellation) are re-checked, so
                    # conflict-free stretches cannot overrun them.
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
                    if inpro is not None and self.stats["restarts"] \
                            % config.inprocess_interval == 0:
                        self._run_inprocess(frozen, deadline)
                        if not self._ok:
                            return self._finish(SolveStatus.UNSAT, start)
                    continue
                # The MiniSat size trigger, plus — tier policy only —
                # the Glucose cadence: reduce every base + step·k
                # conflicts regardless of DB size.  On conflict-heavy
                # instances the size trigger alone can simply never
                # fire, leaving propagation to wade through an
                # ever-growing learned DB; the cadence is what makes
                # the tier policy a *policy* rather than dead code.
                cadence_base, cadence_step = self._tier_cadence
                if (self._num_learned_live - len(self._trail) > max_learnts
                        or (self._tier_on
                            and self.stats["conflicts"]
                            - self._last_reduce_conflicts
                            >= cadence_base
                            + cadence_step * self._tier_reductions)):
                    if timing:
                        t0 = time.perf_counter()
                        self._reduce_db()
                        self.stats["time_reduce"] += \
                            time.perf_counter() - t0
                    else:
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

    def _run_inprocess(self, frozen: set, deadline) -> None:
        """One inprocessing pass at the root level (timed when
        ``phase_timing`` is on)."""
        t0 = time.perf_counter()
        self._inpro.run(frozen=frozen, deadline=deadline)
        if self.config.phase_timing:
            self.stats["time_inprocess"] += time.perf_counter() - t0

    def _budget_stop(self, cancel, deadline, conflict_budget,
                     propagation_budget, conflicts_before):
        """Status to stop with at a conflict boundary, or None to go on.

        Conflict/propagation budgets are per-call: counted against the
        stats at the start of this ``solve()`` call, so an incremental
        solver gets a fresh budget for every query.
        """
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

    def _fault_injector(self):
        """The fault injector for this call, or None (the normal path).

        Resolution is lazy and guarded so that without a configured plan
        (explicitly or via ``REPRO_FAULTS``) no reliability module is
        even imported.
        """
        plan = self.config.fault_plan
        if plan is False:
            return None
        if plan is None and not os.environ.get("REPRO_FAULTS"):
            return None
        from ...reliability.faults import FaultInjector, FaultPlan
        resolved = FaultPlan.resolve(plan)
        if resolved is None or resolved.empty:
            return None
        return FaultInjector(resolved, label=self.config.name,
                             sites=("solver", self._engine_site,
                                    "inprocess"))

    #: Site name this engine answers to for engine-specific fault specs
    #: (``crash@arena`` vs ``crash@legacy``), used to test the batch
    #: runner's engine-fallback path.
    _engine_site = "arena"

    def _observe(self, status: SolveStatus, elapsed: float) -> None:
        """Report this call to the observability layer (metrics absorb
        + a span event), strictly outside the search loop.  One boolean
        check each on the disabled path; trajectories are untouched
        either way because nothing here feeds back into the search.
        """
        if obs_metrics.enabled():
            # Stats are cumulative across calls on a reused solver, so
            # the absorb is delta-based via the returned marker.
            self._obs_prev = obs_metrics.absorb_solver_stats(
                self.stats, engine=self._engine_site,
                prev=getattr(self, "_obs_prev", None))
        if obs_trace.enabled():
            obs_trace.event(
                "solver.finish", status=str(status),
                engine=self._engine_site, solver=self.config.name,
                conflicts=int(self.stats["conflicts"]),
                decisions=int(self.stats["decisions"]),
                propagations=int(self.stats["propagations"]),
                solve_time=round(elapsed, 6))
            injector = getattr(self, "_injector", None)
            if injector is not None and injector.log:
                obs_trace.event("fault.injected",
                                site=self._engine_site,
                                faults=",".join(injector.log))

    def _finish(self, status: SolveStatus, start: float) -> SolveResult:
        elapsed = time.perf_counter() - start
        self.stats["solve_time"] = elapsed
        props = self.stats["propagations"] - getattr(self, "_props_at_start", 0)
        self.stats["props_per_sec"] = props / elapsed if elapsed > 0 else 0.0
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
        if self._inpro is not None and self._inpro.eliminated_count:
            # Extend the model of the BVE-reduced formula back over the
            # eliminated variables (before any injected model fault, so
            # a wrong_model flip stays visible to the audit layer).
            values = self._inpro.extend(values)
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


def solve(cnf: CNF, config: Optional[SolverConfig] = None) -> SolveResult:
    """Convenience wrapper: solve ``cnf`` with a fresh :class:`CDCLSolver`
    (or the legacy engine when ``config.engine == "legacy"``)."""
    return CDCLSolver(cnf, config).solve()
