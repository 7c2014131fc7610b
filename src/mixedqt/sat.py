"""A conflict-driven clause-learning SAT solver, solved under assumptions.

Variable v has literals ``2 * v`` (true) and ``2 * v + 1`` (false), so
``lit ^ 1`` negates.  A solver is built from the binary clauses, given as
implication lists (the clause ``a or b`` puts ``b`` in the list of ``a ^ 1``
and ``a`` in that of ``b ^ 1``), and the clauses of three or more literals,
watched by two literals (Chaff: Moskewicz et al., DAC 2001).  A conflict
yields a first-UIP clause and a backjump (GRASP: Marques-Silva & Sakallah
1999).  A decision takes the unassigned variable of highest VSIDS activity
with its last value (phase saving), false until the caller sets it
otherwise; only bumped variables enter the heap, whose stale entries are
skipped when popped, and the rest go in index order.  Only the first
``decisions`` variables are ever decided: once they are all assigned with
no conflict, each variable still unassigned reads as true (MiniSat's
non-decision variables).  Restarts follow the Luby sequence.  Assumptions
are decided first, one level each, as in MiniSat (Eén & Sörensson, SAT
2003); a learnt clause follows from the clauses alone, so it holds under
any later assumptions.  When an assumption is found false, the reasons on
the trail lead back to the assumptions that force it (MiniSat's final
conflict), and clauses may be added between solves.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Callable, Iterable, Sequence

RESTART_BASE = 100    # conflicts in one unit of the Luby sequence
DECAY = 0.95          # VSIDS activity decay per conflict


class Solver:
    """A CNF over ``len(bins) // 2`` variables, solved under assumptions.

    ``value`` maps a literal to 1 (true), -1 (false) or 0 (unassigned);
    ``bins[lit]`` holds the literals ``lit`` implies by binary clauses, and
    ``watches[lit]`` the other clauses watching it, at index 0 or 1; learnt
    clauses are watched, whatever their length.  A reason is None for a
    decision or a unit, the true literal that implied the variable by a
    binary clause, or the clause that implied it, which holds the implied
    literal at index 0.  After a solve answers None, ``core`` holds
    assumptions that the clauses refute together: empty when the clauses
    alone are unsatisfiable.  ``phase[v]`` is the value variable v takes
    when decided, 0 for true and 1 for false.
    """

    def __init__(self, bins: list[Sequence[int]], clauses: Iterable[list[int]],
                 decisions: int | None = None):
        """``bins[lit]`` lists the literals ``lit`` implies, a list or a
        tuple per literal, and the ``clauses`` are lists of three or more
        distinct literals; the solver keeps both, reorders the clauses'
        literals and grows the implication lists when clauses are added.

        Only variables below ``decisions`` (all of them by default) are
        decided.  That is sound when every variable at or above it occurs
        positively only in clauses of three or more literals, and
        negatively only in binary clauses whose other literal belongs to a
        variable below it: at a conflict-free fixpoint those other
        literals are all true, so reading the unassigned variables as true
        satisfies every clause, and learnt clauses follow from the clauses.
        """
        num_vars = len(bins) // 2
        self.decisions = num_vars if decisions is None else decisions
        self.value = [0] * (2 * num_vars)
        self.level = [0] * num_vars
        self.reason: list = [None] * num_vars
        self.activity = [0.0] * num_vars
        self.phase = bytearray(b"\x01") * num_vars   # last value: 0 true, 1 false
        self.queued = bytearray(num_vars)  # has a current heap entry
        self.heap: list[tuple[float, int]] = []
        self.fresh = 0
        self.watches: defaultdict[int, list[list[int]]] = defaultdict(list)
        self.trail: list[int] = []
        self.limits: list[int] = []   # trail length where each level starts
        self.head = 0                 # trail index of the next literal to propagate
        self.bump = 1.0
        self.ok = True
        self.core: list[int] = []
        self.bins = bins
        for clause in clauses:
            self.watches[clause[0]].append(clause)
            self.watches[clause[1]].append(clause)

    def _assign(self, lit: int, reason) -> None:
        self.value[lit] = 1
        self.value[lit ^ 1] = -1
        v = lit >> 1
        self.level[v] = len(self.limits)
        self.reason[v] = reason
        self.trail.append(lit)

    def solve(self, assumptions: Sequence[int],
              spend: Callable[[], None]) -> list[bool] | None:
        """A model, one bool per variable, in which every assumption holds,
        or None.  ``spend`` is called once per decision (an assumption is
        none) and once per conflict; an exception it raises ends the search,
        and the next solve starts afresh."""
        self._backtrack(0)
        conflicts = 0
        u = luby = 1   # Knuth's reluctant doubling: luby runs 1 1 2 1 1 2 4 1 ...
        while self.ok:
            if (conflict := self._propagate()) is not None:
                spend()
                if not self.limits:
                    self.ok = False
                    break
                self._learn(conflict)
                conflicts += 1
                continue
            if conflicts >= RESTART_BASE * luby:
                u, luby = (u + 1, 1) if u & -u == luby else (u, 2 * luby)
                conflicts = 0
                self._backtrack(0)
                continue
            depth = len(self.limits)
            if depth < len(assumptions):
                lit = assumptions[depth]
                if self.value[lit] < 0:
                    self.core = self._final(lit)
                    return None
                self.limits.append(len(self.trail))
                if not self.value[lit]:
                    self._assign(lit, None)
                continue
            v = self._pick()
            if v < 0:   # a variable left unassigned is not a decision variable
                return [x >= 0 for x in self.value[::2]]
            spend()
            self.limits.append(len(self.trail))
            self._assign(2 * v | self.phase[v], None)
        self.core = []
        return None

    def add_clause(self, clause: Sequence[int]) -> None:
        """Add a clause of distinct literals between solves.  A clause true
        at level 0 is skipped and its literals false there are dropped; a
        clause left empty makes the CNF unsatisfiable."""
        self._backtrack(0)
        value = self.value
        if any(value[lit] > 0 for lit in clause):
            return
        c = [lit for lit in clause if not value[lit]]
        if len(c) > 2:
            self.watches[c[0]].append(c)
            self.watches[c[1]].append(c)
        elif len(c) == 2:   # a list grows in place, a tuple is replaced
            self.bins[c[0] ^ 1] += (c[1],)
            self.bins[c[1] ^ 1] += (c[0],)
        elif c:
            self._assign(c[0], None)
        else:
            self.ok = False

    def _final(self, lit: int) -> list[int]:
        """The false assumption ``lit`` and the assumptions whose levels
        force it false, found by following reasons back along the trail."""
        level, reason = self.level, self.reason
        core, seen = [lit], {lit >> 1}
        if not level[lit >> 1]:
            return core
        for p in reversed(self.trail):
            if p >> 1 in seen:
                r = reason[p >> 1]
                if r is None:   # only assumptions are decided above level 0
                    core.append(p)
                else:
                    seen.update(q >> 1 for q in ((r,) if type(r) is int else r)
                                if level[q >> 1])
        return core

    def _propagate(self) -> list[int] | None:
        """Unit propagation to a fixpoint: a clause with every literal false, or None."""
        value, level, reason, trail = self.value, self.level, self.reason, self.trail
        bins, watches = self.bins, self.watches
        depth = len(self.limits)
        head = self.head
        while head < len(trail):
            lit = trail[head]
            head += 1
            for q in bins[lit]:
                vq = value[q]
                if not vq:
                    value[q] = 1
                    value[q ^ 1] = -1
                    level[q >> 1] = depth
                    reason[q >> 1] = lit
                    trail.append(q)
                elif vq < 0:
                    return [q, lit ^ 1]
            false = lit ^ 1
            ws = watches.get(false)
            if not ws:
                continue
            keep: list[list[int]] = []
            watches[false] = keep
            for i, c in enumerate(ws):
                if c[0] == false:
                    c[0] = c[1]
                    c[1] = false
                first = c[0]
                if value[first] > 0:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    x = c[k]
                    if value[x] >= 0:
                        c[1] = x
                        c[k] = false
                        watches[x].append(c)
                        break
                else:
                    keep.append(c)
                    if value[first] < 0:
                        keep.extend(ws[i + 1:])
                        return c
                    value[first] = 1
                    value[first ^ 1] = -1
                    level[first >> 1] = depth
                    reason[first >> 1] = c
                    trail.append(first)
        self.head = head
        return None

    def _learn(self, conflict: list[int]) -> None:
        """Learn the first-UIP clause of a conflict, backjump, and assert it."""
        level, reason, trail = self.level, self.reason, self.trail
        depth = len(self.limits)
        learnt = [0]
        seen = set()
        pending = 0
        i = len(trail) - 1
        clause = conflict
        while True:
            for q in clause:
                v = q >> 1
                if v in seen or not level[v]:
                    continue
                seen.add(v)
                if level[v] == depth:
                    pending += 1
                else:
                    learnt.append(q)
            while trail[i] >> 1 not in seen:
                i -= 1
            p = trail[i]
            i -= 1
            pending -= 1
            if not pending:
                break
            r = reason[p >> 1]
            # p's variable is marked, so p itself is skipped in its clause
            clause = (r ^ 1,) if type(r) is int else r
        # bump every decision variable met; a variable that keeps an entry in
        # the heap gets a new one, and the others are pushed when they are
        # unassigned, so no other variable ever enters the heap
        act, queued, heap, decisions = self.activity, self.queued, self.heap, self.decisions
        for v in seen:
            if v < decisions:
                act[v] += self.bump
                if queued[v]:
                    heapq.heappush(heap, (-act[v], v))
        learnt[0] = p ^ 1
        back = k = 0
        for j in range(1, len(learnt)):
            if level[learnt[j] >> 1] > back:
                k, back = j, level[learnt[j] >> 1]
        if k:
            learnt[1], learnt[k] = learnt[k], learnt[1]
        self._backtrack(back)
        if len(learnt) == 1:
            self._assign(learnt[0], None)
        else:
            self.watches[learnt[0]].append(learnt)
            self.watches[learnt[1]].append(learnt)
            self._assign(learnt[0], learnt)
        self.bump /= DECAY
        if self.bump > 1e100:   # scale down, keeping the order
            self.bump *= 1e-100
            self.activity = [a * 1e-100 for a in self.activity]
            self.heap = [(-a, v) for v, a in enumerate(self.activity) if a]
            heapq.heapify(self.heap)
            self.queued = bytearray(a > 0 for a in self.activity)
            self.fresh = 0

    def _pick(self) -> int:
        """The unassigned decision variable of highest activity, lowest
        first, or -1."""
        heap, act, value, queued = self.heap, self.activity, self.value, self.queued
        while heap:
            a, v = heapq.heappop(heap)
            if -a != act[v]:
                continue   # superseded by a later entry
            queued[v] = 0
            if not value[2 * v]:
                return v
        # no unassigned variable of activity 0 lies below fresh, which never
        # passes the decision variables, so the others never lower it.  A heap
        # entry for every decision variable makes the same decisions, about 7%
        # slower on planted-squares
        v, decisions = self.fresh, self.decisions
        while v < decisions and value[2 * v]:
            v += 1
        self.fresh = v
        return v if v < decisions else -1

    def _backtrack(self, depth: int) -> None:
        """Undo every level above ``depth``, saving each value as its phase."""
        if len(self.limits) <= depth:
            return
        value, trail, phase, queued = self.value, self.trail, self.phase, self.queued
        heap, act = self.heap, self.activity
        start = self.limits[depth]
        for lit in trail[start:]:
            v = lit >> 1
            value[lit] = value[lit ^ 1] = 0
            phase[v] = lit & 1
            if not act[v]:
                if v < self.fresh:
                    self.fresh = v
            elif not queued[v]:
                heapq.heappush(heap, (-act[v], v))
                queued[v] = 1
        del trail[start:]
        del self.limits[depth:]
        self.head = start
