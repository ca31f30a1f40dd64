"""Task DAGs: the abstraction §IV-A differentiates.

Fork-join programs induce a directed acyclic graph of permissible
orderings: a node with multiple children is a spawn, a node with
multiple predecessors is a sync.  Reverse-mode AD reverses that DAG —
spawns become syncs and syncs become spawns — and the adjoint program's
parallelism is the transpose of the primal's.

This module gives the standalone DAG machinery: construction,
reversal, topological execution, and greedy list scheduling (used to
check that the reversed DAG preserves the primal's critical path /
parallel slackness, which is the theoretical backbone of the paper's
"the gradient scales like the primal" result).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Hashable


class TaskDAG:
    """A DAG of tasks with execution costs."""

    def __init__(self) -> None:
        self.cost: dict[Hashable, float] = {}
        # Adjacency as insertion-ordered sets (a repeated dependency is
        # one edge).
        self.succ: dict[Hashable, dict] = {}
        self.pred: dict[Hashable, dict] = {}

    def add_task(self, tid: Hashable, cost: float = 1.0) -> Hashable:
        self.cost[tid] = float(cost)
        self.succ.setdefault(tid, {})
        self.pred.setdefault(tid, {})
        return tid

    def add_dep(self, before: Hashable, after: Hashable) -> None:
        """``after`` may only run once ``before`` completed."""
        # Both tasks must exist (KeyError).  The graph is acyclic before
        # this edge, so the edge closes a cycle exactly when ``before``
        # is already reachable from ``after``.
        before_succ = self.succ[before]
        seen, work = {after}, [after]
        while work and before not in seen:
            for n in self.succ[work.pop()]:
                if n not in seen:
                    seen.add(n)
                    work.append(n)
        if before in seen:
            raise ValueError(f"dependency {before} -> {after} creates a "
                             f"cycle")
        before_succ[after] = None
        self.pred[after][before] = None

    # ------------------------------------------------------------------
    def reverse(self) -> "TaskDAG":
        """The adjoint DAG: every edge flipped (§IV-A).

        A primal spawn (out-degree > 1) becomes an adjoint sync
        (in-degree > 1) and vice versa.
        """
        out = TaskDAG()
        out.cost = dict(self.cost)
        out.succ = {n: dict(p) for n, p in self.pred.items()}
        out.pred = {n: dict(s) for n, s in self.succ.items()}
        return out

    # ------------------------------------------------------------------
    def spawns(self) -> set:
        return {n for n, s in self.succ.items() if len(s) > 1}

    def syncs(self) -> set:
        return {n for n, p in self.pred.items() if len(p) > 1}

    def work(self) -> float:
        """T_1: total work."""
        return sum(self.cost.values())

    def span(self) -> float:
        """T_inf: critical-path length."""
        longest: dict = {}
        for n in self.topo_order():
            longest[n] = self.cost[n] + max(
                (longest[p] for p in self.pred[n]), default=0.0)
        return max(longest.values(), default=0.0)

    def topo_order(self) -> list:
        """Kahn's algorithm, ready tasks first in, first out."""
        indeg = {n: len(p) for n, p in self.pred.items()}
        ready = deque(n for n, d in indeg.items() if d == 0)
        order = []
        while ready:
            n = ready.popleft()
            order.append(n)
            for s in self.succ[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        return order

    def execute(self, run: Callable[[Hashable], None]) -> list:
        """Run every task once in a dependency-respecting order."""
        order = self.topo_order()
        for t in order:
            run(t)
        return order


def list_schedule(dag: TaskDAG, nworkers: int) -> float:
    """Greedy list-scheduling makespan on ``nworkers`` workers.

    Guaranteed within 2x of optimal (Graham's bound); used to predict
    the parallel runtime of both the primal DAG and its reversal.
    """
    if nworkers <= 0:
        raise ValueError("nworkers must be positive")
    indeg = {n: len(p) for n, p in dag.pred.items()}
    ready = [(0.0, n) for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    workers = [0.0] * nworkers
    finish: dict = {}
    while ready:
        avail_at, n = heapq.heappop(ready)
        w = min(range(nworkers), key=lambda i: workers[i])
        start = max(workers[w], avail_at)
        end = start + dag.cost[n]
        workers[w] = end
        finish[n] = end
        for succ in dag.succ[n]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                avail = max(finish[p] for p in dag.pred[succ])
                heapq.heappush(ready, (avail, succ))
    if len(finish) != len(dag.cost):
        raise ValueError("DAG has unreachable tasks (cycle?)")
    return max(finish.values()) if finish else 0.0
