"""Minimum s–t cut on an int-indexed edge list (Dinic's algorithm).

The cache planner (§IV-C) needs one thing from a max-flow: the *sink
side* of the minimum cut that lies closest to the sink — every node
that can still reach ``t`` in the residual graph.  That set is the
intersection of the sink sides of all minimum cuts, so it does not
depend on which maximum flow was found or by which algorithm, and
neither does the plan derived from it.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

INF = float("inf")


def min_cut_sink_side(num_nodes: int, edges: Iterable[tuple], s: int,
                      t: int) -> tuple[float, list[bool]]:
    """``(cut value, sink side)`` of the sink-closest minimum ``s``–``t``
    cut of the directed graph ``edges`` = ``(u, v, capacity)`` over nodes
    ``0 .. num_nodes - 1``.

    ``capacity`` may be :data:`INF` (never cut); the value is ``INF``
    when an all-infinite path joins ``s`` to ``t``, i.e. no finite cut
    exists.  ``sink side[u]`` says whether ``u`` reaches ``t`` in the
    residual graph.  Edges of capacity ≤ 0 carry nothing and join
    nothing; without an ``s``–``t`` path the value is 0 and the sink
    side is what reaches ``t``.
    """
    edges = [e for e in edges if e[2] > 0]
    # Infinite capacities become a finite one no finite cut can reach.
    unbounded = 3 * sum(c for _, _, c in edges if c != INF) + 1
    # Edge 2k is edges[k], edge 2k + 1 its residual twin.
    head: list[int] = []
    cap: list[float] = []
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v, c in edges:
        adj[u].append(len(head))
        head.append(v)
        cap.append(unbounded if c == INF else c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)

    flow = 0
    while flow < unbounded:
        # Level graph from s over edges with residual capacity.
        level = [-1] * num_nodes
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = head[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            break
        # Blocking flow: augment along level-increasing paths, depth
        # first with an explicit stack (paths are as long as the
        # program's dependence chains).
        nxt = [0] * num_nodes
        path: list[int] = []
        u = s
        while True:
            if u == t:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                flow += push
                path.clear()
                u = s
                continue
            while nxt[u] < len(adj[u]):
                e = adj[u][nxt[u]]
                v = head[e]
                if cap[e] > 0 and level[v] == level[u] + 1:
                    break
                nxt[u] += 1
            else:
                if not path:
                    break               # s is exhausted: flow is blocking
                level[u] = -1           # dead end: prune and back up
                u = head[path.pop() ^ 1]
                continue
            path.append(e)
            u = v

    # Backwards from t over edges that still have residual capacity.
    reaches_t = [False] * num_nodes
    reaches_t[t] = True
    queue = deque([t])
    while queue:
        v = queue.popleft()
        for e in adj[v]:
            # e leaves v, so its twin e ^ 1 is an edge head[e] -> v.
            u = head[e]
            if cap[e ^ 1] > 0 and not reaches_t[u]:
                reaches_t[u] = True
                queue.append(u)
    return (INF if flow >= unbounded else flow), reaches_t
