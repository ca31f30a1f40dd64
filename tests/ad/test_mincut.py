"""The in-repo min-cut (repro.ad.mincut) against a brute-force oracle,
its degenerate cases, and — where networkx is installed — against
``nx.minimum_cut`` on the cache planner's real graphs.

What the planner relies on is that the returned sink side is the
*sink-closest* minimum cut: the intersection of the sink sides of all
minimum cuts, hence independent of the max-flow that found it.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.ad import Duplicated, PlanError, autodiff
from repro.ad import cacheplan
from repro.ad.mincut import INF, min_cut_sink_side
from repro.ir import I64, IRBuilder, Ptr


def _brute_force(n, edges, s, t):
    """(minimum cut value, intersection of the sink sides of every
    minimum cut) over all 2^(n-2) partitions."""
    others = [u for u in range(n) if u not in (s, t)]
    best, sides = INF, []
    for pick in itertools.product((False, True), repeat=len(others)):
        sink = {t} | {u for u, p in zip(others, pick) if p}
        value = sum(c for u, v, c in edges
                    if c > 0 and u not in sink and v in sink)
        if value < best:
            best, sides = value, [sink]
        elif value == best:
            sides.append(sink)
    return best, set.intersection(*sides)


@st.composite
def _graphs(draw):
    n = draw(st.integers(2, 10))
    cap = st.one_of(st.integers(0, 9), st.just(INF))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(u, v, c) for (u, v), c in draw(st.lists(
        st.tuples(pairs, cap), max_size=24)) if u != v]
    s, t = draw(st.permutations(range(n)))[:2]
    return n, edges, s, t


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_matches_brute_force(graph):
    n, edges, s, t = graph
    value, sink_side = min_cut_sink_side(n, edges, s, t)
    best, closest = _brute_force(n, edges, s, t)
    assert value == best
    if best == INF:
        return          # no finite cut: the sink side means nothing
    assert {u for u in range(n) if sink_side[u]} == closest
    assert sink_side[t] and not sink_side[s]
    for u, v, c in edges:
        if c == INF:    # an infinite edge is never cut
            assert sink_side[u] or not sink_side[v]


def test_all_infinite_path_has_no_finite_cut():
    edges = [(0, 1, INF), (1, 2, INF), (0, 2, 5.0)]
    assert min_cut_sink_side(3, edges, 0, 2)[0] == INF
    # ... and one finite edge on the path is enough to cut it.
    edges[1] = (1, 2, 7.0)
    value, sink_side = min_cut_sink_side(3, edges, 0, 2)
    assert value == 12.0 and sink_side == [False, False, True]


@pytest.mark.parametrize("edges", [
    [],                                   # neither S nor T has an edge
    [(0, 1, 4.0), (1, 2, INF)],           # T absent
    [(1, 2, 4.0), (2, 3, INF)],           # S absent
    [(0, 1, 4.0), (2, 3, 4.0)],           # both there, no path
    [(0, 1, 4.0), (1, 2, 0), (2, 3, 4.0)],  # ... but for a zero capacity
], ids=["empty", "no-sink", "no-source", "no-path", "zero-capacity"])
def test_disconnected_cuts_nothing(edges):
    """No S-T path: value 0, and no positive-capacity edge is severed
    (read as a planner graph — every value an in -> out edge — nothing
    is cached)."""
    value, sink_side = min_cut_sink_side(4, edges, 0, 3)
    assert value == 0
    assert not [(u, v) for u, v, c in edges
                if c > 0 and not sink_side[u] and sink_side[v]]


def test_long_chain_needs_no_recursion():
    n = 5000
    edges = [(i, i + 1, 2.0 if i != 1234 else 1.0) for i in range(n - 1)]
    value, sink_side = min_cut_sink_side(n, edges, 0, n - 1)
    assert value == 1.0
    assert sink_side == [i > 1234 for i in range(n)]


# ---------------------------------------------------------------------------
# The planner on top of it
# ---------------------------------------------------------------------------

def _loop_kernel():
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n) as i:
            v = b.load(x, i)
            b.store(b.sin(v) * v, x, i)
    return b.module


def test_uncuttable_path_is_a_plan_error(monkeypatch):
    """An all-infinite source -> sink path ends in the typed error
    naming the cause, not in a solver exception."""
    monkeypatch.setattr(cacheplan.CachePlanner, "_cache_weight",
                        lambda self, v: INF)
    with pytest.raises(PlanError, match="uncuttable path"):
        autodiff(_loop_kernel(), "k", [Duplicated, None])


def _app_factories():
    from repro.apps.lulesh.driver import LuleshApp
    from repro.apps.minibude import MinibudeApp
    from repro.apps.minibude.deck import make_deck
    # compile_cache="off": a stored gradient would skip the planner.
    apps = {f"lulesh-{f}": (lambda f=f: LuleshApp(
        f, 2, pr=2 if f == "mpi" else 1, compile_cache="off"))
        for f in ("serial", "openmp", "raja", "mpi")}
    apps["lulesh-checkpoint"] = lambda: LuleshApp(
        "serial", 2, adjoint="checkpoint", compile_cache="off")
    for v in ("serial", "mpi"):
        apps[f"minibude-{v}"] = lambda v=v: MinibudeApp(
            v, make_deck(4, 2, 6), compile_cache="off")
    return apps


@pytest.mark.parametrize("name", sorted(_app_factories()))
def test_planner_graphs_match_networkx(name, monkeypatch):
    nx = pytest.importorskip("networkx")
    seen = []

    def checked(n, edges, s, t):
        value, sink_side = min_cut_sink_side(n, edges, s, t)
        g = nx.DiGraph()
        for u, v, c in edges:
            g.add_edge(u, v, **({} if c == INF else {"capacity": c}))
        if s in g and t in g and nx.has_path(g, s, t):
            want, (_, t_side) = nx.minimum_cut(g, s, t)
            assert value == want
            assert {u for u in range(n) if sink_side[u]} == t_side
        else:           # everything recomputes (miniBUDE serial)
            assert value == 0
            assert not [i for i in range(n // 2 - 1)
                        if sink_side[2 * i + 1] and not sink_side[2 * i]]
        seen.append(n)
        return value, sink_side

    monkeypatch.setattr(cacheplan, "min_cut_sink_side", checked)
    _app_factories()[name]().grad_fn()
    assert seen and seen[0] > 100
