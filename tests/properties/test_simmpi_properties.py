"""Property tests of the SimMPI engine and the min-cut planner."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ad.activity import analyze_activity
from repro.ad.cacheplan import CachePlanner
from repro.interp import ExecConfig
from repro.ir import F64, I64, IRBuilder, Ptr
from repro.parallel import SimMPI
from repro.passes.aliasing import analyze_aliasing


# ---------------------------------------------------------------------------
# Random all-to-all message pattern delivers every payload exactly once.
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    nprocs=st.integers(2, 5),
    seed=st.integers(0, 10_000),
)
def test_random_permutation_exchange(nprocs, seed):
    """Each rank sends its vector to a random peer (a permutation);
    everyone must receive exactly the right payload."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(nprocs)

    b = IRBuilder()
    with b.function("x", [("buf", Ptr()), ("dest", Ptr(I64)),
                          ("src", Ptr(I64)), ("n", I64)]) as f:
        buf, dest, src, n = f.args
        tmp = b.alloc(n)
        r1 = b.call("mpi.isend", buf, n, b.load(dest, 0), 11)
        r2 = b.call("mpi.irecv", tmp, n, b.load(src, 0), 11)
        b.call("mpi.wait", r1)
        b.call("mpi.wait", r2)
        b.memcpy(buf, tmp, n)

    n = 3
    bufs = [np.full(n, float(r + 1)) for r in range(nprocs)]
    inv = np.empty(nprocs, dtype=int)
    inv[perm] = np.arange(nprocs)
    SimMPI(b.module, nprocs, ExecConfig()).run(
        "x", lambda r: (bufs[r],
                        np.array([perm[r]], dtype=np.int64),
                        np.array([inv[r]], dtype=np.int64), n))
    for r in range(nprocs):
        np.testing.assert_allclose(bufs[r], float(inv[r] + 1))


@settings(max_examples=20, deadline=None)
@given(nprocs=st.integers(1, 6),
       values=st.lists(st.floats(-100, 100, allow_nan=False),
                       min_size=6, max_size=6))
def test_allreduce_equals_numpy(nprocs, values):
    b = IRBuilder()
    with b.function("ar", [("x", Ptr()), ("out", Ptr()), ("n", I64)]) as f:
        x, out, n = f.args
        b.call("mpi.allreduce", x, out, n, op="sum")
    per = 6 // max(1, 1)
    xs = [np.asarray(values) * (r + 1) for r in range(nprocs)]
    outs = [np.zeros(6) for _ in range(nprocs)]
    SimMPI(b.module, nprocs, ExecConfig()).run(
        "ar", lambda r: (xs[r], outs[r], 6))
    expect = sum(np.asarray(values) * (r + 1) for r in range(nprocs))
    for o in outs:
        np.testing.assert_allclose(o, expect, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Min-cut planner invariants on random straight-line kernels.
# ---------------------------------------------------------------------------

_OPS = ("mul", "add", "sin", "sqrt1", "div1")


@st.composite
def random_chain(draw):
    return draw(st.lists(st.sampled_from(_OPS), min_size=1, max_size=8))


def _build_kernel(chain):
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.parallel_for(0, n) as i:
            v = b.load(x, i)
            for oc in chain:
                if oc == "mul":
                    v = b.mul(v, v)
                elif oc == "add":
                    v = b.add(v, 1.0)
                elif oc == "sin":
                    v = b.sin(v)
                elif oc == "sqrt1":
                    v = b.sqrt(b.add(b.mul(v, v), 1.0))
                elif oc == "div1":
                    v = b.div(v, b.add(b.mul(v, v), 2.0))
            b.store(v, x, i)
    return b


@settings(max_examples=40, deadline=None)
@given(chain=random_chain())
def test_mincut_cut_is_sufficient_and_cheaper(chain):
    """Invariants: (1) every reverse-needed value resolves to free,
    cached, or recomputable-from-resolved; (2) the min-cut never caches
    more than cache-all."""
    b = _build_kernel(chain)
    fn = b.module.functions["k"]
    aliasing = analyze_aliasing(fn, b.module)
    act = analyze_activity(fn, b.module, aliasing, set(fn.args), set())

    plans = {}
    for cache_all in (False, True):
        planner = CachePlanner(fn, b.module, aliasing, act,
                               cache_all=cache_all)
        plans[cache_all] = planner.build()

    mincut, call = plans[False], plans[True]
    assert mincut.stats["cached"] <= call.stats["cached"]

    # sufficiency: transitively resolve every needed value
    planner = CachePlanner(fn, b.module, aliasing, act)
    plan = planner.build()

    memo: dict = {}

    def resolvable(v):
        if v in memo:
            return memo[v]          # shared operands resolve once
        memo[v] = False             # cycle guard (DAG: never hit)
        if planner._is_free(v):
            out = True
        else:
            r = plan.resolution.get(v)
            if r == "cache":
                out = True
            elif r == "recompute":
                deps = planner._recompute_deps(v)
                out = deps is not None and all(resolvable(d) for d in deps)
            else:
                out = False
        memo[v] = out
        return out

    for v in plan.needed:
        from repro.ir.types import PointerType
        if isinstance(v.type, PointerType):
            continue
        assert resolvable(v), v


@settings(max_examples=25, deadline=None)
@given(chain=random_chain(),
       xs=st.lists(st.floats(0.2, 1.5), min_size=3, max_size=5))
@example(chain=["mul"] * 6, xs=[1.0, 1.0, 1.5])
def test_random_chain_gradient_fd(chain, xs):
    from repro.ad import Duplicated, autodiff
    from repro.interp import Executor
    b = _build_kernel(chain)
    grad = autodiff(b.module, "k", [Duplicated, None])
    x0 = np.asarray(xs)
    n = len(x0)

    def run(x):
        Executor(b.module).run("k", x, n)
        return x

    # Difference the outputs before summing them: x**64 of one element
    # would otherwise swallow the perturbation of every other one.
    eps = 1e-7
    fd = np.array([(run(x0 + eps * e) - run(x0 - eps * e)).sum() / (2 * eps)
                   for e in np.eye(n)])
    dx = np.ones(n)
    Executor(b.module).run(grad, x0.copy(), dx, n)
    np.testing.assert_allclose(dx, fd, rtol=5e-4, atol=1e-5)
