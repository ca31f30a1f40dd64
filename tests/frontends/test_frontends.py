"""Frontend lowering tests: OpenMP closures, RAJA, Julia constructs."""

import numpy as np
import pytest

from repro.ad import Duplicated, autodiff
from repro.frontends import Julia, OpenMP, RAJA
from repro.frontends.raja import ReduceMin
from repro.interp import ExecConfig, Executor
from repro.ir import (F64, I64, IRBuilder, Ptr, parse_function,
                      print_function, verify_module)

from ..conftest import run_verified


def test_openmp_parallel_for_lowering_shape():
    """#pragma omp parallel for lowers to fork + reload + workshare
    (paper Fig. 3)."""
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        omp = OpenMP(b)
        with omp.parallel_for(0, n, captured=[x, n]) as (i, env):
            b.store(b.load(env[x], i) + 1.0, env[x], i)
    fn = b.module.functions["k"]
    forks = [op for op in fn.walk() if op.opcode == "fork"]
    assert len(forks) == 1
    ws = [op for op in forks[0].walk() if op.opcode == "for"
          and op.attrs.get("workshare")]
    assert len(ws) == 1
    # closure record: context stores before the fork
    ctx_stores = [op for op in fn.body.ops if op.opcode == "store"]
    assert len(ctx_stores) == 2  # one pointer, one i64
    verify_module(b.module)


def test_openmp_mixed_capture_types():
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("ix", Ptr(I64)), ("s", F64),
                          ("n", I64)]) as f:
        x, ix, s, n = f.args
        omp = OpenMP(b)
        with omp.parallel_for(0, n, captured=[x, ix, s, n]) as (i, env):
            j = b.load(env[ix], i)
            b.store(b.load(env[x], j) * env[s], env[x], j)
    xs = np.arange(1.0, 5.0)
    idx = np.array([3, 2, 1, 0], dtype=np.int64)
    run_verified(b, "k", xs, idx, 2.0, 4, num_threads=2)
    np.testing.assert_allclose(xs, 2 * np.arange(1.0, 5.0))


def test_openmp_nowait_and_barrier_combination():
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        omp = OpenMP(b)
        with omp.parallel(captured=[x, n]) as (tid, nth, env):
            with omp.for_(0, env[n], nowait=True) as i:
                b.store(1.0, env[x], i)
            omp.barrier()
            with omp.for_(0, env[n]) as i:
                b.store(b.load(env[x], i) + 1.0, env[x], i)
    xs = np.zeros(6)
    run_verified(b, "k", xs, 6, num_threads=3)
    np.testing.assert_allclose(xs, 2.0)


def test_raja_forall_is_openmp_lowering():
    """§V-D: RAJA needs zero AD support because it *is* the lowering."""
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        raja = RAJA(b)
        with raja.forall(0, n, captured=[x, n]) as (i, env):
            b.store(b.load(env[x], i) * 3.0, env[x], i)
    fn = b.module.functions["k"]
    assert any(op.opcode == "fork" for op in fn.walk())
    grad = autodiff(b.module, "k", [Duplicated, None])
    xs = np.ones(5)
    dxs = np.ones(5)
    Executor(b.module, ExecConfig(num_threads=2)).run(grad, xs, dxs, 5)
    np.testing.assert_allclose(dxs, 3.0)


def test_raja_forall_tags_the_fork():
    """The ``framework='raja'`` report tag lands on the fork at
    construction, survives print → parse, and rides on every fork of
    the gradient."""
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with RAJA(b).forall(0, n, captured=[x, n]) as (i, env):
            b.store(b.load(env[x], i) * 3.0, env[x], i)
    fn = b.module.functions["k"]
    forks = [op for op in fn.walk() if op.opcode == "fork"]
    assert [op.attrs["framework"] for op in forks] == ["raja"]
    ws = [op for op in fn.walk() if op.opcode == "for"
          and op.attrs.get("workshare")]
    assert len(ws) == 1 and "framework" not in ws[0].attrs

    back = parse_function(print_function(fn))
    assert [op.attrs["framework"] for op in back.walk()
            if op.opcode == "fork"] == ["raja"]

    grad = b.module.functions[autodiff(b.module, "k", [Duplicated, None])]
    tags = [op.attrs["framework"] for op in grad.walk()
            if op.opcode == "fork"]
    assert tags and set(tags) == {"raja"}


def test_lulesh_raja_forks_carry_the_tag_like_raja_forall():
    """LULESH ``raja`` builds its loops with ``RAJA.forall``: every fork
    of primal and gradient carries the tag, no workshare does."""
    from repro.apps.lulesh.driver import LuleshApp
    app = LuleshApp("raja", 2)
    for name in (app.fn, app.grad_fn()):
        fn = app.module.functions[name]
        forks = [op for op in fn.walk() if op.opcode == "fork"]
        assert forks
        assert {op.attrs["framework"] for op in forks} == {"raja"}
        assert not any("framework" in op.attrs for op in fn.walk()
                       if op.opcode == "for")


def test_raja_reduce_min_values_and_gradient():
    b = IRBuilder()
    with b.function("rmin", [("d", Ptr()), ("out", Ptr()), ("n", I64)]) as f:
        d, out, n = f.args
        raja = RAJA(b)
        rm = ReduceMin(raja, b.const(1e30))
        with raja.forall_reduce(0, n, [rm], captured=[d, n]) as (i, env):
            raja.reduce_min(rm, b.load(env[d], i))
        b.store(rm.get(), out, 0)
    data = np.array([4.0, 1.25, 9.0, 2.0, 8.0])
    out = np.zeros(1)
    run_verified(b, "rmin", data, out, 5, num_threads=3)
    assert out[0] == 1.25
    grad = autodiff(b.module, "rmin", [Duplicated, Duplicated, None])
    data = np.array([4.0, 1.25, 9.0, 2.0, 8.0])
    dd, out, dout = np.zeros(5), np.zeros(1), np.ones(1)
    Executor(b.module, ExecConfig(num_threads=3)).run(
        grad, data, dd, out, dout, 5)
    expect = np.zeros(5)
    expect[1] = 1.0
    np.testing.assert_allclose(dd, expect)


def test_julia_arrays_and_arrayptr():
    """A GC array is used through its data pointer: the resolver emits
    one ``jl.arrayptr`` per loop body and passes other values through."""
    b = IRBuilder()
    with b.function("k", [("out", Ptr()), ("n", I64)]) as f:
        out, n = f.args
        arr = b.alloc(n, F64, space="gc", name="jlarr")
        jl = Julia(b, [arr])
        assert jl.arrayptr(out) is out
        with b.for_(0, n, simd=True) as i:
            g = jl.resolver()
            b.store(b.itof(i) * 2.0, g(arr), i)
            assert g(arr) is g(arr) and g(out) is out
        with b.for_(0, n, simd=True) as i:
            b.store(b.load(jl.arrayptr(arr), i), out, i)
    fn = b.module.functions["k"]
    assert sum(1 for op in fn.walk() if op.opcode == "call"
               and op.attrs["callee"] == "jl.arrayptr") == 2
    out = np.zeros(4)
    run_verified(b, "k", out, 4)
    np.testing.assert_allclose(out, [0, 2, 4, 6])


def test_julia_gc_preserve_context_manager():
    b = IRBuilder()
    with b.function("k", [("out", Ptr())]) as f:
        out = f.args[0]
        arr = b.alloc(2, F64, space="gc", name="jlarr")
        jl = Julia(b, [arr])
        with jl.gc_preserve(arr):
            b.call("jl.safepoint")
            b.store(5.0, jl.arrayptr(arr), 0)
            b.store(b.load(jl.arrayptr(arr), 0), out, 0)
    out = np.zeros(1)
    _, ex = run_verified(b, "k", out, gc_stress=True)
    assert out[0] == 5.0
