"""AD of Julia constructs: GC preservation (§VI-C2), arrayptr
indirection, MPI calls on GC arrays under GC stress."""

import numpy as np
import pytest

from repro.ad import ADTransformError, Duplicated, autodiff
from repro.frontends import Julia
from repro.interp import ExecConfig, Executor, InterpreterError
from repro.ir import F64, I64, IRBuilder, Ptr, verify_module
from repro.parallel import SimMPI


def test_gradient_through_arrayptr():
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("y", Ptr()), ("n", I64)]) as f:
        x, y, n = f.args
        jl = Julia(b, [x, y])
        with b.for_(0, n, simd=True) as i:
            g = jl.resolver()
            raw_x = g(x)
            raw_y = g(y)
            v = b.load(raw_x, i)
            b.store(v * v, raw_y, i)
    grad = autodiff(b.module, "k", [Duplicated, Duplicated, None])
    x0 = np.arange(1.0, 5.0)
    dx = np.zeros(4)
    Executor(b.module).run(grad, x0.copy(), dx, np.zeros(4), np.ones(4), 4)
    np.testing.assert_allclose(dx, 2 * x0)


def test_arrayptr_forces_caching():
    """The extra indirection defeats alias analysis: data loads get
    cached (the Julia-overhead mechanism, §VIII)."""
    def build(with_arrayptr):
        b = IRBuilder()
        with b.function("k", [("x", Ptr()), ("y", Ptr()), ("n", I64)],
                        arg_attrs=[{"noalias": True}, {"noalias": True},
                                   {}]) as f:
            x, y, n = f.args
            jl = Julia(b, [x, y] if with_arrayptr else [])
            with b.for_(0, n, simd=True) as i:
                g = jl.resolver()
                src = g(x)
                dst = g(y)
                v = b.load(src, i)
                b.store(v * v, dst, i)
        grad = autodiff(b.module, "k", [Duplicated, Duplicated, None])
        g = b.module.functions[grad]
        return sum(1 for op in g.walk() if op.opcode == "alloc"
                   and op.attrs.get("stream"))

    assert build(True) > build(False)


def test_gc_preserve_extended_to_shadow():
    """Enzyme adds the shadow buffers to gc_preserve (§VI-C2): under GC
    stress the gradient survives; without the mechanism the shadow
    would be collected mid-communication."""
    b = IRBuilder()
    with b.function("jlring", [("x", Ptr()), ("y", Ptr()),
                               ("n", I64)]) as f:
        x, y, n = f.args
        rank = b.call("mpi.comm_rank")
        size = b.call("mpi.comm_size")
        tmp = b.alloc(n, F64, space="gc", name="jlarr")
        jl = Julia(b, [tmp])
        with jl.gc_preserve(tmp):
            r1 = b.call("mpi.isend", x, n, (rank + 1) % size, 3)
            r2 = b.call("mpi.irecv", jl.arrayptr(tmp), n,
                        (rank + size - 1) % size, 3)
            b.call("mpi.wait", r1)
            b.call("mpi.wait", r2)
            with b.for_(0, n, simd=True) as i:
                t = b.load(jl.arrayptr(tmp), i)
                b.store(t * t, y, i)
    grad = autodiff(b.module, "jlring", [Duplicated, Duplicated, None])

    # The generated forward preserve must cover more buffers (shadows).
    g = b.module.functions[grad]
    begins = [op for op in g.walk() if op.opcode == "call"
              and op.attrs["callee"] == "jl.gc_preserve_begin"]
    assert begins
    assert any(len(op.operands) >= 2 for op in begins)

    P, n = 3, 2
    xs = [np.arange(1.0, n + 1) + r for r in range(P)]
    dxs = [np.zeros(n) for _ in range(P)]
    ys = [np.zeros(n) for _ in range(P)]
    dys = [np.ones(n) for _ in range(P)]
    SimMPI(b.module, P, ExecConfig(gc_stress=True)).run(
        grad, lambda r: (xs[r], dxs[r], ys[r], dys[r], n))
    for r in range(P):
        prev = np.arange(1.0, n + 1) + (r - 1) % P
        np.testing.assert_allclose(dxs[r], 2 * (np.arange(1.0, n + 1) + r))


def test_reverse_pass_has_mirrored_preserve():
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        arr = b.alloc(n, F64, space="gc", name="jlarr")
        jl = Julia(b, [arr])
        with jl.gc_preserve(arr):
            with b.for_(0, n, simd=True) as i:
                b.store(b.load(x, i) * 2.0, jl.arrayptr(arr), i)
            with b.for_(0, n, simd=True) as i:
                b.store(b.load(jl.arrayptr(arr), i), x, i)
    grad = autodiff(b.module, "k", [Duplicated, None])
    g = b.module.functions[grad]
    begins = [op for op in g.walk() if op.opcode == "call"
              and op.attrs["callee"] == "jl.gc_preserve_begin"]
    ends = [op for op in g.walk() if op.opcode == "call"
            and op.attrs["callee"] == "jl.gc_preserve_end"]
    # one forward pair + one reverse pair
    assert len(begins) == 2 and len(ends) == 2
    # and the gradient is right
    x0 = np.arange(1.0, 4.0)
    dx = np.ones(3)
    Executor(b.module).run(grad, x0.copy(), dx, 3)
    np.testing.assert_allclose(dx, 2.0)


def test_julia_task_gradient_under_scheduler_sizes():
    from repro.apps.minibude import MinibudeApp, make_deck
    deck = make_deck(nprotein=8, nligand=4, nposes=12)
    ref = None
    for ntasks in (2, 3, 6):
        app = MinibudeApp("julia", deck, ntasks=ntasks)
        shadows, _ = app.run_gradient(num_threads=3)
        if ref is None:
            ref = shadows["poses"]
        else:
            np.testing.assert_allclose(shadows["poses"], ref, rtol=1e-12)
