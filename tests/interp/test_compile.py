"""Compiled backend: parity with the interpreter, fallback contract,
compile cache, and backend wiring."""

import numpy as np
import pytest

from repro.ad import Duplicated, autodiff
from repro.interp import (
    ExecConfig,
    Executor,
    InterpreterError,
    LoweringError,
    compile_function,
)
from repro.ir import F64, I1, I64, IRBuilder, Ptr, verify_module
from repro.parallel import mpi_run


def run_both(module, fn_name, make_arrays, scalars=(), num_threads=1,
             strict=True):
    """Run ``fn_name`` under both backends (compiled in strict mode)
    and assert bit-identical buffers, simulated clock, and cost."""
    outs = {}
    for backend in ("interp", "compiled"):
        arrays = make_arrays()
        ex = Executor(module, ExecConfig(backend=backend,
                                         num_threads=num_threads))
        if backend == "compiled" and strict:
            ex.interp.backend.strict = True
        ret = ex.run(fn_name, *arrays, *scalars)
        outs[backend] = (arrays, ret, ex.clock, ex.cost.as_dict())
    ia, ir, ic, icost = outs["interp"]
    ca, cr, cc, ccost = outs["compiled"]
    for a, b in zip(ia, ca):
        np.testing.assert_array_equal(a, b)
    assert ir == cr
    assert ic == cc
    assert icost == ccost
    return outs["compiled"]


# ---------------------------------------------------------------------------
# Parity across the lowered constructs
# ---------------------------------------------------------------------------

def test_fork_workshare_barrier_parity():
    b = IRBuilder()
    with b.function("fk", [("x", Ptr()), ("acc", Ptr()), ("n", I64)]) as f:
        x, acc, n = f.args
        with b.fork(num_threads=3):
            with b.workshare(0, n) as i:
                b.store(b.mul(b.load(x, i), 2.0), x, i)
            b.barrier()
            with b.workshare(0, n, nowait=True) as i:
                b.atomic_add(b.load(x, i), acc)
    verify_module(b.module)
    n = 17
    arrays, _, _, _ = run_both(
        b.module, "fk",
        lambda: (np.arange(float(n)), np.zeros(1)), (n,), num_threads=3)
    np.testing.assert_allclose(arrays[1][0], 2.0 * np.arange(n).sum())


def test_while_dyncache_parity():
    b = IRBuilder()
    with b.function("wh", [("x", Ptr())]) as f:
        x = f.args[0]
        h = b.cache_create()
        with b.while_() as it:
            v = b.load(x, 0)
            b.cache_push(h, v)
            b.store(b.mul(v, 0.5), x, 0)
            b.loop_while(b.cmp("gt", b.load(x, 0), 1.0))
        # drain two entries back out (LIFO)
        b.store(b.cache_pop(h, F64), x, 1)
        b.store(b.cache_pop(h, F64), x, 2)
        _ = it
    verify_module(b.module)
    run_both(b.module, "wh", lambda: (np.array([40.0, 0.0, 0.0]),))


def test_spawn_wait_parity():
    b = IRBuilder()
    with b.function("sp", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.spawn() as t1:
            with b.for_(0, n, simd=True) as i:
                b.store(b.add(b.load(x, i), 1.0), x, i)
        b.wait_task(t1)
        with b.spawn() as t2:
            b.store(b.mul(b.load(x, 0), 10.0), x, 0)
        b.wait_task(t2)
    verify_module(b.module)
    arrays, _, _, _ = run_both(
        b.module, "sp", lambda: (np.zeros(4),), (4,))
    np.testing.assert_allclose(arrays[0], [10.0, 1.0, 1.0, 1.0])
    # both task bodies are compiled, run by the interpreter's driver
    src = compile_function(b.module.functions["sp"]).__lowered_source__
    assert src.count("yield from _rs(rt, _sb") == 2


def test_masked_if_parity():
    b = IRBuilder()
    with b.function("mi", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n, simd=True) as i:
            v = b.load(x, i)
            with b.if_(b.cmp("gt", v, 0.0)):
                b.store(b.sqrt(v), x, i)
            with b.else_():
                b.store(b.neg(v), x, i)
    verify_module(b.module)
    run_both(b.module, "mi",
             lambda: (np.array([4.0, -9.0, 0.0, 2.25, -1.0]),), (5,))


def test_atomic_kinds_parity():
    b = IRBuilder()
    with b.function("at", [("x", Ptr()), ("out", Ptr()), ("n", I64)]) as f:
        x, out, n = f.args
        with b.for_(0, n, simd=True) as i:
            v = b.load(x, i)
            b.atomic_add(v, out, 0)
            b.atomic_min(v, out, 1)
            b.atomic_max(v, out, 2)
    verify_module(b.module)
    arrays, _, _, _ = run_both(
        b.module, "at",
        lambda: (np.array([3.0, -7.0, 5.0]), np.zeros(3)), (3,))
    np.testing.assert_allclose(arrays[1], [1.0, -7.0, 5.0])


def test_alloc_privatization_in_simd_parity():
    b = IRBuilder()
    with b.function("pv", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n, simd=True) as i:
            tmp = b.alloc(2)
            b.store(b.load(x, i), tmp, 0)
            b.store(b.mul(b.load(tmp, 0), 3.0), tmp, 1)
            b.store(b.load(tmp, 1), x, i)
    verify_module(b.module)
    arrays, _, _, _ = run_both(
        b.module, "pv", lambda: (np.arange(6.0),), (6,))
    np.testing.assert_allclose(arrays[0], 3.0 * np.arange(6.0))


def test_gradient_reverse_workshare_parity():
    """AD of a fork/workshare loop generates reverse-order worksharing
    and cache traffic; both backends must agree bit-for-bit."""
    b = IRBuilder()
    with b.function("g", [("x", Ptr()), ("y", Ptr()), ("n", I64)]) as f:
        x, y, n = f.args
        with b.fork(num_threads=2):
            with b.workshare(0, n) as i:
                v = b.load(x, i)
                b.store(b.mul(b.sin(v), v), y, i)
    verify_module(b.module)
    grad = autodiff(b.module, "g", [Duplicated, Duplicated, None])
    n = 9

    def make_arrays():
        x = np.linspace(0.1, 2.0, n)
        dx = np.zeros(n)
        y = np.zeros(n)
        dy = np.ones(n)
        return x, dx, y, dy

    arrays, _, _, _ = run_both(b.module, grad, make_arrays, (n,),
                               num_threads=2)
    x = np.linspace(0.1, 2.0, n)
    np.testing.assert_allclose(arrays[1], np.sin(x) + x * np.cos(x),
                               rtol=1e-12)


def test_user_function_call_parity():
    b = IRBuilder()
    with b.function("helper", [("x", Ptr()), ("i", I64)]) as f:
        x, i = f.args
        b.store(b.add(b.load(x, i), 100.0), x, i)
    with b.function("main", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n) as i:
            b.call("helper", x, i)
    verify_module(b.module)
    arrays, _, _, _ = run_both(
        b.module, "main", lambda: (np.arange(3.0),), (3,))
    np.testing.assert_allclose(arrays[0], np.arange(3.0) + 100.0)


def test_mpi_parity_through_events():
    """Compiled code yields MPI events upward; SimMPI coordination and
    the simulated network clock must match the interpreter exactly."""
    b = IRBuilder()
    with b.function("pp", [("buf", Ptr()), ("n", I64)]) as f:
        buf, n = f.args
        rank = b.call("mpi.comm_rank")
        with b.if_(b.cmp("eq", rank, 0)):
            b.call("mpi.send", buf, n, 1, 5)
            b.call("mpi.recv", buf, n, 1, 6)
        with b.else_():
            tmp = b.alloc(n)
            b.call("mpi.recv", tmp, n, 0, 5)
            with b.for_(0, n, simd=True) as i:
                b.store(b.load(tmp, i) * 2.0, tmp, i)
            b.call("mpi.send", tmp, n, 0, 6)
    verify_module(b.module)

    results = {}
    for backend in ("interp", "compiled"):
        bufs = [np.arange(1.0, 4.0), np.zeros(3)]
        res = mpi_run(b.module, "pp", 2, lambda r: (bufs[r], 3),
                      config=ExecConfig(backend=backend))
        results[backend] = (bufs, res.time)
    np.testing.assert_array_equal(results["interp"][0][0],
                                  results["compiled"][0][0])
    np.testing.assert_allclose(results["interp"][0][0],
                               2 * np.arange(1.0, 4.0))
    assert results["interp"][1] == results["compiled"][1]
    fn = b.module.functions["pp"]
    assert getattr(fn, "_compiled_code", None) not in (None, False)


# ---------------------------------------------------------------------------
# Fallback contract and wiring
# ---------------------------------------------------------------------------

def _simple_module():
    b = IRBuilder()
    with b.function("f", [("x", Ptr())]) as f:
        x = f.args[0]
        b.store(b.add(b.load(x, 0), 1.0), x, 0)
    verify_module(b.module)
    return b.module


def test_unknown_backend_rejected():
    with pytest.raises(InterpreterError, match="unknown backend"):
        Executor(_simple_module(), ExecConfig(backend="bogus"))


def test_sanitize_pins_interpreter():
    ex = Executor(_simple_module(),
                  ExecConfig(backend="compiled", sanitize=True))
    assert ex.interp.backend is None
    x = np.zeros(1)
    ex.run("f", x)
    assert x[0] == 1.0


def test_tape_pins_interpreter():
    """An attached operator-overloading tape must route execution to
    the interpreter even when the compiled backend is active."""
    from repro.baselines.codipack import CoDiPackTape

    mod = _simple_module()
    ex = Executor(mod, ExecConfig(backend="compiled"))
    ex.interp.tape = CoDiPackTape(ex.interp)
    x = np.zeros(1)
    ex.run("f", x)
    assert x[0] == 1.0
    # the guard fires before compilation is ever attempted
    assert getattr(mod.functions["f"], "_compiled_code", None) is None


def test_lowering_failure_falls_back(monkeypatch):
    import repro.interp.compile as compile_mod

    def boom(fn, **kwargs):
        raise LoweringError("synthetic failure")

    monkeypatch.setattr(compile_mod, "compile_function", boom)
    mod = _simple_module()
    ex = Executor(mod, ExecConfig(backend="compiled"))
    x = np.zeros(1)
    ex.run("f", x)
    assert x[0] == 1.0
    fn = mod.functions["f"]
    assert fn._compiled_code is False
    assert "synthetic failure" in str(fn._compile_error)
    # strict mode surfaces the failure instead
    mod2 = _simple_module()
    ex2 = Executor(mod2, ExecConfig(backend="compiled"))
    ex2.interp.backend.strict = True
    with pytest.raises(LoweringError, match="synthetic failure"):
        ex2.run("f", np.zeros(1))


def _fork_in_simd(b, x, n):
    with b.for_(0, n, simd=True) as i:
        with b.fork(2):
            b.atomic_add(b.itof(i), x, i)


def _parallel_for_in_simd(b, x, n):
    with b.for_(0, n, simd=True) as i:
        with b.parallel_for(0, 2) as j:
            b.atomic_add(b.itof(j), x, i)


def _spawn_in_simd(b, x, n):
    with b.for_(0, n, simd=True) as i:
        with b.spawn() as t:
            b.store(b.itof(i), x, i)
        b.wait_task(t)


def _if_on_cache_pop(b, x, n):
    h = b.cache_create()
    b.cache_push(h, b.cmp("gt", b.load(x, 0), 0.0))
    with b.if_(b.cache_pop(h, I1)):
        b.store(2.0, x, 1)


def _if_on_call_in_simd(b, x, n):
    with b.for_(0, n, simd=True) as i:
        v = b.call("g", b.load(x, i))
        with b.if_(b.cmp("gt", v, 1.0)):
            b.store(v, x, i)


#: Constructs the lowering does not claim: each makes its function run
#: interpreter-only, the one degradation granularity of the tier.
_UNLOWERED = {
    "fork-in-simd": (_fork_in_simd, "fork inside a vectorised region"),
    "parallel_for-in-simd": (_parallel_for_in_simd,
                             "parallel_for inside a vectorised region"),
    "spawn-in-simd": (_spawn_in_simd, "spawn inside a vectorised region"),
    "if-on-cache_pop": (_if_on_cache_pop,
                        "if on a condition of run-time width"),
    "if-on-call-in-simd": (_if_on_call_in_simd,
                           "if on a condition of run-time width"),
}


@pytest.mark.parametrize("edge", sorted(_UNLOWERED))
def test_unlowered_construct_runs_the_function_on_the_interpreter(edge):
    emit, cause = _UNLOWERED[edge]
    b = IRBuilder()
    with b.function("g", [("v", F64)], F64) as g:
        b.ret(b.mul(g.args[0], 2.0))
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        emit(b, *f.args)
    verify_module(b.module)
    make = lambda: (np.array([0.25, 1.0, 2.0, -1.0]),)  # noqa: E731
    run_both(b.module, "f", make, (4,), num_threads=2, strict=False)
    with pytest.raises(LoweringError, match=cause):
        compile_function(b.module.functions["f"])
    ex = Executor(b.module, ExecConfig(backend="compiled", num_threads=2))
    ex.run("f", *make(), 4)
    assert ex.compile_stats()["interpreter_only"] == {
        "f": f"LoweringError: {cause}"}


def test_compiled_code_cached_on_function():
    mod = _simple_module()
    fn = mod.functions["f"]
    ex = Executor(mod, ExecConfig(backend="compiled"))
    ex.run("f", np.zeros(1))
    code = fn._compiled_code
    assert code is not False and code is not None
    assert "def _compiled" in code.__lowered_source__
    ex2 = Executor(mod, ExecConfig(backend="compiled"))
    ex2.run("f", np.zeros(1))
    assert fn._compiled_code is code


def test_compile_function_source_is_inspectable():
    mod = _simple_module()
    code = compile_function(mod.functions["f"])
    src = code.__lowered_source__
    assert src.startswith("def _compiled(rt")
    assert "_ld(rt" in src and "_st(rt" in src
