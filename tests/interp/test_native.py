"""Native backend: toolchain probe, three-way backend parity, the
per-kernel claim/fallback contract, fold/gather/scatter semantics at
forced widths, and the no-compiler degradation path."""

import re

import numpy as np
import pytest

from repro.ad import Duplicated, autodiff
from repro.interp import ExecConfig, Executor, probe_toolchain
import repro.interp.native as native_mod

HAVE_CC = probe_toolchain() is not None

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")


def run_three(module, fn_name, make_arrays, scalars=(), num_threads=1,
              config_extra=None):
    """Run under interp, compiled, and native; assert bit-identical
    buffers, return value, simulated clock, and cost across all three.
    Returns the native executor for stats assertions."""
    outs = {}
    for backend in ("interp", "compiled", "native"):
        arrays = make_arrays()
        ex = Executor(module, ExecConfig(backend=backend,
                                         num_threads=num_threads,
                                         **(config_extra or {})))
        if backend != "interp":
            ex.interp.backend.strict = (backend == "compiled")
        ret = ex.run(fn_name, *arrays, *scalars)
        outs[backend] = (arrays, ret, ex.clock, ex.cost.as_dict(), ex)
    ia, ir, ic, icost, _ = outs["interp"]
    for backend in ("compiled", "native"):
        ba, br, bc, bcost, _ = outs[backend]
        for a, b in zip(ia, ba):
            np.testing.assert_array_equal(a, b)
        assert ir == br
        assert ic == bc
        assert icost == bcost
    return outs["native"][4]


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------

def _chain_module():
    """A fused elementwise chain long enough to claim a C kernel."""
    from repro.ir import I64, IRBuilder, Ptr, verify_module
    b = IRBuilder()
    with b.function("ch", [("x", Ptr()), ("y", Ptr()), ("n", I64)]) as f:
        x, y, n = f.args
        with b.for_(0, n, simd=True) as i:
            v = b.load(x, i)
            w = b.load(y, i)
            r = b.add(b.mul(v, w), b.mul(b.sub(v, w), 0.5))
            r = b.select(b.cmp("gt", r, 0.0), b.sqrt(b.add(r, 1.0)),
                         b.neg(r))
            b.store(r, x, i)
    verify_module(b.module)
    return b.module


def _gather_scatter_module():
    """Indirect loads/stores through an index array (pure data motion:
    exercises the runtime _ld/_st claims, not expression kernels)."""
    from repro.ir import I64, IRBuilder, Ptr, verify_module
    b = IRBuilder()
    with b.function("gs", [("x", Ptr()), ("y", Ptr()),
                           ("idx", Ptr(I64)), ("n", I64)]) as f:
        x, y, idx, n = f.args
        with b.for_(0, n, simd=True) as i:
            j = b.load(idx, i)
            v = b.load(x, j)
            b.store(b.mul(v, 2.0), y, j)
    verify_module(b.module)
    return b.module


def _fold_module():
    """Vector-valued atomics onto scalar targets: the fold claim."""
    from repro.ir import I64, IRBuilder, Ptr, verify_module
    b = IRBuilder()
    with b.function("fo", [("x", Ptr()), ("out", Ptr()), ("n", I64)]) as f:
        x, out, n = f.args
        with b.for_(0, n, simd=True) as i:
            v = b.load(x, i)
            b.atomic_add(v, out, 0)
            b.atomic_min(v, out, 1)
            b.atomic_max(v, out, 2)
    verify_module(b.module)
    return b.module


# ---------------------------------------------------------------------------
# Toolchain probe
# ---------------------------------------------------------------------------

@needs_cc
def test_probe_toolchain_identity():
    tc = probe_toolchain()
    assert tc.cc
    assert tc.version
    # identity folds in everything that invalidates machine code
    assert tc.cc in tc.identity and tc.version in tc.identity
    # memoized: same object back
    assert probe_toolchain() is tc


def test_probe_missing_compiler_returns_none():
    assert probe_toolchain("/nonexistent/cc-for-test") is None


# ---------------------------------------------------------------------------
# Three-way parity + claim accounting
# ---------------------------------------------------------------------------

@needs_cc
def test_chain_parity_and_kernel_claimed():
    ex = run_three(_chain_module(), "ch",
                   lambda: (np.linspace(-2.0, 2.0, 64),
                            np.linspace(1.0, 3.0, 64)), (64,))
    nat = ex.compile_stats()["native"]
    assert nat["enabled"]
    assert nat["cc"]
    assert nat["kernels"] >= 1
    assert nat["claimed"] >= 1


@needs_cc
def test_fold_parity_and_claims():
    def arrays():
        x = np.linspace(-3.0, 3.0, 33)
        out = np.array([0.0, np.inf, -np.inf])
        return x, out
    ex = run_three(_fold_module(), "fo", arrays, (33,))
    nat = ex.compile_stats()["native"]
    assert nat["enabled"]
    assert nat["folds"] >= 1


@needs_cc
def test_fold_parity_with_nan_and_signed_zero():
    """min/max folds must keep NumPy's accumulate semantics bit-for-bit
    through NaNs and signed zeros."""
    def arrays():
        x = np.array([1.0, np.nan, -0.0, 0.0, -2.5, np.nan, 7.0])
        out = np.array([0.5, 4.0, -4.0])
        return x, out
    run_three(_fold_module(), "fo", arrays, (7,))


@needs_cc
def test_gather_scatter_parity_small_width():
    """Indirect gather/scatter goes through the bounds-checked C loops
    behind ``_ld``/``_st`` at any width (the strided loops with a width
    floor went with the monotone helpers)."""
    n = 32

    def arrays():
        rng = np.random.default_rng(7)
        return (rng.standard_normal(n).copy(),
                np.zeros(n),
                rng.permutation(n).astype(np.int64))
    run_three(_gather_scatter_module(), "gs", arrays, (n,))


@needs_cc
def test_gradient_parity_threaded():
    """The AD adjoint under a fork is the app-shaped case: shadow
    accumulates, reversed sweeps, atomics — all three backends must
    agree bit-for-bit."""
    from repro.ir import I64, IRBuilder, Ptr, verify_module
    b = IRBuilder()
    with b.function("g", [("x", Ptr()), ("y", Ptr()), ("n", I64)]) as f:
        x, y, n = f.args
        with b.fork(num_threads=2):
            with b.workshare(0, n) as i:
                v = b.load(x, i)
                b.store(b.mul(b.sin(v), b.add(v, 0.25)), y, i)
    verify_module(b.module)
    grad = autodiff(b.module, "g", [Duplicated, Duplicated, None])
    n = 24

    def arrays():
        return (np.linspace(0.1, 2.0, n), np.ones(n),
                np.zeros(n), np.ones(n))
    run_three(b.module, grad, arrays, (n,), num_threads=2)


# ---------------------------------------------------------------------------
# Fallback contract
# ---------------------------------------------------------------------------

def test_no_compiler_falls_back_bit_identical():
    """cc pointing nowhere: the native backend *is* the compiled
    backend, with the reason recorded in compile_stats()."""
    module = _chain_module()
    outs = {}
    for backend, extra in (("interp", {}),
                           ("native", {"cc": "/nonexistent/cc-for-test"})):
        x = np.linspace(-2.0, 2.0, 32)
        y = np.linspace(1.0, 3.0, 32)
        ex = Executor(module, ExecConfig(backend=backend, **extra))
        ex.run("ch", x, y, 32)
        outs[backend] = (x, y, ex.clock, ex.cost.as_dict(), ex)
    np.testing.assert_array_equal(outs["interp"][0], outs["native"][0])
    np.testing.assert_array_equal(outs["interp"][1], outs["native"][1])
    assert outs["interp"][2] == outs["native"][2]
    assert outs["interp"][3] == outs["native"][3]
    nat = outs["native"][4].compile_stats()["native"]
    assert not nat["enabled"]
    assert "no usable C compiler" in nat["fallback_reason"]
    assert "/nonexistent/cc-for-test" in nat["fallback_reason"]
    # every compiled function degrades with an explicit reason
    assert any("no usable C compiler" in why
               for why in nat["function_fallbacks"].values())


@needs_cc
def test_unclaimable_function_records_reason():
    """A function with nothing for the emitter: the build still ships
    the dynamic helper overrides and says so."""
    from repro.ir import I64, IRBuilder, Ptr, verify_module
    b = IRBuilder()
    with b.function("s", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        b.store(b.add(b.load(x, 0), 1.0), x, 0)
    verify_module(b.module)
    ex = Executor(b.module, ExecConfig(backend="native"))
    x = np.array([1.0])
    ex.run("s", x, 1)
    np.testing.assert_array_equal(x, [2.0])
    nat = ex.compile_stats()["native"]
    assert nat["enabled"]
    assert nat["claimed"] == 0
    assert "no claimable kernels" in nat["function_fallbacks"]["s"]


@needs_cc
def test_oob_store_raises_identically():
    """Bounds violations through the native helper overrides must
    surface the same error as the interpreter — and must not partially
    mutate the target buffer first."""
    module = _gather_scatter_module()
    n = 8
    errs, bufs = {}, {}
    for backend in ("interp", "native"):
        x = np.arange(float(n))
        y = np.zeros(n)
        idx = np.arange(n, dtype=np.int64)
        idx[-1] = n + 3  # out of bounds on the last lane
        ex = Executor(module, ExecConfig(backend=backend))
        with pytest.raises(Exception) as ei:
            ex.run("gs", x, y, idx, n)
        # buffer *ids* differ between executors; normalize them out
        msg = re.sub(r"#\d+", "#N", str(ei.value))
        errs[backend] = (type(ei.value), msg)
        bufs[backend] = y.copy()
    assert errs["interp"] == errs["native"]
    np.testing.assert_array_equal(bufs["interp"], bufs["native"])


# ---------------------------------------------------------------------------
# Disk cache for .so blobs
# ---------------------------------------------------------------------------

@needs_cc
def test_so_cache_roundtrip(tmp_path):
    """Second executor over a fresh module hits the native .so cache
    (the marshal entry and the .so entry share the counters)."""
    native_mod._LIB_MEMO.clear()
    cfg = dict(backend="native", compile_cache=str(tmp_path))
    ex1 = Executor(_chain_module(), ExecConfig(**cfg))
    ex1.run("ch", np.ones(16), np.ones(16), 16)
    st1 = ex1.compile_stats()
    assert st1["cache"]["stores"] >= 2  # marshal entry + .so blob
    assert not st1["native"]["so_cached"]
    native_mod._LIB_MEMO.clear()
    ex2 = Executor(_chain_module(), ExecConfig(**cfg))
    ex2.run("ch", np.ones(16), np.ones(16), 16)
    st2 = ex2.compile_stats()
    assert st2["cache"]["misses"] == 0
    assert st2["cache"]["hits"] >= 2
    assert st2["native"]["so_cached"]


# ---------------------------------------------------------------------------
# Static bounds certification through the native tier
# ---------------------------------------------------------------------------

def _certified_module():
    """Mixed proven/unproven accesses: x[i] affine under a declared
    extent (provable), plus an indirect x[idx[i]] (not provable)."""
    from repro.ir import I64, IRBuilder, Ptr, verify_module
    b = IRBuilder()
    n = 48
    with b.function("ce", [("x", Ptr()), ("y", Ptr()),
                           ("idx", Ptr(I64)), ("n", I64)],
                    arg_attrs=[{"extent": n, "noalias": True},
                               {"extent": n, "noalias": True},
                               {"extent": n, "noalias": True}, {}]):
        fn = b.module.functions["ce"]
        x, y, idx, _nv = fn.args
        with b.fork(num_threads=2):
            with b.workshare(0, n) as i:
                v = b.load(x, i)                 # proven
                b.store(b.mul(v, 1.5), y, i)     # proven
            with b.workshare(0, n) as i:
                j = b.load(idx, i)               # proven
                w = b.load(x, j)                 # unproven (indirect)
                b.store(b.add(w, 0.5), y, j)     # unproven
                b.atomic_add(w, y, 0)            # proven fold onto y[0]
    verify_module(b.module)
    return b.module, n


@needs_cc
def test_native_claims_classified_proven_unproven():
    """Every fold claim is classified proven/unproven in
    compile_stats(), and the parity suite holds bit-identically with
    elision live."""
    module, n = _certified_module()

    def arrays():
        rng = np.random.default_rng(5)
        return (rng.standard_normal(n).copy(), np.zeros(n),
                rng.permutation(n).astype(np.int64))

    ex = run_three(module, "ce", arrays, (n,), num_threads=2)
    stats = ex.compile_stats()
    # The analysis certifies 5 sites; one proven load rides inside a
    # fused trace and is never lowered as its own access, so the
    # lowering-time counters see 4 proven + 2 unproven sites.
    assert stats["bounds_proven"] == 4
    assert stats["bounds_unproven"] == 2
    assert stats["checks_elided"] > 0
    nat = stats["native"]
    assert nat["claims_proven"] > 0
    assert nat["claims_proven"] + nat["claims_unproven"] == nat["folds"]
