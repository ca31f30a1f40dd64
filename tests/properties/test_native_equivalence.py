"""Fuzz: random structured programs execute bit-identically under the
interpreter, the compiled backend, and the native backend — primal
outputs, gradients, simulated clocks, and cost vectors.  A companion
case forces the C gather/scatter width floor down so the machine-code
helpers (not just the expression kernels) face the fuzzer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ad import Duplicated, autodiff
from repro.interp import ExecConfig, Executor, probe_toolchain
import repro.interp.native as native_mod
from repro.ir import I64, IRBuilder, Ptr, verify_module

from .test_roundtrip_properties import _STMT, _emit

pytestmark = pytest.mark.skipif(probe_toolchain() is None,
                                reason="no C compiler")

#: Claim every fused chain (the suite's widths are tiny, so the
#: default floor would leave the C kernels untested).
_EAGER = {"NATIVE_MIN_OPS": 1}


def _build(stmts):
    b = IRBuilder()
    with b.function("prog", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        _emit(b, stmts, x, n)
    verify_module(b.module)
    return b.module


def _run(module, fn_name, backend, arrays, scalars):
    ex = Executor(module, ExecConfig(backend=backend))
    if backend != "interp":
        ex.interp.backend.strict = (backend == "compiled")
    ex.run(fn_name, *arrays, *scalars)
    return ex.clock, ex.cost.as_dict()


def _assert_three_way(module, fn_name, xs, grad_of=None):
    outs = {}
    for backend in ("interp", "compiled", "native"):
        x = np.asarray(xs, dtype=float)
        arrays = (x,) if grad_of is None else (x, np.ones(len(xs)))
        clock, cost = _run(module, fn_name, backend, arrays, (len(xs),))
        outs[backend] = (arrays, clock, cost)
    ia, ic, icost = outs["interp"]
    for backend in ("compiled", "native"):
        ba, bc, bcost = outs[backend]
        for a, b in zip(ia, ba):
            np.testing.assert_array_equal(a, b)
        assert ic == bc
        assert icost == bcost


@settings(max_examples=30, deadline=None)
@given(stmts=st.lists(_STMT, min_size=1, max_size=4),
       xs=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=4))
def test_primal_three_way(stmts, xs):
    _assert_three_way(_build(stmts), "prog", xs)


@settings(max_examples=20, deadline=None)
@given(stmts=st.lists(_STMT, min_size=1, max_size=3),
       xs=st.lists(st.floats(-1.2, 1.2), min_size=2, max_size=4))
def test_gradient_three_way(stmts, xs):
    """The AD-generated derivative is the hard case: reversed loops,
    caches, shadow accumulates — all three backends, same bits."""
    module = _build(stmts)
    grad = autodiff(module, "prog", [Duplicated, None])
    _assert_three_way(module, grad, xs, grad_of="x")


@settings(max_examples=20, deadline=None)
@given(stmts=st.lists(_STMT, min_size=1, max_size=3),
       xs=st.lists(st.floats(-1.2, 1.2), min_size=2, max_size=4))
def test_gradient_three_way_forced_native(stmts, xs):
    """Same property with every native claim floor dropped to 1, so the
    C expression kernels actually run at the fuzzer's widths instead
    of declining."""
    saved = {k: getattr(native_mod, k) for k in _EAGER}
    for k, v in _EAGER.items():
        setattr(native_mod, k, v)
    try:
        module = _build(stmts)
        grad = autodiff(module, "prog", [Duplicated, None])
        _assert_three_way(module, grad, xs, grad_of="x")
    finally:
        for k, v in saved.items():
            setattr(native_mod, k, v)
