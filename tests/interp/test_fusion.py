"""Trace fusion: access plans, the fusion statistics, and the fusion
on/off switch."""

import re

import numpy as np
import pytest

from repro.interp import ExecConfig, Executor, compile_function
from repro.interp.fusion import (
    FUSE_OP_CAP,
    FusionStats,
)
from repro.ir import I64, IRBuilder, Ptr, verify_module


# ---------------------------------------------------------------------------
# Access plans, on the index shapes the monotonicity classes told apart
# ---------------------------------------------------------------------------
#
# These tests keep the names of the unit tests of the ``mono_*`` algebra
# they replace (the lowering read one direction bit per index from it).
# The classes now only name index *shapes* — 0 lane-uniform, +-2 affine
# in the lane with that sign, +-1 monotone but clamped, None indirect —
# and what is checked is what the lowering does with them today: an
# address affine in the lane with a non-zero stride is a slice, anything
# else a gather, and either way the compiled tier is the interpreter.

_N = 12


def _shape(b, cls, i, n, u, idx):
    if cls == 0:
        return u
    if cls == 2:
        return i
    if cls == -2:
        return b.sub(b.sub(n, 1), i)
    if cls == 1:
        return b.min(i, 5)
    if cls == -1:
        return b.max(b.sub(b.sub(n, 1), i), 5)
    return b.load(idx, i)


def _indexed_copy(index_of, store_index_of=None):
    """``y[s(i)] = x[f(i)]`` in one simd loop; returns the lowered source
    after checking arrays, clock and cost against the interpreter."""
    b = IRBuilder()
    with b.function("cp", [("x", Ptr()), ("y", Ptr()), ("idx", Ptr(I64)),
                           ("u", I64), ("n", I64)]) as f:
        x, y, idx, u, n = f.args
        with b.for_(0, n, simd=True) as i:
            v = b.load(x, index_of(b, i, n, u, idx))
            b.store(v, y, store_index_of(b, i, n) if store_index_of else i)
    verify_module(b.module)
    outs = []
    for backend in ("interp", "compiled"):
        x = np.arange(4.0 * _N)
        y = np.zeros(_N)
        idx = np.random.default_rng(3).permutation(_N).astype(np.int64)
        ex = Executor(b.module, ExecConfig(backend=backend))
        ex.run("cp", x, y, idx, 3, _N)
        outs.append((y.tolist(), ex.clock, ex.cost.as_dict()))
    assert outs[0] == outs[1]
    return compile_function(b.module.functions["cp"]).__lowered_source__


_AFFINE = {0: 0, 2: 1, -2: -1}   # shape class -> lane stride


def _x_stride(src):
    """Lane stride of the plan that loads from ``x`` (``v1``), or None
    when that load is not a slice."""
    m = re.search(r"= _lds\(rt, v1, [^,]+, _W\d+(?:, (-?\d+))?\)", src)
    return m and int(m.group(1) or 1)


@pytest.mark.parametrize("a,b,want", [
    (0, 0, 0),
    (0, 2, 2),          # uniform + affine is affine
    (2, 0, 2),
    (1, 2, 2),          # a clamped operand is not affine: a gather now
    (2, 2, 2),
    (-2, -1, -2),
    (1, -1, None),      # opposing directions
    (2, -2, None),      # the strides cancel: every lane reads one cell
    (None, 2, None),
    (1, None, None),
])
def test_mono_add(a, b, want):
    """The sum of two index shapes: sliced exactly where the old algebra
    said strictly monotone *and* both operands are affine in the lane,
    with the stride the affine form gives."""
    src = _indexed_copy(lambda bld, i, n, u, idx: bld.add(
        _shape(bld, a, i, n, u, idx), _shape(bld, b, i, n, u, idx)))
    if want in (2, -2) and a in _AFFINE and b in _AFFINE:
        assert _x_stride(src) == _AFFINE[a] + _AFFINE[b]
        assert (_x_stride(src) > 0) == (want > 0)
    else:
        assert _x_stride(src) is None
        if want != 0:   # (0, 0) is a uniform address: open-coded scalar
            assert "= _ld(rt, v1," in src


def test_mono_neg():
    """A negated induction vector is a reversed slice."""
    src = _indexed_copy(lambda b, i, n, u, idx: b.add(b.neg(i), b.sub(n, 1)))
    assert _x_stride(src) == -1
    assert "_k" not in src      # no index arithmetic is left to run


def test_mono_scale():
    """A constant factor scales the lane stride; zero makes it a
    broadcast of one cell, which stays a gather."""
    for k in (1, 3, -1, -3):
        src = _indexed_copy(lambda b, i, n, u, idx: b.add(
            b.mul(i, k), 0 if k > 0 else b.mul(b.sub(n, 1), -k)))
        assert _x_stride(src) == k
    assert "= _ld(rt, v1," in _indexed_copy(lambda b, i, n, u, idx: b.mul(i, 0))


def test_mono_relax_demotes_strictness():
    """A clamped store index repeats lanes: NumPy's last-wins scatter is
    observable there, so it must stay one."""
    src = _indexed_copy(lambda b, i, n, u, idx: i,
                        lambda b, i, n: b.min(i, 5))
    assert "_st(rt" in src and "_sts" not in src


# ---------------------------------------------------------------------------
# Fusion statistics and the on/off switch
# ---------------------------------------------------------------------------

def _chain_module(nops: int):
    """One simd loop applying ``nops`` dependent elementwise ops."""
    b = IRBuilder()
    with b.function("chain", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n, simd=True) as i:
            v = b.load(x, i)
            for _ in range(nops):
                v = b.add(b.mul(v, 1.0000001), 1e-9)
            b.store(v, x, i)
    verify_module(b.module)
    return b.module


def test_fusion_stats_count_folded_ops():
    mod = _chain_module(8)
    code = compile_function(mod.functions["chain"], fusion=True)
    st = code.__fusion_stats__
    assert isinstance(st, FusionStats)
    assert st.ops == 16           # 8 * (mul + add)
    # A single-use chain collapses into the store: every compute op is
    # folded, none needs its own kernel statement.
    assert st.fused_ops == 16
    assert st.kernels == 0
    assert st.as_dict()["fused_ops"] == 16


def test_unfused_lowering_emits_every_op():
    mod = _chain_module(8)
    code = compile_function(mod.functions["chain"], fusion=False)
    st = code.__fusion_stats__
    assert st.ops == 16
    assert st.fused_ops == 0
    assert st.kernels == 16


def test_fuse_op_cap_splits_long_chains():
    """A chain longer than FUSE_OP_CAP must split into >1 kernel
    instead of growing one unbounded expression."""
    nops = FUSE_OP_CAP + 10
    mod = _chain_module(nops)
    code = compile_function(mod.functions["chain"], fusion=True)
    st = code.__fusion_stats__
    assert st.ops == 2 * nops
    assert st.kernels >= 1            # at least one forced split
    assert st.fused_ops < st.ops
    # and the generated source stays within one expression per split
    assert "def _compiled" in code.__lowered_source__


def test_fusion_config_switch_same_results():
    mod = _chain_module(6)
    outs = {}
    for fusion in (True, False):
        x = np.linspace(-1, 1, 7)
        ex = Executor(mod, ExecConfig(backend="compiled", fusion=fusion))
        ex.interp.backend.strict = True
        ex.run("chain", x, 7)
        outs[fusion] = (x, ex.clock, ex.cost.as_dict())
    np.testing.assert_array_equal(outs[True][0], outs[False][0])
    assert outs[True][1] == outs[False][1]
    assert outs[True][2] == outs[False][2]


def test_fusion_flag_reaches_backend():
    mod = _chain_module(2)
    ex = Executor(mod, ExecConfig(backend="compiled", fusion=False))
    assert ex.interp.backend.fusion is False
    ex.run("chain", np.zeros(3), 3)
    stats = ex.compile_stats()
    assert stats["fusion"] is False
    assert stats["functions"] == 1
    assert stats["fused_ops"] == 0


def test_executor_compile_stats_none_for_interp():
    mod = _chain_module(1)
    ex = Executor(mod, ExecConfig(backend="interp"))
    ex.run("chain", np.zeros(2), 2)
    assert ex.compile_stats() is None
