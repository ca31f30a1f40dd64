"""Interval/affine-index dataflow: lattice unit tests, affine bound
proofs, flow-sensitive context (loops, fork/workshare, branches), and
the proven/unproven/oob access classification."""

from __future__ import annotations

import pytest

from repro.apps.lulesh.kernels import build_lulesh
from repro.apps.minibude.kernels import build_minibude
from repro.ir import I64, IRBuilder, Ptr, verify_module
from repro.passes.intervals import (
    NEG_INF,
    OOB,
    POS_INF,
    PROVEN,
    UNPROVEN,
    Interval,
    certify_bounds,
)

from ..ad.test_gradient_roundtrip import APPS


# ---------------------------------------------------------------------
# Interval lattice
# ---------------------------------------------------------------------

def test_interval_lattice_basics():
    top = Interval.top()
    assert top.is_top
    c = Interval.const(3)
    assert (c.lo, c.hi) == (3, 3)
    assert c.join(Interval.const(7)) == Interval(3, 7)
    assert c.meet(Interval(5, 9)) is None
    assert Interval(0, 8).meet(Interval(5, 9)) == Interval(5, 8)


def test_interval_widening_blows_unstable_endpoints():
    a = Interval(0, 10)
    assert a.widen(Interval(0, 11)) == Interval(0, POS_INF)
    assert a.widen(Interval(-1, 10)) == Interval(NEG_INF, 10)
    # Stable endpoints survive widening.
    assert a.widen(Interval(2, 9)) == a


def test_interval_arithmetic():
    assert Interval(1, 2).add(Interval(10, 20)) == Interval(11, 22)
    assert Interval(1, 2).neg() == Interval(-2, -1)
    assert Interval(1, 2).scale(-3) == Interval(-6, -3)
    assert Interval(-1, 2).mul(Interval(-5, 3)) == Interval(-10, 6)
    # 0 * inf must stay 0, not NaN.
    z = Interval.const(0).mul(Interval.top())
    assert z == Interval.const(0)


def test_interval_int64_overflow_clamps_to_inf():
    big = Interval.const(2 ** 62)
    out = big.add(big)
    assert out.hi == POS_INF  # not a wrong finite value


# ---------------------------------------------------------------------
# Classification on programs
# ---------------------------------------------------------------------

def _analyze(build):
    b = IRBuilder()
    build(b)
    verify_module(b.module)
    fn = next(iter(b.module.functions.values()))
    return certify_bounds(fn, b.module), fn


def _accesses(fn, ia, opcode):
    return [ia.status(op) for op in fn.body.walk()
            if op.opcode == opcode]


def test_alloc_extent_proves_loop_body_access():
    def build(b):
        with b.function("f", [("n", I64)]) as f:
            (n,) = f.args
            buf = b.alloc(n)
            with b.for_(0, n) as i:
                b.store(0.0, buf, i)
                # reversal: n-1-i is also in [0, n-1]
                b.store(1.0, buf, b.sub(b.sub(n, 1), i))

    ia, fn = _analyze(build)
    assert _accesses(fn, ia, "store") == [PROVEN, PROVEN]


def test_arg_extent_attr_proves_and_flags_oob():
    def build(b):
        with b.function("f", [("x", Ptr())], arg_attrs=[{"extent": 10}]):
            fn = b.module.functions["f"]
            x = fn.args[0]
            with b.for_(0, 10) as i:
                b.store(0.0, x, i)            # proven
                b.load(x, b.add(i, 10))       # provably OOB (hi=19)

    ia, fn = _analyze(build)
    assert _accesses(fn, ia, "store") == [PROVEN]
    assert _accesses(fn, ia, "load") == [OOB]
    finds = ia.findings()
    assert len(finds) == 1 and finds[0].op  # rendered op text present


def test_unbounded_index_stays_unproven():
    def build(b):
        with b.function("f", [("x", Ptr()), ("n", I64)],
                        arg_attrs=[{"extent": 10}, {}]):
            fn = b.module.functions["f"]
            x, n = fn.args
            b.load(x, n)   # n unconstrained

    ia, fn = _analyze(build)
    assert _accesses(fn, ia, "load") == [UNPROVEN]
    assert ia.counts() == {"proven": 0, "unproven": 1, "oob": 0}


def test_indirect_index_is_unproven():
    def build(b):
        with b.function("f", [("x", Ptr()), ("ix", Ptr(I64))],
                        arg_attrs=[{"extent": 8}, {"extent": 8}]):
            fn = b.module.functions["f"]
            x, ix = fn.args
            with b.for_(0, 8) as i:
                j = b.load(ix, i)        # proven read of the table
                b.load(x, j)             # value loaded: unprovable

    ia, fn = _analyze(build)
    assert _accesses(fn, ia, "load") == [PROVEN, UNPROVEN]


def test_fork_workshare_tid_chunks_prove():
    def build(b):
        with b.function("f", [("x", Ptr())], arg_attrs=[{"extent": 64}]):
            fn = b.module.functions["f"]
            x = fn.args[0]
            with b.fork(8) as (tid, _nth):
                base = b.mul(tid, 8)
                with b.workshare(0, 8) as i:
                    b.store(0.0, x, b.add(base, i))  # tid*8+i in [0,63]

    ia, fn = _analyze(build)
    assert _accesses(fn, ia, "store") == [PROVEN]


def test_ptradd_offset_chain_counts_toward_extent():
    def build(b):
        with b.function("f", [("x", Ptr())], arg_attrs=[{"extent": 10}]):
            fn = b.module.functions["f"]
            x = fn.args[0]
            p = b.ptradd(x, 4)
            b.store(0.0, p, 5)      # 4+5 = 9 < 10: proven
            b.load(p, 6)            # 4+6 = 10: OOB

    ia, fn = _analyze(build)
    assert _accesses(fn, ia, "store") == [PROVEN]
    assert _accesses(fn, ia, "load") == [OOB]


def test_uniform_branch_refinement_proves():
    def build(b):
        with b.function("f", [("x", Ptr()), ("n", I64)],
                        arg_attrs=[{"extent": 64}, {}]):
            fn = b.module.functions["f"]
            x, n = fn.args
            with b.if_(b.cmp("ge", n, 0)):
                with b.if_(b.cmp("lt", n, 64)):
                    b.load(x, n)            # n in [0, 63]: proven
            with b.if_(b.cmp("lt", n, 64)):
                b.load(x, n)                # lower bound unknown

    ia, fn = _analyze(build)
    assert _accesses(fn, ia, "load") == [PROVEN, UNPROVEN]


def test_nonuniform_condition_does_not_refine():
    """A condition computed from loaded data varies across the simd
    lanes the lowering executes together, so refining on it would be
    unsound under masked execution — such accesses stay unproven."""
    def build(b):
        with b.function("f", [("x", Ptr()), ("ix", Ptr(I64))],
                        arg_attrs=[{"extent": 8}, {"extent": 8}]):
            fn = b.module.functions["f"]
            x, ix = fn.args
            with b.for_(0, 8, simd=True) as i:
                j = b.load(ix, i)
                ok_lo = b.cmp("ge", j, 0)
                with b.if_(ok_lo):
                    with b.if_(b.cmp("lt", j, 8)):
                        b.load(x, j)

    ia, fn = _analyze(build)
    statuses = _accesses(fn, ia, "load")
    assert statuses[-1] == UNPROVEN


def test_while_counter_widens_to_unbounded():
    def build(b):
        with b.function("f", [("x", Ptr()), ("n", I64)],
                        arg_attrs=[{"extent": 100}, {}]):
            fn = b.module.functions["f"]
            x, n = fn.args
            with b.while_() as k:
                b.load(x, k)    # k in [0, +inf): unproven upper bound
                b.loop_while(b.cmp("lt", k, n))

    ia, fn = _analyze(build)
    assert _accesses(fn, ia, "load") == [UNPROVEN]


def test_mpi_rank_bounded_by_comm_size():
    def build(b):
        with b.function("f", [("x", Ptr())], arg_attrs=[{"extent": 4}]):
            fn = b.module.functions["f"]
            x = fn.args[0]
            b.call("mpi.comm_size")
            r = b.call("mpi.comm_rank")
            b.store(0.0, x, r)   # r in [0, size-1], but size unbounded

    ia, fn = _analyze(build)
    # rank >= 0 is known; the upper bound needs a concrete size, so
    # this stays unproven rather than OOB.
    assert _accesses(fn, ia, "store") == [UNPROVEN]


def test_step_two_loop_interval():
    def build(b):
        with b.function("f", [("x", Ptr())], arg_attrs=[{"extent": 10}]):
            fn = b.module.functions["f"]
            x = fn.args[0]
            with b.for_(0, 10, step=2) as i:
                b.store(0.0, x, i)

    ia, fn = _analyze(build)
    assert _accesses(fn, ia, "store") == [PROVEN]


def test_short_buffer_rejected_at_wrap(tmp_path):
    import numpy as np

    from repro.interp import ExecConfig, Executor

    b = IRBuilder()
    with b.function("f", [("x", Ptr())], arg_attrs=[{"extent": 10}]):
        fn = b.module.functions["f"]
        b.store(0.0, fn.args[0], 9)
    verify_module(b.module)
    ex = Executor(b.module, ExecConfig())
    with pytest.raises(TypeError, match="extent"):
        ex.run("f", np.zeros(5))
    ex2 = Executor(b.module, ExecConfig())
    ex2.run("f", np.zeros(12))   # longer is fine


# ---------------------------------------------------------------------------
# The real programs: no access is provably out of bounds
# ---------------------------------------------------------------------------

PRIMALS = {
    "lulesh-serial": lambda: build_lulesh("serial", 2),
    "lulesh-openmp": lambda: build_lulesh("openmp", 2),
    "lulesh-raja": lambda: build_lulesh("raja", 2),
    "minibude-openmp": lambda: build_minibude("openmp", 8, 4, 12),
    "minibude-julia": lambda: build_minibude("julia", 8, 4, 12),
}


def _assert_no_oob(fn, module):
    facts = certify_bounds(fn, module)
    counts = facts.counts()
    assert counts["oob"] == 0 and facts.findings() == []
    assert counts["proven"] > 0     # the check is not vacuous


@pytest.mark.parametrize("name", sorted(PRIMALS))
def test_app_primal_has_no_provable_oob(name):
    module, fn_name = PRIMALS[name]()
    _assert_no_oob(module.functions[fn_name], module)


@pytest.mark.parametrize("name", sorted(APPS))
def test_app_gradient_has_no_provable_oob(name):
    app = APPS[name][0]()
    _assert_no_oob(app.module.functions[app.grad_fn()], app.module)
