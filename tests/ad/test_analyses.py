"""Unit tests for the AD-supporting analyses: activity, aliasing,
thread-locality / access patterns."""

import numpy as np
import pytest

from repro.ad.activity import analyze_activity
from repro.ad.tls import (
    ATOMIC,
    REDUCTION,
    SERIAL,
    ReductionCatalog,
    classify_index,
    increment_kind,
    parallel_context,
)
from repro.ir import F64, I64, IRBuilder, Ptr
from repro.passes.aliasing import UNKNOWN, analyze_aliasing
from repro.passes.intervals import IntervalAnalysis


def _analyze(build, dup_names=("x",)):
    b = IRBuilder()
    build(b)
    fn = next(iter(b.module.functions.values()))
    aliasing = analyze_aliasing(fn, b.module)
    dup = {a for a in fn.args if a.name in dup_names}
    act = analyze_activity(fn, b.module, aliasing, dup, set())
    return b, fn, aliasing, act


# ---------------------------------------------------------------------------
# aliasing
# ---------------------------------------------------------------------------

def test_noalias_args_disjoint():
    def build(b):
        with b.function("f", [("x", Ptr()), ("y", Ptr())],
                        arg_attrs=[{"noalias": True}, {"noalias": True}]):
            pass
    _b, fn, al, _ = _analyze(build)
    x, y = fn.args
    assert not al.may_alias(x, y)
    assert al.may_alias(x, x)


def test_plain_args_may_alias():
    def build(b):
        with b.function("f", [("x", Ptr()), ("y", Ptr())]):
            pass
    _b, fn, al, _ = _analyze(build)
    assert al.may_alias(*fn.args)


def test_allocs_never_alias_each_other_or_args():
    def build(b):
        with b.function("f", [("x", Ptr())]) as f:
            p = b.alloc(4)
            q = b.alloc(4)
            b.store(b.load(p, 0), q, 0)
    _b, fn, al, _ = _analyze(build)
    allocs = [op.result for op in fn.walk() if op.opcode == "alloc"]
    assert not al.may_alias(allocs[0], allocs[1])
    assert not al.may_alias(allocs[0], fn.args[0])


def test_arrayptr_is_opaque():
    def build(b):
        with b.function("f", [("x", Ptr())]) as f:
            raw = b.call("jl.arrayptr", f.args[0])
            b.store(1.0, raw, 0)
    _b, fn, al, _ = _analyze(build)
    raw = next(op.result for op in fn.walk() if op.opcode == "call")
    assert UNKNOWN in al.provenance(raw)


def test_readonly_detection():
    def build(b):
        with b.function("f", [("x", Ptr()), ("y", Ptr())],
                        arg_attrs=[{"noalias": True},
                                   {"noalias": True}]) as f:
            x, y = f.args
            b.store(b.load(x, 0), y, 0)
    _b, fn, al, _ = _analyze(build)
    x, y = fn.args
    assert al.is_readonly(x)
    assert not al.is_readonly(y)


def test_pointer_roundtrip_through_memory():
    def build(b):
        with b.function("f", [("x", Ptr())],
                        arg_attrs=[{"noalias": True}]) as f:
            cell = b.alloc(1, Ptr(F64))
            b.store(f.args[0], cell, 0)
            p = b.load(cell, 0)
            b.store(2.0, p, 0)
    _b, fn, al, _ = _analyze(build)
    loaded = next(op.result for op in fn.walk()
                  if op.opcode == "load" and op.result.type is Ptr(F64))
    prov = al.provenance(loaded)
    assert ("arg", fn.args[0]) in prov
    assert UNKNOWN not in prov


# ---------------------------------------------------------------------------
# activity
# ---------------------------------------------------------------------------

def test_integer_chain_inactive():
    def build(b):
        with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            with b.parallel_for(0, n) as i:
                j = (i * 3 + 1) % n
                v = b.load(x, j)
                b.store(v * 2.0, x, j)
    _b, fn, _al, act = _analyze(build)
    for op in fn.walk():
        if op.opcode in ("imul", "iadd", "imod"):
            assert not act.value_active(op.result)
        if op.opcode == "mul":
            assert act.value_active(op.result)


def test_const_buffer_loads_inactive():
    def build(b):
        with b.function("f", [("x", Ptr()), ("w", Ptr()), ("n", I64)],
                        arg_attrs=[{"noalias": True}, {"noalias": True},
                                   {}]) as f:
            x, w, n = f.args
            with b.parallel_for(0, n) as i:
                wv = b.load(w, i)          # w is Const: inactive
                b.store(b.load(x, i) * wv, x, i)
    _b, fn, _al, act = _analyze(build, dup_names=("x",))
    loads = [op for op in fn.walk() if op.opcode == "load"]
    w_load = next(ld for ld in loads if ld.operands[0].name == "w")
    x_load = next(ld for ld in loads if ld.operands[0].name == "x")
    assert not act.value_active(w_load.result)
    assert act.value_active(x_load.result)


def test_store_propagates_activity_to_alloc():
    def build(b):
        with b.function("f", [("x", Ptr())],
                        arg_attrs=[{"noalias": True}]) as f:
            t = b.alloc(1)
            b.store(b.load(f.args[0], 0), t, 0)
            v = b.load(t, 0)
            b.store(v * v, f.args[0], 0)
    _b, fn, al, act = _analyze(build)
    t_alloc = next(op for op in fn.walk() if op.opcode == "alloc")
    assert act.origin_active(("alloc", t_alloc))


# ---------------------------------------------------------------------------
# thread-locality / access patterns
# ---------------------------------------------------------------------------

def _loop_with_index(mk_idx):
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("idx", Ptr(I64)),
                          ("n", I64)]) as f:
        x, idx, n = f.args
        with b.parallel_for(0, n) as i:
            j = mk_idx(b, i, idx, n)
            v = b.load(x, j)
            b.store(v * 2.0, x, b.add(j, n))
    fn = b.module.functions["f"]
    load = next(op for op in fn.walk() if op.opcode == "load"
                and op.result.type is F64)
    return b, fn, load


def _classify(fn, load):
    region, ivars = parallel_context(load)
    return classify_index(IntervalAnalysis(fn, None), load.operands[1],
                          ivars, region)


def test_classify_affine_disjoint():
    _b, fn, load = _loop_with_index(lambda b, i, idx, n: i * 2 + 1)
    assert _classify(fn, load) == "disjoint"


def test_classify_uniform():
    _b, fn, load = _loop_with_index(lambda b, i, idx, n: n * 0 + 3)
    # n*0+3 folds conceptually to uniform; the analysis sees n-stride 0
    assert _classify(fn, load) == "uniform"


def test_classify_indirect_unknown():
    _b, fn, load = _loop_with_index(lambda b, i, idx, n: b.load(idx, i))
    assert _classify(fn, load) == "unknown"


def test_classify_ineg_is_exact():
    """``-(-i)`` is the ivar itself: affine, stride 1."""
    _b, fn, load = _loop_with_index(lambda b, i, idx, n: b.neg(b.neg(i)))
    assert _classify(fn, load) == "disjoint"


def test_increment_kind_dispatch():
    b, fn, load = _loop_with_index(lambda b, i, idx, n: i * 2)
    facts = IntervalAnalysis(fn, b.module)
    region, ivars = parallel_context(load)
    assert region is not None
    kind = increment_kind(load.operands[0], load.operands[1], ivars, facts,
                          region)
    assert kind == SERIAL
    kind = increment_kind(load.operands[0], load.operands[1], ivars, facts,
                          region, atomic_everywhere=True)
    assert kind == ATOMIC


def test_reduction_catalog():
    cat = ReductionCatalog()
    assert cat.supports("f64", "add")
    assert not cat.supports("f64", "logsumexp")
    cat.register("f64", "logsumexp")
    assert cat.supports("f64", "logsumexp")


def test_serial_outside_parallel():
    b = IRBuilder()
    with b.function("f", [("x", Ptr())]) as f:
        v = b.load(f.args[0], 0)
        b.store(v * v, f.args[0], 0)
    fn = b.module.functions["f"]
    load = next(op for op in fn.walk() if op.opcode == "load")
    region, ivars = parallel_context(load)
    assert region is None
    assert increment_kind(load.operands[0], load.operands[1], ivars,
                          IntervalAnalysis(fn, b.module), region) == SERIAL
