"""The stored-value fact (``AliasInfo.stored_value``) and what bounds
certification reads through it.

A captured pointer reaches a fork body the way Clang's outlined closures
get it: stored into a record before the fork, reloaded inside.  The load
stands for the stored pointer only while nothing else can write the
record's slot; every case below where something could must leave the
access through the reloaded pointer unproven, so that its run-time check
stays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.interp import ExecConfig, Executor, lower_function
from repro.interp.memory import InterpreterError
from repro.ir import F64, I64, IRBuilder, Ptr, verify_module
from repro.ir.function import IntrinsicInfo
from repro.passes import certify_bounds
from repro.passes.aliasing import analyze_aliasing

NA = {"noalias": True}
_TOUCH = IntrinsicInfo("ext.touch", [Ptr(Ptr(F64))], effects="any")

#: Spoils of the record, each of which must stop the fact.
SPOILS = ["twice", "call", "memcpy", "memset", "atomic", "varying",
          "after"]


def _fork_module(spoil=None):
    """``f(a, b, out, n)``: ``a`` and ``out`` go through a two-slot
    closure record into a fork whose worksharing loop copies ``a[i]``
    into ``out[i]`` for ``i < 8``; ``spoil`` adds one write to slot 0
    or one escape of the record."""
    b = IRBuilder()
    b.module.register_intrinsic(_TOUCH)
    attrs = [{"extent": 8, **NA}, {"extent": 4, **NA}, {"extent": 8, **NA},
             {}]
    with b.function("f", [("a", Ptr()), ("b", Ptr()), ("out", Ptr()),
                          ("n", I64)], arg_attrs=attrs) as f:
        a, short, out, n = f.args
        rec = b.alloc(2, Ptr(), name="omp_ctx_ptr")
        b.store(a, rec, 0)
        b.store(out, rec, 1)
        if spoil == "twice":                # a second pointer, same slot
            b.store(short, rec, 0)
        elif spoil == "call":
            b.call("ext.touch", rec)
        elif spoil == "memcpy":
            other = b.alloc(2, Ptr())
            b.store(short, other, 0)
            b.store(out, other, 1)
            b.memcpy(rec, other, 2)
        elif spoil == "memset":
            b.memset(rec, short, 1)
        elif spoil == "atomic":
            b.atomic_add(0.0, rec, 0)
        elif spoil == "varying":            # may land on slot 0
            b.store(short, rec, b.sub(n, 8))
        with b.fork(0):
            p = b.load(rec, 0)
            o = b.load(rec, 1)
            with b.workshare(0, 8) as i:
                b.store(b.load(p, i), o, i)
            if spoil == "after":            # after the load, nested
                with b.if_(b.cmp("gt", n, 8)):
                    b.store(short, rec, 0)
    return b.module


def _copy_site(module):
    """The ``load p[i]`` through the reloaded pointer."""
    fn = module.functions["f"]
    (site,) = [op for op in fn.walk() if op.opcode == "load"
               and op.result.type is F64]
    return fn, site


def test_reloaded_pointer_stands_for_the_stored_one():
    module = _fork_module()
    verify_module(module)
    fn, site = _copy_site(module)
    facts = certify_bounds(fn, module)
    assert facts.proven(site)
    assert facts.aliasing.stored_value(site.operands[0].op) is fn.args[0]
    assert facts.counts() == {"proven": 6, "unproven": 0, "oob": 0}
    src = lower_function(fn, bounds=facts)[0]
    assert "_ldsu(rt, " in src and "_stsu(rt, " in src
    a = np.arange(8.0)
    for backend in ("interp", "compiled"):
        out = np.zeros(8)
        Executor(module, ExecConfig(backend=backend, num_threads=2)).run(
            "f", a, np.zeros(4), out, 8)
        np.testing.assert_array_equal(out, a)


@pytest.mark.parametrize("spoil", SPOILS)
def test_a_record_anything_else_may_write_gives_no_fact(spoil):
    module = _fork_module(spoil)
    fn, site = _copy_site(module)
    facts = certify_bounds(fn, module)
    assert facts.aliasing.stored_value(site.operands[0].op) is None
    assert facts.status(site) == "unproven"
    assert facts.access[site].reason == \
        "pointer has multiple or unknown origins"


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_slot_stored_twice_keeps_the_bounds_error(backend):
    """The slot ends up holding the 4-element buffer: reading 8 elements
    through it raises the interpreter's typed bounds error on both
    tiers, never a silently truncated or wrapped NumPy index."""
    module = _fork_module("twice")
    verify_module(module)
    fn, _ = _copy_site(module)
    src = lower_function(fn, bounds=certify_bounds(fn, module))[0]
    assert "_lds(rt, " in src and "_ldsu(rt, " not in src
    out = np.zeros(8)
    ex = Executor(module, ExecConfig(backend=backend, num_threads=2))
    with pytest.raises(InterpreterError, match="out of bounds"):
        ex.run("f", np.arange(8.0), np.arange(4.0), out, 8)
    # the first thread's chunk lies inside the short buffer
    np.testing.assert_array_equal(out, [0, 1, 2, 3, 0, 0, 0, 0])


def test_chains_resolve_to_the_argument():
    """record of records → record → argument, and a ``ptradd`` on the
    way keeps its offset."""
    b = IRBuilder()
    with b.function("f", [("a", Ptr()), ("out", Ptr())],
                    arg_attrs=[{"extent": 10, **NA}, {"extent": 8, **NA}]) \
            as f:
        a, out = f.args
        rec = b.alloc(1, Ptr())
        b.store(b.ptradd(a, 2), rec, 0)
        outer = b.alloc(1, Ptr(Ptr()))
        b.store(rec, outer, 0)
        with b.fork(0):
            p = b.load(b.load(outer, 0), 0)
            with b.workshare(0, 8) as i:
                b.store(b.load(p, i), out, i)
                b.store(b.load(p, b.add(i, 1)), out, i)
    verify_module(b.module)
    fn = b.module.functions["f"]
    facts = certify_bounds(fn, b.module)
    loads = [op for op in fn.walk()
             if op.opcode == "load" and op.result.type is F64]
    assert [facts.status(op) for op in loads] == ["proven", "unproven"]
    assert facts.access[loads[1]].reason == \
        "index may reach extent (slack 0)"


def test_a_value_with_one_instance_per_iteration_is_not_resolved():
    """``cell`` is a new buffer of ``s+1`` elements in every iteration;
    the pointer array's slot 0 holds the first one, so an extent read off
    ``cell``'s definition would be another iteration's."""
    b = IRBuilder()
    with b.function("f", [("n", I64)]) as f:
        (n,) = f.args
        arr = b.alloc(n, Ptr())
        with b.for_(0, n) as s:
            cell = b.alloc(b.add(s, 1))
            b.store(cell, arr, s)
            first = b.load(arr, 0)
            b.store(1.0, first, s)          # out of bounds for s > 0
    verify_module(b.module)
    fn = b.module.functions["f"]
    (site,) = [op for op in fn.walk() if op.opcode == "store"
               and op.operands[0].type is F64]
    info = analyze_aliasing(fn, b.module)
    assert info.stored_value(site.operands[1].op) is cell
    facts = certify_bounds(fn, b.module, info)
    assert facts.status(site) == "unproven"
    assert facts.access[site].reason == "pointer offset is not affine"
    with pytest.raises(InterpreterError, match="out of bounds"):
        Executor(b.module, ExecConfig(backend="compiled")).run("f", 3)


def _per_thread_module():
    """The reverse sweep's per-thread layout: ``iteration·nthreads +
    tid`` in an array of ``max(steps, 0)·nthreads`` elements, written
    from a ``fork(0)`` (proven) and from sites one step off (not)."""
    b = IRBuilder()
    with b.function("f", [("steps", I64), ("k", I64)]) as f:
        steps, k = f.args
        nt = b.call("rt.num_threads")
        arr = b.alloc(b.mul(b.max(steps, 0), nt))
        other = b.alloc(b.mul(b.max(steps, 0), k))
        with b.for_(0, steps) as s:
            with b.fork(0) as (tid, _nth):
                nt2 = b.call("rt.num_threads")
                row = b.mul(s, nt2)
                b.store(1.0, arr, b.add(row, tid))              # proven
                b.store(2.0, arr, b.add(b.add(row, tid), 1))    # r = m
                row1 = b.mul(b.add(s, 1), nt2)
                b.store(3.0, arr, b.add(row1, tid))             # a = e
                b.store(5.0, other, b.add(row, tid))            # m' != m
            with b.fork(3) as (tid, _nth):                      # nth != m
                nt2 = b.call("rt.num_threads")
                b.store(4.0, arr, b.add(b.mul(s, nt2), tid))
    verify_module(b.module)
    return b.module


def test_row_major_index_against_a_product_extent():
    module = _per_thread_module()
    fn = module.functions["f"]
    facts = certify_bounds(fn, module)
    stores = [op for op in fn.walk() if op.opcode == "store"]
    assert [facts.status(op) for op in stores] == [
        "proven", "unproven", "unproven", "unproven", "unproven"]
    ex = Executor(module, ExecConfig(backend="compiled", num_threads=2))
    with pytest.raises(InterpreterError, match="out of bounds"):
        ex.run("f", 3, 1)


def _cell_module(kind):
    """A loop keeps each step's cell in a pointer array and writes
    through the one step 0 stored (``arr[0]``): ``kind`` "constant" is a
    2-element cell, "runtime" one of ``s+1`` elements, "varying" a
    2-element cell stored at offset ``s``.  The last two put the site
    out of bounds from step 1 (step 2) on, where a resolution read off
    the current step's definition would certify it."""
    b = IRBuilder()
    with b.function("f", [("n", I64)]) as f:
        (n,) = f.args
        arr = b.alloc(n, Ptr())
        with b.for_(0, n) as s:
            cell = b.alloc(b.add(s, 1) if kind == "runtime" else 2)
            b.store(b.ptradd(cell, s) if kind == "varying" else cell,
                    arr, s)
            first = b.load(arr, 0)
            at = {"constant": 1, "runtime": s, "varying": b.sub(1, s)}
            b.store(1.0, first, at[kind])
    verify_module(b.module)
    fn = b.module.functions["f"]
    (site,) = [op for op in fn.walk() if op.opcode == "store"
               and op.operands[0].type is F64]
    return b.module, fn, site


def test_a_constant_count_cell_of_each_iteration_is_resolved():
    """Every instance of ``alloc 2`` has two elements, so the reload's
    extent and offset are known whichever step stored it (the per-step
    ``dt`` cell of the LULESH gradients)."""
    module, fn, site = _cell_module("constant")
    facts = certify_bounds(fn, module)
    assert facts.proven(site)
    for backend in ("interp", "compiled"):
        Executor(module, ExecConfig(backend=backend)).run("f", 4)


@pytest.mark.parametrize("kind", ["runtime", "varying"])
@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_a_cell_whose_extent_or_offset_varies_is_not_resolved(kind,
                                                              backend):
    module, fn, site = _cell_module(kind)
    facts = certify_bounds(fn, module)
    assert facts.status(site) == "unproven"
    assert facts.access[site].reason == "pointer offset is not affine"
    with pytest.raises(InterpreterError, match="out of bounds"):
        Executor(module, ExecConfig(backend=backend)).run("f", 3)


def _cache_slot_module(op):
    """A cache of ``c`` slots per step, ``c·imax(steps, 0)`` elements,
    written at ``iteration·c + k`` (the reverse sweep's constant-stride
    slots), and the same through an ``imin`` bound on the trip count."""
    b = IRBuilder()
    with b.function("f", [("steps", I64), ("m", I64)]) as f:
        steps, m = f.args
        if op == "imax":
            arr, trips = b.alloc(b.mul(b.max(steps, 0), 3)), steps
        else:
            arr, trips = b.alloc(b.mul(b.max(m, 0), 3)), b.min(steps, m)
        with b.for_(0, trips) as s:
            for k in range(3):
                b.store(1.0, arr, b.add(b.mul(s, 3), k))
            b.store(2.0, arr, b.add(b.mul(s, 3), 3))
    verify_module(b.module)
    return b.module


@pytest.mark.parametrize("op", ["imax", "imin"])
def test_imax_and_imin_bound_constant_stride_slots(op):
    """``imax(a, b) ≥ a`` certifies the slots against the extent,
    ``imin(a, b) ≤ b`` the trip count against it; one slot past the
    stride stays unproven and raises on both tiers."""
    module = _cache_slot_module(op)
    fn = module.functions["f"]
    facts = certify_bounds(fn, module)
    stores = [op for op in fn.walk() if op.opcode == "store"]
    assert [facts.status(op) for op in stores] == ["proven"] * 3 + [
        "unproven"]
    for backend in ("interp", "compiled"):
        with pytest.raises(InterpreterError, match="out of bounds"):
            Executor(module, ExecConfig(backend=backend)).run("f", 2, 2)
