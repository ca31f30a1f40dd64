"""Static shadow-race lint: per-access rules, pairwise rules, severities."""

from __future__ import annotations

import json
from collections import Counter
from unittest import mock

import pytest

from repro.apps.lulesh.driver import LuleshApp
from repro.ir import F64, I64, IRBuilder, Ptr
from repro.passes import intervals
from repro.passes.pass_manager import sanitize_pipeline
from repro.sanitize import LintError, lint_function, lint_module

NA = {"noalias": True}


def _lint(b, name):
    return lint_function(b.module.functions[name], b.module)


def _codes(res):
    return [(d.severity, d.code) for d in res.diagnostics]


# ---------------------------------------------------------------------------
# Per-access classification
# ---------------------------------------------------------------------------

def test_uniform_store_in_parallel_is_error():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)], arg_attrs=[NA, {}]) as f:
        x, n = f.args
        with b.parallel_for(0, n) as i:
            b.store(1.0, x, 0)
    res = _lint(b, "f")
    assert _codes(res) == [("error", "shared-store")]
    assert not res.clean
    # Provenance names the op and the enclosing region.
    assert "store 1.0, %x[0]" in res.render()
    assert "parallel_for" in res.render()


def test_disjoint_store_clean():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)], arg_attrs=[NA, {}]) as f:
        x, n = f.args
        with b.parallel_for(0, n) as i:
            v = b.load(x, i)
            b.store(v * 2.0, x, i)
    assert _lint(b, "f").clean


def test_unknown_index_store_is_warn():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("idx", Ptr(I64)), ("n", I64)],
                    arg_attrs=[NA, NA, {}]) as f:
        x, idx, n = f.args
        with b.parallel_for(0, n) as i:
            j = b.load(idx, i)
            b.store(1.0, x, j)
    res = _lint(b, "f")
    assert ("warn", "unproven-store") in _codes(res)
    assert res.errors == []


def _slot_store(serial_outside: bool):
    """``x[t*8 + i] = 1`` — a cache-slot address — with the serial ``t``
    loop enclosing the ``parallel_for`` or inside it."""
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)], arg_attrs=[NA, {}]) as f:
        x, n = f.args
        if serial_outside:
            with b.for_(0, 3) as t:
                with b.parallel_for(0, n) as i:
                    b.store(1.0, x, b.add(b.mul(t, 8), i))
        else:
            with b.parallel_for(0, n) as i:
                with b.for_(0, 3) as t:
                    b.store(1.0, x, b.add(b.mul(t, 8), i))
    return _lint(b, "f")


def test_enclosing_serial_loop_is_uniform_across_instances():
    # One t per parallel_for execution: the instances hit distinct cells.
    assert _slot_store(serial_outside=True).clean
    # Instance i at step t=1 and instance i+8 at t=0 share a cell.
    res = _slot_store(serial_outside=False)
    assert _codes(res) == [("warn", "unproven-store")]


def test_atomic_uniform_clean():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)], arg_attrs=[NA, {}]) as f:
        x, n = f.args
        with b.parallel_for(0, n) as i:
            b.atomic_add(1.0, x, 0)
    assert _lint(b, "f").clean


def test_thread_local_alloc_clean():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)], arg_attrs=[NA, {}]) as f:
        x, n = f.args
        with b.parallel_for(0, n) as i:
            tmp = b.alloc(4)
            b.store(1.0, tmp, 0)       # private to the iteration
            v = b.load(tmp, 0)
            b.store(v, x, i)
    assert _lint(b, "f").clean


def test_serial_code_is_never_flagged():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)], arg_attrs=[NA, {}]) as f:
        x, n = f.args
        b.store(1.0, x, 0)
        b.store(2.0, x, 0)
    assert _lint(b, "f").clean


# ---------------------------------------------------------------------------
# Pairwise rules (fork regions, guards, barrier phases)
# ---------------------------------------------------------------------------

def test_guarded_uniform_store_needs_no_self_diagnostic():
    b = IRBuilder()
    with b.function("f", [("y", Ptr()), ("n", I64)], arg_attrs=[NA, {}]) as f:
        y, n = f.args
        with b.fork(0) as (tid, nth):
            with b.if_(b.cmp("eq", tid, 0)):
                b.store(1.0, y, 0)
    assert _lint(b, "f").clean


def test_guarded_conflict_same_cell_is_error():
    b = IRBuilder()
    with b.function("f", [("y", Ptr()), ("n", I64)], arg_attrs=[NA, {}]) as f:
        y, n = f.args
        with b.fork(0) as (tid, nth):
            with b.if_(b.cmp("eq", tid, 0)):
                b.store(1.0, y, 0)
            with b.if_(b.cmp("eq", tid, 1)):
                b.store(2.0, y, 0)
    res = _lint(b, "f")
    assert ("error", "guarded-conflict") in _codes(res)
    # The diagnostic names both operations.
    msg = res.render()
    assert "store 1.0" in msg and "store 2.0" in msg


def test_guarded_different_cells_clean():
    b = IRBuilder()
    with b.function("f", [("y", Ptr()), ("n", I64)], arg_attrs=[NA, {}]) as f:
        y, n = f.args
        with b.fork(0) as (tid, nth):
            with b.if_(b.cmp("eq", tid, 0)):
                b.store(1.0, y, 0)
            with b.if_(b.cmp("eq", tid, 1)):
                b.store(2.0, y, 1)
    assert _lint(b, "f").clean


def test_barrier_phases_separate_conflicting_accesses():
    b = IRBuilder()
    with b.function("f", [("y", Ptr()), ("n", I64)], arg_attrs=[NA, {}]) as f:
        y, n = f.args
        with b.fork(0) as (tid, nth):
            with b.if_(b.cmp("eq", tid, 0)):
                b.store(1.0, y, 0)
            b.barrier()
            v = b.load(y, 0)
            b.barrier()
            b.store(v, y, tid)
    assert _lint(b, "f").clean


def test_unordered_store_load_pair_is_flagged():
    b = IRBuilder()
    with b.function("f", [("y", Ptr()), ("n", I64)], arg_attrs=[NA, {}]) as f:
        y, n = f.args
        with b.fork(0) as (tid, nth):
            with b.if_(b.cmp("eq", tid, 0)):
                b.store(1.0, y, 0)
            v = b.load(y, 0)          # same phase as the guarded store
            b.store(v, y, tid)
    res = _lint(b, "f")
    assert not res.clean
    assert any(c == "concurrent-overlap" for _, c in _codes(res))


def test_noalias_suppresses_cross_argument_pairs():
    def build(attrs):
        b = IRBuilder()
        with b.function("f", [("a", Ptr()), ("c", Ptr()), ("n", I64)],
                        arg_attrs=attrs) as f:
            a, c, n = f.args
            with b.fork(0) as (tid, nth):
                v = b.load(c, 0)
                b.store(v, a, tid)
        return b
    # Possibly-aliasing args: the load of c may overlap the stores to a.
    assert not _lint(build([{}, {}, {}]), "f").clean
    # noalias proves the pairs apart.
    assert _lint(build([NA, NA, {}]), "f").clean


# ---------------------------------------------------------------------------
# MPI in-flight windows
# ---------------------------------------------------------------------------

def test_inflight_irecv_window_flagged():
    b = IRBuilder()
    with b.function("f", [("buf", Ptr()), ("n", I64)],
                    arg_attrs=[NA, {}]) as f:
        buf, n = f.args
        req = b.call("mpi.irecv", buf, n, 0, 3)
        v = b.load(buf, 0)
        b.call("mpi.wait", req)
        b.store(v, buf, 1)
    res = _lint(b, "f")
    assert ("warn", "inflight-recv") in _codes(res)


def test_access_after_wait_clean():
    b = IRBuilder()
    with b.function("f", [("buf", Ptr()), ("n", I64)],
                    arg_attrs=[NA, {}]) as f:
        buf, n = f.args
        req = b.call("mpi.irecv", buf, n, 0, 3)
        b.call("mpi.wait", req)
        v = b.load(buf, 0)
        b.store(v, buf, 1)
    assert _lint(b, "f").clean


# ---------------------------------------------------------------------------
# Reporting plumbing
# ---------------------------------------------------------------------------

def test_json_output_shape():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)], arg_attrs=[NA, {}]) as f:
        x, n = f.args
        with b.parallel_for(0, n) as i:
            b.store(1.0, x, 0)
    payload = _lint(b, "f").to_json()
    json.dumps(payload)
    assert payload["tool"] == "lint" and payload["fn"] == "f"
    assert payload["counts"] == {"error": 1, "warn": 0}
    d = payload["diagnostics"][0]
    assert d["severity"] == "error" and d["code"] == "shared-store"
    assert "store" in d["op"]


def test_lint_module_and_pipeline_registration():
    b = IRBuilder()
    with b.function("bad", [("x", Ptr()), ("n", I64)],
                    arg_attrs=[NA, {}]) as f:
        x, n = f.args
        with b.parallel_for(0, n) as i:
            b.store(1.0, x, 0)
    with b.function("good", [("x", Ptr()), ("n", I64)],
                    arg_attrs=[NA, {}]) as f:
        x, n = f.args
        with b.parallel_for(0, n) as i:
            b.store(1.0, x, i)
    results = lint_module(b.module)
    assert not results["bad"].clean and results["good"].clean

    pm = sanitize_pipeline()
    assert pm.run(b.module) is False        # analysis-only: IR unchanged
    assert not pm.passes[0].results["bad"].clean

    with pytest.raises(LintError) as exc:
        sanitize_pipeline(on_error="raise").run(b.module)
    assert exc.value.result.fn == "bad"

    with pytest.raises(ValueError):
        sanitize_pipeline(on_error="explode")


# ---------------------------------------------------------------------------
# The lane variance the lint reads: a pure call with uniform operands
# ---------------------------------------------------------------------------

def _findings(fn, module):
    return Counter((d.severity, d.code, d.op, d.related_op)
                   for d in lint_function(fn, module).diagnostics)


@pytest.mark.parametrize("flavor", ["openmp", "raja", "hybrid"])
def test_pure_call_variance_only_shrinks_the_findings(flavor):
    """``rt.num_threads()`` inside a reverse ``simd`` body is uniform now;
    the lint reads the same variance, so on the closure-record gradients
    its findings can only go (EXPERIMENTS.md has the per-code counts:
    none moved)."""
    app = LuleshApp(flavor, 2, pr=2 if flavor == "hybrid" else 1)
    fn = app.module.functions[app.grad_fn()]
    new = _findings(fn, app.module)
    with mock.patch.object(intervals, "_PURE_INTRINSICS", frozenset()):
        old = _findings(fn, app.module)
    assert not new - old
    assert not any(sev == "error" for sev, *_ in new)
