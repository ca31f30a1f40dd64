"""The lane-level downgrade (``via='lanes'`` ↔ plain load-add-store) is
guarded statically and dynamically: seeded mutations of real gradients,
one per rule, must each be caught — and the unmutated gradients by
neither layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Duplicated, autodiff
from repro.ad import ADConfig
from repro.apps.minibude import MinibudeApp, make_deck
from repro.apps.minibude.kernels import ARG_NAMES
from repro.interp import ExecConfig, Executor
from repro.ir import I64, IRBuilder, Ptr, verify_module
from repro.ir.ops import ComputeOp, LoadOp, StoreOp
from repro.ir.verifier import VerificationError
from repro.sanitize import RaceReport, lint_function

NA = {"noalias": True}


def _lanes_rmws(fn, buffer_name=None):
    return [op for op in fn.walk()
            if op.opcode == "atomic" and op.attrs.get("via") == "lanes"
            and (buffer_name is None
                 or getattr(op.operands[1], "name", None) == buffer_name)]


def _to_load_add_store(rmw) -> None:
    """Flip one lane-combining accumulate back to the plain
    load-add-store the thread-level analysis alone would emit."""
    val, ptr, idx = rmw.operands
    blk = rmw.parent
    at = blk.ops.index(rmw)
    blk.remove(rmw)
    ld = LoadOp(ptr, idx)
    add = ComputeOp("add", [ld.result, val])
    for k, op in enumerate((ld, add, StoreOp(add.result, ptr, idx))):
        blk.insert(at + k, op)


def _codes(res, severity=None):
    return {d.code for d in res.diagnostics
            if severity is None or d.severity == severity}


# ---------------------------------------------------------------------------
# miniBUDE: lane-uniform index (every pose reads the same ligand atom)
# ---------------------------------------------------------------------------

def _bude():
    app = MinibudeApp("serial", make_deck(nprotein=4, nligand=2, nposes=6))
    return app, app.grad_fn()


def _run_bude(app, fn_name, **cfg):
    flat = app.deck.flat_args()
    shadows = {n: np.zeros_like(flat[n]) for n in ARG_NAMES}
    shadows["energies"][...] = 1.0
    args = [a for n in ARG_NAMES for a in (flat[n], shadows[n])]
    ex = Executor(app.module, ExecConfig(**cfg))
    ex.run(fn_name, *args)
    return shadows, ex


def test_unmutated_minibude_gradient_is_clean_on_both_layers():
    app, grad = _bude()
    fn = app.module.functions[grad]
    assert _lanes_rmws(fn, "d_ligand_xyz")
    assert lint_function(fn, app.module).clean
    _, ex = _run_bude(app, grad, sanitize=True)
    assert ex.races == []


def test_mutation_lanes_to_plain_store_caught_statically():
    app, grad = _bude()
    mut = app.module.clone_function(grad, "mut_plain")
    _to_load_add_store(_lanes_rmws(mut, "d_ligand_xyz")[0])
    verify_module(app.module)       # still well-formed IR
    res = lint_function(mut, app.module)
    assert "simd-lane-conflict" in _codes(res, "error")
    bad = [d for d in res.errors if d.code == "simd-lane-conflict"]
    assert all("d_ligand_xyz" in d.render() for d in bad)


def test_mutation_lanes_to_plain_store_caught_dynamically():
    app, grad = _bude()
    mut = app.module.clone_function(grad, "mut_plain_dyn")
    _to_load_add_store(_lanes_rmws(mut, "d_ligand_xyz")[0])
    with pytest.raises(RaceReport) as exc:
        _run_bude(app, "mut_plain_dyn", sanitize=True)
    r = exc.value
    assert r.kind == "write-write" and r.buffer_name == "d_ligand_xyz"
    assert r.op is r.prev_op and r.op.opcode == "store"


# ---------------------------------------------------------------------------
# Colliding gather: unknown index, duplicate lanes
# ---------------------------------------------------------------------------

def _gather_gradient():
    b = IRBuilder()
    with b.function("g", [("z", Ptr()), ("idx", Ptr(I64)), ("out", Ptr()),
                          ("n", I64)], arg_attrs=[NA, NA, NA, {}]) as f:
        z, idx, out, n = f.args
        with b.for_(0, n, simd=True) as i:
            v = b.load(z, b.load(idx, i))
            b.store(b.mul(v, v), out, i)
    verify_module(b.module)
    return b.module, autodiff(b.module, "g",
                              [Duplicated, None, Duplicated, None])


def _run_gather(module, fn_name, **cfg):
    z, dz = np.array([1.0, 2.0, 3.0]), np.zeros(3)
    idx = np.array([0, 2, 2, 1, 2], dtype=np.int64)     # three lanes hit 2
    out, dout = np.zeros(5), np.ones(5)
    ex = Executor(module, ExecConfig(**cfg))
    ex.run(fn_name, z, dz, idx, out, dout, 5)
    return dz, ex


def test_gather_gradient_combines_colliding_lanes():
    module, grad = _gather_gradient()
    assert len(_lanes_rmws(module.functions[grad], "d_z")) == 1
    assert lint_function(module.functions[grad], module).clean
    dz, ex = _run_gather(module, grad, sanitize=True)
    assert ex.races == []
    np.testing.assert_array_equal(dz, [2.0, 4.0, 18.0])


def test_mutation_colliding_gather_caught_by_duplicate_index_check():
    module, grad = _gather_gradient()
    mut = module.clone_function(grad, "mut_gather")
    _to_load_add_store(_lanes_rmws(mut, "d_z")[0])
    # Statically the proof merely fails (the index is data).
    assert "simd-lane-unproven" in _codes(lint_function(mut, module), "warn")
    # Unsanitized, NumPy's last-wins scatter silently drops two of the
    # three colliding contributions ...
    dz, _ = _run_gather(module, "mut_gather")
    assert dz[2] == 6.0
    # ... which is exactly what the dynamic lane check reports.
    with pytest.raises(RaceReport) as exc:
        _run_gather(module, "mut_gather", sanitize=True)
    assert exc.value.buffer_name == "d_z" and exc.value.index == 2


def test_uniform_value_to_colliding_lanes_is_not_a_conflict():
    """The reverse of a store zeroes the shadow at the store's index: a
    constant sent to duplicate lanes is benign and must stay silent."""
    b = IRBuilder()
    with b.function("f", [("y", Ptr()), ("idx", Ptr(I64)), ("n", I64)],
                    arg_attrs=[NA, NA, {}]) as f:
        y, idx, n = f.args
        with b.for_(0, n, simd=True) as i:
            b.store(0.0, y, b.load(idx, i))
    ex = Executor(b.module, ExecConfig(sanitize=True))
    ex.run("f", np.ones(3), np.array([1, 1, 1, 0], dtype=np.int64), 4)
    assert ex.races == []


def test_store_pinned_to_one_lane_is_not_a_conflict():
    """``if i == 2: y[0] = 2*x[i]`` sends a lane-varying value to one
    cell, but from a single live lane: clean on both layers."""
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("y", Ptr()), ("n", I64)],
                    arg_attrs=[NA, NA, {}]) as f:
        x, y, n = f.args
        with b.for_(0, n, simd=True) as i:
            with b.if_(b.cmp("eq", i, 2)):
                b.store(b.mul(b.load(x, i), 2.0), y, 0)
    assert lint_function(b.module.functions["f"], b.module).clean
    y = np.zeros(1)
    ex = Executor(b.module, ExecConfig(sanitize=True))
    ex.run("f", np.arange(5.0), y, 5)
    assert ex.races == [] and y[0] == 4.0


# ---------------------------------------------------------------------------
# via='lanes' is not a cross-thread mechanism
# ---------------------------------------------------------------------------

def _fork_simd_gradient():
    """Each thread's simd loop reads the shared cell x[0]."""
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("y", Ptr()), ("n", I64)],
                    arg_attrs=[NA, NA, {}]) as f:
        x, y, n = f.args
        with b.fork(2) as (tid, nth):
            with b.for_(0, n, simd=True) as i:
                v = b.load(x, 0)
                b.store(b.mul(v, 3.0), y, b.add(b.mul(tid, n), i))
    verify_module(b.module)
    return b.module, autodiff(b.module, "k", [Duplicated, Duplicated, None],
                              ADConfig(sanitize=True))


def _run_fork(module, fn_name, **cfg):
    n = 3
    x, dx = np.ones(1), np.zeros(1)
    y, dy = np.zeros(2 * n), np.ones(2 * n)
    ex = Executor(module, ExecConfig(num_threads=2, **cfg))
    ex.run(fn_name, x, dx, y, dy, n)
    return dx, ex


def test_thread_level_verdict_is_kept_inside_fork():
    module, grad = _fork_simd_gradient()
    fn = module.functions[grad]
    # LICM hoists the shared read out of the simd loop, so its adjoint
    # is a per-thread slot: lanes combine into slot[tid] (thread-private,
    # lane-shared), threads combine into d_x[0] by reduction.
    rmw = [op for op in fn.walk() if op.opcode == "atomic"]
    assert [op.attrs.get("via") for op in rmw] == ["lanes", "reduction"]
    dx, ex = _run_fork(module, grad, sanitize=True)
    assert ex.races == [] and dx[0] == pytest.approx(18.0)


def test_mutation_lanes_on_thread_shared_cell_caught_on_both_layers():
    module, grad = _fork_simd_gradient()
    mut = module.clone_function(grad, "mut_lanes")
    (rmw,) = [op for op in mut.walk() if op.opcode == "atomic"
              and op.attrs.get("via") == "reduction"]
    rmw.attrs["via"] = "lanes"
    verify_module(module)
    res = lint_function(mut, module)
    assert "lanes-thread-shared" in _codes(res, "error")
    with pytest.raises(RaceReport) as exc:
        _run_fork(module, "mut_lanes", sanitize=True)
    assert exc.value.buffer_name == "d_x" and exc.value.index == 0


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------

def _one_atomic(kind="add"):
    b = IRBuilder()
    with b.function("f", [("x", Ptr())]) as f:
        (x,) = f.args
        getattr(b, f"atomic_{kind}")(1.0, x, 0)
    (op,) = [o for o in b.module.functions["f"].walk()
             if o.opcode == "atomic"]
    return b.module, op


def test_verifier_accepts_known_via_tags():
    for via in ("reduction", "lanes"):
        module, op = _one_atomic()
        op.attrs["via"] = via
        verify_module(module)


def test_verifier_rejects_unknown_via_and_non_add():
    module, op = _one_atomic()
    op.attrs["via"] = "simd"
    with pytest.raises(VerificationError, match="unknown atomic lowering"):
        verify_module(module)
    module, op = _one_atomic("min")
    op.attrs["via"] = "lanes"
    with pytest.raises(VerificationError, match="only to atomic_add"):
        verify_module(module)
