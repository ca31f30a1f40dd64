"""§IV-A for ``simd`` loops: a ``for simd`` of bodies becomes a
``for simd`` of adjoint bodies.  Structural checks on the apps' gradients
plus the lane-level increment rule of :mod:`repro.ad.tls`."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Active, Duplicated, autodiff, print_module
from repro.ad import ADConfig
from repro.ad.mpi_rules import register_mpid_intrinsics
from repro.ad.tls import LANES, SERIAL, classify_index, lane_kind, lane_loop
from repro.apps.lulesh.driver import LuleshApp
from repro.apps.lulesh.kernels import FLAVORS, _Emitter, _pad_and_reduce_min
from repro.apps.minibude import MinibudeApp, make_deck
from repro.interp import ExecConfig, Executor
from repro.ir import (
    F64,
    I64,
    IRBuilder,
    Module,
    Ptr,
    parse_module,
    verify_module,
)
from repro.passes.intervals import IntervalAnalysis


def _loop_counts(fn) -> tuple[int, int]:
    """(simd loops, plain serial loops) anywhere in ``fn``."""
    simd = serial = 0
    for op in fn.walk():
        if op.opcode == "for":
            if op.attrs.get("simd"):
                simd += 1
            elif not op.attrs.get("workshare"):
                serial += 1
    return simd, serial


def _assert_simd_reverses_as_simd(module, primal: str, grad: str) -> None:
    """The cache-all gradient is a forward clone plus a reverse sweep:
    every primal loop appears exactly twice, *in its own kind* — no
    scalar ``for`` stands in for a ``simd`` one."""
    ps, pp = _loop_counts(module.functions[primal])
    gs, gp = _loop_counts(module.functions[grad])
    assert ps > 0
    assert (gs, gp) == (2 * ps, 2 * pp)
    text = print_module(module)
    assert "via='lanes'" in text
    # Printer / parser round trip keeps the lowering tag (the first
    # parse may renumber colliding ivar names; then it is a fixpoint).
    def parse(t):
        fresh = Module()
        register_mpid_intrinsics(fresh)     # the adjoint-MPI runtime
        return parse_module(t, fresh)

    mod2 = parse(text)
    verify_module(mod2)
    text2 = print_module(mod2)
    assert text2 == print_module(parse(text2))
    assert text2.count("via='lanes'") == text.count("via='lanes'")


def test_minibude_serial_gradient_structure():
    app = MinibudeApp("serial", make_deck(nprotein=4, nligand=2, nposes=6))
    _assert_simd_reverses_as_simd(app.module, app.fn, app.grad_fn())


@pytest.mark.parametrize("flavor,pr", [("serial", 1), ("mpi", 2)])
def test_lulesh_simd_flavor_gradient_structure(flavor, pr):
    app = LuleshApp(flavor, nx=2, pr=pr)
    _assert_simd_reverses_as_simd(app.module, app.fn, app.grad_fn())


def _fold_module(nelem=5, pow2=8):
    b = IRBuilder()
    with b.function("fold", [("cand", Ptr())],
                    arg_attrs=[{"extent": pow2}]) as f:
        (cand,) = f.args
        em = _Emitter(b, FLAVORS["openmp"], set())   # the fold is flavor-blind
        _pad_and_reduce_min(b, em, cand, nelem, pow2)
    verify_module(b.module)
    return b.module


def test_pad_and_reduce_min_fold_reverses_as_simd_loops():
    module = _fold_module()
    grad = autodiff(module, "fold", [Duplicated])
    ps, pp = _loop_counts(module.functions["fold"])
    assert (ps, pp) == (4, 0)          # pad + three halving passes
    assert _loop_counts(module.functions[grad]) == (8, 0)
    # k and k+half are lane-disjoint: the fold needs no lane combining.
    assert "via=" not in print_module(module)
    # min picks data[3]; its whole adjoint lands there.
    data = np.array([5.0, 4.0, 9.0, 1.5, 7.0, 0.0, 0.0, 0.0])
    d = np.zeros(8)
    d[0] = 1.0
    Executor(module).run(grad, data, d)
    assert data[0] == 1.5
    np.testing.assert_array_equal(d, [0, 0, 0, 1.0, 0, 0, 0, 0])


def test_active_scalar_accumulates_across_lanes():
    b = IRBuilder()
    with b.function("f", [("a", F64), ("y", Ptr()), ("n", I64)]) as f:
        a, y, n = f.args
        with b.for_(0, n, simd=True) as i:
            b.store(b.mul(a, b.itof(i)), y, i)
    grad = autodiff(b.module, "f", [Active, Duplicated, None])
    text = print_module(b.module)
    assert "atomic_add" in text and "{via='lanes'}" in text
    for backend in ("interp", "compiled"):
        y, dy = np.zeros(5), np.ones(5)
        got = Executor(b.module, ExecConfig(backend=backend)).run(
            grad, 2.0, y, dy, 5)
        assert got == 10.0


def test_atomic_everywhere_does_not_reach_single_thread_simd_loops():
    """The ablation is about thread-parallel regions; a simd loop on one
    thread still gets the (cheaper, equally safe) lane accumulate."""
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("y", Ptr()), ("n", I64)]) as f:
        x, y, n = f.args
        with b.for_(0, n, simd=True) as i:
            b.store(b.mul(b.load(x, 0), 2.0), y, i)
    grad = autodiff(b.module, "f", [Duplicated, Duplicated, None],
                    ADConfig(atomic_everywhere=True, opt_level="none"))
    ops = [o for o in b.module.functions[grad].walk()
           if o.opcode == "atomic"]
    assert [o.attrs.get("via") for o in ops] == ["lanes"]


# ---------------------------------------------------------------------------
# tls: the lane analysis
# ---------------------------------------------------------------------------

def test_lane_loop_is_the_outermost_simd_loop():
    b = IRBuilder()
    probes = {}
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n, name="s"):
            with b.for_(0, n, simd=True, name="i") as i:
                with b.for_(0, n, simd=True, name="j") as j:
                    probes["inner"] = b.load(x, j).op
                probes["outer"] = b.load(x, i).op
        probes["none"] = b.load(x, 0).op
        with b.parallel_for(0, n) as p:
            with b.for_(0, n, simd=True, name="k") as k:
                probes["pfor"] = b.load(x, k).op
    outer = probes["outer"].parent.parent_op
    assert lane_loop(probes["outer"]) is outer
    assert lane_loop(probes["inner"]) is outer       # inner simd is serial
    assert lane_loop(outer) is outer
    assert lane_loop(probes["none"]) is None
    assert lane_loop(probes["pfor"]) is None         # chunks are the lanes


def test_lane_index_classes_and_kinds():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("ix", Ptr(I64)), ("n", I64)]) as f:
        x, ix, n = f.args
        base = b.mul(n, 4)                           # defined outside
        with b.fork(2) as (tid, nth):
            with b.for_(0, n, simd=True, name="i") as i:
                priv = b.alloc(2, name="priv")
                with b.for_(0, 3, name="j") as j:
                    cases = {
                        "disjoint": b.add(b.add(b.mul(i, 3), j), base),
                        "thread": b.add(b.mul(tid, n), i),
                        "uniform": b.add(b.mul(j, 3), base),
                        "cancel": b.sub(b.add(i, j), i),
                        "data": b.load(ix, i),
                        "nonlinear": b.mul(i, n),
                    }
                    anchor = b.load(x, j).op
    lane = lane_loop(anchor)
    ivar = lane.body.args[0]
    assert ivar.name == "i"
    facts = IntervalAnalysis(b.module.functions["f"], b.module)
    got = {k: classify_index(facts, v, [ivar], lane)
           for k, v in cases.items()}
    assert got == {"disjoint": "disjoint", "thread": "disjoint",
                   "uniform": "uniform", "cancel": "uniform",
                   "data": "unknown", "nonlinear": "unknown"}
    assert lane_kind(x, cases["disjoint"], lane, facts) == SERIAL
    assert lane_kind(x, cases["uniform"], lane, facts) == LANES
    assert lane_kind(x, cases["data"], lane, facts) == LANES
    # a buffer allocated inside the loop is privatised per lane
    assert lane_kind(priv, cases["uniform"], lane, facts) == SERIAL
