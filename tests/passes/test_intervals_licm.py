"""Interval facts × LICM/OpenMPOpt: hoisting an invariant load out of
a loop (or a parallel region) must not lose — or invent — bounds
certification, and the public per-region write query LICM reads must
agree with what the region writes."""

from __future__ import annotations

from repro.ir import I64, IRBuilder, Ptr, verify_module
from repro.passes import LICM, OpenMPOpt, analyze_aliasing
from repro.passes.intervals import PROVEN, UNPROVEN, certify_bounds


def _fn(module):
    return next(iter(module.functions.values()))


def _statuses(fn, ia, opcode):
    return [ia.status(op) for op in fn.body.walk() if op.opcode == opcode]


def test_licm_hoisted_load_keeps_proven_status():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("c", Ptr()), ("n", I64)],
                    arg_attrs=[{"extent": 100, "noalias": True},
                               {"extent": 4, "noalias": True}, {}]):
        fn = b.module.functions["f"]
        x, c, n = fn.args
        with b.for_(0, 100) as i:
            k = b.load(c, 2)            # invariant AND proven
            b.store(b.mul(b.load(x, i), k), x, i)
    verify_module(b.module)
    fn = _fn(b.module)

    before = certify_bounds(fn, b.module)
    assert before.counts() == {"proven": 3, "unproven": 0, "oob": 0}

    changed = LICM().run(fn, b.module)
    assert changed
    # The invariant load now sits outside the loop; every access is
    # still classified, and none lost its proof.
    after = certify_bounds(fn, b.module)
    assert after.counts() == {"proven": 3, "unproven": 0, "oob": 0}
    # ... and it really was hoisted to the top level.
    top = [op.opcode for op in fn.body.ops]
    assert "load" in top


def test_licm_does_not_invent_proofs():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("c", Ptr()), ("n", I64)],
                    arg_attrs=[{"extent": 100, "noalias": True},
                               {"extent": 4, "noalias": True}, {}]):
        fn = b.module.functions["f"]
        x, c, n = fn.args
        with b.for_(0, 100) as i:
            k = b.load(c, n)            # invariant but NOT proven
            b.store(b.mul(b.load(x, i), k), x, i)
    verify_module(b.module)
    fn = _fn(b.module)

    assert certify_bounds(fn, b.module).counts()["unproven"] == 1
    LICM().run(fn, b.module)
    after = certify_bounds(fn, b.module)
    assert after.counts()["unproven"] == 1
    assert after.counts()["proven"] == 2


def test_openmp_opt_hoist_keeps_classification():
    def build():
        b = IRBuilder()
        with b.function("f", [("x", Ptr()), ("c", Ptr())],
                        arg_attrs=[{"extent": 64, "noalias": True},
                                   {"extent": 4, "noalias": True}]):
            fn = b.module.functions["f"]
            x, c = fn.args
            with b.fork(8):
                with b.workshare(0, 64) as i:
                    k = b.load(c, 1)    # region-invariant, proven
                    b.store(b.mul(b.load(x, i), k), x, i)
        verify_module(b.module)
        return b.module

    module = build()
    fn = _fn(module)
    before = certify_bounds(fn, module).counts()
    assert before == {"proven": 3, "unproven": 0, "oob": 0}

    OpenMPOpt().run(fn, module)
    after = certify_bounds(fn, module).counts()
    assert after == before


def test_region_written_origins_public_query():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("y", Ptr())],
                    arg_attrs=[{"extent": 8, "noalias": True},
                               {"extent": 8, "noalias": True}]):
        fn = b.module.functions["f"]
        x, y = fn.args
        with b.fork(2):
            with b.workshare(0, 8) as i:
                b.store(b.load(x, i), y, i)
    verify_module(b.module)
    fn = _fn(b.module)
    ai = analyze_aliasing(fn, b.module)

    region = next(op for op in fn.body.walk() if op.opcode == "fork")
    writes, unknown = ai.region_written_origins(region)
    assert not unknown
    # Only y's origin is written.
    assert writes == ai.provenance(fn.args[1])
    # The query is cached per region op.
    assert ai.region_written_origins(region) == (writes, unknown)


def test_region_written_origins_unknown_on_opaque_call():
    b = IRBuilder()
    with b.function("f", [("x", Ptr())],
                    arg_attrs=[{"extent": 8, "noalias": True}]):
        fn = b.module.functions["f"]
        x = fn.args[0]
        with b.fork(2):
            b.call("mpi.wait", b.call("mpi.irecv", x, 0, 0, 4))
    verify_module(b.module)
    fn = _fn(b.module)
    ai = analyze_aliasing(fn, b.module)
    region = next(op for op in fn.body.walk() if op.opcode == "fork")
    _writes, unknown = ai.region_written_origins(region)
    assert unknown
