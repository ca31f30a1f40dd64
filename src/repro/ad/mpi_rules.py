"""MPI adjoint handlers (paper §IV-B, §V-C, Fig. 5).

Forward (augmented) pass:

* ``MPI_Isend``/``MPI_Irecv`` are cloned, and a *shadow request record*
  is created holding the task kind, the shadow buffer, count, peer and
  tag — the exact ``d_req = (ISend, d_data, ...)`` of Fig. 5.  The
  record propagates through request arrays via shadow-memory twins of
  the stores/loads, and is preserved to the reverse pass at each
  ``MPI_Wait`` through the standard caching machinery.

Reverse pass (processed in reversed order, so waits come first):

* reverse of ``Wait``: inspect the shadow request; an ``Isend`` record
  posts the adjoint ``Irecv`` (into a temporary accumulation buffer),
  an ``Irecv`` record posts the adjoint ``Isend`` of the shadow buffer.
* reverse of ``Isend``: wait for the adjoint receive, accumulate the
  temporary into the send buffer's shadow, free the temporary.
* reverse of ``Irecv``: wait for the adjoint send, then zero the
  receive buffer's shadow (the receive overwrote the primal buffer).
* blocking ``Send``/``Recv`` reverse into ``Recv``+accumulate /
  ``Send``+zero.
* collectives: allreduce(sum) reverses into an allreduce(sum) of the
  result shadows; allreduce(min/max) records the winning ranks
  (computed with a MINLOC collective in the forward pass) and routes
  the summed adjoint to the winners only; ``bcast`` reverses into a
  reduction onto the root; ``reduce(sum)`` reverses into a broadcast.

The ``mpid.*`` runtime helpers registered here are the analogue of an
adjoint-MPI support library — except generated and invoked by the
compiler transparently, which is the paper's point (§II).
"""

from __future__ import annotations

import numpy as np

from ..interp.events import MPIEvent
from ..interp.interpreter import (
    _GEN_INTRINSICS,
    _SIMPLE_INTRINSICS,
)
from ..interp.memory import InterpreterError, PtrVal
from ..ir.function import IntrinsicInfo, Module
from ..ir.ops import CallOp, LoadOp
from ..ir.types import F64, I64, Ptr, Request, Void
from ..ir.values import Constant


# ---------------------------------------------------------------------------
# Runtime record objects
# ---------------------------------------------------------------------------

class ShadowRequest:
    """Forward-pass shadow of an MPI request (Fig. 5)."""

    __slots__ = ("kind", "d_ptr", "count", "peer", "tag")

    def __init__(self, kind: str, d_ptr, count: int, peer: int,
                 tag: int) -> None:
        self.kind = kind          # "isend" | "irecv"
        self.d_ptr = d_ptr
        self.count = count
        self.peer = peer
        self.tag = tag

    def __repr__(self) -> str:
        return f"<ShadowRequest {self.kind} peer={self.peer} tag={self.tag}>"


class ReverseRequest:
    """Reverse-pass adjoint communication in flight."""

    __slots__ = ("kind", "engine_req", "tmp_ptr", "d_ptr", "count")

    def __init__(self, kind: str, engine_req, tmp_ptr, d_ptr,
                 count: int) -> None:
        self.kind = kind          # "rev_isend" | "rev_irecv"
        self.engine_req = engine_req
        self.tmp_ptr = tmp_ptr
        self.d_ptr = d_ptr
        self.count = count


class AllreduceRecord:
    __slots__ = ("op", "d_send", "d_recv", "count", "winner")

    def __init__(self, op: str, d_send, d_recv, count: int, winner) -> None:
        self.op = op
        self.d_send = d_send
        self.d_recv = d_recv
        self.count = count
        self.winner = winner      # bool array for min/max, else None


class ReduceRecord:
    __slots__ = ("d_send", "d_recv", "count", "root")

    def __init__(self, d_send, d_recv, count: int, root: int) -> None:
        self.d_send = d_send
        self.d_recv = d_recv
        self.count = count
        self.root = root


# ---------------------------------------------------------------------------
# Transform-side emission
# ---------------------------------------------------------------------------

def register_mpid_intrinsics(module: Module) -> None:
    if "mpid.record_send" in module.intrinsics:
        return
    pf64 = Ptr(F64)

    def reg(name, arg_types, ret=Void, variadic=False):
        module.register_intrinsic(IntrinsicInfo(
            name, arg_types, ret, effects="any", variadic=variadic,
            doc="AD-generated adjoint-MPI helper."))

    reg("mpid.record_send", [pf64, I64, I64, I64], Request)
    reg("mpid.record_recv", [pf64, I64, I64, I64], Request)
    reg("mpid.reverse_wait", [Request], Request)
    reg("mpid.finish_send", [Request])
    reg("mpid.finish_recv", [Request])
    reg("mpid.record_allreduce", [pf64, pf64, pf64, pf64, I64], Request)
    reg("mpid.rev_allreduce", [Request])
    reg("mpid.record_reduce", [pf64, pf64, I64, I64], Request)
    reg("mpid.rev_reduce", [Request])
    reg("mpid.rev_bcast", [pf64, I64, I64])


def forward_mpi_call(t, op: CallOp) -> None:
    """Emit the augmented-forward form of one MPI/task intrinsic call."""
    b = t.b
    callee = op.attrs["callee"]
    args = [t._fwd_val(v) for v in op.operands]

    def clone():
        # What emit returns, not the new op's result: comm_rank /
        # comm_size are value-numbered by the transform's builder.
        out = b.emit(CallOp(callee, args,
                            op.result.type if op.result else Void,
                            dict(op.attrs)))
        if op.result is not None:
            t.pm[op.result] = out

    if callee in ("task.wait", "mpi.barrier", "mpi.comm_rank",
                  "mpi.comm_size", "mpi.send", "mpi.recv"):
        clone()
        t._maybe_cache_result(op)
        return

    if callee == "mpi.isend" or callee == "mpi.irecv":
        clone()
        d_buf = t._fwd_shadow_ptr(op.operands[0])
        if d_buf is None or d_buf is args[0]:
            raise _shadow_error(op)
        rec_name = ("mpid.record_send" if callee == "mpi.isend"
                    else "mpid.record_recv")
        t.sm[op.result] = b.emit(
            CallOp(rec_name, [d_buf, args[1], args[2], args[3]], Request))
        return

    if callee == "mpi.wait":
        clone()
        shadow_req = t.sm.get(op.operands[0])
        if shadow_req is None:
            raise _shadow_error(op)
        slot = t.plan.slot_for((op, "record"))
        t._fwd_store_slot(slot, shadow_req)
        return

    if callee == "mpi.allreduce":
        clone()
        d_send = t._fwd_shadow_ptr(op.operands[0])
        d_recv = t._fwd_shadow_ptr(op.operands[1])
        if d_send is None or d_recv is None:
            raise _shadow_error(op)
        rec = b.emit(CallOp("mpid.record_allreduce",
                            [args[0], args[1], d_send, d_recv, args[2]],
                            Request, {"op": op.attrs.get("op", "sum")}))
        t._fwd_store_slot(t.plan.slot_for((op, "record")), rec)
        return

    if callee == "mpi.reduce":
        if op.attrs.get("op", "sum") != "sum":
            raise _unsupported(op, "only sum reductions reverse")
        clone()
        d_send = t._fwd_shadow_ptr(op.operands[0])
        d_recv = t._fwd_shadow_ptr(op.operands[1])
        if d_send is None or d_recv is None:
            raise _shadow_error(op)
        rec = b.emit(CallOp("mpid.record_reduce",
                            [d_send, d_recv, args[2], args[3]], Request))
        t._fwd_store_slot(t.plan.slot_for((op, "record")), rec)
        return

    if callee == "mpi.bcast":
        clone()
        return

    raise _unsupported(op, "no augmented-forward rule")


def reverse_mpi_call(t, op: CallOp, scope) -> None:
    """Emit the reverse form of one MPI intrinsic call."""
    b = t.b
    callee = op.attrs["callee"]

    if callee in ("mpi.comm_rank", "mpi.comm_size"):
        return
    if callee == "mpi.barrier":
        b.call("mpi.barrier", ad="reverse")
        return

    if callee == "mpi.wait":
        rec = t._load_slot(t.plan.slot_for((op, "record")), scope)
        scope.bind(("revshadow", op.operands[0]),
                   b.emit(CallOp("mpid.reverse_wait", [rec], Request)))
        return

    if callee == "mpi.isend" or callee == "mpi.irecv":
        rr = scope.lookup(("revshadow", op.result))
        if rr is None:
            raise _unsupported(op, "request never waited on")
        fin = ("mpid.finish_send" if callee == "mpi.isend"
               else "mpid.finish_recv")
        b.emit(CallOp(fin, [rr]))
        return

    if callee == "mpi.send":
        d_buf = t._rev_shadow_ptr(op.operands[0], scope)
        count = t._avail(op.operands[1], scope)
        dest = t._avail(op.operands[2], scope)
        tag = t._avail(op.operands[3], scope)
        tmp = b.alloc(count, F64, name="d_sendtmp")
        b.call("mpi.recv", tmp, count, dest, tag, ad="reverse")
        with b.for_(0, count, simd=True, name="k") as k:
            cur = b.load(d_buf, k)
            b.store(b.add(cur, b.load(tmp, k)), d_buf, k)
        return

    if callee == "mpi.recv":
        d_buf = t._rev_shadow_ptr(op.operands[0], scope)
        count = t._avail(op.operands[1], scope)
        src = t._avail(op.operands[2], scope)
        tag = t._avail(op.operands[3], scope)
        b.call("mpi.send", d_buf, count, src, tag, ad="reverse")
        b.memset(d_buf, 0.0, count)
        return

    if callee == "mpi.allreduce":
        rec = t._load_slot(t.plan.slot_for((op, "record")), scope)
        b.emit(CallOp("mpid.rev_allreduce", [rec]))
        return

    if callee == "mpi.reduce":
        rec = t._load_slot(t.plan.slot_for((op, "record")), scope)
        b.emit(CallOp("mpid.rev_reduce", [rec]))
        return

    if callee == "mpi.bcast":
        d_buf = t._rev_shadow_ptr(op.operands[0], scope)
        count = t._avail(op.operands[1], scope)
        root = t._avail(op.operands[2], scope)
        b.emit(CallOp("mpid.rev_bcast", [d_buf, count, root]))
        return

    raise _unsupported(op, "no reverse rule")


def _shadow_error(op):
    from .transform import ADTransformError
    return ADTransformError(
        f"{op!r}: communicated buffer has no distinct shadow; pass it "
        f"through a Duplicated argument or an active allocation")


def _unsupported(op, why):
    from .transform import ADTransformError
    return ADTransformError(f"{op!r}: {why}")


# ---------------------------------------------------------------------------
# Runtime handlers (interpreter intrinsics)
# ---------------------------------------------------------------------------

def _h_record_send(interp, op, args):
    d_ptr, count, peer, tag = args
    return ShadowRequest("isend", d_ptr, int(count), int(peer), int(tag))


def _h_record_recv(interp, op, args):
    d_ptr, count, peer, tag = args
    return ShadowRequest("irecv", d_ptr, int(count), int(peer), int(tag))


def _stress_safepoint(interp) -> None:
    # Adjoint communication is a foreign-call boundary too: under GC
    # stress the reverse pass collects here, which is why Enzyme must
    # extend gc_preserve regions with shadow buffers (§VI-C2).
    if interp.config.gc_stress:
        interp.memory.safepoint()


def _g_reverse_wait(interp, op, args):
    rec: ShadowRequest = args[0]
    if not isinstance(rec, ShadowRequest):
        raise InterpreterError(f"reverse_wait on non-record {rec!r}")
    interp.flush_serial()
    _stress_safepoint(interp)
    if rec.kind == "isend":
        tmp = interp.memory.alloc(rec.count, F64, "heap", name="d_acc")
        req = yield MPIEvent("irecv", buf=tmp, count=rec.count,
                             peer=rec.peer, tag=rec.tag)
        return ReverseRequest("rev_isend", req, tmp, rec.d_ptr, rec.count)
    req = yield MPIEvent("isend", buf=rec.d_ptr, count=rec.count,
                         peer=rec.peer, tag=rec.tag)
    return ReverseRequest("rev_irecv", req, None, rec.d_ptr, rec.count)


def _g_finish_send(interp, op, args):
    rr: ReverseRequest = args[0]
    interp.flush_serial()
    yield MPIEvent("wait", request=rr.engine_req)
    d = rr.d_ptr.buffer
    d.check_alive()
    off = int(rr.d_ptr.offset)
    tmp = rr.tmp_ptr.buffer
    d.data[off:off + rr.count] += tmp.data[:rr.count]
    interp.cost.add_load(16 * rr.count)
    interp.cost.add_store(8 * rr.count)
    interp.memory.free(rr.tmp_ptr)
    return None


def _g_finish_recv(interp, op, args):
    rr: ReverseRequest = args[0]
    interp.flush_serial()
    yield MPIEvent("wait", request=rr.engine_req)
    d = rr.d_ptr.buffer
    d.check_alive()
    off = int(rr.d_ptr.offset)
    d.data[off:off + rr.count] = 0.0
    interp.cost.add_store(8 * rr.count)
    return None


def _g_record_allreduce(interp, op, args):
    send_p, recv_p, d_send, d_recv, count = args
    count = int(count)
    kind = op.attrs.get("op", "sum")
    winner = None
    if kind in ("min", "max"):
        interp.flush_serial()
        winner = yield MPIEvent("winner_mask", buf=send_p, recvbuf=recv_p,
                                count=count, op=kind)
    return AllreduceRecord(kind, d_send, d_recv, count, winner)


def _g_rev_allreduce(interp, op, args):
    rec: AllreduceRecord = args[0]
    interp.flush_serial()
    tmp = interp.memory.alloc(rec.count, F64, "heap", name="d_ar")
    yield MPIEvent("allreduce", buf=rec.d_recv, recvbuf=tmp,
                   count=rec.count, op="sum")
    db = rec.d_send.buffer
    db.check_alive()
    off = int(rec.d_send.offset)
    t = tmp.buffer.data[:rec.count]
    if rec.winner is not None:
        db.data[off:off + rec.count] += np.where(rec.winner, t, 0.0)
    else:
        db.data[off:off + rec.count] += t
    rb = rec.d_recv.buffer
    roff = int(rec.d_recv.offset)
    rb.data[roff:roff + rec.count] = 0.0
    interp.cost.add_load(16 * rec.count)
    interp.cost.add_store(16 * rec.count)
    interp.memory.free(tmp)
    return None


def _g_rev_reduce(interp, op, args):
    rec: ReduceRecord = args[0]
    interp.flush_serial()
    tmp = interp.memory.alloc(rec.count, F64, "heap", name="d_red")
    if interp.rank == rec.root:
        rb = rec.d_recv.buffer
        roff = int(rec.d_recv.offset)
        tmp.buffer.data[:rec.count] = rb.data[roff:roff + rec.count]
    yield MPIEvent("bcast", buf=tmp, count=rec.count, root=rec.root)
    db = rec.d_send.buffer
    off = int(rec.d_send.offset)
    db.data[off:off + rec.count] += tmp.buffer.data[:rec.count]
    if interp.rank == rec.root:
        rb = rec.d_recv.buffer
        roff = int(rec.d_recv.offset)
        rb.data[roff:roff + rec.count] = 0.0
    interp.cost.add_load(16 * rec.count)
    interp.cost.add_store(8 * rec.count)
    interp.memory.free(tmp)
    return None


def _h_record_reduce(interp, op, args):
    d_send, d_recv, count, root = args
    return ReduceRecord(d_send, d_recv, int(count), int(root))


def _g_rev_bcast(interp, op, args):
    d_ptr, count, root = args
    count, root = int(count), int(root)
    interp.flush_serial()
    tmp = interp.memory.alloc(count, F64, "heap", name="d_bc")
    yield MPIEvent("reduce", buf=d_ptr, recvbuf=tmp, count=count,
                   op="sum", root=root)
    db = d_ptr.buffer
    off = int(d_ptr.offset)
    if interp.rank == root:
        db.data[off:off + count] = tmp.buffer.data[:count]
    else:
        db.data[off:off + count] = 0.0
    interp.cost.add_store(8 * count)
    interp.memory.free(tmp)
    return None


_SIMPLE_INTRINSICS.update({
    "mpid.record_send": _h_record_send,
    "mpid.record_recv": _h_record_recv,
    "mpid.record_reduce": _h_record_reduce,
})

_GEN_INTRINSICS.update({
    "mpid.reverse_wait": _g_reverse_wait,
    "mpid.finish_send": _g_finish_send,
    "mpid.finish_recv": _g_finish_recv,
    "mpid.record_allreduce": _g_record_allreduce,
    "mpid.rev_allreduce": _g_rev_allreduce,
    "mpid.rev_reduce": _g_rev_reduce,
    "mpid.rev_bcast": _g_rev_bcast,
})
