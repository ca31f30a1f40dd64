"""Checkpointed adjoints of time loops.

The min-cut cache planner (§IV-C) stores O(steps) primal state for a
time loop, which caps how long a loop we can differentiate.  This
module is the one alternative storage schedule: binomial (revolve)
checkpointing over a function-level counted loop with
``ceil(log2 N) + 2`` state snapshots (the stack plus the final state).
The forward sweep runs primal-only and lays the first snapshot chain;
the reverse sweep re-runs one augmented iteration at a time from the
nearest snapshot, splitting segments by Griewank's binomial rule
(O(log N) live state; 63 primal-only steps at N = 32, forward sweep
included, the minimum for that budget).  Results are bit-identical to
cache-all — gradients and final primal state: snapshots are bitwise
copies and every augmented step re-executes exactly the ops of the
original forward iteration.

``ADConfig(adjoint="checkpoint")`` checkpoints every eligible loop; the
``adjoint`` attribute on a ``for`` op (``{adjoint='checkpoint'}`` or
``'cache-all'``) overrides the global choice for that loop.

Ineligible loops (dynamic bounds, MPI/task calls in the body, unknown
write targets, ...) silently fall back to cache-all; the reasons are
recorded on ``ADTransform.adjoint_report`` and surfaced by
``repro.tools.summarize --adjoint-report``.

The emitted machine: ``nbits = ceil(log2 N)`` (at least 1) sizes the
snapshot store, stack slots ``0 .. nbits`` plus one slot for the final
state.  A stack entry ``[lo, hi)`` of trip indices at depth ``j`` keeps
its start state in slot ``j`` and has ``nbits - j`` free slots above it.

* Forward sweep: run the loop primal-only in spine segments.  While the
  top segment is wider than one trip and a slot is free, the segment
  ends at ``lo + binomial_split(hi - lo, free)``, whose state is
  snapshotted and pushed; the last segment runs to ``N`` and the final
  state takes its own slot.
* Reverse machine: every iteration restores the top entry's start state
  and advances primal-only to a target.  With a free slot and a segment
  wider than one trip, it snapshots the target and pushes
  ``[target, hi)``; otherwise it youturns at ``hi - 1`` (re-runs that
  trip augmented, reverses it) and shrinks the entry, popping it once
  empty.  Trips reverse in order ``N-1 .. 0``.

:func:`simulate_schedule` is the pure-Python model of both sweeps.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..ir.ops import Block, ForOp, Op
from ..ir.types import F64, I1, I64
from ..ir.values import Constant, Value
from ..passes.aliasing import _WRITING_INTRINSICS, UNKNOWN
from .cacheplan import _dim_is_static, _value_defined_at_depth0, nest_of

#: Valid values of the per-loop ``adjoint`` attribute / ADConfig field.
STRATEGY_NAMES = ("cache-all", "checkpoint")


def _walk(block: Block):
    for op in block.ops:
        yield op
        for r in op.regions:
            yield from _walk(r)


def resolve_strategy(name) -> str:
    """``name`` if it is an ``ADConfig.adjoint`` / loop-tag value."""
    if name not in STRATEGY_NAMES:
        raise ValueError(f"unknown adjoint strategy {name!r}; expected one "
                         f"of {STRATEGY_NAMES}")
    return name


def select_managed_loops(tr):
    """Pick the function-level loops of ``tr.fn`` to checkpoint.

    Returns ``(managed, report)``: a dict mapping each checkpointed
    primal loop op to its loop-carried state (see :func:`_state_origins`)
    and a JSON-friendly report of managed loops and cache-all fallbacks
    (with reasons).
    """
    base = resolve_strategy(tr.config.adjoint)
    managed: dict[Op, list] = {}
    report = {"strategy": base, "managed": [], "fallbacks": []}
    for op in tr.fn.body.ops:
        if op.opcode != "for":
            continue
        tag = op.attrs.get("adjoint")
        if resolve_strategy(base if tag is None else tag) != "checkpoint":
            continue
        entry = {"loop": op.body.args[0].name or "i",
                 "strategy": "checkpoint"}
        reason = _ineligible_reason(op)
        if not reason:
            state, reason = _state_origins(tr, op)
        if reason:
            entry["reason"] = reason
            report["fallbacks"].append(entry)
        else:
            managed[op] = state
            report["managed"].append(entry)
    return managed, report


def _ineligible_reason(op: Op) -> Optional[str]:
    """Why the function-level loop ``op`` cannot be checkpointed."""
    if op.attrs.get("workshare"):
        return "worksharing loops reverse in-place (§VI-A2)"
    if op.attrs.get("simd"):
        return "simd loops reverse in place as simd loops (§IV-A)"
    if not all(_value_defined_at_depth0(o) for o in op.operands):
        return "loop bounds are not function-entry values"
    for inner in _walk(op.body):
        oc = inner.opcode
        if oc == "while":
            return "dynamic trip-count loop in the body"
        if oc == "spawn":
            return "task spawn in the body"
        if oc == "return":
            return "return inside the loop body"
        if oc == "call":
            callee = inner.attrs.get("callee", "")
            if (callee.startswith("mpi.") or callee.startswith("jl.")
                    or callee == "task.wait"):
                return f"runtime call {callee} in the body"
        if oc in ("for", "parallel_for", "fork") and \
                not _dim_is_static(inner, None):
            return "inner region with non-static extent"
    return None


def _state_origins(tr, op: Op):
    """Depth-0 pointer values the body may write through, in
    program order.  Superset-safe: snapshotting an unwritten buffer
    only costs memory."""
    state: list[Value] = []
    seen: set[int] = set()
    for inner in _walk(op.body):
        oc = inner.opcode
        targets = []
        if oc in ("store", "atomic"):
            targets.append(inner.operands[1])
        elif oc in ("memset", "memcpy"):
            targets.append(inner.operands[0])
        elif oc == "call":
            idxs = _WRITING_INTRINSICS.get(inner.attrs.get("callee"), ())
            targets.extend(inner.operands[i] for i in idxs)
        for t in targets:
            provs = tr.aliasing.provenance(t)
            if UNKNOWN in provs:
                return None, "written pointer with unknown provenance"
            for prov in sorted(provs, key=_prov_order):
                kind, obj = prov
                if kind == "arg":
                    base = obj
                else:  # ("alloc", AllocOp)
                    if op in nest_of(obj):
                        continue  # re-created every iteration
                    if obj.parent is None or \
                            obj.parent.parent_op is not None:
                        return None, ("writes a buffer allocated in "
                                      "another region")
                    base = obj.result
                elem = getattr(base.type, "elem", None)
                if elem not in (F64, I64, I1):
                    # Snapshots are bitwise buffer copies; pointer /
                    # handle state cannot be restored that way.
                    return None, (f"state buffer {base!r} has "
                                  f"non-numeric element type {elem}")
                if id(base) not in seen:
                    seen.add(id(base))
                    state.append(base)
    return state, None


def _prov_order(prov):
    kind, obj = prov
    if kind == "arg":
        return (0, obj.name or "")
    return (1, getattr(getattr(obj, "result", None), "name", "") or "")


def checkpoint_forward_sweep(tr, op: Op) -> None:
    """Emit the forward sweep of checkpointed loop ``op``."""
    b = tr.b
    lb, step, ntrips = tr._managed_trip_bounds(op)
    work = b.alloc(3, I64, name="ck_w")
    nbits = _emit_grow(b, work, lambda k, x: b.mul(x, 2), ntrips)
    nslots = b.add(nbits, 1)
    rec = {"lb": lb, "step": step, "ntrips": ntrips, "nbits": nbits,
           "work": work, "final_slot": nslots,
           "state": tr._managed_state(op, b.add(nslots, 1)),
           "lo": b.alloc(nslots, I64, name="ck_lo"),
           "hi": b.alloc(nslots, I64, name="ck_hi"),
           "sp": b.alloc(1, I64, name="ck_sp")}
    tr._ckpt[op] = rec
    tr._snapshot(rec["state"], Constant(0, I64))
    b.store(0, rec["lo"], 0)
    b.store(ntrips, rec["hi"], 0)
    b.store(1, rec["sp"], 0)
    with b.while_("ckf"):
        sp, top, lo, hi, push, target = _emit_target(b, rec, 0)
        _emit_advance(tr, op, rec, lo, target)
        with b.if_(push):
            _emit_push(tr, rec, sp, top, target, hi)
        b.loop_while(push)
    tr._snapshot(rec["state"], rec["final_slot"])


def checkpoint_reverse_sweep(tr, op: Op, scope) -> None:
    """Emit the reverse machine of checkpointed loop ``op``."""
    b = tr.b
    rec = tr._ckpt[op]
    with b.if_(b.cmp("gt", rec["ntrips"], 0)) as guard, \
            b.while_("ckm"):
        sp, top, lo, hi, push, target = _emit_target(b, rec, 1)
        tr._restore(rec["state"], top)
        _emit_advance(tr, op, rec, lo, target)
        with b.if_(push):
            _emit_push(tr, rec, sp, top, target, hi)
        with b.else_():
            tr._adjoint_step(op, _trip_ivar(b, rec, target), scope,
                             guard)
            b.store(target, rec["hi"], top)
            b.store(b.select(b.cmp("eq", target, lo), top, sp),
                    rec["sp"], 0)
        b.loop_while(b.cmp("gt", b.load(rec["sp"], 0), 0))
    # The machine leaves the primal at trip 0's recompute point;
    # restore the final state so the caller-visible buffers match
    # the cache-all plan bit for bit.
    tr._restore(rec["state"], rec["final_slot"])


def _emit_grow(b, cells, grow, limit):
    """Emit ``k, x = 0, 1; do {k += 1; x = grow(k, x)} while x < limit``
    on the i64 ``cells[0:2]``; returns the final ``k`` (``x`` stays in
    ``cells[1]``)."""
    b.store(0, cells, 0)
    b.store(1, cells, 1)
    with b.while_("ckg"):
        k = b.add(b.load(cells, 0), 1)
        x = grow(k, b.load(cells, 1))
        b.store(k, cells, 0)
        b.store(x, cells, 1)
        b.loop_while(b.cmp("lt", x, limit))
    return b.load(cells, 0)


def _emit_split(b, cells, width, free):
    """IR of :func:`binomial_split` (``width >= 2``, ``free >= 1``)."""
    c = b.add(free, 1)
    r = _emit_grow(
        b, cells, lambda r, x: b.idiv(b.mul(x, b.add(c, r)), r), width)
    b1 = b.idiv(b.mul(b.load(cells, 1), r), b.add(c, r))
    b2 = b.idiv(b.mul(b1, c), b.sub(b.add(c, r), 1))
    return b.min(b1, b.sub(width, b2))


def _emit_target(b, rec, tail):
    """Read the top stack entry and choose the iteration's action:
    ``push`` (i1) when the segment is wider than one trip and a slot is
    free, with ``target = lo + split``; otherwise ``target = hi - tail``.
    Returns ``(sp, top, lo, hi, push, target)``."""
    work = rec["work"]
    sp = b.load(rec["sp"], 0)
    top = b.sub(sp, 1)
    lo = b.load(rec["lo"], top)
    hi = b.load(rec["hi"], top)
    width = b.sub(hi, lo)
    free = b.sub(rec["nbits"], top)
    push = b.logical_and(b.cmp("gt", width, 1), b.cmp("gt", free, 0))
    with b.if_(push):
        b.store(b.add(lo, _emit_split(b, work, width, free)), work, 2)
    with b.else_():
        b.store(b.sub(hi, tail), work, 2)
    return sp, top, lo, hi, push, b.load(work, 2)


def _trip_ivar(b, rec, k):
    return b.add(rec["lb"], b.mul(k, rec["step"]))


def _emit_advance(tr, op, rec, lo, target):
    """Run trips ``[lo, target)`` of ``op`` primal-only."""
    b = tr.b
    adv = ForOp(lo, target, Constant(1, I64), ivar_name="ckj")
    b.emit(adv)
    with b.at(adv.body):
        tr._primal_step(op, _trip_ivar(b, rec, adv.body.args[0]))


def _emit_push(tr, rec, sp, top, target, hi):
    """Snapshot the state at ``target`` into slot ``sp``; split the top
    entry into ``[lo, target)`` and a new top ``[target, hi)``."""
    b = tr.b
    tr._snapshot(rec["state"], sp)
    b.store(target, rec["hi"], top)
    b.store(target, rec["lo"], sp)
    b.store(hi, rec["hi"], sp)
    b.store(b.add(sp, 1), rec["sp"], 0)


class Schedule(NamedTuple):
    """What :func:`simulate_schedule` counts for one trip count."""

    order: list       #: trip indices in the order they are reversed
    peak: int         #: maximum live stack entries (snapshot slots)
    primal_steps: int  #: primal-only trip executions, forward sweep included
    restores: int     #: state restores, the final one included
    snapshots: int    #: state snapshots, the final one included


def _grow(grow, limit):
    """``k, x = 0, 1; do {k += 1; x = grow(k, x)} while x < limit``."""
    k, x = 0, 1
    while True:
        k += 1
        x = grow(k, x)
        if x >= limit:
            return k, x


def stack_bits(n: int) -> int:
    """``ceil(log2 n)``, at least 1: the top slot index of the snapshot
    stack (``stack_bits(n) + 1`` stack slots, plus the final state)."""
    return _grow(lambda k, x: 2 * x, n)[0]


def binomial_split(width: int, free: int) -> int:
    """Offset of the next snapshot in a ``width``-trip segment whose
    start state is stored, with ``free`` slots above it (Griewank's
    binomial rule, "Algorithm 799: revolve", ACM TOMS 2000).

    With ``c = free + 1`` snapshots and ``beta(c, r) = C(c + r, c)``, the
    fewest repetitions that reverse the segment are the least ``r`` with
    ``beta(c, r) >= width``.  The split is the largest offset that still
    costs the minimum: ``min(beta(c, r-1), width - beta(c-1, r-1))``.
    Larger offsets leave a shorter right-hand segment, which is what the
    forward sweep's spine wants (its own advance is free), so the one
    rule is optimal both in the forward spine and in the reverse
    machine.  Every quotient below is exact."""
    c = free + 1
    r, beta = _grow(lambda r, x: x * (c + r) // r, width)
    b1 = beta * r // (c + r)
    return min(b1, width - b1 * c // (c + r - 1))


def simulate_schedule(n: int) -> Schedule:
    """Pure-Python model of the IR checkpointing emits.

    Mirrors both sweeps step for step; the tests check the emitted IR
    against ``primal_steps`` and the schedule against a brute-force
    optimum."""
    if n <= 0:
        return Schedule([], 0, 0, 1, 2)
    nbits = stack_bits(n)
    stack = [(0, n)]
    snapshots = 1
    while True:  # forward sweep: the spine
        lo, hi = stack[-1]
        free = nbits + 1 - len(stack)
        if hi - lo <= 1 or free <= 0:
            break
        target = lo + binomial_split(hi - lo, free)
        stack[-1] = (lo, target)
        stack.append((target, hi))
        snapshots += 1
    primal, peak, restores, snapshots = n, len(stack), 1, snapshots + 1
    order: list[int] = []
    while stack:  # reverse machine
        lo, hi = stack[-1]
        free = nbits + 1 - len(stack)
        restores += 1
        if hi - lo > 1 and free > 0:
            target = lo + binomial_split(hi - lo, free)
            primal += target - lo
            stack[-1] = (lo, target)
            stack.append((target, hi))
            snapshots += 1
            peak = max(peak, len(stack))
        else:
            primal += hi - 1 - lo
            order.append(hi - 1)
            if hi - 1 == lo:
                stack.pop()
            else:
                stack[-1] = (lo, hi - 1)
    return Schedule(order, peak, primal, restores, snapshots)
