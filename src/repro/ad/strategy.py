"""Pluggable adjoint storage/recompute strategies.

The min-cut cache planner (§IV-C) stores O(steps) primal state for a
time loop, which caps how long a loop we can differentiate.  This
module makes the storage decision pluggable, in the shape of
optimistix's ``AbstractAdjoint`` hierarchy:

* :class:`CacheAllAdjoint` — the existing behaviour: every loop is a
  cache dimension and the min-cut (or cache-all ablation) plan decides
  value-by-value.  Default, bit-identical to the pre-strategy engine.
* :class:`CheckpointAdjoint` — binomial (revolve) checkpointing over a
  top-level counted loop with ``ceil(log2 N) + 2`` state snapshots (the
  stack plus the final state).  The forward sweep runs primal-only and
  lays the first snapshot chain; the reverse sweep re-runs one
  augmented iteration at a time from the nearest snapshot, splitting
  segments by Griewank's binomial rule (O(log N) live state; 63
  primal-only steps at N = 32, forward sweep included, the minimum for
  that budget).
  Results are bit-identical to cache-all — gradients and final primal
  state: snapshots are bitwise copies and every augmented step
  re-executes exactly the ops of the original forward iteration.
* :class:`ImplicitAdjoint` — implicit-function-theorem adjoint of a
  loop tagged as a fixed-point iteration (``adjoint='implicit'``):
  instead of unrolling, the reverse sweep iterates the adjoint map
  x̄ ← Jᵀ x̄ at the converged state, accumulating
  θ̄ = Σₖ (∂f/∂θ)ᵀ (Jᵀ)ᵏ x̄ → (∂f/∂θ)ᵀ (I − Jᵀ)⁻¹ x̄.

A strategy is selected globally via ``ADConfig(adjoint=...)`` and
overridden per-loop with the ``adjoint`` attribute on a ``for`` op
(``{adjoint='checkpoint'}``).  Implicit adjoints change *what* is
computed (they are exact only at a fixed point), so they apply only to
explicitly tagged loops, never via the global default alone.

Ineligible loops (dynamic bounds, MPI/task calls in the body, unknown
write targets, ...) silently fall back to cache-all; the reasons are
recorded on ``ADTransform.adjoint_report`` and surfaced by
``repro.tools.summarize --adjoint-report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from ..ir.ops import Block, ForOp, Op
from ..ir.types import F64, I1, I64
from ..ir.values import Constant, Value
from ..passes.aliasing import _WRITING_INTRINSICS, UNKNOWN
from .cacheplan import _dim_is_static, _value_defined_at_depth0, nest_of

#: Valid values of the per-loop ``adjoint`` attribute / ADConfig field.
STRATEGY_NAMES = ("cache-all", "checkpoint", "implicit")


def _walk(block: Block):
    for op in block.ops:
        yield op
        for r in op.regions:
            yield from _walk(r)


@dataclass
class AdjointPlan:
    """Result of :meth:`AdjointStrategy.plan` for one loop."""

    loop: Op
    eligible: bool
    #: Human-readable fallback reason when not eligible.
    reason: str = ""
    #: Primal depth-0 pointer values (arguments / top-level allocs)
    #: whose pointees the loop body may write — the loop-carried state
    #: that snapshots must capture.  Program order (deterministic).
    state: list = field(default_factory=list)


class AdjointStrategy:
    """Storage/recompute policy for one (or every) primal loop.

    ``plan`` decides applicability and identifies the loop-carried
    state; ``emit_forward_sweep`` / ``emit_reverse_sweep`` emit the
    loop's augmented-forward and reverse IR through the transform's
    builder.  The transform calls them in place of its hardwired
    ``_forward_loop`` / ``_reverse_for`` when the loop is managed.
    """

    name = "abstract"

    def fingerprint(self, config) -> str:
        """Cache-key component: must differ whenever generated IR may."""
        return self.name

    def plan(self, tr, op: Op) -> AdjointPlan:
        raise NotImplementedError

    def emit_forward_sweep(self, tr, op: Op) -> None:
        raise NotImplementedError

    def emit_reverse_sweep(self, tr, op: Op, scope) -> None:
        raise NotImplementedError


class CacheAllAdjoint(AdjointStrategy):
    """The pre-strategy engine: min-cut (or cache-all) planned caches
    indexed by every enclosing loop.  Always applicable."""

    name = "cache-all"

    def plan(self, tr, op: Op) -> AdjointPlan:
        return AdjointPlan(op, True)

    def emit_forward_sweep(self, tr, op: Op) -> None:
        tr._forward_loop(op)

    def emit_reverse_sweep(self, tr, op: Op, scope) -> None:
        tr._reverse_for(op, scope)


class _ManagedStrategy(AdjointStrategy):
    """Shared eligibility analysis for strategies that re-run loop
    iterations during the reverse sweep."""

    def plan(self, tr, op: Op) -> AdjointPlan:
        reason = self._ineligible_reason(tr, op)
        if reason:
            return AdjointPlan(op, False, reason)
        state, err = self._state_origins(tr, op)
        if err:
            return AdjointPlan(op, False, err)
        return AdjointPlan(op, True, state=state)

    # ------------------------------------------------------------------
    def _ineligible_reason(self, tr, op: Op) -> Optional[str]:
        if op.opcode != "for":
            return "only counted `for` loops can be managed"
        if op.parent is None or op.parent.parent_op is not None:
            return "not a function-level loop"
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

    def _state_origins(self, tr, op: Op):
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


class CheckpointAdjoint(_ManagedStrategy):
    """Binomial (revolve) checkpointing over a counted loop, emitted as
    runtime loops so the trip count ``N`` may be a runtime value.

    ``nbits = ceil(log2 N)`` (at least 1) sizes the snapshot store:
    stack slots ``0 .. nbits`` plus one slot for the final state.  A
    stack entry ``[lo, hi)`` of trip indices at depth ``j`` keeps its
    start state in slot ``j`` and has ``nbits - j`` free slots above it.

    * Forward sweep: run the loop primal-only in spine segments.  While
      the top segment is wider than one trip and a slot is free, the
      segment ends at ``lo + binomial_split(hi - lo, free)``, whose state
      is snapshotted and pushed; the last segment runs to ``N`` and the
      final state takes its own slot.
    * Reverse machine: every iteration restores the top entry's start
      state and advances primal-only to a target.  With a free slot and
      a segment wider than one trip, it snapshots the target and pushes
      ``[target, hi)``; otherwise it youturns at ``hi - 1`` (re-runs that
      trip augmented, reverses it) and shrinks the entry, popping it
      once empty.  Trips reverse in order ``N-1 .. 0``.

    :func:`simulate_schedule` is the pure-Python model of both sweeps.
    """

    name = "checkpoint"

    def emit_forward_sweep(self, tr, op: Op) -> None:
        b = tr.b
        lb, _, step, ntrips = tr._managed_trip_bounds(op)
        work = b.alloc(3, I64, name="ck_w")
        nbits = _emit_grow(b, work, lambda k, x: b.mul(x, 2), ntrips)
        nslots = b.add(nbits, 1)
        rec = {"lb": lb, "step": step, "ntrips": ntrips, "nbits": nbits,
               "work": work, "final_slot": nslots,
               "state": tr._managed_state(op, b.add(nslots, 1), "ckpt"),
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

    def emit_reverse_sweep(self, tr, op: Op, scope) -> None:
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


class ImplicitAdjoint(_ManagedStrategy):
    """Implicit-function-theorem adjoint of a tagged fixed-point loop.

    ``ADConfig.implicit_iters`` bounds the Neumann iteration count of
    the reverse solve (default: the primal trip count, which matches
    the unrolled gradient exactly when the iterated map is linear)."""

    name = "implicit"

    def fingerprint(self, config) -> str:
        return f"implicit(iters={getattr(config, 'implicit_iters', None)})"

    def emit_forward_sweep(self, tr, op: Op) -> None:
        tr._implicit_forward_loop(op)

    def emit_reverse_sweep(self, tr, op: Op, scope) -> None:
        tr._implicit_reverse_loop(op, scope)


def resolve_strategy(name) -> AdjointStrategy:
    """Strategy instance for an ``ADConfig.adjoint`` / attr value."""
    if isinstance(name, AdjointStrategy):
        return name
    if name in (None, "cache-all", "cacheall", "cache_all"):
        return CacheAllAdjoint()
    if name == "checkpoint":
        return CheckpointAdjoint()
    if name == "implicit":
        return ImplicitAdjoint()
    raise ValueError(f"unknown adjoint strategy {name!r}; expected one of "
                     f"{STRATEGY_NAMES}")


def select_managed_loops(tr):
    """Assign strategies to the function-level loops of ``tr.fn``.

    Returns ``(managed, report)``: a dict mapping primal loop ops to
    ``(strategy, AdjointPlan)`` and a JSON-friendly report of managed
    loops and cache-all fallbacks (with reasons).
    """
    cfg = tr.config
    base = resolve_strategy(getattr(cfg, "adjoint", "cache-all"))
    managed: dict[Op, tuple[AdjointStrategy, AdjointPlan]] = {}
    report = {"strategy": base.name, "managed": [], "fallbacks": []}
    for op in tr.fn.body.ops:
        if op.opcode != "for":
            continue
        tag = op.attrs.get("adjoint")
        if tag is not None:
            strat = resolve_strategy(tag)
        elif isinstance(base, CheckpointAdjoint):
            strat = base
        else:
            # cache-all globally, or implicit (which requires tags).
            continue
        if isinstance(strat, CacheAllAdjoint):
            continue
        plan = strat.plan(tr, op)
        entry = {"loop": op.body.args[0].name or "i", "strategy": strat.name}
        if plan.eligible:
            managed[op] = (strat, plan)
            report["managed"].append(entry)
        else:
            entry["reason"] = plan.reason
            report["fallbacks"].append(entry)
    return managed, report


def strategy_fingerprint(config) -> str:
    """The adjoint-relevant fingerprint of an ADConfig (folded into the
    compiled backend's memo key and the disk-cache fingerprint)."""
    return resolve_strategy(
        getattr(config, "adjoint", "cache-all")).fingerprint(config)


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
    """Pure-Python model of the IR :class:`CheckpointAdjoint` emits.

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
