"""Pluggable adjoint storage/recompute strategies.

The min-cut cache planner (§IV-C) stores O(steps) primal state for a
time loop, which caps how long a loop we can differentiate.  This
module makes the storage decision pluggable, in the shape of
optimistix's ``AbstractAdjoint`` hierarchy:

* :class:`CacheAllAdjoint` — the existing behaviour: every loop is a
  cache dimension and the min-cut (or cache-all ablation) plan decides
  value-by-value.  Default, bit-identical to the pre-strategy engine.
* :class:`CheckpointAdjoint` — recursive binary checkpointing over a
  top-level counted loop: the forward sweep runs primal-only and keeps
  ``ceil(log2 N) + 2`` state snapshots (the stack plus the final
  state); the reverse sweep re-runs one augmented iteration at a time
  from the nearest snapshot (O(log N) live state, O(N log N)
  recompute).  Results are bit-identical to cache-all — gradients and
  final primal state: snapshots are bitwise copies and every augmented
  step re-executes exactly the ops of the original forward iteration.
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
from typing import Optional

from ..ir.ops import Block, Op
from ..ir.types import F64, I1, I64
from ..ir.values import Value
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
    """Recursive binary checkpointing (revolve-style) over a counted
    loop, emitted as an iterative stack machine in the IR so the trip
    count may be a runtime value."""

    name = "checkpoint"

    def emit_forward_sweep(self, tr, op: Op) -> None:
        tr._ckpt_forward_loop(op)

    def emit_reverse_sweep(self, tr, op: Op, scope) -> None:
        tr._ckpt_reverse_loop(op, scope)


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


def simulate_schedule(n: int):
    """Pure-Python reference of the checkpoint stack machine.

    Returns ``(order, peak_stack, advance_steps)`` where ``order`` is
    the sequence of iteration indices reversed (must be n-1 .. 0),
    ``peak_stack`` the maximum live snapshot count, and
    ``advance_steps`` the number of primal-only recompute steps.
    Mirrors the IR emitted by :class:`CheckpointAdjoint` exactly —
    tests cross-check both.
    """
    if n <= 0:
        return [], 0, 0
    stack = [(0, n)]
    order: list[int] = []
    advance = 0
    peak = 1
    iters = 0
    while stack:
        lo, hi = stack[-1]
        iters += 1
        if hi - lo <= 1:
            order.append(lo)
            stack.pop()
        else:
            mid = lo + (hi - lo) // 2
            advance += mid - lo
            stack[-1] = (lo, mid)
            stack.append((mid, hi))
            peak = max(peak, len(stack))
    assert iters == 2 * n - 1
    return order, peak, advance
