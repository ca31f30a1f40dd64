"""Trace fusion for the compiled backend.

The PR-2 lowering emitted exactly one generated statement per IR op:
every elementwise operation became its own NumPy kernel dispatch with
its own materialized temporary, and every load/store paid a generic
helper that re-derived masking, bounds, and width information that the
lowering already knew statically.  This module holds the pieces that
let :class:`repro.interp.lowering.Lowerer` fuse those per-op kernels
(Dr.Jit-style) into larger generated kernels:

* :class:`ExprFuser` — defers single-use pure compute values as
  *pending expressions* instead of emitting an assignment, so a chain
  ``t = a * b; u = t + c; store(u)`` lowers to the single fused
  statement ``_stm(rt, ((a * b) + c), ...)`` with no intermediate
  locals and no per-op Python dispatch.  Pending expressions are pure
  (they only reference SSA locals and constants), so they may float
  past loads, stores and atomics inside a straight-line segment; they
  are materialized at every control-flow boundary (the same points
  where cost segments flush) so evaluation never moves into or out of
  a region, a mask window, or an ``np.errstate`` block.

* :func:`count_uses` — static SSA use counts; a value is fusable only
  if it has exactly one textual use.

* monotonicity algebra (:func:`mono_add`, :func:`mono_scale`) — a tiny
  static analysis the lowering uses to classify index expressions.  A
  value's *mono* is ``0`` (uniform in the vector context), ``+1`` /
  ``-1`` (non-strictly monotone non-decreasing / non-increasing lanes),
  ``+2`` / ``-2`` (*strictly* monotone: induction ``np.arange`` vectors
  and integer affine combinations thereof), or ``None`` (unknown).
  Loads/stores whose resolved index is monotone use the fused-kernel
  memory helpers (``_ldm`` / ``_stm``): bounds come from the two
  endpoint lanes instead of an ``O(width)`` min/max reduction, and
  strictly-monotone index vectors that turn out contiguous at runtime
  (endpoint span == lane count - 1, which for strict integer sequences
  implies consecutiveness) turn gather/scatter into slice copies.
  Strictness survives only exact integer arithmetic (``iadd``/``isub``/
  ``ineg``/``imul`` by a signed constant and ``ptradd``); float ops,
  ``ftoi`` rounding and min/max clamps demote to non-strict, which
  still permits endpoint bounds but never slicing.  The analysis is
  sound up to int64 overflow of the index arithmetic — the same point
  where the interpreter's own gather would already be wrapping.

Fusion only changes *how many* generated statements there are, never
the arithmetic performed: the fused expression text is exactly the
per-op expressions composed, so IEEE results are bit-identical and the
cost segments (accounted statically at each op) are unchanged.
"""

from __future__ import annotations

from typing import Optional

#: Caps keeping one fused statement's source manageable: compute ops
#: folded into a single expression and total expression characters.
FUSE_OP_CAP = 48
FUSE_CHAR_CAP = 2000


def count_uses(fn) -> dict:
    """Number of operand occurrences of every SSA value in ``fn``."""
    uses: dict = {}
    for op in fn.body.walk():
        for v in op.operands:
            uses[v] = uses.get(v, 0) + 1
    return uses


# ---------------------------------------------------------------------------
# Monotonicity algebra
# ---------------------------------------------------------------------------

def mono_add(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Mono class of ``x + y`` given the operands' classes.

    Same-direction sums keep the stronger strictness (strictly
    increasing + non-decreasing is strictly increasing); opposing
    directions are unknown.
    """
    if a is None or b is None:
        return None
    if a == 0:
        return b
    if b == 0:
        return a
    if (a > 0) != (b > 0):
        return None  # opposing directions
    mag = max(abs(a), abs(b))
    return mag if a > 0 else -mag


def mono_neg(a: Optional[int]) -> Optional[int]:
    return None if a is None else -a


def mono_scale(a: Optional[int], scale_sign: Optional[int]) -> Optional[int]:
    """Mono class of ``x * c`` for a constant of known sign (integer
    scaling: any nonzero integer constant has magnitude >= 1, so
    strictness survives)."""
    if a is None or scale_sign is None:
        return None
    if a == 0 or scale_sign == 0:
        return 0
    return a if scale_sign > 0 else -a


def mono_relax(a: Optional[int]) -> Optional[int]:
    """Demote strict monotonicity to non-strict (rounding, clamping and
    float arithmetic can introduce repeated lanes)."""
    if a is None or a == 0:
        return a
    return 1 if a > 0 else -1


class FusionStats:
    """Counters describing what fusion did to one lowered function."""

    __slots__ = ("ops", "kernels", "fused_ops", "mono_loads",
                 "mono_stores", "fast_atomics", "bounds_proven",
                 "bounds_unproven", "checks_elided")

    def __init__(self) -> None:
        #: Pure compute ops seen by the lowering.
        self.ops = 0
        #: Generated statements that evaluate at least one compute op
        #: (each is one fused kernel; unfused, this would equal `ops`).
        self.kernels = 0
        #: Compute ops folded into another statement's expression.
        self.fused_ops = 0
        #: Loads / stores lowered through the monotone fast helpers.
        self.mono_loads = 0
        self.mono_stores = 0
        #: Atomics lowered through the statically-unmasked fast helper.
        self.fast_atomics = 0
        #: Memory accesses classified by the interval analysis
        #: (repro.passes.intervals): statically certified in-bounds vs
        #: not (unproven sites keep their runtime checks).
        self.bounds_proven = 0
        self.bounds_unproven = 0
        #: Open-coded runtime bounds checks actually dropped from the
        #: generated source on certified sites.
        self.checks_elided = 0

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in FusionStats.__slots__}

    @classmethod
    def from_dict(cls, counts: dict) -> "FusionStats":
        """Inverse of :meth:`as_dict`; any other set of keys raises."""
        if set(counts) != set(cls.__slots__):
            raise ValueError(f"not a FusionStats dict: {sorted(counts)}")
        stats = cls()
        for slot, n in counts.items():
            setattr(stats, slot, n)
        return stats

    def __repr__(self) -> str:
        return f"FusionStats({self.as_dict()})"


class ExprFuser:
    """Pending-expression bookkeeping for one :class:`Lowerer`.

    ``defer`` records a value's expression instead of emitting it;
    ``take`` pops the pending expression when its single consumer
    inlines it; ``flush`` materializes everything still pending (in
    definition order) through the lowerer's ``emit``/``bind``.
    """

    __slots__ = ("lowerer", "pending", "stats")

    def __init__(self, lowerer) -> None:
        self.lowerer = lowerer
        #: Value -> (expr, nops) in insertion order.
        self.pending: dict = {}
        self.stats = FusionStats()

    # ------------------------------------------------------------------
    def defer(self, value, expr: str, nops: int) -> None:
        self.pending[value] = (expr, nops)

    def take(self, value) -> Optional[tuple]:
        """Pop and return ``(expr, nops)`` if ``value`` is pending."""
        ent = self.pending.pop(value, None)
        if ent is not None:
            # The python expression is being inlined; the parallel
            # C rendering (if any) can no longer be claimed on its own.
            self.lowerer.cpend.pop(value, None)
        return ent

    def pending_nops(self, value) -> int:
        entry = self.pending.get(value)
        return entry[1] if entry is not None else 0

    # ------------------------------------------------------------------
    def materialize(self, value) -> Optional[str]:
        """Force one pending value into a local; returns its name."""
        entry = self.pending.pop(value, None)
        if entry is None:
            return None
        expr = entry[0]
        lo = self.lowerer
        # The native tier may claim the whole chain as a C kernel call
        # (with `expr` kept inline as the runtime fallback).
        name = lo.native_materialize(value, expr)
        if name is None:
            name = lo.fresh("v")
            lo.names[value] = name
            lo.emit(f"{name} = {expr}")
        self.stats.kernels += 1
        return name

    def flush(self) -> None:
        for value in list(self.pending):
            self.materialize(value)
