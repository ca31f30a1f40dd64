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
  statement ``_sts(rt, ((a * b) + c), ...)`` with no intermediate
  locals and no per-op Python dispatch.  Pending expressions are pure
  (they only reference SSA locals and constants), so they may float
  past loads, stores and atomics inside a straight-line segment; they
  are materialized at every control-flow boundary (the same points
  where cost segments flush) so evaluation never moves into or out of
  a region, a mask window, or an ``np.errstate`` block.

* :func:`count_uses` — static SSA use counts; a value is fusable only
  if it has exactly one textual use.

* :func:`data_uses` — the values some op consumes as *data*; what is
  left is index arithmetic used only to form addresses, which the
  lowering keeps symbolic: a vector access whose address is affine in
  the lane, ``a + t*lane``, lowers to a slice of the buffer (see
  ``Lowerer._plan``) and the index vector it was computed from is never
  materialised.

Fusion only changes *how many* generated statements there are, never
the arithmetic performed: the fused expression text is exactly the
per-op expressions composed, so IEEE results are bit-identical and the
cost segments (accounted statically at each op) are unchanged.
"""

from __future__ import annotations

from typing import Optional

from ..ir.values import Constant

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


#: Exact integer ops :meth:`IntervalAnalysis.affine_of` opens up
#: (``imul`` only by a constant).
_AFFINE_OPS = frozenset(("iadd", "isub", "ineg", "imul"))


def is_address_arith(op) -> bool:
    """``ptradd``, or integer arithmetic the affine form sees through."""
    oc = op.opcode
    return oc == "ptradd" or (oc in _AFFINE_OPS and (
        oc != "imul" or any(type(v) is Constant for v in op.operands)))


def data_uses(fn) -> set:
    """Values with a use other than forming an address.  An address use
    is the pointer or index operand of a ``load`` / ``store`` /
    ``atomic``, or an operand of address arithmetic
    (:func:`is_address_arith`) whose result has only address uses."""
    data: set = set()
    # Reverse pre-order: SSA puts every use after its definition.
    for op in reversed(list(fn.body.walk())):
        if op.opcode in ("load", "store", "atomic"):
            data.update(op.operands[:-2])  # the stored value, if any
        elif not (is_address_arith(op) and op.result not in data):
            data.update(op.operands)
    return data


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
        #: Vector loads / stores lowered to slices of the buffer (an
        #: address affine in the lane).
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
