"""Constant folding and algebraic simplification.

Folds computational ops with constant operands through the same NumPy
evaluators the interpreter uses, plus a small set of (fast-math style)
identities: ``x+0``, ``x*1``, ``x*0``, ``x-0``, ``0/x`` is left alone,
``select`` on a constant condition, integer identities, and idempotent
``min``/``max``.
"""

from __future__ import annotations

import numpy as np

from ..ir.function import Function, Module
from ..ir.opinfo import OP_INFO
from ..ir.ops import Op
from ..ir.types import F64, I1, I64
from ..ir.values import Constant, Value
from .pass_manager import FunctionPass

_CMP = OP_INFO["cmp"].attrs["preds"]

#: Opcodes :func:`fold_op` can fold without a constant operand.
_SAME_OPERAND = frozenset({"select", "min", "max", "imin", "imax",
                           "and", "or"})


def _const(v) -> Constant:
    if isinstance(v, (np.floating,)):
        return Constant(float(v))
    if isinstance(v, (np.bool_, bool)):
        return Constant(bool(v))
    if isinstance(v, (np.integer, int)):
        return Constant(int(v))
    return Constant(v)


def _is_const(v: Value, val=None) -> bool:
    return isinstance(v, Constant) and (val is None or v.value == val)


def fold_op(op: Op) -> Value | None:
    """The value ``op`` computes when that is a constant or one of its
    own operands, else None.  Looks only at ``op`` and its operands, so
    it can be asked of an op that is in no block yet (the AD emitter
    asks before appending; :class:`ConstantFold` asks of every op of a
    function)."""
    oc = op.opcode
    ops_ = op.operands
    # The usual op folds nothing: no constant operand, and not one of
    # the opcodes with a same-operand identity below.
    if oc not in _SAME_OPERAND:
        for v in ops_:
            if isinstance(v, Constant):
                break
        else:
            return None
    info = OP_INFO.get(oc)
    if info is None:
        return None
    if all(isinstance(v, Constant) for v in ops_):
        if oc == "cmp":
            return _const(_CMP[op.attrs["pred"]](ops_[0].value,
                                                 ops_[1].value))
        if info.evaluate is None:
            return None
        if oc == "select":
            return ops_[1] if ops_[0].value else ops_[2]
        try:
            return _const(info.evaluate(*[v.value for v in ops_]))
        except (ZeroDivisionError, FloatingPointError, ValueError):
            return None

    # Identities (fast-math style; the apps avoid NaN-sensitive
    # corners, matching how the benchmarks are compiled with -O2).
    if oc in ("add", "iadd"):
        if _is_const(ops_[0], 0) or _is_const(ops_[0], 0.0):
            return ops_[1]
        if _is_const(ops_[1], 0) or _is_const(ops_[1], 0.0):
            return ops_[0]
    elif oc in ("sub", "isub"):
        if _is_const(ops_[1], 0) or _is_const(ops_[1], 0.0):
            return ops_[0]
    elif oc in ("mul", "imul"):
        for a, b in ((0, 1), (1, 0)):
            if _is_const(ops_[a], 1) or _is_const(ops_[a], 1.0):
                return ops_[b]
            if _is_const(ops_[a], 0) or _is_const(ops_[a], 0.0):
                return Constant(0, I64) if oc == "imul" else \
                    Constant(0.0, F64)
    elif oc in ("div", "idiv"):
        if _is_const(ops_[1], 1) or _is_const(ops_[1], 1.0):
            return ops_[0]
    elif oc == "select":
        if isinstance(ops_[0], Constant):
            return ops_[1] if ops_[0].value else ops_[2]
        if ops_[1] is ops_[2]:
            return ops_[1]
    elif oc in _SAME_OPERAND:
        if ops_[0] is ops_[1]:
            return ops_[0]
    return None


class ConstantFold(FunctionPass):
    name = "constfold"

    def run(self, fn: Function, module: Module) -> bool:
        changed = False
        replacements: dict[Value, Value] = {}
        for op in fn.walk():
            # First apply pending replacements to operands.
            if replacements:
                new_ops = [replacements.get(v, v) for v in op.operands]
                if any(a is not b for a, b in zip(new_ops, op.operands)):
                    op.operands = new_ops
                    changed = True
            if op.result is None:
                continue
            folded = fold_op(op)
            if folded is not None:
                replacements[op.result] = folded
                changed = True
        if replacements:
            for op in fn.walk():
                new_ops = [replacements.get(v, v) for v in op.operands]
                if any(a is not b for a, b in zip(new_ops, op.operands)):
                    op.operands = new_ops
        return changed
