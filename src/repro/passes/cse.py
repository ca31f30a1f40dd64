"""Common subexpression elimination (block-local value numbering).

Pure computational ops and pointer arithmetic with identical opcodes,
operands, and attributes within the same block are merged.  Loads are
deliberately not merged (that would require a memory-dependence check;
LICM and OpenMPOpt handle the profitable load cases).
"""

from __future__ import annotations

from ..ir.function import Function, Module
from ..ir.intrinsics import RECOMPUTABLE_INTRINSICS
from ..ir.opinfo import OP_INFO
from ..ir.ops import Block, Op
from ..ir.values import Constant, Value
from .pass_manager import FunctionPass


def value_key(op: Op):
    """What two ops of one block must share to compute the same value
    (None: ``op`` is not value-numbered).  Operands compare by identity,
    so the key means something only while they are alive — among the
    ops of one block, or of one block being filled (the AD emitter)."""
    oc = op.opcode
    info = OP_INFO.get(oc)
    if info is None and oc != "ptradd" and not (
            oc == "call" and op.attrs["callee"] in RECOMPUTABLE_INTRINSICS):
        return None
    if op.result is None:
        return None
    operand_ids = [("c", v.value) if isinstance(v, Constant)
                   else ("v", id(v)) for v in op.operands]
    if info is not None and info.commutative:
        operand_ids.sort()
    attr_items: tuple = ()
    if op.attrs:    # usually empty
        attr_items = tuple(sorted(
            (k, v) for k, v in op.attrs.items()
            if isinstance(v, (str, int, bool, float))))
    return (oc, tuple(operand_ids), attr_items)


class CSE(FunctionPass):
    name = "cse"

    def run(self, fn: Function, module: Module) -> bool:
        self.replacements: dict[Value, Value] = {}
        self._block(fn.body)
        if not self.replacements:
            return False
        for op in fn.walk():
            new_ops = [self.replacements.get(v, v) for v in op.operands]
            if any(a is not b for a, b in zip(new_ops, op.operands)):
                op.operands = new_ops
        # Dead originals are cleaned up by DCE.
        return True

    def _block(self, block: Block) -> None:
        seen: dict = {}
        for op in block.ops:
            # Resolve operands through earlier replacements so chains
            # of identical expressions collapse in one pass.
            if self.replacements:
                op.operands = [self.replacements.get(v, v)
                               for v in op.operands]
            k = value_key(op)
            if k is not None:
                prev = seen.get(k)
                if prev is not None:
                    self.replacements[op.result] = prev.result
                else:
                    seen[k] = op
            for region in op.regions:
                self._block(region)
