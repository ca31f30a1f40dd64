"""Dead code elimination.

Removes pure ops whose results are never used (arithmetic, loads,
pointer arithmetic, pure intrinsic calls, unused allocations) and empty
control-flow regions, to a fix-point within one invocation.

Uses are counted once.  Every op is then examined once from the back of
the walk — users before their definitions, a body before its region op
— and a removal re-queues exactly what it can have made removable: the
definition of an operand whose last use just died, the region op whose
body just emptied.  Removing an op never makes another one needed, so
the set removed is the one whole-function rounds repeated until nothing
changes end at, whatever order the ops are in.
"""

from __future__ import annotations

from ..ir.function import Function, Module
from ..ir.intrinsics import REMOVABLE_INTRINSICS
from ..ir.opinfo import OP_INFO
from ..ir.ops import Op
from ..ir.values import Result, Value
from .pass_manager import FunctionPass

#: Opcodes removable when their result is unused.
_REMOVABLE = frozenset({
    "ptradd", "load", "alloc", "cache_create",
})


def _removable(op: Op, uses: dict[Value, int]) -> bool:
    if op.result is not None and uses.get(op.result):
        return False
    oc = op.opcode
    if oc in OP_INFO:
        return True
    if oc in _REMOVABLE:
        return op.result is not None
    if oc == "call":
        return op.attrs["callee"] in REMOVABLE_INTRINSICS
    if oc == "if":
        return not op.regions[0].ops and not op.regions[1].ops
    if oc in ("for", "parallel_for"):
        return not op.regions[0].ops
    return False


class DCE(FunctionPass):
    name = "dce"

    def run(self, fn: Function, module: Module) -> bool:
        work = list(fn.walk())
        uses: dict[Value, int] = {}
        for op in work:
            for v in op.operands:
                uses[v] = uses.get(v, 0) + 1
        changed = False
        while work:     # popped from the end: users before definitions
            op = work.pop()
            block = op.parent
            if block is None or not _removable(op, uses):
                continue    # already removed / still needed
            block.remove(op)
            changed = True
            for v in op.operands:
                uses[v] -= 1
                if not uses[v] and isinstance(v, Result):
                    work.append(v.op)
            if not block.ops and block.parent_op is not None:
                work.append(block.parent_op)
        return changed
