"""Dead code elimination.

Removes pure ops whose results are never used (arithmetic, loads,
pointer arithmetic, pure intrinsic calls, unused allocations) and empty
control-flow regions.  Iterates to a fixpoint within one invocation.
"""

from __future__ import annotations

from ..ir.function import Function, Module
from ..ir.ops import Block, Op
from ..ir.values import Value
from .pass_manager import FunctionPass

#: Opcodes removable when their result is unused.
_REMOVABLE = frozenset({
    "ptradd", "load", "alloc", "cache_create",
})

_PURE_INTRINSICS = {"mpi.comm_rank", "mpi.comm_size", "rt.num_threads",
                    "jl.arrayptr"}


class DCE(FunctionPass):
    name = "dce"

    def run(self, fn: Function, module: Module) -> bool:
        changed = False
        while self._round(fn, module):
            changed = True
        return changed

    def _round(self, fn: Function, module: Module) -> bool:
        used: set[Value] = set()
        for op in fn.walk():
            for v in op.operands:
                used.add(v)
        from ..ir.opinfo import OP_INFO

        def removable(op: Op) -> bool:
            if op.result is not None and op.result in used:
                return False
            oc = op.opcode
            if oc in OP_INFO:
                return True
            if oc in _REMOVABLE:
                return op.result is not None
            if oc == "call":
                return op.attrs["callee"] in _PURE_INTRINSICS
            if oc == "if":
                return not op.regions[0].ops and not op.regions[1].ops
            if oc in ("for", "parallel_for"):
                return not op.regions[0].ops
            return False

        changed = False
        for op in list(fn.walk()):
            if op.parent is None:
                continue  # already removed with an enclosing region
            if removable(op):
                op.parent.remove(op)
                changed = True
        return changed
