"""Forward-mode AD (paper §III).

Enzyme "uses reverse mode by default" — but forward mode (tangent
propagation) is part of the framework and is the efficient choice for
few-inputs/many-outputs seeding.  Forward mode is also the easy case of
the paper's parallel model: tangents propagate *in program order*, so
every parallel construct keeps its own shape — a parallel loop's
tangent is computed inside the same parallel loop, a send's tangent is
a second send of the shadow buffer ("twice the number of MPI calls",
§IV-B), and no caching is ever required.

``autodiff_forward(module, fn, activities)`` generates
``fwddiffe_<fn>`` with the same Duplicated calling convention as
reverse mode: shadow inputs carry tangents in, shadow outputs carry
tangents out.
"""

from __future__ import annotations

from typing import Optional

from ..ir.builder import IRBuilder
from ..ir.function import Function, Module
from ..ir.opinfo import OP_INFO
from ..ir.ops import (
    AllocOp,
    AtomicRMWOp,
    Block,
    CallOp,
    ComputeOp,
    ForOp,
    ForkOp,
    IfOp,
    LoadOp,
    MemcpyOp,
    MemsetOp,
    Op,
    ParallelForOp,
    PtrAddOp,
    SpawnOp,
    StoreOp,
    WhileOp,
)
from ..ir.types import F64, I64, PointerType, Request, Task, Token, Void
from ..ir.values import Argument, Constant, Value
from ..passes.inline import force_inline_all
from .transform import ADConfig, ADTransformError, Const, Duplicated

#: Offset added to MPI tags of tangent messages so primal and tangent
#: streams never cross-match.
TANGENT_TAG_OFFSET = 1 << 20


def autodiff_forward(module: Module, fn_name: str, activities: list,
                     config: Optional[ADConfig] = None) -> str:
    return _ForwardTransform(module, fn_name, activities,
                             config or ADConfig()).build()


class _ForwardTransform:
    def __init__(self, module, fn_name, activities, config) -> None:
        self.module = module
        self.src_name = fn_name
        self.activities = [a if a is not None else Const
                           for a in activities]
        self.config = config
        self.grad_name = "fwddiffe_" + fn_name
        self.pm: dict[Value, Value] = {}
        self.tm: dict[Value, Value] = {}   # float value -> tangent
        self.sm: dict[Value, Value] = {}   # pointer/handle -> shadow
        #: Pointers into Const (non-Duplicated) argument buffers.  Their
        #: "shadow" is the primal buffer itself, so float tangents read
        #: through them are zero and tangent writes are dropped.
        self.inactive: set[Value] = set()

    # ------------------------------------------------------------------
    def build(self) -> str:
        if self.grad_name in self.module.functions:
            return self.grad_name
        work = f"__fwd_work_{self.src_name}"
        self.fn = self.module.clone_function(self.src_name, work)
        force_inline_all(self.fn, self.module)
        if self.config.opt_level != "none":
            from ..passes.pass_manager import default_pipeline
            default_pipeline().run_function(self.fn, self.module)

        if len(self.activities) != len(self.fn.args):
            raise ADTransformError("activity count mismatch")

        args, attrs = [], []
        for a, kind in zip(self.fn.args, self.activities):
            args.append((a.name, a.type))
            attrs.append(dict(a.attrs))
            if kind == Duplicated:
                if not isinstance(a.type, PointerType):
                    raise ADTransformError(
                        "forward mode supports Duplicated pointer "
                        "arguments")
                args.append(("d_" + a.name, a.type))
                attrs.append(dict(a.attrs))
        self.grad = Function(self.grad_name, args, self.fn.ret_type, attrs)
        self.module.add_function(self.grad)

        gi = iter(self.grad.args)
        for a, kind in zip(self.fn.args, self.activities):
            ga = next(gi)
            self.pm[a] = ga
            if kind == Duplicated:
                self.sm[a] = next(gi)
            elif isinstance(a.type, PointerType):
                self.sm[a] = ga
                self.inactive.add(a)

        self.b = IRBuilder(self.module)
        self.b._fn = self.grad
        self.b._blocks.append(self.grad.body)
        from ..ir.values import pop_builder, push_builder
        push_builder(self.b)
        try:
            self._block(self.fn.body)
            if self.fn.ret_type is Void and (
                    not self.grad.body.ops
                    or self.grad.body.ops[-1].opcode != "return"):
                from ..ir.ops import ReturnOp
                self.grad.body.append(ReturnOp([]))
        finally:
            pop_builder(self.b)
            self.b._blocks.pop()
        del self.module.functions[work]
        if self.config.verify:
            from ..ir.verifier import verify_function
            verify_function(self.grad, self.module)
        return self.grad_name

    # ------------------------------------------------------------------
    def _v(self, x: Value) -> Value:
        if isinstance(x, Constant):
            return x
        return self.pm[x]

    def _t(self, x: Value) -> Value:
        """Tangent of a float value (0 for constants/inactive)."""
        if isinstance(x, Constant):
            return Constant(0.0, F64)
        return self.tm.get(x, Constant(0.0, F64))

    def _s(self, p: Value) -> Value:
        out = self.sm.get(p)
        if out is None:
            raise ADTransformError(f"no shadow for pointer {p!r}")
        return out

    # ------------------------------------------------------------------
    def _block(self, block: Block) -> None:
        b = self.b
        for op in block.ops:
            oc = op.opcode
            if oc in OP_INFO:
                new = ComputeOp(oc, [self._v(v) for v in op.operands],
                                dict(op.attrs))
                b.emit(new)
                self.pm[op.result] = new.result
                self._emit_tangent(op, new)
            elif oc == "alloc":
                new = AllocOp(self._v(op.operands[0]),
                              op.result.type.elem, op.attrs["space"],
                              name=op.result.name)
                b.emit(new)
                self.pm[op.result] = new.result
                tw = AllocOp(self._v(op.operands[0]), op.result.type.elem,
                             op.attrs["space"],
                             name="d_" + (op.result.name or "buf"))
                b.emit(tw)
                self.sm[op.result] = tw.result
            elif oc == "ptradd":
                new = PtrAddOp(self._v(op.operands[0]),
                               self._v(op.operands[1]))
                b.emit(new)
                self.pm[op.result] = new.result
                if op.operands[0] in self.inactive:
                    self.sm[op.result] = new.result
                    self.inactive.add(op.result)
                    continue
                tw = PtrAddOp(self._s(op.operands[0]),
                              self._v(op.operands[1]))
                b.emit(tw)
                self.sm[op.result] = tw.result
            elif oc == "load":
                new = LoadOp(self._v(op.operands[0]),
                             self._v(op.operands[1]))
                b.emit(new)
                self.pm[op.result] = new.result
                elem = op.result.type
                if op.operands[0] in self.inactive:
                    # Const data: zero tangent; a loaded pointer keeps
                    # pointing into Const memory.
                    if elem is not F64:
                        self.sm[op.result] = new.result
                        self.inactive.add(op.result)
                    continue
                tw = LoadOp(self._s(op.operands[0]),
                            self._v(op.operands[1]))
                b.emit(tw)
                if elem is F64:
                    self.tm[op.result] = tw.result
                else:
                    self.sm[op.result] = tw.result
            elif oc == "store":
                val = op.operands[0]
                b.emit(StoreOp(self._v(val), self._v(op.operands[1]),
                               self._v(op.operands[2])))
                if op.operands[1] in self.inactive:
                    continue
                if val.type is F64:
                    b.emit(StoreOp(self._coerce_t(val),
                                   self._s(op.operands[1]),
                                   self._v(op.operands[2])))
                elif isinstance(val.type, PointerType) or \
                        val.type in (Request, Task):
                    b.emit(StoreOp(self._s(val), self._s(op.operands[1]),
                                   self._v(op.operands[2])))
            elif oc == "atomic":
                b.emit(AtomicRMWOp(op.attrs["kind"],
                                   self._v(op.operands[0]),
                                   self._v(op.operands[1]),
                                   self._v(op.operands[2])))
                if op.operands[1] in self.inactive:
                    continue
                if op.attrs["kind"] == "add":
                    b.emit(AtomicRMWOp("add", self._coerce_t(op.operands[0]),
                                       self._s(op.operands[1]),
                                       self._v(op.operands[2])))
                else:
                    raise ADTransformError(
                        "forward mode: atomic min/max unsupported")
            elif oc == "memset":
                b.emit(MemsetOp(self._v(op.operands[0]),
                                self._v(op.operands[1]),
                                self._v(op.operands[2])))
                if op.operands[0] in self.inactive:
                    continue
                b.emit(MemsetOp(self._s(op.operands[0]),
                                Constant(0.0, F64),
                                self._v(op.operands[2])))
            elif oc == "memcpy":
                b.emit(MemcpyOp(self._v(op.operands[0]),
                                self._v(op.operands[1]),
                                self._v(op.operands[2])))
                if op.operands[0] in self.inactive:
                    continue
                if op.operands[1] in self.inactive:
                    # Copy from Const data: the destination tangent is 0.
                    b.emit(MemsetOp(self._s(op.operands[0]),
                                    Constant(0.0, F64),
                                    self._v(op.operands[2])))
                    continue
                b.emit(MemcpyOp(self._s(op.operands[0]),
                                self._s(op.operands[1]),
                                self._v(op.operands[2])))
            elif oc == "free":
                from ..ir.ops import FreeOp
                b.emit(FreeOp(self._v(op.operands[0])))
                b.emit(FreeOp(self._s(op.operands[0])))
            elif oc == "return":
                from ..ir.ops import ReturnOp
                b.emit(ReturnOp([self._v(v) for v in op.operands]))
            elif oc == "condition":
                from ..ir.ops import ConditionOp
                b.emit(ConditionOp(self._v(op.operands[0])))
            elif oc == "barrier":
                b.barrier()
            elif oc in ("for", "while", "parallel_for", "fork", "if",
                        "spawn"):
                self._region(op)
            elif oc == "call":
                self._call(op)
            else:
                raise ADTransformError(f"forward mode: unhandled {op!r}")

    def _coerce_t(self, v: Value) -> Value:
        t = self._t(v)
        return t

    def _emit_tangent(self, op: Op, new: Op) -> None:
        if op.result is None or op.result.type is not F64:
            return
        from .rules import RULES, ZERO_DERIVATIVE
        if op.opcode in ZERO_DERIVATIVE:
            return
        rule = RULES.get(op.opcode)
        if rule is None:
            return
        b = self.b

        def active(i: int) -> bool:
            o = op.operands[i]
            return o.type is F64 and not isinstance(o, Constant)

        # availability: primal values are in scope (same pass)
        def av(v: Value) -> Value:
            return self._v(v)

        total: Optional[Value] = None
        # Reuse the reverse rules with adj := tangent of each operand:
        # tangent(result) = sum_i (d result / d operand_i) * tangent_i.
        # rule.emit(adj=1 * tangent_i) gives exactly those products.
        for i, contrib in _jvp_contribs(rule, b, op, av, active, self._t):
            total = contrib if total is None else b.add(total, contrib)
        if total is not None:
            self.tm[op.result] = total

    # ------------------------------------------------------------------
    def _region(self, op: Op) -> None:
        b = self.b
        oc = op.opcode
        if oc == "for":
            new = ForOp(self._v(op.operands[0]), self._v(op.operands[1]),
                        self._v(op.operands[2]),
                        workshare=op.attrs.get("workshare", False),
                        simd=op.attrs.get("simd", False),
                        nowait=op.attrs.get("nowait", False),
                        ivar_name=op.body.args[0].name)
        elif oc == "while":
            new = WhileOp(ivar_name=op.body.args[0].name)
        elif oc == "parallel_for":
            new = ParallelForOp(self._v(op.operands[0]),
                                self._v(op.operands[1]),
                                framework=op.attrs.get("framework",
                                                       "openmp"))
        elif oc == "fork":
            new = ForkOp(self._v(op.operands[0]),
                         framework=op.attrs.get("framework", "openmp"))
        elif oc == "if":
            new = IfOp(self._v(op.operands[0]))
            b.emit(new)
            with b.at(new.then_body):
                self._block(op.then_body)
            with b.at(new.else_body):
                self._block(op.else_body)
            return
        elif oc == "spawn":
            new = SpawnOp(framework=op.attrs.get("framework", "julia"))
            b.emit(new)
            self.pm[op.result] = new.result
            self.sm[op.result] = new.result  # single task carries both
            with b.at(new.body):
                self._block(op.body)
            return
        else:  # pragma: no cover
            raise ADTransformError(oc)
        b.emit(new)
        for old_arg, new_arg in zip(op.body.args, new.body.args):
            self.pm[old_arg] = new_arg
        with b.at(new.regions[0]):
            self._block(op.regions[0])

    # ------------------------------------------------------------------
    def _call(self, op: CallOp) -> None:
        b = self.b
        callee = op.attrs["callee"]
        args = [self._v(v) for v in op.operands]

        def clone(result_shadow: Optional[str] = None):
            new = CallOp(callee, args,
                         op.result.type if op.result else Void,
                         dict(op.attrs))
            b.emit(new)
            if op.result is not None:
                self.pm[op.result] = new.result
            return new

        if callee in ("mpi.comm_rank", "mpi.comm_size", "rt.num_threads",
                      "rt.assert_ge", "mpi.barrier", "jl.safepoint"):
            clone()
            return
        if callee == "jl.arrayptr":
            new = clone()
            tw = CallOp(callee, [self._s(op.operands[0])], op.result.type)
            b.emit(tw)
            self.sm[op.result] = tw.result
            return
        if callee == "jl.gc_preserve_begin":
            ptrs = list(args)
            for v in op.operands:
                s = self.sm.get(v)
                if s is not None and s not in ptrs:
                    ptrs.append(s)
            new = CallOp(callee, ptrs, Token)
            b.emit(new)
            self.pm[op.result] = new.result
            return
        if callee == "jl.gc_preserve_end":
            clone()
            return
        if callee == "task.wait":
            clone()
            return
        if callee in ("mpi.send", "mpi.recv", "mpi.isend", "mpi.irecv"):
            new = clone()
            shadow_args = [self._s(op.operands[0]), args[1], args[2],
                           b.add(args[3], TANGENT_TAG_OFFSET)]
            tw = CallOp(callee, shadow_args,
                        op.result.type if op.result else Void)
            b.emit(tw)
            if op.result is not None:
                self.sm[op.result] = tw.result
            return
        if callee == "mpi.wait":
            clone()
            b.emit(CallOp("mpi.wait", [self._s(op.operands[0])], Void))
            return
        if callee == "mpi.allreduce":
            if op.attrs.get("op", "sum") != "sum":
                raise ADTransformError(
                    "forward mode: only sum allreduce has a tangent rule")
            clone()
            b.emit(CallOp("mpi.allreduce",
                          [self._s(op.operands[0]),
                           self._s(op.operands[1]), args[2]],
                          Void, {"op": "sum"}))
            return
        if callee in ("mpi.bcast",):
            clone()
            b.emit(CallOp("mpi.bcast",
                          [self._s(op.operands[0]), args[1], args[2]],
                          Void))
            return
        raise ADTransformError(f"forward mode: no rule for {callee!r}")


def _jvp_contribs(rule, b, op, av, active, tangent_of):
    """Products (d result/d operand_i) * tangent_i via the reverse rules
    evaluated with adj = tangent_i per operand."""
    out = []
    for i, v in enumerate(op.operands):
        if not active(i):
            continue
        t = tangent_of(v)
        if isinstance(t, Constant) and t.value == 0.0:
            continue
        only_i = (lambda j, i=i: j == i)
        for j, contrib in rule.emit(b, op, t, av, only_i):
            assert j == i
            out.append((i, contrib))
    return out
