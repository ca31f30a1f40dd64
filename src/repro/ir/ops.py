"""Operation and region classes of the repro IR.

The IR is a structured-control-flow SSA IR in the spirit of MLIR's SCF
dialect sitting on an LLVM-style memory model:

* straight-line computational ops (tables in :mod:`repro.ir.opinfo`),
* explicit memory ops (``alloc``/``load``/``store``/``atomic``/...),
* region-bearing structured ops (``for``, ``if``, ``while``,
  ``parallel_for``, ``fork``, ``spawn``),
* calls to user functions and runtime intrinsics (``mpi.*``, ``jl.*``).

Regions carry *no* results; values flow out of regions through memory,
just like un-promoted LLVM IR.  This matches how Enzyme sees real
programs (closures capture state through memory) and keeps the adjoint
generation rules uniform.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .opinfo import OP_INFO
from .types import (
    F64,
    I1,
    I64,
    PointerType,
    Ptr,
    Task,
    Token,
    Type,
    Void,
)
from .values import BlockArg, Constant, Result, Value

_op_counter = itertools.count()


class Block:
    """A region: an ordered list of operations plus block arguments."""

    __slots__ = ("ops", "args", "parent_op", "parent_function")

    def __init__(self, arg_types: Optional[list[tuple[Type, str]]] = None,
                 parent_op: Optional["Op"] = None) -> None:
        self.ops: list[Op] = []
        self.args: list[BlockArg] = []
        self.parent_op = parent_op
        self.parent_function = None
        for i, (t, name) in enumerate(arg_types or []):
            self.args.append(BlockArg(t, name, parent_op, i))

    def append(self, op: "Op") -> "Op":
        op.parent = self
        self.ops.append(op)
        return op

    def insert(self, index: int, op: "Op") -> "Op":
        op.parent = self
        self.ops.insert(index, op)
        return op

    def remove(self, op: "Op") -> None:
        self.ops.remove(op)
        op.parent = None

    def walk(self) -> Iterator["Op"]:
        """Pre-order walk over all ops in this block, recursively.  One
        generator frame whatever the nesting depth; a block's op list
        is snapshotted when the walk reaches that block, so the caller
        may remove the op it was just handed."""
        stack = [iter(list(self.ops))]
        while stack:
            for op in stack[-1]:
                yield op
                if op.regions:
                    stack.append(itertools.chain.from_iterable(
                        map(list, op.regions)))
                    break
            else:
                stack.pop()

    def __iter__(self) -> Iterator["Op"]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)


class Op:
    """Base class for all operations.

    Subclasses with regions must keep ``self.regions`` in sync; the
    generic :meth:`clone` handles operands, attributes, regions and
    block arguments.
    """

    __slots__ = ("opcode", "operands", "attrs", "regions", "result",
                 "parent", "uid", "_interp")

    def __init__(self, opcode: str, operands: list[Value],
                 result_type: Optional[Type] = None,
                 attrs: Optional[dict] = None,
                 regions: Optional[list[Block]] = None,
                 name: str = "") -> None:
        self.opcode = opcode
        self.operands = list(operands)
        self.attrs = dict(attrs or {})
        self.regions = regions or []
        for r in self.regions:
            r.parent_op = self
        self.parent: Optional[Block] = None
        self.uid = next(_op_counter)
        #: Interpreter scratch: decoded operand accessors, filled lazily
        #: by the dispatch fast path (never part of IR semantics).
        self._interp = None
        if result_type is not None and result_type is not Void:
            self.result = Result(result_type, self, name or f"%{self.uid}")
        else:
            self.result = None

    # ------------------------------------------------------------------
    @property
    def has_regions(self) -> bool:
        return bool(self.regions)

    @property
    def is_pure(self) -> bool:
        info = OP_INFO.get(self.opcode)
        return bool(info and info.pure)

    def operand(self, i: int) -> Value:
        return self.operands[i]

    def replace_operand(self, old: Value, new: Value) -> None:
        self.operands = [new if v is old else v for v in self.operands]

    def walk(self) -> Iterator["Op"]:
        yield self
        for region in self.regions:
            yield from region.walk()

    # ------------------------------------------------------------------
    def clone(self, value_map: dict[Value, Value]) -> "Op":
        """Deep-clone this op, remapping operands through ``value_map``.

        Block arguments of cloned regions are recreated and recorded in
        ``value_map`` so nested uses remap correctly.  Results are also
        recorded, so cloning a block keeps SSA def-use intact.
        """
        new_operands = [value_map.get(v, v) for v in self.operands]
        cls = type(self)
        new = cls.__new__(cls)
        Op.__init__(
            new, self.opcode, new_operands,
            result_type=self.result.type if self.result else None,
            attrs=dict(self.attrs),
        )
        # Copy subclass slots that are not part of Op's core state.
        for slot in getattr(cls, "__slots__", ()):
            if slot not in Op.__slots__:
                setattr(new, slot, getattr(self, slot))
        new.regions = []
        for region in self.regions:
            new_region = Block(parent_op=new)
            for arg in region.args:
                new_arg = BlockArg(arg.type, arg.name, new, arg.index)
                new_region.args.append(new_arg)
                value_map[arg] = new_arg
            for op in region.ops:
                new_region.append(op.clone(value_map))
            new.regions.append(new_region)
        if self.result is not None:
            value_map[self.result] = new.result
        return new

    def __repr__(self) -> str:
        res = f"{self.result.name} = " if self.result else ""
        return f"<{res}{self.opcode} #{self.uid}>"


# ---------------------------------------------------------------------------
# Computational ops
# ---------------------------------------------------------------------------

class ComputeOp(Op):
    """An op from the :data:`repro.ir.opinfo.OP_INFO` table."""

    __slots__ = ()

    def __init__(self, opcode: str, operands: list[Value],
                 attrs: Optional[dict] = None) -> None:
        info = OP_INFO[opcode]
        if len(operands) != info.arity:
            raise TypeError(
                f"{opcode} expects {info.arity} operands, got {len(operands)}")
        rt = info.result_type([v.type for v in operands])
        super().__init__(opcode, operands, result_type=rt, attrs=attrs)


# ---------------------------------------------------------------------------
# Memory ops
# ---------------------------------------------------------------------------

#: Memory spaces.  "stack": function-local; "heap": explicit malloc/free;
#: "gc": garbage collected (Julia frontend).
MEM_SPACES = ("stack", "heap", "gc")


class AllocOp(Op):
    """Allocate ``count`` slots of ``elem`` type; result is a pointer."""

    __slots__ = ()

    def __init__(self, count: Value, elem: Type = F64,
                 space: str = "stack", name: str = "") -> None:
        assert space in MEM_SPACES, space
        super().__init__("alloc", [count], result_type=Ptr(elem),
                         attrs={"space": space, "zero": True}, name=name)


class FreeOp(Op):
    __slots__ = ()

    def __init__(self, ptr: Value) -> None:
        super().__init__("free", [ptr])


class LoadOp(Op):
    """``result = ptr[idx]``."""

    __slots__ = ()

    def __init__(self, ptr: Value, idx: Value) -> None:
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"load from non-pointer {ptr.type}")
        super().__init__("load", [ptr, idx], result_type=ptr.type.elem)

    @property
    def ptr(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]


class StoreOp(Op):
    """``ptr[idx] = value``."""

    __slots__ = ()

    def __init__(self, value: Value, ptr: Value, idx: Value) -> None:
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"store to non-pointer {ptr.type}")
        super().__init__("store", [value, ptr, idx])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def ptr(self) -> Value:
        return self.operands[1]

    @property
    def index(self) -> Value:
        return self.operands[2]


ATOMIC_KINDS = ("add", "min", "max")


class AtomicRMWOp(Op):
    """``ptr[idx] <kind>= value`` performed atomically.

    The optional ``via`` attribute records how a shadow increment is
    lowered when a hardware atomic is not needed: ``'reduction'`` (a
    registered cross-thread reduction) or ``'lanes'`` (the lanes of one
    thread's vectorised ``simd`` statement, combined in lane order —
    costed as the serial load-add-store it stands for).  All three
    execute as the same conflict-safe read-modify-write.
    """

    __slots__ = ()

    def __init__(self, kind: str, value: Value, ptr: Value, idx: Value) -> None:
        assert kind in ATOMIC_KINDS, kind
        super().__init__("atomic", [value, ptr, idx], attrs={"kind": kind})

    @property
    def kind(self) -> str:
        return self.attrs["kind"]

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def ptr(self) -> Value:
        return self.operands[1]

    @property
    def index(self) -> Value:
        return self.operands[2]


class PtrAddOp(Op):
    """``result = ptr + idx`` (element-granular pointer arithmetic)."""

    __slots__ = ()

    def __init__(self, ptr: Value, idx: Value) -> None:
        super().__init__("ptradd", [ptr, idx], result_type=ptr.type)


class MemsetOp(Op):
    """Set ``count`` elements starting at ``ptr`` to ``value``."""

    __slots__ = ()

    def __init__(self, ptr: Value, value: Value, count: Value) -> None:
        super().__init__("memset", [ptr, value, count])


class MemcpyOp(Op):
    """Copy ``count`` elements from ``src`` to ``dst``."""

    __slots__ = ()

    def __init__(self, dst: Value, src: Value, count: Value) -> None:
        super().__init__("memcpy", [dst, src, count])


# ---------------------------------------------------------------------------
# Calls / returns
# ---------------------------------------------------------------------------

class CallOp(Op):
    """Call a user function or a runtime intrinsic by symbol name.

    Parallel runtimes are *identified by callee name*, mirroring how
    Enzyme recognizes ``__kmpc_fork_call`` or ``MPI_Isend`` in LLVM IR
    (paper §V-A).
    """

    __slots__ = ()

    def __init__(self, callee: str, args: list[Value],
                 result_type: Type = Void,
                 attrs: Optional[dict] = None) -> None:
        a = dict(attrs or {})
        a["callee"] = callee
        super().__init__("call", args, result_type=result_type, attrs=a)

    @property
    def callee(self) -> str:
        return self.attrs["callee"]


class ReturnOp(Op):
    __slots__ = ()

    def __init__(self, values: Optional[list[Value]] = None) -> None:
        super().__init__("return", list(values or []))


# ---------------------------------------------------------------------------
# Structured control flow
# ---------------------------------------------------------------------------

class ForOp(Op):
    """A counted serial loop ``for i in range(lb, ub, step)``.

    ``workshare=True`` marks an OpenMP-style worksharing loop: it must
    appear inside a :class:`ForkOp` region, splits its iteration space
    among the region's threads, and carries an implicit trailing
    barrier (unless ``nowait``).

    ``simd=True`` asserts iterations are independent (up to atomics).
    Every executor runs the *outermost* such loop vectorized — the
    induction variable is bound to an index vector, one vector
    statement per op; ``simd`` loops nested inside a vectorized region
    run serially.  Its reverse is again a ``simd`` loop (see
    :mod:`repro.ad.tls` for the per-lane increment rule).
    """

    __slots__ = ()

    def __init__(self, lb: Value, ub: Value, step: Value,
                 workshare: bool = False, simd: bool = False,
                 nowait: bool = False, ivar_name: str = "i") -> None:
        super().__init__("for", [lb, ub, step],
                         attrs={"workshare": workshare, "simd": simd,
                                "nowait": nowait})
        body = Block(arg_types=[(I64, ivar_name)], parent_op=self)
        self.regions = [body]

    @property
    def lb(self) -> Value:
        return self.operands[0]

    @property
    def ub(self) -> Value:
        return self.operands[1]

    @property
    def step(self) -> Value:
        return self.operands[2]

    @property
    def body(self) -> Block:
        return self.regions[0]

    @property
    def ivar(self) -> BlockArg:
        return self.body.args[0]


class ParallelForOp(Op):
    """A parallel loop over ``[lb, ub)`` with independent iterations.

    This is the high-level worksharing construct (``#pragma omp parallel
    for`` after fusion of the fork and the workshare loop).  The
    ``framework`` attribute records which frontend produced it ("openmp",
    "raja", "julia", ...) — used for reporting and runtime selection,
    never for differentiation (§V-D: lowered constructs need no special
    AD support).
    """

    __slots__ = ()

    def __init__(self, lb: Value, ub: Value, framework: str = "openmp",
                 ivar_name: str = "i", schedule: str = "static") -> None:
        super().__init__("parallel_for", [lb, ub],
                         attrs={"framework": framework, "schedule": schedule})
        body = Block(arg_types=[(I64, ivar_name)], parent_op=self)
        self.regions = [body]

    @property
    def lb(self) -> Value:
        return self.operands[0]

    @property
    def ub(self) -> Value:
        return self.operands[1]

    @property
    def body(self) -> Block:
        return self.regions[0]

    @property
    def ivar(self) -> BlockArg:
        return self.body.args[0]


class ForkOp(Op):
    """An explicit parallel region (``__kmpc_fork``-style).

    The body runs once per thread with block args ``(tid, nthreads)``.
    ``num_threads`` of 0 means "use the runtime's thread count".
    """

    __slots__ = ()

    def __init__(self, num_threads: Value, framework: str = "openmp") -> None:
        super().__init__("fork", [num_threads], attrs={"framework": framework})
        body = Block(arg_types=[(I64, "tid"), (I64, "nthreads")],
                     parent_op=self)
        self.regions = [body]

    @property
    def num_threads(self) -> Value:
        return self.operands[0]

    @property
    def body(self) -> Block:
        return self.regions[0]

    @property
    def tid(self) -> BlockArg:
        return self.body.args[0]

    @property
    def nthreads(self) -> BlockArg:
        return self.body.args[1]


class BarrierOp(Op):
    """Thread barrier inside a fork region."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("barrier", [])


class IfOp(Op):
    """``if cond: then_region else: else_region`` (no results)."""

    __slots__ = ()

    def __init__(self, cond: Value) -> None:
        if cond.type is not I1:
            raise TypeError("if condition must be i1")
        super().__init__("if", [cond])
        self.regions = [Block(parent_op=self), Block(parent_op=self)]

    @property
    def cond(self) -> Value:
        return self.operands[0]

    @property
    def then_body(self) -> Block:
        return self.regions[0]

    @property
    def else_body(self) -> Block:
        return self.regions[1]


class WhileOp(Op):
    """A do-while loop.

    The body executes, then its terminating :class:`ConditionOp` decides
    whether to run another iteration.  The block arg is the iteration
    counter (useful for trip-count caching in the adjoint).
    """

    __slots__ = ()

    def __init__(self, ivar_name: str = "it") -> None:
        super().__init__("while", [])
        body = Block(arg_types=[(I64, ivar_name)], parent_op=self)
        self.regions = [body]

    @property
    def body(self) -> Block:
        return self.regions[0]

    @property
    def ivar(self) -> BlockArg:
        return self.body.args[0]


class ConditionOp(Op):
    """Terminator of a while body: continue when the operand is true."""

    __slots__ = ()

    def __init__(self, cond: Value) -> None:
        if cond.type is not I1:
            raise TypeError("while condition must be i1")
        super().__init__("condition", [cond])

    @property
    def cond(self) -> Value:
        return self.operands[0]


class SpawnOp(Op):
    """Spawn the body as an asynchronous task; result is a task handle.

    This models ``Base.Threads.@spawn`` / ``Base.enq_work`` (paper §V-B):
    the adjoint of a spawn is a wait on the corresponding shadow task,
    and the adjoint of a wait is a spawn of the adjoint task.
    """

    __slots__ = ()

    def __init__(self, framework: str = "julia") -> None:
        super().__init__("spawn", [], result_type=Task,
                         attrs={"framework": framework})
        self.regions = [Block(parent_op=self)]

    @property
    def body(self) -> Block:
        return self.regions[0]


class CacheCreateOp(Op):
    """Create a growable LIFO cache (AD allocation strategy 3, §IV-C)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("cache_create", [], result_type=Token)


class CachePushOp(Op):
    """Push a value (usually a per-iteration cache array pointer)."""

    __slots__ = ()

    def __init__(self, handle: Value, value: Value) -> None:
        super().__init__("cache_push", [handle, value])


class CachePopOp(Op):
    """Pop the most recent value; the result type is chosen by the
    AD transform to match what was pushed."""

    __slots__ = ()

    def __init__(self, handle: Value, result_type: Type) -> None:
        super().__init__("cache_pop", [handle], result_type=result_type)


STRUCTURED_OPS = frozenset({
    "for", "parallel_for", "fork", "if", "while", "spawn",
})

#: Ops which may not be reordered freely (memory or control effects).
EFFECTFUL_OPS = frozenset({
    "store", "atomic", "memset", "memcpy", "free", "call", "return",
    "barrier", "condition",
}) | STRUCTURED_OPS
