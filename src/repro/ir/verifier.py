"""IR verifier.

Checks the structural invariants the rest of the stack relies on:

* SSA def-before-use with lexical dominance (a use sees definitions made
  earlier in its own block or in any enclosing block),
* placement rules for structured ops (workshare/barrier inside fork,
  ``condition`` terminating while bodies, ``return`` at function top
  level only),
* callee existence and arity,
* argument contracts: ``extent=N`` (``N >= 0``) only on pointer
  arguments, ``below=N`` (``N >= 1``) only on ``ptr<i64>`` arguments,
* pointer-typed operands where memory ops require them,
* request hygiene: a ``request``-typed value may only flow into a call
  argument declared ``request`` (wait/test and the mpid adjoint
  helpers), request-array stores, cache pushes, or a ``request``
  return — and, conversely, a declared ``request`` argument must
  receive one.

The verifier raises :class:`VerificationError` with a path to the
offending op.
"""

from __future__ import annotations

from .function import Function, IntrinsicInfo, Module
from .ops import Block, Op
from .types import I64, PointerType, Request, Void
from .values import Argument, BlockArg, Constant, Result, Value


class VerificationError(Exception):
    pass


class _Scope:
    """The values visible right now: one live set, and per open region
    the list of what it defined (SSA: each value once), retracted when
    the region closes."""

    def __init__(self) -> None:
        self.live: set[Value] = set()
        self.frames: list[list[Value]] = []

    def push(self, values=()) -> None:
        self.frames.append(list(values))
        self.live.update(values)

    def pop(self) -> None:
        self.live.difference_update(self.frames.pop())

    def define(self, v: Value) -> None:
        self.frames[-1].append(v)
        self.live.add(v)

    def visible(self, v: Value) -> bool:
        return v in self.live


def verify_module(module: Module) -> None:
    for fn in module.functions.values():
        verify_function(fn, module)


def _check_arg_contracts(fn: Function) -> None:
    """``extent`` / ``below`` are what bounds certification proves
    against, so a malformed one must not reach it."""
    for a in fn.args:
        for key, least, ok in (
                ("extent", 0, isinstance(a.type, PointerType)),
                ("below", 1, isinstance(a.type, PointerType)
                 and a.type.elem is I64)):
            n = a.attrs.get(key)
            if n is None:
                continue
            if not ok:
                raise VerificationError(
                    f"{fn.name}: argument {a.name!r} of type {a.type} "
                    f"cannot declare {key}")
            if isinstance(n, bool) or not isinstance(n, int) or n < least:
                raise VerificationError(
                    f"{fn.name}: argument {a.name!r} declares {key}={n!r}, "
                    f"want an integer >= {least}")


def verify_function(fn: Function, module: Module) -> None:
    _check_arg_contracts(fn)
    scope = _Scope()
    scope.push(fn.args)
    _verify_block(fn.body, scope, fn, module, context=())
    ops = fn.body.ops
    for i, op in enumerate(ops):
        if op.opcode == "return" and i != len(ops) - 1:
            raise VerificationError(
                f"{fn.name}: return must be the last op of the function body")


def _err(fn: Function, op: Op, msg: str) -> VerificationError:
    return VerificationError(f"{fn.name}: {op!r}: {msg}")


def _verify_block(block: Block, scope: _Scope, fn: Function, module: Module,
                  context: tuple[str, ...]) -> None:
    for i, op in enumerate(block.ops):
        # 1. Operand visibility.
        for v in op.operands:
            if isinstance(v, Constant):
                continue
            if not isinstance(v, (Argument, BlockArg, Result)):
                raise _err(fn, op, f"operand {v!r} is not an IR value")
            if not scope.visible(v):
                raise _err(fn, op,
                           f"operand {v!r} does not dominate its use")

        # 2. Placement rules.
        _check_placement(op, i, block, context, fn)

        # 3. Op-specific checks.
        _check_op(op, fn, module)

        # 4. Recurse into regions with an extended scope.
        for region in op.regions:
            scope.push(region.args)
            child_ctx = context + (op.opcode,)
            _verify_block(region, scope, fn, module, child_ctx)
            scope.pop()

        # 5. Results become visible for subsequent ops.
        if op.result is not None:
            scope.define(op.result)


def _check_placement(op: Op, index: int, block: Block,
                     context: tuple[str, ...], fn: Function) -> None:
    oc = op.opcode
    if oc == "return" and context:
        raise _err(fn, op, "return inside a nested region")
    if oc == "condition":
        parent = block.parent_op
        if parent is None or parent.opcode != "while":
            raise _err(fn, op, "condition outside a while body")
        if block.ops[-1] is not op:
            raise _err(fn, op, "condition must terminate the while body")
    if oc == "barrier" and "parallel_for" in context:
        raise _err(fn, op, "barrier inside parallel_for body")
    if oc == "barrier" and "fork" not in context:
        raise _err(fn, op, "barrier outside a fork region")
    if oc == "for" and op.attrs.get("workshare"):
        if "fork" not in context:
            raise _err(fn, op, "workshare loop outside a fork region")
    if oc == "for" and op.attrs.get("adjoint") is not None:
        from ..ad.strategy import STRATEGY_NAMES
        tag = op.attrs["adjoint"]
        if tag not in STRATEGY_NAMES:
            raise _err(fn, op, f"unknown adjoint strategy {tag!r}; "
                               f"expected one of {STRATEGY_NAMES}")
        if op.attrs.get("workshare") or op.attrs.get("simd"):
            raise _err(fn, op, "adjoint strategy tags apply only to "
                               "serial counted loops")
    if oc in ("parallel_for", "fork"):
        # No nested thread parallelism inside parallel regions (the
        # paper's runtimes do not nest either); spawn regions may not
        # contain forks.
        if "parallel_for" in context or "fork" in context:
            raise _err(fn, op, f"nested {oc} inside a parallel region")


#: Opcodes through which a request-typed value may legally flow (the
#: pointer/index/element rules above constrain the exact positions).
_REQUEST_SINKS = frozenset({"call", "store", "cache_push", "return"})


def _check_request_flow(op: Op, fn: Function, module: Module) -> None:
    oc = op.opcode
    if oc == "call":
        try:
            target = module.lookup_callee(op.attrs["callee"])
        except KeyError:
            return      # reported by the arity/existence check
        if isinstance(target, IntrinsicInfo):
            decl = list(target.arg_types)
            variadic = target.variadic
        else:
            decl = [a.type for a in target.args]
            variadic = False
        for i, v in enumerate(op.operands):
            want = decl[i] if i < len(decl) else None
            if v.type is Request:
                if want is not Request and not (variadic and
                                                i >= len(decl)):
                    raise _err(fn, op,
                               f"request-typed operand #{i} passed to "
                               f"{op.attrs['callee']} where {want} is "
                               f"expected")
            elif want is Request:
                raise _err(fn, op,
                           f"operand #{i} of {op.attrs['callee']} must "
                           f"be a request, got {v.type}")
        return
    if not any(v.type is Request for v in op.operands):
        return
    if oc not in _REQUEST_SINKS:
        raise _err(fn, op, f"request-typed value used by {oc!r}; "
                   f"requests may only flow into wait/test calls, "
                   f"request-array stores, cache pushes, or returns")
    if oc == "cache_push" and op.operands[0].type is Request:
        raise _err(fn, op, "cache handle cannot be a request")


def _check_op(op: Op, fn: Function, module: Module) -> None:
    _check_request_flow(op, fn, module)
    oc = op.opcode
    if oc in ("load", "store", "atomic", "ptradd", "memset", "memcpy", "free"):
        ptr_index = {"load": 0, "store": 1, "atomic": 1, "ptradd": 0,
                     "memset": 0, "memcpy": 0, "free": 0}[oc]
        ptr = op.operands[ptr_index]
        if not isinstance(ptr.type, PointerType):
            raise _err(fn, op, f"expected pointer operand, got {ptr.type}")
        if oc == "load" or oc == "store" or oc == "atomic" or oc == "ptradd":
            idx = op.operands[{"load": 1, "store": 2, "atomic": 2,
                               "ptradd": 1}[oc]]
            if idx.type is not I64:
                raise _err(fn, op, f"index must be i64, got {idx.type}")
        if oc == "atomic" and op.attrs.get("via") is not None:
            # Lowering tags of a shadow increment: a registered
            # cross-thread reduction, or a lane-combining accumulate
            # inside one thread's simd loop.  Both are sums.
            if op.attrs["via"] not in ("reduction", "lanes"):
                raise _err(fn, op, f"unknown atomic lowering "
                                   f"via={op.attrs['via']!r}; expected "
                                   f"'reduction' or 'lanes'")
            if op.attrs["kind"] != "add":
                raise _err(fn, op, f"via={op.attrs['via']!r} applies "
                                   f"only to atomic_add")
        if oc == "store":
            val = op.operands[0]
            if val.type is not ptr.type.elem:
                raise _err(fn, op,
                           f"storing {val.type} into {ptr.type}")
        if oc == "memcpy":
            src = op.operands[1]
            if not isinstance(src.type, PointerType):
                raise _err(fn, op, "memcpy source must be a pointer")
            if src.type is not ptr.type:
                raise _err(fn, op, "memcpy element types differ")
    elif oc == "call":
        try:
            target = module.lookup_callee(op.attrs["callee"])
        except KeyError as e:
            raise _err(fn, op, str(e))
        if isinstance(target, IntrinsicInfo):
            if not target.variadic and len(op.operands) != len(target.arg_types):
                raise _err(fn, op,
                           f"{target.name} expects {len(target.arg_types)} "
                           f"args, got {len(op.operands)}")
        else:
            if len(op.operands) != len(target.args):
                raise _err(fn, op,
                           f"{target.name} expects {len(target.args)} args, "
                           f"got {len(op.operands)}")
    elif oc == "return":
        if op.operands:
            if fn.ret_type is None or op.operands[0].type is not fn.ret_type:
                raise _err(fn, op, "return type mismatch")
        else:
            if fn.ret_type is not Void:
                raise _err(fn, op, f"missing return value ({fn.ret_type})")
    elif oc == "while":
        body = op.regions[0]
        if not body.ops or body.ops[-1].opcode != "condition":
            raise _err(fn, op, "while body must end with condition")
