"""Static MPI communication analyzer with adjoint-duality verification.

The paper's MPI claim (§IV-B, §V-C, Fig. 5) is structural: the adjoint
of every communication is its *dual* — ``Isend`` reverses into an
``Irecv`` of the shadow buffer and vice versa, ``bcast`` into a
``reduce`` onto the root, ``allreduce(sum)`` into itself.  This module
machine-checks that claim instead of trusting one SimMPI schedule.

It abstractly interprets an IR function once per rank of a concrete
communicator size, tracking every integer value as a symbolic
expression over ``mpi.comm_rank`` / ``mpi.comm_size`` / the function's
scalar arguments (:class:`Sym`).  Branch conditions that fold pick one
side; loops whose trip counts fold (and that contain communication)
unroll; everything else is analyzed once under a "maybe" flag.  Each
``mpi.*`` / ``mpid.*`` call becomes a :class:`~.commgraph.CommEvent`
with resolved (peer, tag, count, kind), and the per-rank traces feed
the graph checks in :mod:`repro.sanitize.commgraph`:

* unmatched / count-mismatched point-to-point pairs,
* collective kind/order/count divergence across ranks,
* request-lifetime errors (missing or double ``Wait``) and accesses to
  buffers with a nonblocking operation in flight,
* blocking-send cycles that deadlock under rendezvous semantics,
* and, for gradients, that the adjoint communication graph is the
  edge-reversed transpose of the primal graph (Fig. 5).

Soundness direction mirrors :mod:`repro.sanitize.lint`: a *clean*
report proves there is no structural communication bug among the
statically resolved events; ``warn`` diagnostics mark events the
abstraction could not resolve (and therefore did not match), so warns
may be spurious but errors are real.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..ir.function import Function, Module
from ..ir.ops import Block, CallOp, Op
from ..ir.printer import print_op
from ..ir.types import F64, I64, PointerType, Request
from ..ir.values import Argument, Constant, Value
from ..passes.pass_manager import FunctionPass
from .commgraph import (
    COLLECTIVES,
    P2P_RX,
    P2P_TX,
    CommEvent,
    DiagSink,
    check_collectives,
    check_p2p,
    check_request_lifetime,
    duality_diagnostics,
    render_summary,
    simulate_rendezvous,
)
from .lint import ERROR, WARN, Diagnostic

#: Default communicator sizes to instantiate the graph for.
DEFAULT_SIZES = (2, 3)
#: Values auto-bound to unknown integer arguments (distinct, small).
_AUTO_BINDINGS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


# ---------------------------------------------------------------------------
# Symbolic integer domain
# ---------------------------------------------------------------------------

class Sym:
    """A symbolic value over rank/size/argument leaves.

    Constructors fold constants eagerly, so under a concrete (rank,
    size, bindings) assignment every expression collapses to a
    ``const`` and the interpreter is effectively a partial evaluator;
    under symbolic leaves the tree survives for display in the
    per-function communication summary.
    """

    __slots__ = ("kind", "args")

    def __init__(self, kind: str, args: tuple = ()) -> None:
        self.kind = kind
        self.args = args

    @property
    def is_const(self) -> bool:
        return self.kind == "const"

    @property
    def value(self):
        return self.args[0]

    def __repr__(self) -> str:
        return f"<Sym {fmt_sym(self)}>"


UNKNOWN = Sym("unknown")


def _c(v) -> Sym:
    return Sym("const", (v,))


def sym_var(name: str) -> Sym:
    return Sym("var", (name,))


_CMP_PY = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
}

_FOLD2 = {
    "iadd": lambda a, b: a + b, "isub": lambda a, b: a - b,
    "imul": lambda a, b: a * b, "idiv": lambda a, b: a // b,
    "imod": lambda a, b: a % b, "imin": min, "imax": max,
    "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
    "min": min, "max": max, "pow": lambda a, b: a ** b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
    "xor": lambda a, b: bool(a) != bool(b),
    "copysign": lambda a, b: abs(a) if b >= 0 else -abs(a),
}

_FOLD1 = {
    "ineg": lambda a: -a, "neg": lambda a: -a, "abs": abs,
    "not": lambda a: not a, "itof": float, "ftoi": int,
    "floor": lambda a: float(int(a // 1)),
}

#: Binary kinds worth keeping as trees for the symbolic summary.
_TREE2 = frozenset({"iadd", "isub", "imul", "idiv", "imod", "imin",
                    "imax", "and", "or"})
_TREE1 = frozenset({"ineg", "not", "itof", "ftoi"})


def sym_binop(opcode: str, a: Sym, b: Sym) -> Sym:
    if a.is_const and b.is_const:
        fn = _FOLD2.get(opcode)
        if fn is None:
            return UNKNOWN
        try:
            return _c(fn(a.value, b.value))
        except (ZeroDivisionError, TypeError, ValueError):
            return UNKNOWN
    if opcode not in _TREE2 or a.kind == "unknown" or b.kind == "unknown":
        return UNKNOWN
    # Trivial identities keep the summary readable.
    if opcode == "iadd" and b.is_const and b.value == 0:
        return a
    if opcode in ("imul",) and b.is_const and b.value == 1:
        return a
    return Sym(opcode, (a, b))


def sym_unop(opcode: str, a: Sym) -> Sym:
    if a.is_const:
        fn = _FOLD1.get(opcode)
        if fn is None:
            return UNKNOWN
        try:
            return _c(fn(a.value))
        except (TypeError, ValueError):
            return UNKNOWN
    if opcode not in _TREE1 or a.kind == "unknown":
        return UNKNOWN
    return Sym(opcode, (a,))


def sym_cmp(pred: str, a: Sym, b: Sym) -> Sym:
    if a.is_const and b.is_const:
        try:
            return _c(bool(_CMP_PY[pred](a.value, b.value)))
        except (KeyError, TypeError):
            return UNKNOWN
    if a.kind == "unknown" or b.kind == "unknown":
        return UNKNOWN
    return Sym("cmp:" + pred, (a, b))


_OPSTR = {"iadd": "+", "isub": "-", "imul": "*", "idiv": "//",
          "imod": "%", "and": "&&", "or": "||"}


def fmt_sym(s: Sym) -> str:
    if not isinstance(s, Sym):
        return "?"
    k = s.kind
    if k == "const":
        return str(s.value)
    if k in ("rank", "size"):
        return k
    if k == "var":
        return str(s.args[0])
    if k == "unknown":
        return "?"
    if k.startswith("cmp:"):
        a, b = s.args
        return f"({fmt_sym(a)} {k[4:]} {fmt_sym(b)})"
    if k in ("imin", "imax"):
        a, b = s.args
        return f"{k[1:]}({fmt_sym(a)}, {fmt_sym(b)})"
    if k in ("ineg",):
        return f"-({fmt_sym(s.args[0])})"
    if k in ("not",):
        return f"!({fmt_sym(s.args[0])})"
    if k in ("itof", "ftoi"):
        return fmt_sym(s.args[0])
    if len(s.args) == 2:
        a, b = s.args
        return f"({fmt_sym(a)} {_OPSTR.get(k, k)} {fmt_sym(b)})"
    return "?"


# ---------------------------------------------------------------------------
# Abstract memory and runtime records
# ---------------------------------------------------------------------------

class AbsBuffer:
    """One abstract allocation; cells are keyed by concrete index."""

    __slots__ = ("label", "cells")

    def __init__(self, label: str) -> None:
        self.label = label
        self.cells: dict[int, object] = {}

    def __repr__(self) -> str:
        return f"<buf {self.label}>"


class AbsPtr:
    __slots__ = ("buf", "off")

    def __init__(self, buf: AbsBuffer, off: Optional[int]) -> None:
        self.buf = buf
        self.off = off          # None once the offset is not constant


class AbsRecord:
    """Abstract ``mpid.record_*`` shadow record (Fig. 5's ``d_req``)."""

    __slots__ = ("kind", "d_buf", "d_buf2", "count", "peer", "tag",
                 "red_op", "root", "op")

    def __init__(self, kind: str, d_buf, count: Sym, *, peer: Sym = None,
                 tag: Sym = None, d_buf2=None, red_op: str = None,
                 root: Sym = None, op: Op = None) -> None:
        self.kind = kind            # "isend" | "irecv" | "allreduce" | "reduce"
        self.d_buf = d_buf
        self.d_buf2 = d_buf2
        self.count = count
        self.peer = peer
        self.tag = tag
        self.red_op = red_op
        self.root = root
        self.op = op


class AbsRequest:
    """Abstract in-flight nonblocking operation (engine or adjoint)."""

    __slots__ = ("rid", "kind", "buf", "acc", "event")

    def __init__(self, rid: int, kind: str, buf: Optional[AbsPtr],
                 event: CommEvent, acc: Optional[AbsPtr] = None) -> None:
        self.rid = rid
        self.kind = kind            # "isend"|"irecv"|"rev_isend"|"rev_irecv"
        self.buf = buf
        self.acc = acc              # accumulation target of finish_send
        self.event = event


class AbsCache:
    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: list = []


class _Budget(Exception):
    pass


# ---------------------------------------------------------------------------
# Comm-relevance prepass
# ---------------------------------------------------------------------------

def _call_is_comm(op: Op, module: Module, memo: dict) -> bool:
    callee = op.attrs.get("callee", "")
    if callee.startswith(("mpi.", "mpid.")):
        return True
    target = module.functions.get(callee)
    if target is not None:
        return function_has_comm(target, module, memo)
    return False


def function_has_comm(fn: Function, module: Module,
                      memo: Optional[dict] = None) -> bool:
    """True when ``fn`` (transitively) performs MPI communication."""
    memo = memo if memo is not None else {}
    if fn.name in memo:
        return bool(memo[fn.name])
    memo[fn.name] = False        # break recursion cycles
    found = False
    for op in fn.body.walk():
        if op.opcode == "call" and _call_is_comm(op, module, memo):
            found = True
            break
        if (op.result is not None and op.result.type is Request) or \
                any(v.type is Request for v in op.operands):
            found = True
            break
    memo[fn.name] = found
    return found


def _comm_region_ops(fn: Function, module: Module, memo: dict) -> set:
    """Uids of region-bearing ops whose subtree communicates (these are
    the loops worth unrolling precisely)."""
    out: set[int] = set()

    def visit(block: Block) -> bool:
        has = False
        for op in block.ops:
            sub = False
            for region in op.regions:
                sub |= visit(region)
            if op.opcode == "call" and _call_is_comm(op, module, memo):
                sub = True
            if (op.result is not None and op.result.type is Request) or \
                    any(v.type is Request for v in op.operands):
                sub = True
            if sub and op.regions:
                out.add(op.uid)
            has |= sub
        return has

    visit(fn.body)
    return out


# ---------------------------------------------------------------------------
# The per-rank abstract interpreter
# ---------------------------------------------------------------------------

class _Extractor:
    """Abstractly execute ``fn`` for one rank (or symbolically)."""

    def __init__(self, module: Module, fn: Function, *, sink: DiagSink,
                 rank: Optional[int], nprocs: Optional[int],
                 bindings: dict, symbolic: bool = False,
                 split_adjoint: bool = False, max_unroll: int = 128,
                 budget: int = 2_000_000) -> None:
        self.module = module
        self.fn = fn
        self.sink = sink
        self.symbolic = symbolic
        self.rank = rank if rank is not None else -1
        self.nprocs = nprocs
        self.split = split_adjoint
        self.max_unroll = max_unroll
        self.budget = budget
        self.env: dict[Value, object] = {}
        self.trace: list[CommEvent] = []
        self.windows: list[AbsRequest] = []
        self.maybe = 0
        self.depth = 0
        self._rids = itertools.count(1)
        self._allocs = itertools.count(1)
        self._memo: dict = {}
        self._comm_ops = _comm_region_ops(fn, module, self._memo)
        if symbolic:
            self._rank_sym: Sym = Sym("rank")
            self._size_sym: Sym = Sym("size")
        else:
            self._rank_sym = _c(rank)
            self._size_sym = _c(nprocs)
        self.bindings = bindings

    # -- plumbing ----------------------------------------------------------

    def run(self) -> list[CommEvent]:
        for a in self.fn.args:
            self.env[a] = self._bind_arg(a)
        try:
            self._exec_block(self.fn.body)
        except _Budget:
            self.sink.add(WARN, "analysis-budget",
                          f"abstract interpretation exceeded its step "
                          f"budget in @{self.fn.name}; communication "
                          f"after the cutoff is unchecked")
        return self.trace

    def _bind_arg(self, a: Argument):
        if isinstance(a.type, PointerType):
            return AbsPtr(AbsBuffer(f"%{a.name}"), 0)
        if a.type is I64:
            if a.name in self.bindings and not self.symbolic:
                return _c(self.bindings[a.name])
            return sym_var(a.name)
        if a.type is F64:
            return sym_var(a.name)
        return UNKNOWN

    def _diag(self, severity: str, code: str, msg: str, op: Op,
              related: Op = None) -> None:
        self.sink.add(severity, code, msg, op, related)

    def _val(self, v: Value):
        if isinstance(v, Constant):
            return _c(v.value)
        return self.env.get(v, UNKNOWN)

    def _sym(self, v: Value) -> Sym:
        got = self._val(v)
        return got if isinstance(got, Sym) else UNKNOWN

    def _ptr(self, v: Value) -> Optional[AbsPtr]:
        got = self._val(v)
        return got if isinstance(got, AbsPtr) else None

    def _int(self, s: Sym) -> Optional[int]:
        if isinstance(s, Sym) and s.is_const and \
                isinstance(s.value, (int, bool)):
            return int(s.value)
        return None

    # -- memory ------------------------------------------------------------

    def _touch(self, op: Op, ptr: Optional[AbsPtr], is_write: bool,
               exclude: Optional[AbsRequest] = None) -> None:
        """Check an access against open nonblocking windows."""
        if ptr is None or self.maybe:
            return
        for req in self.windows:
            if req is exclude or req.buf is None:
                continue
            if req.buf.buf is not ptr.buf:
                continue
            what = req.event.describe()
            if is_write:
                self._diag(ERROR, "inflight-write",
                           f"buffer {ptr.buf.label} written while "
                           f"nonblocking {what} is in flight", op,
                           req.event.op)
            elif req.kind in ("irecv", "rev_irecv"):
                self._diag(WARN, "inflight-read",
                           f"buffer {ptr.buf.label} read while "
                           f"nonblocking {what} is in flight", op,
                           req.event.op)

    def _store(self, op: Op, ptr: Optional[AbsPtr], idx: Sym,
               value) -> None:
        self._touch(op, ptr, True)
        if ptr is None:
            return
        i = self._int(idx)
        if ptr.off is not None and i is not None:
            ptr.buf.cells[ptr.off + i] = UNKNOWN if self.maybe else value
        else:
            ptr.buf.cells.clear()

    def _load(self, op: Op, ptr: Optional[AbsPtr], idx: Sym):
        self._touch(op, ptr, False)
        if ptr is None:
            return UNKNOWN
        i = self._int(idx)
        if ptr.off is not None and i is not None:
            return ptr.buf.cells.get(ptr.off + i, UNKNOWN)
        return UNKNOWN

    def _clobber(self, ptr: Optional[AbsPtr]) -> None:
        if ptr is not None:
            ptr.buf.cells.clear()

    # -- execution ---------------------------------------------------------

    def _exec_block(self, block: Block) -> None:
        for op in block.ops:
            self.budget -= 1
            if self.budget <= 0:
                raise _Budget()
            self._exec_op(op)

    def _exec_op(self, op: Op) -> None:
        oc = op.opcode
        if oc == "call":
            self._call(op)
        elif oc == "load":
            self.env[op.result] = self._load(
                op, self._ptr(op.operands[0]), self._sym(op.operands[1]))
        elif oc == "store":
            self._store(op, self._ptr(op.operands[1]),
                        self._sym(op.operands[2]), self._val(op.operands[0]))
        elif oc == "alloc":
            label = op.result.name or f"alloc#{op.uid}"
            self.env[op.result] = AbsPtr(
                AbsBuffer(f"{label}.{next(self._allocs)}"), 0)
        elif oc == "ptradd":
            base = self._ptr(op.operands[0])
            if base is None:
                return
            i = self._int(self._sym(op.operands[1]))
            off = base.off + i if (base.off is not None and i is not None) \
                else None
            self.env[op.result] = AbsPtr(base.buf, off)
        elif oc == "atomic":
            ptr = self._ptr(op.operands[1])
            self._touch(op, ptr, True)
            if ptr is not None:
                i = self._int(self._sym(op.operands[2]))
                if ptr.off is not None and i is not None:
                    ptr.buf.cells[ptr.off + i] = UNKNOWN
                else:
                    ptr.buf.cells.clear()
        elif oc == "memset":
            ptr = self._ptr(op.operands[0])
            self._touch(op, ptr, True)
            self._clobber(ptr)
        elif oc == "memcpy":
            dst = self._ptr(op.operands[0])
            self._touch(op, self._ptr(op.operands[1]), False)
            self._touch(op, dst, True)
            self._clobber(dst)
        elif oc == "free":
            pass
        elif oc == "if":
            cond = self._sym(op.operands[0])
            if cond.is_const:
                self._exec_block(op.regions[0] if cond.value
                                 else op.regions[1])
            else:
                self.maybe += 1
                try:
                    self._exec_block(op.regions[0])
                    self._exec_block(op.regions[1])
                finally:
                    self.maybe -= 1
        elif oc == "for":
            self._for(op)
        elif oc == "while":
            if op.uid in self._comm_ops:
                self._diag(WARN, "comm-in-loop",
                           "communication inside a while loop is "
                           "analyzed for a single iteration", op)
            self.env[op.ivar] = sym_var(op.ivar.name or "it")
            self._exec_maybe(op.regions[0])
        elif oc in ("parallel_for", "fork", "spawn"):
            if op.uid in self._comm_ops:
                self._diag(WARN, "comm-in-parallel",
                           f"communication inside a {oc} region is "
                           f"analyzed for a single symbolic worker", op)
            for barg in op.regions[0].args:
                self.env[barg] = sym_var(barg.name or "tid")
            if op.result is not None:
                self.env[op.result] = UNKNOWN
            self._exec_maybe(op.regions[0])
        elif oc == "cache_create":
            self.env[op.result] = AbsCache()
        elif oc == "cache_push":
            h = self._val(op.operands[0])
            if isinstance(h, AbsCache):
                h.items.append(self._val(op.operands[1]))
        elif oc == "cache_pop":
            h = self._val(op.operands[0])
            got = UNKNOWN
            if isinstance(h, AbsCache) and h.items:
                got = h.items.pop()
            self.env[op.result] = got
        elif oc in ("return", "condition", "barrier"):
            pass
        elif op.result is not None:
            self._compute(op)

    def _exec_maybe(self, block: Block) -> None:
        self.maybe += 1
        try:
            self._exec_block(block)
        finally:
            self.maybe -= 1

    def _for(self, op: Op) -> None:
        lb = self._sym(op.operands[0])
        ub = self._sym(op.operands[1])
        step = self._sym(op.operands[2])
        ivar = op.regions[0].args[0]
        comm = op.uid in self._comm_ops
        if comm and lb.is_const and ub.is_const and step.is_const \
                and step.value:
            trips = range(int(lb.value), int(ub.value), int(step.value))
            if len(trips) <= self.max_unroll:
                for i in trips:
                    self.env[ivar] = _c(i)
                    self._exec_block(op.regions[0])
                return
            self._diag(WARN, "comm-in-loop",
                       f"loop with {len(trips)} iterations exceeds the "
                       f"unroll limit ({self.max_unroll}); communication "
                       f"inside is analyzed for a single symbolic "
                       f"iteration", op)
        elif comm:
            self._diag(WARN, "comm-in-loop",
                       "communication inside a loop whose trip count "
                       "does not fold is analyzed for a single symbolic "
                       "iteration", op)
        self.env[ivar] = sym_var(ivar.name or "i")
        self._exec_maybe(op.regions[0])

    def _compute(self, op: Op) -> None:
        oc = op.opcode
        if oc == "cmp":
            self.env[op.result] = sym_cmp(
                op.attrs["pred"], self._sym(op.operands[0]),
                self._sym(op.operands[1]))
        elif oc == "select":
            cond = self._sym(op.operands[0])
            if cond.is_const:
                self.env[op.result] = self._val(
                    op.operands[1] if cond.value else op.operands[2])
            else:
                a, b = self._val(op.operands[1]), self._val(op.operands[2])
                self.env[op.result] = a if a is b else UNKNOWN
        elif len(op.operands) == 2:
            self.env[op.result] = sym_binop(
                oc, self._sym(op.operands[0]), self._sym(op.operands[1]))
        elif len(op.operands) == 1:
            self.env[op.result] = sym_unop(oc, self._sym(op.operands[0]))
        else:
            self.env[op.result] = UNKNOWN

    # -- calls -------------------------------------------------------------

    def _call(self, op: Op) -> None:
        callee = op.attrs.get("callee", "")
        if callee.startswith("mpi."):
            self._mpi(op, callee)
        elif callee.startswith("mpid."):
            self._mpid(op, callee)
        elif callee.startswith("cache."):
            self._cache_call(op, callee)
        elif callee == "jl.arrayptr":
            self.env[op.result] = self._val(op.operands[0])
        elif callee in self.module.functions:
            self._user_call(op, self.module.functions[callee])
        else:
            # Other runtime intrinsics have no communication effect.
            if op.result is not None:
                self.env[op.result] = UNKNOWN

    def _cache_call(self, op: Op, callee: str) -> None:
        if callee == "cache.create":
            self.env[op.result] = AbsCache()
        elif callee == "cache.push":
            h = self._val(op.operands[0])
            if isinstance(h, AbsCache) and len(op.operands) > 1:
                h.items.append(self._val(op.operands[1]))
        elif callee == "cache.pop":
            h = self._val(op.operands[0])
            got = UNKNOWN
            if isinstance(h, AbsCache) and h.items:
                got = h.items.pop()
            self.env[op.result] = got

    def _user_call(self, op: Op, target: Function) -> None:
        if self.depth >= 8:
            self._diag(WARN, "call-depth",
                       f"call to @{target.name} exceeds the abstract "
                       f"inlining depth; its communication is unchecked",
                       op)
            if op.result is not None:
                self.env[op.result] = UNKNOWN
            return
        saved = {a: self.env.get(a) for a in target.args}
        for a, v in zip(target.args, op.operands):
            self.env[a] = self._val(v)
        self.depth += 1
        try:
            self._exec_block(target.body)
        finally:
            self.depth -= 1
            for a, old in saved.items():
                if old is None:
                    self.env.pop(a, None)
                else:
                    self.env[a] = old
        ret = UNKNOWN
        body = target.body.ops
        if body and body[-1].opcode == "return" and body[-1].operands:
            ret = self._val(body[-1].operands[0])
        if op.result is not None:
            self.env[op.result] = ret

    # -- events ------------------------------------------------------------

    def _provenance(self, op: Op) -> str:
        if not self.split:
            return "primal"
        return "adjoint" if op.attrs.get("ad") == "reverse" else "forward"

    def _emit(self, op: Op, kind: str, *, peer: Sym = None, tag: Sym = None,
              count: Sym = None, red_op: str = None, root: Sym = None,
              buf: Optional[AbsPtr] = None, blocking: bool = True,
              rid: Optional[int] = None,
              provenance: Optional[str] = None) -> CommEvent:
        ev = CommEvent(kind=kind, rank=self.rank, blocking=blocking,
                       red_op=red_op, req=rid, op=op,
                       maybe=self.maybe > 0,
                       buf=buf.buf.label if buf is not None else None,
                       provenance=provenance or self._provenance(op))
        if self.symbolic:
            ev.peer_s = fmt_sym(peer) if peer is not None else None
            ev.tag_s = fmt_sym(tag) if tag is not None else None
            ev.count_s = fmt_sym(count) if count is not None else None
            if root is not None:
                ev.root = self._int(root)
            self.trace.append(ev)
            return ev
        if peer is not None:
            p = self._int(peer)
            if p is None:
                if not ev.maybe:
                    self._diag(WARN, "unresolved-endpoint",
                               f"{kind} peer `{fmt_sym(peer)}` does not "
                               f"fold to a rank; the endpoint is not "
                               f"statically matched", op)
            elif not 0 <= p < self.nprocs:
                if not ev.maybe:
                    self._diag(ERROR, "peer-out-of-range",
                               f"{kind} peer {p} is outside communicator "
                               f"size {self.nprocs} (from rank "
                               f"{self.rank})", op)
            else:
                ev.peer = p
        if tag is not None:
            ev.tag = self._int(tag)
        if root is not None:
            ev.root = self._int(root)
        if count is not None:
            ev.count = self._int(count)
            if ev.count is None and not ev.maybe:
                self._diag(WARN, "unresolved-count",
                           f"{kind} count `{fmt_sym(count)}` does not "
                           f"fold; sizes are not statically checked", op)
        if ev.maybe and (kind in P2P_TX or kind in P2P_RX
                         or kind in COLLECTIVES):
            self._diag(WARN, "guarded-comm",
                       f"{kind} under a data-dependent guard or "
                       f"unresolved loop is excluded from static "
                       f"matching", op)
        self.trace.append(ev)
        return ev

    # -- MPI intrinsics ----------------------------------------------------

    def _mpi(self, op: Op, callee: str) -> None:
        if callee == "mpi.comm_rank":
            self.env[op.result] = self._rank_sym
            return
        if callee == "mpi.comm_size":
            self.env[op.result] = self._size_sym
            return
        if callee == "mpi.barrier":
            self._emit(op, "barrier")
            return
        if callee in ("mpi.send", "mpi.recv", "mpi.isend", "mpi.irecv"):
            buf = self._ptr(op.operands[0])
            count = self._sym(op.operands[1])
            peer = self._sym(op.operands[2])
            tag = self._sym(op.operands[3])
            kind = callee[4:]
            is_tx = kind in P2P_TX
            self._touch(op, buf, not is_tx)
            if not is_tx:
                self._clobber(buf)
            if kind in ("isend", "irecv"):
                rid = next(self._rids)
                ev = self._emit(op, kind, peer=peer, tag=tag, count=count,
                                buf=buf, blocking=False, rid=rid)
                req = AbsRequest(rid, kind, buf, ev)
                if not ev.maybe:
                    self.windows.append(req)
                self.env[op.result] = req
            else:
                self._emit(op, kind, peer=peer, tag=tag, count=count,
                           buf=buf)
            return
        if callee == "mpi.wait":
            got = self._val(op.operands[0])
            if isinstance(got, AbsRequest):
                self._emit(op, "wait", rid=got.rid)
                if got in self.windows:
                    self.windows.remove(got)
            else:
                self._diag(WARN, "unresolved-request",
                           "wait on a request the analysis could not "
                           "track; its lifetime is unchecked", op)
            return
        if callee == "mpi.allreduce":
            send, recv = self._ptr(op.operands[0]), self._ptr(op.operands[1])
            self._touch(op, send, False)
            self._touch(op, recv, True)
            self._clobber(recv)
            self._emit(op, "allreduce", count=self._sym(op.operands[2]),
                       red_op=op.attrs.get("op", "sum"))
            return
        if callee == "mpi.reduce":
            send, recv = self._ptr(op.operands[0]), self._ptr(op.operands[1])
            self._touch(op, send, False)
            self._touch(op, recv, True)
            self._clobber(recv)
            self._emit(op, "reduce", count=self._sym(op.operands[2]),
                       root=self._sym(op.operands[3]),
                       red_op=op.attrs.get("op", "sum"))
            return
        if callee == "mpi.bcast":
            buf = self._ptr(op.operands[0])
            self._touch(op, buf, True)
            self._clobber(buf)
            self._emit(op, "bcast", count=self._sym(op.operands[1]),
                       root=self._sym(op.operands[2]))
            return
        if op.result is not None:
            self.env[op.result] = UNKNOWN

    # -- mpid.* adjoint helpers --------------------------------------------

    def _mpid(self, op: Op, callee: str) -> None:
        if callee in ("mpid.record_send", "mpid.record_recv"):
            kind = "isend" if callee.endswith("send") else "irecv"
            self.env[op.result] = AbsRecord(
                kind, self._ptr(op.operands[0]),
                self._sym(op.operands[1]), peer=self._sym(op.operands[2]),
                tag=self._sym(op.operands[3]), op=op)
            return
        if callee == "mpid.reverse_wait":
            rec = self._val(op.operands[0])
            if not isinstance(rec, AbsRecord) or rec.kind not in \
                    ("isend", "irecv"):
                self._diag(WARN, "unresolved-request",
                           "reverse_wait on a shadow record the analysis "
                           "could not track; the adjoint endpoint is "
                           "unchecked", op)
                self.env[op.result] = UNKNOWN
                return
            rid = next(self._rids)
            if rec.kind == "isend":
                # Fig. 5: the adjoint of Isend is an Irecv into a
                # temporary accumulation buffer.
                tmp = AbsPtr(AbsBuffer(f"d_acc#{next(self._allocs)}"), 0)
                ev = self._emit(op, "irecv", peer=rec.peer, tag=rec.tag,
                                count=rec.count, buf=tmp, blocking=False,
                                rid=rid, provenance="adjoint")
                req = AbsRequest(rid, "rev_irecv", tmp, ev, acc=rec.d_buf)
            else:
                # The adjoint of Irecv is an Isend of the shadow buffer.
                self._touch(op, rec.d_buf, False)
                ev = self._emit(op, "isend", peer=rec.peer, tag=rec.tag,
                                count=rec.count, buf=rec.d_buf,
                                blocking=False, rid=rid,
                                provenance="adjoint")
                req = AbsRequest(rid, "rev_isend", rec.d_buf, ev)
            if not ev.maybe:
                self.windows.append(req)
            self.env[op.result] = req
            return
        if callee in ("mpid.finish_send", "mpid.finish_recv"):
            rr = self._val(op.operands[0])
            if not isinstance(rr, AbsRequest):
                self._diag(WARN, "unresolved-request",
                           f"{callee[5:]} on an adjoint request the "
                           f"analysis could not track", op)
                return
            self._emit(op, "wait", rid=rr.rid, provenance="adjoint")
            if rr in self.windows:
                self.windows.remove(rr)
            if callee == "mpid.finish_send":
                self._touch(op, rr.buf, False)
                self._touch(op, rr.acc, True)    # += accumulate
            else:
                self._touch(op, rr.buf, True)    # zero the shadow
                self._clobber(rr.buf)
            return
        if callee == "mpid.record_allreduce":
            red_op = op.attrs.get("op", "sum")
            rec = AbsRecord("allreduce", self._ptr(op.operands[2]),
                            self._sym(op.operands[4]),
                            d_buf2=self._ptr(op.operands[3]),
                            red_op=red_op, op=op)
            if red_op in ("min", "max"):
                # The augmented forward pass adds a MINLOC-style
                # winner-mask collective with no primal counterpart.
                self._emit(op, "winner_mask",
                           count=self._sym(op.operands[4]),
                           red_op=red_op, provenance="augmented")
            self.env[op.result] = rec
            return
        if callee == "mpid.rev_allreduce":
            rec = self._val(op.operands[0])
            if isinstance(rec, AbsRecord):
                self._touch(op, rec.d_buf2, False)
                self._touch(op, rec.d_buf, True)
                self._clobber(rec.d_buf)
                self._emit(op, "allreduce", count=rec.count, red_op="sum",
                           provenance="adjoint")
            else:
                self._diag(WARN, "unresolved-request",
                           "rev_allreduce on an untracked record", op)
            return
        if callee == "mpid.record_reduce":
            self.env[op.result] = AbsRecord(
                "reduce", self._ptr(op.operands[0]),
                self._sym(op.operands[2]),
                d_buf2=self._ptr(op.operands[1]),
                root=self._sym(op.operands[3]), op=op)
            return
        if callee == "mpid.rev_reduce":
            rec = self._val(op.operands[0])
            if isinstance(rec, AbsRecord):
                self._touch(op, rec.d_buf2, False)
                self._touch(op, rec.d_buf, True)
                self._clobber(rec.d_buf)
                # reduce(sum, root) reverses into bcast from the root.
                self._emit(op, "bcast", count=rec.count, root=rec.root,
                           provenance="adjoint")
            else:
                self._diag(WARN, "unresolved-request",
                           "rev_reduce on an untracked record", op)
            return
        if callee == "mpid.rev_bcast":
            d_buf = self._ptr(op.operands[0])
            self._touch(op, d_buf, True)
            self._clobber(d_buf)
            # bcast(root) reverses into reduce(sum) onto the root.
            self._emit(op, "reduce", count=self._sym(op.operands[1]),
                       root=self._sym(op.operands[2]), red_op="sum",
                       provenance="adjoint")
            return
        if op.result is not None:
            self.env[op.result] = UNKNOWN


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class CommReport:
    """Findings (plus the symbolic endpoint summary) for one function."""

    fn: str
    sizes: tuple
    diagnostics: list[Diagnostic] = field(default_factory=list)
    summary: list[dict] = field(default_factory=list)
    checked: bool = True        # False when the function never communicates
    duality: bool = False       # True for verify_duality reports

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARN]

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def render(self) -> str:
        head = f"@{self.fn} (P={', '.join(map(str, self.sizes))})"
        if not self.checked:
            return f"{head}: no MPI communication"
        lines = [f"{head}: " + ("clean" if self.clean else
                                f"{len(self.errors)} error(s), "
                                f"{len(self.warnings)} warning(s)")]
        lines.extend(d.render() for d in self.diagnostics)
        if self.summary:
            lines.append("symbolic communication summary:")
            lines.append(render_summary(self.summary))
        return "\n".join(lines)


class CommCheckError(Exception):
    """Raised when commcheck (run with ``on_error='raise'``) finds
    error-severity structural communication bugs."""

    def __init__(self, result: CommReport) -> None:
        self.result = result
        errs = result.errors
        head = (f"commcheck found {len(errs)} error(s) in @{result.fn}")
        detail = "\n".join(d.render() for d in errs)
        super().__init__(head + ("\n" + detail if detail else ""))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _resolve_fn(fn, module: Module) -> Function:
    return module.functions[fn] if isinstance(fn, str) else fn


def _auto_bindings(fns: list[Function], bindings: Optional[dict]) -> dict:
    out = dict(bindings or {})
    vals = iter(_AUTO_BINDINGS)
    for f in fns:
        for a in f.args:
            if a.type is I64 and a.name not in out:
                out[a.name] = next(vals, 2)
    return out


def _symbolic_summary(module: Module, fn: Function, sink: DiagSink,
                      bindings: dict, split: bool,
                      max_unroll: int) -> list[dict]:
    ext = _Extractor(module, fn, sink=DiagSink(fn.name), rank=None,
                     nprocs=None, bindings=bindings, symbolic=True,
                     split_adjoint=split, max_unroll=max_unroll)
    trace = ext.run()
    rows, seen = [], set()
    for ev in trace:
        if ev.op is not None and ev.op.uid in seen:
            continue
        if ev.op is not None:
            seen.add(ev.op.uid)
        rows.append({
            "kind": ev.kind + ("" if ev.provenance in ("primal", "forward")
                               else f" [{ev.provenance}]"),
            "peer": ev.peer_s or "",
            "tag": ev.tag_s or "",
            "count": ev.count_s or "",
            "guard": "maybe" if ev.maybe else "",
            "op": print_op(ev.op) if ev.op is not None else "",
        })
    return rows


def _extract_traces(module: Module, fn: Function, sink: DiagSink,
                    nprocs: int, bindings: dict, split: bool,
                    max_unroll: int) -> list[list[CommEvent]]:
    return [
        _Extractor(module, fn, sink=sink, rank=r, nprocs=nprocs,
                   bindings=bindings, split_adjoint=split,
                   max_unroll=max_unroll).run()
        for r in range(nprocs)
    ]


def _check_traces(traces: list[list[CommEvent]], sink: DiagSink) -> None:
    ok = check_p2p(traces, sink)
    ok &= check_collectives(traces, sink)
    for trace in traces:
        check_request_lifetime(trace, sink)
    if ok:
        simulate_rendezvous(traces, sink)


def commcheck_function(fn, module: Module, sizes: tuple = DEFAULT_SIZES,
                       bindings: Optional[dict] = None,
                       max_unroll: int = 128,
                       split_adjoint: bool = False) -> CommReport:
    """Extract and check ``fn``'s communication graph for each
    communicator size in ``sizes``.

    ``bindings`` maps integer-argument names to concrete values; unbound
    integer arguments are auto-assigned small distinct values (the same
    value for the same name across functions, so primal and gradient
    instantiate identically).
    """
    fn = _resolve_fn(fn, module)
    if not function_has_comm(fn, module):
        return CommReport(fn.name, tuple(sizes), checked=False)
    bindings = _auto_bindings([fn], bindings)
    sink = DiagSink(fn.name)
    for nprocs in sizes:
        traces = _extract_traces(module, fn, sink, nprocs, bindings,
                                 split_adjoint, max_unroll)
        _check_traces(traces, sink)
    summary = _symbolic_summary(module, fn, sink, bindings,
                                split_adjoint, max_unroll)
    return CommReport(fn.name, tuple(sizes), sink.items, summary)


def _scan_shadow_swap(fn: Function, sink: DiagSink) -> None:
    """Statically reject shadow records built over the *primal* buffer:
    ``mpid.record_*`` must take the shadow, never the buffer its
    adjacent clone communicates (Fig. 5's ``d_data`` vs ``data``)."""
    last_clone: dict[str, Op] = {}
    for op in fn.body.walk():
        if op.opcode != "call":
            continue
        callee = op.attrs.get("callee", "")
        if callee in ("mpi.isend", "mpi.irecv"):
            last_clone[callee[4:]] = op
        elif callee in ("mpid.record_send", "mpid.record_recv"):
            kind = "isend" if callee.endswith("send") else "irecv"
            clone = last_clone.get(kind)
            if clone is not None and clone.operands[0] is op.operands[0]:
                sink.add(ERROR, "shadow-is-primal",
                         f"{callee} records the primal communication "
                         f"buffer instead of its shadow", op, clone)
        elif callee == "mpid.record_allreduce":
            if op.operands[2] is op.operands[0] or \
                    op.operands[3] is op.operands[1]:
                sink.add(ERROR, "shadow-is-primal",
                         "mpid.record_allreduce records a primal buffer "
                         "instead of its shadow", op)


def verify_duality(module: Module, primal, grad,
                   sizes: tuple = DEFAULT_SIZES,
                   bindings: Optional[dict] = None,
                   max_unroll: int = 128) -> CommReport:
    """Verify the gradient's communication graph against the primal's.

    Extracts both functions' traces per communicator size, runs the
    full structural checks on the gradient (matching, collectives,
    request lifetimes, rendezvous simulation), and asserts the Fig. 5
    duality: forward clones replay the primal graph exactly, the
    adjoint point-to-point edge multiset is the primal's transpose, and
    each rank's adjoint collective sequence is the reversed dual of its
    primal sequence.
    """
    primal = _resolve_fn(primal, module)
    grad = _resolve_fn(grad, module)
    if not function_has_comm(primal, module):
        return CommReport(grad.name, tuple(sizes), checked=False,
                          duality=True)
    bindings = _auto_bindings([primal, grad], bindings)
    sink = DiagSink(grad.name)
    _scan_shadow_swap(grad, sink)
    for nprocs in sizes:
        prim_traces = _extract_traces(module, primal, sink, nprocs,
                                      bindings, False, max_unroll)
        grad_traces = _extract_traces(module, grad, sink, nprocs,
                                      bindings, True, max_unroll)
        _check_traces(grad_traces, sink)
        duality_diagnostics(prim_traces, grad_traces, sink, nprocs)
    summary = _symbolic_summary(module, grad, sink, bindings, True,
                                max_unroll)
    return CommReport(grad.name, tuple(sizes), sink.items, summary,
                      duality=True)


def commcheck_module(module: Module, sizes: tuple = DEFAULT_SIZES,
                     bindings: Optional[dict] = None,
                     max_unroll: int = 128) -> dict[str, CommReport]:
    """Run :func:`commcheck_function` over every communicating function."""
    out = {}
    memo: dict = {}
    for name, fn in module.functions.items():
        if function_has_comm(fn, module, memo):
            out[name] = commcheck_function(fn, module, sizes, bindings,
                                           max_unroll)
    return out


class CommCheckPass(FunctionPass):
    """Diagnostics-only pass: static MPI communication analysis.

    Analysis only — never mutates IR.  Results accumulate in
    ``self.results`` keyed by function name; ``on_error="raise"`` turns
    error findings into :class:`CommCheckError`.
    """

    name = "commcheck"

    def __init__(self, sizes: tuple = DEFAULT_SIZES,
                 on_error: str = "ignore",
                 bindings: Optional[dict] = None,
                 max_unroll: int = 128) -> None:
        self.sizes = tuple(sizes)
        self.on_error = on_error
        self.bindings = bindings
        self.max_unroll = max_unroll
        self.results: dict[str, CommReport] = {}

    def run(self, fn: Function, module: Module) -> bool:
        if not function_has_comm(fn, module):
            return False
        report = commcheck_function(fn, module, self.sizes, self.bindings,
                                    self.max_unroll)
        self.results[fn.name] = report
        if self.on_error == "raise" and report.errors:
            raise CommCheckError(report)
        return False


__all__ = [
    "CommCheckError", "CommCheckPass", "CommReport", "DEFAULT_SIZES",
    "Sym", "commcheck_function", "commcheck_module", "fmt_sym",
    "function_has_comm", "sym_binop", "sym_cmp", "sym_unop", "sym_var",
    "verify_duality",
]
