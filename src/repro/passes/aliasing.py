"""Pointer provenance and alias analysis.

Allocation-site based, flow-insensitive.  Each pointer SSA value gets a
*provenance*: a set of origins it may point into.

Origins:

* ``("arg", Argument)`` — a pointer argument.  Arguments marked
  ``noalias`` are assumed pairwise disjoint from every other argument
  (the `restrict` convention the benchmark apps follow).
* ``("alloc", AllocOp)`` — a fresh allocation; distinct allocs never
  alias, and never alias arguments.
* ``UNKNOWN`` — anything else; may alias everything.  Notably the
  result of ``jl.arrayptr`` is UNKNOWN: the extra indirection of Julia
  array descriptors defeats the analysis exactly as the paper reports
  for miniBUDE.jl (§VIII) — unless an optimization pass first forwards
  the descriptor's definition (see :mod:`repro.passes.openmp_opt`).

The analysis also tracks which origins may be *written* anywhere in the
function (stores, atomics, memset/memcpy, writing intrinsics such as
``mpi.recv``).  The AD cache planner uses this to decide whether a load
can be rematerialized in the reverse pass (only loads from read-only
origins can — re-loading an overwritten location would observe the
final, not the original, value).
"""

from __future__ import annotations

from typing import Optional

from ..ir.function import Function, IntrinsicInfo, Module
from ..ir.ops import Op
from ..ir.types import PointerType
from ..ir.values import Argument, BlockArg, Constant, Result, Value

UNKNOWN = ("unknown",)

#: Intrinsics that write through their pointer arguments (arg indices).
_WRITING_INTRINSICS: dict[str, tuple[int, ...]] = {
    "mpi.recv": (0,),
    "mpi.irecv": (0,),
    "mpi.allreduce": (1,),
    "mpi.reduce": (1,),
    "mpi.bcast": (0,),
}

#: Intrinsics whose pointer result derives opaquely from the argument.
_OPAQUE_DERIVES = {"jl.arrayptr"}

#: Intrinsics with pointer arguments that never write through them.
_NONWRITING_INTRINSICS = {
    "mpi.send", "mpi.isend", "jl.gc_preserve_begin", "jl.gc_preserve_end",
    "cache.push", "cache.pop", "cache.create", "cache.destroy",
}


class AliasInfo:
    """Result of provenance analysis over one function."""

    def __init__(self) -> None:
        self.prov: dict[Value, frozenset] = {}
        self.written: set = set()
        self.has_unknown_write = False
        #: Per alloc/arg origin: provenances of pointers stored into it
        #: (for pointers held in memory, e.g. closure records).
        self.stored_ptrs: dict = {}
        self._region_writes_cache: dict[Op, tuple[frozenset, bool]] = {}

    # ------------------------------------------------------------------
    def provenance(self, ptr: Value) -> frozenset:
        return self.prov.get(ptr, frozenset([UNKNOWN]))

    def may_alias(self, a: Value, b: Value) -> bool:
        return provs_may_alias(self.provenance(a), self.provenance(b))

    def is_readonly(self, ptr: Value) -> bool:
        """True if no write in the function may touch ``ptr``'s origins."""
        p = self.provenance(ptr)
        if UNKNOWN in p:
            return False
        if self.has_unknown_write:
            return False
        return not (p & self.written)

    def points_to_single_alloc(self, ptr: Value) -> Optional[Op]:
        p = self.provenance(ptr)
        if len(p) == 1:
            (origin,) = p
            if origin[0] == "alloc":
                return origin[1]
        return None

    # ------------------------------------------------------------------
    # Per-region write tracking (public: LICM consumes it)
    # ------------------------------------------------------------------
    def region_written_origins(self, region_op: Op) -> tuple[frozenset,
                                                             bool]:
        """Origins that may be written by any op nested inside
        ``region_op``, plus a has-unknown-write flag.  Unlike the
        whole-function :attr:`written` set this is per-origin precise
        for the known writing intrinsics (``mpi.recv`` writes only its
        receive buffer; ``mpi.send`` writes nothing), so read-only
        buffers inside an MPI-using region stay read-only.  Cached per
        op."""
        cached = self._region_writes_cache.get(region_op)
        if cached is not None:
            return cached
        origins: set = set()
        unknown = False
        for inner in region_op.walk():
            oc = inner.opcode
            target: Optional[Value] = None
            if oc in ("store", "atomic"):
                target = inner.operands[1]
            elif oc in ("memset", "memcpy"):
                target = inner.operands[0]
            elif oc == "call":
                callee = inner.attrs["callee"]
                idxs = _WRITING_INTRINSICS.get(callee)
                if idxs is not None:
                    for i in idxs:
                        p = self.provenance(inner.operands[i])
                        if UNKNOWN in p:
                            unknown = True
                        origins |= set(p)
                elif callee in _NONWRITING_INTRINSICS:
                    pass
                elif callee.startswith("mpi.") or \
                        callee.startswith("mpid."):
                    # e.g. mpi.wait completing an irecv posted outside
                    # the region: the write lands here.
                    unknown = True
                else:
                    for v in inner.operands:
                        if isinstance(v.type, PointerType):
                            p = self.provenance(v)
                            if UNKNOWN in p:
                                unknown = True
                            origins |= set(p)
            if target is not None:
                p = self.provenance(target)
                if UNKNOWN in p:
                    unknown = True
                origins |= set(p)
        out = (frozenset(origins), unknown)
        self._region_writes_cache[region_op] = out
        return out


def provs_may_alias(pa: frozenset, pb: frozenset) -> bool:
    if UNKNOWN in pa or UNKNOWN in pb:
        return True
    if pa & pb:
        return True
    # Distinct allocs never alias; allocs never alias args; two args may
    # alias unless one of them is marked noalias.
    for oa in pa:
        for ob in pb:
            if oa[0] == "arg" and ob[0] == "arg":
                a_attr = oa[1].attrs.get("noalias")
                b_attr = ob[1].attrs.get("noalias")
                if not (a_attr or b_attr):
                    return True
    return False


def analyze_aliasing(fn: Function, module: Module) -> AliasInfo:
    info = AliasInfo()
    prov = info.prov

    for arg in fn.args:
        if isinstance(arg.type, PointerType):
            prov[arg] = frozenset([("arg", arg)])

    def p_of(v: Value) -> frozenset:
        if isinstance(v, Constant):
            return frozenset()
        return prov.get(v, frozenset([UNKNOWN]))

    # Iterate to a fixpoint: pointers can round-trip through memory.
    for _round in range(8):
        changed = False

        def update(v: Value, newp: frozenset) -> None:
            nonlocal changed
            old = prov.get(v)
            if old is None or old != (old | newp):
                prov[v] = (old or frozenset()) | newp
                changed = True

        for op in fn.walk():
            oc = op.opcode
            if oc == "alloc":
                update(op.result, frozenset([("alloc", op)]))
            elif oc == "ptradd":
                update(op.result, p_of(op.operands[0]))
            elif oc == "load" and isinstance(op.result.type if op.result
                                             else None, PointerType):
                base = p_of(op.operands[0])
                gathered: set = set()
                if UNKNOWN in base:
                    gathered.add(UNKNOWN)
                else:
                    for origin in base:
                        gathered |= info.stored_ptrs.get(origin, set())
                    if not gathered:
                        # Nothing stored yet (or unobserved) — unknown.
                        gathered.add(UNKNOWN)
                update(op.result, frozenset(gathered))
            elif oc == "store" and isinstance(op.operands[0].type,
                                              PointerType):
                val_p = p_of(op.operands[0])
                dest_p = p_of(op.operands[1])
                for origin in (dest_p if UNKNOWN not in dest_p
                               else [UNKNOWN]):
                    cur = info.stored_ptrs.setdefault(origin, set())
                    if not val_p <= cur:
                        cur |= val_p
                        changed = True
            elif oc == "call":
                callee = op.attrs["callee"]
                if callee in _OPAQUE_DERIVES and op.result is not None:
                    update(op.result, frozenset([UNKNOWN]))
                elif op.result is not None and isinstance(
                        op.result.type, PointerType):
                    update(op.result, frozenset([UNKNOWN]))
        if not changed:
            break

    # Written origins.
    for op in fn.walk():
        oc = op.opcode
        target: Optional[Value] = None
        if oc == "store":
            target = op.operands[1]
        elif oc == "atomic":
            target = op.operands[1]
        elif oc in ("memset", "memcpy"):
            target = op.operands[0]
        elif oc == "call":
            callee = op.attrs["callee"]
            idxs = _WRITING_INTRINSICS.get(callee)
            if idxs is not None:
                for i in idxs:
                    _mark_written(info, p_of(op.operands[i]))
            elif callee in _NONWRITING_INTRINSICS:
                pass
            else:
                # Unknown user function / writing intrinsic: conservative
                # if it takes pointer args and is not known read-only.
                target_callee = module.intrinsics.get(callee)
                if callee in module.functions:
                    # User calls are inlined before AD; be conservative.
                    for v in op.operands:
                        if isinstance(v.type, PointerType):
                            _mark_written(info, p_of(v))
                elif target_callee is not None and target_callee.effects in (
                        "write", "any"):
                    for v in op.operands:
                        if isinstance(v.type, PointerType):
                            _mark_written(info, p_of(v))
            continue
        if target is not None:
            _mark_written(info, p_of(target))

    return info


def _mark_written(info: AliasInfo, p: frozenset) -> None:
    if UNKNOWN in p:
        info.has_unknown_write = True
    info.written |= p
