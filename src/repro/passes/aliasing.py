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

Pointers held in memory (closure records, the AD's per-thread pointer
arrays) get a provenance that is the union of everything ever stored
into the buffer.  :meth:`AliasInfo.stored_value` is the exact
counterpart, the *stored-value fact*: a pointer ``load`` from an
``alloc`` that never escapes stands for the one SSA value ``v`` that
every store able to reach it wrote (see :func:`_stored_values`).  It
names ``v``, not an instance of it: the load returns the ``v`` computed
by whichever execution of its definition preceded the store.  Only
bounds certification reads it; the cache planner, activity, LICM and
OpenMPOpt keep the origin-level provenance above.
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

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.prov: dict[Value, frozenset] = {}
        self.written: set = set()
        self.has_unknown_write = False
        #: Per alloc/arg origin: provenances of pointers stored into it
        #: (for pointers held in memory, e.g. closure records).
        self.stored_ptrs: dict = {}
        self._region_writes_cache: dict[Op, tuple[frozenset, bool]] = {}
        #: Pointer load -> the value it stands for (or None); filled on
        #: the first :meth:`stored_value` query.
        self._stored: Optional[dict[Op, Optional[Value]]] = None

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

    def stored_value(self, load: Op) -> Optional[Value]:
        """The SSA value the pointer-typed ``load`` stands for under the
        stored-value fact, or None when the fact does not hold."""
        if self._stored is None:
            self._stored = _stored_values(self.fn, self)
        return self._stored.get(load)

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
    info = AliasInfo(fn)
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
    else:
        # Provenance did not settle, so an escape may be missing from
        # it: no load stands for a stored value.
        info._stored = {}

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


def _slot(ptr: Value, idx: Value) -> tuple[Value, Optional[int]]:
    """The ``ptradd`` root of ``ptr`` and the constant element an access
    ``ptr[idx]`` touches in it (None when an offset is not constant)."""
    offsets = [idx]
    while isinstance(ptr, Result) and ptr.op.opcode == "ptradd":
        offsets.append(ptr.op.operands[1])
        ptr = ptr.op.operands[0]
    if all(isinstance(o, Constant) and isinstance(o.value, int)
           for o in offsets):
        return ptr, sum(o.value for o in offsets)
    return ptr, None


def _stored_values(fn: Function, info: AliasInfo
                   ) -> dict[Op, Optional[Value]]:
    """The stored-value fact for every pointer ``load`` of ``fn``.

    A load from an ``alloc`` buffer stands for ``v`` when

    * the buffer does not escape: every pointer into it is only the base
      of loads, stores and ``ptradd``s, or a value stored into buffers
      this fact also tracks (so no ``memcpy``, ``memset``, ``atomic``,
      call or pointer of unknown provenance can write it);
    * every store that can reach the load — the stores to its constant
      slot and the stores at a varying index, or every store when the
      load's own index varies — stores ``v`` (up to this same fact).

    A load through a pointer loaded from a tracked buffer finds its slot
    through the fact too, so chains resolve: record → per-thread pointer
    array → saved shadow-record array → argument."""
    prov = info.prov
    tracked: set = set()
    escaped: set = set()
    into: dict = {}     # origin -> origins its pointers are stored into
    stores: dict = {}   # origin -> [(root, slot, stored value)]
    loads: list[Op] = []

    def escape(v: Value) -> None:
        if isinstance(v.type, PointerType):
            escaped.update(prov.get(v, ()))

    for op in fn.walk():
        oc = op.opcode
        if oc == "alloc":
            tracked.add(("alloc", op))
        elif oc == "load":
            if isinstance(op.result.type, PointerType):
                loads.append(op)
        elif oc == "ptradd":
            pass                    # its result carries the origins on
        elif oc == "store":
            val, ptr, idx = op.operands
            dest = prov.get(ptr, frozenset([UNKNOWN]))
            if isinstance(val.type, PointerType):
                for o in prov.get(val, ()):
                    into.setdefault(o, set()).update(dest)
            root, slot = _slot(ptr, idx)
            for o in dest:
                stores.setdefault(o, []).append((root, slot, val))
        else:
            for v in op.operands:
                escape(v)
    changed = True
    while changed:
        changed = False
        for o in list(tracked):
            if o in escaped or not into.get(o, set()) <= tracked:
                tracked.discard(o)
                changed = True

    facts: dict[Op, Optional[Value]] = {}

    def resolve(v: Value) -> Value:
        """``v``, or what the pointer load defining it stands for."""
        while isinstance(v, Result) and v.op.opcode == "load":
            got = fact(v.op)
            if got is None:
                break
            v = got
        return v

    def fact(load: Op) -> Optional[Value]:
        if load in facts:
            return facts[load]
        facts[load] = None          # cuts cycles through memory
        root, slot = _slot(*load.operands)
        root = resolve(root)
        origin = (("alloc", root.op) if isinstance(root, Result)
                  and root.op.opcode == "alloc" else None)
        if origin is None:
            p = prov.get(load.operands[0], frozenset())
            origin, slot = (next(iter(p)) if len(p) == 1 else None), None
        if origin not in tracked:
            return None
        seen: Optional[Value] = None
        for sroot, sslot, val in stores.get(origin, ()):
            if resolve(sroot) is not root:
                sslot = None
            if slot is not None and sslot is not None and sslot != slot:
                continue
            val = resolve(val)
            if val is load.result or (seen is not None and val is not seen):
                return None
            seen = val
        facts[load] = seen
        return seen

    for op in loads:
        fact(op)
    return facts
