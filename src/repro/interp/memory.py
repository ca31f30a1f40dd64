"""Runtime memory model of the interpreter.

A buffer is a typed, bounds-checked slab; a pointer is a (buffer,
offset) pair.  Offsets may be NumPy index vectors during vectorized
execution of parallel loop bodies.  Buffers live in one of three
spaces:

* ``stack`` — function-local, freed implicitly;
* ``heap``  — explicit ``free``;
* ``gc``    — garbage collected (Julia frontend).  Collection happens
  only at ``jl.safepoint`` calls when GC stress mode is enabled, with a
  root set of (a) buffers covered by active ``gc_preserve`` tokens,
  (b) buffers reachable from function-argument buffers, and (c) buffers
  reachable from other roots through stored pointers.  Raw pointers
  extracted with ``jl.arrayptr`` do *not* root their buffer — that is
  precisely the hazard ``gc_preserve`` exists for (paper §VI-C2).
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

import numpy as np

from ..ir.types import F64, I1, I64, PointerType, Type

_buffer_ids = itertools.count(1)

Index = Union[int, np.ndarray]


class InterpreterError(Exception):
    pass


class ContractError(TypeError):
    """An actual pointer argument breaks a contract its formal declares
    (``extent=N``, ``below=N``).  Certified accesses run unchecked
    against those contracts, so they are enforced at every entry."""


def _np_dtype(elem: Type):
    if elem is F64:
        return np.float64
    if elem is I64:
        return np.int64
    if elem is I1:
        return np.bool_
    return object  # pointers, handles


class CellClocks:
    """Per-cell happens-before metadata for the race sanitizer.

    One instance shadows one :class:`Buffer` when the dynamic race
    checker (:mod:`repro.sanitize.racecheck`) is enabled.  Each cell
    remembers its last-writer and last-reader *epochs* — ``(thread,
    clock-at-access)`` pairs in FastTrack style — plus the op that
    performed the access, so a :class:`~repro.sanitize.racecheck.
    RaceReport` can name both conflicting operations.  Cells observed
    by several concurrent readers escalate into the sparse ``shared``
    read map.

    Allocation happens lazily on first sanitized access; when the
    sanitizer is off (the default) a buffer carries only a ``None``
    slot and the interpreter hot paths never touch this class.
    """

    __slots__ = ("w_tid", "w_clk", "w_atomic", "w_op",
                 "r_tid", "r_clk", "r_atomic", "r_op", "shared")

    def __init__(self, count: int) -> None:
        self.w_tid = np.full(count, -1, dtype=np.int64)
        self.w_clk = np.zeros(count, dtype=np.int64)
        self.w_atomic = np.zeros(count, dtype=bool)
        self.w_op = np.empty(count, dtype=object)
        self.r_tid = np.full(count, -1, dtype=np.int64)
        self.r_clk = np.zeros(count, dtype=np.int64)
        self.r_atomic = np.zeros(count, dtype=bool)
        self.r_op = np.empty(count, dtype=object)
        #: Escalated read cells: index -> {tid: (clock, op)}.
        self.shared: dict[int, dict] = {}


class Buffer:
    """A contiguous allocation of ``count`` slots of one element type."""

    __slots__ = ("bid", "elem", "data", "space", "freed", "_name",
                 "thread_local_of", "stream", "adcache", "shadow_meta")

    def __init__(self, count: int, elem: Type, space: str = "stack",
                 name="", data: Optional[np.ndarray] = None) -> None:
        self.bid = next(_buffer_ids)
        self.elem = elem
        if data is not None:
            self.data = data
        else:
            dt = _np_dtype(elem)
            if dt is object:
                self.data = np.empty(int(count), dtype=object)
            else:
                self.data = np.zeros(int(count), dtype=dt)
        self.space = space
        self.freed = False
        #: A string, or the IR value that allocated the buffer (see
        #: :attr:`name`).
        self._name = name
        #: Streaming buffer (AD value cache): accesses bypass the cache
        #: hierarchy in the performance model.
        self.stream = False
        #: AD primal-state storage (value caches / checkpoint snapshots);
        #: tracked by Memory.adcache_bytes for peak-memory reporting.
        self.adcache = False
        #: Thread id if this buffer was allocated inside a parallel
        #: region (then it is thread-local by construction).
        self.thread_local_of: Optional[int] = None
        #: Per-cell vector-clock metadata (:class:`CellClocks`), created
        #: lazily by the race sanitizer; always None when sanitizing is
        #: off so the default hot paths pay nothing.
        self.shadow_meta: Optional[CellClocks] = None

    @property
    def count(self) -> int:
        return len(self.data)

    @property
    def name(self) -> str:
        """The buffer's name, shown only in messages.  Compiled code
        hands over the allocating value itself, whose name is read here:
        the value of a function still held as text reads it from the IR,
        built for the purpose, so both tiers name the same buffer."""
        n = self._name
        return n if type(n) is str else n.name

    def check_alive(self) -> None:
        if self.freed:
            raise InterpreterError(
                f"use of freed/collected buffer {self.name or self.bid} "
                f"(space={self.space})")

    def __repr__(self) -> str:
        return (f"<Buffer #{self.bid} {self.name or ''} {self.count} x "
                f"{self.elem} {self.space}{' FREED' if self.freed else ''}>")


class PtrVal:
    """Runtime pointer: buffer + element offset.

    ``raw=True`` marks a pointer obtained through ``jl.arrayptr`` (or
    derived from one): it does not keep its GC buffer alive.
    """

    __slots__ = ("buffer", "offset", "raw")

    def __init__(self, buffer: Buffer, offset: Index = 0,
                 raw: bool = False) -> None:
        self.buffer = buffer
        self.offset = offset
        self.raw = raw

    def added(self, idx: Index) -> "PtrVal":
        return PtrVal(self.buffer, self.offset + idx, self.raw)

    def resolve(self, idx: Index) -> Index:
        return self.offset + idx

    def __repr__(self) -> str:
        return f"<ptr {self.buffer!r} +{self.offset}{' raw' if self.raw else ''}>"


def check_contracts(fn, actuals) -> None:
    """Enforce the pointer-argument contracts of ``fn`` on the runtime
    values about to be bound to its arguments: ``extent=N`` — at least
    ``N`` elements from the pointer on; ``below=N`` — every one of them
    in ``[0, N)``.  Raises :class:`ContractError` naming function,
    argument and contract."""
    for formal, ptr in zip(fn.args, actuals):
        attrs = formal.attrs
        if not attrs or type(ptr) is not PtrVal:
            continue
        extent, below = attrs.get("extent"), attrs.get("below")
        if extent is None and below is None:
            continue
        data, lo = ptr.buffer.data, ptr.offset
        hi = lo
        if type(lo) is not int:  # a lane vector of offsets
            lo, hi = int(np.min(lo)), int(np.max(lo))
        if extent is not None and len(data) - hi < extent:
            raise ContractError(
                f"argument {formal.name!r} of {fn.name} declares extent "
                f"{extent} but the buffer has only {len(data) - hi} "
                f"elements")
        if below is not None:
            cells = data[max(lo, 0):]
            if cells.size and (cells.min() < 0 or cells.max() >= below):
                raise ContractError(
                    f"argument {formal.name!r} of {fn.name} declares below "
                    f"{below} but holds elements in [{cells.min()}, "
                    f"{cells.max()}]")


class TokenVal:
    """GC-preserve token: roots a set of buffers until ended."""

    __slots__ = ("buffers", "active")

    def __init__(self, buffers: list[Buffer]) -> None:
        self.buffers = buffers
        self.active = True


class TaskVal:
    """A completed-eagerly task handle with its simulated schedule."""

    __slots__ = ("cost", "spawn_clock", "finish_clock", "tid", "rc_tid")
    _ids = itertools.count()

    def __init__(self, cost, spawn_clock: float) -> None:
        self.cost = cost
        self.spawn_clock = spawn_clock
        self.finish_clock = spawn_clock
        self.tid = next(TaskVal._ids)
        #: Race-checker logical thread of the task body (-1 when off).
        self.rc_tid = -1


class DynCache:
    """Growable LIFO cache — Enzyme allocation strategy 3 (§IV-C)."""

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: list = []

    def push(self, v) -> None:
        self.items.append(v)

    def pop(self):
        if not self.items:
            raise InterpreterError("cache.pop from empty dynamic cache")
        return self.items.pop()

    def __len__(self) -> int:
        return len(self.items)


class Memory:
    """All buffers of one interpreter instance (one MPI rank)."""

    def __init__(self, gc_stress: bool = False) -> None:
        self.buffers: dict[int, Buffer] = {}
        self.gc_stress = gc_stress
        self._preserve_tokens: list[TokenVal] = []
        self._arg_roots: set[int] = set()
        self.gc_collections = 0
        self.gc_freed = 0
        #: Live / peak bytes of AD primal-state storage (buffers whose
        #: alloc op carries the ``adcache`` attribute).
        self.adcache_bytes = 0
        self.adcache_peak = 0

    def note_adcache(self, buf: Buffer) -> None:
        """Mark ``buf`` as AD cache storage and update the peak."""
        buf.adcache = True
        self.adcache_bytes += buf.count * buf.elem.size_bytes
        if self.adcache_bytes > self.adcache_peak:
            self.adcache_peak = self.adcache_bytes

    # ------------------------------------------------------------------
    def alloc(self, count: int, elem: Type, space: str, name="",
              thread_local_of: Optional[int] = None) -> PtrVal:
        if count < 0:
            raise InterpreterError(f"negative allocation size {count}")
        buf = Buffer(count, elem, space, name)
        buf.thread_local_of = thread_local_of
        self.buffers[buf.bid] = buf
        return PtrVal(buf, 0)

    def wrap_external(self, array: np.ndarray, elem: Type,
                      name: str = "") -> PtrVal:
        """Wrap a caller-owned NumPy array (no copy) as an argument buffer."""
        buf = Buffer(len(array), elem, space="heap", name=name, data=array)
        self.buffers[buf.bid] = buf
        self._arg_roots.add(buf.bid)
        return PtrVal(buf, 0)

    def free(self, ptr: PtrVal) -> None:
        buf = ptr.buffer
        if buf.freed:
            raise InterpreterError(f"double free of {buf!r}")
        if (np.ndim(ptr.offset) == 0 and int(np.asarray(ptr.offset)) != 0):
            raise InterpreterError("free of interior pointer")
        buf.freed = True
        if buf.adcache:
            self.adcache_bytes -= buf.count * buf.elem.size_bytes

    # ------------------------------------------------------------------
    # GC (Julia frontend model)
    # ------------------------------------------------------------------
    def preserve_begin(self, ptrs: list[PtrVal]) -> TokenVal:
        token = TokenVal([p.buffer for p in ptrs])
        self._preserve_tokens.append(token)
        return token

    def preserve_end(self, token: TokenVal) -> None:
        token.active = False

    def safepoint(self) -> None:
        """Collect unreachable GC buffers (only under GC stress)."""
        if not self.gc_stress:
            return
        self.gc_collections += 1
        roots: set[int] = set(self._arg_roots)
        for token in self._preserve_tokens:
            if token.active:
                roots.update(b.bid for b in token.buffers)
        # Transitive reachability through stored (non-raw) pointers.
        work = list(roots)
        reachable = set(roots)
        while work:
            bid = work.pop()
            buf = self.buffers.get(bid)
            if buf is None or buf.data.dtype != object:
                continue
            for cell in buf.data:
                if isinstance(cell, PtrVal) and not cell.raw:
                    cbid = cell.buffer.bid
                    if cbid not in reachable:
                        reachable.add(cbid)
                        work.append(cbid)
        for buf in self.buffers.values():
            if buf.space == "gc" and not buf.freed and buf.bid not in reachable:
                buf.freed = True
                self.gc_freed += 1
                if buf.adcache:
                    self.adcache_bytes -= buf.count * buf.elem.size_bytes

    # ------------------------------------------------------------------
    # Access helpers (bounds-checked)
    # ------------------------------------------------------------------
    @staticmethod
    def _check_bounds(buf: Buffer, idx: Index) -> None:
        if isinstance(idx, np.ndarray):
            if idx.size and (idx.min() < 0 or idx.max() >= buf.count):
                bad_lo, bad_hi = int(idx.min()), int(idx.max())
                raise InterpreterError(
                    f"index out of bounds [{bad_lo}, {bad_hi}] for {buf!r}")
        else:
            if idx < 0 or idx >= buf.count:
                raise InterpreterError(
                    f"index {idx} out of bounds for {buf!r}")

    def load(self, ptr: PtrVal, idx: Index):
        buf = ptr.buffer
        buf.check_alive()
        at = ptr.resolve(idx)
        self._check_bounds(buf, at)
        # Fancy indexing copies; scalar indexing returns a scalar. Either
        # way the result does not alias the buffer.
        return buf.data[at]

    def store(self, ptr: PtrVal, idx: Index, value,
              mask: Optional[np.ndarray] = None) -> None:
        buf = ptr.buffer
        buf.check_alive()
        at = ptr.resolve(idx)
        self._check_bounds(buf, at)
        if mask is None:
            buf.data[at] = value
        else:
            at_arr = np.broadcast_to(np.asarray(at), mask.shape)
            val_arr = np.broadcast_to(np.asarray(value), mask.shape)
            buf.data[at_arr[mask]] = val_arr[mask]

    def atomic(self, kind: str, ptr: PtrVal, idx: Index, value,
               mask: Optional[np.ndarray] = None) -> None:
        buf = ptr.buffer
        buf.check_alive()
        at = ptr.resolve(idx)
        self._check_bounds(buf, at)
        at_arr = np.asarray(at)
        val_arr = np.asarray(value)
        if mask is not None:
            shape = np.broadcast_shapes(at_arr.shape, val_arr.shape, mask.shape)
            at_arr = np.broadcast_to(at_arr, shape)[mask]
            val_arr = np.broadcast_to(val_arr, shape)[mask]
        ufunc = {"add": np.add, "min": np.minimum, "max": np.maximum}[kind]
        if at_arr.ndim == 0 and val_arr.ndim == 0:
            cur = buf.data[int(at_arr)]
            buf.data[int(at_arr)] = ufunc(cur, val_arr)
        else:
            shape = np.broadcast_shapes(at_arr.shape, val_arr.shape)
            ufunc.at(buf.data, np.broadcast_to(at_arr, shape).ravel(),
                     np.broadcast_to(val_arr, shape).ravel())

    def memset(self, ptr: PtrVal, value, count: int) -> None:
        buf = ptr.buffer
        buf.check_alive()
        start = int(ptr.offset)
        if start < 0 or start + count > buf.count:
            raise InterpreterError(f"memset out of bounds on {buf!r}")
        buf.data[start:start + count] = value

    def memcpy(self, dst: PtrVal, src: PtrVal, count: int) -> None:
        dst.buffer.check_alive()
        src.buffer.check_alive()
        ds, ss = int(dst.offset), int(src.offset)
        if ds + count > dst.buffer.count or ss + count > src.buffer.count:
            raise InterpreterError("memcpy out of bounds")
        dst.buffer.data[ds:ds + count] = src.buffer.data[ss:ss + count]
