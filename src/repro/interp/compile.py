"""Compiled execution backend.

Pairs with :mod:`repro.interp.lowering`: each IR function is lowered
once to Python source (a generator function), compiled with
:func:`compile`/``exec``, and cached on the :class:`~repro.ir.function.
Function` object.  The generated code runs against the owning
:class:`~repro.interp.interpreter.Interpreter` instance (``rt``) as
shared runtime state — same :class:`~repro.interp.memory.Memory`, same
:class:`~repro.perf.cost.CostVector` sinks, same simulated clock.  Both
tiers run each parallel region and each call through one driver, the
interpreter's own: ``_rf`` is :meth:`Interpreter.run_fork` over
compiled per-thread body generators, ``_rs`` is
:meth:`Interpreter.run_spawn` over a compiled task body, ``_ca`` is
:meth:`Interpreter.call_op` (user callees and intrinsics — MPI events
yield upward through the compiled generator unchanged).  Results and
timings are therefore bit-identical by construction there.

The runtime helpers in this module are the out-of-line parts of the
generated code.  Memory access comes in three statically-selected
flavors (the lowering knows mask state and the affine form of every
address at codegen time — see ``Lowerer._plan``):

* ``_lds``/``_sts``/``_ats`` — unmasked vector access whose address is
  ``a + t*lane``: a strided slice of the buffer, no index vector, an
  endpoint bounds check;
* ``_ld``/``_st``/``_at`` — statically-unmasked generics (no mask
  handling at all, plus scalar fast paths): gathers and scatters
  through an index vector, bounds-checked by one reduction over it;
* ``_ldk``/``_stk``/``_atk`` — masked generics used inside lowered
  vectorized-``if`` branches, consulting ``rt.mask`` exactly like the
  interpreter.

The first two come from one factory (``_make_access_helpers``) in a
checked and an unchecked build; sites the interval analysis certified
in-bounds call the unchecked one under a ``u`` suffix (``_ldsu``,
``_ldu``, ...).

Plus privatizing allocation (``_al``) and segment cost accumulation
(``_acc``).

Compilation itself is two-level cached: in-process on the Function
object (fingerprint-checked, since ExecConfig.fusion changes codegen),
and optionally on disk (:mod:`repro.interp.diskcache`) keyed on the
printed IR closure + config fingerprint + a digest of the lowering's own
sources, so warm processes skip bounds certification, lowering and
CPython's ``compile()`` for large adjoint functions — and, for a
gradient read back from the disk cache as text, never build its IR.

Fallback contract (who runs what):

* ``ExecConfig(sanitize=True)`` never constructs this backend at all;
* a tape (operator-overloading baseline) or a vectorized caller
  context pins the interpreter for that call;
* a function whose lowering fails — including one holding a construct
  the lowering does not claim — is marked interpreter-only, the one
  degradation granularity (``compile_stats()["interpreter_only"]``
  names it and the cause).
"""

from __future__ import annotations

import numpy as np

from ..ir.function import Function
from ..ir.printer import print_closure, print_function
from ..ir.types import F64
from ..perf.cost import CostVector
from .diskcache import config_fingerprint, open_cache
from .events import BarrierEvent
from .fusion import FusionStats
from .interpreter import Interpreter, chunk_bounds
from .memory import DynCache, InterpreterError, Memory, PtrVal
from .lowering import (LoweringError, join_records, lower_function,
                       resolve_consts)

#: Cache attributes stashed on Function objects (they have no
#: __slots__).  ``_compiled_code`` holds the generator function (False
#: = interpreter-only); ``_compiled_key`` the (fusion, fingerprint)
#: pair it was built under, so a config change recompiles.
_CACHE_ATTR = "_compiled_code"
_CACHE_KEY_ATTR = "_compiled_key"

#: Bounds checks on int64 index vectors use a zero-copy uint64 view:
#: negative indexes wrap to huge values, so a single max-reduction
#: catches both underflow and overflow (the interpreter does two).
_I8 = np.dtype(np.int64)
_U8 = np.dtype(np.uint64)
_umax = np.maximum.reduce


# ---------------------------------------------------------------------------
# Runtime helpers referenced by generated code
# ---------------------------------------------------------------------------

def _acc(rt, flops, divs, specials, int_ops):
    """Accumulate one straight-line segment's aggregated compute cost."""
    c = rt.cost
    if flops:
        c.flops += flops
    if divs:
        c.divs += divs
    if specials:
        c.specials += specials
    if int_ops:
        c.int_ops += int_ops


def _aw(rt, cost_class, res):
    """Cost of one op whose width is only known at runtime."""
    rt.cost.add_class(cost_class, rt._width(res))


_AT_UFUNC = {"add": np.add, "min": np.minimum, "max": np.maximum}
_nd = np.ndarray


def _make_access_helpers(check: bool) -> dict:
    """The statically-unmasked memory helpers, with (``check``) or
    without their bounds checks; certified sites call the second build.
    The lowering only emits them where ``rt.mask`` is statically None
    (masked branches use ``_ldk``...), so no mask handling appears.

    ``ld``/``st``/``at`` take an index operand: one element when
    pointer and index are scalars, else a gather / scatter /
    ``ufunc.at`` whose bounds check is one reduction over the address
    vector.

    ``lds``/``sts``/``ats`` take an access plan instead (see
    ``Lowerer._plan``): the lanes touch the cells ``a + t*lane``,
    ``t != 0`` — a strided slice, so no address vector exists and the
    bounds check reads the two endpoints.  The cells are distinct, so
    NumPy's last-wins scatter order and ``ufunc.at``'s sequential
    application cannot be observed.  ``n`` is the lane count ``W``;
    0 says the pointer is a lane-private cell of ``t`` elements per
    lane (its offset vector is the ``t*lane`` term, its buffer ``t*W``
    long).  Stores and atomics charge max(value lanes, index-operand
    lanes): ``narrow`` says the index operand was uniform (always, for
    a cell).

    The bodies are flat on purpose: one more Python frame per access is
    4 % of a LULESH gradient.
    """
    def address(buf, ptr, idx):
        """Resolved address of an indexed access, bounds-checked."""
        if buf.freed:
            buf.check_alive()
        off = ptr.offset
        # Skip the index-vector add (an O(width) allocation) at offset 0.
        at = idx if type(off) is int and not off else off + idx
        if check:
            n = len(buf.data)
            if type(at) is not _nd:
                if at < 0 or at >= n:
                    Memory._check_bounds(buf, at)
            elif at.dtype is _I8 and at.ndim:
                # One reduction over a zero-copy uint64 view: negative
                # addresses wrap to huge values (the interpreter does
                # two; its message comes from _check_bounds).
                if at.size and int(_umax(at.view(_U8))) >= n:
                    Memory._check_bounds(buf, at)
            elif at.size and (at.min() < 0 or at.max() >= n):
                Memory._check_bounds(buf, at)
        return at

    def ld(rt, ptr, idx):
        buf = ptr.buffer
        # A certified gather through a live offset-0 pointer (every
        # LULESH field) has nothing to resolve.
        if check or buf.freed or type(ptr.offset) is not int or ptr.offset:
            idx = address(buf, ptr, idx)
        val = buf.data[idx]  # fancy gather copies
        w = val.size if type(val) is _nd and val.size > 1 else 1
        c = rt.cost
        if buf.stream:
            c.stream_bytes += w * 8
        else:
            c.load_bytes += w * 8
        return val

    def lds(rt, ptr, a, n=0, t=1):
        buf = ptr.buffer
        if buf.freed:
            buf.check_alive()
        data = buf.data
        if not n:
            n = len(data) // t
        else:
            a += ptr.offset
        end = a + t * (n - 1)
        if check and (a < 0 or end < 0 or a >= len(data)
                      or end >= len(data)):
            Memory._check_bounds(buf, np.array((a, end)))
        c = rt.cost
        if buf.stream:
            c.stream_bytes += n * 8
        else:
            c.load_bytes += n * 8
        return (data[a:end + 1:t] if t > 0
                else data[end:a + 1:-t][::-1]).copy()

    def st(rt, val, ptr, idx):
        buf = ptr.buffer
        buf.data[address(buf, ptr, idx)] = val
        w = val.size if type(val) is _nd and val.size > 1 else 1
        if type(idx) is _nd and idx.size > w:
            w = idx.size
        c = rt.cost
        if buf.stream:
            c.stream_bytes += w * 8
        else:
            c.store_bytes += w * 8

    def sts(rt, val, ptr, a, n=0, t=1, narrow=False):
        buf = ptr.buffer
        if buf.freed:
            buf.check_alive()
        data = buf.data
        if not n:
            n, narrow = len(data) // t, True
        else:
            a += ptr.offset
        end = a + t * (n - 1)
        if check and (a < 0 or end < 0 or a >= len(data)
                      or end >= len(data)):
            Memory._check_bounds(buf, np.array((a, end)))
        if t > 0:
            data[a:end + 1:t] = val
        else:
            data[end:a + 1:-t][::-1] = val
        w = val.size if type(val) is _nd and val.size > 1 else 1
        if not narrow and n > w:
            w = n
        c = rt.cost
        if buf.stream:
            c.stream_bytes += w * 8
        else:
            c.store_bytes += w * 8

    def at(rt, kind, via, val, ptr, idx):
        """``via`` is the op's lowering tag (None: hardware atomic,
        ``"reduction"``, ``"lanes"``); it only selects the cost charged
        (:meth:`CostVector.add_rmw`) — all three execute the same
        conflict-safe read-modify-write.  ``ufunc.at`` applies lanes
        *sequentially*; a scalar target accumulating a lane vector (the
        adjoint of a broadcast read) reproduces that exact left fold
        with ``ufunc.accumulate`` over ``[current, lane0, lane1, ...]``
        (bit-identical, including ordered float addition and
        signed-zero/NaN min-max behavior)."""
        buf = ptr.buffer
        at = address(buf, ptr, idx)
        data, ufunc = buf.data, _AT_UFUNC[kind]
        vec = type(val) is _nd and val.ndim > 0
        if type(at) is not _nd or at.ndim == 0:
            if vec:
                data[at] = ufunc.accumulate(
                    np.concatenate((data[at:at + 1], val.ravel())))[-1]
            else:
                data[at] = ufunc(data[at], val)
        elif vec and at.shape == val.shape and at.ndim == 1:
            ufunc.at(data, at, val)
        else:
            shape = np.broadcast_shapes(at.shape, np.shape(val))
            ufunc.at(data, np.broadcast_to(at, shape).ravel(),
                     np.broadcast_to(val, shape).ravel())
        w = val.size if type(val) is _nd and val.size > 1 else 1
        if type(idx) is _nd and idx.size > w:
            w = idx.size
        rt.cost.add_rmw(via, w)

    def ats(rt, kind, via, val, ptr, a, n=0, t=1, narrow=False):
        buf = ptr.buffer
        if buf.freed:
            buf.check_alive()
        data = buf.data
        if not n:
            n, narrow = len(data) // t, True
        else:
            a += ptr.offset
        end = a + t * (n - 1)
        if check and (a < 0 or end < 0 or a >= len(data)
                      or end >= len(data)):
            Memory._check_bounds(buf, np.array((a, end)))
        view = data[a:end + 1:t] if t > 0 else data[end:a + 1:-t][::-1]
        _AT_UFUNC[kind](view, val, out=view)
        w = val.size if type(val) is _nd and val.size > 1 else 1
        rt.cost.add_rmw(via, w if narrow or w > n else n)

    return {"_ld": ld, "_st": st, "_at": at,
            "_lds": lds, "_sts": sts, "_ats": ats}


_ACCESS_HELPERS = _make_access_helpers(True)
_ACCESS_HELPERS.update({name + "u": fn for name, fn in
                        _make_access_helpers(False).items()})
_ld, _st, _at = (_ACCESS_HELPERS[k] for k in ("_ld", "_st", "_at"))


def _ldk(rt, ptr, idx):
    """Masked generic load (inside lowered vectorized-if branches)."""
    mask = rt.mask
    if mask is not None and isinstance(idx, np.ndarray):
        idx = np.where(mask, idx, 0)
    val = rt.memory.load(ptr, idx)
    w = rt._width(val) if isinstance(val, np.ndarray) else 1
    if ptr.buffer.stream:
        rt.cost.add_stream(w * 8)
    else:
        rt.cost.add_load(w * 8)
    return val


def _stk(rt, val, ptr, idx):
    """Masked generic store."""
    mask = rt.mask
    if mask is not None and isinstance(idx, np.ndarray):
        idx = np.where(mask, idx, 0)
    w = max(rt._width(val), rt._width(idx))
    rt.memory.store(ptr, idx, val, mask=mask)
    if ptr.buffer.stream:
        rt.cost.add_stream(w * 8)
    else:
        rt.cost.add_store(w * 8)


def _atk(rt, kind, via, val, ptr, idx):
    """Masked generic atomic."""
    mask = rt.mask
    if mask is not None and isinstance(idx, np.ndarray):
        idx = np.where(mask, idx, 0)
    w = max(rt._width(val), rt._width(idx))
    rt.memory.atomic(kind, ptr, idx, val, mask=mask)
    rt.cost.add_rmw(via, w)


def _al(rt, op, count_val):
    """Allocation with the interpreter's vector-lane privatization.

    ``op`` is the ``alloc`` op or its stand-in (see
    :func:`~repro.interp.lowering.resolve_consts`); the buffer is named
    by the op's result, looked up only when a message shows it."""
    if isinstance(count_val, np.ndarray) and count_val.size > 1:
        raise InterpreterError(
            "allocation size must be uniform inside vectorized regions")
    count = int(count_val)
    space = op.attrs["space"]
    stream = bool(op.attrs.get("stream"))
    elem = op.result.type.elem
    if rt.simd_depth > 0 and rt.simd_width >= 1:
        w = rt.simd_width
        ptr = rt.memory.alloc(count * w, elem, space, name=op.result,
                              thread_local_of=rt.current_thread)
        ptr = PtrVal(ptr.buffer, np.arange(w, dtype=np.int64) * count)
        ptr.buffer.stream = stream
        if op.attrs.get("adcache"):
            rt.memory.note_adcache(ptr.buffer)
        rt.cost.alloc_bytes += count * w * elem.size_bytes
    else:
        ptr = rt.memory.alloc(count, elem, space, name=op.result,
                              thread_local_of=rt.current_thread)
        ptr.buffer.stream = stream
        if op.attrs.get("adcache"):
            rt.memory.note_adcache(ptr.buffer)
        rt.cost.alloc_bytes += count * elem.size_bytes
        if space == "gc":
            rt.cost.add_stream(count * elem.size_bytes)
    return ptr


def _ms(rt, ptr, val, count_val):
    count = int(count_val)
    rt.memory.memset(ptr, val, count)
    rt.cost.add_store(count * 8)


def _mc(rt, dst, src, count_val):
    count = int(count_val)
    rt.memory.memcpy(dst, src, count)
    rt.cost.add_load(count * 8)
    rt.cost.add_store(count * 8)


_HELPER_GLOBALS = {
    "np": np,
    "F64": F64,
    "InterpreterError": InterpreterError,
    "CostVector": CostVector,
    "DynCache": DynCache,
    "PtrVal": PtrVal,
    "Memory": Memory,
    "BarrierEvent": BarrierEvent,
    "chunk_bounds": chunk_bounds,
    "_acc": _acc, "_aw": _aw, **_ACCESS_HELPERS,
    "_ldk": _ldk, "_stk": _stk, "_atk": _atk,
    "_al": _al, "_ms": _ms, "_mc": _mc, "_jr": join_records,
    # The region and call drivers are the interpreter's own.
    "_rf": Interpreter.run_fork, "_rs": Interpreter.run_spawn,
    "_ca": Interpreter.call_op,
}


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def compile_function(fn: Function, fusion: bool = True, cache=None,
                     fingerprint: str = "", native=None, module=None):
    """Lower + compile ``fn``; returns a generator function
    ``code(rt, *args)`` or raises :class:`LoweringError`.

    ``cache`` is an optional :class:`~repro.interp.diskcache.
    CompileCache`, addressed by the printed IR closure of ``fn`` (what
    bounds certification and the lowering read) + ``fingerprint``.  On
    a hit nothing is certified, lowered or compiled: the stored module
    is executed and its constant-table recipe resolved against ``fn``
    (``code.__lowered_source__`` is None then) — against its live ops,
    each of which must match its record, or, while ``fn`` is a gradient
    still held as text (``fn.text_only``), to stand-ins built from the
    records alone; the live ops replace them if the body is ever built.
    A hit that does not resolve is dropped as corrupt and the miss path
    runs.  Neither a hit nor the closure print builds a text-only body;
    a miss does (the lowering reads it).

    Once code lowered from a gradient is stored — or found stored for a
    gradient whose body is built — the gradient's disk entry is marked
    as lowered (:meth:`~repro.interp.diskcache.CompileCache.
    mark_lowered`), which is what lets the next process hold it as text.

    ``native`` is an optional :class:`~repro.interp.native.
    NativeEmitter`: the lowering then routes claimable kernels through
    C functions whose bindings ``native.build()`` injects into the
    generated code's globals (may raise ``NativeBuildError``).  The
    emitter has to run during lowering, so this tier lowers on every
    compile and addresses its cache entry by the lowered source (which
    differs from the plain-NumPy lowering, so the two never share one).

    ``module`` (the owning :class:`~repro.ir.function.Module`) enables
    static bounds certification: the interval analysis runs over ``fn``
    first, and accesses it proves in-bounds lower without their runtime
    bounds checks.  The elision is part of the stored code; the cache
    stays correct because the key holds everything the analysis reads
    and a digest of the analysis itself.
    """
    text = None
    if cache is not None and native is None:
        text = (print_closure(module, fn.name) if module is not None
                else print_function(fn))
        fingerprint = (f"{fingerprint}|fusion={fusion}"
                       f"|certified={module is not None}")
        code = _load_compiled(fn, cache, text, fingerprint)
        if code is not None:
            if not fn.text_only:
                cache.mark_lowered(fn, text)
            return code
    bounds = None
    if module is not None:
        from ..passes.intervals import certify_bounds
        bounds = certify_bounds(fn, module)
    source, consts, stats = lower_function(fn, fusion=fusion, native=native,
                                           bounds=bounds)
    del bounds  # dead weight under compile(), the process's memory peak
    code_obj = None
    if cache is not None and native is not None:
        text = source  # the one tier whose entries stay source-keyed
        code_obj = cache.load(text, fingerprint)
    if code_obj is None:
        try:
            code_obj = compile(source, f"<compiled {fn.name}>", "exec")
        except SyntaxError as e:  # codegen bug — surface the source
            raise LoweringError(
                f"generated source for {fn.name} does not compile: {e}"
            ) from e
        if cache is not None:
            cache.store(text, fingerprint, code_obj)
            if native is None:
                cache.mark_lowered(fn, text)
    globs = dict(_HELPER_GLOBALS)
    globs.update(consts)
    if native is not None:
        globs.update(native.build(cache))
    exec(code_obj, globs)
    return _finish(fn, globs["_compiled"], source, stats,
                   native.stats if native is not None else None)


def _load_compiled(fn: Function, cache, text: str, fingerprint: str):
    """The stored code for (text, fingerprint) bound to the live ``fn``,
    or None on a miss.  The stored module defines ``_compiled`` and the
    two literals the lowering appended; an entry whose recipe does not
    resolve against ``fn`` is corrupt (the key is the IR's own text):
    dropped, counted, and a miss."""
    code_obj = cache.load(text, fingerprint)
    if code_obj is None:
        return None
    globs = dict(_HELPER_GLOBALS)
    try:
        exec(code_obj, globs)
        recipe = globs["_CONSTS"]
        globs.update(resolve_consts(fn, recipe))
        stats = FusionStats.from_dict(globs["_STATS"])
        code = globs["_compiled"]
    except Exception:  # noqa: BLE001 - corrupt entry => miss
        cache.reject(text, fingerprint)
        return None
    if fn.text_only:
        # Stand-ins until something builds the IR; the live ops after.
        fn.when_built(lambda built: globs.update(
            resolve_consts(built, recipe)))
    return _finish(fn, code, None, stats, None)


def _finish(fn: Function, code, source, stats, native_stats):
    code.__name__ = f"_compiled_{fn.name}"
    code.__lowered_source__ = source
    code.__fusion_stats__ = stats
    code.__native_stats__ = native_stats
    return code


class CompiledBackend:
    """Routes ``Interpreter.call_generator`` through compiled code.

    ``strict=True`` re-raises lowering failures instead of silently
    marking the function interpreter-only (used by tests).
    """

    def __init__(self, interp: Interpreter, strict: bool = False) -> None:
        self.rt = interp
        self.strict = strict
        cfg = interp.config
        self.fusion = bool(getattr(cfg, "fusion", True))
        self.cache = open_cache(cfg)
        self.fingerprint = config_fingerprint(cfg)
        #: Functions compiled through this backend (for reporting).
        self.compiled_functions: dict[str, FusionStats] = {}
        #: How many of them this backend lowered itself (the others
        #: came out of the disk cache or another backend's memo).
        self.lowered = 0
        #: fn name -> "ErrorType: message" for functions whose compile
        #: failed and that run on the interpreter instead.
        self.interpreter_only: dict[str, str] = {}

    # -- compile cache -------------------------------------------------
    def get_compiled(self, fn: Function):
        """Compiled code for ``fn``, or None if it is interpreter-only.

        The disk entry is keyed on the printed closure of ``fn``, which
        already carries every ADConfig choice that shaped a gradient,
        and on the ExecConfig fingerprint."""
        key = (self.fusion, self.fingerprint)
        cached = getattr(fn, _CACHE_ATTR, None)
        if cached is None or getattr(fn, _CACHE_KEY_ATTR, None) != key:
            try:
                cached = self._compile(fn, self.fingerprint)
                self.lowered += cached.__lowered_source__ is not None
            except Exception as e:  # noqa: BLE001 - fallback must hold
                if self.strict:
                    raise
                cached = False
                fn._compile_error = e
            setattr(fn, _CACHE_ATTR, cached)
            setattr(fn, _CACHE_KEY_ATTR, key)
        if cached:
            # Register even when served from the per-function memo so
            # compile_stats reflects every function this backend ran.
            self.compiled_functions[fn.name] = cached.__fusion_stats__
        elif fn.name not in self.interpreter_only:
            e = fn._compile_error
            self.interpreter_only[fn.name] = f"{type(e).__name__}: {e}"
        return cached or None

    def _compile(self, fn: Function, fingerprint: str):
        """One function's compile step (the native backend overrides
        this to layer the C-kernel emitter on the same lowering)."""
        return compile_function(fn, fusion=self.fusion, cache=self.cache,
                                fingerprint=fingerprint,
                                module=self.rt.module)

    # -- reporting -----------------------------------------------------
    def compile_stats(self) -> dict:
        """Aggregated fusion + disk-cache counters for this backend."""
        agg = FusionStats()
        for st in self.compiled_functions.values():
            for slot in FusionStats.__slots__:
                setattr(agg, slot, getattr(agg, slot) + getattr(st, slot))
        out = {"functions": len(self.compiled_functions),
               "lowered": self.lowered,
               "interpreter_only": dict(self.interpreter_only),
               "fusion": self.fusion, **agg.as_dict()}
        out["cache"] = self.cache.stats() if self.cache is not None else None
        return out

    # -- Interpreter.call_generator hook -------------------------------
    def call_generator(self, fn_name: str, args: list):
        rt = self.rt
        fn = rt.module.functions[fn_name]
        if len(args) != len(fn.args):
            raise InterpreterError(
                f"{fn_name} expects {len(fn.args)} args, got {len(args)}")
        if (rt.tape is not None or rt.racecheck is not None
                or rt.simd_depth != 0 or rt.mask is not None):
            return rt._call_generator_interp(fn_name, args)
        code = self.get_compiled(fn)
        if code is None:
            return rt._call_generator_interp(fn_name, args)
        return code(rt, *args)
