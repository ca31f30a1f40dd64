"""The repro IR interpreter.

Executes IR functions with real numerics while accounting abstract
instruction costs that the machine model turns into simulated time.

Execution modes
---------------
* **Serial** — ops evaluate on Python/NumPy scalars.
* **Vectorized (SIMD)** — the body of a ``parallel_for`` (or a loop
  marked ``simd``) executes once per simulated-thread chunk with the
  induction variable bound to an index vector; element-wise ops become
  NumPy vector ops, loads become gathers, stores/atomics become
  (masked) scatters.  This is sound because parallel-loop iterations
  are independent up to atomics — the same contract the paper's
  differentiation model relies on (§IV-A).
* **Fork regions** — run thread-by-thread between barriers, so manual
  patterns like LULESH's per-thread min reduction (paper Fig. 7) behave
  exactly as with real threads.

Cooperative events
------------------
Functions execute as generators.  MPI intrinsics yield
:class:`~repro.interp.events.MPIEvent` to the SimMPI engine; barriers
inside fork regions yield :class:`BarrierEvent` to the fork driver.
Serial programs never observe a yield.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ..ir.function import Function, Module
from ..ir.opinfo import OP_INFO
from ..ir.ops import Op
from ..ir.types import F64, I64, PointerType
from ..ir.values import Constant, Value
from ..perf.cost import CostVector
from ..perf.machine import MachineModel, c6i_metal
from .events import BarrierEvent, MPIEvent
from .memory import (
    DynCache,
    InterpreterError,
    Memory,
    PtrVal,
    TaskVal,
    TokenVal,
    check_contracts,
)

_CMP = OP_INFO["cmp"].attrs["preds"]


def _decode_operands(operands):
    """Decode an operand list once into ``(value_or_None, const)`` pairs.

    Constants are pre-extracted so the hot path never re-tests
    ``type(v) is Constant``; the tuple is cached on ``Op._interp``.
    """
    return tuple((None, v.value) if type(v) is Constant else (v, None)
                 for v in operands)


@dataclass
class ExecConfig:
    """Knobs for one interpreter instance (one simulated rank)."""

    num_threads: int = 1
    gc_stress: bool = False
    machine: Optional[MachineModel] = None
    mpi_impl: str = "openmpi"
    max_while_iters: int = 10_000_000
    max_call_depth: int = 64
    #: Enable the dynamic race sanitizer (vector-clock happens-before
    #: checking of every memory access).  Off by default: the hot paths
    #: then only test one attribute per structured construct.
    sanitize: bool = False
    #: When sanitizing, raise RaceReport at the first race (else collect
    #: all reports on the checker).
    sanitize_raise: bool = True
    #: Execution backend: ``"interp"`` walks the IR op by op;
    #: ``"compiled"`` lowers each function to a generated NumPy closure
    #: (see :mod:`repro.interp.compile`) and falls back to the
    #: interpreter for constructs the lowering cannot handle;
    #: ``"native"`` additionally compiles the fused kernels to C via the
    #: system compiler (see :mod:`repro.interp.native`), degrading
    #: per kernel — or wholesale, when no compiler exists — to the
    #: compiled path with bit-identical results.  Sanitizer runs always
    #: pin ``"interp"`` — the race checker needs to observe every
    #: individual access.
    backend: str = "interp"
    #: Trace fusion in the compiled backend: collapse chains of
    #: single-use elementwise ops into one generated kernel
    #: (see :mod:`repro.interp.fusion`).
    #: Execution is bit-identical either way; off is for A/B testing.
    fusion: bool = True
    #: Disk-persistent compile cache directory for the compiled
    #: backend.  ``None`` defers to the ``REPRO_CACHE_DIR`` environment
    #: variable (cache disabled when that is unset, empty or ``off``);
    #: ``"off"`` force-disables; any other string is the cache directory.
    compile_cache: Optional[str] = None
    #: C compiler command for the native backend.  ``None`` defers to
    #: the ``CC`` environment variable, then the conventional candidates
    #: (cc, gcc, clang); when nothing usable is found the native backend
    #: falls back to the compiled path and records the reason.
    cc: Optional[str] = None


def chunk_bounds(lb: int, ub: int, step: int, tid: int, nthreads: int
                 ) -> tuple[int, int]:
    """Contiguous static chunk of a loop's trip space for one thread."""
    ntrips = max(0, -(-(ub - lb) // step)) if step > 0 else 0
    per = -(-ntrips // nthreads)  # ceil
    first = min(tid * per, ntrips)
    last = min(first + per, ntrips)
    return lb + first * step, lb + last * step


class TaskScheduler:
    """Greedy online list scheduler for spawned tasks (simulated time)."""

    def __init__(self, nworkers: int, machine: MachineModel,
                 procs_on_node: int = 1) -> None:
        self.nworkers = max(1, nworkers)
        self.machine = machine
        self.procs_on_node = procs_on_node
        self.worker_free = [0.0] * self.nworkers

    def schedule(self, task: TaskVal) -> None:
        m = self.machine
        busy = self.nworkers * max(1, self.procs_on_node)
        t_exec = (max(m.compute_time(task.cost),
                      m.memory_time(task.cost, busy))
                  + m.atomic_time(task.cost, self.nworkers)
                  + m.tape_time(task.cost))
        w = min(range(self.nworkers), key=lambda i: self.worker_free[i])
        start = max(task.spawn_clock, self.worker_free[w])
        finish = start + m.task_overhead + t_exec
        self.worker_free[w] = finish
        task.finish_clock = finish


class Interpreter:
    """Executes one module on one simulated rank."""

    def __init__(self, module: Module, config: Optional[ExecConfig] = None
                 ) -> None:
        self.module = module
        self.config = config or ExecConfig()
        self.machine = self.config.machine or c6i_metal()
        self.memory = Memory(gc_stress=self.config.gc_stress)

        # MPI identity — overwritten by the SimMPI engine.
        self.rank = 0
        self.nprocs = 1
        self.procs_on_node = 1

        # Simulated clock (seconds) and cost accounting.
        self.clock = 0.0
        self.cost = CostVector()        # current sink (serial by default)
        self.raw_total = CostVector()   # everything ever executed

        # Execution context.
        self.mask: Optional[np.ndarray] = None
        self.mask_count = 0
        self.simd_depth = 0
        self.simd_width = 0
        self._fork_depth = 0
        self.current_thread: Optional[int] = None
        self._while_flag = False
        self._noyield = 0
        self._call_depth = 0
        self._task_ids = 0

        self.tasks = TaskScheduler(self.config.num_threads, self.machine)

        #: Optional tape plugin (operator-overloading baseline).
        self.tape = None

        #: Dynamic race sanitizer (None when off — every hook below is
        #: guarded by a single attribute test so the default path pays
        #: no per-access cost).  SimMPI replaces these so all ranks
        #: share one checker.
        self.racecheck = None
        self._rc_tid = -1
        if self.config.sanitize:
            from ..sanitize.racecheck import RaceChecker
            self.racecheck = RaceChecker(
                raise_on_race=self.config.sanitize_raise)
            self._rc_tid = self.racecheck.new_thread("main")

        self.intrinsics_simple: dict[str, Callable] = dict(_SIMPLE_INTRINSICS)
        self.intrinsics_gen: dict[str, Callable] = dict(_GEN_INTRINSICS)

        #: Optional compiled backend (set by the Executor when
        #: ``config.backend == "compiled"``); when present,
        #: :meth:`call_generator` routes through it.
        self.backend = None

        # Precomputed opcode dispatch tables (one closure per opcode,
        # bound to this instance) — avoids the long string-comparison
        # chain on every op.
        self._simple_dispatch, self._gen_dispatch = self._build_dispatch()

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run(self, fn_name: str, args: list) -> Any:
        """Execute to completion; raises if MPI events are produced."""
        gen = self.call_generator(fn_name, args)
        try:
            ev = next(gen)
        except StopIteration as stop:
            self.flush_serial()
            return stop.value
        raise InterpreterError(
            f"unserviced event {ev!r}: the function communicates via MPI "
            f"but no SimMPI engine is attached (use repro.parallel.mpi)")

    def call_generator(self, fn_name: str, args: list):
        if self.backend is not None:
            return self.backend.call_generator(fn_name, args)
        return self._call_generator_interp(fn_name, args)

    def _call_generator_interp(self, fn_name: str, args: list):
        fn = self.module.functions[fn_name]
        if len(args) != len(fn.args):
            raise InterpreterError(
                f"{fn_name} expects {len(fn.args)} args, got {len(args)}")
        env: dict[Value, Any] = dict(zip(fn.args, args))
        result = yield from self._exec_block(fn.body, env)
        if isinstance(result, tuple) and result and result[0] == "ret":
            return result[1]
        return None

    # ------------------------------------------------------------------
    # Clock / cost plumbing
    # ------------------------------------------------------------------
    def flush_serial(self) -> None:
        """Convert pending serial cost into simulated clock time."""
        c = self.cost
        if not c.is_zero():
            self.clock += self.machine.serial_time(c, self.procs_on_node)
            self.raw_total.merge(c)
            self.cost = CostVector()

    # ------------------------------------------------------------------
    # Core evaluation
    # ------------------------------------------------------------------
    def _get(self, v: Value, env: dict) -> Any:
        if type(v) is Constant:
            return v.value
        try:
            return env[v]
        except KeyError:
            raise InterpreterError(f"undefined value {v!r}") from None

    def _width(self, x) -> int:
        if isinstance(x, np.ndarray) and x.size > 1:
            return self.mask_count if self.mask is not None else x.size
        return 1

    def _exec_block(self, block, env):
        simple = self._simple_dispatch
        gen = self._gen_dispatch
        for op in block.ops:
            oc = op.opcode
            h = simple.get(oc)
            if h is not None:
                h(op, env)
                continue
            g = gen.get(oc)
            if g is not None:
                yield from g(op, env)
                continue
            if oc == "return":
                val = (self._get(op.operands[0], env)
                       if op.operands else None)
                return ("ret", val)
            if oc == "condition":
                val = self._get(op.operands[0], env)
                if isinstance(val, np.ndarray) and val.size > 1:
                    raise InterpreterError(
                        "data-dependent while inside a vectorized region")
                self._while_flag = bool(val)
            elif oc == "barrier":
                if self._fork_depth == 0:
                    raise InterpreterError(
                        "barrier outside an executing fork region")
                yield BarrierEvent()
            else:
                raise InterpreterError(f"unhandled opcode {oc!r}")
        return None

    # ------------------------------------------------------------------
    # Dispatch tables
    # ------------------------------------------------------------------
    def _build_dispatch(self):
        """Build the per-instance opcode -> handler tables.

        *Simple* handlers run to completion without yielding (compute,
        memory, cache ops); *generator* handlers may yield events
        (structured control flow, calls).  Compute opcodes get one
        closure each, specialized on arity with the ``OpInfo`` lookup
        hoisted out of the hot loop.
        """
        simple: dict[str, Callable] = {}
        for oc, info in OP_INFO.items():
            if oc == "cmp":
                simple[oc] = self._make_cmp()
            elif oc == "select":
                simple[oc] = self._make_select(info)
            elif info.arity == 1:
                simple[oc] = self._make_compute1(info)
            elif info.arity == 2:
                simple[oc] = self._make_compute2(info)
            else:
                simple[oc] = self._make_computeN(info)
        simple.update({
            "load": self._exec_load,
            "store": self._exec_store,
            "atomic": self._exec_atomic,
            "alloc": self._exec_alloc,
            "ptradd": self._exec_ptradd,
            "memset": self._exec_memset,
            "memcpy": self._exec_memcpy,
            "free": self._exec_free,
            "cache_create": self._exec_cache_create,
            "cache_push": self._exec_cache_push,
            "cache_pop": self._exec_cache_pop,
        })
        gen: dict[str, Callable] = {
            "for": self._exec_for,
            "parallel_for": self._exec_parallel_for,
            "if": self._exec_if,
            "while": self._exec_while,
            "fork": self._exec_fork,
            "spawn": self._exec_spawn,
            "call": self._exec_call,
        }
        return simple, gen

    def _finish_compute(self, op, env, res, cost_class) -> None:
        env[op.result] = res
        if isinstance(res, np.ndarray) and res.size > 1:
            w = self.mask_count if self.mask is not None else res.size
        else:
            w = 1
        self.cost.add_class(cost_class, w)
        if self.tape is not None:
            self.tape.on_compute(op, env, res, w)

    def _make_compute1(self, info):
        ev, cost, finish = info.evaluate, info.cost, self._finish_compute

        def h(op, env):
            dec = op._interp
            if dec is None:
                dec = op._interp = _decode_operands(op.operands)
            k, c = dec[0]
            try:
                a = c if k is None else env[k]
            except KeyError:
                raise InterpreterError(f"undefined value {k!r}") from None
            finish(op, env, ev(a), cost)
        return h

    def _make_compute2(self, info):
        ev, cost, finish = info.evaluate, info.cost, self._finish_compute

        def h(op, env):
            dec = op._interp
            if dec is None:
                dec = op._interp = _decode_operands(op.operands)
            k0, c0 = dec[0]
            k1, c1 = dec[1]
            try:
                a = c0 if k0 is None else env[k0]
                b = c1 if k1 is None else env[k1]
            except KeyError as e:
                raise InterpreterError(
                    f"undefined value {e.args[0]!r}") from None
            finish(op, env, ev(a, b), cost)
        return h

    def _make_computeN(self, info):
        ev, cost, finish = info.evaluate, info.cost, self._finish_compute

        def h(op, env):
            dec = op._interp
            if dec is None:
                dec = op._interp = _decode_operands(op.operands)
            try:
                vals = [c if k is None else env[k] for k, c in dec]
            except KeyError as e:
                raise InterpreterError(
                    f"undefined value {e.args[0]!r}") from None
            finish(op, env, ev(*vals), cost)
        return h

    def _make_cmp(self):
        finish = self._finish_compute
        cost = OP_INFO["cmp"].cost

        def h(op, env):
            st = op._interp
            if st is None:
                st = op._interp = (_CMP[op.attrs["pred"]],
                                   _decode_operands(op.operands))
            fn, dec = st
            k0, c0 = dec[0]
            k1, c1 = dec[1]
            try:
                a = c0 if k0 is None else env[k0]
                b = c1 if k1 is None else env[k1]
            except KeyError as e:
                raise InterpreterError(
                    f"undefined value {e.args[0]!r}") from None
            finish(op, env, fn(a, b), cost)
        return h

    def _make_select(self, info):
        finish = self._finish_compute
        cost = info.cost

        def h(op, env):
            dec = op._interp
            if dec is None:
                dec = op._interp = _decode_operands(op.operands)
            kc, cc = dec[0]
            ka, ca = dec[1]
            kb, cb = dec[2]
            try:
                c = cc if kc is None else env[kc]
                a = ca if ka is None else env[ka]
                b = cb if kb is None else env[kb]
            except KeyError as e:
                raise InterpreterError(
                    f"undefined value {e.args[0]!r}") from None
            if isinstance(c, np.ndarray):
                res = np.where(c, a, b)
            else:
                res = a if c else b
            finish(op, env, res, cost)
        return h

    # ------------------------------------------------------------------
    def _eval_compute(self, op: Op, info, env: dict) -> None:
        operands = op.operands
        get = self._get
        if op.opcode == "cmp":
            res = _CMP[op.attrs["pred"]](get(operands[0], env),
                                         get(operands[1], env))
        elif op.opcode == "select":
            c = get(operands[0], env)
            a = get(operands[1], env)
            b = get(operands[2], env)
            if isinstance(c, np.ndarray):
                res = np.where(c, a, b)
            else:
                res = a if c else b
        else:
            n = info.arity
            if n == 2:
                res = info.evaluate(get(operands[0], env),
                                    get(operands[1], env))
            elif n == 1:
                res = info.evaluate(get(operands[0], env))
            else:
                res = info.evaluate(*[get(v, env) for v in operands])
        env[op.result] = res
        w = self._width(res)
        self.cost.add_class(info.cost, w)
        if self.tape is not None:
            self.tape.on_compute(op, env, res, w)

    def _exec_load(self, op: Op, env: dict) -> None:
        ptr: PtrVal = self._get(op.operands[0], env)
        idx = self._get(op.operands[1], env)
        if self.racecheck is not None:
            self.racecheck.on_read(self._rc_tid, ptr, idx, op, self.mask)
        if self.mask is not None and isinstance(idx, np.ndarray):
            # Masked-out lanes may carry garbage indices; neutralize them.
            idx = np.where(self.mask, idx, 0)
        val = self.memory.load(ptr, idx)
        env[op.result] = val
        w = self._width(val) if isinstance(val, np.ndarray) else 1
        if ptr.buffer.stream:
            self.cost.add_stream(w * 8)
        else:
            self.cost.add_load(w * 8)
        if self.tape is not None and ptr.buffer.elem is F64:
            self.tape.on_load(op, ptr, idx, val, w, self.mask)

    def _exec_store(self, op: Op, env: dict) -> None:
        val = self._get(op.operands[0], env)
        ptr: PtrVal = self._get(op.operands[1], env)
        idx = self._get(op.operands[2], env)
        mask = self.mask
        if self.racecheck is not None:
            # A uniform value stored from every lane is benign; only
            # lane-varying values make colliding lanes a conflict.
            self.racecheck.on_write(self._rc_tid, ptr, idx, op, mask,
                                    lanes=self._width(val))
        if mask is not None and isinstance(idx, np.ndarray):
            idx = np.where(mask, idx, 0)
            # keep mask for the scatter itself
        w = max(self._width(val), self._width(idx))
        if self.tape is not None and ptr.buffer.elem is F64:
            self.tape.on_store(op, ptr, idx, val, w, mask)
        self.memory.store(ptr, idx, val, mask=mask)
        if ptr.buffer.stream:
            self.cost.add_stream(w * 8)
        else:
            self.cost.add_store(w * 8)

    def _exec_atomic(self, op: Op, env: dict) -> None:
        val = self._get(op.operands[0], env)
        ptr: PtrVal = self._get(op.operands[1], env)
        idx = self._get(op.operands[2], env)
        mask = self.mask
        if self.racecheck is not None:
            self.racecheck.on_write(self._rc_tid, ptr, idx, op, mask,
                                    atomic=op.attrs.get("via") != "lanes")
        if mask is not None and isinstance(idx, np.ndarray):
            idx = np.where(mask, idx, 0)
        w = max(self._width(val), self._width(idx))
        self.memory.atomic(op.attrs["kind"], ptr, idx, val, mask=mask)
        self.cost.add_rmw(op.attrs.get("via"), w)
        if self.tape is not None and ptr.buffer.elem is F64:
            self.tape.on_atomic(op, ptr, idx, val, w, mask)

    def _exec_alloc(self, op: Op, env: dict) -> None:
        count_val = self._get(op.operands[0], env)
        if isinstance(count_val, np.ndarray) and count_val.size > 1:
            raise InterpreterError(
                "allocation size must be uniform inside vectorized regions")
        count = int(count_val)
        space = op.attrs["space"]
        # NOTE: allocations are *not* GC safepoints in this model; under
        # GC stress, collection happens at explicit jl.safepoint calls
        # and at foreign (MPI) call boundaries — the §VI-C2 hazard the
        # gc_preserve machinery exists for.
        stream = bool(op.attrs.get("stream"))
        if self.simd_depth > 0 and self.simd_width >= 1:
            # Privatize in any vectorized context (even width 1: lane
            # values are arrays, so the cell must accept vector stores).
            # Privatize: each vector lane gets its own copy (the scalar
            # replacement a vectorizer performs for loop-local storage).
            w = self.simd_width
            ptr = self.memory.alloc(count * w, op.result.type.elem, space,
                                    name=op.result.name,
                                    thread_local_of=self.current_thread)
            ptr = PtrVal(ptr.buffer,
                         np.arange(w, dtype=np.int64) * count)
            ptr.buffer.stream = stream
            if op.attrs.get("adcache"):
                self.memory.note_adcache(ptr.buffer)
            self.cost.alloc_bytes += count * w * \
                op.result.type.elem.size_bytes
        else:
            ptr = self.memory.alloc(count, op.result.type.elem, space,
                                    name=op.result.name,
                                    thread_local_of=self.current_thread)
            ptr.buffer.stream = stream
            if op.attrs.get("adcache"):
                self.memory.note_adcache(ptr.buffer)
            self.cost.alloc_bytes += count * op.result.type.elem.size_bytes
            if space == "gc":
                # Julia GC allocations are zero-filled: pay the fill
                # traffic (C++ mallocs return uninitialized memory).
                self.cost.add_stream(count * op.result.type.elem.size_bytes)
        env[op.result] = ptr
        if self.tape is not None:
            self.tape.on_alloc(op, ptr)

    def _exec_ptradd(self, op: Op, env: dict) -> None:
        ptr = self._get(op.operands[0], env)
        env[op.result] = ptr.added(self._get(op.operands[1], env))
        self.cost.int_ops += 1

    def _exec_memset(self, op: Op, env: dict) -> None:
        ptr = self._get(op.operands[0], env)
        val = self._get(op.operands[1], env)
        count = int(self._get(op.operands[2], env))
        if self.racecheck is not None:
            self.racecheck.on_write(
                self._rc_tid, ptr, np.arange(count, dtype=np.int64), op)
        self.memory.memset(ptr, val, count)
        self.cost.add_store(count * 8)
        if self.tape is not None:
            self.tape.on_memset(ptr, val, count)

    def _exec_memcpy(self, op: Op, env: dict) -> None:
        dst = self._get(op.operands[0], env)
        src = self._get(op.operands[1], env)
        count = int(self._get(op.operands[2], env))
        if self.racecheck is not None:
            span = np.arange(count, dtype=np.int64)
            self.racecheck.on_read(self._rc_tid, src, span, op)
            self.racecheck.on_write(self._rc_tid, dst, span, op)
        self.memory.memcpy(dst, src, count)
        self.cost.add_load(count * 8)
        self.cost.add_store(count * 8)
        if self.tape is not None:
            self.tape.on_memcpy(dst, src, count)

    def _exec_free(self, op: Op, env: dict) -> None:
        self.memory.free(self._get(op.operands[0], env))

    def _exec_cache_create(self, op: Op, env: dict) -> None:
        env[op.result] = DynCache()

    def _exec_cache_push(self, op: Op, env: dict) -> None:
        self._get(op.operands[0], env).push(self._get(op.operands[1], env))
        self.cost.add_store(8)

    def _exec_cache_pop(self, op: Op, env: dict) -> None:
        env[op.result] = self._get(op.operands[0], env).pop()
        self.cost.add_load(8)

    # ------------------------------------------------------------------
    # Structured control flow
    # ------------------------------------------------------------------
    def _exec_for(self, op: Op, env: dict):
        lb = int(self._get(op.operands[0], env))
        ub = int(self._get(op.operands[1], env))
        step = int(self._get(op.operands[2], env))
        if step <= 0:
            raise InterpreterError("for step must be positive")
        body = op.regions[0]
        ivar = body.args[0]

        if op.attrs.get("workshare"):
            if self.current_thread is None:
                raise InterpreterError("workshare loop outside fork region")
            lo, hi = chunk_bounds(lb, ub, step, self.current_thread,
                                  self._fork_width)
            # Reverse-pass worksharing loops iterate each thread's chunk
            # in reverse order — the per-thread reversal OpenMP itself
            # cannot express but the compiler can (paper §VI-A2).
            backwards = op.attrs.get("reverse_order", False)
            if op.attrs.get("simd") and self.simd_depth == 0:
                if hi > lo:
                    idx = np.arange(lo, hi, step, dtype=np.int64)
                    env[ivar] = idx[::-1] if backwards else idx
                    self.simd_depth += 1
                    saved_w, self.simd_width = self.simd_width, idx.size
                    try:
                        with np.errstate(all="ignore"):
                            yield from self._exec_block(body, env)
                    finally:
                        self.simd_depth -= 1
                        self.simd_width = saved_w
            else:
                trips = range(lo, hi, step)
                if backwards:
                    trips = reversed(trips)
                for i in trips:
                    env[ivar] = i
                    yield from self._exec_block(body, env)
            if not op.attrs.get("nowait"):
                yield BarrierEvent()
        elif op.attrs.get("simd") and self.simd_depth == 0:
            if ub > lb:
                idx = np.arange(lb, ub, step, dtype=np.int64)
                env[ivar] = idx
                self.simd_depth += 1
                saved_w, self.simd_width = self.simd_width, idx.size
                try:
                    with np.errstate(all="ignore"):
                        yield from self._exec_block(body, env)
                finally:
                    self.simd_depth -= 1
                    self.simd_width = saved_w
        else:
            for i in range(lb, ub, step):
                env[ivar] = i
                yield from self._exec_block(body, env)

    def _exec_parallel_for(self, op: Op, env: dict):
        lb = int(self._get(op.operands[0], env))
        ub = int(self._get(op.operands[1], env))
        nthreads = self.config.num_threads
        body = op.regions[0]
        ivar = body.args[0]

        self.flush_serial()
        saved_cost = self.cost
        saved_thread = self.current_thread
        saved_mask, saved_count = self.mask, self.mask_count
        self.mask, self.mask_count = None, 0
        self._noyield += 1
        rc = self.racecheck
        rc_parent = self._rc_tid
        rc_children = (rc.region_begin(rc_parent, nthreads, "pfor")
                       if rc is not None else None)
        thread_costs: list[CostVector] = []
        try:
            for t in range(nthreads):
                lo, hi = chunk_bounds(lb, ub, 1, t, nthreads)
                c = CostVector()
                self.cost = c
                self.current_thread = t
                if rc_children is not None:
                    self._rc_tid = rc_children[t]
                if hi > lo:
                    idx = np.arange(lo, hi, dtype=np.int64)
                    env[ivar] = idx
                    self.simd_depth += 1
                    saved_w, self.simd_width = self.simd_width, idx.size
                    try:
                        with np.errstate(all="ignore"):
                            yield from self._exec_block(body, env)
                    finally:
                        self.simd_depth -= 1
                        self.simd_width = saved_w
                thread_costs.append(c)
                self.raw_total.merge(c)
        finally:
            self._noyield -= 1
            self.cost = saved_cost
            self.current_thread = saved_thread
            self.mask, self.mask_count = saved_mask, saved_count
            if rc_children is not None:
                self._rc_tid = rc_parent
                rc.region_end(rc_parent, rc_children)
        self.clock += self.machine.parallel_region_time(
            thread_costs, nthreads, self.procs_on_node)
        if self.tape is not None:
            self.tape.on_parallel_region(nthreads)

    _fork_width = 1

    def _exec_fork(self, op: Op, env: dict):
        want = int(self._get(op.operands[0], env))
        body = op.regions[0]
        tid, nth = body.args

        def thread_body(t, nthreads):
            env_t = dict(env)
            env_t[tid] = t
            env_t[nth] = nthreads
            return self._exec_block(body, env_t)

        yield from self.run_fork(
            want if want > 0 else self.config.num_threads, thread_body)

    def run_fork(self, nthreads: int, body_factory):
        """Drive one fork region of ``nthreads`` threads, thread by
        thread between barriers; ``body_factory(t, nthreads)`` returns
        thread ``t``'s body generator.  The fork driver of both tiers
        (compiled code calls it as ``_rf``).  Barrier events are
        consumed here: the region never yields upward."""
        if False:  # pragma: no cover - makes this a generator function
            yield None
        self.flush_serial()
        gens = [body_factory(t, nthreads) for t in range(nthreads)]
        saved_cost = self.cost
        saved_thread = self.current_thread
        saved_width = self._fork_width
        self._fork_width = nthreads
        self._noyield += 1
        self._fork_depth += 1
        rc = self.racecheck
        rc_parent = self._rc_tid
        rc_children = (rc.region_begin(rc_parent, nthreads, "fork")
                       if rc is not None else None)
        region_seconds = self.machine.fork_overhead(nthreads)
        pending = dict(enumerate(gens))
        try:
            while pending:
                phase_costs = []
                finished, at_barrier = [], []
                for t in sorted(pending):
                    c = CostVector()
                    self.cost = c
                    self.current_thread = t
                    if rc_children is not None:
                        self._rc_tid = rc_children[t]
                    try:
                        ev = next(pending[t])
                        if not isinstance(ev, BarrierEvent):
                            raise InterpreterError(
                                f"unsupported event {ev!r} inside fork region")
                        at_barrier.append(t)
                    except StopIteration:
                        finished.append(t)
                    phase_costs.append(c)
                    self.raw_total.merge(c)
                for t in finished:
                    del pending[t]
                if at_barrier and finished:
                    raise InterpreterError(
                        "barrier deadlock: some threads finished while "
                        "others wait at a barrier")
                if at_barrier and rc_children is not None:
                    rc.barrier([rc_children[t] for t in at_barrier])
                region_seconds += self.machine.phase_time(
                    phase_costs, nthreads, self.procs_on_node)
        finally:
            self._noyield -= 1
            self._fork_depth -= 1
            self.cost = saved_cost
            self.current_thread = saved_thread
            self._fork_width = saved_width
            if rc_children is not None:
                self._rc_tid = rc_parent
                rc.region_end(rc_parent, rc_children)
        self.clock += region_seconds
        if self.tape is not None:
            self.tape.on_parallel_region(nthreads)

    def _exec_if(self, op: Op, env: dict):
        cond = self._get(op.operands[0], env)
        then_body, else_body = op.regions
        if isinstance(cond, np.ndarray) and cond.size > 1:
            old_mask, old_count = self.mask, self.mask_count
            m_then = cond if old_mask is None else (old_mask & cond)
            try:
                if then_body.ops and m_then.any():
                    self.mask = m_then
                    self.mask_count = int(m_then.sum())
                    yield from self._exec_block(then_body, env)
                if else_body.ops:
                    m_else = (~cond if old_mask is None
                              else (old_mask & ~cond))
                    if m_else.any():
                        self.mask = m_else
                        self.mask_count = int(m_else.sum())
                        yield from self._exec_block(else_body, env)
            finally:
                self.mask, self.mask_count = old_mask, old_count
        else:
            if cond:
                yield from self._exec_block(then_body, env)
            elif else_body.ops:
                yield from self._exec_block(else_body, env)

    def _exec_while(self, op: Op, env: dict):
        body = op.regions[0]
        ivar = body.args[0]
        count = 0
        limit = self.config.max_while_iters
        while True:
            env[ivar] = count
            yield from self._exec_block(body, env)
            count += 1
            if count > limit:
                raise InterpreterError(
                    f"while loop exceeded {limit} iterations")
            if not self._while_flag:
                break

    def _exec_spawn(self, op: Op, env: dict):
        env[op.result] = yield from self.run_spawn(
            self._exec_block(op.regions[0], env))

    def run_spawn(self, body):
        """Run one task ``body`` (a generator) eagerly under its own
        cost sink and thread id, then place it on the task scheduler;
        returns its :class:`TaskVal`.  The spawn driver of both tiers
        (compiled code calls it as ``_rs``)."""
        self.flush_serial()
        saved_cost = self.cost
        saved_thread = self.current_thread
        self._task_ids += 1
        self.current_thread = 10_000 + self._task_ids  # unique "thread" id
        c = CostVector()
        self.cost = c
        self._noyield += 1
        rc = self.racecheck
        rc_parent = self._rc_tid
        rc_task = -1
        if rc is not None:
            rc_task = rc.task_begin(rc_parent, f"task#{self._task_ids}")
            self._rc_tid = rc_task
        try:
            yield from body
        finally:
            self._noyield -= 1
            self.cost = saved_cost
            self.current_thread = saved_thread
            self._rc_tid = rc_parent
        self.raw_total.merge(c)
        task = TaskVal(c, self.clock)
        task.rc_tid = rc_task
        self.tasks.procs_on_node = self.procs_on_node
        self.tasks.schedule(task)
        if self.tape is not None:
            self.tape.on_parallel_region(self.config.num_threads)
        return task

    # ------------------------------------------------------------------
    def call_user(self, fn, args: list):
        """Execute a user function on runtime values — the one call path
        of both tiers: the callee's argument contracts are enforced,
        then it runs compiled when a backend is attached and the context
        is scalar and untaped, interpreted otherwise."""
        check_contracts(fn, args)
        self.cost.calls += 1
        self._call_depth += 1
        if self._call_depth > self.config.max_call_depth:
            raise InterpreterError("call depth exceeded (recursion?)")
        try:
            if (self.backend is not None and self.tape is None
                    and self.simd_depth == 0 and self.mask is None):
                code = self.backend.get_compiled(fn)
                if code is not None:
                    return (yield from code(self, *args))
            result = yield from self._exec_block(fn.body,
                                                 dict(zip(fn.args, args)))
        finally:
            self._call_depth -= 1
        return result[1] if isinstance(result, tuple) else None

    def _exec_call(self, op: Op, env: dict):
        ret = yield from self.call_op(
            op, [self._get(v, env) for v in op.operands])
        if op.result is not None:
            env[op.result] = ret

    def call_op(self, op: Op, args: list):
        """Execute one ``call`` op on runtime argument values: a user
        callee through :meth:`call_user`, an intrinsic through its
        handler.  The call dispatch of both tiers (compiled code calls
        it as ``_ca``)."""
        callee = op.attrs["callee"]
        if callee in self.module.functions:
            return (yield from self.call_user(self.module.functions[callee],
                                              args))
        simple = self.intrinsics_simple.get(callee)
        if simple is not None:
            return simple(self, op, args)
        gen = self.intrinsics_gen.get(callee)
        if gen is None:
            raise InterpreterError(f"no handler for callee {callee!r}")
        return (yield from gen(self, op, args))


# ---------------------------------------------------------------------------
# Intrinsic handlers
# ---------------------------------------------------------------------------

def _h_comm_rank(interp, op, args):
    return interp.rank


def _h_comm_size(interp, op, args):
    return interp.nprocs


def _h_num_threads(interp, op, args):
    return interp.config.num_threads


def _h_assert_ge(interp, op, args):
    if args[0] < args[1]:
        raise InterpreterError(f"rt.assert_ge failed: {args[0]} < {args[1]}")
    return None


def _h_arrayptr(interp, op, args):
    p: PtrVal = args[0]
    interp.cost.int_ops += 1
    return PtrVal(p.buffer, p.offset, raw=True)


def _h_buflen(interp, op, args):
    p: PtrVal = args[0]
    off = int(np.min(np.asarray(p.offset)))
    return p.buffer.count - off


def _h_preserve_begin(interp, op, args):
    return interp.memory.preserve_begin(list(args))


def _h_preserve_end(interp, op, args):
    interp.memory.preserve_end(args[0])
    return None


def _h_safepoint(interp, op, args):
    interp.memory.safepoint()
    return None


def _h_cache_create(interp, op, args):
    return DynCache()


def _h_cache_push(interp, op, args):
    cache: DynCache = args[0]
    for v in args[1:]:
        cache.push(v)
    interp.cost.add_store(8 * (len(args) - 1))
    return None


def _h_cache_pop(interp, op, args):
    interp.cost.add_load(8)
    return args[0].pop()


def _h_cache_destroy(interp, op, args):
    args[0].items.clear()
    return None


def _h_task_wait(interp, op, args):
    task: TaskVal = args[0]
    if not isinstance(task, TaskVal):
        raise InterpreterError(f"task.wait on non-task {task!r}")
    interp.flush_serial()
    interp.clock = max(interp.clock, task.finish_clock)
    if interp.racecheck is not None and task.rc_tid >= 0:
        interp.racecheck.task_join(interp._rc_tid, task.rc_tid)
    return None


_SIMPLE_INTRINSICS = {
    "mpi.comm_rank": _h_comm_rank,
    "mpi.comm_size": _h_comm_size,
    "rt.num_threads": _h_num_threads,
    "rt.buflen": _h_buflen,
    "rt.assert_ge": _h_assert_ge,
    "jl.arrayptr": _h_arrayptr,
    "jl.gc_preserve_begin": _h_preserve_begin,
    "jl.gc_preserve_end": _h_preserve_end,
    "jl.safepoint": _h_safepoint,
    "cache.create": _h_cache_create,
    "cache.push": _h_cache_push,
    "cache.pop": _h_cache_pop,
    "cache.destroy": _h_cache_destroy,
    "task.wait": _h_task_wait,
}


def _mpi_event(interp, kind, **kw):
    if interp._noyield:
        raise InterpreterError(
            f"MPI call ({kind}) inside a parallel region / task body")
    interp.flush_serial()
    if interp.config.gc_stress:
        interp.memory.safepoint()


def _g_send(interp, op, args):
    buf, count, dest, tag = args
    _mpi_event(interp, "send")
    if interp.tape is not None:
        interp.tape.on_mpi("send", buf=buf, count=int(count),
                           peer=int(dest), tag=int(tag))
    reply = yield MPIEvent("send", buf=buf, count=int(count),
                           peer=int(dest), tag=int(tag))
    return reply


def _g_recv(interp, op, args):
    buf, count, src, tag = args
    _mpi_event(interp, "recv")
    reply = yield MPIEvent("recv", buf=buf, count=int(count),
                           peer=int(src), tag=int(tag))
    if interp.tape is not None:
        interp.tape.on_mpi("recv", buf=buf, count=int(count),
                           peer=int(src), tag=int(tag))
    return reply


def _g_isend(interp, op, args):
    buf, count, dest, tag = args
    _mpi_event(interp, "isend")
    if interp.tape is not None:
        interp.tape.on_mpi("isend", buf=buf, count=int(count),
                           peer=int(dest), tag=int(tag))
    req = yield MPIEvent("isend", buf=buf, count=int(count),
                         peer=int(dest), tag=int(tag))
    return req


def _g_irecv(interp, op, args):
    buf, count, src, tag = args
    _mpi_event(interp, "irecv")
    req = yield MPIEvent("irecv", buf=buf, count=int(count),
                         peer=int(src), tag=int(tag))
    if interp.tape is not None:
        interp.tape.on_mpi("irecv", buf=buf, count=int(count),
                           peer=int(src), tag=int(tag), request=req)
    return req


def _g_wait(interp, op, args):
    req = args[0]
    _mpi_event(interp, "wait")
    reply = yield MPIEvent("wait", request=req)
    if interp.tape is not None:
        interp.tape.on_mpi("wait", request=req)
    return reply


def _g_allreduce(interp, op, args):
    sendbuf, recvbuf, count = args
    _mpi_event(interp, "allreduce")
    mpi_op = op.attrs.get("op", "sum")
    if interp.tape is not None:
        interp.tape.on_mpi("allreduce_pre", buf=sendbuf, recvbuf=recvbuf,
                           count=int(count), op=mpi_op)
    reply = yield MPIEvent("allreduce", buf=sendbuf, recvbuf=recvbuf,
                           count=int(count), op=mpi_op)
    if interp.tape is not None:
        interp.tape.on_mpi("allreduce_post", buf=sendbuf, recvbuf=recvbuf,
                           count=int(count), op=mpi_op, request=reply)
    return None


def _g_reduce(interp, op, args):
    sendbuf, recvbuf, count, root = args
    _mpi_event(interp, "reduce")
    reply = yield MPIEvent("reduce", buf=sendbuf, recvbuf=recvbuf,
                           count=int(count), op=op.attrs.get("op", "sum"),
                           root=int(root))
    return None


def _g_bcast(interp, op, args):
    buf, count, root = args
    _mpi_event(interp, "bcast")
    reply = yield MPIEvent("bcast", buf=buf, count=int(count), root=int(root))
    return None


def _g_barrier(interp, op, args):
    _mpi_event(interp, "barrier")
    yield MPIEvent("barrier")
    return None


_GEN_INTRINSICS = {
    "mpi.send": _g_send,
    "mpi.recv": _g_recv,
    "mpi.isend": _g_isend,
    "mpi.irecv": _g_irecv,
    "mpi.wait": _g_wait,
    "mpi.allreduce": _g_allreduce,
    "mpi.reduce": _g_reduce,
    "mpi.bcast": _g_bcast,
    "mpi.barrier": _g_barrier,
}
