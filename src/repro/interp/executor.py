"""High-level execution helper.

Wraps NumPy arrays / Python scalars into interpreter runtime values
according to the target function's signature, runs the function, and
exposes the simulated clock and cost counters.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..ir.function import Module
from ..ir.types import F64, I1, I64, PointerType
from .interpreter import ExecConfig, Interpreter
from .memory import InterpreterError, PtrVal, check_contracts


def _np_elem_dtype(elem):
    if elem is F64:
        return np.float64
    if elem is I64:
        return np.int64
    if elem is I1:
        return np.bool_
    raise InterpreterError(
        f"no NumPy dtype for element type {elem!r}: external buffers must "
        f"hold f64, i64 or i1 elements (pointer/handle buffers cannot be "
        f"passed from the outside)")


class Executor:
    """Run functions of a module with NumPy in/out buffers."""

    def __init__(self, module: Module,
                 config: Optional[ExecConfig] = None) -> None:
        self.module = module
        self.interp = Interpreter(module, config)
        cfg = self.interp.config
        if cfg.backend in ("compiled", "native"):
            # Sanitizer runs pin the interpreter: the race checker must
            # observe every individual access, which fused NumPy kernels
            # by construction do not surface.
            if not cfg.sanitize:
                if cfg.backend == "native":
                    from .native import NativeBackend
                    self.interp.backend = NativeBackend(self.interp)
                else:
                    from .compile import CompiledBackend
                    self.interp.backend = CompiledBackend(self.interp)
        elif cfg.backend != "interp":
            raise InterpreterError(
                f"unknown backend {cfg.backend!r} (want 'interp', "
                f"'compiled' or 'native')")

    @property
    def clock(self) -> float:
        return self.interp.clock

    @property
    def cost(self):
        return self.interp.raw_total

    @property
    def racecheck(self):
        """The dynamic race checker (None unless ExecConfig.sanitize)."""
        return self.interp.racecheck

    @property
    def races(self) -> list:
        """RaceReports collected so far (empty when sanitizing is off)."""
        rc = self.interp.racecheck
        return list(rc.reports) if rc is not None else []

    def compile_stats(self) -> Optional[dict]:
        """Fusion + compile-cache counters for the compiled backend.

        None when running under the plain interpreter (or when the
        sanitizer pinned it).
        """
        be = self.interp.backend
        return be.compile_stats() if be is not None else None

    def adjoint_stats(self) -> dict:
        """Peak / live bytes of AD primal-state storage (value caches,
        checkpoint snapshots) observed by this executor's memory."""
        mem = self.interp.memory
        return {"peak_cached_bytes": mem.adcache_peak,
                "cached_bytes": mem.adcache_bytes}

    def reset_clock(self) -> None:
        self.interp.clock = 0.0
        from ..perf.cost import CostVector
        self.interp.raw_total = CostVector()
        self.interp.cost = CostVector()

    def wrap_args(self, fn_name: str, args: tuple) -> list:
        fn = self.module.functions[fn_name]
        if len(args) != len(fn.args):
            raise TypeError(
                f"{fn_name} expects {len(fn.args)} arguments, got {len(args)}")
        wrapped: list[Any] = []
        for formal, actual in zip(fn.args, args):
            t = formal.type
            if isinstance(t, PointerType):
                if isinstance(actual, PtrVal):
                    wrapped.append(actual)
                    continue
                arr = np.asarray(actual)
                if t.elem is F64 or t.elem is I64 or t.elem is I1:
                    want = _np_elem_dtype(t.elem)
                    if arr.dtype != want:
                        raise TypeError(
                            f"argument {formal.name!r} of {fn_name} needs "
                            f"dtype {np.dtype(want)}, got {arr.dtype} (pass "
                            f"the right dtype; implicit copies would break "
                            f"aliasing)")
                elif arr.dtype != object:
                    # Handle buffers (tasks, tokens, pointers) have no
                    # numeric dtype; they must come in as object arrays.
                    raise TypeError(
                        f"argument {formal.name!r} of {fn_name} holds "
                        f"{t.elem} handles; pass a dtype=object array")
                if arr.ndim != 1:
                    raise TypeError(
                        f"argument {formal.name!r}: buffers must be 1-D")
                wrapped.append(self.interp.memory.wrap_external(
                    arr, t.elem, name=formal.name))
            elif t is F64:
                wrapped.append(float(actual))
            elif t is I64:
                wrapped.append(int(actual))
            elif t is I1:
                wrapped.append(bool(actual))
            else:
                wrapped.append(actual)
        # Declared extents and value ranges are what bounds
        # certification proved accesses against: a buffer that breaks
        # one would reach certified, unchecked accesses.
        check_contracts(fn, wrapped)
        return wrapped

    def run(self, fn_name: str, *args) -> Any:
        return self.interp.run(fn_name, self.wrap_args(fn_name, args))

    def call_generator(self, fn_name: str, *args):
        return self.interp.call_generator(fn_name,
                                          self.wrap_args(fn_name, args))


def run_function(module: Module, fn_name: str, *args,
                 config: Optional[ExecConfig] = None) -> Any:
    """One-shot convenience: build an Executor and run."""
    return Executor(module, config).run(fn_name, *args)
