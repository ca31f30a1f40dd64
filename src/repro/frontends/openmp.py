"""OpenMP frontend: emits the IR a C/C++ compiler would produce.

Clang lowers ``#pragma omp parallel for`` into an *outlined closure*
plus a ``__kmpc_fork_call`` (paper Fig. 3): captured variables are
written into a context record and re-loaded inside the region.  This
frontend reproduces that shape faithfully — which is what gives the
OpenMPOpt pass something to do: without it, every captured pointer is
re-loaded per region and alias analysis degrades, forcing the AD cache
planner to preserve loop data; with hoisting + store-to-load
forwarding the loads fold away and caching collapses (§V-E, §VIII).

``firstprivate`` is lowered to an explicit thread-local copy exactly as
in paper Fig. 6 — no AD-specific handling exists for it anywhere.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

from ..ir.builder import IRBuilder
from ..ir.types import F64
from ..ir.values import Value


class OpenMP:
    """OpenMP-style constructs over an :class:`IRBuilder`."""

    def __init__(self, b: IRBuilder) -> None:
        self.b = b

    # ------------------------------------------------------------------
    def _capture(self, captured: Sequence[Value]):
        """Write captures into context records (the closure struct).

        One record buffer per element type (pointer captures grouped by
        their exact pointee type), mirroring the by-value capture
        struct Clang builds for the outlined function.
        """
        b = self.b
        groups: dict = {}
        for v in captured:
            groups.setdefault(v.type, []).append(v)
        records = {}
        for t, vals in groups.items():
            buf = b.alloc(len(vals), t, name=f"omp_ctx_{t.name}")
            records[t] = buf
            for k, v in enumerate(vals):
                b.store(v, buf, k)

        def reload() -> dict[Value, Value]:
            out: dict[Value, Value] = {}
            for t, vals in groups.items():
                for k, v in enumerate(vals):
                    out[v] = b.load(records[t], k)
            return out

        return reload

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def parallel_for(self, lb, ub, captured: Sequence[Value] = (),
                     name: str = "i", simd: bool = True,
                     framework: str = "openmp"):
        """``#pragma omp parallel for`` with closure capture.

        Lowered the way Clang lowers it: a ``__kmpc_fork``-style region
        whose outlined body re-loads the captured state once per thread
        and runs the worksharing loop (paper Fig. 3).  Yields
        ``(i, env)`` where ``env`` maps each captured value to its
        in-region reload — use ``env[x]`` instead of ``x`` in the body,
        exactly as the outlined function would.  ``framework`` names the
        source construct on the fork (a report tag; differentiation
        ignores it).
        """
        reload = self._capture(captured)
        with self.b.fork(0, framework=framework):
            env = reload()
            with self.b.workshare(lb, ub, simd=simd, name=name) as i:
                yield i, env

    @contextlib.contextmanager
    def parallel(self, captured: Sequence[Value] = (), num_threads: int = 0,
                 framework: str = "openmp"):
        """``#pragma omp parallel`` (an explicit fork region).

        Yields ``(tid, nthreads, env)``.
        """
        reload = self._capture(captured)
        with self.b.fork(num_threads, framework=framework) as (tid, nth):
            env = reload()
            yield tid, nth, env

    @contextlib.contextmanager
    def for_(self, lb, ub, step=1, nowait: bool = False, simd: bool = False,
             name: str = "i"):
        """``#pragma omp for`` worksharing loop (inside a parallel
        region), with the implicit trailing barrier unless ``nowait``."""
        with self.b.workshare(lb, ub, step, nowait=nowait, simd=simd,
                              name=name) as i:
            yield i

    def barrier(self) -> None:
        self.b.barrier()

    # ------------------------------------------------------------------
    def firstprivate(self, value: Value) -> Value:
        """Lower ``firstprivate(v)``: allocate a thread-local copy
        initialized from the outer value (paper Fig. 6's ``in_local``).
        Must be called inside a parallel region.  Returns a pointer to
        the private cell."""
        b = self.b
        cell = b.alloc(1, F64, name="fp")
        b.store(value, cell, 0)
        return cell
