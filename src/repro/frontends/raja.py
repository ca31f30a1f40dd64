"""RAJA frontend: a portability-layer veneer that *lowers* onto the
OpenMP substrate.

The paper's point about RAJA (§V-D) is that Enzyme needs **zero**
RAJA-specific support: ``RAJA::forall<RAJA::omp_parallel_for_exec>``
compiles down to the same ``__kmpc_fork`` closures as plain OpenMP, so
differentiating the lowered form covers the whole framework.  This
module therefore contains *no* AD hooks whatsoever — it only emits IR
through the same mechanisms as :class:`repro.frontends.openmp.OpenMP`
(closure records included, since RAJA lambdas capture state the same
way).

``ReduceMin`` reproduces RAJA's OpenMP reduction lowering: per-thread
partials combined after the region, i.e. the Fig. 7 pattern expressed
by a library instead of by hand.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

from ..ir.builder import IRBuilder
from ..ir.types import F64
from ..ir.values import Value
from .openmp import OpenMP


class ReduceMin:
    """``RAJA::ReduceMin<RAJA::omp_reduce, double>``.

    Usage::

        rmin = raja.ReduceMin(init)
        with raja.forall_reduce(0, n, [rmin], captured=[...]) as (i, env):
            raja.reduce_min(rmin, candidate)
        result = rmin.get()
    """

    def __init__(self, raja: "RAJA", init: Value) -> None:
        self.raja = raja
        b = raja.b
        self.nthreads = b.call("rt.num_threads")
        self.partials = b.alloc(self.nthreads, F64, name="raja_rmin")
        self.init = init
        self.result_cell = b.alloc(1, F64, name="raja_rmin_out")
        self._local_cell = None

    def get(self) -> Value:
        return self.raja.b.load(self.result_cell, 0)


class RAJA:
    def __init__(self, b: IRBuilder) -> None:
        self.b = b
        self._omp = OpenMP(b)

    @contextlib.contextmanager
    def forall(self, lb, ub, captured: Sequence[Value] = (),
               name: str = "i"):
        """``RAJA::forall`` over a range segment; lowers to an OpenMP
        worksharing loop with a captured lambda."""
        with self._omp.parallel_for(lb, ub, captured=captured, name=name,
                                    framework="raja") as (i, env):
            yield i, env

    @contextlib.contextmanager
    def forall_reduce(self, lb, ub, reducers: Sequence[ReduceMin],
                      captured: Sequence[Value] = (), name: str = "i"):
        """``forall`` with ReduceMin objects: lowers to an explicit
        parallel region with per-thread partials and a serial combine,
        exactly what RAJA's OpenMP backend emits."""
        b = self.b
        with self._omp.parallel(captured=captured,
                                framework="raja") as (tid, nth, env):
            locals_ = []
            for r in reducers:
                cell = b.alloc(1, F64, name="rmin_local")
                b.store(r.init, cell, 0)
                locals_.append(cell)
                r._local_cell = cell
            with self._omp.for_(lb, ub, name=name) as i:
                yield i, env
            for r, cell in zip(reducers, locals_):
                b.store(b.load(cell, 0), r.partials, tid)
            b.barrier()
            with b.if_(b.cmp("eq", tid, 0)):
                for r in reducers:
                    b.store(b.load(r.partials, 0), r.result_cell, 0)
                with b.for_(1, nth) as t:
                    for r in reducers:
                        cur = b.load(r.result_cell, 0)
                        cand = b.load(r.partials, t)
                        b.store(b.min(cur, cand), r.result_cell, 0)

    def reduce_min(self, reducer: ReduceMin, value: Value) -> None:
        """``rmin.min(value)`` inside a forall_reduce body."""
        b = self.b
        cell = reducer._local_cell
        cur = b.load(cell, 0)
        b.store(b.min(cur, value), cell, 0)
