"""The untraced run: cold, warm-disk and steady-state samples.

Closed loop, one client: each evaluation starts when the previous one
has returned.  Sample kinds rotate, so drift in the machine hits every
metric alike.
"""

from __future__ import annotations

import gc
import os
import sys
import time
import traceback

from repro.interp import Executor

from .gate import Gate, finite, same_run
from .workloads import Workload

#: One rotation.  Steady evaluations are cheaper than cycles, so they
#: come round twice.
ROTATION = ("cold", "warm", "grad", "primal", "grad", "primal")

#: Samples of each kind taken whatever ``--seconds`` says.
MIN_SAMPLES = 2

#: Compiles that fill the per-run disk cache in set-up.  One is not
#: enough where the gradient IR is not the same text on every transform
#: (lulesh_omp: the cache slots come out permuted, about five
#: permutations, each its own cache key): a cache holding one of them
#: would make ``ttfg_warm_s`` a coin toss between hit and miss.  A fixed
#: count keeps ``setup_s`` steady.
POPULATE = 5


class Sampler:
    """Times one evaluation of a kind and checks what it returned."""

    def __init__(self, wl: Workload, inputs, gate: Gate, run_dir: str,
                 smoke: bool = False):
        self.wl, self.inputs, self.gate = wl, inputs, gate
        self.smoke = smoke
        #: Scratch directory of this run; the caller removes it at exit.
        self.run_dir = run_dir
        #: The per-run disk compile cache the warm cycles read.
        self.cache_dir = os.path.join(run_dir, "warm")

    def cache_entries(self) -> int:
        return sum(len(files) for _, _, files in os.walk(self.cache_dir))

    def populate(self) -> int:
        """Fill the per-run disk cache: :data:`POPULATE` times (once in
        smoke mode) a fresh app, ``grad_fn()`` and a compile (no run).
        Returns the number of entries stored."""
        for _ in range(1 if self.smoke else POPULATE):
            app = self.wl.make_app(self.inputs, compile_cache=self.cache_dir)
            fn = app.module.functions[app.grad_fn()]
            Executor(app.module, self.wl.exec_config(app)
                     ).interp.backend.get_compiled(fn)
        return self.cache_entries()

    def cycle(self, compile_cache: str, state):
        """Time-to-first-gradient: IR build, ``grad_fn()``, first run."""
        app = self.wl.make_app(self.inputs, compile_cache=compile_cache)
        app.grad_fn()
        return self.wl.gradient(app, state)

    def run(self, kind: str, state):
        wl, app = self.wl, self.gate.app
        if kind == "cold":
            return self.cycle("off", state)
        if kind == "warm":
            return self.cycle(self.cache_dir, state)
        if kind == "grad":
            return wl.gradient(app, state)
        return wl.forward(app, state)

    def sample(self, kind: str):
        """``(seconds, ok)``.  Inputs are generated outside the timer.
        A failure is an exception, a non-finite gradient, or a result
        (arrays, simulated clock, cost) that differs from the gate's."""
        state = self.wl.fresh_state(self.gate.app, self.inputs)
        gc.collect()
        t0 = time.perf_counter()
        try:
            run = self.run(kind, state)
        except Exception:  # noqa: BLE001 - a failed operation, counted
            traceback.print_exc(file=sys.stderr)
            return time.perf_counter() - t0, False
        dt = time.perf_counter() - t0
        want = self.gate.primal if kind == "primal" else self.gate.grad
        return dt, finite(run.grads) and same_run(run, want)


def measure(sampler: Sampler, seconds: float, t_start: float) -> dict:
    """Rotate through the sample kinds for ``seconds`` (exactly once in
    smoke mode).  ``t_start`` is when the process started; set-up ends
    at the first timed sample."""
    # The gate has already been through a cold cycle and steady runs on
    # its app; what is still cold is the disk cache.
    entries = sampler.populate()
    samples: dict[str, list[float]] = {k: [] for k in ROTATION}
    failed = done = 0
    t_first = time.perf_counter()

    def wanted(kind: str) -> bool:
        if sampler.smoke:
            return done < 1
        return (len(samples[kind]) < MIN_SAMPLES
                or time.perf_counter() - t_first < seconds)

    while any(wanted(kind) for kind in samples):
        for kind in ROTATION:
            if wanted(kind):
                dt, ok = sampler.sample(kind)
                samples[kind].append(dt)
                failed += not ok
        done += 1
    return {
        "samples": samples,
        "setup_s": t_first - t_start,
        "attempted": sum(len(v) for v in samples.values()) + 1,
        "failed": failed + (entries == 0),
        "checks": [("warm_cache_populated", entries > 0,
                    f"{entries} entries in the per-run disk cache")],
    }
