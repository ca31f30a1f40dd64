"""Drivers: run LULESH variants forward, differentiate them, verify.

The measured quantities mirror the paper's: *forward* is the primal
run, *gradient* runs the generated derivative (which re-runs the primal
as its augmented forward pass), and *overhead* is gradient/forward in
simulated seconds (§VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ...ad import ADConfig, Duplicated, autodiff_transform
from ...baselines.codipack import CoDiPackTape
from ...interp import ExecConfig, Executor, open_cache
from ...parallel.mpi import SimMPI
from ...perf.machine import MachineModel, c6i_metal
from .kernels import FLAVORS, build_lulesh
from .mesh import (
    ALL_FIELDS,
    ALL_FLOAT_FIELDS,
    Domain,
    build_domain,
)
from .physics import DEFAULT_PARAMS, LuleshParams


def domain_args(dom: Domain, steps: int, shadows: Optional[dict] = None
                ) -> tuple:
    """Argument tuple in the variant function's order; when ``shadows``
    is given, each float field is followed by its shadow (the gradient
    signature)."""
    out = []
    for name in ALL_FIELDS:
        out.append(dom[name])
        if shadows is not None and name in ALL_FLOAT_FIELDS:
            out.append(shadows[name])
    out.append(steps)
    return tuple(out)


def gradient_activities() -> list:
    acts: list = []
    for name in ALL_FIELDS:
        acts.append(Duplicated if name in ALL_FLOAT_FIELDS else None)
    acts.append(None)  # steps
    return acts


@dataclass
class RunResult:
    time: float                  # simulated seconds
    clocks: list = field(default_factory=list)
    cost: object = None


class LuleshApp:
    """One built variant at one problem size."""

    def __init__(self, flavor: str, nx: int, pr: int = 1,
                 params: LuleshParams = DEFAULT_PARAMS,
                 ad_config: Optional[ADConfig] = None,
                 machine: Optional[MachineModel] = None,
                 sanitize: bool = False, backend: str = "interp",
                 compile_cache: Optional[str] = None,
                 adjoint: Optional[str] = None,
                 cc: Optional[str] = None) -> None:
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}; "
                             f"choose from {sorted(FLAVORS)}")
        self.flavor = FLAVORS[flavor]
        self.nx = nx
        self.pr = pr
        self.params = params
        self.machine = machine or c6i_metal()
        # The adjoint strategy rides on the time loop as a per-region
        # tag (so cache-all stays the global default for everything
        # else) and on ADConfig, which the gradient disk cache keys on.
        self.adjoint = adjoint
        self.module, self.fn = build_lulesh(
            flavor, nx, pr, params,
            time_loop_adjoint=adjoint if adjoint not in (None, "cache-all")
            else None)
        self.ad_config = ad_config or ADConfig()
        if adjoint is not None:
            self.ad_config.adjoint = adjoint
        if self.flavor.style == "julia":
            self.ad_config.cache_space = "gc"
        #: Run every execution under the dynamic race checker.
        self.sanitize = sanitize
        #: "interp", "compiled" or "native" (see ExecConfig.backend).
        self.backend = backend
        #: Persistent compile cache / C compiler (compiled + native
        #: backends).
        self.compile_cache = compile_cache
        self.cc = cc
        #: Backend counters from the most recent single-rank run
        #: (None for MPI flavors or the interp backend).
        self.last_compile_stats: Optional[dict] = None
        #: Managed-loop / fallback report from the AD run (set by
        #: grad_fn; see repro.ad.strategy.select_managed_loops).
        self.adjoint_report: Optional[dict] = None
        #: Peak/live AD-cache bytes of the most recent single-rank
        #: gradient run.
        self.last_adjoint_stats: Optional[dict] = None
        #: What the gradient disk cache did in grad_fn: ``event`` is
        #: "hit" (stored gradient parsed back), "miss" (differentiated
        #: and stored) or "off", beside that store's hits / misses /
        #: stores / errors; also ``last_compile_stats["gradient_cache"]``.
        self.gradient_cache: Optional[dict] = None
        self._grad: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def nprocs(self) -> int:
        return self.pr ** 3

    def make_domains(self, background_energy: float = 0.0) -> list[Domain]:
        """Build the rank domains.  ``background_energy`` adds a uniform
        positive energy floor: it moves the initial state off the
        p ≥ 0 / ss = sqrt(p) kinks, which finite differences straddle
        while AD takes a one-sided subgradient (used by the §VII
        verification; physics-shape runs use the raw Sedov state)."""
        doms = [build_domain(self.nx, self.pr, r, self.params)
                for r in range(self.nprocs)]
        if background_energy:
            g = self.params.gamma
            for d in doms:
                d["e"][...] += background_energy
                d["p"][...] = np.maximum(
                    (g - 1.0) * d["e"] / d["v"], self.params.p_min)
        return doms

    def grad_fn(self) -> str:
        if self._grad is None:
            # The same directory the executors keep code objects in.
            cache = open_cache(self._config(1))
            tr = autodiff_transform(self.module, self.fn,
                                    gradient_activities(), self.ad_config,
                                    cache=cache)
            self._grad = tr.grad_name
            self.adjoint_report = tr.adjoint_report
            self.gradient_cache = {"event": tr.cache_event,
                                   **(cache.stats() if cache else {})}
        return self._grad

    def _config(self, num_threads: int) -> ExecConfig:
        impl = "mpich" if self.flavor.style == "julia" else "openmpi"
        return ExecConfig(num_threads=num_threads, machine=self.machine,
                          mpi_impl=impl, sanitize=self.sanitize,
                          backend=self.backend,
                          compile_cache=self.compile_cache, cc=self.cc)

    # ------------------------------------------------------------------
    def run_forward(self, domains: list[Domain], steps: int,
                    num_threads: int = 1) -> RunResult:
        if self.flavor.mpi:
            engine = SimMPI(self.module, self.nprocs,
                            self._config(num_threads), self.machine)
            res = engine.run(self.fn, lambda r: domain_args(
                domains[r], steps))
            return RunResult(res.time, res.clocks, res.total_cost)
        ex = Executor(self.module, self._config(num_threads))
        ex.run(self.fn, *domain_args(domains[0], steps))
        self.last_compile_stats = ex.compile_stats()
        return RunResult(ex.clock, [ex.clock], ex.cost)

    def run_gradient(self, domains: list[Domain], steps: int,
                     num_threads: int = 1,
                     shadows: Optional[list[dict]] = None) -> RunResult:
        """Run the Enzyme-generated gradient.  ``shadows`` default to
        the paper's projection seeding (every shadow = 1)."""
        grad = self.grad_fn()
        if shadows is None:
            shadows = [d.shadow_arrays(seed=1.0) for d in domains]
        if self.flavor.mpi:
            engine = SimMPI(self.module, self.nprocs,
                            self._config(num_threads), self.machine)
            res = engine.run(grad, lambda r: domain_args(
                domains[r], steps, shadows[r]))
            return RunResult(res.time, res.clocks, res.total_cost)
        ex = Executor(self.module, self._config(num_threads))
        ex.run(grad, *domain_args(domains[0], steps, shadows[0]))
        self.last_compile_stats = ex.compile_stats()
        if self.last_compile_stats is not None:
            self.last_compile_stats["gradient_cache"] = self.gradient_cache
        self.last_adjoint_stats = ex.adjoint_stats()
        return RunResult(ex.clock, [ex.clock], ex.cost)

    # ------------------------------------------------------------------
    def run_codipack_forward(self, domains: list[Domain], steps: int
                             ) -> tuple[RunResult, list[CoDiPackTape]]:
        """The baseline's *forward*: the primal recorded onto the tape
        (the rewritten-to-AD-types application the paper benchmarks)."""
        tapes: list[CoDiPackTape] = [None] * max(1, self.nprocs)

        def make_gen(r, ex):
            tape = CoDiPackTape(ex.interp)
            ex.interp.tape = tape
            tapes[r] = tape
            args = domain_args(domains[r], steps)
            wrapped = ex.wrap_args(self.fn, args)
            for name in ("x", "y", "z", "e"):
                tape.register_input(domains[r][name])
            return ex.interp.call_generator(self.fn, wrapped)

        if self.flavor.mpi:
            engine = SimMPI(self.module, self.nprocs, self._config(1),
                            self.machine)
            res = engine.run_custom(make_gen)
            return RunResult(res.time, res.clocks, res.total_cost), tapes
        ex = Executor(self.module, self._config(1))
        for ev in make_gen(0, ex):
            raise RuntimeError(f"unexpected MPI event {ev!r}")
        ex.interp.flush_serial()
        return RunResult(ex.clock, [ex.clock], ex.cost), tapes

    def run_codipack_gradient(self, domains: list[Domain], steps: int
                              ) -> tuple[RunResult, list[CoDiPackTape]]:
        """Baseline: the primal under operator-overloading taping plus
        tape reversal with adjoint MPI (num_threads is forcibly 1 —
        CoDiPack cannot record threaded runs)."""
        tapes: list[CoDiPackTape] = [None] * max(1, self.nprocs)

        def make_gen(r, ex):
            tape = CoDiPackTape(ex.interp)
            ex.interp.tape = tape
            tapes[r] = tape
            args = domain_args(domains[r], steps)
            wrapped = ex.wrap_args(self.fn, args)
            for name in ("x", "y", "z", "e"):
                tape.register_input(domains[r][name])

            def gen():
                yield from ex.interp.call_generator(self.fn, wrapped)
                tape.seed_buffer(domains[r]["e"])
                yield from tape.reverse_generator()
            return gen()

        if self.flavor.mpi:
            engine = SimMPI(self.module, self.nprocs, self._config(1),
                            self.machine)
            res = engine.run_custom(make_gen)
            return RunResult(res.time, res.clocks, res.total_cost), tapes
        ex = Executor(self.module, self._config(1))
        gen = make_gen(0, ex)
        for ev in gen:
            raise RuntimeError(f"unexpected MPI event {ev!r}")
        ex.interp.flush_serial()
        return RunResult(ex.clock, [ex.clock], ex.cost), tapes

    # ------------------------------------------------------------------
    @staticmethod
    def final_report(domains: list[Domain]) -> dict:
        """LULESH-style end-of-run summary (the quantities the original
        prints as its correctness check [18])."""
        import numpy as np
        total_e = sum(float(d["e"].sum()) for d in domains)
        max_abs_v = max(float(np.max(np.abs(np.concatenate(
            [d["xd"], d["yd"], d["zd"]])))) for d in domains)
        ts = domains[0]["timestate"]
        return {
            "final_origin_energy": float(domains[0]["e"][0]),
            "total_energy": total_e,
            "max_abs_velocity": max_abs_v,
            "max_pressure": max(float(d["p"].max()) for d in domains),
            "elapsed_time": float(ts[0]),
            "dt": float(ts[1]),
        }

    # ------------------------------------------------------------------
    def projection_check(self, steps: int, num_threads: int = 1,
                         eps: float = 1e-6,
                         background_energy: float = 1.0e4
                         ) -> tuple[float, float]:
        """§VII verification: all-ones reverse projection vs. central
        finite differences over the initial (x, y, z, e) fields.

        Run at a smooth base point (positive background energy) so the
        two-sided finite difference and the one-sided AD subgradient
        measure the same thing.
        """
        wrt = ("x", "y", "z", "e")
        seed_fields = ALL_FLOAT_FIELDS

        def primal_value(delta: float) -> float:
            doms = self.make_domains(background_energy)
            for d in doms:
                for f in wrt:
                    d[f][...] += delta
            self.run_forward(doms, steps, num_threads)
            return sum(float(sum(d[f].sum() for f in seed_fields))
                       for d in doms)

        fd = (primal_value(eps) - primal_value(-eps)) / (2 * eps)

        doms = self.make_domains(background_energy)
        shadows = [d.shadow_arrays(seed=1.0) for d in doms]
        self.run_gradient(doms, steps, num_threads, shadows)
        rev = sum(float(sum(sh[f].sum() for f in wrt))
                  for sh in shadows)
        return rev, fd


def main(argv: Optional[list] = None) -> int:
    """CLI: run one LULESH variant forward and/or as a gradient.

    ``--adjoint`` selects the time-loop adjoint strategy; the JSON
    report includes the strategy report (managed loops and cache-all
    fallbacks with reasons) plus peak AD-cache bytes, the numbers the
    ``summarize --adjoint-report`` renderer consumes, what the gradient
    disk cache did (``cache_event``: hit / miss / off, per
    ``REPRO_CACHE_DIR``), what the compiled tier did (``compile_stats``:
    code-entry hits / misses, functions ``lowered`` in this process,
    ``interpreter_only`` fallbacks with their reasons; ``null`` under
    ``--backend interp`` and for MPI flavors) and a SHA-256 of the
    shadow arrays (``gradient_digest``).
    """
    import argparse
    import hashlib
    import json
    import sys

    ap = argparse.ArgumentParser(
        prog="python -m repro.apps.lulesh",
        description="Run a LULESH variant (forward and gradient).")
    ap.add_argument("--flavor", default="serial", choices=sorted(FLAVORS))
    ap.add_argument("--nx", type=int, default=3, help="elements per edge")
    ap.add_argument("--pr", type=int, default=1, help="ranks per edge "
                    "(MPI flavors)")
    ap.add_argument("--steps", type=int, default=8,
                    help="time-loop steps")
    ap.add_argument("--adjoint", default=None,
                    choices=["cache-all", "checkpoint"],
                    help="adjoint strategy for the time loop "
                         "(default: the engine's cache-all plan)")
    ap.add_argument("--backend", default="interp",
                    choices=["interp", "compiled", "native"])
    ap.add_argument("--cc", default=None,
                    help="C compiler for --backend native (default: $CC, "
                         "then cc/gcc/clang)")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--forward-only", action="store_true",
                    help="skip the gradient run")
    ap.add_argument("--json", action="store_true",
                    help="emit the raw report as JSON")
    args = ap.parse_args(argv)

    app = LuleshApp(args.flavor, args.nx, pr=args.pr,
                    backend=args.backend, adjoint=args.adjoint,
                    cc=args.cc)
    doms = app.make_domains()
    fwd = app.run_forward(doms, args.steps, args.threads)
    report = {
        "flavor": args.flavor, "nx": args.nx, "steps": args.steps,
        "backend": args.backend, "adjoint": args.adjoint or "cache-all",
        "forward_time": fwd.time,
        "final": app.final_report(doms),
    }
    if not args.forward_only:
        doms = app.make_domains()
        shadows = [d.shadow_arrays(seed=1.0) for d in doms]
        grad = app.run_gradient(doms, args.steps, args.threads, shadows)
        report["gradient_time"] = grad.time
        report["overhead"] = grad.time / fwd.time if fwd.time else None
        report["adjoint_report"] = app.adjoint_report
        report["adjoint_stats"] = app.last_adjoint_stats
        report["cache_event"] = app.gradient_cache["event"]
        report["compile_stats"] = app.last_compile_stats
        report["gradient_digest"] = hashlib.sha256(b"".join(
            np.ascontiguousarray(sh[f]).tobytes()
            for sh in shadows for f in sorted(sh))).hexdigest()
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for k, v in report.items():
            print(f"{k}: {v}")
    return 0
