"""miniBUDE drivers: forward, Enzyme gradient, tape baseline, FD check."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ...ad import ADConfig, Duplicated, autodiff_transform
from ...baselines.codipack import CoDiPackTape, codipack_gradient
from ...interp import ExecConfig, Executor, open_cache
from ...parallel import SimMPI
from ...perf.machine import MachineModel, c6i_metal
from .deck import Deck, make_deck
from .kernels import ARG_NAMES, build_minibude
from .reference import run_reference


@dataclass
class BudeResult:
    energies: np.ndarray
    time: float
    cost: object = None


class MinibudeApp:
    def __init__(self, variant: str, deck: Optional[Deck] = None,
                 ntasks: int = 8,
                 ad_config: Optional[ADConfig] = None,
                 machine: Optional[MachineModel] = None,
                 sanitize: bool = False, backend: str = "interp",
                 compile_cache: Optional[str] = None,
                 nprocs: int = 4,
                 cc: Optional[str] = None) -> None:
        self.variant = variant
        self.deck = deck or make_deck()
        #: Simulated communicator size (mpi variant only).
        self.nprocs = nprocs
        self.machine = machine or c6i_metal()
        self.module, self.fn = build_minibude(
            variant, self.deck.nprotein, self.deck.nligand,
            self.deck.nposes, ntasks=ntasks)
        self.ad_config = ad_config or ADConfig()
        if variant == "julia":
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
        #: (None for the mpi variant or the interp backend).
        self.last_compile_stats: Optional[dict] = None
        #: What the gradient disk cache did in grad_fn: ``event`` is
        #: "hit" (stored gradient parsed back), "miss" (differentiated
        #: and stored) or "off", beside that store's hits / misses /
        #: stores / errors; also ``last_compile_stats["gradient_cache"]``.
        self.gradient_cache: Optional[dict] = None
        self._grad: Optional[str] = None

    # ------------------------------------------------------------------
    def grad_fn(self) -> str:
        if self._grad is None:
            acts = [Duplicated] * len(ARG_NAMES)
            # The same directory the executors keep code objects in.
            cache = open_cache(self._config(1))
            tr = autodiff_transform(self.module, self.fn, acts,
                                    self.ad_config, cache=cache)
            self._grad = tr.grad_name
            self.gradient_cache = {"event": tr.cache_event,
                                   **(cache.stats() if cache else {})}
        return self._grad

    def _config(self, num_threads: int) -> ExecConfig:
        return ExecConfig(num_threads=num_threads, machine=self.machine,
                          sanitize=self.sanitize, backend=self.backend,
                          compile_cache=self.compile_cache, cc=self.cc)

    def _args(self) -> tuple[dict, tuple]:
        flat = self.deck.flat_args()
        return flat, tuple(flat[n] for n in ARG_NAMES)

    def _mpi_flats(self, deck: Optional[Deck] = None) -> list[dict]:
        """Per-rank argument sets.  Only rank 0 holds the poses (the
        kernel broadcasts them), which makes a missing bcast fail
        loudly rather than silently replicate."""
        deck = deck or self.deck
        flats = [deck.flat_args() for _ in range(self.nprocs)]
        for flat in flats[1:]:
            flat["poses"][...] = 0.0
        return flats

    # ------------------------------------------------------------------
    def run_forward(self, num_threads: int = 1) -> BudeResult:
        if self.variant == "mpi":
            flats = self._mpi_flats()
            engine = SimMPI(self.module, self.nprocs,
                            self._config(num_threads), self.machine)
            res = engine.run(self.fn, lambda r: tuple(
                flats[r][n] for n in ARG_NAMES))
            return BudeResult(flats[0]["energies"], res.time,
                              res.total_cost)
        flat, args = self._args()
        ex = Executor(self.module, self._config(num_threads))
        ex.run(self.fn, *args)
        self.last_compile_stats = ex.compile_stats()
        return BudeResult(flat["energies"], ex.clock, ex.cost)

    def run_gradient(self, num_threads: int = 1,
                     seed: float = 1.0) -> tuple[dict, BudeResult]:
        """Gradient with d(energies) seeded; returns shadows by name.

        For the mpi variant only rank 0's output shadow is seeded, so
        after the adjoint collectives (allreduce→allreduce, bcast→
        reduce onto root) rank 0's ``poses`` shadow equals the serial
        gradient; rank 0's shadows are returned."""
        if self.variant == "mpi":
            flats = self._mpi_flats()
            shadows = [{n: np.zeros_like(flats[r][n]) for n in ARG_NAMES}
                       for r in range(self.nprocs)]
            shadows[0]["energies"][...] = seed

            def grad_args(r: int) -> tuple:
                out = []
                for n in ARG_NAMES:
                    out += [flats[r][n], shadows[r][n]]
                return tuple(out)

            engine = SimMPI(self.module, self.nprocs,
                            self._config(num_threads), self.machine)
            res = engine.run(self.grad_fn(), grad_args)
            return shadows[0], BudeResult(flats[0]["energies"], res.time,
                                          res.total_cost)
        flat, args = self._args()
        shadows = {n: np.zeros_like(flat[n]) for n in ARG_NAMES}
        shadows["energies"][...] = seed
        grad_args = []
        for n in ARG_NAMES:
            grad_args += [flat[n], shadows[n]]
        ex = Executor(self.module, self._config(num_threads))
        ex.run(self.grad_fn(), *grad_args)
        self.last_compile_stats = ex.compile_stats()
        if self.last_compile_stats is not None:
            self.last_compile_stats["gradient_cache"] = self.gradient_cache
        return shadows, BudeResult(flat["energies"], ex.clock, ex.cost)

    def run_codipack_gradient(self) -> tuple[np.ndarray, BudeResult]:
        flat, args = self._args()
        grads, ex = codipack_gradient(
            self.module, self.fn, args, seed_arrays=[flat["energies"]],
            wrt_arrays=[flat["poses"]], config=self._config(1))
        return grads[0], BudeResult(flat["energies"], ex.clock, ex.cost)

    # ------------------------------------------------------------------
    def reference_energies(self) -> np.ndarray:
        return run_reference(self.deck)

    def projection_check(self, num_threads: int = 1,
                         eps: float = 1e-6) -> tuple[float, float]:
        """§VII projection: d(Σ energies)/d(poses · all-ones)."""
        def value(delta: float) -> float:
            deck = make_deck(self.deck.nprotein, self.deck.nligand,
                             self.deck.nposes)
            deck.poses[...] = self.deck.poses + delta
            if self.variant == "mpi":
                flats = self._mpi_flats(deck)
                engine = SimMPI(self.module, self.nprocs,
                                self._config(num_threads), self.machine)
                engine.run(self.fn, lambda r: tuple(
                    flats[r][n] for n in ARG_NAMES))
                return float(flats[0]["energies"].sum())
            flat = deck.flat_args()
            ex = Executor(self.module, self._config(num_threads))
            ex.run(self.fn, *(flat[n] for n in ARG_NAMES))
            return float(flat["energies"].sum())

        fd = (value(eps) - value(-eps)) / (2 * eps)
        shadows, _ = self.run_gradient(num_threads)
        rev = float(shadows["poses"].sum())
        return rev, fd


def main(argv: Optional[list] = None) -> int:
    """CLI: run one miniBUDE variant forward and as a gradient; the
    report says what the gradient disk cache did (``cache_event``: hit /
    miss / off, per ``REPRO_CACHE_DIR``) and what the compiled tier did
    (``compile_stats``: code-entry hits / misses, functions ``lowered``
    in this process, ``interpreter_only`` fallbacks; ``null`` under
    ``--backend interp`` and the MPI variant), and carries a SHA-256 of
    the shadow arrays."""
    import argparse
    import hashlib
    import json
    import sys

    from .kernels import VARIANTS

    ap = argparse.ArgumentParser(
        prog="python -m repro.apps.minibude",
        description="Run a miniBUDE variant (forward and gradient).")
    ap.add_argument("--variant", default="openmp",
                    choices=sorted(VARIANTS))
    ap.add_argument("--backend", default="interp",
                    choices=["interp", "compiled", "native"])
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--json", action="store_true",
                    help="emit the raw report as JSON")
    args = ap.parse_args(argv)

    app = MinibudeApp(args.variant, backend=args.backend)
    res = app.run_forward(args.threads)
    shadows, grad = app.run_gradient(args.threads)
    report = {
        "variant": args.variant, "backend": args.backend,
        "forward_time": res.time,
        "energy_sum": float(res.energies.sum()),
        "gradient_time": grad.time,
        "cache_event": app.gradient_cache["event"],
        "compile_stats": app.last_compile_stats,
        "gradient_digest": hashlib.sha256(b"".join(
            np.ascontiguousarray(shadows[n]).tobytes()
            for n in ARG_NAMES)).hexdigest(),
    }
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for k, v in report.items():
            print(f"{k}: {v}")
    return 0
