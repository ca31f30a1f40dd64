"""The four workloads: sizes, seed → inputs, and the calls that run them.

Everything here goes through the public API a user of ``repro`` would
call: the two app drivers, ``Executor``/``SimMPI`` and the deck/domain
builders.  The seed draws only the generated inputs; the program sees
nothing else of it.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.ad import Duplicated
from repro.apps.lulesh.driver import (LuleshApp, domain_args,
                                      gradient_activities)
from repro.apps.lulesh.mesh import ALL_FLOAT_FIELDS
from repro.apps.minibude import MinibudeApp
from repro.apps.minibude.deck import make_deck
from repro.apps.minibude.kernels import ARG_NAMES
from repro.interp import ExecConfig
from repro.parallel.mpi import SimMPI


@dataclasses.dataclass
class Run:
    """One forward or gradient run."""
    time: float       # simulated seconds (RunResult.time)
    cost: object      # CostVector summed over ranks
    outputs: list     # per rank: {field: primal array after the run}
    grads: list       # per rank: {field: shadow array after the run}


def digest(rank_arrays: list) -> str:
    """Bit-exact fingerprint of a list of per-rank ``{field: array}``."""
    h = hashlib.blake2b(digest_size=16)
    for arrays in rank_arrays:
        for name in sorted(arrays):
            h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def total(rank_arrays: list, fields=None) -> float:
    return sum(float(a.sum()) for arrays in rank_arrays
               for name, a in arrays.items()
               if fields is None or name in fields)


class Workload:
    """Common surface of the two app families.

    ``state`` is whatever one evaluation consumes and must be built
    fresh, outside the timer, before each one (LULESH runs update their
    domains in place).
    """

    name: str
    why: str
    mpi = False
    num_threads = 1
    #: Inputs the projection check differentiates with respect to.
    wrt: tuple = ()

    def reference_outputs(self, app):
        """Primal outputs from an independent reference, in the shape
        of ``Run.outputs`` (None when the app has none)."""
        return None

    def exec_config(self, app) -> ExecConfig:
        """The ExecConfig the app builds for its own runs."""
        return ExecConfig(num_threads=self.num_threads, machine=app.machine,
                          backend=app.backend,
                          compile_cache=app.compile_cache)

    def observed_gradient(self, app, state, shadow_seed: float = 1.0):
        """The gradient run spelled out over ``SimMPI`` (one rank when
        the workload has no MPI), which keeps the per-rank executors —
        and with them the cache counters and adjoint stats the app
        drivers drop — reachable.  Returns ``(Run, executors)``."""
        rank_args, outputs, grads = self.grad_args(app, state, shadow_seed)
        engine = SimMPI(app.module, len(rank_args), self.exec_config(app),
                        app.machine)
        res = engine.run(app.grad_fn(), rank_args)
        return (Run(res.time, res.total_cost, outputs, grads),
                [st.executor for st in engine.ranks])


class Lulesh(Workload):
    wrt = ("x", "y", "z", "e")

    def __init__(self, name, why, flavor, nx, steps, smoke, num_threads=1,
                 pr=1, adjoint=None):
        self.name, self.why = name, why
        self.flavor, self.nx, self.steps = flavor, nx, steps
        self.num_threads, self.pr, self.adjoint = num_threads, pr, adjoint
        self.mpi = pr > 1
        self._smoke = smoke

    def smoke(self) -> "Lulesh":
        nx, steps = self._smoke
        return Lulesh(self.name, self.why, self.flavor, nx, steps,
                      self._smoke, self.num_threads, self.pr, self.adjoint)

    def make_inputs(self, seed: int) -> float:
        """Background energy: moves the Sedov state off the p ≥ 0 kink
        so finite differences and AD measure the same thing."""
        return float(np.random.default_rng(seed).uniform(0.5e4, 2.0e4))

    def make_app(self, inputs, backend="compiled", compile_cache="off"):
        return LuleshApp(self.flavor, self.nx, pr=self.pr, backend=backend,
                         compile_cache=compile_cache, adjoint=self.adjoint)

    def activities(self) -> list:
        return gradient_activities()

    def fresh_state(self, app, inputs, delta: float = 0.0) -> list:
        doms = app.make_domains(inputs)
        if delta:
            for d in doms:
                for f in self.wrt:
                    d[f][...] += delta
        return doms

    @staticmethod
    def _fields(doms) -> list:
        return [{f: d[f] for f in ALL_FLOAT_FIELDS} for d in doms]

    def forward(self, app, doms) -> Run:
        res = app.run_forward(doms, self.steps, self.num_threads)
        return Run(res.time, res.cost, self._fields(doms), [])

    def gradient(self, app, doms, shadow_seed: float = 1.0) -> Run:
        shadows = [d.shadow_arrays(seed=shadow_seed) for d in doms]
        res = app.run_gradient(doms, self.steps, self.num_threads, shadows)
        return Run(res.time, res.cost, self._fields(doms), shadows)

    def grad_args(self, app, doms, shadow_seed: float = 1.0):
        shadows = [d.shadow_arrays(seed=shadow_seed) for d in doms]
        return ([domain_args(d, self.steps, sh)
                 for d, sh in zip(doms, shadows)],
                self._fields(doms), shadows)

    def bindings(self) -> dict:
        """Integer arguments commcheck needs bound (neighbour arithmetic
        is only in range at the built decomposition)."""
        return {"steps": self.steps}


class Minibude(Workload):
    wrt = ("poses",)

    def __init__(self, name, why, variant, sizes, smoke):
        self.name, self.why = name, why
        self.variant, self.sizes, self._smoke = variant, sizes, smoke

    def smoke(self) -> "Minibude":
        return Minibude(self.name, self.why, self.variant, self._smoke,
                        self._smoke)

    def make_inputs(self, seed: int):
        return make_deck(*self.sizes, seed=seed)

    def make_app(self, deck, backend="compiled", compile_cache="off"):
        return MinibudeApp(self.variant, deck=deck, backend=backend,
                           compile_cache=compile_cache)

    def activities(self) -> list:
        return [Duplicated] * len(ARG_NAMES)

    def fresh_state(self, app, deck, delta: float = 0.0):
        """The app copies its deck into fresh arrays on every run; a
        perturbed evaluation swaps in a deck with shifted poses."""
        app.deck = (dataclasses.replace(deck, poses=deck.poses + delta)
                    if delta else deck)
        return app.deck

    def forward(self, app, deck) -> Run:
        res = app.run_forward(self.num_threads)
        return Run(res.time, res.cost, [{"energies": res.energies}], [])

    def gradient(self, app, deck, shadow_seed: float = 1.0) -> Run:
        shadows, res = app.run_gradient(self.num_threads, seed=shadow_seed)
        return Run(res.time, res.cost, [{"energies": res.energies}],
                   [shadows])

    def grad_args(self, app, deck, shadow_seed: float = 1.0):
        flat = deck.flat_args()
        shadows = {n: np.zeros_like(flat[n]) for n in ARG_NAMES}
        shadows["energies"][...] = shadow_seed
        args = tuple(a for n in ARG_NAMES for a in (flat[n], shadows[n]))
        return [args], [{"energies": flat["energies"]}], [shadows]

    def bindings(self) -> dict:
        return {}

    def reference_outputs(self, app):
        return [{"energies": app.reference_energies()}]


WORKLOADS = {w.name: w for w in (
    Lulesh("lulesh_omp",
           "the paper's headline app; ad+passes do most of the cold cycle, "
           "execute is per-statement NumPy in fork bodies",
           "openmp", nx=14, steps=3, num_threads=4, smoke=(3, 2)),
    Minibude("minibude_serial",
             "tiny front end, scalar adjoint sweeps dominate: the bypass "
             "workload for ad/passes/cache changes, the target for "
             "interp execute changes",
             "serial", sizes=(24, 8, 64), smoke=(8, 4, 8)),
    Lulesh("lulesh_mpi",
           "same lowering and executor, every mpi.* op bridged to the "
           "interpreter under SimMPI (8 ranks)",
           "mpi", nx=4, steps=3, pr=2, smoke=(2, 2)),
    Lulesh("lulesh_ckpt",
           "checkpoint adjoint: 2N-1 recompute iterations instead of "
           "caching, the opposite storage discipline to cache-all",
           "serial", nx=3, steps=32, adjoint="checkpoint", smoke=(2, 8)),
)}
