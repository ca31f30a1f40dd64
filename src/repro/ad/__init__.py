"""repro.ad — the Enzyme-style reverse-mode AD engine (the paper's
primary contribution).

An IR-to-IR transformation generating gradients of programs that use
parallel loops, fork/barrier regions, task spawn/wait, and MPI message
passing, with:

* activity analysis (:mod:`repro.ad.activity`),
* thread-locality / access-pattern analysis choosing serial, reduction,
  or atomic shadow accumulation (:mod:`repro.ad.tls`),
* min-cut recompute-vs-cache planning with the paper's three cache
  allocation strategies (:mod:`repro.ad.cacheplan`),
* binomial checkpointing of time loops (:mod:`repro.ad.strategy`),
* per-opcode adjoint rules (:mod:`repro.ad.rules`),
* parallel-construct and shadow-request MPI handlers
  (:mod:`repro.ad.transform`, :mod:`repro.ad.mpi_rules`).
"""

from .api import (Active, ADConfig, Const, Duplicated, autodiff,
                  autodiff_transform)
from .cacheplan import CachePlan, CachePlanner, PlanError
from .forward import autodiff_forward
from .transform import ADTransform, ADTransformError

__all__ = [
    "Active", "ADConfig", "Const", "Duplicated", "autodiff",
    "autodiff_transform", "autodiff_forward",
    "CachePlan", "CachePlanner", "PlanError",
    "ADTransform", "ADTransformError",
]
