"""repro.frontends — language/framework veneers over the IR.

Each frontend emits the IR its real-world compiler would produce, so
the AD engine only ever sees lowered constructs (the paper's §V-D
argument that one low-level implementation covers many frameworks).
The apps build every OpenMP, RAJA and Julia construct through them:

* :class:`~repro.frontends.openmp.OpenMP` — closure-record outlining,
  worksharing loops, firstprivate;
* :class:`~repro.frontends.raja.RAJA` — forall / ReduceMin lowering
  onto the OpenMP substrate (zero AD-specific code; the fork carries
  ``framework='raja'``);
* :class:`~repro.frontends.julia.Julia` — GC array descriptors with
  opaque data-pointer extraction (``jl.arrayptr``) and gc_preserve.
"""

from .julia import Julia
from .openmp import OpenMP
from .raja import RAJA, ReduceMin

__all__ = ["Julia", "OpenMP", "RAJA", "ReduceMin"]
