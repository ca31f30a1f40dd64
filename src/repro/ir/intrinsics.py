"""Default runtime-intrinsic registry.

Parallel runtimes appear to the compiler as *calls*, exactly as in the
paper (§V-A): MPI communication is ``mpi.*`` calls, the Julia runtime is
``jl.*`` calls.  The AD engine recognizes these by name and applies the
registered adjoint handler; new frameworks can register additional
intrinsics plus handlers without touching the core (§V's three steps).

The ``cache.*`` intrinsics implement Enzyme's allocation strategy 3
(§IV-C): dynamically grown caches for values computed in loops of
unknown trip count.  They are emitted only by the AD engine itself.
"""

from __future__ import annotations

from .types import F64, I1, I64, Ptr, Request, Token, Void

#: Pure intrinsics whose result CSE and the AD emitter value-number and
#: the cache planner recomputes in the reverse pass instead of caching.
RECOMPUTABLE_INTRINSICS = frozenset({
    "mpi.comm_rank", "mpi.comm_size", "rt.num_threads"})

#: Pure intrinsics DCE removes when their result is unused.
REMOVABLE_INTRINSICS = RECOMPUTABLE_INTRINSICS | {"jl.arrayptr"}


def register_default_intrinsics(module) -> None:
    from .function import IntrinsicInfo

    def reg(name, arg_types, ret=Void, effects="any", variadic=False, doc=""):
        module.register_intrinsic(
            IntrinsicInfo(name, arg_types, ret, effects, variadic, doc))

    pf64 = Ptr(F64)

    # --- MPI (identified by callee name, as Enzyme identifies MPI_Isend
    # --- etc. in LLVM IR) -------------------------------------------------
    reg("mpi.comm_rank", [], I64, effects="pure",
        doc="Rank of the calling process in COMM_WORLD.")
    reg("mpi.comm_size", [], I64, effects="pure",
        doc="Number of ranks in COMM_WORLD.")
    reg("mpi.send", [pf64, I64, I64, I64], effects="any",
        doc="Blocking send: (buf, count, dest, tag).")
    reg("mpi.recv", [pf64, I64, I64, I64], effects="any",
        doc="Blocking receive: (buf, count, source, tag).")
    reg("mpi.isend", [pf64, I64, I64, I64], Request, effects="any",
        doc="Nonblocking send: (buf, count, dest, tag) -> request.")
    reg("mpi.irecv", [pf64, I64, I64, I64], Request, effects="any",
        doc="Nonblocking receive: (buf, count, source, tag) -> request.")
    reg("mpi.wait", [Request], effects="any",
        doc="Wait for a nonblocking operation to complete.")
    reg("mpi.allreduce", [pf64, pf64, I64], effects="any",
        doc="Allreduce (sendbuf, recvbuf, count); attr 'op' in "
            "{'sum','min','max'}.")
    reg("mpi.reduce", [pf64, pf64, I64, I64], effects="any",
        doc="Reduce to root: (sendbuf, recvbuf, count, root); attr 'op'.")
    reg("mpi.bcast", [pf64, I64, I64], effects="any",
        doc="Broadcast (buf, count, root).")
    reg("mpi.barrier", [], effects="any", doc="Barrier over COMM_WORLD.")

    # --- Julia runtime ----------------------------------------------------
    reg("jl.arrayptr", [pf64], pf64, effects="pure",
        doc="Extract the data pointer from a GC array descriptor. "
            "Identity at run time, opaque to alias analysis: models the "
            "extra indirection of Julia arrays (paper §VIII).")
    reg("jl.gc_preserve_begin", [], Token, effects="any", variadic=True,
        doc="Root the listed buffers against collection until the "
            "matching gc_preserve_end (paper §VI-C2).")
    reg("jl.gc_preserve_end", [Token], effects="any")
    reg("jl.safepoint", [], effects="any",
        doc="GC safepoint: unreachable GC buffers may be collected here.")

    # --- task runtime (wait is a call; spawn is a region op) --------------
    from .types import Task
    reg("task.wait", [Task], effects="any",
        doc="Wait for a spawned task (Base.wait).")

    # --- misc runtime -----------------------------------------------------
    reg("rt.num_threads", [], I64, effects="pure",
        doc="Configured shared-memory thread count.")
    reg("rt.buflen", [], I64, effects="pure", variadic=True,
        doc="Element count from a pointer to the end of its buffer "
            "(snapshot sizing for checkpointed adjoints; "
            "variadic so any pointer element type is accepted).")
    reg("rt.assert_ge", [F64, F64], effects="any",
        doc="Abort if arg0 < arg1 (used by app error checks).")

    # --- AD-internal dynamic caches (allocation strategy 3, §IV-C) --------
    reg("cache.create", [], Ptr(F64), effects="any",
        doc="Create a growable cache; elem type via attr 'elem'.")
    reg("cache.push", [Ptr(F64), F64], effects="any", variadic=True,
        doc="Append a value to a dynamic cache.")
    reg("cache.pop", [Ptr(F64)], F64, effects="any",
        doc="Pop the most recent value from a dynamic cache.")
    reg("cache.destroy", [Ptr(F64)], effects="any")
