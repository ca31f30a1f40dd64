"""IR emission of the miniBUDE proxy energy kernel.

Variants (paper §VII): ``serial``, C++-style ``openmp`` (kmpc closure +
worksharing over poses), ``julia`` (one spawned task per pose chunk, as
the paper's miniBUDE.jl uses Julia tasks; the core kernel is no-inlined,
matching §VII-A-c), and ``mpi`` (rank 0 broadcasts the poses, ranks
evaluate a block partition into a local buffer, and an
``allreduce(sum)`` assembles the energies — the bulk-synchronous
decomposition exercised by the commcheck duality verifier).

The pose loop is the parallel dimension; the per-pose body rotates and
translates each ligand atom, then accumulates steric, electrostatic,
and desolvation contributions over every protein atom — the heavily
compute-bound double loop of the original.
"""

from __future__ import annotations

from typing import Optional

from ...frontends import Julia, OpenMP
from ...ir import (
    F64,
    I64,
    IRBuilder,
    Module,
    Ptr,
    Task,
    verify_module,
)
from .deck import (
    DESOLV_SCALE,
    DESOLV_SIGMA,
    ELEC_CUTOFF,
    ELEC_SCALE,
    HARDNESS,
)

ARG_NAMES = ("protein_xyz", "protein_radius", "protein_charge",
             "protein_hphb", "ligand_xyz", "ligand_radius",
             "ligand_charge", "ligand_hphb", "poses", "energies")

VARIANTS = ("serial", "openmp", "julia", "mpi")


def build_minibude(variant: str, nprotein: int, nligand: int,
                   nposes: int, ntasks: int = 8,
                   module: Optional[Module] = None) -> tuple[Module, str]:
    """Emit ``bude_<variant>`` specialized for the deck sizes."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown miniBUDE variant {variant!r}")
    b = IRBuilder(module)
    fn_name = f"bude_{variant}"
    args = [(n, Ptr(F64)) for n in ARG_NAMES]
    # Declared array extents for static bounds certification: xyz
    # tables are flattened (N, 3), poses flattened (P, 6).
    extents = {
        "protein_xyz": 3 * nprotein, "protein_radius": nprotein,
        "protein_charge": nprotein, "protein_hphb": nprotein,
        "ligand_xyz": 3 * nligand, "ligand_radius": nligand,
        "ligand_charge": nligand, "ligand_hphb": nligand,
        "poses": 6 * nposes, "energies": nposes,
    }
    attrs = [{"noalias": True, "extent": extents[n]} for n in ARG_NAMES]

    with b.function(fn_name, args, arg_attrs=attrs) as f:
        A = {n: f.arg(n) for n in ARG_NAMES}
        if variant == "openmp":
            omp = OpenMP(b)
            captured = list(A.values())
            with omp.parallel_for(0, nposes, captured=captured,
                                  name="pose") as (i, env):
                _emit_pose_body(b, i, lambda v: env.get(v, v), A,
                                nprotein, nligand)
        elif variant == "julia":
            jl = Julia(b, A.values())

            def fasten_region(lo: int, hi: int) -> None:
                with b.for_(lo, hi, simd=True, name="pose") as i:
                    _emit_pose_body(b, i, jl.resolver(), A, nprotein,
                                    nligand)

            tasks = b.alloc(ntasks, Task, space="gc", name="tasks")
            per = -(-nposes // ntasks)
            for c in range(ntasks):
                lo, hi = c * per, min((c + 1) * per, nposes)
                with b.spawn(framework="julia") as t:
                    if hi > lo:
                        fasten_region(lo, hi)
                b.store(t, tasks, c)
            for c in range(ntasks):
                b.call("task.wait", b.load(tasks, c))
        elif variant == "mpi":
            rank = b.call("mpi.comm_rank")
            size = b.call("mpi.comm_size")
            # Rank 0 owns the candidate poses; the deck geometry is
            # replicated, so only the poses travel.
            b.call("mpi.bcast", A["poses"], 6 * nposes, 0)
            local = b.alloc(nposes, name="local_energies")
            b.memset(local, 0.0, nposes)
            per = b.idiv(b.add(nposes - 1, size), size)
            lo = b.mul(rank, per)
            hi = b.add(lo, per)
            hi = b.select(b.cmp("lt", hi, nposes), hi,
                          b.const(nposes, I64))
            with b.for_(lo, hi, simd=True, name="pose") as i:
                _emit_pose_body(b, i,
                                lambda v: local if v is A["energies"]
                                else v, A, nprotein, nligand)
            b.call("mpi.allreduce", local, A["energies"], nposes,
                   op="sum")
        else:
            with b.for_(0, nposes, simd=True, name="pose") as i:
                _emit_pose_body(b, i, lambda v: v, A, nprotein, nligand)

    verify_module(b.module)
    return b.module, fn_name


def _emit_pose_body(b: IRBuilder, i, g, A, nprotein: int,
                    nligand: int) -> None:
    base = b.mul(i, 6)
    poses = g(A["poses"])
    ax = b.load(poses, base)
    ay = b.load(poses, b.add(base, 1))
    az = b.load(poses, b.add(base, 2))
    tx = b.load(poses, b.add(base, 3))
    ty = b.load(poses, b.add(base, 4))
    tz = b.load(poses, b.add(base, 5))

    sx, cx = b.sin(ax), b.cos(ax)
    sy, cy = b.sin(ay), b.cos(ay)
    sz, cz = b.sin(az), b.cos(az)
    # R = Rz · Ry · Rx
    r00 = b.mul(cz, cy)
    r01 = b.sub(b.mul(b.mul(cz, sy), sx), b.mul(sz, cx))
    r02 = b.add(b.mul(b.mul(cz, sy), cx), b.mul(sz, sx))
    r10 = b.mul(sz, cy)
    r11 = b.add(b.mul(b.mul(sz, sy), sx), b.mul(cz, cx))
    r12 = b.sub(b.mul(b.mul(sz, sy), cx), b.mul(cz, sx))
    r20 = b.neg(sy)
    r21 = b.mul(cy, sx)
    r22 = b.mul(cy, cx)

    acc = b.alloc(1, name="etot")
    b.store(0.0, acc, 0)

    lig = g(A["ligand_xyz"])
    lrad_p = g(A["ligand_radius"])
    lchg_p = g(A["ligand_charge"])
    lhphb_p = g(A["ligand_hphb"])
    pro = g(A["protein_xyz"])
    prad_p = g(A["protein_radius"])
    pchg_p = g(A["protein_charge"])
    phphb_p = g(A["protein_hphb"])

    with b.for_(0, nligand, name="l") as l:
        lb3 = b.mul(l, 3)
        lx = b.load(lig, lb3)
        ly = b.load(lig, b.add(lb3, 1))
        lz = b.load(lig, b.add(lb3, 2))
        px_ = b.add(b.add(b.add(b.mul(r00, lx), b.mul(r01, ly)),
                          b.mul(r02, lz)), tx)
        py_ = b.add(b.add(b.add(b.mul(r10, lx), b.mul(r11, ly)),
                          b.mul(r12, lz)), ty)
        pz_ = b.add(b.add(b.add(b.mul(r20, lx), b.mul(r21, ly)),
                          b.mul(r22, lz)), tz)
        lrad = b.load(lrad_p, l)
        lchg = b.load(lchg_p, l)
        lhphb = b.load(lhphb_p, l)

        with b.for_(0, nprotein, name="pa") as p:
            pb3 = b.mul(p, 3)
            dx = b.sub(px_, b.load(pro, pb3))
            dy = b.sub(py_, b.load(pro, b.add(pb3, 1)))
            dz = b.sub(pz_, b.load(pro, b.add(pb3, 2)))
            d = b.sqrt(b.add(b.add(b.mul(dx, dx), b.mul(dy, dy)),
                             b.add(b.mul(dz, dz), 1e-12)))
            distbb = b.sub(d, b.add(b.load(prad_p, p), lrad))
            steric = b.select(b.cmp("lt", distbb, 0.0),
                              b.mul(b.neg(distbb), 2.0 * HARDNESS),
                              b.const(0.0))
            chrg = b.mul(b.load(pchg_p, p), lchg)
            scale = b.max(b.sub(1.0, b.div(d, ELEC_CUTOFF)), 0.0)
            elect = b.mul(b.mul(chrg, ELEC_SCALE), scale)
            dslv = b.mul(
                b.mul(b.mul(DESOLV_SCALE, b.load(phphb_p, p)), lhphb),
                b.exp(b.neg(b.div(b.mul(d, d),
                                  DESOLV_SIGMA * DESOLV_SIGMA))))
            term = b.sub(b.add(steric, elect), dslv)
            b.store(b.add(b.load(acc, 0), term), acc, 0)

    b.store(b.mul(0.5, b.load(acc, 0)), g(A["energies"]), i)
