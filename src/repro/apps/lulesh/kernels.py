"""IR emission of the LULESH proxy, parameterized by parallel flavor.

``build_lulesh(flavor, nx, pr)`` emits a complete Lagrange-leapfrog
time loop specialized for the per-rank problem size (bounds are
compile-time constants, as in a ``-DNX=...`` build) in one of the
paper's framework variants:

* ``serial`` — plain vectorizable loops;
* ``openmp`` — ``__kmpc_fork`` closures + worksharing loops (Fig. 3
  lowering, through :class:`repro.frontends.openmp.OpenMP`);
* ``raja``   — RAJA::forall lowering onto the same OpenMP substrate
  (:class:`repro.frontends.raja.RAJA`; the forks carry
  ``framework='raja'``);
* ``mpi``    — single-threaded ranks + face-ordered ghost-force
  exchange with nonblocking send/recv/wait;
* ``hybrid`` — MPI exchange + OpenMP kernels (MPI_THREAD_FUNNELED);
* ``julia`` / ``julia_mpi`` — GC array descriptors with per-kernel
  ``jl.arrayptr`` indirection, MPI calls under ``gc_preserve``
  (:class:`repro.frontends.julia.Julia`).

Every flavor evaluates the *same arithmetic in the same order*, so all
runs agree with :mod:`repro.apps.lulesh.reference` to rounding noise
and the decomposed runs agree with the serial one (min-reductions are
pairwise trees, which are order-exact for min).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ...frontends import RAJA, Julia, OpenMP
from ...ir import (
    F64,
    I64,
    IRBuilder,
    Module,
    Ptr,
    Value,
    verify_module,
)
from .mesh import (
    ALL_FLOAT_FIELDS,
    ELEM_FIELDS,
    INT_FIELDS,
    MASK_FIELDS,
    NODAL_FIELDS,
    TIME_FIELD,
)
from .physics import DEFAULT_PARAMS, HEX_FACES, LuleshParams


@dataclass(frozen=True)
class Flavor:
    name: str
    style: str            # "simd" | "omp" | "raja" | "julia"
    mpi: bool


FLAVORS: dict[str, Flavor] = {
    "serial": Flavor("serial", "simd", False),
    "openmp": Flavor("openmp", "omp", False),
    "raja": Flavor("raja", "raja", False),
    "mpi": Flavor("mpi", "simd", True),
    "hybrid": Flavor("hybrid", "omp", True),
    "raja_mpi": Flavor("raja_mpi", "raja", True),
    "julia": Flavor("julia", "julia", False),
    "julia_mpi": Flavor("julia_mpi", "julia", True),
}


class _Emitter:
    """Flavor-directed loop and array-access emission: every framework
    construct comes from the flavor's :mod:`repro.frontends` object."""

    def __init__(self, b: IRBuilder, flavor: Flavor,
                 arrays: Iterable[Value]) -> None:
        self.b = b
        #: RAJA::forall or ``omp parallel for`` (closure-capturing loops)
        self.forall = None
        if flavor.style == "raja":
            self.forall = RAJA(b).forall
        elif flavor.style == "omp":
            self.forall = OpenMP(b).parallel_for
        #: under Julia the array arguments are GC array descriptors
        self.jl = Julia(b, arrays) if flavor.style == "julia" else None

    @contextlib.contextmanager
    def loop(self, count, used: Sequence[Value], name: str = "i"):
        """A parallel-semantics loop over [0, count) in flavor style.

        Yields ``(i, g)`` where ``g(v)`` resolves an outer value to its
        in-region form (closure reload for OpenMP/RAJA, data-pointer
        extraction for Julia, identity otherwise).
        """
        if self.forall is not None:
            with self.forall(0, count, captured=list(used),
                             name=name) as (i, env):
                yield i, (lambda v: env.get(v, v))
        else:
            with self.b.for_(0, count, simd=True, name=name) as i:
                yield i, (self.jl.resolver() if self.jl else (lambda v: v))

    def data(self, v: Value) -> Value:
        """Out-of-loop data pointer (Julia: one arrayptr call)."""
        return self.jl.arrayptr(v) if self.jl else v

    def preserve(self, *bufs: Value):
        """``GC.@preserve`` around foreign (MPI) calls under Julia."""
        return self.jl.gc_preserve(*bufs) if self.jl \
            else contextlib.nullcontext()


def _emit_face_geometry(b: IRBuilder, cx, cy, cz):
    """Area vectors (0.5 d1×d2) and centroids of the 6 faces, matching
    ``reference._face_geometry`` operation for operation."""
    faces = []
    for (a, bb, c, d) in HEX_FACES:
        d1x = b.sub(cx[c], cx[a])
        d1y = b.sub(cy[c], cy[a])
        d1z = b.sub(cz[c], cz[a])
        d2x = b.sub(cx[d], cx[bb])
        d2y = b.sub(cy[d], cy[bb])
        d2z = b.sub(cz[d], cz[bb])
        ax = b.mul(0.5, b.sub(b.mul(d1y, d2z), b.mul(d1z, d2y)))
        ay = b.mul(0.5, b.sub(b.mul(d1z, d2x), b.mul(d1x, d2z)))
        az = b.mul(0.5, b.sub(b.mul(d1x, d2y), b.mul(d1y, d2x)))
        cxm = b.mul(0.25, b.add(b.add(cx[a], cx[bb]), b.add(cx[c], cx[d])))
        cym = b.mul(0.25, b.add(b.add(cy[a], cy[bb]), b.add(cy[c], cy[d])))
        czm = b.mul(0.25, b.add(b.add(cz[a], cz[bb]), b.add(cz[c], cz[d])))
        faces.append((ax, ay, az, cxm, cym, czm))
    return faces


def _emit_volume(b: IRBuilder, faces):
    vol = b.const(0.0)
    for (ax, ay, az, cxm, cym, czm) in faces:
        term = b.add(b.add(b.mul(cxm, ax), b.mul(cym, ay)), b.mul(czm, az))
        vol = b.add(vol, term)
    return b.div(vol, 3.0)


def _gather_corners(b, g, nodelist, e, fields):
    base = b.mul(e, 8)
    nodes = [b.load(g(nodelist), b.add(base, k)) for k in range(8)]
    out = []
    for f in fields:
        out.append([b.load(g(f), nodes[k]) for k in range(8)])
    return nodes, out


def build_lulesh(flavor_name: str, nx: int, pr: int = 1,
                 params: LuleshParams = DEFAULT_PARAMS,
                 module: Optional[Module] = None,
                 time_loop_adjoint: Optional[str] = None
                 ) -> tuple[Module, str]:
    """Emit the flavor's time loop; returns (module, function name).

    The function signature is ``(``all float fields``, ``int fields``,
    ``mask fields``, steps)`` in the order of
    :data:`repro.apps.lulesh.mesh.ALL_FIELDS`.

    ``time_loop_adjoint`` tags the time loop with a per-region adjoint
    strategy (``"checkpoint"`` / ``"cache-all"``); None
    leaves the choice to ``ADConfig.adjoint``.
    """
    fl = FLAVORS[flavor_name]
    p = params
    ns = nx + 1
    nelem = nx ** 3
    nnode = ns ** 3
    plane = ns * ns
    pow2 = 1 << max(1, math.ceil(math.log2(max(2, nelem))))

    b = IRBuilder(module)
    fn_name = f"lulesh_{flavor_name}"

    args = [(f, Ptr(F64)) for f in ALL_FLOAT_FIELDS]
    args += [(f, Ptr(I64)) for f in INT_FIELDS]
    args += [(f, Ptr(F64)) for f in MASK_FIELDS]
    args += [("steps", I64)]
    # Declared array extents (the bounds-certification contract; see
    # DESIGN §11): nodal fields are nnode-long, element fields
    # nelem-long, the connectivity tables carry 8 entries per element
    # (nodelist) / node (corner_ell), timestate is the 4-slot
    # [time, dt, dtcourant, dthydro] record.
    extents = {f: nnode for f in NODAL_FIELDS}
    extents.update({f: nelem for f in ELEM_FIELDS})
    extents[TIME_FIELD] = 4
    extents["nodelist"] = 8 * nelem
    extents["corner_ell"] = 8 * nnode
    extents.update({f: nelem for f in INT_FIELDS[2:]})
    extents.update({f: nnode for f in MASK_FIELDS})
    # Value contracts of the index arrays (``below=N``: every element in
    # [0, N)) — what certifies the gathers and scatter-adds through them:
    # node ids, corner slots of the 8*nelem + 1 force arrays, element ids.
    below = {"nodelist": nnode, "corner_ell": 8 * nelem + 1}
    below.update({f: nelem for f in INT_FIELDS[2:]})
    attrs = [{"noalias": True, "extent": extents[name]}
             for name, _ in args[:-1]] + [{}]
    for (name, _), a in zip(args, attrs):
        if name in below:
            a["below"] = below[name]

    with b.function(fn_name, args, arg_attrs=attrs) as f:
        A = {name: f.arg(name) for name in
             ALL_FLOAT_FIELDS + INT_FIELDS + MASK_FIELDS}
        steps = f.arg("steps")

        em = _Emitter(b, fl, A.values())

        space = "gc" if fl.style == "julia" else "stack"
        fex = b.alloc(8 * nelem + 1, space=space, name="fex")
        fey = b.alloc(8 * nelem + 1, space=space, name="fey")
        fez = b.alloc(8 * nelem + 1, space=space, name="fez")
        cand = b.alloc(pow2, space=space, name="cand")
        vnew_arr = b.alloc(nelem, space=space, name="vnew")
        if fl.mpi:
            sendbuf = b.alloc(3 * plane, space=space, name="sendbuf")
            recvbuf = b.alloc(3 * plane, space=space, name="recvbuf")
            dt_cells = b.alloc(2, space=space, name="dtcells")
            rank = b.call("mpi.comm_rank")
            rx = rank % pr
            ry = (rank // pr) % pr
            rz = rank // (pr * pr)

        with b.for_(0, steps, name="s", adjoint=time_loop_adjoint) as s:
            ts = A[TIME_FIELD]
            # ---------------- time increment -------------------------
            dt_cell = b.alloc(1, name="dt_new")
            with b.if_(b.cmp("eq", s, 0)):
                b.store(p.dt_initial, em.data(dt_cell), 0)
            with b.else_():
                _emit_dt_candidate(b, em, A, cand, nelem, pow2, p, dt_cell)
            if fl.mpi:
                _mpi_allreduce_min_dt(b, em, dt_cell, dt_cells)
            dt = b.load(em.data(dt_cell), 0)
            tsd = em.data(ts)
            b.store(dt, tsd, 1)
            b.store(b.add(b.load(tsd, 0), dt), tsd, 0)

            # ---------------- nodal forces ---------------------------
            _emit_stress_and_hourglass(b, em, A, fex, fey, fez, nelem, p)
            _emit_corner_scatter(b, em, A, fex, fey, fez, nnode)
            if fl.mpi:
                _emit_force_exchange(b, em, A, sendbuf, recvbuf,
                                     ns, pr, rx, ry, rz)

            # ---------------- node integration -----------------------
            _emit_integrate_nodes(b, em, A, nnode, dt, p)

            # ---------------- element updates ------------------------
            _emit_kinematics(b, em, A, vnew_arr, nelem, p)
            _emit_q(b, em, A, vnew_arr, nelem, p)
            _emit_eos(b, em, A, vnew_arr, nelem, p)

    verify_module(b.module)
    return b.module, fn_name


# ---------------------------------------------------------------------------
# Kernel emitters
# ---------------------------------------------------------------------------

def _emit_dt_candidate(b, em, A, cand, nelem, pow2, p, dt_cell):
    """CalcTimeConstraints: two pairwise-tree min reductions."""
    used = [A["arealg"], A["ss"], cand]
    # courant candidates
    with em.loop(nelem, used, name="e") as (e, g):
        ssc = b.max(b.load(g(A["ss"]), e), p.ss_floor)
        b.store(b.div(b.load(g(A["arealg"]), e), ssc), g(cand), e)
    _pad_and_reduce_min(b, em, cand, nelem, pow2)
    dtcourant = b.mul(b.load(em.data(cand), 0), p.cfl_courant)

    used = [A["vdov"], cand]
    with em.loop(nelem, used, name="e") as (e, g):
        dv = b.abs(b.load(g(A["vdov"]), e))
        b.store(b.div(p.cfl_hydro, b.add(dv, p.dvov_min)), g(cand), e)
    _pad_and_reduce_min(b, em, cand, nelem, pow2)
    dthydro = b.load(em.data(cand), 0)

    tsd = em.data(A[TIME_FIELD])
    b.store(dtcourant, tsd, 2)
    b.store(dthydro, tsd, 3)
    dt_prev = b.load(tsd, 1)
    dt = b.min(b.min(dtcourant, dthydro),
               b.min(b.mul(dt_prev, p.dt_mult_ub), p.dt_max))
    b.store(dt, em.data(dt_cell), 0)


def _pad_and_reduce_min(b, em, cand, nelem, pow2):
    """Pairwise-tree min fold.  Deliberately emitted as plain loops for
    every flavor: the fold is O(nelem) flops — opening a parallel
    region per pass would cost more in fork overhead than it saves
    (and min is order-exact, so all variants agree bitwise)."""
    data = em.data(cand)
    if pow2 > nelem:
        with b.for_(nelem, pow2, simd=True, name="k") as k:
            b.store(1.0e30, data, k)
    half = pow2 // 2
    while half >= 1:
        with b.for_(0, half, simd=True, name="k") as k:
            a = b.load(data, k)
            c = b.load(data, b.add(k, half))
            b.store(b.min(a, c), data, k)
        half //= 2


def _mpi_allreduce_min_dt(b, em, dt_cell, dt_cells):
    send = em.data(dt_cells)
    recv = b.ptradd(em.data(dt_cells), 1)
    b.store(b.load(em.data(dt_cell), 0), send, 0)
    with em.preserve(dt_cells):
        b.call("mpi.allreduce", send, recv, 1, op="min")
    b.store(b.load(recv, 0), em.data(dt_cell), 0)


def _emit_stress_and_hourglass(b, em, A, fex, fey, fez, nelem, p):
    """CalcVolumeForceForElems: stress face forces + hourglass drag."""
    used = [A["x"], A["y"], A["z"], A["xd"], A["yd"], A["zd"], A["p"],
            A["q"], A["ss"], A["arealg"], A["elem_mass"], A["nodelist"],
            fex, fey, fez]
    with em.loop(nelem, used, name="e") as (e, g):
        nodes, (cx, cy, cz) = _gather_corners(
            b, g, A["nodelist"], e, [A["x"], A["y"], A["z"]])
        faces = _emit_face_geometry(b, cx, cy, cz)
        sig = b.add(b.load(g(A["p"]), e), b.load(g(A["q"]), e))

        cf = {comp: [b.const(0.0)] * 8 for comp in range(3)}
        for fidx, face in enumerate(HEX_FACES):
            ax, ay, az = faces[fidx][0], faces[fidx][1], faces[fidx][2]
            contrib = (b.mul(b.mul(sig, ax), 0.25),
                       b.mul(b.mul(sig, ay), 0.25),
                       b.mul(b.mul(sig, az), 0.25))
            for k in face:
                for comp in range(3):
                    cf[comp][k] = b.add(cf[comp][k], contrib[comp])

        # hourglass-like drag toward element-mean velocity
        _, (vx, vy, vz) = _gather_corners(
            b, g, A["nodelist"], e, [A["xd"], A["yd"], A["zd"]])
        ssc = b.max(b.load(g(A["ss"]), e), p.ss_floor)
        rate = b.div(
            b.mul(b.mul(p.hgcoef, b.load(g(A["elem_mass"]), e)), ssc),
            b.add(b.load(g(A["arealg"]), e), p.ss_floor))
        for comp, vel in ((0, vx), (1, vy), (2, vz)):
            ssum = vel[0]
            for k in range(1, 8):
                ssum = b.add(ssum, vel[k])
            mean = b.mul(ssum, 0.125)
            for k in range(8):
                drag = b.mul(rate, b.sub(vel[k], mean))
                cf[comp][k] = b.sub(cf[comp][k], drag)

        base = b.mul(e, 8)
        for k in range(8):
            slot = b.add(base, k)
            b.store(cf[0][k], g(fex), slot)
            b.store(cf[1][k], g(fey), slot)
            b.store(cf[2][k], g(fez), slot)


def _emit_corner_scatter(b, em, A, fex, fey, fez, nnode):
    """Sum corner forces into nodes through the padded corner map."""
    used = [A["corner_ell"], A["fx"], A["fy"], A["fz"], fex, fey, fez]
    with em.loop(nnode, used, name="n") as (n, g):
        base = b.mul(n, 8)
        slots = [b.load(g(A["corner_ell"]), b.add(base, k))
                 for k in range(8)]
        for buf, out in ((fex, A["fx"]), (fey, A["fy"]), (fez, A["fz"])):
            s = b.load(g(buf), slots[0])
            for k in range(1, 8):
                s = b.add(s, b.load(g(buf), slots[k]))
            b.store(s, g(out), n)


def _emit_force_exchange(b, em, A, sendbuf, recvbuf, ns, pr, rx, ry, rz):
    """Dimension-ordered ghost-force summation (CommSBN, §VII-A)."""
    plane = ns * ns

    def node_expr(axis, fixed, pidx):
        a = b.imod(pidx, ns)
        c = b.idiv(pidx, ns)
        if axis == 0:
            return b.add(b.add(fixed, b.mul(a, ns)),
                         b.mul(c, ns * ns))
        if axis == 1:
            return b.add(b.add(a, b.mul(fixed, ns)), b.mul(c, ns * ns))
        return b.add(b.add(a, b.mul(c, ns)), b.mul(fixed, ns * ns))

    def pack(axis, fixed_plane):
        used = [A["fx"], A["fy"], A["fz"], sendbuf]
        with em.loop(plane, used, name="pk") as (pidx, g):
            node = node_expr(axis, fixed_plane, pidx)
            for c, fld in enumerate(("fx", "fy", "fz")):
                b.store(b.load(g(A[fld]), node), g(sendbuf),
                        b.add(pidx, c * plane))

    def unpack_add(axis, fixed_plane):
        used = [A["fx"], A["fy"], A["fz"], recvbuf]
        with em.loop(plane, used, name="up") as (pidx, g):
            node = node_expr(axis, fixed_plane, pidx)
            for c, fld in enumerate(("fx", "fy", "fz")):
                cur = b.load(g(A[fld]), node)
                inc = b.load(g(recvbuf), b.add(pidx, c * plane))
                b.store(b.add(cur, inc), g(A[fld]), node)

    def exchange(axis, coord, peer_delta, fixed_plane, send_tag,
                 recv_tag):
        cond = b.cmp("gt", coord, 0) if peer_delta < 0 else \
            b.cmp("lt", coord, pr - 1)
        with b.if_(cond):
            peer_stride = {0: 1, 1: pr, 2: pr * pr}[axis]
            me = b.call("mpi.comm_rank")
            peer = b.add(me, peer_delta * peer_stride)
            pack(axis, fixed_plane)
            with em.preserve(sendbuf, recvbuf):
                r1 = b.call("mpi.isend", em.data(sendbuf), 3 * plane, peer,
                            send_tag)
                r2 = b.call("mpi.irecv", em.data(recvbuf), 3 * plane, peer,
                            recv_tag)
                b.call("mpi.wait", r1)
                b.call("mpi.wait", r2)
            unpack_add(axis, fixed_plane)

    for axis, coord in ((0, rx), (1, ry), (2, rz)):
        lo_tag, hi_tag = 10 + axis, 20 + axis
        # exchange with the lower neighbour: my plane 0
        exchange(axis, coord, -1, 0, lo_tag, hi_tag)
        # exchange with the upper neighbour: my plane ns-1
        exchange(axis, coord, +1, ns - 1, hi_tag, lo_tag)


def _emit_integrate_nodes(b, em, A, nnode, dt, p):
    """Acceleration, symmetry BCs, velocity (with cutoff), position."""
    comps = (("fx", "xd", "x", "symm_x"), ("fy", "yd", "y", "symm_y"),
             ("fz", "zd", "z", "symm_z"))
    used = [A[n] for group in comps for n in group] + [A["nodal_mass"]]
    with em.loop(nnode, used, name="n") as (n, g):
        mass = b.load(g(A["nodal_mass"]), n)
        for fc, vc, cc, mk in comps:
            acc = b.div(b.load(g(A[fc]), n), mass)
            acc = b.mul(acc, b.load(g(A[mk]), n))
            vnew = b.add(b.load(g(A[vc]), n), b.mul(acc, dt))
            vnew = b.select(b.cmp("lt", b.abs(vnew), p.u_cut), 0.0, vnew)
            b.store(vnew, g(A[vc]), n)
            b.store(b.add(b.load(g(A[cc]), n), b.mul(vnew, dt)),
                    g(A[cc]), n)


def _emit_kinematics(b, em, A, vnew_arr, nelem, p):
    """CalcLagrangeElements: volumes, delv, arealg, vdov."""
    used = [A["x"], A["y"], A["z"], A["xd"], A["yd"], A["zd"], A["v"],
            A["volo"], A["delv"], A["arealg"], A["vdov"], A["nodelist"],
            vnew_arr]
    with em.loop(nelem, used, name="e") as (e, g):
        _, (cx, cy, cz) = _gather_corners(
            b, g, A["nodelist"], e, [A["x"], A["y"], A["z"]])
        faces = _emit_face_geometry(b, cx, cy, cz)
        vol = _emit_volume(b, faces)
        vnew = b.div(vol, b.load(g(A["volo"]), e))
        b.store(b.sub(vnew, b.load(g(A["v"]), e)), g(A["delv"]), e)
        b.store(b.cbrt(vol), g(A["arealg"]), e)
        b.store(vnew, g(vnew_arr), e)

        _, (vx, vy, vz) = _gather_corners(
            b, g, A["nodelist"], e, [A["xd"], A["yd"], A["zd"]])
        dvdt = b.const(0.0)
        for fidx, (fa, fb, fc, fd) in enumerate(HEX_FACES):
            ax, ay, az = faces[fidx][0], faces[fidx][1], faces[fidx][2]
            fvx = b.mul(0.25, b.add(b.add(vx[fa], vx[fb]),
                                    b.add(vx[fc], vx[fd])))
            fvy = b.mul(0.25, b.add(b.add(vy[fa], vy[fb]),
                                    b.add(vy[fc], vy[fd])))
            fvz = b.mul(0.25, b.add(b.add(vz[fa], vz[fb]),
                                    b.add(vz[fc], vz[fd])))
            dvdt = b.add(dvdt, b.add(b.add(b.mul(fvx, ax), b.mul(fvy, ay)),
                                     b.mul(fvz, az)))
        b.store(b.div(dvdt, vol), g(A["vdov"]), e)


def _emit_q(b, em, A, vnew_arr, nelem, p):
    """CalcQForElems: qlc/qqc viscosity, optionally with the
    neighbour-based monotonic limiter through the element indirection
    arrays (single-rank configurations)."""
    used = [A["elem_mass"], A["volo"], A["vdov"], A["arealg"], A["ss"],
            A["q"], vnew_arr]
    if p.use_monoq_limiter:
        used += [A["lxim"], A["lxip"], A["letam"], A["letap"],
                 A["lzetam"], A["lzetap"]]
    with em.loop(nelem, used, name="e") as (e, g):
        vnew = b.load(g(vnew_arr), e)
        rho = b.div(b.load(g(A["elem_mass"]), e),
                    b.mul(b.load(g(A["volo"]), e), vnew))
        dvov = b.load(g(A["vdov"]), e)
        l = b.load(g(A["arealg"]), e)
        ssc = b.max(b.load(g(A["ss"]), e), p.ss_floor)
        absdv = b.abs(dvov)
        qq = b.mul(b.mul(rho, b.mul(l, absdv)),
                   b.add(b.mul(p.qlc, ssc), b.mul(p.qqc, b.mul(l, absdv))))
        q = b.select(b.cmp("lt", dvov, 0.0), qq, b.const(0.0))
        if p.use_monoq_limiter:
            vd = g(A["vdov"])
            safe = b.select(b.cmp("gt", absdv, p.dvov_min), dvov,
                            b.const(p.dvov_min))
            phi = b.const(0.0)
            for lo_n, hi_n in (("lxim", "lxip"), ("letam", "letap"),
                               ("lzetam", "lzetap")):
                r_lo = b.div(b.load(vd, b.load(g(A[lo_n]), e)), safe)
                r_hi = b.div(b.load(vd, b.load(g(A[hi_n]), e)), safe)
                axis = b.mul(0.5, b.add(r_lo, r_hi))
                axis = b.min(axis, b.min(b.mul(p.monoq_limiter, r_lo),
                                         b.mul(p.monoq_limiter, r_hi)))
                axis = b.min(axis, p.monoq_max_slope)
                axis = b.max(axis, 0.0)
                phi = b.add(phi, axis)
            phi = b.mul(phi, 1.0 / 3.0)
            q = b.mul(q, b.max(b.sub(1.0, phi), 0.0))
        b.store(b.min(q, p.q_stop), g(A["q"]), e)


def _emit_eos(b, em, A, vnew_arr, nelem, p):
    """EvalEOSForElems + UpdateVolumesForElems."""
    used = [A["e"], A["p"], A["q"], A["v"], A["delv"], A["ss"], vnew_arr]
    with em.loop(nelem, used, name="e") as (e, g):
        vnew = b.load(g(vnew_arr), e)
        e_old = b.load(g(A["e"]), e)
        p_old = b.load(g(A["p"]), e)
        q_new = b.load(g(A["q"]), e)
        delv = b.load(g(A["delv"]), e)

        e_half = b.max(
            b.sub(e_old, b.mul(b.mul(0.5, delv), b.add(p_old, q_new))),
            p.e_min)
        p_half = b.max(b.div(b.mul(p.gamma - 1.0, e_half), vnew), p.p_min)
        work = b.add(b.add(p_old, p_half), b.mul(2.0, q_new))
        e_new = b.sub(e_old, b.mul(b.mul(0.5, delv), work))
        e_new = b.max(e_new, p.e_min)
        e_new = b.select(b.cmp("lt", b.abs(e_new), p.pressure_floor),
                         0.0, e_new)
        p_new = b.max(b.div(b.mul(p.gamma - 1.0, e_new), vnew), p.p_min)
        p_new = b.select(b.cmp("lt", b.abs(p_new), p.pressure_floor),
                         0.0, p_new)
        ss = b.sqrt(b.max(b.mul(b.mul(p.gamma, p_new), vnew),
                          p.ss_floor ** 2))

        b.store(e_new, g(A["e"]), e)
        b.store(p_new, g(A["p"]), e)
        b.store(ss, g(A["ss"]), e)
        v = b.select(b.cmp("lt", b.abs(b.sub(vnew, 1.0)), p.v_cut),
                     1.0, vnew)
        b.store(v, g(A["v"]), e)
