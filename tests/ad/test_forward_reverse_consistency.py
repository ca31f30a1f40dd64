"""Forward-over-everything consistency: JVP·u == u·VJP on the apps."""

import numpy as np
import pytest

from repro.ad import Duplicated, autodiff
from repro.ad.forward import autodiff_forward
from repro.apps.minibude import MinibudeApp, make_deck
from repro.apps.minibude.kernels import ARG_NAMES
from repro.interp import ExecConfig, Executor


def test_minibude_jvp_vjp_consistency():
    deck = make_deck(nprotein=8, nligand=4, nposes=6)
    app = MinibudeApp("serial", deck)
    rev = app.grad_fn()
    fwd = autodiff_forward(app.module, app.fn,
                           [Duplicated] * len(ARG_NAMES))

    rng = np.random.default_rng(3)
    u = rng.normal(size=deck.nposes * 6)

    # forward: tangent of energies along direction u in poses
    flat = deck.flat_args()
    shadows = {n: np.zeros_like(flat[n]) for n in ARG_NAMES}
    shadows["poses"][...] = u
    args = []
    for n in ARG_NAMES:
        args += [flat[n], shadows[n]]
    Executor(app.module).run(fwd, *args)
    jvp = shadows["energies"].sum()

    # reverse: u . d(sum energies)/d(poses)
    shadows_r, _ = app.run_gradient()
    vjp = float(shadows_r["poses"] @ u)
    assert jvp == pytest.approx(vjp, rel=1e-10)


@pytest.mark.parametrize("adjoint,steps", [(None, 3), ("checkpoint", 5)])
def test_lulesh_serial_app_jvp_vjp_consistency(adjoint, steps):
    """The whole serial LULESH time loop (every kernel a ``simd`` loop,
    reversed as ``simd`` loops): v·(J u) == u·(Jᵀ v) for random u on all
    inputs and random v on all outputs.  Under ``checkpoint`` the time
    loop is checkpointed, so the tangent oracle checks the revolve
    machine independently of the cache-all gradient."""
    from repro.apps.lulesh.driver import (
        LuleshApp,
        domain_args,
        gradient_activities,
    )
    from repro.apps.lulesh.mesh import ALL_FLOAT_FIELDS
    app = LuleshApp("serial", nx=2, adjoint=adjoint)
    fwd = autodiff_forward(app.module, app.fn, gradient_activities())

    rng = np.random.default_rng(11)
    doms = app.make_domains(1.0e4)
    u = {f: rng.normal(size=doms[0][f].shape) for f in ALL_FLOAT_FIELDS}
    v = {f: rng.normal(size=doms[0][f].shape) for f in ALL_FLOAT_FIELDS}

    tangents = {f: u[f].copy() for f in ALL_FLOAT_FIELDS}
    Executor(app.module).run(fwd, *domain_args(doms[0], steps, tangents))
    jvp = sum(float(tangents[f] @ v[f]) for f in ALL_FLOAT_FIELDS)

    shadows = {f: v[f].copy() for f in ALL_FLOAT_FIELDS}
    app.run_gradient(app.make_domains(1.0e4), steps, 1, [shadows])
    if adjoint:
        assert [e["loop"] for e in app.adjoint_report["managed"]] == ["s"]
    vjp = sum(float(shadows[f] @ u[f]) for f in ALL_FLOAT_FIELDS)
    assert jvp == pytest.approx(vjp, rel=1e-10)


def test_forward_mode_const_buffers_carry_no_tangent():
    """A Const pointer argument has no shadow: floats read through it
    have zero tangent (not the primal value), and stores to it write no
    tangent over the primal data."""
    from repro.ir import I64, IRBuilder, Ptr
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("m", Ptr()), ("n", I64)]) as f:
        x, m, n = f.args
        with b.for_(0, n, simd=True) as i:
            w = b.load(b.ptradd(m, 1), i)
            b.store(b.mul(b.load(x, i), w), x, i)
            b.store(b.add(w, 1.0), m, i)
    fwd = autodiff_forward(b.module, "f", [Duplicated, None, None])
    x, dx = np.array([1.0, 2.0]), np.array([1.0, 1.0])
    m = np.array([9.0, 3.0, 4.0])
    Executor(b.module).run(fwd, x, dx, m, 2)
    np.testing.assert_array_equal(x, [3.0, 8.0])
    np.testing.assert_array_equal(dx, [3.0, 4.0])     # d(x*w) = w dx
    np.testing.assert_array_equal(m, [4.0, 5.0, 4.0])


def test_lulesh_kernel_jvp_vjp_consistency():
    """One LULESH-style kernel (face forces) under both modes."""
    from repro.ir import F64, I64, IRBuilder, Ptr
    b = IRBuilder()
    with b.function("vol", [("x", Ptr()), ("y", Ptr()), ("z", Ptr()),
                            ("nl", Ptr(I64)), ("out", Ptr()),
                            ("ne", I64)]) as f:
        x, y, z, nl, out, ne = f.args
        with b.parallel_for(0, ne) as e:
            base = b.mul(e, 8)
            nodes = [b.load(nl, b.add(base, k)) for k in range(8)]
            cx = [b.load(x, nd) for nd in nodes]
            cy = [b.load(y, nd) for nd in nodes]
            cz = [b.load(z, nd) for nd in nodes]
            from repro.apps.lulesh.kernels import (
                _emit_face_geometry,
                _emit_volume,
            )
            faces = _emit_face_geometry(b, cx, cy, cz)
            b.store(_emit_volume(b, faces), out, e)

    acts = [Duplicated, Duplicated, Duplicated, None, Duplicated, None]
    rev = autodiff(b.module, "vol", acts)
    fwd = autodiff_forward(b.module, "vol", acts)

    from repro.apps.lulesh import build_domain
    dom = build_domain(2)
    rng = np.random.default_rng(7)
    xs = dom["x"] + rng.normal(scale=0.01, size=dom.nnode)
    ys = dom["y"] + rng.normal(scale=0.01, size=dom.nnode)
    zs = dom["z"] + rng.normal(scale=0.01, size=dom.nnode)
    u = [rng.normal(size=dom.nnode) for _ in range(3)]

    # forward
    dxs, dys, dzs = (u[0].copy(), u[1].copy(), u[2].copy())
    out, dout = np.zeros(dom.nelem), np.zeros(dom.nelem)
    Executor(b.module).run(fwd, xs.copy(), dxs, ys.copy(), dys,
                           zs.copy(), dzs, dom["nodelist"], out, dout,
                           dom.nelem)
    jvp = dout.sum()

    # reverse
    gx, gy, gz = np.zeros(dom.nnode), np.zeros(dom.nnode), np.zeros(
        dom.nnode)
    out2, seed = np.zeros(dom.nelem), np.ones(dom.nelem)
    Executor(b.module).run(rev, xs.copy(), gx, ys.copy(), gy, zs.copy(),
                           gz, dom["nodelist"], out2, seed, dom.nelem)
    vjp = float(gx @ u[0] + gy @ u[1] + gz @ u[2])
    assert jvp == pytest.approx(vjp, rel=1e-10)


def test_volume_gradient_is_surface_normal():
    """Physics sanity: dV/dx of the divergence-theorem volume is the
    nodal area vector; for a unit cube, corner gradients are +-0.25
    per axis and sum to zero (translation invariance)."""
    from repro.ir import F64, I64, IRBuilder, Ptr
    b = IRBuilder()
    with b.function("v1", [("x", Ptr()), ("y", Ptr()), ("z", Ptr()),
                           ("out", Ptr())]) as f:
        x, y, z, out = f.args
        cx = [b.load(x, k) for k in range(8)]
        cy = [b.load(y, k) for k in range(8)]
        cz = [b.load(z, k) for k in range(8)]
        from repro.apps.lulesh.kernels import (
            _emit_face_geometry,
            _emit_volume,
        )
        b.store(_emit_volume(b, _emit_face_geometry(b, cx, cy, cz)),
                out, 0)
    acts = [Duplicated, Duplicated, Duplicated, Duplicated]
    rev = autodiff(b.module, "v1", acts)

    from repro.apps.lulesh.physics import HEX_CORNERS
    xs = np.array([c[0] for c in HEX_CORNERS], dtype=float)
    ys = np.array([c[1] for c in HEX_CORNERS], dtype=float)
    zs = np.array([c[2] for c in HEX_CORNERS], dtype=float)
    gx, gy, gz = np.zeros(8), np.zeros(8), np.zeros(8)
    out, seed = np.zeros(1), np.ones(1)
    Executor(b.module).run(rev, xs, gx, ys, gy, zs, gz, out, seed)
    assert out[0] == pytest.approx(1.0)
    # translation invariance of volume
    assert gx.sum() == pytest.approx(0.0, abs=1e-12)
    assert gy.sum() == pytest.approx(0.0, abs=1e-12)
    assert gz.sum() == pytest.approx(0.0, abs=1e-12)
    # corner at x=0 plane has dV/dx = -1/4; at x=1 plane +1/4
    np.testing.assert_allclose(np.abs(gx), 0.25)
    np.testing.assert_allclose(np.sign(gx), 2 * xs - 1)
