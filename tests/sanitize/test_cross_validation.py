"""Sanitizer cross-validation with the AD engine (the PR's acceptance
harness): a deliberately mis-lowered gradient must be caught by *both*
layers, the TLS-optimized gradient by *neither*, and the
``atomic_everywhere`` ablation must not downgrade MPI-escaping shadows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Duplicated, autodiff, print_function
from repro.ad import ADConfig
from repro.ad.tls import ATOMIC, SERIAL, increment_kind
from repro.interp import ExecConfig, Executor
from repro.ir import F64, I64, IRBuilder, Ptr
from repro.parallel.mpi import SimMPI
from repro.sanitize import LintError, RaceReport

NA = {"noalias": True}


def _shared_read_kernel():
    """Every thread reads x[0]: the load adjoint increments d_x[0]."""
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("y", Ptr()), ("n", I64)],
                    arg_attrs=[NA, NA, {}]) as f:
        x, y, n = f.args
        with b.fork(0) as (tid, nth):
            v = b.load(x, 0)
            b.store(v * 3.0, y, tid)
    return b


def test_seeded_race_caught_statically():
    b = _shared_read_kernel()
    with pytest.raises(LintError) as exc:
        autodiff(b.module, "k", [Duplicated, Duplicated, None],
                 ADConfig(sanitize=True, force_increment_kind="serial"))
    assert any(d.code == "shared-store" for d in exc.value.result.errors)


def test_seeded_race_caught_dynamically():
    b = _shared_read_kernel()
    g = autodiff(b.module, "k", [Duplicated, Duplicated, None],
                 ADConfig(force_increment_kind="serial"))
    nt = 4
    ex = Executor(b.module, ExecConfig(num_threads=nt, sanitize=True))
    x, dx = np.ones(1), np.zeros(1)
    y, dy = np.zeros(nt), np.ones(nt)
    with pytest.raises(RaceReport) as exc:
        ex.run(g, x, dx, y, dy, nt)
    r = exc.value
    assert r.buffer_name == "d_x" and r.index == 0
    # Both racing ops are named in the report.
    assert "load %d_x[0]" in str(r) and "store" in str(r)


def test_tls_optimized_gradient_clean_both_layers():
    b = _shared_read_kernel()
    g = autodiff(b.module, "k", [Duplicated, Duplicated, None],
                 ADConfig(sanitize=True))    # lint passes: no LintError
    nt = 4
    ex = Executor(b.module, ExecConfig(num_threads=nt, sanitize=True))
    x, dx = np.ones(1), np.zeros(1)
    y, dy = np.zeros(nt), np.ones(nt)
    ex.run(g, x, dx, y, dy, nt)
    assert ex.races == []
    assert dx[0] == pytest.approx(3.0 * nt)


def test_forced_atomic_is_also_clean():
    b = _shared_read_kernel()
    g = autodiff(b.module, "k", [Duplicated, Duplicated, None],
                 ADConfig(sanitize=True, force_increment_kind="atomic"))
    nt = 4
    ex = Executor(b.module, ExecConfig(num_threads=nt, sanitize=True))
    x, dx = np.ones(1), np.zeros(1)
    y, dy = np.zeros(nt), np.ones(nt)
    ex.run(g, x, dx, y, dy, nt)
    assert ex.races == [] and dx[0] == pytest.approx(3.0 * nt)


# ---------------------------------------------------------------------------
# increment_kind MPI-escape regression (the audited bug)
# ---------------------------------------------------------------------------

def test_increment_kind_mpi_escape_unit():
    # No region: the decision never reads the index facts (None here).
    # atomic_everywhere used to return SERIAL whenever there was no
    # enclosing parallel region, even for MPI-escaping locations.
    assert increment_kind(None, None, [], None, None,
                          atomic_everywhere=True,
                          mpi_escapes=True) == ATOMIC
    assert increment_kind(None, None, [], None, None,
                          atomic_everywhere=True,
                          mpi_escapes=False) == SERIAL
    # Optimized path: rank-local serial accumulation is provably safe.
    assert increment_kind(None, None, [], None, None,
                          mpi_escapes=True) == SERIAL


def _mpi_kernel():
    b = IRBuilder()
    with b.function("k", [("buf", Ptr()), ("out", Ptr()), ("n", I64)]) as f:
        buf, out, n = f.args
        r = b.call("mpi.comm_rank")
        v = b.load(buf, 0)           # shadow of buf escapes via mpi.send
        b.store(v * 2.0, out, 0)
        with b.if_(b.cmp("eq", r, 0)):
            b.call("mpi.send", buf, n, 1, 5)
        with b.if_(b.cmp("eq", r, 1)):
            b.call("mpi.recv", buf, n, 0, 5)
    return b


def test_atomic_everywhere_keeps_mpi_shadows_atomic():
    b = _mpi_kernel()
    g = autodiff(b.module, "k", [Duplicated, Duplicated, None],
                 ADConfig(atomic_everywhere=True))
    txt = print_function(b.module.functions[g])
    assert "atomic_add" in txt


def test_default_config_keeps_function_level_serial():
    b = _mpi_kernel()
    g = autodiff(b.module, "k", [Duplicated, Duplicated, None])
    txt = print_function(b.module.functions[g])
    assert "atomic_add" not in txt


def test_mpi_gradient_runs_clean_under_sanitizer():
    b = _mpi_kernel()
    g = autodiff(b.module, "k", [Duplicated, Duplicated, None],
                 ADConfig(atomic_everywhere=True))
    mpi = SimMPI(b.module, nprocs=2, config=ExecConfig(sanitize=True))
    bufs = [np.array([3.0]), np.array([0.0])]
    dbufs = [np.zeros(1), np.zeros(1)]
    outs = [np.zeros(1), np.zeros(1)]
    douts = [np.ones(1), np.ones(1)]
    mpi.run(g, lambda r: (bufs[r], dbufs[r], outs[r], douts[r], 1))
    assert mpi.races == []
    # out_r = 2 * buf_r, each rank seeds d_out = 1; rank1's adjoint of
    # the recv ships its d_buf back to rank 0's shadow.
    assert dbufs[0][0] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Application-level validation (the paper's proxy apps)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_lulesh_openmp_sanitized_gradient_matches_fd():
    from repro.apps.lulesh.driver import LuleshApp
    app = LuleshApp("openmp", nx=2, ad_config=ADConfig(sanitize=True),
                    sanitize=True)
    rev, fd = app.projection_check(steps=3, num_threads=4)
    assert rev == pytest.approx(fd, rel=5e-5)


@pytest.mark.slow
def test_minibude_openmp_sanitized_gradient_matches_fd():
    from repro.apps.minibude import MinibudeApp, make_deck
    deck = make_deck(nprotein=12, nligand=6, nposes=16)
    app = MinibudeApp("openmp", deck, ad_config=ADConfig(sanitize=True),
                      sanitize=True)
    rev, fd = app.projection_check(num_threads=4)
    assert rev == pytest.approx(fd, rel=1e-4)
