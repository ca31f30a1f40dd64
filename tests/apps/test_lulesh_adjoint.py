"""Checkpointed adjoint on the LULESH time loop: 64 steps, bit-identical
to cache-all (shadows and final primal state) under both backends, with
peak cached state O(log steps) instead of O(steps); odd trip counts
whose schedules youturn at a full stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.lulesh.driver import LuleshApp
from repro.apps.lulesh.mesh import ALL_FLOAT_FIELDS, MASK_FIELDS

STEPS = 64


def _gradient(adjoint, backend, flavor="serial", steps=STEPS,
              num_threads=1):
    """Shadows and final primal float fields (one dict), adjoint stats
    and report of one gradient run.  The const masks are left out: the
    OpenMP flavours' gradients accumulate into them under either
    strategy (test_openmp_gradient_leaves_const_masks_untouched)."""
    app = LuleshApp(flavor, 3, backend=backend, adjoint=adjoint)
    doms = app.make_domains()
    shadows = [d.shadow_arrays(seed=1.0) for d in doms]
    app.run_gradient(doms, steps, num_threads, shadows)
    out = {f"d_{k}": v for k, v in shadows[0].items()}
    out.update((k, doms[0][k]) for k in ALL_FLOAT_FIELDS)
    return out, app.last_adjoint_stats, app.adjoint_report


def _assert_same(ref, got):
    assert sorted(ref) == sorted(got)
    for field in sorted(ref):
        np.testing.assert_array_equal(ref[field], got[field], err_msg=field)


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_checkpoint_64_steps_bit_identical_and_sublinear(backend):
    sh_ca, st_ca, _ = _gradient(None, backend)
    sh_ck, st_ck, rep = _gradient("checkpoint", backend)
    assert [e["loop"] for e in rep["managed"]] == ["s"]
    assert rep["fallbacks"] == []
    _assert_same(sh_ca, sh_ck)
    # The CI perf gate: strictly below cache-all at 64 steps.  The
    # revolve machine keeps ceil(log2 64)+2 = 8 snapshots of the
    # mutable domain state vs 64 iterations of cached intermediates.
    assert st_ck["peak_cached_bytes"] < st_ca["peak_cached_bytes"]
    assert st_ck["peak_cached_bytes"] < st_ca["peak_cached_bytes"] / 4


def test_checkpoint_openmp_time_loop_managed():
    """The fork/workshare flavor's serial time loop is still eligible."""
    sh_ca, _, _ = _gradient(None, "interp", flavor="openmp", steps=8,
                            num_threads=2)
    sh_ck, _, rep = _gradient("checkpoint", "interp", flavor="openmp",
                              steps=8, num_threads=2)
    assert [e["loop"] for e in rep["managed"]] == ["s"]
    _assert_same(sh_ca, sh_ck)


@pytest.mark.parametrize("flavor,steps,backend,threads", [
    ("serial", 37, "compiled", 1),
    ("openmp", 11, "interp", 2),
])
def test_checkpoint_odd_trip_counts(flavor, steps, backend, threads):
    """Odd trip counts whose spines end at a full stack with a segment
    wider than one trip ([34, 37) of 37, [9, 11) of 11), so the machine
    youturns with no free slot, re-advancing inside that segment."""
    sh_ca, _, _ = _gradient(None, backend, flavor=flavor, steps=steps,
                            num_threads=threads)
    sh_ck, _, rep = _gradient("checkpoint", backend, flavor=flavor,
                              steps=steps, num_threads=threads)
    assert [e["loop"] for e in rep["managed"]] == ["s"]
    _assert_same(sh_ca, sh_ck)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the shadow closure record of a fork holds the primal pointer of a "
    "const capture, and the reverse sweep accumulates the mask adjoint "
    "through it into symm_x/y/z"))
def test_openmp_gradient_leaves_const_masks_untouched():
    app = LuleshApp("openmp", 3)
    doms = app.make_domains()
    before = {k: doms[0][k].copy() for k in MASK_FIELDS}
    app.run_gradient(doms, 1, 1, [d.shadow_arrays(seed=1.0) for d in doms])
    for k in MASK_FIELDS:
        np.testing.assert_array_equal(before[k], doms[0][k], err_msg=k)
