"""Checkpointed adjoints (repro.ad.strategy).

Covers the revolve reference schedule, the checkpointed adjoint's
bit-identity with the cache-all plan under both backends, its
O(log N) peak cached state, the eligibility fallbacks, per-region tags,
the verifier rules, and the IR round-trip of the ``adjoint`` loop
attribute.
"""

from __future__ import annotations

import functools
import re

import numpy as np
import pytest

from repro.ad import ADConfig, Const, Duplicated, autodiff, autodiff_transform
from repro.ad.strategy import (STRATEGY_NAMES, binomial_split,
                               resolve_strategy, simulate_schedule,
                               stack_bits)
from repro.interp import ExecConfig, Executor
from repro.ir import (I64, IRBuilder, Ptr, VerificationError, parse_module,
                      print_module, verify_module)

BACKENDS = ["interp", "compiled"]


# ---------------------------------------------------------------------------
# The pure-Python revolve schedule
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _reverse_cost(width, free):
    """Fewest primal-only steps the reverse machine can spend on a
    stored segment of ``width`` trips with ``free`` slots above it,
    minimised over every split point."""
    if width <= 1:
        return 0
    if free == 0:   # youturn at hi - 1, then the rest
        return width - 1 + _reverse_cost(width - 1, 0)
    return min(m + _reverse_cost(width - m, free - 1) + _reverse_cost(m, free)
               for m in range(1, width))


@functools.lru_cache(maxsize=None)
def _spine_cost(width, free):
    """The same when the forward sweep lays the spine: its advances are
    paid by the forward sweep itself."""
    if width <= 1 or free == 0:
        return _reverse_cost(width, free)
    return min(_reverse_cost(m, free) + _spine_cost(width - m, free - 1)
               for m in range(1, width))


def _min_primal_steps(n):
    return n + _spine_cost(n, stack_bits(n)) if n > 0 else 0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 32, 33, 64,
                               100])
def test_simulate_schedule(n):
    sched = simulate_schedule(n)
    assert sched.order == list(range(n - 1, -1, -1))
    if n == 0:
        assert sched.peak == 0 and sched.primal_steps == 0
    elif n == 1:
        assert sched.peak == 1 and sched.primal_steps == 1
    else:
        # ceil(log2 n) + 1 stack slots: the bound the emitted IR sizes
        # its snapshot store with (stack_bits), all of it in use.
        assert sched.peak == (n - 1).bit_length() + 1
    if n <= 64:
        assert sched.primal_steps <= 1.05 * _min_primal_steps(n)
    # Bisection spent 112 primal-only steps, 64 restores and 33
    # snapshots at n = 32; 256 / 128 / 65 at n = 64.
    if n == 32:
        assert sched[2:] == (63, 52, 26)
    if n == 64:
        assert sched[2:] == (150, 107, 50)


def test_binomial_split_is_optimal_in_both_roles():
    for free in range(1, 7):
        for width in range(2, 65):
            m = binomial_split(width, free)
            assert 1 <= m < width
            assert (m + _reverse_cost(width - m, free - 1)
                    + _reverse_cost(m, free)) == _reverse_cost(width, free)
            assert (_reverse_cost(m, free) + _spine_cost(width - m, free - 1)
                    == _spine_cost(width, free))


def test_resolve_strategy():
    assert STRATEGY_NAMES == ("cache-all", "checkpoint")
    for name in STRATEGY_NAMES:
        assert resolve_strategy(name) == name
    expected = re.escape(f"expected one of {STRATEGY_NAMES}")
    for name in ("bogus", "implicit", None, "cache_all"):
        with pytest.raises(ValueError, match="unknown adjoint strategy"):
            resolve_strategy(name)
        with pytest.raises(ValueError, match=expected):
            autodiff_transform(_step_loop_module(), "step_loop",
                               [Duplicated, Const, Const],
                               ADConfig(adjoint=name))


# ---------------------------------------------------------------------------
# Checkpoint == cache-all, bit for bit, under both backends
# ---------------------------------------------------------------------------

def _step_loop_module(adjoint_tag=None):
    """x[i] <- 0.99*x[i] + x[i]^2 iterated ``steps`` times."""
    b = IRBuilder()
    with b.function("step_loop", [("x", Ptr()), ("n", I64),
                                  ("steps", I64)]) as f:
        x, n, steps = f.args
        with b.for_(0, steps, name="s", adjoint=adjoint_tag):
            with b.for_(0, n, name="i") as i:
                v = b.load(x, i)
                b.store(b.add(b.mul(v, 0.99), b.mul(v, v)), x, i)
    verify_module(b.module)
    return b.module


def _run_step_loop(adjoint, steps, backend, n=5, tag=None):
    m = _step_loop_module(tag)
    g = autodiff(m, "step_loop", [Duplicated, Const, Const],
                 ADConfig(adjoint=adjoint) if adjoint else ADConfig())
    ex = Executor(m, ExecConfig(backend=backend))
    x = np.linspace(0.1, 0.9, n)
    dx = np.ones(n)
    with np.errstate(over="ignore"):   # x diverges over long loops
        ex.run(g, x, dx, n, steps)
    return x, dx, ex


def _grad_step_loop(adjoint, steps, backend, n=5, tag=None):
    _, dx, ex = _run_step_loop(adjoint, steps, backend, n, tag)
    return dx, ex.adjoint_stats()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 7, 64])
def test_checkpoint_bit_identical(backend, steps):
    x_ca, g_ca, _ = _run_step_loop("cache-all", steps, backend)
    x_ck, g_ck, _ = _run_step_loop("checkpoint", steps, backend)
    np.testing.assert_array_equal(g_ca, g_ck)
    np.testing.assert_array_equal(x_ca, x_ck)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 5, 8, 13, 33, 64])
def test_emitted_machine_matches_simulate_schedule(backend, steps):
    """The IR runs as many primal-only steps as the model says.  One
    step of the module costs 3 flops per element; the machine's own
    compares are costed as flops too, but do not depend on the element
    count, so the n = 0 run cancels them."""
    def extra_flops(n):
        return (_run_step_loop("checkpoint", steps, backend, n)[2].cost.flops
                - _run_step_loop("cache-all", steps, backend, n)[2].cost.flops)

    n = 5
    assert (extra_flops(n) - extra_flops(0)) / (3 * n) == \
        simulate_schedule(steps).primal_steps


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoint_peak_state_logarithmic(backend):
    """Peak cached bytes grow O(log steps), not O(steps)."""
    peaks = {}
    for steps in (8, 64, 256):
        _, st_ca = _grad_step_loop("cache-all", steps, backend)
        _, st_ck = _grad_step_loop("checkpoint", steps, backend)
        assert st_ck["peak_cached_bytes"] < st_ca["peak_cached_bytes"]
        peaks[steps] = st_ck["peak_cached_bytes"]
    # 32x the steps must cost far less than 32x the state: the slot
    # count goes 4 -> 7 -> 9 (ceil(log2 N) + 1).
    assert peaks[256] <= 3 * peaks[8]


def test_per_region_tag_overrides_global_default():
    """A tagged loop is managed even under the cache-all default."""
    m = _step_loop_module("checkpoint")
    tr = autodiff_transform(m, "step_loop", [Duplicated, Const, Const])
    assert tr.adjoint_report["strategy"] == "cache-all"
    assert [e["loop"] for e in tr.adjoint_report["managed"]] == ["s"]
    g_ca, _ = _grad_step_loop(None, 16, "interp")
    g_tag, st = _grad_step_loop(None, 16, "interp", tag="checkpoint")
    np.testing.assert_array_equal(g_ca, g_tag)


# ---------------------------------------------------------------------------
# Eligibility fallbacks (recorded, and still correct via cache-all)
# ---------------------------------------------------------------------------

def _report_for(build_body, adjoint="checkpoint", args=None):
    b = IRBuilder()
    arglist = args or [("x", Ptr()), ("n", I64), ("steps", I64)]
    with b.function("f", arglist) as f:
        build_body(b, f)
    verify_module(b.module)
    tr = autodiff_transform(b.module, "f",
                            [Duplicated] + [Const] * (len(arglist) - 1),
                            ADConfig(adjoint=adjoint))
    return tr.adjoint_report


def test_fallback_while_in_body():
    def body(b, f):
        x, n, steps = f.args
        with b.for_(0, steps, name="s"):
            with b.while_():
                v = b.load(x, 0)
                b.store(b.mul(v, 0.5), x, 0)
                b.loop_while(b.cmp("gt", b.load(x, 0), 1.0))

    rep = _report_for(body)
    assert rep["managed"] == []
    assert len(rep["fallbacks"]) == 1
    assert "dynamic trip-count" in rep["fallbacks"][0]["reason"]


def test_fallback_dynamic_bounds():
    def body(b, f):
        x, n, steps = f.args
        with b.for_(0, n, name="i") as i:
            # The bound of the would-be time loop is loop-varying.
            with b.for_(0, b.add(i, 1), name="s"):
                b.store(b.mul(b.load(x, 0), 0.5), x, 0)

    rep = _report_for(body)
    assert rep["managed"] == []
    # The outer loop is eligible-shaped but the inner tagged-one is not
    # function-level; only top-level loops are considered, so the outer
    # loop is the candidate and its body holds an inner dynamic region.
    assert len(rep["fallbacks"]) == 1
    assert "non-static extent" in rep["fallbacks"][0]["reason"]


def test_fallback_still_differentiates_correctly():
    """An ineligible loop silently falls back to the cache-all plan."""
    def build(adjoint):
        b = IRBuilder()
        with b.function("f", [("x", Ptr()), ("steps", I64)]) as f:
            x, steps = f.args
            with b.for_(0, steps, name="s"):
                with b.while_():
                    v = b.load(x, 0)
                    b.store(b.mul(v, 0.5), x, 0)
                    b.loop_while(b.cmp("gt", b.load(x, 0), 1.0))
        verify_module(b.module)
        cfg = ADConfig(adjoint=adjoint) if adjoint else ADConfig()
        g = autodiff(b.module, "f", [Duplicated, Const], cfg)
        ex = Executor(b.module, ExecConfig())
        x, dx = np.array([40.0]), np.array([1.0])
        ex.run(g, x, dx, 3)
        return dx

    np.testing.assert_array_equal(build(None), build("checkpoint"))


def test_lulesh_julia_flavor_falls_back():
    """jl.* runtime calls in the body are a recorded fallback."""
    pytest.importorskip("numpy")
    from repro.apps.lulesh.driver import LuleshApp

    app = LuleshApp("julia", 2, adjoint="checkpoint")
    app.grad_fn()
    rep = app.adjoint_report
    assert rep["managed"] == []
    assert any("jl." in e["reason"] for e in rep["fallbacks"])


# ---------------------------------------------------------------------------
# Determinism: gradient IR must not depend on hash ordering
# ---------------------------------------------------------------------------

_HASHSEED_SCRIPT = """
import sys
from repro.ad import ADConfig, Const, Duplicated, autodiff
from repro.ir import I64, IRBuilder, Ptr, print_module, verify_module

b = IRBuilder()
with b.function("step_loop", [("x", Ptr()), ("y", Ptr()), ("n", I64),
                              ("steps", I64)]) as f:
    x, y, n, steps = f.args
    with b.for_(0, steps, name="s", adjoint=sys.argv[1] or None):
        with b.for_(0, n, name="i") as i:
            u, v = b.load(x, i), b.load(y, i)
            b.store(b.add(b.mul(u, 0.99), b.mul(v, u)), x, i)
            b.store(b.add(v, b.mul(u, 0.125)), y, i)
verify_module(b.module)
autodiff(b.module, "step_loop", [Duplicated, Duplicated, Const, Const],
         ADConfig(adjoint=sys.argv[1]) if sys.argv[1] else ADConfig())
sys.stdout.write(print_module(b.module))
"""


@pytest.mark.parametrize("adjoint", ["", "checkpoint"])
def test_gradient_ir_deterministic_across_hash_seeds(adjoint, tmp_path):
    """Byte-identical gradient IR under different PYTHONHASHSEEDs: the
    strategy analysis (state discovery, snapshot order) must iterate in
    program order, never set order."""
    import os
    import subprocess
    import sys

    import repro

    script = tmp_path / "emit_ir.py"
    script.write_text(_HASHSEED_SCRIPT)
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src_root + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, str(script), adjoint],
                              capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    if adjoint:
        assert f"{{adjoint='{adjoint}'}}".encode() in outs[0]


# ---------------------------------------------------------------------------
# Verifier rules and IR round-trip for the loop attribute
# ---------------------------------------------------------------------------

def test_verifier_rejects_unknown_tag():
    from repro.apps.lulesh.driver import LuleshApp

    for tag in ("bogus", "implicit"):
        b = IRBuilder()
        with b.function("f", [("n", I64)]) as f:
            (n,) = f.args
            with b.for_(0, n, adjoint=tag):
                pass
        with pytest.raises(VerificationError,
                           match="unknown adjoint strategy"):
            verify_module(b.module)
        # The app tags its time loop, so it fails while building.
        with pytest.raises(VerificationError,
                           match=f"unknown adjoint strategy '{tag}'"):
            LuleshApp("serial", 2, adjoint=tag)


def test_verifier_rejects_simd_with_adjoint_tag():
    b = IRBuilder()
    with b.function("f", [("n", I64)]) as f:
        (n,) = f.args
        with b.for_(0, n, simd=True, adjoint="checkpoint"):
            pass
    with pytest.raises(VerificationError, match="serial counted loops"):
        verify_module(b.module)


def test_adjoint_attr_roundtrip():
    m = _step_loop_module("checkpoint")
    text = print_module(m)
    assert "{adjoint='checkpoint'}" in text
    m2 = parse_module(text)
    loops = [op for op in m2.functions["step_loop"].body.ops
             if op.opcode == "for"]
    assert loops[0].attrs.get("adjoint") == "checkpoint"
    assert print_module(m2) == text
    verify_module(m2)
