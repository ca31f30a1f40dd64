"""Shared test helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.interp import ExecConfig, Executor
from repro.ir import F64, I64, IRBuilder, Ptr, verify_module

# Every run draws the same examples, so a property that fails fails on
# every run.  ``pytest --hypothesis-profile=explore`` searches with fresh
# random seeds instead.
settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)


@pytest.fixture
def builder() -> IRBuilder:
    return IRBuilder()


def run_verified(builder: IRBuilder, fn: str, *args, num_threads: int = 1,
                 **cfg_kw):
    """Verify the module, run ``fn``, return (result, executor)."""
    verify_module(builder.module)
    ex = Executor(builder.module, ExecConfig(num_threads=num_threads,
                                             **cfg_kw))
    result = ex.run(fn, *args)
    return result, ex


def build_elementwise(builder: IRBuilder, name: str, body_fn,
                      parallel: bool = True):
    """Build ``name(x, y, n)`` computing ``y[i] = body_fn(x[i])``."""
    b = builder
    with b.function(name, [("x", Ptr()), ("y", Ptr()), ("n", I64)]) as f:
        x, y, n = f.args
        if parallel:
            ctx = b.parallel_for(0, n)
        else:
            ctx = b.for_(0, n)
        with ctx as i:
            v = b.load(x, i)
            b.store(body_fn(b, v), y, i)
    return name


def fd_elementwise_check(builder, fn_name, grad_name, x0: np.ndarray,
                         num_threads: int = 1, rtol: float = 1e-5):
    """Compare d(sum y)/dx between the generated gradient and central
    finite differences for an elementwise y = f(x) kernel."""
    n = len(x0)
    eps = 1e-7 * max(1.0, float(np.abs(x0).max()))
    cfg = dict(num_threads=num_threads)

    def primal(x):
        y = np.zeros(n)
        Executor(builder.module, ExecConfig(**cfg)).run(fn_name, x.copy(),
                                                        y, n)
        return y.sum()

    fd = np.array([
        (primal(x0 + eps * e) - primal(x0 - eps * e)) / (2 * eps)
        for e in np.eye(n)
    ])

    dx = np.zeros(n)
    dy = np.ones(n)
    y = np.zeros(n)
    Executor(builder.module, ExecConfig(**cfg)).run(
        grad_name, x0.copy(), dx, y, dy, n)
    np.testing.assert_allclose(dx, fd, rtol=rtol, atol=1e-6)
    return dx
