"""Round-trip oracle over the real programs: the printed text of an app
gradient *is* the gradient.

This is what lets the gradient disk cache store text: for every app
gradient, the function parsed back from ``print_function`` verifies,
lowers to the same source and runs bit-identically — arrays, simulated
clock, cost vector and peak AD-cache bytes — on ``backend="interp"`` and
``"compiled"``.  A warm process goes one step further and runs the
stored code of a gradient it holds as text only: that leg must be
bit-identical too, print the same closure, and never build the body.  (Attributes the printer used to drop — ``alloc
{adcache, stream}``, ``for {reverse_order, nowait}``, ``fork
{framework}``, the result type of a polymorphic intrinsic call — each
moved the clock, the cost or ``peak_cached_bytes`` of one of these.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.lulesh.driver import LuleshApp, domain_args
from repro.apps.minibude import MinibudeApp
from repro.apps.minibude.deck import make_deck
from repro.apps.minibude.kernels import ARG_NAMES
from repro.interp import ExecConfig, lower_function
from repro.ir import (parse_function, print_closure, print_function,
                      verify_function)
from repro.parallel.mpi import SimMPI
from repro.passes import certify_bounds

from ..properties import simd_programs as sp

STEPS = 2


def _lulesh(flavor, **kw):
    pr = 2 if "mpi" in flavor else 1
    threads = 4 if flavor in ("openmp", "raja") else 1
    return (lambda: LuleshApp(flavor, 2, pr=pr, **kw)), threads


def _minibude(variant, threads=1):
    return (lambda: MinibudeApp(variant, make_deck(4, 2, 6))), threads


APPS = {
    "lulesh-serial": _lulesh("serial"),
    "lulesh-openmp": _lulesh("openmp"),
    "lulesh-raja": _lulesh("raja"),
    "lulesh-mpi": _lulesh("mpi"),
    "lulesh-checkpoint": _lulesh("serial", adjoint="checkpoint"),
    # an intrinsic called at another type than it is registered with
    "lulesh-julia": _lulesh("julia"),
    "minibude-serial": _minibude("serial"),
    "minibude-openmp": _minibude("openmp", threads=4),
    "minibude-mpi": _minibude("mpi"),
    # spawned task bodies, lowered like fork bodies
    "minibude-julia": _minibude("julia"),
}


def _rank_args(app):
    """Per-rank gradient arguments and the arrays a run leaves behind."""
    if isinstance(app, LuleshApp):
        doms = app.make_domains(1.0e4)
        shadows = [d.shadow_arrays(seed=1.0) for d in doms]
        args = [domain_args(d, STEPS, sh) for d, sh in zip(doms, shadows)]
        arrays = [a for d, sh in zip(doms, shadows)
                  for f in sorted(sh) for a in (d[f], sh[f])]
        return args, arrays
    flats = (app._mpi_flats() if app.variant == "mpi"
             else [app.deck.flat_args()])
    shadows = [{n: np.zeros_like(f[n]) for n in ARG_NAMES} for f in flats]
    shadows[0]["energies"][...] = 1.0
    args = [tuple(a for n in ARG_NAMES for a in (f[n], sh[n]))
            for f, sh in zip(flats, shadows)]
    arrays = [a for f, sh in zip(flats, shadows)
              for n in ARG_NAMES for a in (f[n], sh[n])]
    return args, arrays


def _run(app, threads, backend):
    args, arrays = _rank_args(app)
    engine = SimMPI(app.module, len(args),
                    ExecConfig(num_threads=threads, machine=app.machine,
                               backend=backend), app.machine)
    if backend == "compiled":
        for st_ in engine.ranks:
            st_.executor.interp.backend.strict = True
    res = engine.run(app.grad_fn(), args)
    peak = max(st_.executor.adjoint_stats()["peak_cached_bytes"]
               for st_ in engine.ranks)
    return arrays, res.time, res.total_cost.as_dict(), peak


def _read_back(module, name):
    """Replace ``name`` in ``module`` by its own printed text, parsed."""
    fn = module.functions.pop(name)
    text = print_function(fn)
    new = parse_function(text, module)
    new.attrs.update(fn.attrs)
    verify_function(new, module)
    assert print_function(new) == text
    return fn, new


def _lowered(fn, module):
    return lower_function(fn, bounds=certify_bounds(fn, module))[0]


def _assert_same_run(got, want):
    assert len(got[0]) == len(want[0])
    for a, b in zip(got[0], want[0]):
        np.testing.assert_array_equal(a, b)
    assert got[1:] == want[1:]


@pytest.mark.parametrize("name", sorted(APPS))
def test_app_gradient_survives_its_own_text(name):
    make, threads = APPS[name]
    fresh, parsed = make(), make()
    old, new = _read_back(parsed.module, parsed.grad_fn())
    assert _lowered(new, parsed.module) == _lowered(old, parsed.module)
    for backend in ("interp", "compiled"):
        want = _run(fresh, threads, backend)
        assert want[3] > 0 or name.startswith("minibude")
        _assert_same_run(_run(parsed, threads, backend), want)


@settings(max_examples=25, deadline=None)
@given(spec=sp.SPEC, n=st.integers(1, 6), seed=st.integers(0, 3))
def test_simd_gradient_survives_its_own_text(spec, n, seed):
    """``via='lanes'`` increments and one-cell-per-lane adjoint slots
    read back as what they were."""
    module, grad = sp.gradient(spec, simd=True)
    want = {b: sp.run_gradient(module, grad, n, seed, b)
            for b in ("interp", "compiled")}
    old, new = _read_back(module, grad)
    assert ([op.attrs for op in new.walk()]
            == [op.attrs for op in old.walk()])
    assert _lowered(new, module) == _lowered(old, module)
    for backend, (shadows, out, cost, clock) in want.items():
        got = sp.run_gradient(module, grad, n, seed, backend)
        for k in sp.ARGS:
            np.testing.assert_array_equal(got[0][k], shadows[k])
        np.testing.assert_array_equal(got[1], out)
        assert got[2:] == (cost, clock)


@pytest.mark.parametrize("name", sorted(APPS))
def test_app_gradient_runs_from_its_text_alone(name, tmp_path, monkeypatch):
    """The gradient a warm process reads as text runs, on the compiled
    tier, exactly like the fresh one, and is never parsed."""
    make, threads = APPS[name]
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    want = _run(make(), threads, "compiled")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cold = make()
    _assert_same_run(_run(cold, threads, "compiled"), want)
    assert not cold.module.functions[cold.grad_fn()].text_only

    warm = make()
    fn = warm.module.functions[warm.grad_fn()]
    assert warm.gradient_cache["event"] == "hit" and fn.text_only
    _assert_same_run(_run(warm, threads, "compiled"), want)
    assert fn.text_only
    closure = print_closure(warm.module, fn.name)
    assert closure == print_closure(cold.module, cold.grad_fn())
    assert fn.text_only
    assert fn.body.ops  # built: the IR prints the closure the text stood for
    assert not fn.text_only
    assert print_closure(warm.module, fn.name) == closure
