"""The AD emitter folds and value-numbers as it emits
(``transform.FoldingBuilder``): the gradient before ``cleanup_pipeline``
is already close to the one after it, and the one after it is what it
always was.

(a) The ``post_opt=False`` gradient verifies, has at most 1.1 × the ops
    of the ``post_opt=True`` one, and computes bit-identical arrays on
    ``interp`` and ``compiled``.  Its clock and cost are *not below* the
    cleaned gradient's rather than equal to them: DCE still removes
    executed dead ops (an unused recomputed ``sin``, an unused cache
    ``alloc``), which is what ``cleanup_pipeline`` is still for.  A cache
    slot's flat index asks for no extent of its outermost loop, so no
    dead trip-count clamp is emitted per nested arm.
(b) Differential: with the plain ``IRBuilder`` patched in as the emitter
    (test-only — the product has one emission path) the post-cleanup
    text is byte-identical.
(c) ``emit`` may hand back a value other than the new op's result; a
    caller that read ``op.result`` instead would leave a use of a value
    defined nowhere.  ``verify_function`` on the raw gradient of every
    flavour and adjoint strategy catches that.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ad import (ADConfig, Const, Duplicated, autodiff,
                      autodiff_transform, transform)
from repro.apps.lulesh.driver import LuleshApp
from repro.apps.lulesh.kernels import FLAVORS
from repro.apps.minibude import MinibudeApp
from repro.apps.minibude.deck import make_deck
from repro.apps.minibude.kernels import VARIANTS
from repro.interp import ExecConfig, Executor
from repro.ir import I64, IRBuilder, Ptr, print_function, verify_function

from ..properties import simd_programs as sp
from ..properties.test_adjoint_equivalence import _time_stepped
from ..properties.test_roundtrip_properties import _STMT
from .test_gradient_roundtrip import APPS, _assert_same_run, _run

plain_emitter = mock.patch.object(transform, "FoldingBuilder", IRBuilder)


@pytest.fixture(autouse=True)
def _differentiate_every_time(monkeypatch):
    """A stored gradient would be read back, not emitted."""
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")


def _assert_close_to_clean(raw, opt, module, slack=0):
    """``slack``: ops allowed on top of the 1.1 × — the random programs
    go down to 8 ops, where one unused reversed induction variable
    (two ``isub``) is already 25 %."""
    verify_function(raw, module)
    assert opt.num_ops() <= raw.num_ops() <= 1.1 * opt.num_ops() + slack


def _assert_never_cheaper(raw_run, opt_run):
    """Same arrays bit for bit; cleanup only ever removes work."""
    for a, b in zip(raw_run[0], opt_run[0]):
        np.testing.assert_array_equal(a, b)
    assert raw_run[1] >= opt_run[1]
    assert all(raw_run[2][k] >= v for k, v in opt_run[2].items())


# ---------------------------------------------------------------------------
# The apps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(APPS))
def test_raw_app_gradient_is_nearly_clean(name):
    make, threads = APPS[name]
    raw, opt = make(), make()
    raw.ad_config.post_opt = False
    _assert_close_to_clean(raw.module.functions[raw.grad_fn()],
                           opt.module.functions[opt.grad_fn()], raw.module)
    runs = {b: _run(raw, threads, b) for b in ("interp", "compiled")}
    _assert_same_run(runs["compiled"], runs["interp"])
    _assert_never_cheaper(runs["compiled"], _run(opt, threads, "compiled"))


@pytest.mark.parametrize("name", sorted(APPS))
def test_app_gradient_text_does_not_depend_on_the_emitter(name):
    make, _ = APPS[name]
    app = make()
    text = print_function(app.module.functions[app.grad_fn()])
    with plain_emitter:
        app = make()
        assert print_function(app.module.functions[app.grad_fn()]) == text


def _every_flavour():
    deck = make_deck(4, 2, 6)
    out = {f"lulesh-{f}": (lambda f=f: LuleshApp(
        f, 2, pr=2 if FLAVORS[f].mpi else 1, compile_cache="off"))
        for f in FLAVORS}
    for f in ("serial", "openmp"):
        out[f"lulesh-{f}-checkpoint"] = lambda f=f: LuleshApp(
            f, 2, adjoint="checkpoint", compile_cache="off")
    for v in VARIANTS:
        out[f"minibude-{v}"] = lambda v=v: MinibudeApp(
            v, deck, compile_cache="off")
    return out


@pytest.mark.parametrize("name", sorted(_every_flavour()))
def test_raw_gradient_uses_only_values_it_defines(name):
    app = _every_flavour()[name]()
    app.ad_config.post_opt = False
    verify_function(app.module.functions[app.grad_fn()], app.module)


@pytest.mark.parametrize("adjoint,tag", [("checkpoint", None),
                                         ("cache-all", "checkpoint")],
                         ids=["checkpoint", "checkpoint-tag"])
def test_raw_managed_loop_gradient_verifies(adjoint, tag):
    """A checkpointed time loop, chosen globally or by its loop tag."""
    b = IRBuilder()
    with b.function("relax", [("x", Ptr()), ("theta", Ptr()),
                              ("n", I64), ("steps", I64)]) as f:
        x, theta, n, steps = f.args
        with b.for_(0, steps, name="s", adjoint=tag):
            with b.for_(0, n, name="i") as i:
                b.store(b.add(b.mul(b.load(x, i), 0.5),
                              b.load(theta, i)), x, i)
    tr = autodiff_transform(b.module, "relax",
                            [Duplicated, Duplicated, Const, Const],
                            ADConfig(post_opt=False, adjoint=adjoint))
    assert [e["loop"] for e in tr.adjoint_report["managed"]] == ["s"]
    verify_function(tr.grad, b.module)


# ---------------------------------------------------------------------------
# Random programs
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(spec=sp.SPEC, n=st.integers(1, 6), seed=st.integers(0, 3))
def test_random_simd_programs(spec, n, seed):
    module, opt = sp.gradient(spec, simd=True)
    text = print_function(module.functions[opt])
    with plain_emitter:
        plain_module, plain = sp.gradient(spec, simd=True)
    assert print_function(plain_module.functions[plain]) == text

    raw_module = sp.build(spec, simd=True)
    raw = autodiff(raw_module, "prog", sp.ACTIVITIES,
                   ADConfig(post_opt=False))
    _assert_close_to_clean(raw_module.functions[raw], module.functions[opt],
                           raw_module, slack=4)
    for backend in ("interp", "compiled"):
        shadows, out, cost, clock = sp.run_gradient(
            raw_module, raw, n, seed, backend)
        want = sp.run_gradient(module, opt, n, seed, backend)
        _assert_never_cheaper(
            ([shadows[k] for k in sp.ARGS] + [out], clock, cost),
            ([want[0][k] for k in sp.ARGS] + [want[1]], want[3], want[2]))


@settings(max_examples=20, deadline=None)
@given(stmts=st.lists(_STMT, min_size=1, max_size=3),
       xs=st.lists(st.floats(-1.2, 1.2), min_size=2, max_size=4),
       steps=st.integers(0, 5),
       adjoint=st.sampled_from(["cache-all", "checkpoint"]))
@example(stmts=[("branch", 0.0, [("branch", 0.0, [], [("trig",)])],
                 [("branch", 0.0, [], [("branch", 0.0, [], [("trig",)])])])],
         xs=[0.0, 0.0], steps=0, adjoint="cache-all")
def test_random_time_stepped_programs(stmts, xs, steps, adjoint):
    acts = [Duplicated, Const, Const]

    def gradient(**cfg):
        module = _time_stepped(stmts)
        grad = autodiff(module, "prog", acts,
                        ADConfig(adjoint=adjoint, **cfg))
        return module, module.functions[grad]

    module, opt = gradient()
    with plain_emitter:
        assert print_function(gradient()[1]) == print_function(opt)
    raw_module, raw = gradient(post_opt=False)
    _assert_close_to_clean(raw, opt, raw_module, slack=4)

    def run(module, fn, backend):
        ex = Executor(module, ExecConfig(backend=backend))
        x, dx = np.asarray(xs, dtype=float), np.ones(len(xs))
        ex.run(fn.name, x, dx, len(xs), steps)
        return [x, dx], ex.clock, ex.cost.as_dict()

    for backend in ("interp", "compiled"):
        _assert_never_cheaper(run(raw_module, raw, backend),
                              run(module, opt, backend))
