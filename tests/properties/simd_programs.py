"""Random ``simd`` programs for the vectorised-adjoint property tests.

A program is described by a JSON-able *spec* so the same program can be
rebuilt with ``simd=False`` (the scalar twin the gradient is compared
against) or in a subprocess under another ``PYTHONHASHSEED``::

    {"fork": bool,
     "terms": [[kind, param, combiner], ...]}

Every term reads something at lane ``i`` and folds it into the running
value ``v`` with ``add`` / ``mul``:

* ``x``       — ``x[i]`` again (lane-disjoint);
* ``gather``  — ``z[idx[i]]``: an indirect gather whose indices collide;
* ``stride``  — ``y[2*i + 1]`` (affine, non-unit stride);
* ``uniform`` — ``z[c]``: one cell read by every lane;
* ``inner``   — a nested serial loop of ``param`` steps accumulating
  ``a_j * v`` through a lane-local cell, with ``a_j = w[i*J + j]``
  (combiner ``"wide"``, lane-varying) or ``z[j]`` (``"flat"``,
  lane-uniform per vector statement).  ``v`` is used below its
  definition, so its adjoint lives in a slot;
* ``sin``     — ``v = sin(v)``;
* ``masked``  — ``if v > param: out[i] += v*v`` (a lane-varying branch).

The body ends with ``out[i] += v``.  With ``fork`` the loop runs as two
thread chunks inside a fork region (``i = tid*chunk + k``, guarded by
``i < n``).

``parity_fields(spec)`` names the cost counters on which the gradient
must match its scalar twin *exactly*.  The vector engine charges an op
whose operands are all lane-uniform once, not once per lane, so a
program with lane-uniform values can only be asserted "no dearer"; and
it sizes a store by its value and index, so a constant stored to a
lane-private cell (``acc[0] = 0.0``, an adjoint-slot reset) counts 8
bytes per statement rather than per lane.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.ad import Duplicated, autodiff
from repro.interp import ExecConfig, Executor
from repro.ir import I64, IRBuilder, Ptr, verify_module

NA = {"noalias": True}
M = 4           # size of the shared table z (gather targets collide)
JMAX = 3        # longest inner loop
ARGS = ("x", "y", "z", "w", "out")

_TERM = st.one_of(
    st.tuples(st.just("x"), st.just(0), st.sampled_from(["add", "mul"])),
    st.tuples(st.just("gather"), st.just(0),
              st.sampled_from(["add", "mul"])),
    st.tuples(st.just("stride"), st.just(0),
              st.sampled_from(["add", "mul"])),
    st.tuples(st.just("uniform"), st.integers(0, M - 1),
              st.sampled_from(["add", "mul"])),
    st.tuples(st.just("inner"), st.integers(1, JMAX),
              st.sampled_from(["wide", "flat"])),
    st.tuples(st.just("sin"), st.just(0), st.just("")),
    st.tuples(st.just("masked"), st.sampled_from([-0.5, 0.0, 0.5]),
              st.just("")),
)

SPEC = st.fixed_dictionaries({
    "fork": st.booleans(),
    "terms": st.lists(_TERM, min_size=1, max_size=4).map(
        lambda ts: [list(t) for t in ts]),
})


def parity_fields(spec) -> tuple:
    kinds = {(t[0], t[2]) for t in spec["terms"]}
    if any(k == "uniform" or (k, how) == ("inner", "flat")
           for k, how in kinds):
        return ()
    exact = ("flops", "load_bytes", "atomic_ops", "reduction_ops")
    if any(k in ("inner", "masked") for k, _ in kinds):
        return exact
    return exact + ("store_bytes",)


def build(spec, simd: bool):
    """Emit ``prog`` for ``spec``; returns the module."""
    b = IRBuilder()
    sig = [("x", Ptr()), ("y", Ptr()), ("z", Ptr()), ("w", Ptr()),
           ("idx", Ptr(I64)), ("out", Ptr()), ("n", I64)]
    with b.function("prog", sig, arg_attrs=[NA] * 6 + [{}]) as f:
        x, y, z, w, idx, out, n = f.args

        def body(i):
            v = b.load(x, i)
            for kind, param, how in spec["terms"]:
                if kind == "sin":
                    v = b.sin(v)
                    continue
                if kind == "masked":
                    with b.if_(b.cmp("gt", v, float(param))):
                        b.store(b.add(b.load(out, i), b.mul(v, v)), out, i)
                    continue
                if kind == "inner":
                    acc = b.alloc(1, name="acc")
                    b.store(0.0, acc, 0)
                    with b.for_(0, param, name="j") as j:
                        a = (b.load(w, b.add(b.mul(i, JMAX), j))
                             if how == "wide" else b.load(z, j))
                        b.store(b.add(b.load(acc, 0), b.mul(a, v)), acc, 0)
                    v = b.add(v, b.load(acc, 0))
                    continue
                if kind == "x":
                    u = b.load(x, i)
                elif kind == "gather":
                    u = b.load(z, b.load(idx, i))
                elif kind == "stride":
                    u = b.load(y, b.add(b.mul(i, 2), 1))
                else:
                    u = b.load(z, param)
                v = b.add(v, u) if how == "add" else b.mul(v, u)
            b.store(b.add(b.load(out, i), v), out, i)

        if spec["fork"]:
            # Two thread chunks.  The loop bounds stay function-entry
            # values (the cache planner wants static extents inside a
            # parallel region), so the tail is a lane-varying guard.
            chunk = b.idiv(b.add(n, 1), 2)
            with b.fork(2) as (tid, nth):
                with b.for_(0, chunk, simd=simd, name="k") as k:
                    i = b.add(b.mul(tid, chunk), k)
                    with b.if_(b.cmp("lt", i, n)):
                        body(i)
        else:
            with b.for_(0, n, simd=simd, name="i") as i:
                body(i)
    verify_module(b.module)
    return b.module


ACTIVITIES = [Duplicated, Duplicated, Duplicated, Duplicated, None,
              Duplicated, None]


def gradient(spec, simd: bool):
    module = build(spec, simd)
    return module, autodiff(module, "prog", ACTIVITIES)


def inputs(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "x": rng.uniform(-1.0, 1.0, n),
        "y": rng.uniform(-1.0, 1.0, 2 * n + 1),
        "z": rng.uniform(0.5, 1.5, M),
        "w": rng.uniform(-1.0, 1.0, n * JMAX + 1),
        "idx": rng.integers(0, M, n).astype(np.int64),
        "out": rng.uniform(-1.0, 1.0, n),
    }


def run_gradient(module, grad: str, n: int, seed: int,
                 backend: str = "interp"):
    """Run ``grad`` with d(out) seeded to ones; returns
    ``(shadows by name, primal out, cost dict, clock)``."""
    data = inputs(n, seed)
    shadows = {k: np.zeros_like(data[k]) for k in ARGS}
    shadows["out"][...] = 1.0
    args = []
    for k in ("x", "y", "z", "w"):
        args += [data[k], shadows[k]]
    args += [data["idx"], data["out"], shadows["out"], n]
    ex = Executor(module, ExecConfig(backend=backend, num_threads=2))
    if backend == "compiled":
        ex.interp.backend.strict = True
    ex.run(grad, *args)
    return shadows, data["out"], ex.cost.as_dict(), ex.clock
