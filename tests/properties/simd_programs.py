"""Random ``simd`` programs for the vectorised-adjoint property tests
(and, at the end of the file, for the lowering's access plans).

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
from repro.ir import I64, IRBuilder, Ptr, Task, verify_module

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


# ---------------------------------------------------------------------------
# Access-plan programs
# ---------------------------------------------------------------------------
#
# A second family, for the lowering's access plans (an address affine in
# the lane is a slice, anything else a gather).  Spec::
#
#     {"loop": "simd" | "workshare" | "reverse" | "parallel_for",
#      "lb": int, "trips": int, "step": int,
#      "accesses": [{"op": "load" | "store" | "atomic",
#                    "c0": int, "s": int, "uniform": bool, "hops": int,
#                    "masked": bool, "cell": [c, k] | None}, ...],
#      "oob": None | [access number, "lo" | "hi"],
#      "tasks": None | {"serial": [bool, ...], "order": [int, ...]}}
#
# Access ``a`` touches ``buf[base_a + c0 + s*i + (u if uniform)]`` with
# ``base_a`` chosen so that every lane is in range, the offset split
# over ``hops`` ``ptradd``s; ``s`` is 0 (every lane one cell), +-1 or
# +-k.  With ``cell`` the value takes a round trip through element ``k``
# of a lane-private ``alloc c`` first.  ``oob`` moves one access so that
# exactly its lowest lane reads ``-1`` or its highest the buffer length.
# With ``tasks`` the loop runs inside ``len(serial)`` spawned tasks
# instead, task ``k`` holding it as a plain serial ``for`` when
# ``serial[k]``; the handles go through a ``Task`` buffer and are waited
# in ``order``.

U = 3               # value of the uniform argument ``u``
SPAN = 160          # length of x and y: covers every generated address

_ACCESS = st.fixed_dictionaries({
    "op": st.sampled_from(["load", "store", "atomic"]),
    "c0": st.integers(0, 4),
    "s": st.sampled_from([0, 1, -1, 2, -2, 3, -3]),
    "uniform": st.booleans(),
    "hops": st.integers(0, 2),
    "masked": st.booleans(),
    "cell": st.one_of(st.none(), st.integers(1, 3).flatmap(
        lambda c: st.tuples(st.just(c), st.integers(0, c - 1)).map(list))),
})

PLAN_SPEC = st.fixed_dictionaries({
    "loop": st.sampled_from(["simd", "workshare", "reverse",
                             "parallel_for"]),
    "lb": st.integers(0, 3),
    "trips": st.integers(1, 9),
    "step": st.integers(1, 3),
    "accesses": st.lists(_ACCESS, min_size=1, max_size=4),
    "oob": st.one_of(st.none(), st.tuples(
        st.integers(0, 3), st.sampled_from(["lo", "hi"])).map(list)),
    "tasks": st.one_of(st.none(), st.lists(
        st.booleans(), min_size=1, max_size=3).flatmap(
        lambda serial: st.permutations(range(len(serial))).map(
            lambda order: {"serial": serial, "order": list(order)}))),
})


def _plan_ivs(spec) -> tuple:
    """(lowest, highest) induction value of the loop."""
    step = 1 if spec["loop"] == "parallel_for" else spec["step"]
    return spec["lb"], spec["lb"] + step * (spec["trips"] - 1)


def _plan_base(spec, k: int) -> int:
    """Constant placing access ``k``'s lanes inside ``[0, SPAN)`` — or,
    for the one ``oob`` names, one cell outside at that end."""
    acc = spec["accesses"][k]
    lo_iv, hi_iv = _plan_ivs(spec)
    ends = [acc["s"] * lo_iv, acc["s"] * hi_iv]
    rest = acc["c0"] + (U if acc["uniform"] else 0)
    base = 8 - min(ends) - rest
    if spec["oob"] and spec["oob"][0] % len(spec["accesses"]) == k:
        if spec["oob"][1] == "lo":
            base = -1 - min(ends) - rest
        else:
            base = SPAN - max(ends) - rest
    return base


def vector_loops(spec) -> int:
    """How many copies of the loop ``build_plan`` emits vectorised."""
    if spec["tasks"] is None:
        return 1
    return spec["tasks"]["serial"].count(False)


def build_plan(spec):
    """Emit ``plan`` for ``spec``; returns the module."""
    b = IRBuilder()
    sig = [("x", Ptr()), ("y", Ptr()), ("out", Ptr()), ("u", I64)]
    with b.function("plan", sig, arg_attrs=[NA] * 3 + [{}]) as f:
        x, y, out, u = f.args

        def address(buf, acc, k, i):
            """(pointer, index) of access ``k``: the affine offset is
            split between ``hops`` ptradds and the index operand."""
            parts = [b.mul(i, acc["s"]), _plan_base(spec, k) + acc["c0"]]
            if acc["uniform"]:
                parts.append(u)
            ptr = buf
            for _ in range(min(acc["hops"], len(parts) - 1)):
                ptr = b.ptradd(ptr, parts.pop())
            idx = parts.pop()
            for p in parts:
                idx = b.add(idx, p)
            return ptr, idx

        def body(i):
            v = b.itof(i)
            for k, acc in enumerate(spec["accesses"]):
                if acc["cell"]:
                    cell = b.alloc(acc["cell"][0], name="cell")
                    b.store(v, cell, acc["cell"][1])
                    v = b.mul(b.load(cell, acc["cell"][1]), 1.5)

                def access():
                    ptr, idx = address(x if acc["op"] == "load" else y,
                                       acc, k, i)
                    if acc["op"] == "load":
                        return b.add(v, b.load(ptr, idx))
                    if acc["op"] == "store":
                        b.store(b.add(v, 1.0), ptr, idx)
                    else:
                        b.atomic_add(v, ptr, idx)
                    return v

                if acc["masked"]:
                    # Loads under a mask would need a phi; only their
                    # side effect (the bounds check) matters here.
                    with b.if_(b.cmp("gt", v, 2.5)):
                        access()
                else:
                    v = access()
            b.store(v, out, i)

        def loop(serial=False):
            lo, hi = _plan_ivs(spec)
            step = 1 if spec["loop"] == "parallel_for" else spec["step"]
            if serial:
                with b.for_(lo, hi + 1, step) as i:
                    body(i)
            elif spec["loop"] == "parallel_for":
                with b.parallel_for(lo, hi + 1) as i:
                    body(i)
            elif spec["loop"] == "simd":
                with b.for_(lo, hi + 1, step, simd=True) as i:
                    body(i)
            else:
                with b.fork(2):
                    with b.workshare(lo, hi + 1, step) as i:
                        if spec["loop"] == "reverse":
                            i.owner.attrs["reverse_order"] = True
                        body(i)

        tasks = spec["tasks"]
        if tasks is None:
            loop()
        else:
            handles = b.alloc(len(tasks["serial"]), Task, name="tasks")
            for k, serial in enumerate(tasks["serial"]):
                with b.spawn() as t:
                    loop(serial)
                b.store(t, handles, k)
            for k in tasks["order"]:
                b.wait_task(b.load(handles, k))
    verify_module(b.module)
    return b.module


def run_plan(module, backend: str):
    """Run ``plan``; returns ``(x, y, out, clock, cost dict, error)``
    with ``error`` the ``(type, message)`` of the exception, if any."""
    import re
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-1.0, 1.0, SPAN), rng.uniform(-1.0, 1.0, SPAN)
    out = np.zeros(64)
    ex = Executor(module, ExecConfig(backend=backend, num_threads=2))
    if backend != "interp":
        ex.interp.backend.strict = True
    error = None
    try:
        ex.run("plan", x, y, out, U)
    except Exception as e:  # noqa: BLE001 - compared across tiers
        # Buffer ids differ between executors; normalise them out.
        error = (type(e), re.sub(r"#\d+", "#N", str(e)))
    return x, y, out, ex.clock, ex.cost.as_dict(), error
