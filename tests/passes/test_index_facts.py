"""One index-fact source: the shared facts against the walkers they
replaced.

``IntervalAnalysis.index_strides`` (read through
``repro.ad.tls.classify_index``) and ``IntervalAnalysis.variance`` took
over from three private walkers: the thread-level ``_index_form`` /
``classify_index`` and the lane-level ``classify_lane_index`` of
``repro.ad.tls``, and the race lint's ``_lane_varying``.  Reference
copies of those are kept *here* and compared with the shared facts on
every access of the round-trip apps and of random ``simd`` programs, at
AD time (the increment rule) and at lint time.  The shared facts may
differ only where they are more exact:

* a serial loop that *encloses* the region is the same for every
  instance of it (the old walker called every serial ivar "inner", so a
  cache-slot store ``t*n + i`` inside a fork read as unknown);
* ``ineg`` is affine, and an index has no depth cutoff.

The lane variance may call a gather lane-varying where the old walker
said "unknown", never where the lint's lane verdict depends on it.

Bounds verdicts get the same treatment: a reference copy of the
provenance-only extents, offsets and ``below=`` ranges that the
stored-value fact (``AliasInfo.stored_value``) extended is run beside
the shared analysis on every LULESH and miniBUDE flavour; per site, no
proof is lost, and only the flavours that pass captured pointers
through closure records gain any.
"""

from __future__ import annotations

from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.ad import Duplicated, autodiff, transform
from repro.ad.tls import classify_index, lane_loop, parallel_context
from repro.apps.lulesh.driver import LuleshApp
from repro.apps.minibude import MinibudeApp
from repro.apps.minibude.deck import make_deck
from repro.interp import ExecConfig, Executor
from repro.ir import I64, IRBuilder, Ptr, verify_module
from repro.ir.function import IntrinsicInfo
from repro.ir.opinfo import OP_INFO
from repro.ir.values import Argument, BlockArg, Constant, Result, Value
from repro.passes.intervals import Affine, IntervalAnalysis, inside
from repro.sanitize import lint_function

from ..ad.test_gradient_roundtrip import APPS
from ..properties import simd_programs as sp

NA = {"noalias": True}


# ---------------------------------------------------------------------------
# Reference copies of the replaced walkers (verbatim)
# ---------------------------------------------------------------------------

def _index_form(v: Value, par_ivars: set[Value], depth: int = 0,
                uniform=None) -> Optional[dict]:
    """Describe integer expression ``v`` as strides over parallel ivars.

    Returns ``{ivar: stride, ..., "_inner": bool}`` or None for unknown.
    ``uniform`` is an optional predicate naming further leaves that are
    the same for every instance of the ivars (the lane analysis passes
    "defined outside the vectorised loop").
    """
    if depth > 24:
        return None
    if isinstance(v, Constant):
        return {"_inner": False}
    if v in par_ivars:
        return {v: 1, "_inner": False}
    if uniform is not None and uniform(v):
        return {"_inner": False}
    if isinstance(v, BlockArg):
        owner = v.owner
        if owner is not None and owner.opcode in ("for", "while"):
            # A serial induction variable: uniform across parallel
            # iterations at each serial step, but varying per step.
            return {"_inner": True}
        if owner is not None and owner.opcode == "fork" and v.index == 1:
            return {"_inner": False}  # nthreads is uniform
        return None
    if isinstance(v, Result):
        op = v.op
        oc = op.opcode
        if oc == "iadd" or oc == "isub":
            a = _index_form(op.operands[0], par_ivars, depth + 1, uniform)
            b = _index_form(op.operands[1], par_ivars, depth + 1, uniform)
            if a is None or b is None:
                return None
            out = {"_inner": a["_inner"] or b["_inner"]}
            sign = 1 if oc == "iadd" else -1
            for k in set(a) | set(b):
                if k == "_inner":
                    continue
                out[k] = a.get(k, 0) + sign * b.get(k, 0)
            return out
        if oc == "imul":
            a = _index_form(op.operands[0], par_ivars, depth + 1, uniform)
            b = _index_form(op.operands[1], par_ivars, depth + 1, uniform)
            if a is None or b is None:
                return None
            a_const = isinstance(op.operands[0], Constant)
            b_const = isinstance(op.operands[1], Constant)
            if b_const:
                c = op.operands[1].value
                out = {"_inner": a["_inner"]}
                for k, s in a.items():
                    if k != "_inner":
                        out[k] = s * c
                return out
            if a_const:
                c = op.operands[0].value
                out = {"_inner": b["_inner"]}
                for k, s in b.items():
                    if k != "_inner":
                        out[k] = s * c
                return out
            if uniform is not None and len(a) == 1 and len(b) == 1:
                # Lane analysis only: a product of lane-uniform factors
                # (``tid * n`` recomputed inside the loop) is uniform.
                return {"_inner": a["_inner"] or b["_inner"]}
            return None
    # Function arguments and other scalars: uniform.
    if isinstance(v, Argument):
        return {"_inner": False}
    return None


def ref_classify_index(idx: Value, par_ivars: list[Value]) -> str:
    form = _index_form(idx, set(par_ivars))
    if form is None:
        return "unknown"
    strides = {k: s for k, s in form.items() if k != "_inner" and s != 0}
    if not strides:
        return "uniform"
    if len(strides) == 1 and not form["_inner"]:
        return "disjoint"
    return "unknown"


def ref_classify_lane_index(idx: Value, lane) -> str:
    ivar = lane.body.args[0]

    def outside(v: Value) -> bool:
        owner = v.owner if isinstance(v, BlockArg) else getattr(v, "op", None)
        return owner is None or not (owner is lane
                                     or _alloc_inside(owner, lane))

    form = _index_form(idx, {ivar}, uniform=outside)
    if form is None:
        return "unknown"
    return "disjoint" if form.get(ivar, 0) != 0 else "uniform"


def _alloc_inside(alloc_op, region_op) -> bool:
    """Is ``alloc_op`` lexically inside ``region_op``'s regions?"""
    blk = alloc_op.parent
    while blk is not None:
        owner = blk.parent_op
        if owner is region_op:
            return True
        blk = owner.parent if owner is not None else None
    return False


def ref_lane_varying(v: Value, lane, aliasing, memo: dict) -> Optional[bool]:
    """Does ``v`` differ between the lanes of the vectorised loop
    ``lane``?  True / False when provable, None otherwise."""
    if v is lane.body.args[0]:
        return True
    if not isinstance(v, Result) or not _alloc_inside(v.op, lane):
        return False            # constants, arguments, outer values, ivars
    if v in memo:
        return memo[v]
    op = v.op
    out: Optional[bool]
    if op.opcode == "load":
        ptr, idx = op.operands
        alloc = aliasing.points_to_single_alloc(ptr)
        if alloc is not None and _alloc_inside(alloc, lane):
            out = True          # lane-privatised buffer
        else:
            cls = ref_classify_lane_index(idx, lane)
            out = True if cls == "disjoint" else (
                ref_lane_varying(ptr, lane, aliasing, memo)
                if cls == "uniform" else None)
    elif (op.opcode in OP_INFO or op.opcode == "ptradd"
          or (op.opcode == "call"
              and op.attrs.get("callee") == "jl.arrayptr")):
        out = False
        for o in op.operands:
            x = ref_lane_varying(o, lane, aliasing, memo)
            if x:
                out = True
                break
            if x is None:
                out = None
    else:
        out = None              # calls, allocs, cache pops
    memo[v] = out
    return out


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------

def _more_exact(idx: Value, region) -> bool:
    """Does ``idx`` reach what the old walker could not see through: the
    ivar of a serial loop enclosing ``region``, an ``ineg``, or a chain
    deeper than its cutoff?"""
    stack = [(idx, 0)]
    while stack:
        v, depth = stack.pop()
        if depth > 24:
            return True
        if isinstance(v, BlockArg):
            if v.owner.opcode in ("for", "while") and inside(region, v.owner):
                return True
        elif isinstance(v, Result) and v.op.opcode in (
                "iadd", "isub", "imul", "ineg"):
            if v.op.opcode == "ineg":
                return True
            stack.extend((o, depth + 1) for o in v.op.operands)
    return False


def _agree(old: str, new: str, idx: Value, region) -> int:
    """0 when the classifications agree, 1 for an allowed refinement."""
    if old == new:
        return 0
    assert old == "unknown", (old, new)
    assert _more_exact(idx, region), (old, new, idx)
    return 1


def _lint_side(fn, module) -> dict:
    """Every access of ``fn`` as the race lint classifies it, old against
    new; returns the number of refinements per level."""
    facts = IntervalAnalysis(fn, module)
    changed = {"thread": 0, "lane": 0, "variance": 0}
    for op in fn.walk():
        if op.opcode not in ("load", "store", "atomic"):
            continue
        ptr, idx = ((op.operands[0], op.operands[1]) if op.opcode == "load"
                    else (op.operands[1], op.operands[2]))
        region, ivars = parallel_context(op)
        if region is not None:
            changed["thread"] += _agree(
                ref_classify_index(idx, ivars),
                classify_index(facts, idx, ivars, region), idx, region)
        lane = lane_loop(op)
        if lane is None:
            continue
        lanes = [lane.body.args[0]]
        cls = classify_index(facts, idx, lanes, lane)
        changed["lane"] += _agree(ref_classify_lane_index(idx, lane), cls,
                                  idx, lane)
        if op.opcode != "store":
            continue
        val = op.operands[0]
        old = ref_lane_varying(val, lane, facts.aliasing, {})
        new = facts.variance(val)
        if old != new:
            # A gather the lowering vectorises; the lane rule then decides
            # on the index alone (only a uniform index reads the value).
            assert (old, new) == (None, True), (old, new, val)
            assert cls != "uniform"
            changed["variance"] += 1
    return changed


class _AdCalls:
    """Wraps the AD transform's increment rules, comparing each call's
    classification with the old walker's."""

    def __init__(self) -> None:
        self.calls = self.changed = 0
        self._inc, self._lane = transform.increment_kind, transform.lane_kind

    def increment_kind(self, ptr, idx, ivars, facts, region, **kw):
        if region is not None:
            self.calls += 1
            self.changed += _agree(ref_classify_index(idx, ivars),
                                   classify_index(facts, idx, ivars, region),
                                   idx, region)
        return self._inc(ptr, idx, ivars, facts, region, **kw)

    def lane_kind(self, ptr, idx, lane, facts):
        self.calls += 1
        self.changed += _agree(
            ref_classify_lane_index(idx, lane),
            classify_index(facts, idx, [lane.body.args[0]], lane), idx, lane)
        return self._lane(ptr, idx, lane, facts)

    def __enter__(self) -> "_AdCalls":
        self._patch = mock.patch.multiple(
            transform, increment_kind=self.increment_kind,
            lane_kind=self.lane_kind)
        self._patch.start()
        return self

    def __exit__(self, *exc) -> None:
        self._patch.stop()


@pytest.mark.parametrize("name", sorted(APPS))
def test_app_index_facts_match_the_old_walkers(name):
    make, _threads = APPS[name]
    app = make()
    with _AdCalls() as ad:
        grad = app.grad_fn()
    # No increment the transform chose moved: the gradient text is the
    # parent's (EXPERIMENTS.md has the digests).
    assert ad.calls > 0
    assert ad.changed == 0
    changed = {"thread": 0, "lane": 0, "variance": 0}
    for fn in (app.module.functions[app.fn], app.module.functions[grad]):
        for level, n in _lint_side(fn, app.module).items():
            changed[level] += n
    assert changed["lane"] == 0
    if name == "lulesh-openmp":
        # The cache-slot stores inside the fork, under the time loop.
        assert changed["thread"] > 0
    if name in ("lulesh-serial", "lulesh-mpi", "lulesh-checkpoint"):
        assert changed["thread"] == 0       # no thread-parallel region


@settings(max_examples=25, deadline=None)
@given(spec=sp.SPEC)
def test_simd_program_index_facts_match_the_old_walkers(spec):
    module = sp.build(spec, simd=True)
    with _AdCalls() as ad:
        grad = autodiff(module, "prog", sp.ACTIVITIES)
    assert ad.changed == 0
    for name in ("prog", grad):
        _lint_side(module.functions[name], module)


@settings(max_examples=40, deadline=None)
@given(spec=sp.PLAN_SPEC)
def test_plan_program_index_facts_match_the_old_walkers(spec):
    module = sp.build_plan(spec)
    _lint_side(module.functions["plan"], module)


# ---------------------------------------------------------------------------
# Where the shared facts are more exact
# ---------------------------------------------------------------------------

def _reversed_square():
    """``y[i] = x[n-1-i]**2`` over a ``parallel_for``, the reversed index
    spelled with an ``ineg``."""
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("y", Ptr()), ("n", I64)],
                    arg_attrs=[NA, NA, {}]) as f:
        x, y, n = f.args
        with b.parallel_for(0, n) as i:
            j = b.add(b.neg(i), b.sub(n, 1))
            v = b.load(x, j)
            b.store(v * v, y, i)
    verify_module(b.module)
    return b.module


def test_ineg_index_increment_is_serial_and_race_free():
    module = _reversed_square()
    (load,) = [op for op in module.functions["f"].walk()
               if op.opcode == "load"]
    region, ivars = parallel_context(load)
    idx = load.operands[1]
    assert ref_classify_index(idx, ivars) == "unknown"      # was atomic
    assert classify_index(IntervalAnalysis(module.functions["f"], module),
                          idx, ivars, region) == "disjoint"
    grad = autodiff(module, "f", [Duplicated, Duplicated, None])
    gfn = module.functions[grad]
    assert not [op for op in gfn.walk() if op.opcode == "atomic"]
    assert lint_function(gfn, module).clean
    n = 7
    x = np.linspace(0.5, 2.0, n)
    w = np.linspace(-1.0, 1.0, n)       # d(sum(w * y)) / dx
    dx = np.zeros(n)
    ex = Executor(module, ExecConfig(num_threads=4, sanitize=True))
    ex.run(grad, x.copy(), dx, np.zeros(n), w.copy(), n)
    assert ex.races == []

    def loss(xv):
        y = np.zeros(n)
        Executor(module).run("f", xv, y, n)
        return float(w @ y)

    h = 1e-6
    fd = [(loss(x + h * e) - loss(x - h * e)) / (2 * h) for e in np.eye(n)]
    np.testing.assert_allclose(dx, fd, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# The lane variance, one definition
# ---------------------------------------------------------------------------

_COUNT = IntrinsicInfo("ext.count", [], I64, effects="any")


def test_variance_rules():
    b = IRBuilder()
    b.module.register_intrinsic(_COUNT)
    probe = {}
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        probe["top_call"] = b.call("ext.count")
        with b.for_(0, n, simd=True, name="i") as i:
            probe["ivar"] = i
            probe["call"] = b.call("ext.count")
            probe["pure_call"] = b.call("rt.num_threads")
            probe["alloc"] = b.alloc(2)
            probe["pure_of_lanes"] = b.call("rt.buflen", probe["alloc"])
            probe["scalar"] = b.load(x, 0)
            probe["gather"] = b.load(x, b.ftoi(b.load(x, i)))
            probe["mixed"] = b.add(probe["scalar"], probe["call"])
            probe["pure_mixed"] = b.add(probe["scalar"], probe["pure_call"])
            with b.for_(0, n, simd=True, name="j") as j:
                probe["inner"] = j           # nested simd: serial
        with b.parallel_for(0, n) as p:
            probe["pfor"] = p
    facts = IntervalAnalysis(b.module.functions["f"], b.module)
    got = {k: facts.variance(v) for k, v in probe.items()}
    assert got == {"top_call": False, "ivar": True, "call": None,
                   "pure_call": False, "alloc": True,
                   "pure_of_lanes": None, "scalar": False, "gather": True,
                   "mixed": None, "pure_mixed": False, "inner": False,
                   "pfor": True}


# ---------------------------------------------------------------------------
# Bounds verdicts: the stored-value fact only adds proofs
# ---------------------------------------------------------------------------

class _ProvenanceOnly(IntervalAnalysis):
    """Bounds certification as it was before the stored-value fact and
    the product rule: extents, offsets and ``below=`` read off the
    origin-level provenance alone (verbatim)."""

    def row_major(self, addr, ext):
        return False

    def ptr_offset(self, ptr):
        root, off = self.ptr_root(ptr)
        if isinstance(root, Argument) or (
                isinstance(root, Result) and root.op.opcode == "alloc"):
            return off
        return None

    def _below(self, ptr):
        prov = self.aliasing.provenance(ptr)
        if len(prov) != 1:
            return None
        (origin,) = prov
        below = origin[1].attrs.get("below") if origin[0] == "arg" else None
        if isinstance(below, int) and self.aliasing.is_readonly(ptr):
            return below
        return None

    def extent_of(self, ptr):
        prov = self.aliasing.provenance(ptr)
        if len(prov) != 1:
            return None, "pointer has multiple or unknown origins"
        (origin,) = prov
        kind = origin[0]
        if kind == "alloc":
            alloc_op = origin[1]
            return self.affine_of(alloc_op.operands[0]), ""
        if kind == "arg":
            arg = origin[1]
            ext = arg.attrs.get("extent")
            if isinstance(ext, int) and not isinstance(ext, bool):
                return Affine(ext), ""
            return None, (f"argument {arg.name!r} declares no extent")
        return None, "pointer origin is unknown"


#: The flavours that pass captured pointers through closure records.
_RECORDS = {"openmp", "raja", "hybrid", "raja_mpi", "minibude-openmp"}
_FLAVOURS = ["serial", "openmp", "raja", "julia", "mpi", "hybrid",
             "raja_mpi", "julia_mpi", "minibude-serial", "minibude-openmp"]


def _reloads_a_cell(facts, op):
    """``op`` goes through a pointer reloaded from where a loop stored a
    constant-count ``alloc`` of its own (the per-step cell a LULESH
    gradient keeps in a pointer array)."""
    root, _, through = facts.origin(
        op.operands[0] if op.opcode == "load" else op.operands[1])
    return (through and isinstance(root, Result)
            and root.op.opcode == "alloc"
            and root.op.parent is not facts.fn.body)


@pytest.mark.parametrize("flavour", _FLAVOURS)
def test_stored_value_fact_only_adds_proofs(flavour):
    """Per site, primal and gradient: nothing the provenance proved goes
    unproven; only the closure-record flavours gain proofs, apart from
    the LULESH gradients' per-step cells."""
    if flavour.startswith("minibude"):
        app = MinibudeApp(flavour.split("-")[1], make_deck(4, 2, 6))
    else:
        pr = 2 if "mpi" in flavour or flavour == "hybrid" else 1
        app = LuleshApp(flavour, 2, pr=pr)
    for name in (app.fn, app.grad_fn()):
        fn = app.module.functions[name]
        new = IntervalAnalysis(fn, app.module).run()
        old = _ProvenanceOnly(fn, app.module).run()
        assert list(new.access) == list(old.access)
        lost = [op for op in old.access if old.proven(op)
                and not new.proven(op)]
        gained = [op for op in old.access if new.proven(op)
                  and not old.proven(op)]
        assert not lost, (name, len(lost))
        cells = [op for op in gained if _reloads_a_cell(new, op)]
        assert bool(cells) == (name != app.fn
                               and not flavour.startswith("minibude"))
        assert (len(gained) > len(cells)) == (flavour in _RECORDS), (
            name, len(gained))
