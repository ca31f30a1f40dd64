"""Same answer, less work (issue 22).

Each cheaper algorithm in ``repro.passes`` against a reference copy of
the one it replaced, kept *here*: repeat-``_round`` DCE, the exhaustive
pass driver, the unconditional ``fold_op`` / ``value_key``, and the eager
six-bound access classification.  Compared on printed IR, on the pass
statistics, on verdicts and on finding text.
"""

from __future__ import annotations

import copy
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.ad import ADConfig, Const, Duplicated, autodiff
from repro.ir import (F64, I1, I64, Function, IRBuilder, Module, Ptr,
                      print_function, verify_module)
from repro.ir.intrinsics import REMOVABLE_INTRINSICS, RECOMPUTABLE_INTRINSICS
from repro.ir.opinfo import OP_INFO
from repro.ir.ops import CallOp, ComputeOp, LoadOp, PtrAddOp, StoreOp
from repro.ir.values import Argument, Constant
from repro.passes import (DCE, PassManager, certify_bounds, cleanup_pipeline,
                          default_pipeline)
from repro.passes.constfold import _CMP, _const, _is_const, fold_op
from repro.passes.cse import value_key
from repro.passes.intervals import (_FUEL, OOB, PROVEN, UNPROVEN,
                                    AccessFact, IntervalAnalysis)
from repro.passes.pass_manager import FunctionPass

from ..ad.test_gradient_roundtrip import APPS
from ..properties import simd_programs as sp
from ..properties.test_adjoint_equivalence import _time_stepped
from ..properties.test_bounds_certification import _build as _affine_program
from ..properties.test_bounds_certification import _programs
from ..properties.test_roundtrip_properties import _STMT


def _twin(fn: Function) -> Function:
    """An unregistered deep copy under the same name (so it prints the
    same text for the same IR)."""
    dst = Function(fn.name, [(a.name, a.type) for a in fn.args],
                   fn.ret_type, [dict(a.attrs) for a in fn.args])
    dst.attrs = dict(fn.attrs)
    vmap = dict(zip(fn.args, dst.args))
    for op in fn.body.ops:
        dst.body.append(op.clone(vmap))
    return dst


def _random_functions(stmts, spec):
    """Primal and raw (no cleanup) gradient of a random time-stepped
    program and of a random ``simd`` program."""
    m1 = _time_stepped(stmts)
    g1 = autodiff(m1, "prog", [Duplicated, Const, Const],
                  ADConfig(post_opt=False))
    m2 = sp.build(spec, simd=True)
    g2 = autodiff(m2, "prog", sp.ACTIVITIES, ADConfig(post_opt=False))
    return [(m1.functions["prog"], m1), (m1.functions[g1], m1),
            (m2.functions["prog"], m2), (m2.functions[g2], m2)]


# ---------------------------------------------------------------------------
# One home for the pure-intrinsic sets
# ---------------------------------------------------------------------------

def test_pure_intrinsic_sets_name_registered_pure_intrinsics():
    registry = Module().intrinsics
    assert RECOMPUTABLE_INTRINSICS <= REMOVABLE_INTRINSICS
    for name in REMOVABLE_INTRINSICS:
        assert registry[name].effects == "pure", name
    # the asymmetry ROADMAP item 3 records: registered pure, in neither
    # set / only removable
    assert registry["rt.buflen"].effects == "pure"
    assert "rt.buflen" not in REMOVABLE_INTRINSICS
    assert "jl.arrayptr" not in RECOMPUTABLE_INTRINSICS


# ---------------------------------------------------------------------------
# (a) DCE: worklist == repeated whole-function rounds
# ---------------------------------------------------------------------------

def _dce_rounds(fn: Function) -> bool:
    """The old ``DCE.run``: ``_round`` until one removes nothing."""
    def _round() -> bool:
        used = set()
        for op in fn.walk():
            used.update(op.operands)

        def removable(op) -> bool:
            if op.result is not None and op.result in used:
                return False
            oc = op.opcode
            if oc in OP_INFO:
                return True
            if oc in ("ptradd", "load", "alloc", "cache_create"):
                return op.result is not None
            if oc == "call":
                return op.attrs["callee"] in REMOVABLE_INTRINSICS
            if oc == "if":
                return not op.regions[0].ops and not op.regions[1].ops
            if oc in ("for", "parallel_for"):
                return not op.regions[0].ops
            return False

        changed = False
        for op in list(fn.walk()):
            if op.parent is None:
                continue
            if removable(op):
                op.parent.remove(op)
                changed = True
        return changed

    changed = False
    while _round():
        changed = True
    return changed


def _shuffle(fn: Function, seed: int) -> None:
    """Permute every block's op list: uses before definitions, which no
    verified function has and the old rounds did not care about."""
    rng = random.Random(seed)
    for block in [fn.body] + [r for op in fn.walk() for r in op.regions]:
        rng.shuffle(block.ops)


def _assert_dce_agrees(fn: Function, module: Module, edit=None) -> str:
    """``edit`` reorders the two copies alike before they are run."""
    new, old = _twin(fn), _twin(fn)
    if edit is not None:
        edit(new)
        edit(old)
    assert DCE().run(new, module) == _dce_rounds(old)
    text = print_function(new)
    assert text == print_function(old)
    assert not DCE().run(new, module)       # a fix-point, in one run
    return text


#: A nest: dead leaves, live leaves, and region ops around lists of
#: nests — removing a dead body empties the region that held it.
_NEST = st.deferred(lambda: st.one_of(
    st.sampled_from(["dead", "dead-chain", "dead-call", "dead-alloc",
                     "live", "live-use"]),
    st.tuples(st.sampled_from(["if", "for", "parallel_for", "fork"]),
              st.lists(_NEST, max_size=3), st.lists(_NEST, max_size=2)),
))


def _emit_nest(b, nests, x, at, parallel=False):
    for nest in nests:
        if nest == "dead":
            b.load(x, at)
        elif nest == "dead-chain":      # dies back to front
            v = b.load(b.ptradd(x, 1), at)
            b.sin(b.add(b.mul(v, v), 2.0))
        elif nest == "dead-call":
            b.add(b.call("rt.num_threads"), 1)
        elif nest == "dead-alloc":
            b.alloc(4)
        elif nest == "live":
            b.store(1.0, x, at)
        elif nest == "live-use":
            b.store(b.mul(b.load(x, at), 2.0), x, at)
        else:
            kind, body, orelse = nest
            if kind in ("parallel_for", "fork") and parallel:
                kind = "for"
            if kind == "if":
                with b.if_(b.cmp("lt", at, 2)):
                    _emit_nest(b, body, x, at, parallel)
                with b.else_():
                    _emit_nest(b, orelse, x, at, parallel)
            elif kind == "for":
                with b.for_(0, 3) as i:
                    _emit_nest(b, body, x, i, parallel)
            elif kind == "parallel_for":
                with b.parallel_for(0, 3) as i:
                    _emit_nest(b, body, x, i, True)
            else:
                with b.fork(2) as (tid, _nth):
                    _emit_nest(b, body, x, tid, True)


def _nest_function(nests):
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        _emit_nest(b, nests, x, n)
    verify_module(b.module)
    return b.module.functions["f"], b.module


@settings(max_examples=60, deadline=None)
@given(nests=st.lists(_NEST, min_size=1, max_size=4),
       shuffle=st.none() | st.integers(0, 99))
def test_dce_worklist_equals_rounds_on_nests(nests, shuffle):
    """In program order one sweep from the back is already the
    fix-point (definitions dominate uses, a region op precedes its
    body); shuffled, it is the re-queued ops that get there."""
    _assert_dce_agrees(*_nest_function(nests), edit=None if shuffle is None
                       else lambda fn: _shuffle(fn, shuffle))


def test_dce_removes_the_regions_a_dead_body_empties():
    dead = ("if", ["dead-chain"], [("for", ["dead"], [])])
    fn, module = _nest_function([
        ("for", [dead, ("parallel_for", [dead], [])], []),
        ("fork", [dead], []),       # a fork is never removed
        "live",
    ])
    text = _assert_dce_agrees(fn, module)
    assert [line.split()[0] for line in text.splitlines()[1:-1]] == [
        "fork(2)", "}", "store", "return"]


def test_dce_requeues_the_region_a_late_removal_empties():
    """No verified function looks like this (a value used outside and
    ahead of the loop that defines it), and the rounds did not mind: the
    loop is examined, kept, and emptied afterwards."""
    b = IRBuilder()
    with b.function("f", [("x", Ptr())]) as f:
        with b.for_(0, 3) as i:
            v = b.load(f.args[0], i)
        b.sin(v)
    text = _assert_dce_agrees(
        b.module.functions["f"], b.module,      # sin, for, return
        edit=lambda fn: fn.body.ops.insert(0, fn.body.ops.pop(1)))
    assert "for" not in text and "sin" not in text


@settings(max_examples=15, deadline=None)
@given(stmts=st.lists(_STMT, min_size=1, max_size=3), spec=sp.SPEC)
def test_dce_worklist_equals_rounds_on_random_programs(stmts, spec):
    for fn, module in _random_functions(stmts, spec):
        _assert_dce_agrees(fn, module)


# ---------------------------------------------------------------------------
# (b) PassManager: clean-skipping == the exhaustive driver
# ---------------------------------------------------------------------------

def _exhaustive(passes, fn, module, max_rounds=4):
    """The old ``PassManager.run_function``: every pass, every round,
    until a whole round changes nothing.  Returns (changed, stats,
    executions)."""
    stats: dict[str, int] = {}
    executions = 0
    changed_any = False
    for _ in range(max_rounds):
        changed = False
        for p in passes:
            executions += 1
            if p.run(fn, module):
                changed = True
                stats[p.name] = stats.get(p.name, 0) + 1
        changed_any |= changed
        if not changed:
            break
    return changed_any, stats, executions


def _assert_manager_agrees(pm: PassManager, fn, module,
                           run=PassManager.run_function) -> None:
    """Run ``pm`` on ``fn`` in place and the exhaustive driver on a twin
    with copies of the same passes."""
    twin = _twin(fn)
    want = _exhaustive(copy.deepcopy(pm.passes), twin, module, pm.max_rounds)
    before = dict(pm.stats)
    changed = run(pm, fn, module)
    assert print_function(fn) == print_function(twin)
    stats = {k: v - before.get(k, 0) for k, v in pm.stats.items()
             if v - before.get(k, 0)}
    assert (changed, stats) == want[:2]
    assert sum(pm.runs.values()) <= want[2]
    assert all(pm.runs[name] >= n for name, n in pm.stats.items())


@settings(max_examples=15, deadline=None)
@given(stmts=st.lists(_STMT, min_size=1, max_size=3), spec=sp.SPEC,
       openmp_opt=st.booleans())
def test_clean_skipping_equals_exhaustive_on_random_programs(
        stmts, spec, openmp_opt):
    for fn, module in _random_functions(stmts, spec):
        for pm in (default_pipeline(openmp_opt=openmp_opt),
                   cleanup_pipeline(verify_each=True)):
            _assert_manager_agrees(pm, _twin(fn), module)


@pytest.mark.parametrize("name", sorted(APPS))
def test_clean_skipping_equals_exhaustive_inside_autodiff(name):
    """Every pipeline the real transform runs (pre-AD on the inlined
    primal, cleanup on the raw gradient), shadowed by the exhaustive
    driver."""
    executions, changed = [], []
    real = PassManager.run_function

    def shadowed(self, fn, module):
        _assert_manager_agrees(self, fn, module, run=real)
        executions.append(sum(self.runs.values()))
        changed.append(dict(self.stats))

    with mock.patch.object(PassManager, "run_function", shadowed):
        APPS[name][0]().grad_fn()
    assert len(executions) == 2
    if name == "lulesh-openmp":
        # 16 and 8 before clean-skipping; cleanup's 7 fell to one clean
        # sweep once the emitter stopped leaving dead extent clamps
        assert executions == [8, 4]
    if name == "lulesh-mpi":
        # LICM hoists there, so Simplify and LICM look again
        assert executions == [10, 7]
    if name in ("lulesh-openmp", "lulesh-mpi"):
        assert changed[0]   # the pre-AD pipeline did remove work


class _Probe(FunctionPass):
    name = "probe"

    def __init__(self, tag, log, changes=0):
        self.tag, self.log, self.changes = tag, log, changes

    def run(self, fn, module):
        self.log.append(self.tag)
        self.changes -= 1
        return self.changes >= 0


def test_cleanliness_is_per_class_and_constructor_arguments():
    fn, module = _nest_function(["live"])
    log: list = []
    pm = PassManager([_Probe("a", log), _Probe("a", log), _Probe("b", log),
                      DCE(), DCE()])
    assert not pm.run_function(fn, module)
    # the second "a" and the second DCE are the first ones over again;
    # "b" is its own pass though it is the same class
    assert log == ["a", "b"]
    assert pm.runs == {"probe": 2, "dce": 1} and pm.stats == {}


def test_a_change_makes_every_pass_dirty_again():
    fn, module = _nest_function(["live"])
    log: list = []
    pm = PassManager([_Probe("a", log), _Probe("b", log, changes=1),
                      _Probe("c", log)])
    assert pm.run_function(fn, module)
    # round 1: a clean, b changes (a dirty again), c clean;
    # round 2: a, b run clean, c is still clean -> stop
    assert log == ["a", "b", "c", "a", "b"]
    assert pm.stats == {"probe": 1} and pm.runs == {"probe": 5}


def test_max_rounds_still_bounds_a_pass_that_never_settles():
    fn, module = _nest_function(["live"])
    log: list = []
    pm = PassManager([_Probe("a", log, changes=99)], max_rounds=3)
    assert pm.run_function(fn, module)
    assert log == ["a"] * 3


# ---------------------------------------------------------------------------
# (c) fold_op / value_key: early exits == the unconditional versions
# ---------------------------------------------------------------------------

def _fold_ref(op):
    """The old ``fold_op``: table lookup and all-constant scan first."""
    oc = op.opcode
    info = OP_INFO.get(oc)
    if info is None:
        return None
    ops_ = op.operands
    if all(isinstance(v, Constant) for v in ops_):
        if oc == "cmp":
            return _const(_CMP[op.attrs["pred"]](ops_[0].value,
                                                 ops_[1].value))
        if info.evaluate is None:
            return None
        if oc == "select":
            return ops_[1] if ops_[0].value else ops_[2]
        try:
            return _const(info.evaluate(*[v.value for v in ops_]))
        except (ZeroDivisionError, FloatingPointError, ValueError):
            return None
    if oc in ("add", "iadd"):
        if _is_const(ops_[0], 0) or _is_const(ops_[0], 0.0):
            return ops_[1]
        if _is_const(ops_[1], 0) or _is_const(ops_[1], 0.0):
            return ops_[0]
    elif oc in ("sub", "isub"):
        if _is_const(ops_[1], 0) or _is_const(ops_[1], 0.0):
            return ops_[0]
    elif oc in ("mul", "imul"):
        for a, b in ((0, 1), (1, 0)):
            if _is_const(ops_[a], 1) or _is_const(ops_[a], 1.0):
                return ops_[b]
            if _is_const(ops_[a], 0) or _is_const(ops_[a], 0.0):
                return Constant(0, I64) if oc == "imul" else \
                    Constant(0.0, F64)
    elif oc in ("div", "idiv"):
        if _is_const(ops_[1], 1) or _is_const(ops_[1], 1.0):
            return ops_[0]
    elif oc == "select":
        if isinstance(ops_[0], Constant):
            return ops_[1] if ops_[0].value else ops_[2]
        if ops_[1] is ops_[2]:
            return ops_[1]
    elif oc in ("min", "max", "imin", "imax", "and", "or"):
        if ops_[0] is ops_[1]:
            return ops_[0]
    return None


def _key_ref(op):
    """The old ``value_key``: attrs always sorted, operand tuple rebuilt
    to sort it."""
    oc = op.opcode
    info = OP_INFO.get(oc)
    pure_call = oc == "call" and \
        op.attrs["callee"] in RECOMPUTABLE_INTRINSICS
    if info is None and oc != "ptradd" and not pure_call:
        return None
    if op.result is None:
        return None
    operand_ids = tuple(
        ("c", v.value) if isinstance(v, Constant) else ("v", id(v))
        for v in op.operands)
    attr_items = tuple(sorted(
        (k, v) for k, v in op.attrs.items() if isinstance(v, (str, int,
                                                              bool, float))))
    if info is not None and info.commutative:
        operand_ids = tuple(sorted(operand_ids))
    return (oc, operand_ids, attr_items)


_POOL = {F64: (0.0, 1.0, 2.5), I64: (0, 1, 3), I1: (False, True)}


def _operand_shapes(types):
    """Every mix of: a constant from the pool, a fresh value, the value
    of an earlier position of the same type (same operand twice)."""
    per_position = [
        [("const", c) for c in _POOL[t]] + [("fresh", None), ("same", None)]
        for t in types]
    for shape in itertools.product(*per_position):
        operands = []
        for t, (kind, c) in zip(types, shape):
            earlier = [v for v in operands
                       if v.type is t and not isinstance(v, Constant)]
            if kind == "const":
                operands.append(Constant(c, t))
            elif kind == "same" and earlier:
                operands.append(earlier[0])
            else:
                operands.append(Argument(t, f"a{len(operands)}",
                                         len(operands)))
        yield operands


def _ops_of(opcode):
    """Every well-typed op of ``opcode`` over :func:`_operand_shapes`
    (``cmp``: every predicate)."""
    info = OP_INFO[opcode]
    attr_sets = ([{"pred": p} for p in _CMP] if opcode == "cmp" else [{}])
    for types in itertools.product((F64, I64, I1), repeat=info.arity):
        try:
            info.result_type(list(types))
        except TypeError:
            continue
        for operands in _operand_shapes(types):
            for attrs in attr_sets:
                yield ComputeOp(opcode, operands, attrs)


def _same_fold(got, want, op) -> bool:
    if isinstance(want, Constant) and not any(want is v for v in op.operands):
        return (isinstance(got, Constant) and got.type is want.type
                and repr(got.value) == repr(want.value))
    return got is want      # an operand, or None


@pytest.mark.parametrize("opcode", sorted(OP_INFO))
def test_fold_and_key_equal_their_references(opcode):
    n = folded = 0
    for op in _ops_of(opcode):
        got, want = fold_op(op), _fold_ref(op)
        assert _same_fold(got, want, op), (op.operands, op.attrs, got, want)
        assert value_key(op) == _key_ref(op) is not None
        n += 1
        folded += want is not None
    assert n >= 4 and folded    # every opcode folds on all-constant input
    # a second op over the same operands: same key, flipped operands the
    # same key exactly when the opcode commutes
    info = OP_INFO[opcode]
    for op in itertools.islice(_ops_of(opcode), 0, None, 7):
        flipped = ComputeOp(opcode, op.operands[::-1], op.attrs) \
            if info.arity == 2 and op.operands[0].type is op.operands[1].type \
            else None
        again = ComputeOp(opcode, list(op.operands), op.attrs)
        assert value_key(again) == value_key(op)
        if flipped is not None and value_key(flipped) != value_key(op):
            assert not info.commutative
        if flipped is not None and info.commutative:
            assert value_key(flipped) == value_key(op)


def test_key_reads_attrs_and_only_numbers_pure_results():
    x, p = Argument(F64, "x", 0), Argument(Ptr(), "p", 1)
    i = Argument(I64, "i", 2)
    plain = ComputeOp("add", [x, x])
    tagged = ComputeOp("add", [x, x], {"fast": True, "why": "t", "n": 2,
                                       "obj": object()})
    other = ComputeOp("add", [x, x], {"fast": False, "why": "t", "n": 2})
    for op in (plain, tagged, other):
        assert value_key(op) == _key_ref(op)
    assert len({value_key(plain), value_key(tagged), value_key(other)}) == 3
    assert value_key(tagged)[2] == (("fast", True), ("n", 2), ("why", "t"))
    cases = [PtrAddOp(p, i), LoadOp(p, i), StoreOp(x, p, i),
             CallOp("rt.num_threads", [], I64),
             CallOp("mpi.comm_rank", [], I64, {"comm": "world"}),
             CallOp("jl.arrayptr", [p], p.type), CallOp("rt.buflen", [p], I64),
             CallOp("mpi.barrier", [])]
    keys = [value_key(op) for op in cases]
    assert keys == [_key_ref(op) for op in cases]
    assert [k is not None for k in keys] == [True, False, False, True, True,
                                             False, False, False]
    for op in cases:    # nothing outside OP_INFO folds
        assert fold_op(op) is None and _fold_ref(op) is None


# ---------------------------------------------------------------------------
# (d) bounds verdicts: two-then-four bounds == all six
# ---------------------------------------------------------------------------

class _EagerAnalysis(IntervalAnalysis):
    """The old ``_classify_access``: index, slack and extent intervals
    (six directional bounds) for every site, verdict read off them, and
    the product rule where they do not certify.  Every bound is
    evaluated afresh (no memo), so the two agreeing also checks that the
    memo is emptied whenever the scoped bounds change."""

    row_major_sites = 0

    def _bound(self, aff, want_hi):
        self.evaluations += 1
        return self._eval_dir(aff, want_hi, _FUEL)

    def _classify_access(self, ptr, idx):
        ext_aff, why = self.extent_of(ptr)
        off = self.ptr_offset(ptr)
        if off is None:
            addr_aff = None
            why = why or "pointer offset is not affine"
        else:
            addr_aff = off.add(self.affine_of(idx))
        if addr_aff is None or ext_aff is None:
            if addr_aff is not None:
                self.bound_affine(addr_aff)
            return AccessFact(UNPROVEN, why)
        index = self.bound_affine(addr_aff)
        slack = self.bound_affine(ext_aff.sub(addr_aff))
        extent = self.bound_affine(ext_aff)
        if index.lo >= 0 and slack.lo >= 1:
            return AccessFact(PROVEN, "", index=index, extent=extent)
        if self.row_major(addr_aff, ext_aff):
            self.row_major_sites += 1
            return AccessFact(PROVEN, "", index=index, extent=extent)
        if index.hi < 0:
            return AccessFact(OOB, "index is always negative",
                              index=index, extent=extent)
        if slack.hi < 1:
            return AccessFact(OOB, "index always >= buffer extent",
                              index=index, extent=extent)
        parts = []
        if index.lo < 0:
            parts.append(f"index lower bound {index.lo} may be negative")
        if slack.lo < 1:
            parts.append(f"index may reach extent (slack {slack.lo})")
        return AccessFact(UNPROVEN, "; ".join(parts) or why,
                          index=index, extent=extent)


def _assert_verdicts_agree(fn, module):
    lazy = certify_bounds(fn, module)
    eager = _EagerAnalysis(fn, module).run()
    assert list(lazy.access) == list(eager.access)
    for op, fact in lazy.access.items():
        want = eager.access[op]
        assert (fact.status, fact.reason) == (want.status, want.reason), op
        assert lazy.proven(op) == (want.status == PROVEN)
    assert lazy.counts() == eager.counts()
    assert lazy.findings() == eager.findings()
    # the work: two bounds for a certified site, at most four for one
    # that is not (six — two more for the extent — only for a finding),
    # five more where the product rule certifies; the rest is the
    # ranges of non-affine integer ops
    c = lazy.counts()
    nonaffine = sum(
        1 for op in fn.walk() if op.result is not None
        and op.result.type is I64
        and op.opcode in ("imod", "idiv", "imin", "imax", "select"))
    assert lazy.evaluations <= (2 * c[PROVEN] + 4 * c[UNPROVEN]
                                + 6 * c[OOB] + 4 * nonaffine
                                + 5 * eager.row_major_sites)
    assert lazy.evaluations <= eager.evaluations
    return lazy, eager


@pytest.mark.parametrize("name", sorted(APPS))
def test_lazy_verdicts_equal_eager_on_app_gradients(name):
    app = APPS[name][0]()
    fn = app.module.functions[app.grad_fn()]
    lazy, eager = _assert_verdicts_agree(fn, app.module)
    assert lazy.counts()[PROVEN] > 100
    assert lazy.evaluations < 0.6 * eager.evaluations


@settings(max_examples=40, deadline=None)
@given(prog=_programs(), shrink=st.integers(0, 16), grow=st.integers(0, 40))
def test_lazy_verdicts_equal_eager_on_affine_programs(prog, shrink, grow):
    """The certification fuzz programs, as generated (all proven) and
    with the declared extent cut or the loop shifted so that sites turn
    unproven or provably out of bounds."""
    n, body = prog
    module = _affine_program(n, body)
    fn = module.functions["prog"]
    _assert_verdicts_agree(fn, module)
    fn.args[0].attrs["extent"] = max(1, n - shrink)
    _assert_verdicts_agree(fn, module)
    for op in list(fn.walk()):      # shift every index by -grow
        if op.opcode in ("load", "store"):
            at = op.parent.ops.index(op)
            idx = ComputeOp("isub", [op.operands[-1], Constant(grow)])
            op.parent.insert(at, idx)
            op.operands[-1] = idx.result
    lazy, _ = _assert_verdicts_agree(fn, module)
    if grow > 16:
        assert lazy.counts()[OOB] == 2 * len(body)


def _seeded_oob():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)],
                    arg_attrs=[{"extent": 10}, {}]) as f:
        x, n = f.args
        with b.for_(0, 10) as i:
            b.store(0.0, x, i)                      # proven
            b.load(x, b.add(i, 10))                 # always >= extent
            b.load(x, b.sub(i, 20))                 # always negative
            b.load(x, b.add(i, 1))                  # may reach extent
        p = b.ptradd(x, 4)
        b.load(p, 6)                                # 4 + 6 == extent
        buf = b.alloc(b.max(n, 1))
        b.store(1.0, buf, -1)                       # negative, any extent
        b.load(x, n)                                # unbounded
    return b.module.functions["f"], b.module


def test_findings_of_seeded_out_of_bounds_sites_are_unchanged():
    fn, module = _seeded_oob()
    lazy, eager = _assert_verdicts_agree(fn, module)
    assert lazy.counts() == {PROVEN: 1, UNPROVEN: 2, OOB: 4}
    assert [(f.reason, f.index, f.extent) for f in lazy.findings()] == [
        ("index always >= buffer extent", "[10, 19]", "[10, 10]"),
        ("index is always negative", "[-20, -11]", "[10, 10]"),
        ("index always >= buffer extent", "[10, 10]", "[10, 10]"),
        ("index is always negative", "[-1, -1]", "[1, inf]"),
    ]
    assert all("@f" in f.op for f in lazy.findings())
    # 2 (proven) + 4 + 4 (unproven) + 6 + 5 + 6 + 5 (findings) + the
    # imax range; the eager analysis pays six for each of the seven
    assert lazy.evaluations == 32 + 2 and eager.evaluations == 42 + 2


def test_memoised_bounds_follow_the_bound_scope():
    """``x[n]`` before, inside and after ``if n == 3`` (whose else arm
    refines nothing, so no bound is pushed between the last two): the
    same affine index, three scopes.  A bound memoised outside the
    branch must not answer inside it, nor one from inside after it."""
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)],
                    arg_attrs=[{"extent": 10}, {}]) as f:
        x, n = f.args
        b.load(x, n)
        with b.if_(b.cmp("eq", n, 3)):
            b.load(x, n)
        b.load(x, n)
    fn = b.module.functions["f"]
    lazy, _ = _assert_verdicts_agree(fn, b.module)
    assert [fact.status for fact in lazy.access.values()] == [
        UNPROVEN, PROVEN, UNPROVEN]
