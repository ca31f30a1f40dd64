"""Static shadow-race lint over (differentiated) IR.

Walks a function's parallel structure and re-derives thread-locality
from the index facts the AD transform reads — the strides and lane
variance of :class:`repro.passes.intervals.IntervalAnalysis` (classified
by :func:`repro.ad.tls.classify_index`) and the allocation-site alias
analysis — under decision rules of its own, then reports every
non-atomic write inside a fork / MPI region whose disjointness proof
fails.  This is the static half of the
sanitizer: the dynamic half (:mod:`repro.sanitize.racecheck`) checks
one concrete execution; the lint checks all of them, conservatively.

Severity model (soundness direction: *clean* ⇒ no dynamic race; warns
may be spurious):

* ``error`` — provable race: an unguarded plain write to a
  loop-uniform location inside a parallel region, a registered
  reduction applied to a non-uniform location, two differently-guarded
  writes to the same constant cell in the same fork phase, a write
  into a buffer with an in-flight nonblocking receive, a plain store
  of a lane-varying value to one shared cell from every lane of a
  vectorised ``simd`` loop, or a ``via='lanes'`` accumulate (which
  only combines the lanes of *one* thread) on a location other threads
  of the region may touch;
* ``warn`` — unprovable: the disjointness proof failed (unknown index
  form — across threads or across lanes —, guarded writes that may
  overlap another same-phase access, shared memset, writes from
  spawned tasks, reads of in-flight receive buffers).

A vectorised ``simd`` loop (:func:`repro.ad.tls.lane_loop`) is a
lane-parallel region on one thread: the AD transform keeps a shadow
increment a plain load-add-store there only when
:func:`repro.ad.tls.lane_kind` proves the lanes disjoint, and this
lint re-derives that proof for every plain store in such a loop.

Fork regions are partitioned into phases at their top-level barriers
(and worksharing loops' implied barriers); the phase graph is built as
a :class:`repro.parallel.dag.TaskDAG` and accesses in different phases
are never reported as a concurrent pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ad.tls import LANES, classify_index, lane_loop, parallel_context
from ..ir.function import Function, Module
from ..ir.ops import Block, Op
from ..ir.printer import print_op
from ..ir.values import Constant, Value
from ..parallel.dag import TaskDAG
from ..passes.aliasing import AliasInfo
from ..passes.intervals import IntervalAnalysis, inside
from ..passes.pass_manager import FunctionPass

WARN = "warn"
ERROR = "error"


@dataclass
class Diagnostic:
    """One lint finding, anchored to the offending op(s)."""

    severity: str
    code: str
    message: str
    fn: str
    op: Optional[Op] = None
    related_op: Optional[Op] = None

    def render(self) -> str:
        lines = [f"{self.severity}[{self.code}] in @{self.fn}: "
                 f"{self.message}"]
        if self.op is not None:
            lines.append(f"  at: {print_op(self.op)}")
        if self.related_op is not None:
            lines.append(f"  with: {print_op(self.related_op)}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "severity": self.severity,
            "code": self.code,
            "fn": self.fn,
            "message": self.message,
            "op": print_op(self.op) if self.op is not None else None,
            "related_op": (print_op(self.related_op)
                           if self.related_op is not None else None),
        }


@dataclass
class LintResult:
    """All findings for one function."""

    fn: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARN]

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def render(self) -> str:
        if self.clean:
            return f"@{self.fn}: clean"
        return "\n".join(d.render() for d in self.diagnostics)

    def to_json(self) -> dict:
        return {
            "tool": "lint",
            "fn": self.fn,
            "counts": {"error": len(self.errors),
                       "warn": len(self.warnings)},
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


class LintError(Exception):
    """Raised when a lint run with ``on_error='raise'`` finds errors."""

    def __init__(self, result: LintResult) -> None:
        self.result = result
        errs = result.errors
        head = (f"shadow-race lint found {len(errs)} error(s) "
                f"in @{result.fn}:")
        super().__init__("\n".join([head] + [d.render() for d in errs]))


# ---------------------------------------------------------------------------
# Access model
# ---------------------------------------------------------------------------

class _Access:
    __slots__ = ("op", "kind", "ptr", "idx", "region", "phase", "guards",
                 "atomic", "cls", "local", "flagged")

    def __init__(self, op: Op, kind: str, ptr: Value, idx: Optional[Value],
                 region: Optional[Op], phase: int, guards: list,
                 atomic: bool) -> None:
        self.op = op
        self.kind = kind            # "load" | "store" | "atomic" | "memset" | "memcpy"
        self.ptr = ptr
        self.idx = idx
        self.region = region
        self.phase = phase
        self.guards = guards        # [(ivar, key)] pinned by enclosing ifs
        self.atomic = atomic
        self.cls: Optional[str] = None
        self.local = False          # thread-local allocation
        self.flagged = False        # already reported by the self-race rule

    @property
    def writes(self) -> bool:
        return self.kind != "load"


def _guard_key(v: Value):
    if isinstance(v, Constant):
        return ("const", v.value)
    return ("val", id(v))


def _guards_of(op: Op, par_ivars: list[Value], region: Op,
               facts: IntervalAnalysis) -> list:
    """Pinning guards: enclosing ``if`` then-branches whose condition is
    ``cmp.eq(ivar, uniform)`` for a parallel ivar — the access then runs
    on (at most) one instance of ``region``."""
    ivar_set = set(par_ivars)
    guards = []
    blk = op.parent
    node = op
    while blk is not None:
        owner = blk.parent_op
        if owner is None:
            break
        if owner.opcode == "if" and blk is owner.regions[0]:
            cond = owner.operands[0]
            cop = getattr(cond, "op", None)
            if cop is not None and cop.opcode == "cmp" \
                    and cop.attrs.get("pred") == "eq":
                a, b = cop.operands
                for ivar, other in ((a, b), (b, a)):
                    if ivar in ivar_set and classify_index(
                            facts, other, par_ivars, region) == "uniform":
                        guards.append((ivar, _guard_key(other)))
                        break
        node = owner
        blk = owner.parent
    return guards


def _phase_of(region: Op, op: Op) -> int:
    """Barrier phase of ``op`` within a fork region: count the
    top-level barriers (and worksharing loops' implied barriers) that
    precede its top-level ancestor.  Nested barriers inside conditional
    regions are conservatively ignored (fewer phases ⇒ more pairs)."""
    node = op
    blk = op.parent
    while blk is not None and blk.parent_op is not region:
        node = blk.parent_op
        blk = node.parent
    phase = 0
    for top in region.regions[0].ops:
        if top is node:
            return phase
        if top.opcode == "barrier":
            phase += 1
        elif top.opcode == "for" and top.attrs.get("workshare") \
                and not top.attrs.get("nowait"):
            phase += 1
    return phase


def _phase_dag(nphases: int) -> TaskDAG:
    """The fork region's phase graph: a barrier-ordered chain."""
    dag = TaskDAG()
    for p in range(nphases):
        dag.add_task(p, cost=1.0)
        if p:
            dag.add_dep(p - 1, p)
    return dag


def _independent_regions(op: Op) -> int:
    """Number of independent parallel regions enclosing ``op`` — a
    worksharing loop binds to its fork, so only parallel_for / fork
    count.  More than one means an index disjoint in a single ivar is
    still duplicated across the other region's instances."""
    n = 0
    blk = op.parent
    while blk is not None:
        owner = blk.parent_op
        if owner is None:
            break
        if owner.opcode in ("parallel_for", "fork"):
            n += 1
        blk = owner.parent
    return n


def _const_index(idx: Optional[Value]):
    if isinstance(idx, Constant):
        return idx.value
    return None


# ---------------------------------------------------------------------------
# The lint proper
# ---------------------------------------------------------------------------

_ACCESS_OPS = ("load", "store", "atomic", "memset", "memcpy")


def lint_function(fn: Function, module: Module,
                  aliasing: Optional[AliasInfo] = None) -> LintResult:
    res = LintResult(fn.name)
    facts = IntervalAnalysis(fn, module, aliasing)
    aliasing = facts.aliasing

    accesses: list[_Access] = []
    for op in fn.walk():
        oc = op.opcode
        if oc not in _ACCESS_OPS:
            continue
        region, ivars = parallel_context(op)
        phase = (_phase_of(region, op)
                 if region is not None and region.opcode == "fork" else 0)
        guards = (_guards_of(op, ivars, region, facts)
                  if region is not None else [])
        if oc == "load":
            accesses.append(_Access(op, "load", op.operands[0],
                                    op.operands[1], region, phase, guards,
                                    atomic=False))
        elif oc == "store":
            accesses.append(_Access(op, "store", op.operands[1],
                                    op.operands[2], region, phase, guards,
                                    atomic=False))
        elif oc == "atomic":
            # A lane-combining accumulate is a plain read-modify-write
            # as far as *other threads* are concerned.
            accesses.append(_Access(op, "atomic", op.operands[1],
                                    op.operands[2], region, phase, guards,
                                    atomic=op.attrs.get("via") != LANES))
        elif oc == "memset":
            accesses.append(_Access(op, "memset", op.operands[0], None,
                                    region, phase, guards, atomic=False))
        elif oc == "memcpy":
            accesses.append(_Access(op, "memcpy", op.operands[0], None,
                                    region, phase, guards, atomic=False))
            accesses.append(_Access(op, "load", op.operands[1], None,
                                    region, phase, guards, atomic=False))

    for a in accesses:
        _classify_access(a, facts, res)
        if a.kind == "store":
            _classify_lanes(a, facts, res)

    _check_pairs(accesses, aliasing, res)
    _scan_inflight(fn.body, {}, aliasing, res, fn.name)
    return res


def _classify_access(a: _Access, facts: IntervalAnalysis,
                     res: LintResult) -> None:
    """Self-race rule: a non-atomic write races with its own other
    region instances unless its target is thread-local, its index is
    instance-disjoint, or a guard pins it to one instance."""
    if a.region is None:
        return
    fn = res.fn
    _, ivars = parallel_context(a.op)
    a.cls = (classify_index(facts, a.idx, ivars, a.region)
             if a.idx is not None else "unknown")

    # Thread-local allocation: private by construction.
    alloc = facts.aliasing.points_to_single_alloc(a.ptr)
    if alloc is not None and inside(alloc, a.region):
        a.local = True
        return
    if not a.writes:
        return

    if a.region.opcode == "spawn":
        a.flagged = True
        res.diagnostics.append(Diagnostic(
            WARN, "spawn-shared", "write to non-task-local memory "
            "from a spawned task (unordered with the parent until "
            "task.wait)", fn, a.op))
        return

    if a.kind in ("memset", "memcpy"):
        a.flagged = True
        res.diagnostics.append(Diagnostic(
            WARN, f"{a.kind}-shared",
            f"{a.kind} of shared memory inside a parallel region "
            f"(block writes are not privatized)", fn, a.op))
        return

    if a.atomic:
        # Atomics never race with atomics; but a *reduction*-lowered
        # increment is only legal on a loop-uniform location.
        if a.op.attrs.get("via") == "reduction" and a.cls != "uniform":
            a.flagged = True
            res.diagnostics.append(Diagnostic(
                ERROR, "reduction-nonuniform",
                f"reduction-lowered increment on a location that is "
                f"{a.cls} across parallel iterations — reductions "
                f"privatize one location per thread, this miscompiles",
                fn, a.op))
        return

    if a.kind == "atomic":          # via='lanes': thread-level plain RMW
        if (a.cls == "disjoint" and _independent_regions(a.op) <= 1) \
                or a.guards:
            return
        a.flagged = True
        res.diagnostics.append(Diagnostic(
            ERROR, "lanes-thread-shared",
            f"lane-combining accumulate (via='lanes') on a location "
            f"that is {a.cls} across the threads of the enclosing "
            f"parallel region — it only combines the lanes of one "
            f"thread (use a reduction or an atomic)", fn, a.op))
        return

    if a.cls == "disjoint":
        if _independent_regions(a.op) > 1:
            a.flagged = True
            res.diagnostics.append(Diagnostic(
                WARN, "nested-disjoint",
                "index is disjoint in one parallel ivar but the access "
                "sits under multiple independent parallel regions — "
                "instances of the other region hit the same locations",
                fn, a.op))
        return
    if a.guards:
        return                  # single instance: no self race
    a.flagged = True
    if a.cls == "uniform":
        res.diagnostics.append(Diagnostic(
            ERROR, "shared-store",
            "non-atomic write to a loop-uniform location inside a "
            "parallel region: every region instance writes the same "
            "cell (use an atomic or a registered reduction)",
            fn, a.op))
    else:
        res.diagnostics.append(Diagnostic(
            WARN, "unproven-store",
            "non-atomic write whose disjointness proof failed (index "
            "not affine in the parallel ivars)", fn, a.op))


def _classify_lanes(a: _Access, facts: IntervalAnalysis,
                    res: LintResult) -> None:
    """Lane rule: inside a vectorised ``simd`` loop a plain store runs
    once for all lanes, so lanes that share a cell conflict.  Private
    (lane-allocated) buffers and lane-disjoint indices are safe."""
    lane = lane_loop(a.op)
    if lane is None:
        return                  # not vectorised
    ivars = [lane.body.args[0]]
    if _guards_of(a.op, ivars, lane, facts):
        return                  # pinned to one lane
    alloc = facts.aliasing.points_to_single_alloc(a.ptr)
    if alloc is not None and inside(alloc, lane):
        return
    cls = classify_index(facts, a.idx, ivars, lane)
    if cls == "disjoint":
        return
    varying = facts.variance(a.op.operands[0])
    if varying is False:
        return                  # every lane writes the same value
    if cls == "uniform" and varying:
        res.diagnostics.append(Diagnostic(
            ERROR, "simd-lane-conflict",
            "plain store of a lane-varying value to one cell from every "
            "lane of a vectorised simd loop (a shadow increment here "
            "must be a via='lanes' accumulate)", res.fn, a.op))
    else:
        res.diagnostics.append(Diagnostic(
            WARN, "simd-lane-unproven",
            "plain store in a vectorised simd loop whose lanes cannot "
            "be proven to hit distinct cells (index not affine in the "
            "simd ivar)", res.fn, a.op))


def _check_pairs(accesses: list, aliasing: AliasInfo,
                 res: LintResult) -> None:
    """Cross-site rule: two distinct access sites in the same region
    and barrier phase conflict unless provably ordered or provably
    touching different cells.  Walk each region's phase DAG; different
    phases are barrier-ordered and never paired."""
    by_region: dict[int, list] = {}
    for a in accesses:
        if a.region is not None and a.region.opcode != "spawn" \
                and not a.local:
            by_region.setdefault(id(a.region), []).append(a)

    for group in by_region.values():
        nphases = max(a.phase for a in group) + 1
        dag = _phase_dag(nphases)
        in_phase: dict[int, list] = {p: [] for p in dag.topo_order()}
        for a in group:
            in_phase[a.phase].append(a)
        for phase_accesses in in_phase.values():
            for i, a in enumerate(phase_accesses):
                for b in phase_accesses[i + 1:]:
                    _check_pair(a, b, aliasing, res)


def _check_pair(a: _Access, b: _Access, aliasing: AliasInfo,
                res: LintResult) -> None:
    if not (a.writes or b.writes):
        return                  # reads never conflict
    if a.atomic and b.atomic:
        return                  # atomics are mutually ordered
    if a.flagged or b.flagged:
        return                  # already reported by the self-race rule
    if a.guards and a.guards == b.guards:
        return                  # same single instance: sequential
    if not aliasing.may_alias(a.ptr, b.ptr):
        return
    ia, ib = _const_index(a.idx), _const_index(b.idx)
    if ia is not None and ib is not None and ia != ib:
        return                  # provably different cells
    if a.idx is not None and a.idx is b.idx and "disjoint" in (
            a.cls, b.cls):
        return                  # same instance-disjoint cell per instance
    if a.writes and b.writes and ia is not None and ia == ib \
            and a.guards != b.guards and (a.guards or b.guards):
        res.diagnostics.append(Diagnostic(
            ERROR, "guarded-conflict",
            f"two differently-guarded writes hit the same cell [{ia}] "
            f"in the same barrier phase", res.fn, a.op, b.op))
        return
    res.diagnostics.append(Diagnostic(
        WARN, "concurrent-overlap",
        "two concurrent same-phase accesses (at least one a non-atomic "
        "write) may touch the same cell and cannot be proven ordered "
        "or disjoint", res.fn, a.op, b.op))


def _scan_inflight(block: Block, active: dict, aliasing: AliasInfo,
                   res: LintResult, fn: str) -> None:
    """Nonblocking-receive windows: between ``mpi.irecv`` and the
    matching ``mpi.wait`` the engine may deliver into the buffer at any
    time, so any access to it races with the delivery."""
    for op in block.ops:
        oc = op.opcode
        if oc == "call":
            callee = op.attrs["callee"]
            if callee == "mpi.irecv" and op.result is not None:
                active[op.result] = op
                continue
            if callee == "mpi.wait" and op.operands:
                active.pop(op.operands[0], None)
                continue
            if callee in ("mpi.send", "mpi.isend") and active:
                _check_inflight(op, op.operands[0], False, active,
                                aliasing, res, fn)
            continue
        if active:
            if oc == "store":
                _check_inflight(op, op.operands[1], True, active,
                                aliasing, res, fn)
            elif oc == "atomic":
                _check_inflight(op, op.operands[1], True, active,
                                aliasing, res, fn)
            elif oc == "load":
                _check_inflight(op, op.operands[0], False, active,
                                aliasing, res, fn)
            elif oc in ("memset", "memcpy"):
                _check_inflight(op, op.operands[0], True, active,
                                aliasing, res, fn)
        for region in op.regions:
            _scan_inflight(region, active, aliasing, res, fn)


def _check_inflight(op: Op, ptr: Value, is_write: bool, active: dict,
                    aliasing: AliasInfo, res: LintResult, fn: str) -> None:
    for irecv_op in active.values():
        if aliasing.may_alias(ptr, irecv_op.operands[0]):
            res.diagnostics.append(Diagnostic(
                ERROR if is_write else WARN, "inflight-recv",
                ("write to" if is_write else "read of") +
                " a buffer with an in-flight nonblocking receive "
                "(unordered with the message delivery until mpi.wait)",
                fn, op, irecv_op))
            return


def lint_module(module: Module,
                fn_names: Optional[list] = None) -> dict[str, LintResult]:
    names = fn_names if fn_names is not None else list(module.functions)
    return {name: lint_function(module.functions[name], module)
            for name in names}


# ---------------------------------------------------------------------------
# Pass-manager integration
# ---------------------------------------------------------------------------

class ShadowRaceLint(FunctionPass):
    """Analysis pass wrapper: lints each function, collects results in
    :attr:`results`, never mutates IR.  ``on_error='raise'`` turns
    error-severity findings into a :class:`LintError` — the mode the
    AD transform uses under ``ADConfig.sanitize``."""

    name = "sanitize-lint"

    def __init__(self, on_error: str = "ignore") -> None:
        if on_error not in ("ignore", "raise"):
            raise ValueError(f"on_error must be ignore|raise, "
                             f"got {on_error!r}")
        self.on_error = on_error
        self.results: dict[str, LintResult] = {}

    def run(self, fn: Function, module: Module) -> bool:
        res = lint_function(fn, module)
        self.results[fn.name] = res
        if self.on_error == "raise" and res.errors:
            raise LintError(res)
        return False
