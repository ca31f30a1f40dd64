"""The Enzyme-style reverse-mode AD transformation.

``ADTransform`` turns a primal IR function into a gradient function of
the form::

    diffe_f(primal args ⨯ shadow args [, seed]):
        <cache allocations>          # strategies 1–3, §IV-C
        <augmented forward pass>     # primal clone + cache stores
        <reverse pass>               # adjoints in reversed region order
        [return d(active scalar)]

Key mechanisms (paper section in parentheses):

* every pointer-producing op gets a *shadow twin* in the forward pass,
  so shadow memory mirrors primal memory structure (§VI-A);
* shadow increments choose serial / reduction / atomic per the
  thread-locality analysis (§VI-A1), and thread-serial increments inside
  a vectorised ``simd`` loop choose plain / lane-combining per the lane
  analysis (:mod:`repro.ad.tls`);
* values needed by adjoints are recomputed or cached per the min-cut
  plan; caches are indexed by loop iteration / thread id (§VI-B) or
  pushed to dynamic caches for unknown trip counts (§IV-C);
* ``parallel_for`` reverses into an augmented forward region plus a
  reverse region over the same iteration space (Fig. 4), and a ``for
  simd`` loop reverses into a ``for simd`` loop of adjoint bodies; ``fork``
  regions reverse op-by-op with barriers preserved; a ``spawn`` in the
  primal becomes a wait in the reverse pass and a wait becomes a spawn
  (§IV-A);
* MPI nonblocking communication reverses through shadow requests
  (Fig. 5); see :mod:`repro.ad.mpi_rules`;
* ``gc_preserve`` regions are extended to cover shadows and mirrored in
  the reverse pass (§VI-C2);
* everything is emitted through :class:`FoldingBuilder`, which folds
  constants and value-numbers pure ops per block as they are created
  (as LLVM's ``IRBuilder`` folds for Enzyme, §V-E), so the cleanup
  pipeline is left with dead code rather than with the transform's own
  redundancy.
"""

from __future__ import annotations

import contextlib as _ctx
from dataclasses import dataclass, field
from typing import Optional

from ..ir.builder import IRBuilder
from ..ir.function import Function, Module
from ..ir.opinfo import OP_INFO
from ..ir.ops import (
    AllocOp,
    AtomicRMWOp,
    BarrierOp,
    Block,
    CallOp,
    ComputeOp,
    ForOp,
    ForkOp,
    IfOp,
    LoadOp,
    MemsetOp,
    Op,
    ParallelForOp,
    PtrAddOp,
    SpawnOp,
    StoreOp,
    WhileOp,
)
from ..ir.printer import print_closure, print_function
from ..ir.types import F64, I1, I64, PointerType, Ptr, Request, Task, Token
from ..ir.values import Argument, BlockArg, Constant, Result, Value
from ..passes.aliasing import analyze_aliasing
from ..passes.intervals import IntervalAnalysis
from ..passes.constfold import fold_op
from ..passes.cse import value_key
from ..passes.inline import force_inline_all
from .activity import analyze_activity
from .cacheplan import (
    CachePlanner,
    CacheSlot,
    PlanError,
    depth_of,
    dims_for_op,
    nest_of,
)
from .rules import RULES, ZERO_DERIVATIVE
from .strategy import (checkpoint_forward_sweep, checkpoint_reverse_sweep,
                       select_managed_loops)
from .tls import (
    ATOMIC,
    LANES,
    REDUCTION,
    SERIAL,
    increment_kind,
    lane_kind,
    lane_loop,
    parallel_context,
)


class ADTransformError(Exception):
    pass


# Argument activity kinds (Enzyme calling convention).
Const = "const"
Duplicated = "duplicated"
Active = "active"


@dataclass
class ADConfig:
    """Knobs of the AD engine (ablation switches included)."""

    #: Cache every reverse-needed value instead of running the min-cut
    #: recompute-vs-cache analysis (§IV-C ablation).
    cache_all: bool = False
    #: Use an atomic increment for every shadow accumulation inside
    #: thread-parallel regions, ignoring the thread-locality analysis
    #: (§VI-A1 ablation: "legal but not desirable for performance").
    #: Single-thread ``simd`` loops are not thread-parallel regions.
    atomic_everywhere: bool = False
    #: Run the IR verifier on the generated gradient.
    verify: bool = True
    #: Name prefix of generated functions.
    prefix: str = "diffe_"
    #: Pre-AD optimization: "none" or "default" (§V-E: Enzyme runs
    #: optimization before differentiation).
    opt_level: str = "default"
    #: Enable the OpenMPOpt analogue (parallel-region load hoisting) in
    #: the pre-AD pipeline — the paper's §VIII ablation axis.
    openmp_opt: bool = False
    #: Run the cleanup pipeline on the generated gradient.
    post_opt: bool = True
    #: Memory space for AD cache allocations.  Julia frontends use "gc"
    #: (Enzyme.jl registers the GC allocation function, §VI-C2), which
    #: zero-fills on allocation — part of the Julia gradient overhead.
    cache_space: str = "stack"
    #: Run the shadow-memory race lint on the generated gradient and
    #: raise :class:`repro.sanitize.lint.LintError` if it reports a
    #: provable race.  Lint results are kept on the transform
    #: (``ADTransform.lint_result``) either way.
    sanitize: bool = False
    #: Testing/ablation override: force every shadow increment inside
    #: a thread-parallel region to "serial" / "reduction" / "atomic"
    #: regardless of the thread-locality (and lane) analysis.  "serial"
    #: deliberately seeds races — the sanitizer's cross-validation
    #: harness uses it.
    force_increment_kind: Optional[str] = None
    #: Run the static MPI communication analyzer and adjoint-duality
    #: verifier on the generated gradient (commcheck is the
    #: message-passing counterpart of ``sanitize``).  ``True`` checks
    #: the default communicator sizes; a tuple of ints checks those
    #: sizes.  Raises :class:`repro.sanitize.commcheck.CommCheckError`
    #: on error-severity findings; the report is kept on the transform
    #: (``ADTransform.comm_result``) either way.
    commcheck: object = False
    #: Adjoint storage/recompute strategy: "cache-all" (the §IV-C
    #: min-cut plan, default) or "checkpoint" (binomial checkpointing
    #: of eligible counted time loops: O(log steps) live state).
    #: Per-loop ``adjoint`` attributes override the global choice; see
    #: :mod:`repro.ad.strategy`.
    adjoint: str = "cache-all"


def _top_level_ancestor(op: Op) -> Op:
    """The depth-0 op lexically enclosing ``op`` (or ``op`` itself)."""
    cur = op
    while True:
        blk = cur.parent
        if blk is None or blk.parent_op is None:
            return cur
        cur = blk.parent_op


class FoldingBuilder(IRBuilder):
    """The builder the transform emits through: what ConstantFold and
    CSE would remove from the gradient is not appended in the first
    place.

    A pure op — one :func:`value_key` numbers: ``OP_INFO`` computes,
    ``ptradd``, the pure intrinsics — is folded (:func:`fold_op`), then
    looked up among the pure ops already emitted into *the block being
    filled*.  That is block-local CSE's rule, so the value handed back
    dominates the insertion point by construction, whichever block that
    is (the temporary block of ``_emit_hoisted`` has its own table).

    ``emit`` therefore returns a value that may not be ``op.result`` —
    an operand, a constant, or an earlier op's result — and the op it
    was given may be in no block: callers use what ``emit`` returns.
    """

    def __init__(self, module: Module) -> None:
        super().__init__(module)
        self._numbered: dict[Block, dict] = {}

    def emit(self, op: Op):
        folded = fold_op(op)
        if folded is not None:
            return folded
        key = value_key(op)
        if key is None:
            return super().emit(op)
        table = self._numbered.setdefault(self.block, {})
        prev = table.get(key)
        if prev is None:
            prev = table[key] = super().emit(op)
        return prev


class _Scope:
    """One reverse-emission scope (per reverse region instance).

    ``region_op`` is the *primal* region op this scope reverses (None at
    function level), ``block`` the reverse block being filled, and
    ``anchor_op`` the reverse region op that owns ``block`` (so a parent
    scope can insert hoisted code right before it).
    """

    __slots__ = ("parent", "bindings", "region_op", "block", "anchor_op")

    def __init__(self, parent: Optional["_Scope"] = None,
                 region_op: Optional[Op] = None,
                 block: Optional[Block] = None,
                 anchor_op: Optional[Op] = None) -> None:
        self.parent = parent
        self.bindings: dict = {}
        self.region_op = region_op
        self.block = block
        self.anchor_op = anchor_op

    def lookup(self, key):
        s = self
        while s is not None:
            if key in s.bindings:
                return s.bindings[key]
            s = s.parent
        return None

    def bind(self, key, value) -> None:
        self.bindings[key] = value


class ADTransform:
    """One gradient construction.

    ``cache`` is an optional gradient store (a
    :class:`repro.interp.diskcache.CompileCache`): on a hit
    :meth:`build` reads the stored gradient into the module instead of
    differentiating.  It stays text (``grad.text_only``) when code
    lowered from that text is stored too, and is verified when its body
    is built; otherwise it is parsed, then verified / linted /
    comm-checked exactly as a fresh one (see :meth:`_check_gradient`).
    The analyses of a transform that did not run are not there to
    inspect: ``plan`` and ``activity`` stay ``None`` on a hit
    (``adjoint_report`` is stored with the gradient).
    """

    def __init__(self, module: Module, fn_name: str, activities: list,
                 config: Optional[ADConfig] = None, cache=None) -> None:
        self.module = module
        self.config = config or ADConfig()
        self.src_name = fn_name
        self.activities = [a if a is not None else Const for a in activities]
        self.grad_name = self.config.prefix + fn_name
        self.cache = cache
        #: What the gradient store did for this build: "hit", "miss"
        #: (differentiated, then stored) or "off" (no store given).
        self.cache_event = "off"

        # Populated by build() (plan / activity only when it
        # differentiates):
        self.plan = None
        self.activity = None
        self.fn: Function = None
        self.grad: Function = None
        self.b: IRBuilder = None
        self.pm: dict[Value, Value] = {}     # primal -> forward clone
        self.sm: dict[Value, Value] = {}     # primal ptr/handle -> fwd shadow
        self.arg_map: dict[Argument, Argument] = {}
        self.shadow_arg_map: dict[Argument, Argument] = {}
        self.slot_buffers: dict[int, Value] = {}    # slot_id -> buffer value
        self.slot_handles: dict[int, Value] = {}    # slot_id -> dyncache
        self.adj_storage: dict[Value, str] = {}
        self.adj_slots: dict[Value, CacheSlot] = {}
        self.rev_parallel_stack: list[Op] = []
        #: Primal ``for simd`` loop whose (vectorised) reverse body is
        #: being emitted — the lane context of :func:`tls.lane_loop`.
        self._rev_lane: Optional[Op] = None
        #: Vectorised loop -> adjoint slots that are one cell per lane,
        #: allocated at the top of that loop's reverse body.
        self._lane_slots: dict[Op, list[CacheSlot]] = {}
        self.ret_value: Optional[Value] = None      # primal returned value
        self.seed_arg: Optional[Argument] = None
        self._active_scalar: Optional[Argument] = None
        self._spawn_of_wait: dict[Op, tuple[Op, list]] = {}
        self._slots_by_outer_dim: dict[Optional[Op], list[CacheSlot]] = {}
        #: Slot-addressing expressions already built, keyed on the block
        #: being filled: (block, dim) -> extent, (block, dim, ivar) ->
        #: local index, (block, dims, ivars) -> flat index.  Hundreds of
        #: slots share a handful of loop nests.
        self._addr_memo: dict[tuple, Value] = {}
        self.lint_result = None              # set when config.sanitize
        self.comm_result = None              # set when config.commcheck
        self._mpi_buffers: list = []
        # Checkpointed loops (repro.ad.strategy): primal loop op -> its
        # loop-carried state, for loops whose storage/recompute
        # schedule is managed outside the min-cut plan.
        self.managed: dict[Op, list] = {}
        self.adjoint_report: dict = {}
        self._ckpt: dict[Op, dict] = {}      # managed loop -> snapshot rec
        # When set, the forward emission clones primal ops only: no
        # shadow twins, no cache stores (checkpoint recompute segments
        # re-run these ops later in augmented form).
        self._primal_only = False

    # ==================================================================
    # Entry point
    # ==================================================================
    def build(self) -> str:
        if self.grad_name in self.module.functions:
            return self.grad_name

        cache, key, hit = self.cache, None, None
        if cache is not None:
            key = cache.gradient_key(
                print_closure(self.module, self.src_name),
                self.activities, self.config)
            # The race lint and the comm check read the body: with
            # either set, the body is built at load.
            hit = cache.load_gradient(
                key, self.module, self.grad_name,
                text_only=not (self.config.sanitize
                               or self.config.commcheck),
                check=self._verify if self.config.verify else None)
        if hit is not None:
            self.grad, self.adjoint_report = hit
            self.cache_event = "hit"
        else:
            self._differentiate()
        if not self.grad.text_only:
            self._check_gradient()
        if cache is not None and hit is None:
            # Stored only once it has passed every configured check.
            cache.store_gradient(key, self.grad, print_function(self.grad),
                                 self.adjoint_report)
            self.cache_event = "miss"
        return self.grad_name

    def _differentiate(self) -> None:
        """Emit ``self.grad`` from the primal (analyses, augmented
        forward pass, reverse pass, cleanup)."""
        # Work on a private copy with all user calls inlined (Enzyme
        # differentiates post-inlining; §V-E).
        work_name = f"__ad_work_{self.src_name}"
        self.fn = self.module.clone_function(self.src_name, work_name)
        force_inline_all(self.fn, self.module)
        if self.config.opt_level != "none":
            from ..passes.pass_manager import default_pipeline
            default_pipeline(openmp_opt=self.config.openmp_opt).run_function(
                self.fn, self.module)

        src = self.module.functions[self.src_name]
        if len(self.activities) != len(src.args):
            raise ADTransformError(
                f"{len(src.args)} arguments but {len(self.activities)} "
                f"activities")

        self.aliasing = analyze_aliasing(self.fn, self.module)
        self.facts = IntervalAnalysis(self.fn, self.module, self.aliasing)
        self._mpi_buffers = self._collect_mpi_buffers()
        duplicated = {a for a, k in zip(self.fn.args, self.activities)
                      if k == Duplicated}
        actives = {a for a, k in zip(self.fn.args, self.activities)
                   if k == Active}
        for a in duplicated:
            if not isinstance(a.type, PointerType):
                raise ADTransformError(
                    f"Duplicated activity on non-pointer arg {a.name}")
        for a in actives:
            if a.type is not F64:
                raise ADTransformError(
                    f"Active activity requires an f64 scalar arg "
                    f"({a.name}: {a.type})")
        if len(actives) > 1:
            raise ADTransformError("at most one Active scalar argument "
                                   "is supported")
        self._active_scalar = next(iter(actives), None)

        self.activity = analyze_activity(self.fn, self.module, self.aliasing,
                                         duplicated, actives)
        self.managed, self.adjoint_report = select_managed_loops(self)
        planner = CachePlanner(self.fn, self.module, self.aliasing,
                               self.activity, cache_all=self.config.cache_all,
                               managed_loops=frozenset(self.managed))
        self.plan = planner.build()

        self._compute_adj_storage()
        self._match_spawn_waits()

        self._build_signature()
        self.b = FoldingBuilder(self.module)
        self.b._fn = self.grad
        self.b._blocks.append(self.grad.body)
        from ..ir.values import push_builder, pop_builder
        push_builder(self.b)
        try:
            self._emit_prologue()
            self._index_slots_by_dim()
            self._forward_block(self.fn.body)
            top = _Scope(block=self.grad.body)
            self._seed_return(top)
            self._reverse_block(self.fn.body, top)
            self._emit_epilogue()
        finally:
            pop_builder(self.b)
            self.b._blocks.pop()
            self.b._fn = None

        # Drop the private working copy.
        del self.module.functions[self.fn.name]

        if self.config.post_opt:
            from ..passes.pass_manager import cleanup_pipeline
            cleanup_pipeline().run_function(self.grad, self.module)

    def _verify(self, fn: Function) -> None:
        from ..ir.verifier import verify_function
        verify_function(fn, self.module)

    def _check_gradient(self) -> None:
        """The checks the config asks of a gradient, differentiated or
        read back: IR verifier, race lint, comm duality.

        A gradient read back as text only (its entry is marked as
        lowered, and neither ``sanitize`` nor ``commcheck`` is set)
        skips this: the verifier runs when its body is built, if ever —
        the code that runs it is the one lowered from that same text,
        which passed these checks before it was stored."""
        if self.config.verify:
            self._verify(self.grad)
        self.lint_result = None
        if self.config.sanitize:
            from ..sanitize.lint import LintError, lint_function
            self.lint_result = lint_function(self.grad, self.module)
            if self.lint_result.errors:
                raise LintError(self.lint_result)
        self.comm_result = None
        if self.config.commcheck:
            from ..sanitize.commcheck import (CommCheckError,
                                              DEFAULT_SIZES,
                                              verify_duality)
            sizes = (tuple(self.config.commcheck)
                     if isinstance(self.config.commcheck, (tuple, list))
                     else DEFAULT_SIZES)
            self.comm_result = verify_duality(
                self.module, self.src_name, self.grad_name, sizes=sizes)
            if self.comm_result.errors:
                raise CommCheckError(self.comm_result)

    # ==================================================================
    # Signature / prologue / epilogue
    # ==================================================================
    def _build_signature(self) -> None:
        args: list[tuple[str, object]] = []
        attrs: list[dict] = []
        for a, kind in zip(self.fn.args, self.activities):
            args.append((a.name, a.type))
            attrs.append(dict(a.attrs))
            if kind == Duplicated:
                args.append(("d_" + a.name, a.type))
                attrs.append(dict(a.attrs))
        from ..ir.types import Void
        needs_seed = self.fn.ret_type is F64
        if needs_seed:
            args.append(("seed", F64))
            attrs.append({})
        ret = F64 if self._active_scalar is not None else Void
        self.grad = Function(self.grad_name, args, ret, attrs)
        self.module.add_function(self.grad)

        gi = iter(self.grad.args)
        for a, kind in zip(self.fn.args, self.activities):
            ga = next(gi)
            self.arg_map[a] = ga
            self.pm[a] = ga
            if kind == Duplicated:
                sa = next(gi)
                self.shadow_arg_map[a] = sa
                self.sm[a] = sa
            else:
                self.sm[a] = ga  # inactive: shadow aliases primal (unused)
        if needs_seed:
            self.seed_arg = self.grad.args[-1]

    def _emit_prologue(self) -> None:
        b = self.b
        # Dynamic cache handles (strategy 3).
        for slot in self.plan.slots.values():
            if slot.dyn_anchor is not None:
                self.slot_handles[slot.slot_id] = b.cache_create()
        # Active-scalar adjoint cell.
        if self._active_scalar is not None:
            self._active_cell = b.alloc(1, F64, name="d_active")

    def _emit_epilogue(self) -> None:
        b = self.b
        if self._active_scalar is not None:
            b.ret(b.load(self._active_cell, 0))
        else:
            from ..ir.ops import ReturnOp
            self.grad.body.append(ReturnOp([]))

    def _seed_return(self, scope: _Scope) -> None:
        if self.ret_value is not None and self.seed_arg is not None:
            self._adj_accum(self.ret_value, self.seed_arg, scope)

    # ==================================================================
    # Pre-analyses
    # ==================================================================
    def _compute_adj_storage(self) -> None:
        """SSA vs slot adjoint storage per active float value (slots for
        values used in regions nested below their definition)."""
        def_block: dict[Value, Block] = {}
        uses_other_block: set[Value] = set()
        for a in self.fn.args:
            def_block[a] = self.fn.body
        for op in self.fn.walk():
            if op.result is not None:
                def_block[op.result] = op.parent
            for region in op.regions:
                for arg in region.args:
                    def_block[arg] = region
        for op in self.fn.walk():
            for v in op.operands:
                db = def_block.get(v)
                if db is not None and db is not op.parent:
                    uses_other_block.add(v)
        for op in self.fn.walk():
            r = op.result
            if r is None or r.type is not F64:
                continue
            if not self.activity.value_active(r):
                continue
            if r in uses_other_block:
                self.adj_storage[r] = "slot"
                self._make_adj_slot(r, op)
            else:
                self.adj_storage[r] = "ssa"
        if self._active_scalar is not None:
            self.adj_storage[self._active_scalar] = "active-cell"
        # Values returned at top level keep SSA storage unless flagged.

    def _make_adj_slot(self, v: Value, op: Op) -> None:
        lane = lane_loop(op)
        if lane is not None and not lane.attrs.get("workshare"):
            # Defined inside a vectorised loop: one cell per lane,
            # allocated (lane-privatised by the executors, and zeroed)
            # each time the loop's reverse body runs.  ``dyn_anchor``
            # names that loop, as it names the loop whose iterations
            # allocate a dynamic cache.  Worksharing simd loops keep
            # the per-iteration dimension below instead.
            slot = CacheSlot(key=("adj", v), elem=F64, dims=[],
                             dyn_anchor=lane, slot_id=-1)
            self._lane_slots.setdefault(lane, []).append(slot)
        else:
            par_dims = [d for d in dims_for_op(op)
                        if d.opcode in ("parallel_for", "fork")
                        or (d.opcode == "for" and d.attrs.get("workshare"))]
            slot = CacheSlot(key=("adj", v), elem=F64, dims=par_dims,
                             dyn_anchor=None, slot_id=-1)
        # Reuse the planner's slot-id space.
        slot.slot_id = 100_000 + len(self.adj_slots)
        self.adj_slots[v] = slot

    def _match_spawn_waits(self) -> None:
        """Associate each ``task.wait`` with the spawn site it waits on
        (required to emit the reverse task's body)."""
        stores_by_origin: dict = {}
        for op in self.fn.walk():
            if op.opcode == "store" and op.operands[0].type is Task:
                origin = self.aliasing.provenance(op.operands[1])
                stores_by_origin.setdefault(origin, []).append(op)
        for op in self.fn.walk():
            if op.opcode == "call" and op.attrs["callee"] == "task.wait":
                v = op.operands[0]
                spawn_op: Optional[Op] = None
                if isinstance(v, Result) and v.op.opcode == "spawn":
                    spawn_op = v.op
                elif isinstance(v, Result) and v.op.opcode == "load":
                    origin = self.aliasing.provenance(v.op.operands[0])
                    stores = stores_by_origin.get(origin, [])
                    # Exact-location refinement: a constant-index load
                    # matches only constant-index stores at the same slot.
                    load_idx = v.op.operands[1]
                    if isinstance(load_idx, Constant):
                        stores = [s for s in stores
                                  if isinstance(s.operands[2], Constant)
                                  and s.operands[2].value == load_idx.value]
                    spawn_defs = {s.operands[0].op for s in stores
                                  if isinstance(s.operands[0], Result)
                                  and s.operands[0].op.opcode == "spawn"}
                    if len(spawn_defs) == 1:
                        spawn_op = next(iter(spawn_defs))
                if spawn_op is None:
                    raise ADTransformError(
                        f"cannot statically associate {op!r} with its "
                        f"spawn site; task graphs must be congruent "
                        f"(the i-th wait waits the i-th spawned task)")
                # Positional ivar correspondence beyond the common nest.
                sn, wn = nest_of(spawn_op), nest_of(op)
                common = 0
                while (common < len(sn) and common < len(wn)
                       and sn[common] is wn[common]):
                    common += 1
                s_extra = [d for d in sn[common:] if d.opcode != "fork"]
                w_extra = [d for d in wn[common:] if d.opcode != "fork"]
                if len(s_extra) != len(w_extra):
                    raise ADTransformError(
                        "spawn/wait loop nests are not congruent")
                pairs = [(s.body.args[0], w.body.args[0])
                         for s, w in zip(s_extra, w_extra)]
                self._spawn_of_wait[op] = (spawn_op, pairs)

    def _index_slots_by_dim(self) -> None:
        for slot in list(self.plan.slots.values()) + list(
                self.adj_slots.values()):
            if slot.dyn_anchor is not None:
                continue
            outer = slot.dims[0] if slot.dims else None
            if outer is not None:
                # Allocate at function depth: immediately before the
                # top-level op enclosing the dimension (caches must be
                # visible to both the forward and the reverse region).
                outer = _top_level_ancestor(outer)
            self._slots_by_outer_dim.setdefault(outer, []).append(slot)
        # Slots with no dims allocate at function entry.
        for slot in self._slots_by_outer_dim.get(None, []):
            self._alloc_slot_buffer(slot)

    # ==================================================================
    # Slot storage helpers
    # ==================================================================
    def _dim_val(self, v: Value) -> Value:
        """Forward value of a dim bound, looking through closure-capture
        loads via the planner's substitution map."""
        from .cacheplan import ForkNThreads
        resolved = self.plan.subst.get(v, v)
        if isinstance(resolved, ForkNThreads):
            b = self.b
            nt = self._fwd_val(resolved.fork_op.operands[0])
            return b.select(b.cmp("le", nt, 0),
                            b.call("rt.num_threads"), nt)
        return self._fwd_val(resolved)

    def _dim_extent_fwd(self, dim: Op) -> Value:
        """The extent of a static dim, emitted once per block (bounds
        are depth-0 values and must be in pm)."""
        b = self.b
        key = (b.block, dim)
        out = self._addr_memo.get(key)
        if out is not None:
            return out
        if dim.opcode == "fork":
            nt = self._dim_val(dim.operands[0])
            runtime = b.call("rt.num_threads")
            is_zero = b.cmp("le", nt, 0)
            out = b.select(is_zero, runtime, nt)
        else:
            bounds = [self._dim_val(v) for v in dim.operands]
            out = b.max(b.sub(bounds[1], bounds[0]), 0)
            if dim.opcode != "parallel_for":
                step = bounds[2]
                out = b.idiv(b.add(out, b.sub(step, 1)), step)
        self._addr_memo[key] = out
        return out

    def _alloc_slot_buffer(self, slot: CacheSlot) -> Value:
        b = self.b
        total: Value = Constant(1, I64)
        for dim in slot.dims:
            total = b.mul(total, self._dim_extent_fwd(dim))
        buf = b.alloc(total, slot.elem, space=self.config.cache_space,
                      name=f"cache{slot.slot_id}")
        # AD caches stream to DRAM in the performance model (written
        # once in the forward sweep, read once in the reverse sweep).
        if slot.slot_id < 100_000:  # adjoint slots stay cache-resident
            buf.op.attrs["stream"] = True
            buf.op.attrs["adcache"] = True
        self.slot_buffers[slot.slot_id] = buf
        return buf

    def _slot_flat_index(self, slot: CacheSlot, ivar_of) -> Value:
        """The linearized index, emitted once per block and nest;
        ``ivar_of(block arg)`` returns the current index value of a dim
        (forward: pm[ivar]; reverse: scope binding)."""
        b = self.b
        ivs = tuple(ivar_of(dim.body.args[0]) for dim in slot.dims)
        key = (b.block, tuple(slot.dims), ivs)
        idx = self._addr_memo.get(key)
        if idx is None:
            # The outermost extent never scales anything: asking for it
            # here would only emit a dead clamp into this block.
            idx = Constant(0, I64)
            for k, (dim, iv) in enumerate(zip(slot.dims, ivs)):
                extent = self._dim_extent_fwd(dim) if k else None
                local = self._dim_local_index(dim, iv)
                idx = b.add(b.mul(idx, extent), local) if k else local
            self._addr_memo[key] = idx
        return idx

    def _dim_local_index(self, dim: Op, iv: Value) -> Value:
        """Zero-based position of index value ``iv`` along ``dim``."""
        if dim.opcode == "fork":
            return iv
        b = self.b
        key = (b.block, dim, iv)
        out = self._addr_memo.get(key)
        if out is None:
            lb = self._dim_val(dim.operands[0])
            if dim.opcode == "parallel_for":
                out = b.sub(iv, lb)
            else:
                step = self._dim_val(dim.operands[2])
                out = b.idiv(b.sub(iv, lb), step)
            self._addr_memo[key] = out
        return out

    def _fwd_val(self, v: Value) -> Value:
        if isinstance(v, Constant):
            return v
        out = self.pm.get(v)
        if out is None:
            raise ADTransformError(f"forward value for {v!r} not available")
        return out

    # --- forward-side slot addressing ---------------------------------
    def _fwd_slot_buffer(self, slot: CacheSlot) -> Value:
        if slot.dyn_anchor is not None:
            buf = self._fwd_dyn_arrays.get(slot.slot_id)
            if buf is None:
                raise ADTransformError(
                    f"dynamic cache array for slot {slot.slot_id} not bound")
            return buf
        return self.slot_buffers[slot.slot_id]

    def _fwd_store_slot(self, slot: CacheSlot, value: Value) -> None:
        b = self.b
        buf = self._fwd_slot_buffer(slot)
        idx = self._slot_flat_index(slot, lambda ba: self._fwd_val(ba))
        b.store(value, buf, idx)

    # ==================================================================
    # FORWARD (augmented) pass
    # ==================================================================
    _fwd_dyn_arrays: dict = None

    def _forward_block(self, block: Block) -> None:
        if self._fwd_dyn_arrays is None:
            self._fwd_dyn_arrays = {}
        b = self.b
        for op in block.ops:
            oc = op.opcode

            # Allocate indexed cache buffers right before their
            # outermost dim op enters scope.
            for slot in self._slots_by_outer_dim.get(op, []):
                self._alloc_slot_buffer(slot)

            if oc == "return":
                if op.operands:
                    self.ret_value = op.operands[0]
                continue
            if oc == "free":
                continue  # deferred: buffers stay alive for the reverse
            if oc in ("for", "while"):
                if op in self.managed:
                    checkpoint_forward_sweep(self, op)
                else:
                    self._forward_loop(op)
            elif oc == "parallel_for":
                self._forward_parallel_region(op, ParallelForOp(
                    self._fwd_val(op.lb), self._fwd_val(op.ub),
                    framework=op.attrs.get("framework", "openmp"),
                    schedule=op.attrs.get("schedule", "static")))
            elif oc == "fork":
                self._forward_parallel_region(op, ForkOp(
                    self._fwd_val(op.operands[0]),
                    framework=op.attrs.get("framework", "openmp")))
            elif oc == "if":
                new = IfOp(self._fwd_val(op.operands[0]))
                b.emit(new)
                with b.at(new.then_body):
                    self._forward_block(op.then_body)
                with b.at(new.else_body):
                    self._forward_block(op.else_body)
            elif oc == "spawn":
                new = SpawnOp(framework=op.attrs.get("framework", "julia"))
                self.pm[op.result] = b.emit(new)
                with b.at(new.body):
                    self._forward_block(op.body)
            elif oc == "call":
                self._forward_call(op)
            else:
                self._forward_simple(op)

    def _forward_loop(self, op: Op) -> None:
        b = self.b
        if op.opcode == "for":
            new = ForOp(self._fwd_val(op.operands[0]),
                        self._fwd_val(op.operands[1]),
                        self._fwd_val(op.operands[2]),
                        workshare=op.attrs.get("workshare", False),
                        simd=op.attrs.get("simd", False),
                        nowait=op.attrs.get("nowait", False),
                        ivar_name=op.body.args[0].name)
        else:
            new = WhileOp(ivar_name=op.body.args[0].name)
        b.emit(new)
        self.pm[op.body.args[0]] = new.body.args[0]

        trip_slot = self.plan.slot_for((op, "trip")) \
            if op.opcode == "while" else None
        with b.at(new.body):
            self._enter_dyn_arrays(op)
            self._forward_block(op.body)
            if trip_slot is not None:
                # Store the running trip count (it+1); the last store
                # wins and records the total.
                count = b.add(new.body.args[0], 1)
                buf = self._fwd_slot_buffer(trip_slot)
                idx = self._slot_flat_index(trip_slot,
                                            lambda ba: self._fwd_val(ba))
                b.store(count, buf, idx)
                # Keep the condition op as the body terminator.
                cond_op = None
                for o in list(b.block.ops):
                    if o.opcode == "condition":
                        cond_op = o
                if cond_op is not None:
                    b.block.remove(cond_op)
                    b.block.append(cond_op)
        self._exit_dyn_arrays(op)

    def _enter_dyn_arrays(self, anchor: Op) -> None:
        """At a dynamic loop's body entry: allocate this iteration's
        cache arrays and push them (strategy 3)."""
        b = self.b
        self._dyn_saved = getattr(self, "_dyn_saved", [])
        saved = {}
        for key in self.plan.dyn_groups.get(anchor, []):
            slot = self.plan.slots[key]
            total: Value = Constant(1, I64)
            for dim in slot.dims:
                total = b.mul(total, self._dim_extent_fwd(dim))
            arr = b.alloc(total, slot.elem, space=self.config.cache_space,
                          name=f"dyn{slot.slot_id}")
            arr.op.attrs["stream"] = True
            arr.op.attrs["adcache"] = True
            b.cache_push(self.slot_handles[slot.slot_id], arr)
            saved[slot.slot_id] = self._fwd_dyn_arrays.get(slot.slot_id)
            self._fwd_dyn_arrays[slot.slot_id] = arr
        self._dyn_saved.append(saved)

    def _exit_dyn_arrays(self, anchor: Op) -> None:
        saved = self._dyn_saved.pop()
        for sid, prev in saved.items():
            if prev is None:
                self._fwd_dyn_arrays.pop(sid, None)
            else:
                self._fwd_dyn_arrays[sid] = prev

    def _forward_parallel_region(self, op: Op, new: Op) -> None:
        b = self.b
        b.emit(new)
        for old_arg, new_arg in zip(op.body.args, new.body.args):
            self.pm[old_arg] = new_arg
        with b.at(new.body):
            self._forward_block(op.body)

    def _forward_call(self, op: CallOp) -> None:
        from .mpi_rules import forward_mpi_call
        callee = op.attrs["callee"]
        b = self.b
        if callee.startswith("mpi.") or callee == "task.wait":
            forward_mpi_call(self, op)
            return
        if callee == "jl.gc_preserve_begin":
            ptrs = [self._fwd_val(v) for v in op.operands]
            shadows = []
            for v in op.operands:
                s = self._fwd_shadow_ptr(v)
                if s is not None and s not in ptrs and s not in shadows:
                    shadows.append(s)
            self.pm[op.result] = b.emit(CallOp(callee, ptrs + shadows, Token))
            return
        # Generic clone (jl.*, rt.*, pure intrinsics).
        args = [self._fwd_val(v) for v in op.operands]
        new = CallOp(callee, args,
                     op.result.type if op.result else
                     self.module.callee_ret_type(callee),
                     dict(op.attrs))
        out = b.emit(new)
        if op.result is not None:
            self.pm[op.result] = out
            # Pointer-returning intrinsics get shadow twins.
            if callee == "jl.arrayptr" and not self._primal_only:
                base_shadow = self._fwd_shadow_ptr(op.operands[0])
                if base_shadow is not None:
                    self.sm[op.result] = b.emit(
                        CallOp(callee, [base_shadow], op.result.type))
        self._maybe_cache_result(op)

    def _forward_simple(self, op: Op) -> None:
        b = self.b
        oc = op.opcode
        vmap_args = [self._fwd_val(v) if not isinstance(v, Constant) else v
                     for v in op.operands]
        if oc == "alloc":
            new = self.pm[op.result] = b.emit(AllocOp(
                vmap_args[0], op.result.type.elem, op.attrs["space"],
                name=op.result.name))
            if not self._primal_only and self._needs_shadow_buffer(op):
                tw = self.sm[op.result] = b.emit(AllocOp(
                    vmap_args[0], op.result.type.elem, op.attrs["space"],
                    name="d_" + (op.result.name or "buf")))
                slot = self.plan.slot_for((op, "shadowptr"))
                if slot is not None:
                    # Persist the shadow pointer to the reverse pass
                    # (non-parallel region-local allocation: anything —
                    # e.g. an MPI shadow request — may have captured it).
                    self._fwd_store_slot(slot, tw)
            else:
                self.sm[op.result] = new
            return
        if oc == "ptradd":
            self.pm[op.result] = b.emit(PtrAddOp(vmap_args[0], vmap_args[1]))
            base_shadow = None if self._primal_only else \
                self._fwd_shadow_ptr(op.operands[0])
            if base_shadow is not None:
                self.sm[op.result] = b.emit(
                    PtrAddOp(base_shadow, vmap_args[1]))
            return
        if oc == "load":
            new = self.pm[op.result] = b.emit(
                LoadOp(vmap_args[0], vmap_args[1]))
            elem = op.result.type
            if not self._primal_only and (isinstance(elem, PointerType)
                                          or elem in (Request, Task)):
                base_shadow = self._fwd_shadow_ptr(op.operands[0])
                if base_shadow is not None:
                    self.sm[op.result] = b.emit(
                        LoadOp(base_shadow, vmap_args[1]))
            if not self._primal_only and op in self.plan.ptr_cached_loads:
                self._fwd_store_slot(self.plan.slots[(op, "pptr")], new)
                shadow = self.sm.get(op.result, new)
                self._fwd_store_slot(self.plan.slots[(op, "sptr")], shadow)
            self._maybe_cache_result(op)
            return
        if oc == "store":
            new = StoreOp(vmap_args[0], vmap_args[1], vmap_args[2])
            b.emit(new)
            val = op.operands[0]
            if not self._primal_only and (
                    isinstance(val.type, PointerType)
                    or val.type in (Request, Task)):
                base_shadow = self._fwd_shadow_ptr(op.operands[1])
                shadow_val = self.sm.get(val)
                if base_shadow is not None and shadow_val is not None:
                    b.emit(StoreOp(shadow_val, base_shadow, vmap_args[2]))
            return
        if oc == "atomic":
            b.emit(AtomicRMWOp(op.attrs["kind"], vmap_args[0], vmap_args[1],
                               vmap_args[2]))
            return
        if oc in ("memset", "memcpy", "barrier", "condition"):
            b.emit(op.clone(dict(
                zip(op.operands, vmap_args))))
            return
        if oc in OP_INFO:
            self.pm[op.result] = b.emit(
                ComputeOp(oc, vmap_args, dict(op.attrs)))
            self._maybe_cache_result(op)
            return
        raise ADTransformError(f"forward pass cannot handle {op!r}")

    def _needs_shadow_buffer(self, alloc: AllocOp) -> bool:
        elem = alloc.result.type.elem
        if isinstance(elem, PointerType) or elem in (Request, Task, Token):
            return True
        if elem is not F64:
            return False
        return self.activity.origin_active(("alloc", alloc)) or \
            self.activity.all_origins_active

    def _fwd_shadow_ptr(self, ptr: Value) -> Optional[Value]:
        return self.sm.get(ptr)

    def _maybe_cache_result(self, op: Op) -> None:
        if op.result is None or self._primal_only:
            return
        if self.plan.is_cached(op.result):
            slot = self.plan.slots[op.result]
            self._fwd_store_slot(slot, self.pm[op.result])

    # ==================================================================
    # REVERSE pass
    # ==================================================================
    def _reverse_block(self, block: Block, scope: _Scope) -> None:
        b = self.b
        # Fresh zeroed shadows for allocations local to *parallel*
        # regions (per-lane scratch; shadow state cannot escape a
        # parallel iteration).  Non-parallel region-local allocs reuse
        # the forward shadow through the (op, "shadowptr") cache.
        for op in block.ops:
            if op.opcode == "alloc" and block.parent_op is not None:
                if self._needs_shadow_buffer(op) and \
                        self.plan.slot_for((op, "shadowptr")) is None:
                    count = self._avail(op.operands[0], scope)
                    scope.bind(("freshshadow", op), b.emit(AllocOp(
                        count, op.result.type.elem, op.attrs["space"],
                        name="r_" + (op.result.name or "buf"))))

        for op in reversed(block.ops):
            self._reverse_op(op, scope)

    def _reverse_op(self, op: Op, scope: _Scope) -> None:
        b = self.b
        oc = op.opcode
        if oc in ("alloc", "free", "ptradd", "condition", "cache_create",
                  "cache_push", "cache_pop"):
            return
        if oc == "return":
            return
        if oc in ZERO_DERIVATIVE:
            return
        if oc in OP_INFO:
            self._reverse_compute(op, scope)
            return
        if oc == "load":
            self._reverse_load(op, scope)
            return
        if oc == "store":
            self._reverse_store(op, scope)
            return
        if oc == "atomic":
            self._reverse_atomic(op, scope)
            return
        if oc == "memset":
            self._reverse_memset(op, scope)
            return
        if oc == "memcpy":
            self._reverse_memcpy(op, scope)
            return
        if oc == "if":
            cond = self._avail(op.operands[0], scope)
            new = IfOp(cond)
            b.emit(new)
            with b.at(new.then_body):
                self._reverse_block(op.then_body, _Scope(
                    scope, op, new.then_body, new))
            with b.at(new.else_body):
                self._reverse_block(op.else_body, _Scope(
                    scope, op, new.else_body, new))
            return
        if oc == "for":
            if op in self.managed:
                checkpoint_reverse_sweep(self, op, scope)
            else:
                self._reverse_for(op, scope)
            return
        if oc == "while":
            self._reverse_while(op, scope)
            return
        if oc == "parallel_for":
            self._reverse_parallel_for(op, scope)
            return
        if oc == "fork":
            self._reverse_fork(op, scope)
            return
        if oc == "spawn":
            self._reverse_spawn(op, scope)
            return
        if oc == "barrier":
            b.barrier()
            return
        if oc == "call":
            self._reverse_call(op, scope)
            return
        raise ADTransformError(f"reverse pass cannot handle {op!r}")

    # --- compute adjoints ---------------------------------------------
    def _reverse_compute(self, op: Op, scope: _Scope) -> None:
        r = op.result
        if r is None or r.type is not F64:
            return
        if not self.activity.value_active(r):
            return
        adj = self._adj_read(r, scope)
        if adj is None:
            return
        rule = RULES.get(op.opcode)
        if rule is None:
            raise ADTransformError(
                f"no adjoint rule for opcode {op.opcode!r}")

        act = self.activity

        def active(i: int) -> bool:
            o = op.operands[i]
            return (o.type is F64 and not isinstance(o, Constant)
                    and act.value_active(o))

        av = lambda v: self._avail(v, scope)  # noqa: E731
        for i, contrib in rule.emit(self.b, op, adj, av, active):
            self._adj_accum(op.operands[i], contrib, scope)

    # --- memory adjoints -------------------------------------------------
    def _collect_mpi_buffers(self) -> list:
        """Pointer operands of ``mpi.*`` calls in the working copy.

        Their shadows participate in adjoint message exchange, so the
        ``atomic_everywhere`` ablation must keep their increments atomic
        even outside fork regions (see :func:`repro.ad.tls.increment_kind`).
        """
        bufs = []
        for o in self.fn.walk():
            if o.opcode == "call" and o.attrs.get("callee",
                                                  "").startswith("mpi."):
                bufs.extend(v for v in o.operands
                            if isinstance(v.type, PointerType))
        return bufs

    def _escapes_mpi(self, ptr: Value) -> bool:
        return any(self.aliasing.may_alias(ptr, mb)
                   for mb in self._mpi_buffers)

    def _reverse_load(self, op: LoadOp, scope: _Scope) -> None:
        b = self.b
        elem = op.result.type
        if elem in (Request, Task):
            # Reverse-flow handle shadow: store the reverse record/task
            # into the shadow slot for the matching reverse store to pick
            # up (Fig. 5's shadow-request mechanism).
            rr = scope.lookup(("revshadow", op.result))
            if rr is not None:
                sp = self._rev_shadow_ptr(op.operands[0], scope)
                b.emit(StoreOp(rr, sp, self._avail(op.operands[1], scope)))
            return
        if elem is not F64 or not self.activity.value_active(op.result):
            return
        adj = self._adj_read(op.result, scope)
        if adj is None:
            return
        sp = self._rev_shadow_ptr(op.operands[0], scope)
        idx = self._avail(op.operands[1], scope)
        region, ivars = parallel_context(op)
        kind = increment_kind(op.operands[0], op.operands[1], ivars,
                              self.facts, region,
                              atomic_everywhere=self.config.atomic_everywhere,
                              mpi_escapes=self._escapes_mpi(op.operands[0]))
        if self.config.force_increment_kind is not None and region is not None:
            kind = self.config.force_increment_kind
            if kind not in (SERIAL, ATOMIC, REDUCTION):
                raise ValueError(
                    f"force_increment_kind={kind!r}; expected one of "
                    f"{SERIAL!r}, {ATOMIC!r}, {REDUCTION!r}")
        elif kind == SERIAL and self._rev_lane is not None:
            kind = lane_kind(op.operands[0], op.operands[1], self._rev_lane,
                             self.facts)
        self._emit_increment(kind, adj, sp, idx)

    def _emit_increment(self, kind: str, adj: Value, sp: Value,
                        idx: Value) -> None:
        b = self.b
        if kind == SERIAL:
            cur = b.load(sp, idx)
            b.store(b.add(cur, adj), sp, idx)
        elif kind in (REDUCTION, LANES):
            o = AtomicRMWOp("add", adj, sp, idx)
            o.attrs["via"] = kind
            b.emit(o)
        else:
            b.atomic_add(adj, sp, idx)

    def _reverse_store(self, op: StoreOp, scope: _Scope) -> None:
        b = self.b
        val = op.operands[0]
        if isinstance(val.type, PointerType):
            return  # pointer structure mirrored in forward shadow twins
        if val.type in (Request, Task):
            sp = self._rev_shadow_ptr(op.operands[1], scope)
            scope.bind(("revshadow", val), b.emit(
                LoadOp(sp, self._avail(op.operands[2], scope))))
            return
        if val.type is not F64:
            return
        if not self.activity.ptr_active(op.operands[1], self.aliasing):
            return
        sp = self._rev_shadow_ptr(op.operands[1], scope)
        idx = self._avail(op.operands[2], scope)
        val_active = (not isinstance(val, Constant)
                      and self.activity.value_active(val))
        if val_active:
            cur = b.load(sp, idx)
        b.store(0.0, sp, idx)
        if val_active:
            self._adj_accum(val, cur, scope)

    def _reverse_atomic(self, op: AtomicRMWOp, scope: _Scope) -> None:
        if op.attrs["kind"] != "add":
            raise ADTransformError(
                "reverse of atomic min/max is not supported; use the "
                "explicit compare-select reduction pattern (paper Fig. 7)")
        val = op.operands[0]
        if isinstance(val, Constant) or not self.activity.value_active(val):
            return
        sp = self._rev_shadow_ptr(op.operands[1], scope)
        idx = self._avail(op.operands[2], scope)
        cur = self.b.load(sp, idx)
        self._adj_accum(val, cur, scope)

    def _reverse_memset(self, op: MemsetOp, scope: _Scope) -> None:
        b = self.b
        if op.operands[0].type.elem is not F64:
            return
        if not self.activity.ptr_active(op.operands[0], self.aliasing):
            return
        val = op.operands[1]
        if not isinstance(val, Constant) and self.activity.value_active(val):
            raise ADTransformError(
                "memset with an active fill value is not supported")
        sp = self._rev_shadow_ptr(op.operands[0], scope)
        count = self._avail(op.operands[2], scope)
        b.memset(sp, 0.0, count)

    def _reverse_memcpy(self, op: Op, scope: _Scope) -> None:
        b = self.b
        if op.operands[0].type.elem is not F64:
            return
        if not self.activity.ptr_active(op.operands[0], self.aliasing):
            return
        d_dst = self._rev_shadow_ptr(op.operands[0], scope)
        count = self._avail(op.operands[2], scope)
        src_active = self.activity.ptr_active(op.operands[1], self.aliasing)
        if src_active:
            d_src = self._rev_shadow_ptr(op.operands[1], scope)
            with b.for_(0, count, simd=True, name="k") as k:
                t = b.load(d_dst, k)
                b.store(0.0, d_dst, k)
                cur = b.load(d_src, k)
                b.store(b.add(cur, t), d_src, k)
        else:
            b.memset(d_dst, 0.0, count)

    # --- control flow ----------------------------------------------------
    def _reverse_for(self, op: ForOp, scope: _Scope) -> None:
        b = self.b
        lb = self._avail(op.operands[0], scope)
        ub = self._avail(op.operands[1], scope)
        step = self._avail(op.operands[2], scope)
        if op.attrs.get("workshare"):
            # Same chunks, each thread's chunk iterated in reverse order
            # (§VI-A2: possible at the compiler level, not in OpenMP).
            if not op.attrs.get("nowait"):
                b.barrier()
            new = ForOp(lb, ub, step, workshare=True,
                        simd=op.attrs.get("simd", False),
                        nowait=op.attrs.get("nowait", False),
                        ivar_name="r" + op.body.args[0].name)
            new.attrs["reverse_order"] = True
            b.emit(new)
            inner = _Scope(scope, op, new.body, new)
            inner.bind(op.body.args[0], new.body.args[0])
            self.rev_parallel_stack.append(op)
            try:
                with b.at(new.body), self._lane_scope(op):
                    self._reverse_block(op.body, inner)
            finally:
                self.rev_parallel_stack.pop()
            return
        if op.attrs.get("simd"):
            # A simd loop of bodies becomes a simd loop of adjoint
            # bodies (§IV-A) over the same iteration space: iterations
            # are independent, so no order needs reversing.
            new = ForOp(lb, ub, step, simd=True,
                        ivar_name="r" + op.body.args[0].name)
            b.emit(new)
            inner = _Scope(scope, op, new.body, new)
            inner.bind(op.body.args[0], new.body.args[0])
            with b.at(new.body), self._lane_scope(op):
                for slot in self._lane_slots.get(op, ()):
                    inner.bind(("adjcell", slot.slot_id),
                               b.alloc(1, F64, name=f"adj{slot.slot_id}"))
                self._pop_dyn_arrays(op, inner)
                self._reverse_block(op.body, inner)
            return
        # Serial loop: iterate reversed.
        ntrips = b.idiv(b.add(b.max(b.sub(ub, lb), 0), b.sub(step, 1)), step)
        new = ForOp(Constant(0, I64), ntrips, Constant(1, I64),
                    ivar_name="rk")
        b.emit(new)
        inner = _Scope(scope, op, new.body, new)
        with b.at(new.body):
            k = new.body.args[0]
            i_rev = b.add(lb, b.mul(b.sub(b.sub(ntrips, 1), k), step))
            inner.bind(op.body.args[0], i_rev)
            self._pop_dyn_arrays(op, inner)
            self._reverse_block(op.body, inner)

    @_ctx.contextmanager
    def _lane_scope(self, op: ForOp):
        """Emit the reverse body of ``op`` with it as the lane context
        when it is the loop the executors vectorise."""
        prev = self._rev_lane
        if lane_loop(op) is op:
            self._rev_lane = op
        try:
            yield
        finally:
            self._rev_lane = prev

    def _reverse_while(self, op: WhileOp, scope: _Scope) -> None:
        b = self.b
        trip_slot = self.plan.slot_for((op, "trip"))
        count = self._load_slot(trip_slot, scope)
        new = ForOp(Constant(0, I64), count, Constant(1, I64), ivar_name="rw")
        b.emit(new)
        inner = _Scope(scope, op, new.body, new)
        with b.at(new.body):
            k = new.body.args[0]
            it_rev = b.sub(b.sub(count, 1), k)
            inner.bind(op.body.args[0], it_rev)
            self._pop_dyn_arrays(op, inner)
            self._reverse_block(op.body, inner)

    # ==================================================================
    # Checkpointed loops (repro.ad.strategy)
    # ==================================================================
    def _run_primal_only(self, block: Block) -> None:
        """Re-emit ``block`` cloning primal ops only (no shadow twins,
        no cache stores) — the recompute segments of checkpointed
        adjoints."""
        prev = self._primal_only
        self._primal_only = True
        try:
            self._forward_block(block)
        finally:
            self._primal_only = prev

    def _buflen(self, p: Value) -> Value:
        # Emitted directly (not via builder.call) because the state
        # pointer's element type varies per buffer.
        return self.b.emit(CallOp("rt.buflen", [p], I64))

    def _managed_trip_bounds(self, op: ForOp):
        """(lb, step, ntrips) forward values of a managed loop."""
        b = self.b
        lb = self._fwd_val(op.operands[0])
        ub = self._fwd_val(op.operands[1])
        step = self._fwd_val(op.operands[2])
        ntrips = b.idiv(b.add(b.max(b.sub(ub, lb), 0), b.sub(step, 1)), step)
        return lb, step, ntrips

    def _managed_state(self, op: ForOp, nslots: Value) -> list:
        """Allocate snapshot storage for the loop-carried state of a
        managed loop: ``nslots`` stacked copies of each state buffer.
        Returns [(primal ptr, len, snap), ...]."""
        b = self.b
        state = []
        for v in self.managed[op]:
            p = self._fwd_val(v)
            n = self._buflen(p)
            snap = b.alloc(b.mul(n, nslots), v.type.elem,
                           space=self.config.cache_space, name="ckpt")
            snap.op.attrs["stream"] = True
            snap.op.attrs["adcache"] = True
            state.append((p, n, snap))
        return state

    def _snapshot(self, state: list, slot_idx: Value) -> None:
        """Copy every state buffer into snapshot slot ``slot_idx``."""
        b = self.b
        for p, n, snap in state:
            b.memcpy(b.ptradd(snap, b.mul(slot_idx, n)), p, n)

    def _restore(self, state: list, slot_idx: Value) -> None:
        """Copy snapshot slot ``slot_idx`` back into the state buffers."""
        b = self.b
        for p, n, snap in state:
            b.memcpy(p, b.ptradd(snap, b.mul(slot_idx, n)), n)

    def _primal_step(self, op: ForOp, ivar: Value) -> None:
        """One primal-only run of the managed loop's body at ``ivar``."""
        self.pm[op.body.args[0]] = ivar
        self._run_primal_only(op.body)

    def _adjoint_step(self, op: ForOp, ivar: Value, scope: _Scope,
                      anchor: Op) -> None:
        """One augmented run of the managed loop's body at ``ivar``
        (single-iteration caching), then its reverse, into the block
        being filled.  ``anchor`` is the op in ``scope``'s block that
        holds this emission (hoisted code lands right before it)."""
        self.pm[op.body.args[0]] = ivar
        self._forward_block(op.body)
        inner = _Scope(scope, op, self.b.block, anchor)
        inner.bind(op.body.args[0], ivar)
        self._reverse_block(op.body, inner)

    def _pop_dyn_arrays(self, anchor: Op, scope: _Scope) -> None:
        b = self.b
        for key in reversed(self.plan.dyn_groups.get(anchor, [])):
            slot = self.plan.slots[key]
            arr = b.cache_pop(self.slot_handles[slot.slot_id],
                              Ptr(slot.elem))
            scope.bind(("dynarr", slot.slot_id), arr)

    def _reverse_parallel_for(self, op: ParallelForOp, scope: _Scope) -> None:
        b = self.b
        lb = self._avail(op.operands[0], scope)
        ub = self._avail(op.operands[1], scope)
        new = ParallelForOp(lb, ub,
                            framework=op.attrs.get("framework", "openmp"),
                            ivar_name="r" + op.body.args[0].name)
        b.emit(new)
        inner = _Scope(scope, op, new.body, new)
        inner.bind(op.body.args[0], new.body.args[0])
        self.rev_parallel_stack.append(op)
        try:
            with b.at(new.body):
                self._reverse_block(op.body, inner)
        finally:
            self.rev_parallel_stack.pop()

    def _reverse_fork(self, op: ForkOp, scope: _Scope) -> None:
        b = self.b
        nt = self._avail(op.operands[0], scope)
        new = ForkOp(nt, framework=op.attrs.get("framework", "openmp"))
        b.emit(new)
        inner = _Scope(scope, op, new.body, new)
        inner.bind(op.body.args[0], new.body.args[0])
        inner.bind(op.body.args[1], new.body.args[1])
        self.rev_parallel_stack.append(op)
        try:
            with b.at(new.body):
                self._reverse_block(op.body, inner)
        finally:
            self.rev_parallel_stack.pop()

    def _reverse_spawn(self, op: SpawnOp, scope: _Scope) -> None:
        rr = scope.lookup(("revshadow", op.result))
        if rr is None:
            # Task never waited on: no adjoint work was spawned.
            return
        self.b.call("task.wait", rr)

    # --- calls -------------------------------------------------------------
    def _reverse_call(self, op: CallOp, scope: _Scope) -> None:
        from .mpi_rules import reverse_mpi_call
        b = self.b
        callee = op.attrs["callee"]
        if callee.startswith("mpi."):
            reverse_mpi_call(self, op, scope)
            return
        if callee == "task.wait":
            spawn_op, pairs = self._spawn_of_wait[op]
            new = SpawnOp(framework=spawn_op.attrs.get("framework", "julia"))
            b.emit(new)
            inner = _Scope(scope, spawn_op, new.body, new)
            for s_iv, w_iv in pairs:
                bound = self._avail(w_iv, scope)
                inner.bind(s_iv, bound)
            self.rev_parallel_stack.append(spawn_op)
            try:
                with b.at(new.body):
                    self._reverse_block(spawn_op.body, inner)
            finally:
                self.rev_parallel_stack.pop()
            scope.bind(("revshadow", op.operands[0]), new.result)
            return
        if callee == "jl.gc_preserve_end":
            tok = op.operands[0]
            src = tok.op  # gc_preserve_begin
            ptrs = []
            for v in src.operands:
                pv = self._rev_primal_ptr(v, scope)
                if pv is not None:
                    ptrs.append(pv)
                sv = self._rev_shadow_ptr_or_none(v, scope)
                if sv is not None and sv not in ptrs:
                    ptrs.append(sv)
            scope.bind(("revtok", src), b.emit(
                CallOp("jl.gc_preserve_begin", ptrs, Token)))
            return
        if callee == "jl.gc_preserve_begin":
            rtok = scope.lookup(("revtok", op))
            if rtok is not None:
                b.call("jl.gc_preserve_end", rtok)
            return
        if callee in ("jl.safepoint",):
            b.call("jl.safepoint")
            return
        # Pure / diagnostic intrinsics: nothing to reverse.
        return

    # ==================================================================
    # Availability machinery
    # ==================================================================
    def _avail(self, v: Value, scope: _Scope) -> Value:
        if isinstance(v, Constant):
            return v
        bound = scope.lookup(("avail", v))
        if bound is not None:
            return bound
        if isinstance(v, (Argument,)):
            return self.arg_map[v]
        if isinstance(v, BlockArg):
            direct = scope.lookup(v)
            if direct is not None:
                return direct
            raise ADTransformError(f"induction value {v!r} is not bound in "
                                   f"this reverse scope")
        res = self.plan.resolution.get(v)
        if res is None or res == "free":
            if depth_of(v) == 0:
                return self.pm[v]
            raise ADTransformError(
                f"value {v!r} needed in reverse but not planned "
                f"(planner bug)")
        # Hoist the cache load / rematerialization to the outermost
        # reverse scope where it is valid (the scope mirroring the
        # innermost primal loop containing the definition) — otherwise a
        # pose-level value would be recomputed once per inner-loop
        # iteration of the reverse sweep.
        target = self._hoist_target(v, scope)
        with self._emit_hoisted(target, scope):
            if res == "cache":
                out = self._load_slot(self.plan.slots[v], target)
            else:
                out = self._emit_recompute(v.op, target)
        target.bind(("avail", v), out)
        return out

    _HOISTABLE_REGIONS = ("for", "parallel_for", "while", "fork")

    def _hoist_target(self, v: Value, scope: _Scope) -> _Scope:
        op = v.op if isinstance(v, Result) else None
        if op is None:
            return scope
        nest = set(nest_of(op))
        s = scope
        while (s.parent is not None and s.region_op is not None
               and s.region_op.opcode in self._HOISTABLE_REGIONS
               and s.region_op not in nest):
            s = s.parent
        return s

    @_ctx.contextmanager
    def _emit_hoisted(self, target: _Scope, current: _Scope):
        if target is current:
            yield
            return
        s = current
        while s.parent is not target:
            s = s.parent
        anchor = s.anchor_op
        tmp = Block()
        with self.b.at(tmp):
            yield
        at = target.block.ops.index(anchor)
        for o in tmp.ops:
            o.parent = target.block
            target.block.ops.insert(at, o)
            at += 1

    def _load_slot(self, slot: CacheSlot, scope: _Scope) -> Value:
        b = self.b
        if slot.dyn_anchor is not None:
            buf = scope.lookup(("dynarr", slot.slot_id))
            if buf is None:
                raise ADTransformError(
                    f"dynamic cache array {slot.slot_id} not popped in "
                    f"this reverse scope")
        else:
            buf = self.slot_buffers[slot.slot_id]
        idx = self._slot_flat_index(
            slot, lambda ba: self._avail_ivar(ba, scope))
        return b.emit(LoadOp(buf, idx))

    def _avail_ivar(self, ba: BlockArg, scope: _Scope) -> Value:
        bound = scope.lookup(ba)
        if bound is None:
            raise ADTransformError(
                f"loop index {ba!r} not bound in reverse scope")
        return bound

    def _emit_recompute(self, op: Op, scope: _Scope) -> Value:
        b = self.b
        oc = op.opcode
        if oc in OP_INFO:
            args = [self._avail(o, scope) for o in op.operands]
            return b.emit(ComputeOp(oc, args, dict(op.attrs)))
        if oc == "load":
            ptr = self._rev_primal_ptr(op.operands[0], scope)
            idx = self._avail(op.operands[1], scope)
            return b.emit(LoadOp(ptr, idx))
        if oc == "call":
            args = [self._avail(o, scope) for o in op.operands]
            return b.emit(CallOp(op.attrs["callee"], args, op.result.type,
                                 dict(op.attrs)))
        raise ADTransformError(f"cannot recompute {op!r}")

    # --- pointer re-derivation ------------------------------------------
    def _rev_primal_ptr(self, ptr: Value, scope: _Scope) -> Value:
        if isinstance(ptr, Argument):
            return self.arg_map[ptr]
        key = ("pptr", ptr)
        bound = scope.lookup(key)
        if bound is not None:
            return bound
        op = ptr.op
        b = self.b
        if op.opcode == "alloc":
            if depth_of(ptr) == 0:
                out = self.pm[ptr]
            else:
                raise ADTransformError(
                    "primal pointer to a region-local allocation is not "
                    "available in the reverse pass")
        elif op.opcode == "ptradd":
            out = b.ptradd(self._rev_primal_ptr(op.operands[0], scope),
                           self._avail(op.operands[1], scope))
        elif op.opcode == "load":
            if op in self.plan.ptr_cached_loads:
                out = self._load_slot(self.plan.slots[(op, "pptr")], scope)
            else:
                out = b.emit(LoadOp(
                    self._rev_primal_ptr(op.operands[0], scope),
                    self._avail(op.operands[1], scope)))
        elif op.opcode == "call" and op.attrs["callee"] == "jl.arrayptr":
            out = b.emit(CallOp(
                "jl.arrayptr", [self._rev_primal_ptr(op.operands[0], scope)],
                op.result.type))
        else:
            raise ADTransformError(f"cannot re-derive pointer from {op!r}")
        scope.bind(key, out)
        return out

    def _rev_shadow_ptr(self, ptr: Value, scope: _Scope) -> Value:
        out = self._rev_shadow_ptr_or_none(ptr, scope)
        if out is None:
            raise ADTransformError(f"no shadow derivation for {ptr!r}")
        return out

    def _rev_shadow_ptr_or_none(self, ptr: Value,
                                scope: _Scope) -> Optional[Value]:
        if isinstance(ptr, Argument):
            return self.shadow_arg_map.get(ptr, self.arg_map[ptr])
        key = ("sptr", ptr)
        bound = scope.lookup(key)
        if bound is not None:
            return bound
        op = ptr.op
        b = self.b
        if op.opcode == "alloc":
            slot = self.plan.slot_for((op, "shadowptr"))
            fresh = scope.lookup(("freshshadow", op))
            if slot is not None:
                out = self._load_slot(slot, scope)
            elif fresh is not None:
                out = fresh
            elif depth_of(ptr) == 0:
                out = self.sm[ptr]
            else:
                raise ADTransformError(
                    f"shadow of region-local alloc {op!r} missing")
        elif op.opcode == "ptradd":
            out = b.ptradd(self._rev_shadow_ptr(op.operands[0], scope),
                           self._avail(op.operands[1], scope))
        elif op.opcode == "load":
            if op in self.plan.ptr_cached_loads:
                out = self._load_slot(self.plan.slots[(op, "sptr")], scope)
            else:
                out = b.emit(LoadOp(
                    self._rev_shadow_ptr(op.operands[0], scope),
                    self._avail(op.operands[1], scope)))
        elif op.opcode == "call" and op.attrs["callee"] == "jl.arrayptr":
            out = b.emit(CallOp(
                "jl.arrayptr", [self._rev_shadow_ptr(op.operands[0], scope)],
                op.result.type))
        else:
            return None
        scope.bind(key, out)
        return out

    # ==================================================================
    # Adjoint accumulation
    # ==================================================================
    def _adj_read(self, v: Value, scope: _Scope) -> Optional[Value]:
        storage = self.adj_storage.get(v)
        if storage == "ssa" or storage is None:
            return scope.lookup(("adj", v))
        if storage == "active-cell":
            return self.b.load(self._active_cell, 0)
        b = self.b
        buf, idx = self._adj_slot_ref(self.adj_slots[v], scope)
        out = b.load(buf, idx)
        b.store(0.0, buf, idx)  # reset for reuse across serial iterations
        return out

    def _adj_slot_ref(self, slot: CacheSlot, scope: _Scope
                      ) -> tuple[Value, Value]:
        """(buffer, index) of an adjoint slot in this reverse scope."""
        if slot.dyn_anchor is not None:     # per-lane cell (_make_adj_slot)
            return scope.lookup(("adjcell", slot.slot_id)), Constant(0, I64)
        return self.slot_buffers[slot.slot_id], self._slot_flat_index(
            slot, lambda ba: self._avail_ivar(ba, scope))

    def _adj_accum(self, v: Value, contrib: Value, scope: _Scope) -> None:
        if isinstance(v, Constant) or v.type is not F64:
            return
        if isinstance(v, Argument):
            if v is self._active_scalar:
                if self.rev_parallel_stack:
                    kind = (ATOMIC if self.config.atomic_everywhere
                            else REDUCTION)
                else:
                    kind = SERIAL if self._rev_lane is None else LANES
                self._emit_increment(kind, contrib, self._active_cell,
                                     Constant(0, I64))
            return
        if isinstance(v, BlockArg):
            return
        if not self.activity.value_active(v):
            return
        storage = self.adj_storage.get(v, "ssa")
        if storage == "ssa":
            cur = scope.lookup(("adj", v))
            if cur is None:
                scope.bind(("adj", v), contrib)
            else:
                scope.bind(("adj", v), self.b.add(cur, contrib))
            return
        # Slot storage.
        slot = self.adj_slots[v]
        buf, idx = self._adj_slot_ref(slot, scope)
        kind = self._slot_increment_kind(slot)
        self._emit_increment(kind, contrib, buf, idx)

    def _slot_increment_kind(self, slot: CacheSlot) -> str:
        if slot.dyn_anchor is not None:
            return SERIAL       # per-lane cell, private by construction
        if self.rev_parallel_stack and \
                self.rev_parallel_stack[-1] not in slot.dims:
            return ATOMIC if self.config.atomic_everywhere else REDUCTION
        # Thread-private; lane-private only when the vectorised loop
        # is one of the slot's dimensions.
        if self._rev_lane is None or self._rev_lane in slot.dims:
            return SERIAL
        return LANES
