"""IR -> Python lowering for the compiled execution backend.

The :class:`Lowerer` translates one verified IR function into the
source of a generated Python *generator function* executing against the
interpreter instance (``rt``) as shared runtime state:

* straight-line f64/i64 arithmetic becomes native Python/NumPy
  expressions over SSA locals (one local per IR value);
* ``simd``/worksharing loop bodies and ``parallel_for`` bodies are
  vectorized exactly like the interpreter vectorizes them — the
  induction variable is bound to an ``np.arange`` index vector and
  elementwise ops become NumPy array kernels over the Executor's
  buffers;
* chains of single-use elementwise ops are *fused* (see
  :mod:`repro.interp.fusion`): instead of one generated statement (and
  one materialized temporary) per op, a whole chain collapses into one
  fused-kernel expression, often folded directly into the consuming
  store — Dr.Jit-style trace fusion at the source level;
* vectorized ``if`` regions run masked, with the mask published to
  ``rt.mask``/``rt.mask_count`` so memory helpers and interpreter
  bridges see the exact interpreter state; the lowering tracks mask
  state *statically*, so code outside masked branches uses memory
  helpers with no mask handling at all;
* loads/stores whose index vector is statically monotone (induction
  vectors and affine combinations) call the ``_ldm``/``_stm`` helper
  family: endpoint bounds checks and slice-copy fast paths instead of
  ``O(width)`` reductions and gather/scatter.  These are one-line
  calls on purpose — generated source size, not helper-call overhead,
  is what sets ``compile()`` time and peak memory for a large adjoint;
* instruction-cost accounting is aggregated statically: each
  straight-line segment contributes one ``_acc(...)`` call instead of
  one ``CostVector`` update per op, with per-lane counts scaled by the
  region width local;
* anything the lowering cannot translate (``spawn`` tasks, ``if`` with
  a condition of statically-unknown vectorization, unknown opcodes)
  falls back *op-by-op* to the interpreter through ``_bg`` bridges that
  materialize the op's free SSA values into an interpreter ``env``.

Bit-identity contract: every emitted expression either is the exact
NumPy ufunc the interpreter would call, or a Python operator whose
IEEE-754 result is identical for the value types that can occur (float
``+``/``-``/``*`` and comparisons).  Division, min/max, pow and the
transcendentals always go through the interpreter's own ufuncs —
Python's operators differ observably there (``ZeroDivisionError``,
NaN propagation, complex results).  Fusion composes those exact
expressions without reassociating anything, so fused and unfused
execution are bit-identical too.

This module is pure code generation; the runtime helpers the generated
source calls live in :mod:`repro.interp.compile`.
"""

from __future__ import annotations

from typing import Optional

from ..ir.opinfo import OP_INFO
from ..ir.ops import Op
from ..ir.values import Argument, BlockArg, Constant, Result, Value
from .fusion import (
    FUSE_CHAR_CAP,
    FUSE_OP_CAP,
    ExprFuser,
    count_uses,
    mono_add,
    mono_neg,
    mono_relax,
    mono_scale,
)


class LoweringError(Exception):
    """Raised when a function cannot be lowered; caller falls back to
    the interpreter for the whole function."""


#: Float ops whose Python operator is bit-identical to the interpreter's
#: ufunc for every input (IEEE-754 basic ops; ``fma`` is evaluated as
#: ``a * b + c`` by the interpreter too).
_OPERATOR_TEMPLATES = {
    "add": "({a} + {b})",
    "sub": "({a} - {b})",
    "mul": "({a} * {b})",
    "neg": "(-{a})",
    "abs": "abs({a})",
    "fma": "({a} * {b} + {c})",
}

#: Comparison predicates -> Python operators (same truth value as the
#: interpreter's np.less/np.greater/... for scalars and arrays alike).
_CMP_TEMPLATES = {
    "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!=",
}

#: Cost classes accumulated by segment aggregation, in `_acc` argument
#: order.  COST_FREE contributes nothing (matches CostVector.add_class).
_ACC_CLASSES = ("flop", "div", "special", "int")

#: Opcodes whose monotonicity can be derived from their operands (the
#: index-arithmetic algebra; see repro.interp.fusion).
_MONO_ADD_OPS = {"add", "iadd"}
_MONO_SUB_OPS = {"sub", "isub"}
_MONO_MUL_OPS = {"mul", "imul"}
_MONO_NEG_OPS = {"neg", "ineg"}
_MONO_KEEP_OPS = {"itof", "ftoi"}
_MONO_CLAMP_OPS = {"min", "max", "imin", "imax"}
#: Exact integer arithmetic preserves *strict* monotonicity; everything
#: else (float rounding, ftoi, clamps) demotes to non-strict.
_MONO_STRICT_OPS = {"iadd", "isub", "ineg", "imul"}


def free_values(op) -> list:
    """SSA values used inside ``op`` (or its regions) but defined outside.

    These are exactly the values an interpreter bridge must seed into
    the ``env`` dict before handing the op to ``rt._gen_dispatch``.
    """
    defined = set()
    used = []
    for o in op.walk():
        for region in o.regions:
            defined.update(region.args)
        if o.result is not None:
            defined.add(o.result)
        for v in o.operands:
            if type(v) is not Constant:
                used.append(v)
    return [v for v in dict.fromkeys(used) if v not in defined]


def const_recipe(fn, consts: dict) -> list:
    """Address every object in a lowered function's constant table by
    its position in ``fn`` — the table as it can be stored beside the
    code.  The lowering references four kinds of object: ops (``alloc``,
    ``call`` and bridged ops, with their opcode for the reader to check),
    values (a bridged op's result or a free value it reads: an op
    result, a function argument or a region's block argument) and
    ``OP_INFO`` evaluate functions.  Op positions are pre-order indexes
    of ``fn.walk()``; entry ``i`` addresses ``consts["_k<i>"]``."""
    index = {op: i for i, op in enumerate(fn.walk())}
    evaluates = {id(info.evaluate): oc for oc, info in OP_INFO.items()}
    recipe: list = []
    for obj in consts.values():
        if isinstance(obj, Op):
            recipe.append(("op", index[obj], obj.opcode))
        elif isinstance(obj, Result):
            recipe.append(("result", index[obj.op]))
        elif isinstance(obj, Argument):
            recipe.append(("arg", fn.args.index(obj)))
        elif isinstance(obj, BlockArg):
            r, blk = next((r, blk) for r, blk in enumerate(obj.owner.regions)
                          if obj in blk.args)
            recipe.append(("blockarg", index[obj.owner], r,
                           blk.args.index(obj)))
        else:
            recipe.append(("evaluate", evaluates[id(obj)]))
    return recipe


def resolve_consts(fn, recipe) -> dict:
    """The constant table :func:`const_recipe` describes, rebuilt
    against the live ``fn``.  Raises (``IndexError``, ``KeyError``,
    ``ValueError``, ``TypeError``, ``AttributeError``) when the recipe
    does not fit the function; nothing is returned in that case."""
    ops = list(fn.walk())
    consts = {}
    for i, (kind, *at) in enumerate(recipe):
        if kind == "evaluate":
            obj = OP_INFO[at[0]].evaluate
        elif kind == "arg":
            obj = fn.args[at[0]]
        elif kind == "op":
            obj = ops[at[0]]
            if obj.opcode != at[1]:
                raise ValueError(f"op {at[0]} is {obj.opcode!r}, the "
                                 f"recipe wants {at[1]!r}")
        elif kind == "result":
            obj = ops[at[0]].result
            if obj is None:
                raise ValueError(f"op {at[0]} has no result")
        elif kind == "blockarg":
            obj = ops[at[0]].regions[at[1]].args[at[2]]
        else:
            raise ValueError(f"unknown recipe entry {kind!r}")
        consts[f"_k{i}"] = obj
    return consts


def _literal(c: Constant) -> str:
    # repr() of Python floats round-trips exactly; ints and bools are
    # exact by construction.
    return repr(c.value)


def _const_sign(v) -> Optional[int]:
    """Sign of a numeric Constant, or None for non-constants."""
    if type(v) is Constant and isinstance(v.value, (int, float)):
        return (v.value > 0) - (v.value < 0)
    return None


class Lowerer:
    """Lower one IR function to Python generator-function source."""

    def __init__(self, fn, fusion: bool = True, native=None,
                 bounds=None) -> None:
        self.fn = fn
        self.fusion = fusion
        #: Optional native-kernel emitter (repro.interp.native); when
        #: set, claimable fused chains additionally lower to a C kernel
        #: call with the generated-NumPy expression as runtime fallback.
        self.native = native
        #: Optional static bounds facts (repro.passes.intervals
        #: IntervalAnalysis): accesses the analysis certified in-bounds
        #: drop their open-coded runtime bounds checks; everything else
        #: keeps them.  A certified check can never fire, so eliding it
        #: preserves bit-identity with the interpreter.
        self.bounds = bounds
        #: Value -> CExpr for pending fused values the native emitter
        #: can also render (keys are a subset of ``fuser.pending``).
        self.cpend: dict = {}
        self.lines: list[str] = []
        self._ind = 0
        self._n = 0
        #: Value -> generated local name.
        self.names: dict[Value, str] = {}
        #: Value -> True (lane-varying) / False (uniform) / None (only
        #: decidable at runtime; cost falls back to rt._width).
        self.vary: dict[Value, Optional[bool]] = {}
        #: Value -> monotonicity class of lane-varying values (see
        #: repro.interp.fusion): +1 / -1 monotone, None unknown.
        self.mono: dict[Value, Optional[int]] = {}
        #: Objects the generated code references by global name.
        self.consts: dict[str, object] = {}
        self._const_ids: dict[int, str] = {}
        #: Static vectorization depth (0 = scalar context).
        self.depth = 0
        #: Statically inside a masked (vectorized-if) branch: memory
        #: helpers must consult rt.mask.  Outside, rt.mask is None by
        #: the caller guards in compile._cu / CompiledBackend.
        self.masked = False
        #: Expression for the current per-lane width ("1" when scalar).
        self.wexpr = "1"
        #: Loop-nesting depth (any flavor).  Inside loops, statically
        #: scalar memory accesses are open-coded instead of calling the
        #: ``_ld``/``_st`` helpers: the call overhead itself dominates
        #: element-by-element adjoint sweeps.
        self.loops = 0
        #: Pending straight-line cost: class -> [uniform, varying] counts.
        self._seg: dict[str, list[int]] = {}
        #: Trace fusion state (pending single-use expressions).
        self.fuser = ExprFuser(self)
        self.uses = count_uses(fn) if fusion else {}

    # -- source emission helpers ---------------------------------------
    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self._ind + line if line else "")

    def fresh(self, prefix: str = "_t") -> str:
        self._n += 1
        return f"{prefix}{self._n}"

    def konst(self, obj) -> str:
        name = self._const_ids.get(id(obj))
        if name is None:
            name = f"_k{len(self.consts)}"
            self.consts[name] = obj
            self._const_ids[id(obj)] = name
        return name

    def ref(self, v: Value) -> str:
        """Expression for ``v`` — a pending fused expression (consumed)
        or its local name.  Use only where the result appears exactly
        once in the emitted text."""
        if type(v) is Constant:
            return _literal(v)
        ent = self.fuser.take(v)
        if ent is not None:
            return ent[0]
        try:
            return self.names[v]
        except KeyError:
            raise LoweringError(f"use of value {v!r} before definition")

    def ref_local(self, v: Value) -> str:
        """Like :meth:`ref` but guarantees a local name (materializes a
        pending expression), for templates that repeat the operand."""
        if type(v) is Constant:
            return _literal(v)
        name = self.fuser.materialize(v)
        if name is not None:
            return name
        try:
            return self.names[v]
        except KeyError:
            raise LoweringError(f"use of value {v!r} before definition")

    def bind(self, v: Value, varying: Optional[bool],
             mono: Optional[int] = None) -> str:
        name = self.fresh("v")
        self.names[v] = name
        self.vary[v] = varying
        if mono is not None:
            self.mono[v] = mono
        return name

    def vary_of(self, v: Value) -> Optional[bool]:
        if type(v) is Constant:
            return False
        return self.vary.get(v, False)

    def mono_of(self, v: Value) -> Optional[int]:
        """Monotonicity class of ``v``: 0 for uniform values, +1/-1 for
        monotone index vectors, None when unknown."""
        vr = self.vary_of(v)
        if vr is False:
            return 0
        if vr is None:
            return None
        return self.mono.get(v)

    def _join_vary(self, operands) -> Optional[bool]:
        out: Optional[bool] = False
        for v in operands:
            x = self.vary_of(v)
            if x is True:
                return True
            if x is None:
                out = None
        return out

    # -- cost segments -------------------------------------------------
    def seg_add(self, cost_class: str, varying: bool) -> None:
        if cost_class == "free":
            return
        cell = self._seg.setdefault(cost_class, [0, 0])
        cell[1 if varying else 0] += 1

    def flush_seg(self) -> None:
        if not self._seg:
            return
        args = []
        for cls in _ACC_CLASSES:
            u, vr = self._seg.get(cls, (0, 0))
            if vr and self.wexpr != "1":
                args.append(f"{u} + {vr}*{self.wexpr}" if u else
                            f"{vr}*{self.wexpr}")
            else:
                args.append(str(u + vr))
        self._seg.clear()
        if any(a != "0" for a in args):
            self.emit(f"_acc(rt, {', '.join(args)})")

    def flush_all(self) -> None:
        """Materialize pending fused expressions and flush the cost
        segment — called at every control-flow boundary."""
        self.fuser.flush()
        self.flush_seg()

    # -- native kernel claims ------------------------------------------
    def _emit_native_assign(self, res: str, cexp, pyexpr: str) -> None:
        """Bind ``res`` through a native kernel call, keeping the exact
        generated-NumPy expression as the runtime fallback (the wrapper
        returns None when a buffer does not match its static claim)."""
        gname, args = self.native.kernel_for(cexp)
        call_args = "".join(", " + a for a in args)
        self.emit(f"{res} = {gname}({self.wexpr}{call_args})")
        self.emit(f"if {res} is None: {res} = {pyexpr}")

    def native_materialize(self, value, expr: str) -> Optional[str]:
        """Claim hook for :meth:`ExprFuser.materialize`: when the
        pending value also carries a worthwhile CExpr, bind it through
        the native kernel call instead of a plain assignment.  Returns
        the bound name, or None to use the plain path."""
        cexp = self.cpend.pop(value, None)
        if (cexp is None or self.native is None
                or not self.native.worthwhile(cexp)):
            return None
        name = self.fresh("v")
        self.names[value] = name
        self._emit_native_assign(name, cexp, expr)
        return name

    def native_try_claim(self, v) -> None:
        """Force a pending value through the claim path when worthwhile
        — used where the consumer would otherwise inline the fused
        python chain into a memory-helper call."""
        if self.native is None:
            return
        cexp = self.cpend.get(v)
        if cexp is not None and self.native.worthwhile(cexp):
            self.fuser.materialize(v)

    # ------------------------------------------------------------------
    def build(self) -> tuple[str, dict, "FusionStats"]:
        """Return ``(source, consts, fusion_stats)`` for this function.

        The source ends in two literals, ``_CONSTS`` (the recipe of
        ``consts``, see :func:`const_recipe`) and ``_STATS``
        (``fusion_stats.as_dict()``): a process handed the compiled
        module and the function can rebuild the other two results
        without lowering."""
        fn = self.fn
        arg_names = [self.bind(a, False) for a in fn.args]
        head = f"def _compiled(rt{''.join(', ' + a for a in arg_names)}):"
        self.emit(head)
        self._ind += 1
        self.emit("if False:")
        self.emit("    yield")
        body_start = len(self.lines)
        self.lower_block(fn.body, top_level=True)
        self.flush_all()
        if len(self.lines) == body_start:
            self.emit("pass")
        stats = self.fuser.stats
        stats.fused_ops = max(0, stats.ops - stats.kernels)
        self.lines.append(f"_CONSTS = {const_recipe(fn, self.consts)!r}")
        self.lines.append(f"_STATS = {stats.as_dict()!r}")
        return "\n".join(self.lines) + "\n", self.consts, stats

    # ------------------------------------------------------------------
    def lower_block(self, block, top_level: bool = False) -> None:
        # Invariant: entered with no pending fused expressions (every
        # region lowerer calls flush_all before emitting its header).
        start = len(self.lines)
        for op in block.ops:
            if op.opcode == "return":
                if top_level:
                    val = self.ref(op.operands[0]) if op.operands else "None"
                    self.fuser.pending.clear()  # dead beyond the return
                    self.cpend.clear()
                    self.flush_seg()
                    self.emit(f"return {val}")
                else:
                    self.fuser.pending.clear()
                    self.cpend.clear()
                    self.flush_seg()
                    if len(self.lines) == start:
                        self.emit("pass")
                # A nested return just ends this block in the
                # interpreter (region executors discard the signal), so
                # the remaining ops of the block are dead either way.
                return
            self.lower_op(op)
        self.flush_all()
        if len(self.lines) == start:
            self.emit("pass")

    def lower_op(self, op) -> None:
        oc = op.opcode
        info = OP_INFO.get(oc)
        if info is not None:
            self.lower_compute(op, info)
        elif oc == "load":
            self.lower_load(op)
        elif oc == "store":
            self.lower_store(op)
        elif oc == "atomic":
            via = op.attrs.get("via")
            proven = self._bounds_proven(op)
            if self.masked:
                self.emit(f"_atk(rt, {op.attrs['kind']!r}, {via!r}, "
                          f"{self.ref(op.operands[0])}, "
                          f"{self.ref(op.operands[1])}, "
                          f"{self.ref(op.operands[2])})")
            else:
                self.fuser.stats.fast_atomics += 1
                val_v, ptr_v, idx_v = op.operands
                if (self.vary_of(ptr_v) is False
                        and self.vary_of(idx_v) is False
                        and self.vary_of(val_v) is True):
                    # Scalar target accumulating a lane vector (the
                    # adjoint of a broadcast read): open-code the
                    # ordered ``accumulate`` fold from ``_at``.
                    uf = {"add": "np.add", "min": "np.minimum",
                          "max": "np.maximum"}[op.attrs["kind"]]
                    v = self.ref_local(val_v)
                    p = self.ref_local(ptr_v)
                    i = self.ref_local(idx_v)
                    b, x, dd = (self.fresh("_b"), self.fresh("_x"),
                                self.fresh("_d"))
                    self.emit(f"if type({v}) is np.ndarray "
                              f"and {v}.ndim == 1:")
                    self._ind += 1
                    self.emit(f"{b} = {p}.buffer")
                    self.emit(f"if {b}.freed: {b}.check_alive()")
                    self.emit(f"{x} = {p}.offset + {i}")
                    self.emit(f"{dd} = {b}.data")
                    if proven:
                        self.fuser.stats.checks_elided += 1
                    else:
                        self.emit(f"if {x} < 0 or {x} >= {dd}.size: "
                                  f"Memory._check_bounds({b}, {x})")
                    fold = (f"{uf}.accumulate(np.concatenate("
                            f"(({dd}[{x}:{x} + 1]), {v})))[-1]")
                    if self.native is not None:
                        # Ordered sequential fold in C; the helper
                        # returns None when the buffers do not match
                        # its static claim and the accumulate runs.
                        fname = self.native.fold_name(op.attrs["kind"],
                                                      proven)
                        r = self.fresh("_r")
                        self.emit(f"{r} = {fname}({dd}, {x}, {v})")
                        self.emit(f"if {r} is None: {dd}[{x}] = {fold}")
                        self.emit(f"else: {dd}[{x}] = {r}")
                    else:
                        self.emit(f"{dd}[{x}] = {fold}")
                    self.emit(f"rt.cost.add_rmw({via!r}, "
                              f"{v}.size if {v}.size > 1 else 1)")
                    self._ind -= 1
                    self.emit(f"else: _at(rt, {op.attrs['kind']!r}, "
                              f"{via!r}, {v}, {p}, {i}, 0)")
                    return
                d = mono_add(self.mono_of(ptr_v), self.mono_of(idx_v))
                self.emit(f"_at(rt, {op.attrs['kind']!r}, {via!r}, "
                          f"{self.ref(val_v)}, "
                          f"{self.ref(ptr_v)}, "
                          f"{self.ref(idx_v)}, {d or 0})")
        elif oc == "alloc":
            vec = self.depth > 0
            # Lane-privatised offsets are arange(w) * count: strictly
            # increasing for a positive constant count.
            cnt = op.operands[0]
            strict = type(cnt) is Constant and cnt.value >= 1
            res = self.bind(op.result, vec, (2 if strict else 1) if vec else 0)
            self.emit(f"{res} = _al(rt, {self.konst(op)}, "
                      f"{self.ref(op.operands[0])})")
        elif oc == "ptradd":
            base, idx = op.operands
            res = self.bind(op.result, self._join_vary(op.operands),
                            mono_add(self.mono_of(base), self.mono_of(idx)))
            self.emit(f"{res} = {self.ref(base)}"
                      f".added({self.ref(idx)})")
            self.seg_add("int", False)
        elif oc == "memset":
            self.emit(f"_ms(rt, {self.ref(op.operands[0])}, "
                      f"{self.ref(op.operands[1])}, "
                      f"{self.ref(op.operands[2])})")
        elif oc == "memcpy":
            self.emit(f"_mc(rt, {self.ref(op.operands[0])}, "
                      f"{self.ref(op.operands[1])}, "
                      f"{self.ref(op.operands[2])})")
        elif oc == "free":
            self.emit(f"rt.memory.free({self.ref(op.operands[0])})")
        elif oc == "cache_create":
            self.emit(f"{self.bind(op.result, False)} = DynCache()")
        elif oc == "cache_push":
            self.emit(f"{self.ref(op.operands[0])}.push("
                      f"{self.ref(op.operands[1])})")
            self.emit("rt.cost.add_store(8)")
        elif oc == "cache_pop":
            self.emit(f"{self.bind(op.result, None)} = "
                      f"{self.ref(op.operands[0])}.pop()")
            self.emit("rt.cost.add_load(8)")
        elif oc == "for":
            self.lower_for(op)
        elif oc == "parallel_for":
            self.lower_parallel_for(op)
        elif oc == "if":
            self.lower_if(op)
        elif oc == "while":
            self.lower_while(op)
        elif oc == "fork":
            self.lower_fork(op)
        elif oc == "call":
            self.lower_call(op)
        elif oc == "barrier":
            self.flush_all()
            self.emit("if rt._fork_depth == 0:")
            self.emit("    raise InterpreterError("
                      "'barrier outside an executing fork region')")
            self.emit("yield BarrierEvent()")
        elif oc == "condition":
            c = self.ref_local(op.operands[0])
            self.emit(f"if isinstance({c}, np.ndarray) and {c}.size > 1:")
            self.emit("    raise InterpreterError('data-dependent while "
                      "inside a vectorized region')")
            self.emit(f"rt._while_flag = bool({c})")
        elif oc == "spawn":
            self.lower_bridge(op)
        else:
            raise LoweringError(f"no lowering for opcode {oc!r}")

    # ------------------------------------------------------------------
    def _operand(self, v: Value) -> tuple[str, int]:
        """(expression, fused-op count) for one compute operand,
        inlining a pending fused expression when ``v`` carries one."""
        if type(v) is Constant:
            return _literal(v), 0
        ent = self.fuser.take(v)
        if ent is not None:
            return ent
        try:
            return self.names[v], 0
        except KeyError:
            raise LoweringError(f"use of value {v!r} before definition")

    def _result_mono(self, oc, op, operand_monos) -> Optional[int]:
        """Monotonicity of a compute result (index-arithmetic algebra)."""
        if oc in _MONO_ADD_OPS:
            m = mono_add(operand_monos[0], operand_monos[1])
        elif oc in _MONO_SUB_OPS:
            m = mono_add(operand_monos[0], mono_neg(operand_monos[1]))
        elif oc in _MONO_NEG_OPS:
            m = mono_neg(operand_monos[0])
        elif oc in _MONO_KEEP_OPS:
            m = operand_monos[0]
        elif oc in _MONO_MUL_OPS:
            a, b = op.operands
            sa, sb = _const_sign(a), _const_sign(b)
            if sa is not None:
                m = mono_scale(operand_monos[1], sa)
            elif sb is not None:
                m = mono_scale(operand_monos[0], sb)
            else:
                m = None
        elif oc in _MONO_CLAMP_OPS:
            # min/max against a uniform bound preserves direction but
            # plateaus at the bound (never strict).
            ma, mb = operand_monos
            if ma == 0:
                m = mb
            elif mb == 0:
                m = ma
            else:
                m = ma if ma == mb else None
        else:
            return None
        return m if oc in _MONO_STRICT_OPS else mono_relax(m)

    def lower_compute(self, op, info) -> None:
        oc = op.opcode
        varying = self._join_vary(op.operands)
        cexp = None
        if (self.native is not None and varying is True
                and self.depth > 0 and not self.masked):
            # Compose a C rendering in parallel with the python one.
            # Composition consumes the operands' pending CExprs; the
            # python pending entries are untouched, so a failed compose
            # only breaks the *claim* chain, never the fused lowering.
            cexp = self.native.compose(op, self)
        nops = 1
        if oc == "cmp":
            a, na = self._operand(op.operands[0])
            b, nb = self._operand(op.operands[1])
            nops += na + nb
            pyop = _CMP_TEMPLATES[op.attrs["pred"]]
            expr = f"({a} {pyop} {b})"
        elif oc == "select":
            cv = self.vary_of(op.operands[0])
            if cv is True:
                refs, counts = zip(*(self._operand(v) for v in op.operands))
                nops += sum(counts)
                expr = f"np.where({refs[0]}, {refs[1]}, {refs[2]})"
            elif cv is False:
                refs, counts = zip(*(self._operand(v) for v in op.operands))
                nops += sum(counts)
                expr = f"({refs[1]} if {refs[0]} else {refs[2]})"
            else:
                # The runtime-dispatch template repeats every operand,
                # so they must be materialized locals.
                refs = [self.ref_local(v) for v in op.operands]
                where = f"np.where({refs[0]}, {refs[1]}, {refs[2]})"
                pick = f"({refs[1]} if {refs[0]} else {refs[2]})"
                expr = (f"({where} if isinstance({refs[0]}, np.ndarray) "
                        f"else {pick})")
            # A select between a varying and a uniform arm under a
            # uniform condition has runtime-dependent width.
            if varying is not True and cv is not True and \
                    self._join_vary(op.operands[1:]) is not False:
                varying = None
        elif oc in _OPERATOR_TEMPLATES:
            parts = [self._operand(v) for v in op.operands]
            nops += sum(n for _, n in parts)
            refs = [e for e, _ in parts]
            expr = _OPERATOR_TEMPLATES[oc].format(
                a=refs[0],
                b=refs[1] if len(refs) > 1 else "",
                c=refs[2] if len(refs) > 2 else "")
        else:
            # Everything else calls the interpreter's own evaluate
            # function (NumPy ufunc or array-aware lambda) — identical
            # numerics by construction.
            parts = [self._operand(v) for v in op.operands]
            nops += sum(n for _, n in parts)
            refs = [e for e, _ in parts]
            expr = f"{self.konst(info.evaluate)}({', '.join(refs)})"
        mono = (self._result_mono(oc, op, [self.mono_of(v)
                                           for v in op.operands])
                if varying is True else None)
        stats = self.fuser.stats
        stats.ops += 1
        if varying is None:
            res = self.bind(op.result, varying, mono)
            self.emit(f"{res} = {expr}")
            stats.kernels += 1
            self.flush_seg()
            self.emit(f"_aw(rt, {info.cost!r}, {res})")
            return
        self.seg_add(info.cost, varying)
        if (self.fusion and self.uses.get(op.result, 0) == 1
                and nops <= FUSE_OP_CAP and len(expr) <= FUSE_CHAR_CAP):
            # Single consumer: defer as a pending fused expression.
            self.vary[op.result] = varying
            if mono is not None:
                self.mono[op.result] = mono
            if cexp is not None:
                self.cpend[op.result] = cexp
            self.fuser.defer(op.result, expr, nops)
            return
        res = self.bind(op.result, varying, mono)
        if cexp is not None and self.native.worthwhile(cexp):
            self._emit_native_assign(res, cexp, expr)
        else:
            self.emit(f"{res} = {expr}")
        stats.kernels += 1

    # ------------------------------------------------------------------
    def _bounds_proven(self, op) -> bool:
        """Classify one memory-access op against the static bounds
        facts (when available), keeping the proven/unproven tallies,
        and return whether its runtime bounds check may be elided."""
        facts = self.bounds
        if facts is None:
            return False
        stats = self.fuser.stats
        if facts.proven(op):
            stats.bounds_proven += 1
            return True
        stats.bounds_unproven += 1
        return False

    def _emit_scalar_access(self, ptr_v, idx_v, proven: bool = False
                            ) -> tuple:
        """Open-code the shared prefix of a statically-scalar memory
        access (buffer resolve, liveness, address, bounds), mirroring
        the scalar fast path of ``compile._ld``/``_st`` statement by
        statement.  Returns ``(buf, addr, data)`` local names.

        ``proven`` sites (statically certified in-bounds) skip the
        bounds check entirely — the check could never fire there."""
        p = self.ref_local(ptr_v)
        i = self.ref(idx_v)
        b, x, dd = self.fresh("_b"), self.fresh("_x"), self.fresh("_d")
        self.emit(f"{b} = {p}.buffer")
        self.emit(f"if {b}.freed: {b}.check_alive()")
        self.emit(f"{x} = {p}.offset + {i}")
        self.emit(f"{dd} = {b}.data")
        if proven:
            self.fuser.stats.checks_elided += 1
        else:
            self.emit(f"if {x} < 0 or {x} >= {dd}.size: "
                      f"Memory._check_bounds({b}, {x})")
        return b, x, dd

    def lower_load(self, op) -> None:
        ptr_v, idx_v = op.operands
        varying = self._join_vary(op.operands)
        proven = self._bounds_proven(op)
        scal = (self.vary_of(ptr_v) is False
                and self.vary_of(idx_v) is False)
        if scal and self.loops and not self.masked:
            # Statically scalar inside a loop: open-code the access
            # (element-by-element adjoint sweeps are bound on the
            # per-access call overhead, not the numerics).
            b, x, dd = self._emit_scalar_access(ptr_v, idx_v, proven)
            res = self.bind(op.result, False)
            self.emit(f"{res} = {dd}[{x}]")
            self.emit(f"if {b}.stream: rt.cost.stream_bytes += 8")
            self.emit("else: rt.cost.load_bytes += 8")
            return
        vec = (self.vary_of(ptr_v) is True or self.vary_of(idx_v) is True)
        d = mono_add(self.mono_of(ptr_v), self.mono_of(idx_v))
        res = self.bind(op.result, varying)
        if not self.masked and vec and d:
            # Monotone vector gather: endpoint bounds + slice copy when
            # contiguous, all inside the helper (one table for every
            # tier; see compile._make_mono_helpers).
            self.fuser.stats.mono_loads += 1
            helper = "_ldm"
            if proven:
                helper = "_ldmu"
                self.fuser.stats.checks_elided += 1
            if self.native is not None and (d == 2 or d == -2):
                self.native.claim_gather(proven)
            self.emit(f"{res} = {helper}(rt, {self.ref(ptr_v)}, "
                      f"{self.ref(idx_v)}, {d})")
        else:
            helper = "_ldk" if self.masked else "_ld"
            self.emit(f"{res} = {helper}(rt, {self.ref(ptr_v)}, "
                      f"{self.ref(idx_v)})")

    def lower_store(self, op) -> None:
        val_v, ptr_v, idx_v = op.operands
        proven = self._bounds_proven(op)
        scal = (self.vary_of(val_v) is False
                and self.vary_of(ptr_v) is False
                and self.vary_of(idx_v) is False)
        # A worthwhile pending chain claims through the native kernel
        # here; otherwise ref() inlines it into the store as before.
        self.native_try_claim(val_v)
        val = self.ref(val_v)  # may inline a whole fused chain
        if scal and self.loops and not self.masked:
            b, x, dd = self._emit_scalar_access(ptr_v, idx_v, proven)
            self.emit(f"{dd}[{x}] = {val}")
            self.emit(f"if {b}.stream: rt.cost.stream_bytes += 8")
            self.emit("else: rt.cost.store_bytes += 8")
            return
        vec = (self.vary_of(ptr_v) is True or self.vary_of(idx_v) is True)
        d = mono_add(self.mono_of(ptr_v), self.mono_of(idx_v))
        if not self.masked and vec and d:
            self.fuser.stats.mono_stores += 1
            helper = "_stm"
            if proven:
                helper = "_stmu"
                self.fuser.stats.checks_elided += 1
            if self.native is not None and (d == 2 or d == -2):
                self.native.claim_scatter(proven)
            self.emit(f"{helper}(rt, {val}, {self.ref(ptr_v)}, "
                      f"{self.ref(idx_v)}, {d})")
        else:
            helper = "_stk" if self.masked else "_st"
            self.emit(f"{helper}(rt, {val}, {self.ref(ptr_v)}, "
                      f"{self.ref(idx_v)})")

    # ------------------------------------------------------------------
    def _lower_vector_body(self, body, ivar_name: str) -> None:
        """Emit the simd_depth/simd_width bookkeeping + vectorized body.

        The caller has already emitted the ``np.arange`` assignment for
        the induction vector; indentation is inside the enclosing
        ``if trips:`` guard.
        """
        w = self.fresh("_W")
        sw = self.fresh("_sw")
        self.emit(f"{w} = {ivar_name}.size")
        self.emit("rt.simd_depth += 1")
        self.emit(f"{sw} = rt.simd_width")
        self.emit(f"rt.simd_width = {w}")
        self.emit("try:")
        self.emit("    with np.errstate(all='ignore'):")
        saved_depth, saved_w = self.depth, self.wexpr
        self.depth, self.wexpr = self.depth + 1, w
        self._ind += 2
        self.loops += 1
        self.lower_block(body)
        self.loops -= 1
        self._ind -= 2
        self.depth, self.wexpr = saved_depth, saved_w
        self.emit("finally:")
        self.emit("    rt.simd_depth -= 1")
        self.emit(f"    rt.simd_width = {sw}")

    def lower_for(self, op) -> None:
        self.flush_all()
        lb, ub, st = (self.fresh("_lb"), self.fresh("_ub"), self.fresh("_st"))
        self.emit(f"{lb} = int({self.ref(op.operands[0])})")
        self.emit(f"{ub} = int({self.ref(op.operands[1])})")
        self.emit(f"{st} = int({self.ref(op.operands[2])})")
        self.emit(f"if {st} <= 0:")
        self.emit("    raise InterpreterError('for step must be positive')")
        body = op.regions[0]
        ivar = body.args[0]
        simd = bool(op.attrs.get("simd")) and self.depth == 0
        backwards = bool(op.attrs.get("reverse_order"))

        if op.attrs.get("workshare"):
            lo, hi = self.fresh("_lo"), self.fresh("_hi")
            self.emit("if rt.current_thread is None:")
            self.emit("    raise InterpreterError("
                      "'workshare loop outside fork region')")
            self.emit(f"{lo}, {hi} = chunk_bounds({lb}, {ub}, {st}, "
                      f"rt.current_thread, rt._fork_width)")
            if simd:
                vi = self.bind(ivar, True, -2 if backwards else 2)
                self.emit(f"if {hi} > {lo}:")
                self._ind += 1
                arange = f"np.arange({lo}, {hi}, {st}, dtype=np.int64)"
                self.emit(f"{vi} = {arange}[::-1]" if backwards
                          else f"{vi} = {arange}")
                self._lower_vector_body(body, vi)
                self._ind -= 1
            else:
                vi = self.bind(ivar, False)
                rng = f"range({lo}, {hi}, {st})"
                if backwards:
                    rng = f"reversed({rng})"
                self.emit(f"for {vi} in {rng}:")
                self._ind += 1
                self.loops += 1
                self.lower_block(body)
                self.loops -= 1
                self._ind -= 1
            if not op.attrs.get("nowait"):
                self.emit("yield BarrierEvent()")
        elif simd:
            # reverse_order is only honored on workshare loops (matching
            # the interpreter) — plain simd induction is non-decreasing.
            vi = self.bind(ivar, True, 2)
            self.emit(f"if {ub} > {lb}:")
            self._ind += 1
            self.emit(f"{vi} = np.arange({lb}, {ub}, {st}, dtype=np.int64)")
            self._lower_vector_body(body, vi)
            self._ind -= 1
        else:
            # Serial loop: uniform induction variable at any depth.
            vi = self.bind(ivar, False)
            self.emit(f"for {vi} in range({lb}, {ub}, {st}):")
            self._ind += 1
            self.loops += 1
            self.lower_block(body)
            self.loops -= 1
            self._ind -= 1

    def lower_parallel_for(self, op) -> None:
        if self.depth > 0:
            self.lower_bridge(op)
            return
        self.flush_all()
        lb, ub = self.fresh("_lb"), self.fresh("_ub")
        self.emit(f"{lb} = int({self.ref(op.operands[0])})")
        self.emit(f"{ub} = int({self.ref(op.operands[1])})")
        nt = self.fresh("_nt")
        self.emit(f"{nt} = rt.config.num_threads")
        self.emit("rt.flush_serial()")
        sc, sth = self.fresh("_sc"), self.fresh("_sth")
        sm, smc = self.fresh("_sm"), self.fresh("_smc")
        tcs, t, c = self.fresh("_tcs"), self.fresh("_pt"), self.fresh("_pc")
        lo, hi = self.fresh("_lo"), self.fresh("_hi")
        self.emit(f"{sc} = rt.cost")
        self.emit(f"{sth} = rt.current_thread")
        self.emit(f"{sm}, {smc} = rt.mask, rt.mask_count")
        self.emit("rt.mask, rt.mask_count = None, 0")
        self.emit("rt._noyield += 1")
        self.emit(f"{tcs} = []")
        self.emit("try:")
        self._ind += 1
        self.emit(f"for {t} in range({nt}):")
        self._ind += 1
        self.emit(f"{lo}, {hi} = chunk_bounds({lb}, {ub}, 1, {t}, {nt})")
        self.emit(f"{c} = CostVector()")
        self.emit(f"rt.cost = {c}")
        self.emit(f"rt.current_thread = {t}")
        body = op.regions[0]
        vi = self.bind(body.args[0], True, 2)
        self.emit(f"if {hi} > {lo}:")
        self._ind += 1
        self.emit(f"{vi} = np.arange({lo}, {hi}, dtype=np.int64)")
        self._lower_vector_body(body, vi)
        self._ind -= 1
        self.emit(f"{tcs}.append({c})")
        self.emit(f"rt.raw_total.merge({c})")
        self._ind -= 2
        self.emit("finally:")
        self._ind += 1
        self.emit("rt._noyield -= 1")
        self.emit(f"rt.cost = {sc}")
        self.emit(f"rt.current_thread = {sth}")
        self.emit(f"rt.mask, rt.mask_count = {sm}, {smc}")
        self._ind -= 1
        self.emit(f"rt.clock += rt.machine.parallel_region_time("
                  f"{tcs}, {nt}, rt.procs_on_node)")

    def lower_if(self, op) -> None:
        cv = self.vary_of(op.operands[0])
        if cv is None:
            self.lower_bridge(op)
            return
        self.flush_all()
        then_body, else_body = op.regions
        if cv is False:
            c = self.ref(op.operands[0])
            self.emit(f"if {c}:")
            self._ind += 1
            if then_body.ops:
                self.lower_block(then_body)
            else:
                self.emit("pass")
            self._ind -= 1
            if else_body.ops:
                self.emit("else:")
                self._ind += 1
                self.lower_block(else_body)
                self._ind -= 1
            return
        # Masked (vectorized) if — mirrors Interpreter._exec_if,
        # publishing the live mask to rt so loads/stores/bridges see it.
        # The condition is referenced by both mask expressions, so it
        # must be a materialized local.
        c = self.ref_local(op.operands[0])
        om, omc = self.fresh("_om"), self.fresh("_omc")
        self.emit(f"{om}, {omc} = rt.mask, rt.mask_count")
        self.emit("try:")
        self._ind += 1
        saved_w = self.wexpr
        saved_masked = self.masked
        self.masked = True
        if then_body.ops:
            mt = self.fresh("_mt")
            self.emit(f"{mt} = {c} if {om} is None else ({om} & {c})")
            self.emit(f"if {mt}.any():")
            self._ind += 1
            wd = self.fresh("_wd")
            self.emit(f"rt.mask = {mt}")
            self.emit(f"{wd} = int({mt}.sum())")
            self.emit(f"rt.mask_count = {wd}")
            self.wexpr = wd
            self.lower_block(then_body)
            self.wexpr = saved_w
            self._ind -= 1
        if else_body.ops:
            me = self.fresh("_me")
            self.emit(f"{me} = ~{c} if {om} is None else ({om} & ~{c})")
            self.emit(f"if {me}.any():")
            self._ind += 1
            wd = self.fresh("_wd")
            self.emit(f"rt.mask = {me}")
            self.emit(f"{wd} = int({me}.sum())")
            self.emit(f"rt.mask_count = {wd}")
            self.wexpr = wd
            self.lower_block(else_body)
            self.wexpr = saved_w
            self._ind -= 1
        self.masked = saved_masked
        if not then_body.ops and not else_body.ops:
            self.emit("pass")
        self._ind -= 1
        self.emit("finally:")
        self.emit(f"    rt.mask, rt.mask_count = {om}, {omc}")

    def lower_while(self, op) -> None:
        self.flush_all()
        body = op.regions[0]
        cnt, lim = self.fresh("_cnt"), self.fresh("_lim")
        vi = self.bind(body.args[0], False)
        self.emit(f"{cnt} = 0")
        self.emit(f"{lim} = rt.config.max_while_iters")
        self.emit("while True:")
        self._ind += 1
        self.emit(f"{vi} = {cnt}")
        self.loops += 1
        self.lower_block(body)
        self.loops -= 1
        self.emit(f"{cnt} += 1")
        self.emit(f"if {cnt} > {lim}:")
        self.emit(f"    raise InterpreterError('while loop exceeded ' + "
                  f"str({lim}) + ' iterations')")
        self.emit("if not rt._while_flag:")
        self.emit("    break")
        self._ind -= 1

    def lower_fork(self, op) -> None:
        if self.depth > 0:
            self.lower_bridge(op)
            return
        self.flush_all()
        want, nt = self.fresh("_want"), self.fresh("_fnt")
        self.emit(f"{want} = int({self.ref(op.operands[0])})")
        self.emit(f"{nt} = {want} if {want} > 0 else rt.config.num_threads")
        body = op.regions[0]
        tid = self.bind(body.args[0], False)
        nth = self.bind(body.args[1], False)
        fb = self.fresh("_fb")
        self.emit(f"def {fb}({tid}, {nth}):")
        self._ind += 1
        self.emit("if False:")
        self.emit("    yield")
        self.lower_block(body)
        self.emit("return")
        self._ind -= 1
        self.emit(f"yield from _rf(rt, {nt}, {fb})")

    def lower_call(self, op) -> None:
        self.flush_all()
        args = ", ".join(self.ref(v) for v in op.operands)
        args = f"[{args}]"
        call = f"yield from _ca(rt, {self.konst(op)}, {args})"
        if op.result is not None:
            res = self.bind(op.result, None if self.depth > 0 else False)
            self.emit(f"{res} = {call}")
        else:
            self.emit(call)

    # ------------------------------------------------------------------
    def lower_bridge(self, op) -> None:
        """Hand one op (with regions) to the interpreter, op-by-op.

        Free SSA values become an interpreter ``env``; the op executes
        through ``rt._gen_dispatch`` against the same runtime state, so
        results, costs and clock are bit-identical.
        """
        self.flush_all()
        env = self.fresh("_env")
        items = ", ".join(
            f"{self.konst(v)}: {self.ref(v)}" for v in free_values(op))
        self.emit(f"{env} = {{{items}}}")
        self.emit(f"yield from _bg(rt, {self.konst(op)}, {env})")
        if op.result is not None:
            res = self.bind(op.result, None)
            self.emit(f"{res} = {env}[{self.konst(op.result)}]")


def lower_function(fn, fusion: bool = True, native=None,
                   bounds=None) -> tuple:
    """Lower ``fn``; returns ``(python_source, const_globals, stats)``.

    ``bounds`` is an optional :class:`repro.passes.intervals.
    IntervalAnalysis` over ``fn``: accesses it certified in-bounds are
    lowered without their runtime bounds checks."""
    return Lowerer(fn, fusion=fusion, native=native, bounds=bounds).build()
