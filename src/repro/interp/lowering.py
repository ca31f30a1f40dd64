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
  ``rt.mask``/``rt.mask_count`` so memory helpers and calls see the
  exact interpreter state; the lowering tracks mask state
  *statically*, so code outside masked branches uses memory helpers
  with no mask handling at all;
* a ``fork`` body becomes a nested per-thread generator function
  ``_fb<N>(tid, nthreads)`` and a ``spawn`` body a nested generator
  function ``_sb<N>()``, both lowered at vector depth 0 and handed to
  the interpreter's own region drivers (``_rf`` / ``_rs``); every
  ``call`` goes through its call dispatch (``_ca``);
* an unmasked vector load/store/atomic asks the affine form of *pointer
  offset + index* (:meth:`IntervalAnalysis.affine_of` / ``ptr_root``)
  for an **access plan**: when the address is ``a + t*lane`` with every
  term but the lane lane-uniform, it is a slice of the buffer
  (``_lds``/``_sts``/``_ats``; ``u`` variants on bounds-certified
  sites) and the index vector is never computed; anything else
  (indirect, clamped, float-derived) is a gather (``_ld``/``_st``/
  ``_at``, unchecked ``_ldu``/``_stu``/``_atu`` when certified).  These
  are one-line calls on purpose — generated source size, not
  helper-call overhead, is what sets ``compile()`` time and peak memory
  for a large adjoint;
* a statically scalar load/store is the same one-line call, except in a
  serial loop whose whole nest is scalar (``Lowerer.hot``): it runs once
  per element there, and is open-coded;
* instruction-cost accounting is aggregated statically: each
  straight-line segment contributes one ``_acc(...)`` call instead of
  one ``CostVector`` update per op, with per-lane counts scaled by the
  region width local;
* anything the lowering does not translate (a ``fork`` or
  ``parallel_for`` inside a vectorised region, an ``if`` on a condition
  of run-time width, unknown opcodes) raises :class:`LoweringError`,
  and the whole function runs on the interpreter.

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

from itertools import islice
from typing import Optional

from ..ir.opinfo import OP_INFO
from ..ir.ops import Op
from ..ir.parser import parse_type
from ..ir.types import Ptr
from ..ir.values import Constant, Result, Value
from ..passes.intervals import IntervalAnalysis
from .fusion import (
    FUSE_CHAR_CAP,
    FUSE_OP_CAP,
    ExprFuser,
    count_uses,
    data_uses,
    is_address_arith,
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


def _op_record(op: Op) -> tuple:
    """What compiled code and the intrinsic handlers read of an op the
    constant table holds: an ``alloc``'s space, element type and
    ``stream`` / ``adcache`` flags (``_al``), a ``call``'s attrs
    (``_ca`` and the handlers)."""
    if op.opcode == "alloc":
        a = op.attrs
        return (a["space"], str(op.result.type.elem),
                bool(a.get("stream")), bool(a.get("adcache")))
    return (dict(sorted(op.attrs.items())),)


def const_recipe(fn, consts: dict) -> list:
    """Address every object in a lowered function's constant table by
    its position in ``fn`` — the table as it can be stored beside the
    code.  The lowering references two kinds of object: ``alloc`` and
    ``call`` ops and ``OP_INFO`` evaluate functions.  An op entry is
    ``("op", index, opcode, *record)``: its pre-order index in
    ``fn.walk()``, its opcode and what the code reads of it
    (:func:`_op_record`), so a function that is still stored text can
    run without its IR.  Entry ``i`` addresses ``consts["_k<i>"]``."""
    index = {op: i for i, op in enumerate(fn.walk())}
    evaluates = {id(info.evaluate): oc for oc, info in OP_INFO.items()}
    return [("op", index[obj], obj.opcode, *_op_record(obj))
            if isinstance(obj, Op) else ("evaluate", evaluates[id(obj)])
            for obj in consts.values()]


def _recipe_literal(recipe: list) -> str:
    """The ``_CONSTS`` line's right-hand side: the recipe's addresses
    (``("op", index, opcode)`` / ``("evaluate", opcode)``), then each
    distinct op record once, with the op indexes that share it — a few
    records cover the hundreds of ``alloc`` sites of an adjoint.
    :func:`join_records` rebuilds the recipe when the module runs."""
    groups: dict = {}
    for entry in recipe:
        if entry[0] == "op":
            groups.setdefault(repr(entry[3:]), (entry[3:], []))[1].append(
                entry[1])
    addresses = [entry[:3] if entry[0] == "op" else entry
                 for entry in recipe]
    records = [(record, tuple(ops)) for record, ops in groups.values()]
    return f"_jr({addresses!r}, {records!r})"


def join_records(addresses: list, records: list) -> list:
    """The recipe :func:`_recipe_literal` spelled out (``_jr`` in the
    generated code): every op address followed by its record."""
    of = {index: record for record, ops in records for index in ops}
    return [entry + of[entry[1]] if entry[0] == "op" else entry
            for entry in addresses]


class _SiteResult:
    """An alloc stand-in's result: its type, and its name read from the
    IR — built then — when a message shows it."""

    __slots__ = ("type", "_fn", "_index")

    def __init__(self, type_, fn, index: int) -> None:
        self.type = type_
        self._fn = fn
        self._index = index

    @property
    def name(self) -> str:
        return next(islice(self._fn.walk(), self._index, None)).result.name


class _Site:
    """Stand-in for an ``alloc`` or ``call`` op of a function that is
    still stored text: the record the code entry holds of it."""

    __slots__ = ("opcode", "attrs", "result")

    def __init__(self, fn, index: int, opcode: str, record) -> None:
        self.opcode = opcode
        self.result = None
        if opcode == "alloc":
            space, elem, stream, adcache = record
            self.attrs = {"space": space, "stream": stream,
                          "adcache": adcache}
            self.result = _SiteResult(Ptr(parse_type(elem)), fn, index)
        else:
            (self.attrs,) = record


def resolve_consts(fn, recipe) -> dict:
    """The constant table :func:`const_recipe` describes, rebuilt
    against ``fn``: its live ops when its IR is in memory — each must
    match its record — and :class:`_Site` stand-ins while it is text
    only.  Raises (``IndexError``, ``KeyError``, ``ValueError``,
    ``TypeError``, ``AttributeError``) when the recipe does not fit the
    function; nothing is returned in that case."""
    ops = None if fn.text_only else list(fn.walk())
    consts = {}
    for i, (kind, *at) in enumerate(recipe):
        if kind == "evaluate":
            obj = OP_INFO[at[0]].evaluate
        elif kind == "op":
            index, opcode, *record = at
            if opcode not in ("alloc", "call"):
                raise ValueError(f"no constant-table record of a "
                                 f"{opcode!r} op")
            if ops is None:
                obj = _Site(fn, index, opcode, record)
            else:
                obj = ops[index]
                if (obj.opcode, *_op_record(obj)) != (opcode, *record):
                    raise ValueError(f"op {index} is {obj.opcode!r} "
                                     f"{_op_record(obj)}, the recipe "
                                     f"wants {opcode!r} {tuple(record)}")
        else:
            raise ValueError(f"unknown recipe entry {kind!r}")
        consts[f"_k{i}"] = obj
    return consts


def _literal(c: Constant) -> str:
    # repr() of Python floats round-trips exactly; ints and bools are
    # exact by construction.
    return repr(c.value)


def _linear(const: int, terms: dict) -> str:
    """Python text of ``const + sum(coeff * name)``."""
    parts = [name if c == 1 else f"{c}*{name}"
             for name, c in terms.items() if c]
    if const or not parts:
        parts.append(str(const))
    return " + ".join(parts)


def _scalar_nest(body) -> bool:
    """True when ``body`` holds no ``fork``, ``parallel_for``, ``while``
    or ``simd`` loop at any depth: a serial loop around it runs its
    statically scalar accesses once per trip, element by element."""
    return not any(op.opcode in ("fork", "parallel_for", "while")
                   or (op.opcode == "for" and op.attrs.get("simd"))
                   for op in body.walk())


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
        #: The affine form of indexes and pointer offsets and the lane
        #: variance of every value (SSA facts: an uncertified lowering
        #: gets the same access plans and the same scalar / vector code).
        self.facts = bounds if bounds is not None else IntervalAnalysis(
            fn, None)
        self.variance = self.facts.variance
        #: Value -> CExpr for pending fused values the native emitter
        #: can also render (keys are a subset of ``fuser.pending``).
        self.cpend: dict = {}
        self.lines: list[str] = []
        self._ind = 0
        self._n: dict[str, int] = {}
        #: Value -> generated local name.
        self.names: dict[Value, str] = {}
        #: Values consumed as data somewhere; a vectorised region's
        #: address arithmetic outside this set is kept as text (``lazy``)
        #: and evaluated only where an access turns out to need it.
        self.data = data_uses(fn)
        self.lazy: dict[Value, str] = {}
        #: Inside a vectorised region: (induction vector, its lane-0
        #: value, its lane stride, width local) — the last three are
        #: ints or names of int locals.
        self.lane: Optional[tuple] = None
        #: Address text (a plan's lane-0 address, a ``lazy`` value some
        #: gather needs after all) -> local holding it, see ``_shared``;
        #: ``_shared_ind`` is the current vectorised body's indentation.
        self._shared_names: dict[str, str] = {}
        self._shared_ind = -1
        #: Objects the generated code references by global name.
        self.consts: dict[str, object] = {}
        self._const_ids: dict[int, str] = {}
        #: Static vectorization depth (0 = scalar context).
        self.depth = 0
        #: Statically inside a masked (vectorized-if) branch: memory
        #: helpers must consult rt.mask.  Outside, rt.mask is None by
        #: the caller guards in Interpreter.call_user / CompiledBackend.
        self.masked = False
        #: Expression for the current per-lane width ("1" when scalar).
        self.wexpr = "1"
        #: Statically inside a serial loop whose whole nest is scalar
        #: (``_scalar_nest``): the only place a statically scalar memory
        #: access runs once per element, so the only place it is
        #: open-coded — the ``_ld``/``_st`` call overhead dominates an
        #: element-by-element adjoint sweep.  Elsewhere (function level,
        #: fork and vectorised bodies, a loop around any of them) it runs
        #: once per call, thread, chunk or step and lowers to the
        #: one-line helper call: source size is what CPython's
        #: ``compile()`` pays for in time and peak memory.
        self.hot = False
        #: Pending straight-line cost: class -> [uniform, varying] counts.
        self._seg: dict[str, list[int]] = {}
        #: Trace fusion state (pending single-use expressions).
        self.fuser = ExprFuser(self)
        self.uses = count_uses(fn) if fusion else {}

    # -- source emission helpers ---------------------------------------
    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self._ind + line if line else "")

    def fresh(self, prefix: str = "_t") -> str:
        # One counter per prefix keeps the names (and the source) short.
        n = self._n[prefix] = self._n.get(prefix, 0) + 1
        return f"{prefix}{n}"

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
            return self.names.get(v) or self._shared(self.lazy[v])
        except KeyError:
            raise LoweringError(f"use of value {v!r} before definition")

    def ref_local(self, v: Value) -> str:
        """Like :meth:`ref` but guarantees a local name (materializes a
        pending expression), for templates that repeat the operand."""
        if type(v) is Constant:
            return _literal(v)
        name = self.fuser.materialize(v) or self.names.get(v)
        if name is None and v in self.lazy:
            name = self._shared(self.lazy[v])
            if name == self.lazy[v]:  # nested: a local for this use only
                name = self.fresh("v")
                self.emit(f"{name} = {self.lazy[v]}")
        if name is None:
            raise LoweringError(f"use of value {v!r} before definition")
        return name

    def bind(self, v: Value) -> str:
        name = self.fresh("v")
        self.names[v] = name
        return name

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
        arg_names = [self.bind(a) for a in fn.args]
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
        self.lines.append(
            f"_CONSTS = {_recipe_literal(const_recipe(fn, self.consts))}")
        self.lines.append(f"_STATS = {stats.as_dict()!r}")
        # Break the lowerer <-> fuser cycle: the lowering's state is then
        # freed on return, not still live under ``compile()``'s peak.
        self.fuser.lowerer = None
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
                if (self.variance(ptr_v) is False
                        and self.variance(idx_v) is False
                        and self.variance(val_v) is True):
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
                              f"{via!r}, {v}, {p}, {i})")
                    return
                self._emit_access(
                    "at", f"{op.attrs['kind']!r}, {via!r}, "
                    f"{self.ref(val_v)}, ", ptr_v, idx_v, proven)
        elif oc == "alloc":
            res = self.bind(op.result)
            self.emit(f"{res} = _al(rt, {self.konst(op)}, "
                      f"{self.ref(op.operands[0])})")
        elif oc == "ptradd":
            base, idx = op.operands
            self.seg_add("int", False)
            if self._address_only(op):
                self.lazy[op.result] = (
                    f"{self.lazy.get(base) or self.ref_local(base)}.added("
                    f"{self.lazy.get(idx) or self.ref_local(idx)})")
                return
            res = self.bind(op.result)
            self.emit(f"{res} = {self.ref(base)}"
                      f".added({self.ref(idx)})")
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
            self.emit(f"{self.bind(op.result)} = DynCache()")
        elif oc == "cache_push":
            self.emit(f"{self.ref(op.operands[0])}.push("
                      f"{self.ref(op.operands[1])})")
            self.emit("rt.cost.add_store(8)")
        elif oc == "cache_pop":
            self.emit(f"{self.bind(op.result)} = "
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
        elif oc == "spawn":
            self.lower_spawn(op)
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
            return self.names.get(v) or self._shared(self.lazy[v]), 0
        except KeyError:
            raise LoweringError(f"use of value {v!r} before definition")

    def lower_compute(self, op, info) -> None:
        oc = op.opcode
        varying = self.variance(op.result)
        if self._address_only(op):
            if varying:
                refs = [self.lazy.get(v) or self.ref_local(v)
                        for v in op.operands]
                text = f"{self.konst(info.evaluate)}({', '.join(refs)})"
            else:  # exact on ints: the affine form is the value
                aff = self.facts.affine_of(op.result)
                text = "(%s)" % _linear(aff.const, {
                    self.ref_local(v): c for v, c in aff.terms.items()})
            self.lazy[op.result] = text
            self.fuser.stats.ops += 1
            self.seg_add(info.cost, varying)
            return
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
            cv = self.variance(op.operands[0])
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
        stats = self.fuser.stats
        stats.ops += 1
        if varying is None:
            res = self.bind(op.result)
            self.emit(f"{res} = {expr}")
            stats.kernels += 1
            self.flush_seg()
            self.emit(f"_aw(rt, {info.cost!r}, {res})")
            return
        self.seg_add(info.cost, varying)
        if (self.fusion and self.uses.get(op.result, 0) == 1
                and nops <= FUSE_OP_CAP and len(expr) <= FUSE_CHAR_CAP):
            # Single consumer: defer as a pending fused expression.
            if cexp is not None:
                self.cpend[op.result] = cexp
            self.fuser.defer(op.result, expr, nops)
            return
        res = self.bind(op.result)
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

    def _address_only(self, op) -> bool:
        """Address arithmetic of a vectorised region that no op consumes
        as data and that is affine in the lane (so the accesses it feeds
        can have plans): kept as text instead of being computed."""
        if (self.depth == 0 or op.result in self.data
                or not is_address_arith(op)
                or self.variance(op.result) is None):
            return False
        if op.opcode == "ptradd":
            root, aff = self.facts.ptr_root(op.result)
            if self.variance(root) is None:
                return False
        else:
            aff = self.facts.affine_of(op.result)
        return all(v is self.lane[0] or self.variance(v) is False
                   for v in aff.terms)

    def _plan(self, ptr_v, idx_v) -> Optional[list]:
        """Access plan of an unmasked vector access: the helper
        arguments ``[ptr, a, W, t]`` when its address is ``a + t*lane``,
        ``lane`` in ``[0, W)``, with ``t != 0``; None when it is not
        affine in the lane (a gather).

        The induction vector contributes ``first + step*lane``.  A
        lane-private ``alloc c`` cell contributes ``c*lane``; its buffer
        holds ``c`` elements per lane, so the helper needs no ``W`` and
        gets 0: ``[ptr, a, 0, c]``.  Every other term must be
        lane-uniform and is evaluated once, as an int."""
        root, off = self.facts.ptr_root(ptr_v)
        aff = self.facts.affine_of(idx_v)
        if root is not ptr_v:
            aff = off.add(aff)
        ivar, first, step, width = self.lane
        lanes = aff.terms.get(ivar, 0)
        cell = self.variance(root) is not False
        if cell:
            count = root.op.operands[0] if (
                isinstance(root, Result)
                and root.op.opcode == "alloc") else None
            if (lanes or self.variance(root) is not True
                    or type(count) is not Constant or count.value < 1):
                return None
        elif not lanes:
            return None
        if any(v is not ivar and self.variance(v) is not False
               for v in aff.terms):
            return None
        const = aff.const
        terms = {self.ref_local(v): c for v, c in aff.terms.items()
                 if v is not ivar}
        if cell:
            return [self.ref_local(root), _linear(const, terms), "0",
                    str(count.value)]
        if type(first) is int:
            const += lanes * first
        else:
            terms[first] = lanes
        stride = (str(lanes * step) if type(step) is int
                  else _linear(0, {step: lanes}))
        a = _linear(const, terms)
        return [self.ref_local(root),
                self._shared(a) if "*" in a or " + " in a else a,
                width, stride]

    def _shared(self, text: str) -> str:
        """A local holding the pure expression ``text``, evaluated once
        for all its uses in the current vectorised body — when asked at
        the body's top level, where the definition dominates the rest;
        elsewhere the text itself."""
        name = self._shared_names.get(text)
        if name is None and self._ind == self._shared_ind:
            name = self._shared_names[text] = self.fresh("_a")
            self.emit(f"{name} = {text}")
        return name or text

    def _emit_access(self, kind: str, lead: str, ptr_v, idx_v,
                     proven: bool, res: str = "") -> None:
        """Emit one unmasked ``ld`` / ``st`` / ``at`` helper call
        (``lead`` holds the arguments between ``rt`` and the pointer): a
        slice when the access has a plan, else a gather; certified sites
        take the unchecked ``u`` variant of either."""
        vec = (self.variance(ptr_v) is True or self.variance(idx_v) is True)
        plan = self._plan(ptr_v, idx_v) if vec and self.lane else None
        if plan is not None:
            cell = plan[2] == "0"
            # Stores and atomics are charged max(value lanes, index
            # lanes).  The helpers take a cell's index operand to be one
            # lane wide and a strided one's W, unless told otherwise.
            narrow = kind != "ld" and self.variance(idx_v) is not True
            if narrow and not cell:
                plan.append("1")
            elif cell and kind != "ld" and not narrow:
                plan = None
            elif plan[3] == "1":  # the helpers' defaults
                del plan[2 if cell else 3:]
        stats = self.fuser.stats
        if plan is not None:
            name, args = f"_{kind}s", ", ".join(plan)
            stats.mono_loads += kind == "ld"
            stats.mono_stores += kind == "st"
        else:
            name = f"_{kind}"
            args = f"{self.ref(ptr_v)}, {self.ref(idx_v)}"
        if proven:
            name += "u"
            stats.checks_elided += 1
        self.emit(f"{res}{name}(rt, {lead}{args})")

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
        proven = self._bounds_proven(op)
        scal = self.variance(op.result) is False
        if scal and self.hot and not self.masked:
            # Statically scalar inside a scalar nest: open-code the
            # access (element-by-element adjoint sweeps are bound on the
            # per-access call overhead, not the numerics).
            b, x, dd = self._emit_scalar_access(ptr_v, idx_v, proven)
            res = self.bind(op.result)
            self.emit(f"{res} = {dd}[{x}]")
            self.emit(f"if {b}.stream: rt.cost.stream_bytes += 8")
            self.emit("else: rt.cost.load_bytes += 8")
            return
        res = self.bind(op.result)
        if self.masked:
            self.emit(f"{res} = _ldk(rt, {self.ref(ptr_v)}, "
                      f"{self.ref(idx_v)})")
        else:
            self._emit_access("ld", "", ptr_v, idx_v, proven, f"{res} = ")

    def lower_store(self, op) -> None:
        val_v, ptr_v, idx_v = op.operands
        proven = self._bounds_proven(op)
        scal = all(self.variance(v) is False for v in op.operands)
        # A worthwhile pending chain claims through the native kernel
        # here; otherwise ref() inlines it into the store as before.
        self.native_try_claim(val_v)
        val = self.ref(val_v)  # may inline a whole fused chain
        if scal and self.hot and not self.masked:
            b, x, dd = self._emit_scalar_access(ptr_v, idx_v, proven)
            self.emit(f"{dd}[{x}] = {val}")
            self.emit(f"if {b}.stream: rt.cost.stream_bytes += 8")
            self.emit("else: rt.cost.store_bytes += 8")
            return
        if self.masked:
            self.emit(f"_stk(rt, {val}, {self.ref(ptr_v)}, "
                      f"{self.ref(idx_v)})")
        else:
            self._emit_access("st", f"{val}, ", ptr_v, idx_v, proven)

    # ------------------------------------------------------------------
    def _lower_vector_body(self, body, first, step) -> None:
        """Emit the simd_depth/simd_width bookkeeping + vectorized body.

        The caller has already emitted the ``np.arange`` assignment for
        the induction vector ``body.args[0]``, whose lane ``k`` holds
        ``first + step*k`` (ints, or names of int locals);
        indentation is inside the enclosing ``if trips:`` guard.
        """
        ivar = body.args[0]
        w = self.fresh("_W")
        sw = self.fresh("_sw")
        self.emit(f"{w} = {self.names[ivar]}.size")
        self.emit("rt.simd_depth += 1")
        self.emit(f"{sw} = rt.simd_width")
        self.emit(f"rt.simd_width = {w}")
        self.emit("try:")
        self.emit("    with np.errstate(all='ignore'):")
        saved_depth, saved_w = self.depth, self.wexpr
        self.depth, self.wexpr = self.depth + 1, w
        self.lane = (ivar, first, step, w)
        self._ind += 2
        self._shared_names, self._shared_ind = {}, self._ind
        self.lower_block(body)
        self._ind -= 2
        self.lane, self._shared_ind = None, -1
        self.depth, self.wexpr = saved_depth, saved_w
        self.emit("finally:")
        self.emit("    rt.simd_depth -= 1")
        self.emit(f"    rt.simd_width = {sw}")

    def _lower_serial_body(self, body) -> None:
        """Lower the body of a serial ``for`` / ``while``: hot when its
        whole nest is scalar."""
        saved, self.hot = self.hot, _scalar_nest(body)
        self.lower_block(body)
        self.hot = saved

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
        # The lane stride of the induction vector, folded when static.
        step = op.operands[2]
        step = step.value if type(step) is Constant else st

        if op.attrs.get("workshare"):
            lo, hi = self.fresh("_lo"), self.fresh("_hi")
            self.emit("if rt.current_thread is None:")
            self.emit("    raise InterpreterError("
                      "'workshare loop outside fork region')")
            self.emit(f"{lo}, {hi} = chunk_bounds({lb}, {ub}, {st}, "
                      f"rt.current_thread, rt._fork_width)")
            vi = self.bind(ivar)
            if simd:
                self.emit(f"if {hi} > {lo}:")
                self._ind += 1
                arange = f"np.arange({lo}, {hi}, {st}, dtype=np.int64)"
                if backwards:
                    # lane 0 is the chunk's last trip: ``lo`` (not read
                    # again below) becomes that value for the plans
                    self.emit(f"{vi} = {arange}[::-1]")
                    self.emit(f"{lo} = int({vi}[0])")
                    step = -step if type(step) is int else f"-{step}"
                else:
                    self.emit(f"{vi} = {arange}")
                self._lower_vector_body(body, lo, step)
                self._ind -= 1
            else:
                rng = f"range({lo}, {hi}, {st})"
                if backwards:
                    rng = f"reversed({rng})"
                self.emit(f"for {vi} in {rng}:")
                self._ind += 1
                self._lower_serial_body(body)
                self._ind -= 1
            if not op.attrs.get("nowait"):
                self.emit("yield BarrierEvent()")
        elif simd:
            # reverse_order is only honored on workshare loops (matching
            # the interpreter) — plain simd induction is non-decreasing.
            vi = self.bind(ivar)
            self.emit(f"if {ub} > {lb}:")
            self._ind += 1
            self.emit(f"{vi} = np.arange({lb}, {ub}, {st}, dtype=np.int64)")
            first = op.operands[0]
            self._lower_vector_body(
                body, first.value if type(first) is Constant else lb, step)
            self._ind -= 1
        else:
            # Serial loop: uniform induction variable at any depth.
            vi = self.bind(ivar)
            self.emit(f"for {vi} in range({lb}, {ub}, {st}):")
            self._ind += 1
            self._lower_serial_body(body)
            self._ind -= 1

    def lower_parallel_for(self, op) -> None:
        if self.depth > 0:
            raise LoweringError("parallel_for inside a vectorised region")
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
        vi = self.bind(body.args[0])
        self.emit(f"if {hi} > {lo}:")
        self._ind += 1
        self.emit(f"{vi} = np.arange({lo}, {hi}, dtype=np.int64)")
        self._lower_vector_body(body, lo, 1)
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
        cv = self.variance(op.operands[0])
        if cv is None:
            raise LoweringError("if on a condition of run-time width")
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
        # publishing the live mask to rt so loads/stores/calls see it.
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
        vi = self.bind(body.args[0])
        self.emit(f"{cnt} = 0")
        self.emit(f"{lim} = rt.config.max_while_iters")
        self.emit("while True:")
        self._ind += 1
        self.emit(f"{vi} = {cnt}")
        self._lower_serial_body(body)
        self.emit(f"{cnt} += 1")
        self.emit(f"if {cnt} > {lim}:")
        self.emit(f"    raise InterpreterError('while loop exceeded ' + "
                  f"str({lim}) + ' iterations')")
        self.emit("if not rt._while_flag:")
        self.emit("    break")
        self._ind -= 1

    def _lower_region_body(self, name: str, params: str, body) -> None:
        """Emit ``body`` as the nested generator function ``name``: it
        reads the enclosing locals it needs through its closure, and an
        interpreter driver runs it (fork bodies, task bodies)."""
        self.emit(f"def {name}({params}):")
        self._ind += 1
        self.emit("if False:")
        self.emit("    yield")
        self.lower_block(body)
        self.emit("return")
        self._ind -= 1

    def lower_fork(self, op) -> None:
        if self.depth > 0:
            raise LoweringError("fork inside a vectorised region")
        self.flush_all()
        want, nt = self.fresh("_want"), self.fresh("_fnt")
        self.emit(f"{want} = int({self.ref(op.operands[0])})")
        self.emit(f"{nt} = {want} if {want} > 0 else rt.config.num_threads")
        body = op.regions[0]
        tid = self.bind(body.args[0])
        nth = self.bind(body.args[1])
        fb = self.fresh("_fb")
        self._lower_region_body(fb, f"{tid}, {nth}", body)
        self.emit(f"yield from _rf(rt, {nt}, {fb})")

    def lower_spawn(self, op) -> None:
        """A task body lowers like a fork body; ``Interpreter.run_spawn``
        runs it eagerly and returns the task handle."""
        if self.depth > 0:
            raise LoweringError("spawn inside a vectorised region")
        self.flush_all()
        sb = self.fresh("_sb")
        self._lower_region_body(sb, "", op.regions[0])
        self.emit(f"{self.bind(op.result)} = yield from _rs(rt, {sb}())")

    def lower_call(self, op) -> None:
        self.flush_all()
        args = ", ".join(self.ref(v) for v in op.operands)
        args = f"[{args}]"
        call = f"yield from _ca(rt, {self.konst(op)}, {args})"
        if op.result is not None:
            res = self.bind(op.result)
            self.emit(f"{res} = {call}")
        else:
            self.emit(call)


def lower_function(fn, fusion: bool = True, native=None,
                   bounds=None) -> tuple:
    """Lower ``fn``; returns ``(python_source, const_globals, stats)``.

    ``bounds`` is an optional :class:`repro.passes.intervals.
    IntervalAnalysis` over ``fn``: accesses it certified in-bounds are
    lowered without their runtime bounds checks."""
    return Lowerer(fn, fusion=fusion, native=native, bounds=bounds).build()
