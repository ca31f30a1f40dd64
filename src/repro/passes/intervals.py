"""Flow-sensitive interval + affine-index dataflow analysis.

The one place that answers questions about an index (paper §VII's
"analyses run over the IR first"): bounds certification, the lowering's
access plans, the AD transform's increment rule (§VI-A1) and the race
lint all read it.  Every ``i64`` SSA value gets

* an **affine decomposition** ``c0 + Σ ci·vi`` over *symbols* (values
  the analysis cannot open up: arguments, loads, call results) and
  *bounded values* (loop induction variables, thread ids, MPI ranks),
  built from the exact integer ops ``iadd``/``isub``/``ineg`` and
  ``imul``-by-constant; and
* an **interval** ``[lo, hi]`` obtained by eliminating bounded values
  from the affine form (substituting their symbolic bound, so
  ``n - i`` with ``i ∈ [0, n-1]`` cancels to ``[1, n]`` exactly) and
  then evaluating the remaining symbols over the interval lattice.

The lattice is the classic integer-interval lattice with ±∞; ``join``
is the union hull, ``meet`` the intersection, and the widening rule is
"unstable endpoints go straight to ±∞" (applied when a bound would
have to grow, e.g. the iteration counter of a ``while`` loop, whose
fixpoint ``widen([0,0], [0,1]) = [0, +∞)`` is registered directly).

Flow-sensitivity enters through *scoped bounds*:

* ``for``/``parallel_for`` induction variables carry the affine bounds
  ``[lb, ub-1]`` of their range (positive-step loops only execute with
  ``iv < ub``);
* workshare loops chunk a subset of the same range, so the full-range
  bound is sound for every thread;
* ``fork`` thread ids carry ``[0, nthreads-1]`` with ``nthreads``
  itself ``[1, +∞)`` (or the exact constant);
* ``mpi.comm_rank`` results carry ``[0, size-1]`` against the matching
  ``mpi.comm_size`` result;
* ``imin(a, b)`` carries ``a`` and ``b`` as upper bounds, ``imax(a, b)``
  as lower bounds;
* branch conditions over *uniform* ``i64`` values (:meth:`variance`
  ``False``) refine the compared values inside the taken region (``if
  i < n`` gives ``i ≤ n-1`` there).  Lane-varying conditions refine
  nothing: vectorized branches execute masked, where every lane still
  evaluates the body.

Soundness against ``int64`` wraparound: the affine form is exact over
ℤ and machine arithmetic is exact mod 2^64, so whenever the ℤ-value of
an affine expression fits ``int64`` the machine value equals it.  Any
interval endpoint outside the ``int64`` range degrades to ±∞ before it
can be used in a proof.

The consumer-facing product is :func:`certify_bounds`: every
``load``/``store``/``atomic`` site is classified ``proven`` (the
address is certainly inside its buffer — the backend may elide the
runtime bounds check), ``unproven`` (checks stay on), or ``oob``
(provably out of bounds on every executed lane: a compile-time lint
finding).  Buffer extents come from the ``count`` operand of a
dominating ``alloc`` or from the ``extent`` attribute of a pointer
argument; the elements of a ``ptr<i64>`` argument that declares
``below=N`` and that nothing in the function writes lie in ``[0, N-1]``,
which is what certifies an indirect gather through an index array.
Both are caller contracts (``repro.interp.memory.check_contracts``
enforces them at every entry).

The parallel consumers ask "is this index affine in that induction
variable, and is the rest uniform?": :meth:`IntervalAnalysis.
index_strides` answers for threads and lanes alike, and
:meth:`IntervalAnalysis.variance` says whether a value differs between
the lanes of its vectorised region.  Those two, ``affine_of`` and
``ptr_root`` are SSA facts: they answer on an analysis that never ran
its walk, which is how the lowering asks for the shape of an address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ir.function import Module
from ..ir.ops import Op
from ..ir.types import I64
from ..ir.values import Argument, BlockArg, Constant, Result, Value
from .aliasing import AliasInfo, analyze_aliasing

Bound = Union[int, float]

NEG_INF: float = float("-inf")
POS_INF: float = float("inf")

#: Endpoints beyond this magnitude degrade to ±∞: the machine value of
#: a non-affine op applied to a wrapped operand could differ from the
#: ℤ-value the analysis reasons about.
_INT64_MAX: int = 2**63 - 1
_INT64_MIN: int = -(2**63)

#: Substitution fuel for bound evaluation (cyclic refinement guards).
_FUEL: int = 32

#: Intrinsics the default registry declares ``effects="pure"``: a call
#: to one of them with uniform operands is uniform (see ``variance``).
#: The lane variance is an SSA fact that needs no module.
_PURE_INTRINSICS = frozenset(
    name for name, info in Module().intrinsics.items()
    if info.effects == "pure")


def _clamp(b: Bound) -> Bound:
    if isinstance(b, int) and not (_INT64_MIN <= b <= _INT64_MAX):
        return POS_INF if b > 0 else NEG_INF
    return b


@dataclass(frozen=True)
class Interval:
    """A closed integer interval with ±∞ endpoints."""

    lo: Bound
    hi: Bound

    @staticmethod
    def top() -> "Interval":
        return Interval(NEG_INF, POS_INF)

    @staticmethod
    def const(v: int) -> "Interval":
        return Interval(v, v)

    @property
    def is_top(self) -> bool:
        return self.lo == NEG_INF and self.hi == POS_INF

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> Optional["Interval"]:
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def widen(self, other: "Interval") -> "Interval":
        """Classic interval widening: endpoints that would have to move
        jump straight to ±∞ (guarantees termination of any fixpoint
        this analysis would iterate)."""
        lo = self.lo if other.lo >= self.lo else NEG_INF
        hi = self.hi if other.hi <= self.hi else POS_INF
        return Interval(lo, hi)

    def add(self, other: "Interval") -> "Interval":
        return Interval(_add(self.lo, other.lo), _add(self.hi, other.hi))

    def neg(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def shift(self, c: int) -> "Interval":
        return Interval(_add(self.lo, c), _add(self.hi, c))

    def scale(self, c: int) -> "Interval":
        if c == 0:
            return Interval.const(0)
        if c > 0:
            return Interval(_mul(self.lo, c), _mul(self.hi, c))
        return Interval(_mul(self.hi, c), _mul(self.lo, c))

    def mul(self, other: "Interval") -> "Interval":
        ends = [_mul(a, b) for a in (self.lo, self.hi)
                for b in (other.lo, other.hi)]
        return Interval(min(ends), max(ends))

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


TOP: Interval = Interval.top()


def _add(a: Bound, b: Bound) -> Bound:
    # ±inf + finite is well-defined; opposing infinities cannot occur
    # (lo sums with lo, hi with hi).
    return _clamp(a + b)


def _mul(a: Bound, b: Bound) -> Bound:
    if a == 0 or b == 0:
        return 0  # 0 * ±inf is 0 for interval endpoints
    return _clamp(a * b)


def _floordiv(a: Bound, b: Bound) -> Bound:
    """``a // b`` for b >= 1 with ±∞ endpoints."""
    if a == NEG_INF or a == POS_INF:
        return a
    if b == POS_INF:
        return 0 if a >= 0 else -1
    return _clamp(int(a) // int(b))


def inside(op: Op, region: Op) -> bool:
    """Is ``op`` lexically inside one of ``region``'s regions?"""
    blk = op.parent
    while blk is not None:
        owner = blk.parent_op
        if owner is region:
            return True
        blk = owner.parent if owner is not None else None
    return False


def _fill_variance(block: object, vector: bool,
                   var: Dict[Value, Optional[bool]]) -> None:
    """Enter the lane variance of every value ``block`` defines into
    ``var``; ``block`` is inside a vectorised region when ``vector`` (the
    lowering's static depth > 0)."""
    for op in getattr(block, "ops"):
        oc = op.opcode
        res = op.result
        if oc == "for" or oc == "parallel_for":
            lanes = oc == "parallel_for" or (
                bool(op.attrs.get("simd")) and not vector)
            body = op.regions[0]
            var[body.args[0]] = lanes
            _fill_variance(body, vector or lanes, var)
        elif op.regions:
            # fork (tid, nthreads) and while (the counter) bind uniform
            # values; a spawn's handle is an opaque task value.
            for region in op.regions:
                _fill_variance(region, vector, var)
            if res is not None:
                var[res] = None
        elif res is None:
            continue
        elif oc == "alloc":
            var[res] = vector
        elif oc == "call":
            var[res] = False if not vector or (
                op.attrs["callee"] in _PURE_INTRINSICS
                and all(var.get(v, False) is False for v in op.operands)
            ) else None
        elif oc == "cache_pop":
            var[res] = None
        else:
            out: Optional[bool] = False
            for v in op.operands:
                x = var.get(v, False)
                if x:
                    out = True
                    break
                if x is None:
                    out = None
            var[res] = out


class Affine:
    """An exact affine form ``const + Σ coeff·value`` over ℤ."""

    __slots__ = ("const", "terms")

    def __init__(self, const: int = 0,
                 terms: Optional[Dict[Value, int]] = None) -> None:
        self.const = const
        self.terms: Dict[Value, int] = terms if terms is not None else {}

    @staticmethod
    def of(v: Value, coeff: int = 1) -> "Affine":
        return Affine(0, {v: coeff})

    def add(self, other: "Affine") -> "Affine":
        terms = dict(self.terms)
        for v, c in other.terms.items():
            nc = terms.get(v, 0) + c
            if nc:
                terms[v] = nc
            else:
                terms.pop(v, None)
        return Affine(self.const + other.const, terms)

    def scale(self, c: int) -> "Affine":
        if c == 0:
            return Affine(0)
        return Affine(self.const * c,
                      {v: k * c for v, k in self.terms.items()})

    def sub(self, other: "Affine") -> "Affine":
        return self.add(other.scale(-1))

    def shift(self, c: int) -> "Affine":
        return Affine(self.const + c, dict(self.terms))

    def substitute(self, v: Value, repl: "Affine") -> "Affine":
        """Replace ``v`` by ``repl`` (an inclusive bound of ``v``)."""
        c = self.terms.get(v, 0)
        if not c:
            return self
        terms = dict(self.terms)
        del terms[v]
        return Affine(self.const, terms).add(repl.scale(c))

    @property
    def is_const(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        parts = [str(self.const)]
        parts += [f"{c}*{v!r}" for v, c in self.terms.items()]
        return " + ".join(parts)


#: Access-site classification statuses.
PROVEN = "proven"
UNPROVEN = "unproven"
OOB = "oob"


@dataclass
class AccessFact:
    """Bounds verdict for one ``load``/``store``/``atomic`` site."""

    status: str
    reason: str
    index: Interval = field(default_factory=Interval.top)
    extent: Interval = field(default_factory=Interval.top)


@dataclass
class BoundsFinding:
    """A provably out-of-bounds access (compile-time lint finding)."""

    fn: str
    op: str
    reason: str
    index: str
    extent: str

    def to_dict(self) -> Dict[str, str]:
        return {"fn": self.fn, "op": self.op, "reason": self.reason,
                "index": self.index, "extent": self.extent}


class IntervalAnalysis:
    """One function's interval/affine facts (see module docstring).

    Build with :func:`certify_bounds`; query with :meth:`interval`,
    :meth:`affine_of`, :meth:`index_strides`, :meth:`variance` and
    :attr:`access` (per-op :class:`AccessFact`).
    """

    def __init__(self, fn: object, module: object,
                 aliasing: Optional[AliasInfo] = None) -> None:
        self.fn = fn
        self.module = module
        #: Provenance and written origins; computed on first read when
        #: not handed in (the SSA queries never read it).
        self._aliasing: Optional[AliasInfo] = aliasing
        #: Exact affine decomposition memo (pure SSA facts).
        self._affine: Dict[Value, Affine] = {}
        #: Plain ranges for symbols the walk registered.
        self._sym_range: Dict[Value, Interval] = {}
        #: Scoped inclusive symbolic bounds (induction variables,
        #: thread ids, branch refinements).
        self._lo_bounds: Dict[Value, List[Affine]] = {}
        self._hi_bounds: Dict[Value, List[Affine]] = {}
        self._order: Dict[Value, int] = {}
        self._next_order = 0
        #: Lane variance per value, filled by one walk on first read.
        self._variance: Optional[Dict[Value, Optional[bool]]] = None
        #: ``ptradd``-chain root and offset from it, per pointer.
        self._ptr_root: Dict[Value, Tuple[Value, Affine]] = {}
        #: The same through the stored-value fact (see :meth:`origin`).
        self._origin: Dict[Value, Tuple[Value, Affine, bool]] = {}
        #: Per access op (load/store/atomic): the bounds verdict.
        self.access: Dict[Op, AccessFact] = {}
        #: The last ``mpi.comm_size`` result in scope (rank bounds).
        self._comm_size: Optional[Value] = None
        #: The configured thread count: every ``rt.num_threads()``
        #: result and the thread count of every ``fork(0)`` equal it.
        self._num_threads = Value(I64, "num_threads")
        self._sym_range[self._num_threads] = Interval(1, POS_INF)
        #: Top-level directional bound evaluations requested: the
        #: analysis' unit of work, next to :meth:`counts`.
        self.evaluations = 0
        #: Directional bounds evaluated under the scoped bounds active
        #: now; emptied whenever one is pushed or popped.  A
        #: ``_sym_range`` entry is set once, at its value's definition,
        #: before any use, so it never stales an entry.
        self._memo: Dict[Tuple[bool, int, Tuple[Tuple[Value, int], ...]],
                         Bound] = {}

    @property
    def aliasing(self) -> AliasInfo:
        if self._aliasing is None:
            self._aliasing = analyze_aliasing(self.fn, self.module)
        return self._aliasing

    # -- public queries -------------------------------------------------
    def affine_of(self, v: Value) -> Affine:
        """Exact affine decomposition of an integer value."""
        got = self._affine.get(v)
        if got is not None:
            return got
        aff = self._decompose(v)
        self._affine[v] = aff
        return aff

    def interval(self, v: Value) -> Interval:
        """Best interval for ``v`` under the bounds active right now."""
        if isinstance(v, Constant):
            if isinstance(v.value, bool) or not isinstance(v.value, int):
                return TOP
            return Interval.const(v.value)
        if getattr(v, "type", None) is not I64:
            return TOP
        return self.bound_affine(self.affine_of(v))

    def variance(self, v: Value) -> Optional[bool]:
        """How ``v`` differs between the lanes of the vectorised region
        computing it: False (one scalar for every lane), True (one value
        per lane), None (the width is known only at run time).

        The vectorised regions are the ones every executor vectorises: a
        ``parallel_for`` body and the outermost ``simd`` loop (nested
        ones run serially).  Their induction variables and the ``alloc``s
        inside them vary; a ``call`` result inside them, a ``cache_pop``
        and a ``spawn`` handle have run-time width, except that a call to
        an intrinsic registered ``effects="pure"`` whose operands are all
        uniform is uniform (``rt.num_threads()`` inside a reverse ``simd``
        body); every other result joins its operands (True wins over None
        over False)."""
        if self._variance is None:
            self._variance = {}
            _fill_variance(getattr(self.fn, "body"), False, self._variance)
        return self._variance.get(v, False)

    def index_strides(self, idx: Value, ivars: Sequence[Value],
                      region: Op) -> Optional[Tuple[Dict[Value, int], bool]]:
        """``idx`` as ``Σ stride·ivar + rest`` over the induction
        variables ``ivars``: the non-zero strides, and whether the rest
        moves with a serial loop inside ``region`` ("inner").  None when
        a term of the rest is not uniform across the instances of
        ``region``.  Uniform are constants, arguments, ``fork`` thread
        counts, values defined outside the region — and outside the loop
        of every ivar, so an enclosing region's ivar never passes for
        uniform — and products of uniform terms."""
        scope = region
        for iv in ivars:
            if inside(scope, iv.owner):
                scope = iv.owner
        return self._strides(idx, ivars, scope)

    def proven(self, op: Op) -> bool:
        fact = self.access.get(op)
        return fact is not None and fact.status == PROVEN

    def status(self, op: Op) -> str:
        fact = self.access.get(op)
        return fact.status if fact is not None else UNPROVEN

    def counts(self) -> Dict[str, int]:
        out = {PROVEN: 0, UNPROVEN: 0, OOB: 0}
        for fact in self.access.values():
            out[fact.status] += 1
        return out

    def findings(self) -> List[BoundsFinding]:
        """Provably out-of-bounds accesses, in program order."""
        from ..ir.printer import print_op
        out: List[BoundsFinding] = []
        for op, fact in self.access.items():
            if fact.status == OOB:
                out.append(BoundsFinding(
                    fn=getattr(self.fn, "name", "?"),
                    op=print_op(op),
                    reason=fact.reason,
                    index=repr(fact.index),
                    extent=repr(fact.extent)))
        return out

    # -- affine decomposition -------------------------------------------
    def _decompose(self, v: Value) -> Affine:
        if isinstance(v, Constant):
            if isinstance(v.value, int) and not isinstance(v.value, bool):
                return Affine(v.value)
            return Affine.of(v)
        if isinstance(v, Result):
            op = v.op
            oc = op.opcode
            if oc == "iadd":
                return self.affine_of(op.operands[0]).add(
                    self.affine_of(op.operands[1]))
            if oc == "isub":
                return self.affine_of(op.operands[0]).sub(
                    self.affine_of(op.operands[1]))
            if oc == "ineg":
                return self.affine_of(op.operands[0]).scale(-1)
            if oc == "imul":
                a, b = op.operands
                if isinstance(a, Constant) and isinstance(a.value, int):
                    return self.affine_of(b).scale(a.value)
                if isinstance(b, Constant) and isinstance(b.value, int):
                    return self.affine_of(a).scale(b.value)
        return Affine.of(v)

    # -- index shape ------------------------------------------------------
    def _strides(self, idx: Value, ivars: Sequence[Value], scope: Op
                 ) -> Optional[Tuple[Dict[Value, int], bool]]:
        strides: Dict[Value, int] = {}
        inner = False
        for v, c in self.affine_of(idx).terms.items():
            if v in ivars:
                strides[v] = c
                continue
            term = self._term(v, ivars, scope)
            if term is None:
                return None
            inner = inner or term
        return strides, inner

    def _term(self, v: Value, ivars: Sequence[Value], scope: Op
              ) -> Optional[bool]:
        """A term of an index that is not an ivar: False uniform across
        the instances of ``scope``, True a serial ivar inside it, None
        unknown."""
        if isinstance(v, BlockArg):
            owner = v.owner
            if owner is not scope and not inside(owner, scope):
                return False
            if owner.opcode in ("for", "while"):
                return True
            return False if owner.opcode == "fork" and v.index == 1 else None
        if isinstance(v, Result) and inside(v.op, scope):
            if v.op.opcode != "imul":
                return None
            a = self._strides(v.op.operands[0], ivars, scope)
            b = self._strides(v.op.operands[1], ivars, scope)
            if a is None or b is None or a[0] or b[0]:
                return None
            return a[1] or b[1]
        return False

    # -- bound evaluation -----------------------------------------------
    def bound_affine(self, aff: Affine) -> Interval:
        return Interval(self._bound(aff, False), self._bound(aff, True))

    def _bound(self, aff: Affine, want_hi: bool) -> Bound:
        """One side of :meth:`bound_affine` (counted, memoised)."""
        self.evaluations += 1
        key = (want_hi, aff.const, tuple(aff.terms.items()))
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._eval_dir(aff, want_hi, _FUEL)
        return got

    def _eval_dir(self, aff: Affine, want_hi: bool, fuel: int) -> Bound:
        """Tightest upper (``want_hi``) / lower bound of ``aff``:
        eliminate symbolically-bounded values innermost-first by
        substituting each candidate bound, then evaluate the residual
        symbols over their intervals."""
        if fuel <= 0:
            return POS_INF if want_hi else NEG_INF
        bounded = [v for v in aff.terms
                   if (self._hi_bounds.get(v) if want_hi == (
                       aff.terms[v] > 0) else self._lo_bounds.get(v))]
        if bounded:
            v = max(bounded, key=lambda x: self._order.get(x, -1))
            coeff = aff.terms[v]
            use_hi = want_hi == (coeff > 0)
            cands = (self._hi_bounds if use_hi else self._lo_bounds)[v]
            best: Bound = POS_INF if want_hi else NEG_INF
            results: List[Bound] = []
            for repl in cands:
                results.append(self._eval_dir(aff.substitute(v, repl),
                                              want_hi, fuel - 1))
            # The value's plain range (if registered) competes too.
            plain = self._sym_range.get(v)
            if plain is not None:
                residual = dict(aff.terms)
                del residual[v]
                end = plain.hi if use_hi else plain.lo
                if end not in (POS_INF, NEG_INF):
                    results.append(self._eval_dir(
                        Affine(aff.const, residual).shift(0).add(
                            Affine(int(end) * coeff)),
                        want_hi, fuel - 1))
            best = min(results) if want_hi else max(results)
            return best
        total: Bound = aff.const
        for v, coeff in aff.terms.items():
            r = self._sym_range.get(v, TOP)
            use_hi = want_hi == (coeff > 0)
            end = r.hi if use_hi else r.lo
            total = _add(total, _mul(end, coeff))
            if total in (POS_INF, NEG_INF):
                break
        return _clamp(total)

    # -- bound registration ---------------------------------------------
    def _push_bound(self, v: Value, lo: Optional[Affine],
                    hi: Optional[Affine]) -> None:
        self._memo.clear()
        if v not in self._order:
            self._order[v] = self._next_order
            self._next_order += 1
        if lo is not None:
            self._lo_bounds.setdefault(v, []).append(lo)
        if hi is not None:
            self._hi_bounds.setdefault(v, []).append(hi)

    def _pop_bound(self, v: Value, lo: bool, hi: bool) -> None:
        self._memo.clear()
        if lo:
            self._lo_bounds[v].pop()
            if not self._lo_bounds[v]:
                del self._lo_bounds[v]
        if hi:
            self._hi_bounds[v].pop()
            if not self._hi_bounds[v]:
                del self._hi_bounds[v]

    # -- the walk --------------------------------------------------------
    def run(self) -> "IntervalAnalysis":
        self._walk_block(getattr(self.fn, "body"))
        return self

    def _walk_block(self, block: object) -> None:
        for op in getattr(block, "ops"):
            self._visit(op)

    def _visit(self, op: Op) -> None:
        oc = op.opcode
        if oc in ("load", "atomic"):
            ptr, idx = ((op.operands[0], op.operands[1]) if oc == "load"
                        else (op.operands[1], op.operands[2]))
            self.access[op] = self._classify_access(ptr, idx)
            if op.result is not None:
                below = (self._below(ptr) if oc == "load"
                         and op.result.type is I64 else None)
                if below is not None:
                    self._sym_range[op.result] = Interval(0, below - 1)
            return
        if oc == "store":
            self.access[op] = self._classify_access(op.operands[1],
                                                    op.operands[2])
            return
        if oc == "for" or oc == "parallel_for":
            # Positive-step loops only execute the body with iv in
            # [lb, ub-1] (reverse_order walks the same set backwards;
            # workshare chunks a subset of it).
            body = op.regions[0]
            self._push_bound(body.args[0], self.affine_of(op.operands[0]),
                             self.affine_of(op.operands[1]).shift(-1))
            self._walk_block(body)
            return
        if oc == "fork":
            self._visit_fork(op)
            return
        if oc == "while":
            body = op.regions[0]
            # The widened fixpoint of the iteration counter: [0,0]
            # widen [0,1] = [0, +inf).
            self._sym_range[body.args[0]] = Interval(0, POS_INF)
            self._walk_block(body)
            return
        if oc == "if":
            self._visit_if(op)
            return
        if oc == "call":
            self._visit_call(op)
            return
        for region in op.regions:
            self._walk_block(region)
        if op.result is not None:
            self._visit_compute(op)

    def _visit_compute(self, op: Op) -> None:
        res = op.result
        if getattr(res, "type", None) is not I64:
            return
        oc = op.opcode
        # Non-affine integer ops: evaluate the result range here (the
        # facts active at the definition hold at every use — SSA
        # region scoping keeps uses inside the defining region).
        if oc == "imod":
            a, b = (self.interval(op.operands[0]),
                    self.interval(op.operands[1]))
            if b.lo >= 1:
                hi = _add(b.hi, -1)
                if a.lo >= 0 and a.hi < hi:
                    hi = a.hi
                self._sym_range[res] = Interval(0, hi)
        elif oc == "idiv":
            a, b = (self.interval(op.operands[0]),
                    self.interval(op.operands[1]))
            if b.lo >= 1:
                ends = [_floordiv(a.lo, b.lo), _floordiv(a.lo, b.hi),
                        _floordiv(a.hi, b.lo), _floordiv(a.hi, b.hi)]
                self._sym_range[res] = Interval(min(ends), max(ends))
        elif oc == "imin" or oc == "imax":
            a, b = (self.interval(op.operands[0]),
                    self.interval(op.operands[1]))
            self._sym_range[res] = (
                Interval(min(a.lo, b.lo), min(a.hi, b.hi)) if oc == "imin"
                else Interval(max(a.lo, b.lo), max(a.hi, b.hi)))
            # imin(a, b) <= a, b and imax(a, b) >= a, b: affine bounds
            # the substitution cancels (``c·max(steps, 0)`` against a
            # slot ``iteration·c + k``).
            for x in op.operands:
                aff = self.affine_of(x)
                if res not in aff.terms:
                    self._push_bound(res, None if oc == "imin" else aff,
                                     aff if oc == "imin" else None)
        elif oc == "select":
            a, b = (self.interval(op.operands[1]),
                    self.interval(op.operands[2]))
            self._sym_range[res] = a.join(b)

    def _visit_fork(self, op: Op) -> None:
        body = op.regions[0]
        tid, nth = body.args[0], body.args[1]
        want = op.operands[0]
        if isinstance(want, Constant) and isinstance(want.value, int) \
                and want.value > 0:
            self._sym_range[nth] = Interval.const(want.value)
        elif isinstance(want, Constant):
            nt = Affine.of(self._num_threads)
            self._push_bound(nth, nt, nt)
        else:
            self._sym_range[nth] = Interval(1, POS_INF)
        self._push_bound(tid, Affine(0), Affine.of(nth).shift(-1))
        self._walk_block(body)

    def _visit_call(self, op: Op) -> None:
        callee = str(op.attrs.get("callee", ""))
        res = op.result
        if res is None:
            return
        if callee == "mpi.comm_size":
            self._sym_range[res] = Interval(1, POS_INF)
            self._comm_size = res
        elif callee == "mpi.comm_rank":
            self._sym_range[res] = Interval(0, POS_INF)
            if self._comm_size is not None:
                self._push_bound(res, Affine(0),
                                 Affine.of(self._comm_size).shift(-1))
        elif callee == "rt.num_threads":
            nt = Affine.of(self._num_threads)
            self._push_bound(res, nt, nt)
        elif callee == "rt.buflen":
            self._sym_range[res] = Interval(0, POS_INF)

    def _visit_if(self, op: Op) -> None:
        then_body, else_body = op.regions[0], op.regions[1]
        cond = op.operands[0]
        then_ref = self._refinement(cond, negate=False)
        else_ref = self._refinement(cond, negate=True)
        self._with_refinement(then_ref, then_body)
        self._with_refinement(else_ref, else_body)

    def _with_refinement(self, ref: List[Tuple[Value, Optional[Affine],
                                               Optional[Affine]]],
                         body: object) -> None:
        for v, lo, hi in ref:
            self._push_bound(v, lo, hi)
        try:
            self._walk_block(body)
        finally:
            for v, lo, hi in reversed(ref):
                self._pop_bound(v, lo is not None, hi is not None)

    def _refinement(self, cond: Value, negate: bool
                    ) -> List[Tuple[Value, Optional[Affine],
                                    Optional[Affine]]]:
        """Bounds implied by ``cond`` being true (or false)."""
        if not isinstance(cond, Result) or cond.op.opcode != "cmp":
            return []
        op = cond.op
        a, b = op.operands
        if getattr(a, "type", None) is not I64 \
                or getattr(b, "type", None) is not I64:
            return []
        if self.variance(a) is not False or self.variance(b) is not False:
            return []
        pred = str(op.attrs.get("pred", ""))
        neg = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt",
               "eq": "ne", "ne": "eq"}
        if negate:
            pred = neg.get(pred, "")
        fa, fb = self.affine_of(a), self.affine_of(b)
        out: List[Tuple[Value, Optional[Affine], Optional[Affine]]] = []
        if pred == "lt":      # a <= b-1, b >= a+1
            out = [(a, None, fb.shift(-1)), (b, fa.shift(1), None)]
        elif pred == "le":
            out = [(a, None, fb), (b, fa, None)]
        elif pred == "gt":    # a >= b+1, b <= a-1
            out = [(a, fb.shift(1), None), (b, None, fa.shift(-1))]
        elif pred == "ge":
            out = [(a, fb, None), (b, None, fa)]
        elif pred == "eq":
            out = [(a, fb, fb), (b, fa, fa)]
        # "ne" (and unknown predicates) refine nothing.
        # A bound of a value in terms of itself is useless and would
        # loop the substitution; drop self-referential entries.
        return [(v, lo, hi) for v, lo, hi in out
                if not ((lo is not None and v in lo.terms)
                        or (hi is not None and v in hi.terms))]

    # -- pointers & access classification --------------------------------
    def ptr_root(self, ptr: Value) -> Tuple[Value, Affine]:
        """The pointer ``ptr`` derives from by ``ptradd`` alone, and its
        exact element offset from that pointer."""
        got = self._ptr_root.get(ptr)
        if got is None:
            if isinstance(ptr, Result) and ptr.op.opcode == "ptradd":
                root, off = self.ptr_root(ptr.op.operands[0])
                got = (root, off.add(self.affine_of(ptr.op.operands[1])))
            else:
                got = (ptr, Affine(0))
            self._ptr_root[ptr] = got
        return got

    def origin(self, ptr: Value) -> Tuple[Value, Affine, bool]:
        """:meth:`ptr_root` read through the stored-value fact
        (:meth:`AliasInfo.stored_value`): the root, the exact offset from
        it, and whether a pointer load was resolved on the way.

        A resolved load returns the value one earlier execution stored,
        so the resolution is taken only when every term of its offset has
        one instance per call (an argument or a result of the function's
        top level) and so does its root — or the root is an ``alloc`` of
        a constant count, whose every instance has that one extent (the
        per-step cell a time loop stores into a pointer array)."""
        got = self._origin.get(ptr)
        if got is None:
            root, off = self.ptr_root(ptr)
            got = (root, off, False)
            stored = Affine(0)
            while isinstance(root, Result) and root.op.opcode == "load":
                v = self.aliasing.stored_value(root.op)
                if v is None:
                    break
                root, voff = self.ptr_root(v)
                stored = voff.add(stored)
                if (self._one_instance(root) or _constant_alloc(root)) \
                        and all(self._one_instance(t) for t in stored.terms):
                    got = (root, stored.add(off), True)
            self._origin[ptr] = got
        return got

    def _one_instance(self, v: Value) -> bool:
        return isinstance(v, Argument) or (
            isinstance(v, Result) and v.op.parent is getattr(self.fn, "body"))

    def ptr_offset(self, ptr: Value) -> Optional[Affine]:
        """Element offset of ``ptr`` relative to its origin base, or
        None when the pointer's derivation is opaque."""
        root, off, _ = self.origin(ptr)
        if isinstance(root, Argument) or (
                isinstance(root, Result) and root.op.opcode == "alloc"):
            return off
        return None

    def _below(self, ptr: Value) -> Optional[int]:
        """``N`` when every element ``ptr`` can reach is in ``[0, N)``:
        its origin is an argument declaring ``below=N`` that no write in
        the function may touch."""
        root, _, through = self.origin(ptr)
        if through and isinstance(root, Argument):
            arg = root
        else:
            prov = self.aliasing.provenance(ptr)
            if len(prov) != 1:
                return None
            (origin,) = prov
            if origin[0] != "arg":
                return None
            arg = origin[1]
        below = arg.attrs.get("below")
        if isinstance(below, int) and self.aliasing.is_readonly(arg):
            return below
        return None

    def extent_of(self, ptr: Value) -> Tuple[Optional[Affine], str]:
        """Affine element count of the buffer ``ptr`` points into,
        resolved through the stored-value fact, else through
        single-origin provenance; ``(None, why)`` when unknown."""
        root, _, through = self.origin(ptr)
        if through and isinstance(root, Result) \
                and root.op.opcode == "alloc":
            return self.affine_of(root.op.operands[0]), ""
        prov = (frozenset([("arg", root)])
                if through and isinstance(root, Argument)
                else self.aliasing.provenance(ptr))
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

    def row_major(self, addr: Affine, ext: Affine) -> bool:
        """The affine proof's one product rule: ``a·m + r`` lies inside
        a buffer of ``e·m'`` elements when ``m' = m``, ``0 ≤ a ≤ e-1``
        and ``0 ≤ r ≤ m-1`` — a row-major index, such as the reverse
        sweep's per-thread caches ``iteration·nthreads + tid`` against
        ``max(steps, 0)·nthreads`` (``a ≤ e-1`` reads the ``imax``
        bounds :meth:`_visit_compute` registered)."""
        if ext.const or len(ext.terms) != 1 or next(
                iter(ext.terms.values())) != 1:
            return False
        (prod,) = ext.terms
        for t, k in addr.terms.items():
            if k != 1:
                continue
            rest = Affine(addr.const, {v: c for v, c in addr.terms.items()
                                       if v is not t})
            for a, m in _factors(t):
                fa, fm = self.affine_of(a), self.affine_of(m)
                for e, m2 in _factors(prod):
                    same = fm.sub(self.affine_of(m2))
                    if not (self._bound(same, False) >= 0
                            and self._bound(same, True) <= 0):
                        continue
                    if (self._bound(fa, False) >= 0
                            and self._bound(self.affine_of(e).shift(-1)
                                            .sub(fa), False) >= 0
                            and self._bound(rest, False) >= 0
                            and self._bound(fm.shift(-1).sub(rest),
                                            False) >= 0):
                        return True
        return False

    def _classify_access(self, ptr: Value, idx: Value) -> AccessFact:
        ext_aff, why = self.extent_of(ptr)
        off = self.ptr_offset(ptr)
        if off is None:
            addr_aff = None
            why = why or "pointer offset is not affine"
        else:
            addr_aff = off.add(self.affine_of(idx))
        if addr_aff is None or ext_aff is None:
            return AccessFact(UNPROVEN, why)
        # A product-shaped site fails the affine test below: ask first.
        if self.row_major(addr_aff, ext_aff):
            return AccessFact(PROVEN, "")
        # slack = extent - addr; slack >= 1 everywhere means in bounds.
        # The verdict reads two bounds when it certifies and four when
        # it does not; the intervals themselves are for OOB findings.
        slack_aff = ext_aff.sub(addr_aff)
        index_lo = self._bound(addr_aff, False)
        slack_lo = self._bound(slack_aff, False)
        if index_lo >= 0 and slack_lo >= 1:
            return AccessFact(PROVEN, "")
        # Provably out of bounds: every executed lane violates.
        index_hi = self._bound(addr_aff, True)
        oob = ""
        if index_hi < 0:
            oob = "index is always negative"
        elif self._bound(slack_aff, True) < 1:
            oob = "index always >= buffer extent"
        if oob:
            return AccessFact(OOB, oob, index=Interval(index_lo, index_hi),
                              extent=self.bound_affine(ext_aff))
        parts: List[str] = []
        if index_lo < 0:
            parts.append(f"index lower bound {index_lo} may be negative")
        if slack_lo < 1:
            parts.append(f"index may reach extent (slack {slack_lo})")
        return AccessFact(UNPROVEN, "; ".join(parts) or why)


def _constant_alloc(v: Value) -> bool:
    return (isinstance(v, Result) and v.op.opcode == "alloc"
            and isinstance(v.op.operands[0], Constant))


def _factors(v: Value) -> List[Tuple[Value, Value]]:
    """Both orders of the factors of a non-constant ``imul``."""
    if not (isinstance(v, Result) and v.op.opcode == "imul"):
        return []
    a, b = v.op.operands
    return [(a, b), (b, a)]


def certify_bounds(fn: object, module: object,
                   aliasing: Optional[AliasInfo] = None
                   ) -> IntervalAnalysis:
    """Run the interval/affine dataflow over ``fn``; returns the facts.
    The backend lowering asks the result ``facts.proven(op)`` per memory
    access and elides the runtime bounds check on certified sites."""
    return IntervalAnalysis(fn, module, aliasing).run()
