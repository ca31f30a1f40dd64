"""Thread-locality and access-pattern analysis (paper §VI-A1).

When the reverse pass increments a shadow location, Enzyme chooses the
cheapest correct mechanism:

* **serial** load-add-store when the location is provably private to
  the executing thread / iteration — because the shadow's buffer was
  allocated inside the parallel region, or because the access index is
  affine in the parallel induction variable with nonzero stride
  (iteration-disjoint);
* a registered **reduction** when the location is the same for every
  iteration of the parallel loop (loop-uniform) and a reduction for the
  element type exists in the catalog;
* an **atomic** add otherwise.

Falling back to "always atomic" is legal but slow — that is exactly the
``atomic_everywhere`` ablation knob in :class:`repro.ad.api.ADConfig`.

That decision is about *threads*.  A ``for simd`` loop reverses into a
``for simd`` loop, which the executors run as one vector statement per
op, so an increment that is thread-``serial`` gets a second, *lane*
level decision (:func:`lane_kind`): lanes that provably hit distinct
cells keep the plain load-add-store; everything else becomes a
**lanes** accumulate — a conflict-safe vector read-modify-write that
combines colliding lanes in lane order.  On one core that is exactly
the serial load-add-store sequence it replaces, and it is costed as
such (``load 8w + flop w + store 8w``), never as an atomic or a
cross-thread reduction.

Note that only *load* adjoints need this analysis: the adjoint of a
store touches exactly the locations the primal stored, so a race-free
primal implies a race-free store adjoint.
"""

from __future__ import annotations

from typing import Optional

from ..ir.ops import Op
from ..ir.values import BlockArg, Constant, Result, Value
from ..passes.aliasing import AliasInfo

SERIAL = "serial"
ATOMIC = "atomic"
REDUCTION = "reduction"
LANES = "lanes"


class ReductionCatalog:
    """Registered cross-thread reductions (§VI-A1).

    Frameworks may register reductions for (element kind, combiner).
    The default catalog supports f64 sum — the combiner every shadow
    accumulation needs.
    """

    def __init__(self) -> None:
        self._entries: set[tuple[str, str]] = {("f64", "add")}

    def register(self, elem: str, combiner: str) -> None:
        self._entries.add((elem, combiner))

    def supports(self, elem: str, combiner: str) -> bool:
        return (elem, combiner) in self._entries


DEFAULT_REDUCTIONS = ReductionCatalog()


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
    from ..ir.values import Argument
    if isinstance(v, Argument):
        return {"_inner": False}
    return None


def classify_index(idx: Value, par_ivars: list[Value]) -> str:
    """Classify an access index relative to the parallel ivars.

    Returns "disjoint" (affine, nonzero stride in exactly one parallel
    ivar, no unknown terms), "uniform" (no dependence on parallel
    ivars), or "unknown".
    """
    form = _index_form(idx, set(par_ivars))
    if form is None:
        return "unknown"
    strides = {k: s for k, s in form.items() if k != "_inner" and s != 0}
    if not strides:
        return "uniform"
    if len(strides) == 1 and not form["_inner"]:
        return "disjoint"
    return "unknown"


def increment_kind(ptr: Value, idx: Value, par_ivars: list[Value],
                   aliasing: AliasInfo,
                   enclosing_parallel: Optional[Op],
                   catalog: ReductionCatalog = DEFAULT_REDUCTIONS,
                   atomic_everywhere: bool = False,
                   mpi_escapes: bool = False) -> str:
    """Choose the shadow-increment mechanism for a load adjoint.

    ``mpi_escapes`` marks locations whose shadow participates in MPI
    communication: the reverse pass of a send is a receive-and-increment
    delivered concurrently with rank-local reverse code (§VI-B), so such
    shadows are contended even *outside* any fork region.  The
    ``atomic_everywhere`` ablation must therefore not downgrade them to
    a serial load-add-store just because ``enclosing_parallel`` is None.
    """
    if atomic_everywhere:
        if enclosing_parallel is not None or mpi_escapes:
            return ATOMIC
        return SERIAL
    if enclosing_parallel is None:
        # Rank-local reverse code is single-threaded here, and the
        # adjoint-MPI helpers accumulate through private temporaries, so
        # serial is provably safe even for MPI-escaping shadows.
        return SERIAL
    # Thread-local allocation?
    alloc = aliasing.points_to_single_alloc(ptr)
    if alloc is not None and _alloc_inside(alloc, enclosing_parallel):
        return SERIAL
    cls = classify_index(idx, par_ivars)
    if cls == "disjoint":
        return SERIAL
    if cls == "uniform" and catalog.supports("f64", "add"):
        return REDUCTION
    return ATOMIC


def lane_loop(op: Op) -> Optional[Op]:
    """The loop whose iterations are the vector lanes ``op`` executes
    on: the outermost enclosing ``for simd`` loop (``op`` itself when it
    is one).  Inner ``simd`` loops run serially inside it, one vector
    statement per step.  None when there is no such loop, or when a
    ``parallel_for`` encloses it — its thread chunks are then the vector
    context and the thread-level analysis already covers its ivar."""
    lane: Optional[Op] = None
    node: Optional[Op] = op
    while node is not None:
        if node.opcode == "parallel_for":
            return None
        if node.opcode == "for" and node.attrs.get("simd"):
            lane = node
        blk = node.parent
        node = blk.parent_op if blk is not None else None
    return lane


def classify_lane_index(idx: Value, lane: Op) -> str:
    """Classify an access index relative to the lanes of ``lane``:
    "disjoint" (affine with non-zero stride in the lane ivar, every
    other term lane-uniform — serial ivars inside the loop are uniform
    per vector statement), "uniform", or "unknown"."""
    ivar = lane.body.args[0]

    def outside(v: Value) -> bool:
        owner = v.owner if isinstance(v, BlockArg) else getattr(v, "op", None)
        return owner is None or not (owner is lane
                                     or _alloc_inside(owner, lane))

    form = _index_form(idx, {ivar}, uniform=outside)
    if form is None:
        return "unknown"
    return "disjoint" if form.get(ivar, 0) != 0 else "uniform"


def lane_kind(ptr: Value, idx: Value, lane: Op, aliasing: AliasInfo) -> str:
    """Lane-level mechanism for a thread-``serial`` shadow increment
    inside the vectorised loop ``lane``: SERIAL when the lanes provably
    touch distinct cells (a buffer allocated inside the loop is
    privatised per lane; a lane-disjoint index), else LANES."""
    alloc = aliasing.points_to_single_alloc(ptr)
    if alloc is not None and _alloc_inside(alloc, lane):
        return SERIAL
    if classify_lane_index(idx, lane) == "disjoint":
        return SERIAL
    return LANES


def _alloc_inside(alloc_op: Op, region_op: Op) -> bool:
    """Is ``alloc_op`` lexically inside ``region_op``'s regions?"""
    blk = alloc_op.parent
    while blk is not None:
        owner = blk.parent_op
        if owner is region_op:
            return True
        blk = owner.parent if owner is not None else None
    return False


def parallel_context(op: Op) -> tuple[Optional[Op], list[Value]]:
    """Find the innermost enclosing parallel construct and the parallel
    induction values (parallel-for ivar, workshare ivar, fork tid)."""
    ivars: list[Value] = []
    region_owner: Optional[Op] = None
    blk = op.parent
    while blk is not None:
        owner = blk.parent_op
        if owner is None:
            break
        if owner.opcode == "parallel_for":
            ivars.append(owner.body.args[0])
            region_owner = region_owner or owner
        elif owner.opcode == "fork":
            ivars.append(owner.body.args[0])  # tid
            region_owner = region_owner or owner
        elif owner.opcode == "for" and owner.attrs.get("workshare"):
            ivars.append(owner.body.args[0])
            # the fork op further out will also be seen
        elif owner.opcode == "spawn":
            region_owner = region_owner or owner
        blk = owner.parent
    return region_owner, ivars
