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
from ..ir.values import Value
from ..passes.intervals import IntervalAnalysis, inside

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


def classify_index(facts: IntervalAnalysis, idx: Value,
                   ivars: list[Value], region: Op) -> str:
    """Classify an access index across the instances of ``region``
    (:meth:`IntervalAnalysis.index_strides` over ``ivars``): "disjoint"
    (a non-zero stride in exactly one ivar, nothing else varying between
    instances), "uniform" (no dependence on the ivars), or "unknown".

    ``region`` is a thread-parallel construct with its enclosing parallel
    ivars, or a vectorised ``simd`` loop (:func:`lane_loop`) with its own
    ivar.  The lanes of a ``simd`` loop run in lockstep, one vector
    statement per op, so a serial loop inside it does not break lane
    disjointness; between threads it does."""
    form = facts.index_strides(idx, ivars, region)
    if form is None:
        return "unknown"
    strides, inner = form
    if not strides:
        return "uniform"
    if len(strides) == 1 and (region.opcode == "for" or not inner):
        return "disjoint"
    return "unknown"


def increment_kind(ptr: Value, idx: Value, par_ivars: list[Value],
                   facts: IntervalAnalysis,
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
    alloc = facts.aliasing.points_to_single_alloc(ptr)
    if alloc is not None and inside(alloc, enclosing_parallel):
        return SERIAL
    cls = classify_index(facts, idx, par_ivars, enclosing_parallel)
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


def lane_kind(ptr: Value, idx: Value, lane: Op,
              facts: IntervalAnalysis) -> str:
    """Lane-level mechanism for a thread-``serial`` shadow increment
    inside the vectorised loop ``lane``: SERIAL when the lanes provably
    touch distinct cells (a buffer allocated inside the loop is
    privatised per lane; a lane-disjoint index), else LANES."""
    alloc = facts.aliasing.points_to_single_alloc(ptr)
    if alloc is not None and inside(alloc, lane):
        return SERIAL
    if classify_index(facts, idx, [lane.body.args[0]], lane) == "disjoint":
        return SERIAL
    return LANES


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
