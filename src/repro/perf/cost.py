"""Instruction-cost accounting.

The interpreter executes programs *numerically for real* but measures
work in abstract instruction counts; :mod:`repro.perf.machine` converts
those counts into simulated seconds.  This separation is what lets a
Python interpreter reproduce the *shape* of the paper's scaling results:
the numerics are exact, the clock is modeled.
"""

from __future__ import annotations


class CostVector:
    """Counts of abstract machine work performed by a code region."""

    __slots__ = ("flops", "divs", "specials", "int_ops", "load_bytes",
                 "store_bytes", "stream_bytes", "atomic_ops",
                 "reduction_ops", "calls", "tape_ops", "tape_bytes",
                 "alloc_bytes")

    def __init__(self) -> None:
        self.flops = 0.0
        self.divs = 0.0
        self.specials = 0.0
        self.int_ops = 0.0
        self.load_bytes = 0.0
        self.store_bytes = 0.0
        # Streaming traffic (AD value caches: written once, read once,
        # far beyond cache capacity -> pure DRAM bandwidth).
        self.stream_bytes = 0.0
        self.atomic_ops = 0.0
        self.reduction_ops = 0.0
        self.calls = 0.0
        # Operator-overloading baseline (CoDiPack model) taping work.
        self.tape_ops = 0.0
        self.tape_bytes = 0.0
        self.alloc_bytes = 0.0

    # ------------------------------------------------------------------
    def add_class(self, cost_class: str, width: float) -> None:
        if cost_class == "flop":
            self.flops += width
        elif cost_class == "div":
            self.divs += width
        elif cost_class == "special":
            self.specials += width
        elif cost_class == "int":
            self.int_ops += width
        # "free" falls through.

    def add_load(self, nbytes: float) -> None:
        self.load_bytes += nbytes

    def add_store(self, nbytes: float) -> None:
        self.store_bytes += nbytes

    def add_stream(self, nbytes: float) -> None:
        self.stream_bytes += nbytes

    def add_atomic(self, count: float, nbytes: float) -> None:
        self.atomic_ops += count
        self.store_bytes += nbytes
        self.load_bytes += nbytes

    def add_reduction(self, count: float) -> None:
        self.reduction_ops += count

    def add_rmw(self, via, width: float) -> None:
        """Cost of one ``atomic`` op of ``width`` lanes by its ``via``
        lowering: a hardware atomic (None), a registered cross-thread
        reduction, or a single-thread lane-combining accumulate — which
        on one core *is* the load-add-store sequence it replaces."""
        if via is None:
            self.add_atomic(width, width * 8)
        elif via == "reduction":
            self.reduction_ops += width
            self.store_bytes += width * 8
        else:                               # "lanes"
            self.load_bytes += width * 8
            self.flops += width
            self.store_bytes += width * 8

    def add_tape(self, ops: float, nbytes: float) -> None:
        self.tape_ops += ops
        self.tape_bytes += nbytes

    # ------------------------------------------------------------------
    def merge(self, other: "CostVector") -> None:
        # Unrolled (hot in per-thread phase accounting): direct slot
        # adds are ~4x cheaper than a getattr/setattr loop.
        self.flops += other.flops
        self.divs += other.divs
        self.specials += other.specials
        self.int_ops += other.int_ops
        self.load_bytes += other.load_bytes
        self.store_bytes += other.store_bytes
        self.stream_bytes += other.stream_bytes
        self.atomic_ops += other.atomic_ops
        self.reduction_ops += other.reduction_ops
        self.calls += other.calls
        self.tape_ops += other.tape_ops
        self.tape_bytes += other.tape_bytes
        self.alloc_bytes += other.alloc_bytes

    def copy(self) -> "CostVector":
        c = CostVector()
        c.merge(self)
        return c

    @property
    def mem_bytes(self) -> float:
        return self.load_bytes + self.store_bytes

    @property
    def total_flops(self) -> float:
        return self.flops + self.divs + self.specials

    def is_zero(self) -> bool:
        return all(getattr(self, s) == 0 for s in CostVector.__slots__)

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in CostVector.__slots__}

    def __repr__(self) -> str:
        nz = {k: v for k, v in self.as_dict().items() if v}
        return f"CostVector({nz})"
