"""Julia frontend: GC array descriptors and GC preservation.

Reproduces the two Julia-specific memory phenomena of the paper:

* **Array descriptors with an extra indirection** (§VIII): a Julia
  array is a GC-allocated descriptor; the data pointer is extracted at
  use sites with ``jl.arrayptr``, which alias analysis treats as
  opaque.  This is why the Julia variants cache more and carry higher
  gradient overhead than the C++ ones.
* **GC preservation** (§VI-C2): raw data pointers do not root their
  array, so foreign calls (MPI) must be wrapped in
  ``gc_preserve_begin/end`` — and the AD engine extends the preserve
  set with shadows and mirrors it in the reverse pass.

Julia tasks (§V-B) are the marked ``b.spawn(framework="julia")``
construct itself, and MPI.jl calls are the same ``mpi.*`` calls a C++
rank makes (Enzyme.jl resolves the integer-address ``ccall`` back to
the name, §VI-C1), so neither needs a wrapper here.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

from ..ir.builder import IRBuilder
from ..ir.ops import CallOp
from ..ir.values import Value


class Julia:
    """Julia constructs over an :class:`IRBuilder`.

    ``descs`` are the values that stand for array descriptors: their
    data pointer is extracted through ``jl.arrayptr`` at use sites.
    """

    def __init__(self, b: IRBuilder, descs: Iterable[Value] = ()) -> None:
        self.b = b
        self.descs = frozenset(descs)

    def arrayptr(self, v: Value) -> Value:
        """The data pointer of ``v``: one ``jl.arrayptr`` call if ``v``
        is a descriptor, ``v`` itself otherwise.  The call is typed like
        its descriptor (``Ptr(I64)`` arrays stay integer arrays)."""
        if v not in self.descs:
            return v
        return self.b.emit(CallOp("jl.arrayptr", [v], v.type))

    def resolver(self) -> Callable[[Value], Value]:
        """:meth:`arrayptr` memoised for one loop body: each
        descriptor's data pointer is extracted once, at its first use
        in the body."""
        memo: dict[Value, Value] = {}

        def g(v: Value) -> Value:
            got = memo.get(v)
            if got is None:
                got = memo[v] = self.arrayptr(v)
            return got

        return g

    @contextlib.contextmanager
    def gc_preserve(self, *descs: Value):
        """``GC.@preserve a b begin ... end`` over descriptors."""
        b = self.b
        tok = b.call("jl.gc_preserve_begin", *descs)
        try:
            yield
        finally:
            b.call("jl.gc_preserve_end", tok)
