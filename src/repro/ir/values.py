"""SSA values of the repro IR.

Every value is defined exactly once: as a function argument, a block
argument (loop induction variables, thread ids), a constant, or the
result of an operation.  Uses must be lexically dominated by the
definition — the verifier enforces this.

Values carry operator overloads that emit instructions through the
*current* :class:`~repro.ir.builder.IRBuilder` (a thread-local stack),
so IR can be written as ordinary Python expressions::

    with b.parallel_for(0, n) as i:
        v = b.load(data, i)
        b.store(v * v, data, i)
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from .types import F64, I1, I64, Type

if TYPE_CHECKING:  # pragma: no cover
    from .ops import Op


_tls = threading.local()


def _builder_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def push_builder(b) -> None:
    _builder_stack().append(b)


def pop_builder(b) -> None:
    stack = _builder_stack()
    assert stack and stack[-1] is b, "unbalanced builder push/pop"
    stack.pop()


def current_builder():
    stack = _builder_stack()
    if not stack:
        raise RuntimeError(
            "no active IRBuilder; value operators can only be used inside "
            "a `with builder.function(...)` body"
        )
    return stack[-1]


class Value:
    """Base class for all SSA values."""

    __slots__ = ("type", "name")

    def __init__(self, type: Type, name: str = "") -> None:
        self.type = type
        self.name = name

    # ------------------------------------------------------------------
    # Operator sugar (emits through the current builder)
    # ------------------------------------------------------------------
    def _emit(self, method: str, *args):
        return getattr(current_builder(), method)(self, *args)

    def __add__(self, other):
        return self._emit("add", other)

    def __radd__(self, other):
        return current_builder().add(other, self)

    def __sub__(self, other):
        return self._emit("sub", other)

    def __rsub__(self, other):
        return current_builder().sub(other, self)

    def __mul__(self, other):
        return self._emit("mul", other)

    def __rmul__(self, other):
        return current_builder().mul(other, self)

    def __truediv__(self, other):
        return self._emit("div", other)

    def __rtruediv__(self, other):
        return current_builder().div(other, self)

    def __pow__(self, other):
        return self._emit("pow", other)

    def __neg__(self):
        return current_builder().neg(self)

    def __mod__(self, other):
        return self._emit("imod", other)

    def __floordiv__(self, other):
        return self._emit("idiv", other)

    # Comparisons intentionally return IR values, not Python booleans.
    def __lt__(self, other):
        return current_builder().cmp("lt", self, other)

    def __le__(self, other):
        return current_builder().cmp("le", self, other)

    def __gt__(self, other):
        return current_builder().cmp("gt", self, other)

    def __ge__(self, other):
        return current_builder().cmp("ge", self, other)

    # NOTE: __eq__/__ne__/__hash__ are object's: identity semantics (at
    # C speed) so values can live in dicts and sets; use
    # builder.cmp("eq", a, b) for IR equality.

    def __repr__(self) -> str:
        label = self.name or f"@{id(self):x}"
        return f"<{type(self).__name__} {label}: {self.type}>"


class Constant(Value):
    """A literal constant (f64, i64, or i1)."""

    __slots__ = ("value",)

    def __init__(self, value, type: Optional[Type] = None) -> None:
        if type is None:
            if isinstance(value, bool):
                type = I1
            elif isinstance(value, int):
                type = I64
            elif isinstance(value, float):
                type = F64
            else:
                raise TypeError(f"cannot infer IR type for constant {value!r}")
        if type is F64:
            value = float(value)
        elif type is I64:
            if isinstance(value, float) and not value.is_integer():
                raise TypeError(
                    f"cannot use non-integral constant {value!r} as i64")
            value = int(value)
        elif type is I1:
            value = bool(value)
        super().__init__(type, name=repr(value))
        self.value = value

    def __repr__(self) -> str:
        return f"const({self.value!r}:{self.type})"


class Argument(Value):
    """A function argument."""

    __slots__ = ("index", "attrs")

    def __init__(self, type: Type, name: str, index: int, attrs=None) -> None:
        super().__init__(type, name)
        self.index = index
        #: e.g. {"noalias": True, "readonly": True}
        self.attrs = dict(attrs or {})


class BlockArg(Value):
    """A block argument: loop induction variable, thread id, etc."""

    __slots__ = ("owner", "index")

    def __init__(self, type: Type, name: str, owner: "Op", index: int) -> None:
        super().__init__(type, name)
        #: The region-bearing op (ForOp, ForkOp, ...) that binds this arg.
        self.owner = owner
        self.index = index


class Result(Value):
    """The (single) result of an operation."""

    __slots__ = ("op",)

    def __init__(self, type: Type, op: "Op", name: str = "") -> None:
        super().__init__(type, name)
        self.op = op


def as_value(x, type: Optional[Type] = None) -> Value:
    """Coerce a Python number (or Value) into an IR value."""
    if isinstance(x, Value):
        return x
    if isinstance(x, (bool, int, float)):
        return Constant(x, type)
    raise TypeError(f"cannot convert {x!r} to an IR value")
