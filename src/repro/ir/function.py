"""Functions and modules."""

from __future__ import annotations

from typing import Callable, Optional

from .ops import Block, Op
from .types import Type, Void
from .values import Argument, Value


class _Stored:
    """What a function read back from stored text keeps until its body
    is built: the text, the module it parses into, the names it calls
    (in order of discovery, for :func:`repro.ir.printer.print_closure`)
    and the hooks :meth:`Function.when_built` registered."""

    __slots__ = ("text", "module", "callees", "hooks")

    def __init__(self, text: str, module, callees: list) -> None:
        self.text = text
        self.module = module
        self.callees = list(callees)
        self.hooks: list[Callable] = []


class Function:
    """A function: a name, typed arguments, one body region, a return type.

    A function read back from stored text
    (:func:`repro.ir.parser.read_function`) has its signature and attrs
    but not its body: the text is parsed on the first access of
    :attr:`body` (:attr:`text_only` says whether that has happened).
    Until then :func:`~repro.ir.printer.print_function` and
    ``print_closure`` answer from the stored text.
    """

    def __init__(self, name: str,
                 args: list[tuple[str, Type]],
                 ret_type: Type = Void,
                 arg_attrs: Optional[list[dict]] = None) -> None:
        self.name = name
        self.ret_type = ret_type
        self.args: list[Argument] = []
        arg_attrs = arg_attrs or [{} for _ in args]
        for i, ((aname, atype), attrs) in enumerate(zip(args, arg_attrs)):
            self.args.append(Argument(atype, aname, i, attrs))
        self._body: Optional[Block] = Block()
        self._body.parent_function = self
        #: Stored text while the body is not built (see :class:`_Stored`).
        self.stored: Optional[_Stored] = None
        #: Free-form function attributes (e.g. {"noinline": True}).
        self.attrs: dict = {}

    @property
    def body(self) -> Block:
        body = self._body
        if body is None:
            body = self._build_body()
        return body

    @property
    def text_only(self) -> bool:
        """True while the body is still the stored text."""
        return self._body is None

    def _build_body(self) -> Block:
        """Parse the stored text into the body, then run the stored
        hooks on it.  A hook that raises leaves the function text-only
        (the next access parses and checks again)."""
        from .parser import parse_body
        stored = self.stored
        self._body = parse_body(self, stored.text, stored.module)
        try:
            for hook in stored.hooks:
                hook(self)
        except BaseException:
            self._body = None
            raise
        self.stored = None
        return self._body

    def when_built(self, hook: Callable) -> None:
        """Run ``hook(self)`` once the body of this text-only function
        is built."""
        self.stored.hooks.append(hook)

    def arg(self, name: str) -> Argument:
        for a in self.args:
            if a.name == name:
                return a
        raise KeyError(f"function {self.name} has no argument {name!r}")

    def walk(self):
        return self.body.walk()

    def num_ops(self) -> int:
        return sum(1 for _ in self.walk())

    def __repr__(self) -> str:
        sig = ", ".join(f"{a.name}: {a.type}" for a in self.args)
        return f"<Function {self.name}({sig}) -> {self.ret_type}>"


class IntrinsicInfo:
    """Registration record for a runtime intrinsic.

    ``effects`` is one of:
      * "pure"   — no side effects, safe to CSE/hoist/rematerialize
      * "read"   — reads memory through pointer args only
      * "write"  — may read and write memory through pointer args
      * "any"    — arbitrary effects (synchronization, I/O, scheduling)
    """

    def __init__(self, name: str, arg_types: list[Type],
                 ret_type: Type = Void, effects: str = "any",
                 variadic: bool = False, doc: str = "") -> None:
        self.name = name
        self.arg_types = arg_types
        self.ret_type = ret_type
        self.effects = effects
        self.variadic = variadic
        self.doc = doc


class Module:
    """A translation unit: functions plus the intrinsic registry."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: dict[str, Function] = {}
        self.intrinsics: dict[str, IntrinsicInfo] = {}
        from .intrinsics import register_default_intrinsics
        register_default_intrinsics(self)

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError(f"function {fn.name!r} already defined")
        self.functions[fn.name] = fn
        return fn

    def get_function(self, name: str) -> Function:
        return self.functions[name]

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def register_intrinsic(self, info: IntrinsicInfo) -> None:
        self.intrinsics[info.name] = info

    def lookup_callee(self, name: str):
        """Resolve a callee name to a Function or IntrinsicInfo."""
        if name in self.functions:
            return self.functions[name]
        if name in self.intrinsics:
            return self.intrinsics[name]
        raise KeyError(f"unknown callee {name!r}")

    def callee_ret_type(self, name: str) -> Type:
        target = self.lookup_callee(name)
        return target.ret_type

    def num_ops(self) -> int:
        return sum(f.num_ops() for f in self.functions.values())

    def clone_function(self, src_name: str, dst_name: str) -> Function:
        """Deep-copy a function under a new name (used by AD and passes)."""
        src = self.functions[src_name]
        dst = Function(dst_name, [(a.name, a.type) for a in src.args],
                       src.ret_type, [dict(a.attrs) for a in src.args])
        dst.attrs = dict(src.attrs)
        vmap: dict[Value, Value] = {
            sa: da for sa, da in zip(src.args, dst.args)
        }
        for op in src.body.ops:
            dst.body.append(op.clone(vmap))
        self.add_function(dst)
        return dst
