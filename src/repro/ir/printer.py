"""Textual printer for the repro IR (debugging, tests, goldens)."""

from __future__ import annotations

import io

from .function import Function, Module
from .ops import Block, Op
from .values import Argument, BlockArg, Constant, Result, Value


class _Namer:
    """Printed names: ``%<name>`` for named arguments / block arguments,
    ``%<n>`` for everything else, numbered by first appearance.

    A repeated name gets a ``_<k>`` suffix counted per name, never from
    the anonymous counter: the suffixed name is unique when the text is
    parsed back, so printing the parsed function numbers every
    anonymous value as before and the text is a fixed point of
    print -> parse -> print (stored gradient text is digested).
    """

    def __init__(self) -> None:
        self.names: dict[Value, str] = {}
        self.used: set[str] = set()
        self.repeats: dict[str, int] = {}
        self.counter = 0

    def name(self, v: Value) -> str:
        if isinstance(v, Constant):
            return repr(v.value)
        n = self.names.get(v)
        if n is not None:
            return n
        if isinstance(v, (Argument, BlockArg)) and v.name:
            base = n = f"%{v.name}"
        else:
            base = n = f"%{self.counter}"
            self.counter += 1
        while n in self.used:
            k = self.repeats[base] = self.repeats.get(base, 0) + 1
            n = f"{base}_{k}"
        self.used.add(n)
        self.names[v] = n
        return n


def print_module(module: Module) -> str:
    out = io.StringIO()
    for fn in module.functions.values():
        out.write(print_function(fn))
        out.write("\n")
    return out.getvalue()


def print_closure(module: Module, fn_name: str) -> str:
    """Everything in ``module`` that determines what ``fn_name``
    computes, as one text: the function and every user function it
    (transitively) calls, in order of discovery, each with its function
    attrs, then the signature and effects of every intrinsic called.

    A digest input (the gradient disk cache keys on it), not parser
    input.  A text-only function contributes its stored text and
    stored callee list."""
    out = io.StringIO()
    seen = {fn_name}
    work = [fn_name]
    intrinsics: dict[str, object] = {}
    while work:
        fn = module.functions[work.pop(0)]
        out.write(print_function(fn))
        if fn.attrs:
            out.write(f"attrs {sorted(fn.attrs.items())!r}\n")
        for callee in (fn.stored.callees if fn.text_only else callees(fn)):
            if callee in module.functions:
                if callee not in seen:
                    seen.add(callee)
                    work.append(callee)
            elif callee in module.intrinsics:
                intrinsics[callee] = module.intrinsics[callee]
    for name in sorted(intrinsics):
        i = intrinsics[name]
        args = ", ".join(str(t) for t in i.arg_types)
        out.write(f"intrinsic @{name}({args}{'...' if i.variadic else ''})"
                  f" -> {i.ret_type} {i.effects}\n")
    return out.getvalue()


def callees(fn: Function) -> list:
    """The names ``fn`` calls, each once, in order of discovery."""
    return list(dict.fromkeys(op.attrs["callee"] for op in fn.walk()
                              if op.opcode == "call"))


def print_function(fn: Function) -> str:
    if fn.text_only:
        return fn.stored.text
    out = io.StringIO()
    namer = _Namer()
    args = ", ".join(
        f"{namer.name(a)}: {a.type}"
        + ("".join(f" {k}" if val is True else f" {k}={val}"
                   for k, val in sorted(a.attrs.items()) if val))
        for a in fn.args)
    out.write(f"func @{fn.name}({args}) -> {fn.ret_type} {{\n")
    _print_block(fn.body, out, namer, indent=1)
    out.write("}\n")
    return out.getvalue()


class _OpsView:
    """Duck-typed block holding a chosen op list (for print_op)."""

    __slots__ = ("ops",)

    def __init__(self, ops: list) -> None:
        self.ops = ops


def _op_context(op: Op) -> str:
    """Enclosing-region path of an op, e.g. ``@fn / fork / if``."""
    parts = []
    blk = op.parent
    while blk is not None:
        pop = blk.parent_op
        if pop is None:
            fn = blk.parent_function
            if fn is not None:
                parts.append(f"@{getattr(fn, 'name', fn)}")
            break
        parts.append(pop.opcode)
        blk = pop.parent
    return " / ".join(reversed(parts))


def print_op(op: Op, context: bool = True) -> str:
    """Render one op as provenance for diagnostics: its printed form
    (region bodies elided) plus the enclosing-region path."""
    namer = _Namer()
    if op.regions:
        args = ", ".join(namer.name(v) for v in op.operands)
        line = f"{op.opcode} {args}".rstrip() + f"{_fmt_attrs(op)} {{...}}"
    else:
        out = io.StringIO()
        _print_block(_OpsView([op]), out, namer, indent=0)
        line = out.getvalue().rstrip("\n")
    if context:
        ctx = _op_context(op)
        if ctx:
            line += f"   [in {ctx}]"
    return line


def _fmt_attrs(op: Op, skip=("callee",), defaults=None) -> str:
    """``{k=v, ...}`` of the attrs not in ``skip``; falsy values and
    values equal to their entry in ``defaults`` (what the op's
    constructor sets when the parser builds it) are left out."""
    defaults = defaults or {}
    items = [f'{k}={v!r}' for k, v in sorted(op.attrs.items())
             if k not in skip and v not in (False, None, {}, [])
             and defaults.get(k) != v]
    return (" {" + ", ".join(items) + "}") if items else ""


def _print_block(block: Block, out, namer: _Namer, indent: int) -> None:
    pad = "  " * indent
    for op in block.ops:
        n = namer.name
        oc = op.opcode
        if oc == "load":
            out.write(f"{pad}{n(op.result)} = load {n(op.operands[0])}"
                      f"[{n(op.operands[1])}] : {op.result.type}\n")
        elif oc == "store":
            out.write(f"{pad}store {n(op.operands[0])}, {n(op.operands[1])}"
                      f"[{n(op.operands[2])}]\n")
        elif oc == "atomic":
            out.write(f"{pad}atomic_{op.attrs['kind']} {n(op.operands[0])}, "
                      f"{n(op.operands[1])}[{n(op.operands[2])}]"
                      f"{_fmt_attrs(op, skip=('callee', 'kind'))}\n")
        elif oc == "alloc":
            out.write(f"{pad}{n(op.result)} = alloc {n(op.operands[0])} x "
                      f"{op.result.type.elem} space={op.attrs['space']}"
                      f"{_fmt_attrs(op, skip=('space', 'zero'))}\n")
        elif oc == "call":
            # The result type is printed: an intrinsic may be called at
            # another type than it is registered with (jl.arrayptr on an
            # i64 array), and the parser only knows the registration.
            res = f"{n(op.result)} = " if op.result else ""
            ty = f" : {op.result.type}" if op.result else ""
            args = ", ".join(n(v) for v in op.operands)
            out.write(f"{pad}{res}call @{op.attrs['callee']}({args})"
                      f"{_fmt_attrs(op)}{ty}\n")
        elif oc == "return":
            vals = ", ".join(n(v) for v in op.operands)
            out.write(f"{pad}return {vals}\n".rstrip() + "\n")
        elif oc == "for":
            kind = "workshare_for" if op.attrs.get("workshare") else "for"
            simd = " simd" if op.attrs.get("simd") else ""
            tag = _fmt_attrs(op, skip=("workshare", "simd"))
            out.write(f"{pad}{kind}{simd} {namer.name(op.body.args[0])} in "
                      f"[{n(op.operands[0])}, {n(op.operands[1])}) "
                      f"step {n(op.operands[2])}{tag} {{\n")
            _print_block(op.regions[0], out, namer, indent + 1)
            out.write(f"{pad}}}\n")
        elif oc == "parallel_for":
            out.write(f"{pad}parallel_for {namer.name(op.body.args[0])} in "
                      f"[{n(op.operands[0])}, {n(op.operands[1])})"
                      f"{_fmt_attrs(op)} {{\n")
            _print_block(op.regions[0], out, namer, indent + 1)
            out.write(f"{pad}}}\n")
        elif oc == "fork":
            body = op.regions[0]
            out.write(f"{pad}fork({n(op.operands[0])}) "
                      f"({namer.name(body.args[0])}, {namer.name(body.args[1])})"
                      f"{_fmt_attrs(op, defaults={'framework': 'openmp'})}"
                      f" {{\n")
            _print_block(body, out, namer, indent + 1)
            out.write(f"{pad}}}\n")
        elif oc == "if":
            out.write(f"{pad}if {n(op.operands[0])} {{\n")
            _print_block(op.regions[0], out, namer, indent + 1)
            if op.regions[1].ops:
                out.write(f"{pad}}} else {{\n")
                _print_block(op.regions[1], out, namer, indent + 1)
            out.write(f"{pad}}}\n")
        elif oc == "while":
            out.write(f"{pad}while {namer.name(op.body.args[0])} {{\n")
            _print_block(op.regions[0], out, namer, indent + 1)
            out.write(f"{pad}}}\n")
        elif oc == "condition":
            out.write(f"{pad}continue_if {n(op.operands[0])}\n")
        elif oc == "spawn":
            out.write(f"{pad}{n(op.result)} = spawn"
                      f"{_fmt_attrs(op, defaults={'framework': 'julia'})}"
                      f" {{\n")
            _print_block(op.regions[0], out, namer, indent + 1)
            out.write(f"{pad}}}\n")
        elif oc == "cache_pop":
            out.write(f"{pad}{n(op.result)} = cache_pop {n(op.operands[0])}"
                      f" : {op.result.type}\n")
        elif oc == "cmp":
            out.write(f"{pad}{n(op.result)} = cmp.{op.attrs['pred']} "
                      f"{n(op.operands[0])}, {n(op.operands[1])}\n")
        else:
            res = f"{n(op.result)} = " if op.result else ""
            args = ", ".join(n(v) for v in op.operands)
            out.write(f"{pad}{res}{oc} {args}{_fmt_attrs(op)}\n")
