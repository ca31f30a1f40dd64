"""Textual IR parser: the inverse of :mod:`repro.ir.printer`.

``parse_module(text)`` reconstructs functions from the printed form, so
IR can be stored as golden files, edited by hand in tests, and
round-tripped (``print(parse(print(f)))`` is a fixpoint).
"""

from __future__ import annotations

import re
from typing import Optional

from .function import Function, Module, _Stored
from .ops import (
    AllocOp,
    AtomicRMWOp,
    BarrierOp,
    Block,
    CacheCreateOp,
    CachePopOp,
    CachePushOp,
    CallOp,
    ComputeOp,
    ConditionOp,
    ForOp,
    ForkOp,
    FreeOp,
    IfOp,
    LoadOp,
    MemcpyOp,
    MemsetOp,
    ParallelForOp,
    PtrAddOp,
    ReturnOp,
    SpawnOp,
    StoreOp,
    WhileOp,
)
from .opinfo import OP_INFO
from .types import (
    F64,
    I1,
    I64,
    PointerType,
    Ptr,
    Request,
    Task,
    Token,
    Type,
    Void,
)
from .values import Constant, Value


class ParseError(Exception):
    pass


_TYPES = {"f64": F64, "i64": I64, "i1": I1, "void": Void,
          "task": Task, "request": Request, "token": Token}


def parse_type(text: str) -> Type:
    text = text.strip()
    if text.startswith("ptr<") and text.endswith(">"):
        return Ptr(parse_type(text[4:-1]))
    try:
        return _TYPES[text]
    except KeyError:
        raise ParseError(f"unknown type {text!r}") from None


def _parse_const(tok: str):
    if tok == "True":
        return Constant(True)
    if tok == "False":
        return Constant(False)
    try:
        return Constant(int(tok))
    except ValueError:
        pass
    try:
        return Constant(float(tok))
    except ValueError:
        raise ParseError(f"not a value or constant: {tok!r}") from None


def _parse_attrs(text: str) -> dict:
    """Parse ``{k=v, ...}`` with python-literal values."""
    out: dict = {}
    body = text.strip()
    if not body:
        return out
    body = body.strip("{}")
    for item in _split_top(body, ","):
        if not item.strip():
            continue
        k, _, v = item.partition("=")
        out[k.strip()] = _literal(v.strip())
    return out


def _literal(v: str):
    if v in ("True", "False"):
        return v == "True"
    if (v.startswith("'") and v.endswith("'")) or \
            (v.startswith('"') and v.endswith('"')):
        return v[1:-1]
    try:
        return int(v)
    except ValueError:
        pass
    try:
        return float(v)
    except ValueError:
        return v


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "(<[{":
            depth += 1
        elif ch in ")>]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


_FUNC_HEADER = re.compile(r"func @([\w.]+)\((.*)\) -> (\S+) \{$")
_FUNC_ARG = re.compile(r"%(\S+): (\S+)((?: \w+(?:=-?\d+)?)*)$")
_RESULT = re.compile(r"(%\S+) = (.*)$")
#: A line's leading keyword; ``atomic_<kind>`` dispatches as ``atomic_``.
_KEYWORD = re.compile(r"(atomic_)?\w+")
_COMPUTE = re.compile(r"(\w+) (.+?)(\s*\{.*\})?$")

#: keyword -> (pattern, handler): for the text right of ``%x = `` ...
_RHS: dict = {}
#: ... and for a whole line without a result.
_STMT: dict = {}


def _form(table: dict, pattern: str, *keywords: str):
    """Register the decorated ``handler(parser, match) -> op`` for the
    lines that start with one of ``keywords`` (default: the pattern's
    own first word).  Every pattern starts with its keyword followed by
    a non-word character, so no line can match another keyword's."""
    compiled = re.compile(pattern)

    def register(handler):
        for kw in keywords or (_KEYWORD.match(pattern).group(),):
            table[kw] = (compiled, handler)
        return handler
    return register


def _header(line: str) -> Function:
    """The function a ``func @name(args) -> type {`` line declares, with
    an empty body."""
    m = _FUNC_HEADER.match(line.strip())
    if not m:
        raise ParseError(f"bad function header: {line!r}")
    name, argtext, ret = m.groups()
    args, attrs = [], []
    if argtext.strip():
        for part in _split_top(argtext, ","):
            part = part.strip()
            am = _FUNC_ARG.match(part)
            if not am:
                raise ParseError(f"bad argument: {part!r}")
            aname, atype, aattrs = am.groups()
            args.append((aname, parse_type(atype)))
            aa: dict = {}
            for tok in aattrs.split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    aa[k] = int(v)
                else:
                    aa[tok] = True
            attrs.append(aa)
    return Function(name, args, parse_type(ret), attrs)


class _Parser:
    def __init__(self, text: str, module: Optional[Module] = None) -> None:
        self.lines = [ln.rstrip() for ln in text.splitlines()]
        self.pos = 0
        self.module = module if module is not None else Module()
        self.env: dict[str, Value] = {}

    # -- line plumbing ---------------------------------------------------
    def _peek(self) -> Optional[str]:
        while self.pos < len(self.lines):
            ln = self.lines[self.pos].strip()
            if ln:
                return ln
            self.pos += 1
        return None

    def _next(self) -> str:
        ln = self._peek()
        if ln is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return ln

    # -- values -----------------------------------------------------------
    def _val(self, tok: str) -> Value:
        tok = tok.strip()
        if tok.startswith("%"):
            try:
                return self.env[tok]
            except KeyError:
                raise ParseError(f"undefined value {tok}") from None
        return _parse_const(tok)

    def _vals(self, text: str) -> list[Value]:
        text = text.strip()
        if not text:
            return []
        return [self._val(t) for t in _split_top(text, ",")]

    def _define(self, name: str, value: Value) -> None:
        self.env[name] = value

    # -- top level ----------------------------------------------------------
    def parse_module(self) -> Module:
        while self._peek() is not None:
            self.parse_function()
        return self.module

    def parse_function(self) -> Function:
        fn = _header(self._next())
        self.module.add_function(fn)
        self._parse_body(fn, fn.body)
        return fn

    def _parse_body(self, fn: Function, block: Block) -> None:
        """Parse the region after the header line into ``block``, over
        ``fn``'s arguments."""
        self.env = {f"%{a.name}": a for a in fn.args}
        self._parse_block_into(block)

    # -- blocks -------------------------------------------------------------
    def _parse_block_into(self, block: Block) -> None:
        while True:
            ln = self._next()
            if ln == "}":
                return
            self._parse_op(ln, block)

    def _parse_op(self, ln: str, block: Block):
        """One line is one op.  The leading keyword picks the one
        pattern that can match it (every pattern starts with its
        keyword followed by a non-word character); the handler builds
        the op, appends it to ``block`` and parses its regions."""
        m = _RESULT.match(ln)
        if m:
            res_name, rest = m.groups()
            op = self._dispatch(_RHS, rest, block)
            if op is None:
                op = self._parse_compute(rest, block)
            if op.result is None:
                raise ParseError(f"op has no result: {ln!r}")
            self._define(res_name, op.result)
            return op
        op = self._dispatch(_STMT, ln, block)
        if op is None:
            raise ParseError(f"cannot parse statement: {ln!r}")
        return op

    def _dispatch(self, table: dict, text: str, block: Block):
        kw = _KEYWORD.match(text)
        entry = table.get(kw.group(1) or kw.group()) if kw else None
        m = entry[0].match(text) if entry else None
        if not m:
            return None
        op = entry[1](self, m)
        block.append(op)
        if op.regions:
            if type(op) is IfOp:
                self._parse_if_regions(op)
            else:
                self._parse_block_into(op.regions[0])
        return op

    def _parse_compute(self, rest: str, block: Block):
        # generic compute op: "<opcode> a, b {attrs}"
        m = _COMPUTE.match(rest)
        if m:
            oc, ops, attrs = m.groups()
            if oc in OP_INFO:
                op = ComputeOp(oc, self._vals(ops),
                               _parse_attrs(attrs or ""))
                block.append(op)
                return op
        raise ParseError(f"cannot parse rhs: {rest!r}")

    # -- result-producing ops -------------------------------------------
    @_form(_RHS, r"load (\S+)\[(.+)\] : \S+$")
    def _rhs_load(self, m):
        return LoadOp(self._val(m.group(1)), self._val(m.group(2)))

    @_form(_RHS, r"alloc (\S+) x (\S+) space=(\w+)(\s*\{.*\})?$")
    def _rhs_alloc(self, m):
        op = AllocOp(self._val(m.group(1)), parse_type(m.group(2)),
                     m.group(3))
        op.attrs.update(_parse_attrs(m.group(4) or ""))
        return op

    @_form(_RHS, r"call @([\w.]+)\((.*)\)(\s*\{.*\})?(?: : (\S+))?$")
    def _rhs_call(self, m):
        callee, argtext, attrs, ty = m.groups()
        ret = (parse_type(ty) if ty
               else self.module.lookup_callee(callee).ret_type)
        return CallOp(callee, self._vals(argtext), ret,
                      _parse_attrs(attrs or ""))

    @_form(_RHS, r"cmp\.(\w+) (.+)$")
    def _rhs_cmp(self, m):
        pred, ops = m.groups()
        return ComputeOp("cmp", self._vals(ops), attrs={"pred": pred})

    @_form(_RHS, r"ptradd (.+)$")
    def _rhs_ptradd(self, m):
        vals = self._vals(m.group(1))
        return PtrAddOp(vals[0], vals[1])

    @_form(_RHS, r"spawn(\s*\{[^{]*\})? \{$")
    def _rhs_spawn(self, m):
        op = SpawnOp()
        op.attrs.update(_parse_attrs(m.group(1) or ""))
        return op

    @_form(_RHS, r"cache_create\s*$")
    def _rhs_cache_create(self, m):
        return CacheCreateOp()

    @_form(_RHS, r"cache_pop (\S+)(?: : (\S+))?$")
    def _rhs_cache_pop(self, m):
        ty = parse_type(m.group(2)) if m.group(2) else Ptr(F64)
        return CachePopOp(self._val(m.group(1)), ty)

    # -- statements -------------------------------------------------------
    @_form(_STMT, r"store (.+), (\S+)\[(.+)\]$")
    def _stmt_store(self, m):
        val, ptr, idx = m.groups()
        return StoreOp(self._coerced(val, ptr), self._val(ptr),
                       self._val(idx))

    @_form(_STMT, r"atomic_(\w+) (.+), (\S+)\[(.+)\](\s*\{.*\})?$",
           "atomic_")
    def _stmt_atomic(self, m):
        kind, val, ptr, idx, attrs = m.groups()
        op = AtomicRMWOp(kind, self._val(val), self._val(ptr),
                         self._val(idx))
        op.attrs.update(_parse_attrs(attrs or ""))
        return op

    @_form(_STMT, r"call @([\w.]+)\((.*)\)(\s*\{.*\})?$")
    def _stmt_call(self, m):
        callee, argtext, attrs = m.groups()
        target = self.module.lookup_callee(callee)
        return CallOp(callee, self._vals(argtext), target.ret_type,
                      _parse_attrs(attrs or ""))

    @_form(_STMT, r"return(?: (.+))?$")
    def _stmt_return(self, m):
        return ReturnOp(self._vals(m.group(1)) if m.group(1) else [])

    @_form(_STMT, r"continue_if (.+)$")
    def _stmt_continue_if(self, m):
        return ConditionOp(self._val(m.group(1)))

    @_form(_STMT, r"barrier$")
    def _stmt_barrier(self, m):
        return BarrierOp()

    @_form(_STMT, r"free (\S+)$")
    def _stmt_free(self, m):
        return FreeOp(self._val(m.group(1)))

    @_form(_STMT, r"memset (.+)$")
    def _stmt_memset(self, m):
        v = self._vals(m.group(1))
        return MemsetOp(v[0], v[1], v[2])

    @_form(_STMT, r"memcpy (.+)$")
    def _stmt_memcpy(self, m):
        v = self._vals(m.group(1))
        return MemcpyOp(v[0], v[1], v[2])

    @_form(_STMT, r"cache_push (.+)$")
    def _stmt_cache_push(self, m):
        v = self._vals(m.group(1))
        return CachePushOp(v[0], v[1])

    @_form(_STMT, r"(for|workshare_for)( simd)?( reversed)? (%\S+) in "
           r"\[(.+), (.+)\) step (\S+)(\s*\{[^{]*\})? \{$",
           "for", "workshare_for")
    def _stmt_for(self, m):
        kind, simd, _rev, iv, lb, ub, step, attrs = m.groups()
        op = ForOp(self._val(lb), self._val(ub), self._val(step),
                   workshare=(kind == "workshare_for"),
                   simd=bool(simd), ivar_name=iv.lstrip("%"))
        op.attrs.update(_parse_attrs((attrs or "").strip()))
        self._define(iv, op.ivar)
        return op

    @_form(_STMT, r"parallel_for (%\S+) in \[(.+), (.+)\)"
           r"(\s*\{[^{]*\})? \{$")
    def _stmt_parallel_for(self, m):
        iv, lb, ub, attrs = m.groups()
        a = _parse_attrs((attrs or "").strip())
        op = ParallelForOp(self._val(lb), self._val(ub),
                           framework=a.get("framework", "openmp"),
                           ivar_name=iv.lstrip("%"),
                           schedule=a.get("schedule", "static"))
        self._define(iv, op.ivar)
        return op

    @_form(_STMT, r"fork\((.+)\) \((%\S+), (%\S+)\)"
           r"(\s*\{[^{]*\})? \{$")
    def _stmt_fork(self, m):
        nt, tid, nth, attrs = m.groups()
        op = ForkOp(self._val(nt))
        op.attrs.update(_parse_attrs(attrs or ""))
        self._define(tid, op.tid)
        self._define(nth, op.nthreads)
        return op

    @_form(_STMT, r"if (\S+) \{$")
    def _stmt_if(self, m):
        return IfOp(self._val(m.group(1)))

    @_form(_STMT, r"while (%\S+) \{$")
    def _stmt_while(self, m):
        op = WhileOp(ivar_name=m.group(1).lstrip("%"))
        self._define(m.group(1), op.ivar)
        return op

    def _parse_if_regions(self, op: IfOp) -> None:
        # then-body runs until "}" or "} else {"
        while True:
            ln = self._next()
            if ln == "}":
                return
            if ln == "} else {":
                self._parse_block_into(op.else_body)
                return
            self._parse_op(ln, op.then_body)

    def _coerced(self, val_tok: str, ptr_tok: str) -> Value:
        """Coerce a constant to the pointee type (e.g. `store 0.0`
        into an i64 buffer prints ambiguously)."""
        v = self._val(val_tok)
        p = self._val(ptr_tok)
        if isinstance(v, Constant) and isinstance(p.type, PointerType):
            want = p.type.elem
            if v.type is not want and want in (F64, I64, I1):
                return Constant(v.value, want)
        return v


def parse_module(text: str, module: Optional[Module] = None) -> Module:
    return _Parser(text, module).parse_module()


def parse_function(text: str, module: Optional[Module] = None) -> Function:
    p = _Parser(text, module)
    fn = p.parse_function()
    return fn


def read_function(text: str, module: Module, callees: list,
                  check=None) -> Function:
    """Add the function printed as ``text`` to ``module`` without
    parsing its body: only the header line is read.  The body is parsed
    on the first access of ``fn.body``, and ``check(fn)`` (a verifier,
    say) runs on it then.  Until that happens ``print_function`` returns
    ``text`` and ``print_closure`` follows ``callees`` — the names the
    body calls, in order of discovery (:func:`repro.ir.printer.callees`
    of the function ``text`` was printed from)."""
    fn = _header(text[:text.find("\n")])
    fn._body = None
    fn.stored = _Stored(text, module, callees)
    if check is not None:
        fn.when_built(check)
    module.add_function(fn)
    return fn


def parse_body(fn: Function, text: str, module: Module) -> Block:
    """The body of ``text`` (a printed function whose header ``fn``
    was read from), parsed over ``fn``'s arguments."""
    block = Block()
    block.parent_function = fn
    p = _Parser(text, module)
    p._next()
    p._parse_body(fn, block)
    return block
