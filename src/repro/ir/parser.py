"""Textual IR parser: the inverse of :mod:`repro.ir.printer`.

``parse_module(text)`` reconstructs functions from the printed form, so
IR can be stored as golden files, edited by hand in tests, and
round-tripped (``print(parse(print(f)))`` is a fixpoint).
"""

from __future__ import annotations

import re
from typing import Optional

from .function import Function, Module
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
        header = self._next()
        m = re.match(r"func @([\w.]+)\((.*)\) -> (\S+) \{$", header)
        if not m:
            raise ParseError(f"bad function header: {header!r}")
        name, argtext, ret = m.groups()
        args, attrs = [], []
        if argtext.strip():
            for part in _split_top(argtext, ","):
                part = part.strip()
                am = re.match(r"%(\S+): (\S+)((?: \w+(?:=-?\d+)?)*)$", part)
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
        fn = Function(name, args, parse_type(ret), attrs)
        self.module.add_function(fn)
        self.env = {f"%{a.name}": a for a in fn.args}
        self._parse_block_into(fn.body)
        return fn

    # -- blocks -------------------------------------------------------------
    def _parse_block_into(self, block: Block) -> None:
        while True:
            ln = self._next()
            if ln == "}":
                return
            op_or_none = self._parse_op(ln, block)
            if op_or_none == "ELSE":
                # handled inside _parse_op for if; never reaches here
                raise ParseError("stray else")

    def _parse_op(self, ln: str, block: Block):
        # result-producing generic forms
        m = re.match(r"(%\S+) = (.*)$", ln)
        if m:
            res_name, rest = m.groups()
            op = self._parse_rhs(rest, block)
            if op.result is None:
                raise ParseError(f"op has no result: {ln!r}")
            self._define(res_name, op.result)
            return op
        return self._parse_stmt(ln, block)

    # -- result-producing ops -------------------------------------------
    def _parse_rhs(self, rest: str, block: Block):
        m = re.match(r"load (\S+)\[(.+)\] : \S+$", rest)
        if m:
            op = LoadOp(self._val(m.group(1)), self._val(m.group(2)))
            block.append(op)
            return op
        m = re.match(r"alloc (\S+) x (\S+) space=(\w+)(\s*\{.*\})?$", rest)
        if m:
            op = AllocOp(self._val(m.group(1)), parse_type(m.group(2)),
                         m.group(3))
            op.attrs.update(_parse_attrs(m.group(4) or ""))
            block.append(op)
            return op
        m = re.match(r"call @([\w.]+)\((.*)\)(\s*\{.*\})?(?: : (\S+))?$",
                     rest)
        if m:
            callee, argtext, attrs, ty = m.groups()
            ret = (parse_type(ty) if ty
                   else self.module.lookup_callee(callee).ret_type)
            op = CallOp(callee, self._vals(argtext), ret,
                        _parse_attrs(attrs or ""))
            block.append(op)
            return op
        m = re.match(r"cmp\.(\w+) (.+)$", rest)
        if m:
            pred, ops = m.groups()
            vals = self._vals(ops)
            op = ComputeOp("cmp", vals, attrs={"pred": pred})
            block.append(op)
            return op
        m = re.match(r"ptradd (.+)$", rest)
        if m:
            vals = self._vals(m.group(1))
            op = PtrAddOp(vals[0], vals[1])
            block.append(op)
            return op
        m = re.match(r"spawn(\s*\{[^{]*\})? \{$", rest)
        if m:
            op = SpawnOp()
            op.attrs.update(_parse_attrs(m.group(1) or ""))
            block.append(op)
            self._parse_block_into(op.body)
            return op
        m = re.match(r"cache_create\s*$", rest)
        if m:
            op = CacheCreateOp()
            block.append(op)
            return op
        m = re.match(r"cache_pop (\S+)(?: : (\S+))?$", rest)
        if m:
            ty = parse_type(m.group(2)) if m.group(2) else Ptr(F64)
            op = CachePopOp(self._val(m.group(1)), ty)
            block.append(op)
            return op
        # generic compute op: "<opcode> a, b {attrs}"
        m = re.match(r"(\w+) (.+?)(\s*\{.*\})?$", rest)
        if m:
            oc, ops, attrs = m.groups()
            if oc in OP_INFO:
                op = ComputeOp(oc, self._vals(ops),
                               _parse_attrs(attrs or ""))
                block.append(op)
                return op
        raise ParseError(f"cannot parse rhs: {rest!r}")

    # -- statements -------------------------------------------------------
    def _parse_stmt(self, ln: str, block: Block):
        m = re.match(r"store (.+), (\S+)\[(.+)\]$", ln)
        if m:
            val, ptr, idx = m.groups()
            op = StoreOp(self._coerced(val, ptr), self._val(ptr),
                         self._val(idx))
            block.append(op)
            return op
        m = re.match(r"atomic_(\w+) (.+), (\S+)\[(.+)\](\s*\{.*\})?$", ln)
        if m:
            kind, val, ptr, idx, attrs = m.groups()
            op = AtomicRMWOp(kind, self._val(val), self._val(ptr),
                             self._val(idx))
            op.attrs.update(_parse_attrs(attrs or ""))
            block.append(op)
            return op
        m = re.match(r"call @([\w.]+)\((.*)\)(\s*\{.*\})?$", ln)
        if m:
            callee, argtext, attrs = m.groups()
            target = self.module.lookup_callee(callee)
            op = CallOp(callee, self._vals(argtext), target.ret_type,
                        _parse_attrs(attrs or ""))
            block.append(op)
            return op
        if ln == "return":
            op = ReturnOp([])
            block.append(op)
            return op
        m = re.match(r"return (.+)$", ln)
        if m:
            op = ReturnOp(self._vals(m.group(1)))
            block.append(op)
            return op
        m = re.match(r"continue_if (.+)$", ln)
        if m:
            op = ConditionOp(self._val(m.group(1)))
            block.append(op)
            return op
        if ln == "barrier":
            op = BarrierOp()
            block.append(op)
            return op
        m = re.match(r"free (\S+)$", ln)
        if m:
            op = FreeOp(self._val(m.group(1)))
            block.append(op)
            return op
        m = re.match(r"memset (.+)$", ln)
        if m:
            v = self._vals(m.group(1))
            op = MemsetOp(v[0], v[1], v[2])
            block.append(op)
            return op
        m = re.match(r"memcpy (.+)$", ln)
        if m:
            v = self._vals(m.group(1))
            op = MemcpyOp(v[0], v[1], v[2])
            block.append(op)
            return op
        m = re.match(r"cache_push (.+)$", ln)
        if m:
            v = self._vals(m.group(1))
            op = CachePushOp(v[0], v[1])
            block.append(op)
            return op
        m = re.match(
            r"(for|workshare_for)( simd)?( reversed)? (%\S+) in "
            r"\[(.+), (.+)\) step (\S+)(\s*\{[^{]*\})? \{$", ln)
        if m:
            kind, simd, _rev, iv, lb, ub, step, attrs = m.groups()
            op = ForOp(self._val(lb), self._val(ub), self._val(step),
                       workshare=(kind == "workshare_for"),
                       simd=bool(simd), ivar_name=iv.lstrip("%"))
            op.attrs.update(_parse_attrs((attrs or "").strip()))
            block.append(op)
            self._define(iv, op.ivar)
            self._parse_block_into(op.body)
            return op
        m = re.match(r"parallel_for (%\S+) in \[(.+), (.+)\)"
                     r"(\s*\{[^{]*\})? \{$", ln)
        if m:
            iv, lb, ub, attrs = m.groups()
            a = _parse_attrs((attrs or "").strip())
            op = ParallelForOp(self._val(lb), self._val(ub),
                               framework=a.get("framework", "openmp"),
                               ivar_name=iv.lstrip("%"),
                               schedule=a.get("schedule", "static"))
            block.append(op)
            self._define(iv, op.ivar)
            self._parse_block_into(op.body)
            return op
        m = re.match(r"fork\((.+)\) \((%\S+), (%\S+)\)"
                     r"(\s*\{[^{]*\})? \{$", ln)
        if m:
            nt, tid, nth, attrs = m.groups()
            op = ForkOp(self._val(nt))
            op.attrs.update(_parse_attrs(attrs or ""))
            block.append(op)
            self._define(tid, op.tid)
            self._define(nth, op.nthreads)
            self._parse_block_into(op.body)
            return op
        m = re.match(r"if (\S+) \{$", ln)
        if m:
            op = IfOp(self._val(m.group(1)))
            block.append(op)
            self._parse_if_regions(op)
            return op
        m = re.match(r"while (%\S+) \{$", ln)
        if m:
            op = WhileOp(ivar_name=m.group(1).lstrip("%"))
            block.append(op)
            self._define(m.group(1), op.ivar)
            self._parse_block_into(op.body)
            return op
        raise ParseError(f"cannot parse statement: {ln!r}")

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
