"""Printer/parser round-trips."""

import numpy as np
import pytest

from repro.interp import ExecConfig, Executor
from repro.ir import (
    F64,
    I64,
    IRBuilder,
    Ptr,
    print_function,
    verify_module,
)
from repro.ir.parser import ParseError, parse_function, parse_module, \
    parse_type
from repro.ir.types import Request, Task


def _roundtrip(build, fn_name="f"):
    b = IRBuilder()
    build(b)
    text1 = print_function(b.module.functions[fn_name])
    fn2 = parse_function(text1)
    text2 = print_function(fn2)
    assert text1 == text2, f"\n--- first ---\n{text1}\n--- second ---\n{text2}"
    return fn2


def test_parse_types():
    assert parse_type("f64") is F64
    assert parse_type("ptr<f64>") is Ptr(F64)
    assert parse_type("ptr<ptr<i64>>") is Ptr(Ptr(I64))
    assert parse_type("request") is Request
    with pytest.raises(ParseError):
        parse_type("quux")


def test_roundtrip_arithmetic():
    def build(b):
        with b.function("f", [("a", F64), ("c", F64)], ret=F64) as f:
            a, c = f.args
            b.ret(b.sin(a) * c + b.sqrt(c) / (a - 0.5))
    _roundtrip(build)


def test_roundtrip_memory_and_loops():
    def build(b):
        with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            t = b.alloc(n, space="heap")
            with b.for_(0, n, step=2) as i:
                b.store(b.load(x, i) * 2.0, t, i)
            b.memcpy(x, t, n)
            b.memset(t, 0.0, n)
            b.free(t)
    _roundtrip(build)


def test_roundtrip_parallel_constructs():
    def build(b):
        with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            with b.parallel_for(0, n) as i:
                b.atomic_add(b.load(x, i), x, 0)
            with b.fork(4) as (tid, nth):
                b.store(b.itof(tid), x, tid)
                b.barrier()
                with b.workshare(0, n) as i:
                    b.store(1.0, x, i)
    _roundtrip(build)


def test_roundtrip_if_while_spawn():
    def build(b):
        with b.function("f", [("x", Ptr())]) as f:
            x = f.args[0]
            with b.while_() as it:
                v = b.load(x, 0)
                with b.if_(v > 1.0):
                    b.store(v * 0.5, x, 0)
                with b.else_():
                    b.store(v, x, 0)
                b.loop_while(b.cmp("gt", b.load(x, 0), 1.0))
            with b.spawn() as t:
                b.store(9.0, x, 1)
            b.call("task.wait", t)
    _roundtrip(build)


def test_roundtrip_calls_with_attrs():
    def build(b):
        with b.function("f", [("x", Ptr()), ("y", Ptr()), ("n", I64)]) as f:
            x, y, n = f.args
            b.call("mpi.allreduce", x, y, n, op="min")
            r = b.call("mpi.isend", x, n, 1, 7)
            b.call("mpi.wait", r)
    _roundtrip(build)


def test_parsed_function_executes():
    def build(b):
        with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            with b.parallel_for(0, n) as i:
                v = b.load(x, i)
                b.store(v * v + 1.0, x, i)
    fn2 = _roundtrip(build)
    from repro.ir import Module, verify_module
    fn2_module = None
    # parse into a fresh module and execute it
    b = IRBuilder()
    build(b)
    text = print_function(b.module.functions["f"])
    from repro.ir.parser import parse_module
    mod = parse_module(text)
    verify_module(mod)
    xs = np.arange(1.0, 5.0)
    Executor(mod, ExecConfig(num_threads=2)).run("f", xs, 4)
    np.testing.assert_allclose(xs, np.arange(1.0, 5.0) ** 2 + 1.0)


def test_parse_error_messages():
    with pytest.raises(ParseError, match="function header"):
        parse_function("not a function")
    with pytest.raises(ParseError, match="undefined value"):
        parse_function(
            "func @f(%x: ptr<f64>) -> void {\n"
            "  store %nope, %x[0]\n"
            "  return\n"
            "}\n")


def test_roundtrip_generated_gradient():
    """Even AD-generated functions round-trip through text."""
    from repro.ad import Duplicated, autodiff
    b = IRBuilder()
    with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.parallel_for(0, n) as i:
            v = b.load(x, i)
            b.store(b.exp(v) * v, x, i)
    grad = autodiff(b.module, "k", [Duplicated, None])
    text1 = print_function(b.module.functions[grad])
    fn2 = parse_function(text1)
    assert print_function(fn2) == text1


def test_roundtrip_keeps_every_attribute():
    """The text is lossless: attrs the executors, the cost model or the
    verifier read come back (the gradient disk cache stores text)."""
    def build(b):
        with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            buf = b.alloc(n)
            buf.op.attrs.update(adcache=True, stream=True)
            h = b.cache_create()
            b.cache_push(h, b.alloc(n, I64))
            b.cache_pop(h, Ptr(I64))
            p = b.call("jl.arrayptr", x)
            p.op.result.type = Ptr(I64)
            with b.fork(2, framework="raja") as (tid, nth):
                with b.workshare(0, n, nowait=True) as i:
                    b.store(1.0, buf, i)
                b.barrier()
            with b.fork(2) as (tid, nth):
                with b.workshare(0, n) as i:
                    b.store(2.0, x, i)
            with b.spawn(framework="tbb") as t:
                b.store(3.0, x, 0)
            b.call("task.wait", t)
        for op in f.walk():
            if op.opcode == "for" and not op.attrs["nowait"]:
                op.attrs["reverse_order"] = True
    fn = _roundtrip(build)
    ops = list(fn.walk())
    by = lambda oc: [op for op in ops if op.opcode == oc]  # noqa: E731
    assert by("alloc")[0].attrs == {"space": "stack", "zero": True,
                                    "adcache": True, "stream": True}
    assert "adcache" not in by("alloc")[1].attrs
    assert by("cache_pop")[0].result.type is Ptr(I64)
    assert by("call")[0].result.type is Ptr(I64)
    assert [op.attrs["framework"] for op in by("fork")] == ["raja", "openmp"]
    assert [(op.attrs["nowait"], op.attrs.get("reverse_order", False))
            for op in by("for")] == [(True, False), (False, True)]
    assert by("spawn")[0].attrs["framework"] == "tbb"


def test_repeated_names_do_not_shift_anonymous_numbering():
    """Same-named ivars get a per-name suffix; ``%N`` names count only
    anonymous values, so the first print is already the fixed point."""
    def build(b):
        with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            for _ in range(3):
                with b.for_(0, n, name="e") as e:
                    b.store(b.load(x, e) * 2.0, x, e)
    fn = _roundtrip(build)
    text = print_function(fn)
    assert "%e in" in text and "%e_1 in" in text and "%e_2 in" in text
    assert "%5 = mul %4, 2.0" in text
