"""Fuzz: random structured programs round-trip through print/parse and
execute identically before and after."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.interp import ExecConfig, Executor
from repro.ir import (
    F64,
    I64,
    IRBuilder,
    Ptr,
    parse_function,
    parse_module,
    print_function,
    verify_module,
)

# A random program is a list of statements operating on x (length n)
# and a scratch cell, with nested structure.

_STMT = st.deferred(lambda: st.one_of(
    st.tuples(st.just("axpy"), st.floats(-2, 2), st.floats(-2, 2)),
    st.tuples(st.just("trig")),
    st.tuples(st.just("clamp"), st.floats(0.1, 3.0)),
    st.tuples(st.just("loop"), st.integers(1, 3), st.lists(_STMT,
                                                           max_size=2)),
    st.tuples(st.just("branch"), st.floats(-1, 1),
              st.lists(_STMT, max_size=2), st.lists(_STMT, max_size=2)),
))


def _emit(b, stmts, x, n, depth=0):
    for s in stmts:
        kind = s[0]
        if kind == "axpy":
            with b.for_(0, n, simd=True, name=f"i{depth}") as i:
                v = b.load(x, i)
                b.store(b.add(b.mul(v, s[1]), s[2]), x, i)
        elif kind == "trig":
            with b.for_(0, n, simd=True, name=f"i{depth}") as i:
                b.store(b.sin(b.load(x, i)), x, i)
        elif kind == "clamp":
            with b.for_(0, n, simd=True, name=f"i{depth}") as i:
                b.store(b.min(b.load(x, i), s[1]), x, i)
        elif kind == "loop":
            with b.for_(0, s[1], name=f"k{depth}") as _k:
                _emit(b, s[2], x, n, depth + 1)
        elif kind == "branch":
            v0 = b.load(x, 0)
            with b.if_(b.cmp("gt", v0, s[1])):
                _emit(b, s[2], x, n, depth + 1)
            with b.else_():
                _emit(b, s[3], x, n, depth + 1)


@settings(max_examples=40, deadline=None)
@given(stmts=st.lists(_STMT, min_size=1, max_size=4),
       xs=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=4))
def test_print_parse_execute_roundtrip(stmts, xs):
    b = IRBuilder()
    with b.function("prog", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        _emit(b, stmts, x, n)
    verify_module(b.module)

    # Printed text is a fixed point of print∘parse from the first print
    # on: same-named loop ivars get a per-name suffix that leaves the
    # numbering of anonymous values alone (a stored gradient's digest
    # must not move when the text is read back and printed again).
    text1 = print_function(b.module.functions["prog"])
    mod2 = parse_module(text1)
    verify_module(mod2)
    text2 = print_function(mod2.functions["prog"])
    assert text2 == text1
    mod3 = parse_module(text2)
    text3 = print_function(mod3.functions["prog"])
    assert text3 == text1

    x1 = np.asarray(xs, dtype=float)
    x2 = x1.copy()
    x3 = x1.copy()
    Executor(b.module).run("prog", x1, len(xs))
    Executor(mod2).run("prog", x2, len(xs))
    Executor(mod3).run("prog", x3, len(xs))
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(x1, x3)


@settings(max_examples=25, deadline=None)
@given(stmts=st.lists(_STMT, min_size=1, max_size=3),
       xs=st.lists(st.floats(-1.2, 1.2), min_size=2, max_size=4))
def test_parsed_program_differentiates_identically(stmts, xs):
    """autodiff(parse(print(f))) produces the same derivatives as
    autodiff(f)."""
    from repro.ad import Duplicated, autodiff

    def build():
        b = IRBuilder()
        with b.function("prog", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            _emit(b, stmts, x, n)
        return b.module

    mod1 = build()
    text = print_function(mod1.functions["prog"])
    mod2 = parse_module(text)

    grads = []
    for mod in (mod1, mod2):
        g = autodiff(mod, "prog", [Duplicated, None])
        x0 = np.asarray(xs, dtype=float)
        dx = np.ones(len(xs))
        Executor(mod).run(g, x0, dx, len(xs))
        grads.append(dx)
    np.testing.assert_array_equal(grads[0], grads[1])
