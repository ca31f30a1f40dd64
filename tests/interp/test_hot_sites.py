"""Where a statically scalar memory access is open-coded.

Only the body of a serial loop whose whole nest is scalar (no ``fork``,
``parallel_for``, ``while`` or ``simd`` loop anywhere inside) runs such
an access once per element; everywhere else it runs once per call,
thread, chunk or step and lowers to one ``_ld`` / ``_st`` helper call
(``_ldu`` / ``_stu`` on a certified site).  Either form must behave
exactly like the interpreter.
"""

import re

import numpy as np
import pytest

from repro.apps.lulesh.driver import LuleshApp
from repro.interp import ExecConfig, Executor, InterpreterError
from repro.interp.lowering import lower_function
from repro.ir import I64, IRBuilder, Ptr, verify_module
from repro.passes import certify_bounds

NA = {"noalias": True}

#: The open-coded form's first line: resolve the buffer of a pointer.
_OPEN = re.compile(r"^\s*_b\d+ = \w+\.buffer$", re.M)


def _nest_module(fault=None):
    """``f(x, acc, n, j)``: three 2-step serial loops holding a fork, a
    ``simd`` loop and a ``while`` loop respectively, each with a scalar
    load and store of ``acc`` at its own level (cold, like the fork
    body's and the ``simd`` body's), then an all-scalar serial nest over
    ``x`` (hot).  ``fault`` adds one cold access to the first loop that
    fails: ``"oob"`` stores to ``acc[j]``, ``"uaf"`` loads a freed
    cell."""
    b = IRBuilder()
    attrs = [{"extent": 8, **NA}, {"extent": 2, **NA}, {}, {}]
    with b.function("f", [("x", Ptr()), ("acc", Ptr()), ("n", I64),
                          ("j", I64)], arg_attrs=attrs) as f:
        x, acc, n, j = f.args
        dead = b.alloc(1, space="heap")
        b.free(dead)
        for inner in ("fork", "simd", "while"):
            with b.for_(0, 2) as s:
                v = b.load(acc, 0)
                b.store(b.add(v, 1.0), acc, 1)
                if inner == "fork":
                    if fault == "oob":
                        b.store(v, acc, j)
                    elif fault == "uaf":
                        b.store(b.load(dead, 0), acc, 0)
                    with b.fork(2):
                        b.store(b.add(b.load(acc, 1), b.itof(s)), acc, 0)
                        with b.workshare(0, n) as i:
                            b.store(b.mul(b.load(x, i), 2.0), x, i)
                elif inner == "simd":
                    with b.for_(0, 8, simd=True) as i:
                        b.store(b.add(b.load(x, i), b.load(acc, 0)), x, i)
                else:
                    with b.while_() as it:
                        b.loop_while(b.cmp("lt", it, 2))
        with b.for_(0, 8) as i:
            with b.for_(0, 2) as k:
                b.store(b.add(b.load(x, i), b.load(acc, k)), x, i)
    verify_module(b.module)
    return b.module


def _lowered(module):
    fn = module.functions["f"]
    return lower_function(fn, bounds=certify_bounds(fn, module))


def test_cold_sites_are_helper_calls_and_the_scalar_nest_is_open_coded():
    src, _, stats = _lowered(_nest_module())
    at = src.rindex("\n    for ")      # the all-scalar nest comes last
    cold, hot = src[:at], src[at:]
    # ``acc``: a load and a store per step of each loop, one of each per
    # thread, a load per chunk; all certified
    assert len(re.findall(r"= _ldu\(rt, v2, [01]\)$", cold, re.M)) == 5
    assert len(re.findall(r"^\s*_stu\(rt, .*, v2, [01]\)$", cold,
                          re.M)) == 4
    assert not _OPEN.search(cold)
    # the all-scalar nest keeps the open-coded form, without checks
    assert len(_OPEN.findall(hot)) == 3
    assert "_check_bounds" not in src
    assert stats.checks_elided == stats.bounds_proven


def _run(module, backend, j=0):
    x = np.arange(8.0)
    acc = np.array([0.5, 1.5])
    ex = Executor(module, ExecConfig(backend=backend, num_threads=2))
    if backend == "compiled":
        ex.interp.backend.strict = True
    ex.run("f", x, acc, 8, j)
    return x, acc, ex.clock, ex.cost.as_dict()


def test_both_tiers_agree_bit_for_bit():
    module = _nest_module()
    ix, iacc, iclock, icost = _run(module, "interp")
    cx, cacc, cclock, ccost = _run(module, "compiled")
    np.testing.assert_array_equal(ix, cx)
    np.testing.assert_array_equal(iacc, cacc)
    assert iclock == cclock
    assert icost == ccost


@pytest.mark.parametrize("fault, match", [("oob", "out of bounds"),
                                          ("uaf", "freed")])
def test_a_faulting_cold_access_raises_the_interpreters_error(fault,
                                                                match):
    module = _nest_module(fault)
    src, _, _ = _lowered(module)
    assert ("_st(rt, " if fault == "oob" else "_ldu(rt, ") in src
    errors = []
    for backend in ("interp", "compiled"):
        with pytest.raises(InterpreterError, match=match) as e:
            _run(module, backend, j=5)
        errors.append(re.sub(r"#\d+", "#", str(e.value)))  # buffer ids
    assert errors[0] == errors[1]


def test_lulesh_openmp_gradient_source_ceiling():
    """Open-coding the fork bodies' and the time loop's scalar accesses
    made this source 351,796 B; as helper calls it is about 222 KB."""
    app = LuleshApp("openmp", 14)
    fn = app.module.functions[app.grad_fn()]
    src, _, _ = lower_function(fn, bounds=certify_bounds(fn, app.module))
    assert len(src) <= 235_000
