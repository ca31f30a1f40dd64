"""Pointer-argument contracts: ``extent=N`` and ``below=N``.

Bounds certification proves accesses against them and certified
accesses run unchecked, so they are enforced wherever a pointer enters a
function that declares one — ``Executor.wrap_args`` for arrays *and*
``PtrVal`` actuals, and the user-call path both tiers share — and the
failure is one typed error on every tier.
"""

from __future__ import annotations

import itertools
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.lulesh.driver import LuleshApp, domain_args
from repro.apps.minibude import MinibudeApp
from repro.apps.minibude.deck import make_deck
from repro.interp import (ExecConfig, Executor, lower_function,
                          probe_toolchain)
from repro.interp.lowering import Lowerer
from repro.interp.memory import ContractError
from repro.ir import (F64, I64, IRBuilder, Module, PointerType, Ptr,
                      VerificationError, parse_function, print_function,
                      verify_module)
from repro.ir.function import IntrinsicInfo
from repro.passes import certify_bounds

BACKENDS = ("interp", "compiled") + (
    ("native",) if probe_toolchain() is not None else ())


def _copy8_module():
    """``copy8(x, y)``: an 8-lane copy, both certified by ``extent=8``;
    ``outer(x, y)`` hands it ``x + 4``."""
    b = IRBuilder()
    with b.function("copy8", [("x", Ptr()), ("y", Ptr())],
                    arg_attrs=[{"extent": 8}, {"extent": 8}]) as f:
        x, y = f.args
        with b.for_(0, 8, simd=True) as i:
            b.store(b.load(x, i), y, i)
    with b.function("outer", [("x", Ptr()), ("y", Ptr())]) as f:
        x, y = f.args
        b.call("copy8", b.ptradd(x, 4), y)
    verify_module(b.module)
    return b.module


@pytest.mark.parametrize("backend", BACKENDS)
def test_ptrval_actual_is_checked(backend):
    """A ``PtrVal`` actual used to skip the extent check: certified
    slices then silently truncated on the compiled tier."""
    ex = Executor(_copy8_module(), ExecConfig(backend=backend))
    short = ex.interp.memory.wrap_external(np.arange(4.0), F64, name="x")
    y = np.zeros(8)
    with pytest.raises(ContractError) as ei:
        ex.run("copy8", short, y)
    assert str(ei.value) == ("argument 'x' of copy8 declares extent 8 but "
                             "the buffer has only 4 elements")
    assert not y.any()
    # ... and an interior pointer counts from its offset.
    full = ex.interp.memory.wrap_external(np.arange(8.0), F64)
    with pytest.raises(ContractError, match="has only 5 elements"):
        ex.run("copy8", full.added(3), y)
    ex.run("copy8", full, y)
    np.testing.assert_array_equal(y, np.arange(8.0))


@pytest.mark.parametrize("backend", BACKENDS)
def test_user_call_is_checked(backend):
    """The callee's contract holds at the call boundary too, with the
    same error on every tier (it was ``InterpreterError`` on one and a
    NumPy shape mismatch on the other)."""
    ex = Executor(_copy8_module(), ExecConfig(backend=backend))
    y = np.zeros(8)
    with pytest.raises(ContractError) as ei:
        ex.run("outer", np.arange(8.0), y)
    assert str(ei.value) == ("argument 'x' of copy8 declares extent 8 but "
                             "the buffer has only 4 elements")
    assert not y.any()
    ex.run("outer", np.arange(12.0), y)
    np.testing.assert_array_equal(y, np.arange(4.0, 12.0))


_TOUCH = IntrinsicInfo("ext.touch", [Ptr(I64)], effects="any")


def _gather_module(spoil=None):
    """``out[i] = x[idx[i]]`` with ``idx`` declaring ``below=6``;
    ``spoil`` adds a write to (``"store"``) or an escape of (``"call"``)
    the index array."""
    b = IRBuilder()
    b.module.register_intrinsic(_TOUCH)
    attrs = [{"extent": 6, "noalias": True},
             {"extent": 4, "below": 6, "noalias": True},
             {"extent": 4, "noalias": True}]
    with b.function("g", [("x", Ptr()), ("idx", Ptr(I64)), ("out", Ptr())],
                    arg_attrs=attrs) as f:
        x, idx, out = f.args
        if spoil == "store":
            b.store(2, idx, 0)
        elif spoil == "call":
            b.call("ext.touch", idx)
        with b.for_(0, 4, simd=True) as i:
            b.store(b.load(x, b.load(idx, i)), out, i)
    verify_module(b.module)
    return b.module


def _gather_site(module):
    fn = module.functions["g"]
    return fn, next(op for op in fn.walk() if op.opcode == "load"
                    and op.operands[0] is fn.args[0])


def test_below_certifies_the_gather_and_drops_its_check():
    module = _gather_module()
    fn, site = _gather_site(module)
    assert certify_bounds(fn, module).proven(site)
    for backend in BACKENDS:
        ex = Executor(module, ExecConfig(backend=backend))
        out = np.zeros(4)
        ex.run("g", np.arange(6.0), np.array([5, 0, 3, 3]), out)
        np.testing.assert_array_equal(out, [5.0, 0.0, 3.0, 3.0])
        if backend == "compiled":
            src = ex.interp.backend.get_compiled(fn).__lowered_source__
            assert "_ldu(rt, v1," in src and "_ld(rt" not in src


@pytest.mark.parametrize("spoil", ["store", "call"])
def test_written_or_escaped_index_array_gives_no_range(spoil):
    """The contract is checked at entry; it says nothing about elements
    the function itself (or a callee) may have written since."""
    module = _gather_module(spoil)
    fn, site = _gather_site(module)
    assert not certify_bounds(fn, module).proven(site)
    from repro.interp import lower_function
    src = lower_function(fn, bounds=certify_bounds(fn, module))[0]
    assert "_ld(rt, v1," in src and "_ldu(rt, v1," not in src


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", [-1, 6])
def test_below_is_enforced_at_entry(backend, bad):
    ex = Executor(_gather_module(), ExecConfig(backend=backend))
    out = np.zeros(4)
    with pytest.raises(ContractError) as ei:
        ex.run("g", np.arange(6.0), np.array([1, bad, 2, 0]), out)
    lo, hi = min(bad, 0), max(bad, 2)
    assert str(ei.value) == (f"argument 'idx' of g declares below 6 but "
                             f"holds elements in [{lo}, {hi}]")
    assert not out.any()


# -- every app argument that declares a contract ----------------------------

_APP = LuleshApp("serial", 2)
_BUDE = MinibudeApp("serial", make_deck(4, 2, 6))


def _declared(app):
    fn = app.module.functions[app.fn]
    return [(app, k, a) for k, a in enumerate(fn.args)
            if "extent" in a.attrs or "below" in a.attrs]


_DECLARED = _declared(_APP) + _declared(_BUDE)


def _fresh_args(app) -> list:
    if app is _APP:
        return list(domain_args(_APP.make_domains()[0], 1))
    return list(app._args()[1])


def test_lulesh_declares_the_index_array_contracts():
    below = {a.name: a.attrs["below"] for _, _, a in _declared(_APP)
             if "below" in a.attrs}
    nelem, nnode = 8, 27
    assert below == {"nodelist": nnode, "corner_ell": 8 * nelem + 1,
                     "lxim": nelem, "lxip": nelem, "letam": nelem,
                     "letap": nelem, "lzetam": nelem, "lzetap": nelem}


@settings(max_examples=20, deadline=None)
@given(how=st.integers(0, 2), where=st.integers(0, 10 ** 6))
def test_app_contract_violations_are_rejected_at_wrap_args(how, where):
    """ROADMAP 5d: a buffer one element short of its extent, or one
    element of an index array set to -1 / N, never reaches the certified
    code — ``wrap_args`` raises before anything runs.  Every declared
    argument of LULESH and miniBUDE, on both tiers."""
    for (app, k, formal), backend in itertools.product(
            _DECLARED, ("interp", "compiled")):
        args = _fresh_args(app)
        arr = args[k]
        if how == 0 or "below" not in formal.attrs:
            args[k] = arr[:formal.attrs["extent"] - 1].copy()
            want = "declares extent"
        else:
            arr = arr.copy()
            arr[where % arr.size] = -1 if how == 1 else formal.attrs["below"]
            args[k] = arr
            want = "declares below"
        ex = Executor(app.module, ExecConfig(backend=backend))
        with pytest.raises(ContractError, match=want) as ei:
            ex.wrap_args(app.fn, tuple(args))
        assert f"argument {formal.name!r} of {app.fn}" in str(ei.value)
        assert ex.clock == 0.0
        stats = ex.compile_stats()
        assert stats is None if backend == "interp" \
            else stats["functions"] == 0


# -- the attribute in the IR -------------------------------------------------

def test_below_prints_parses_and_reaches_the_gradient():
    module = _gather_module()
    text = print_function(module.functions["g"])
    assert "%idx: ptr<i64> below=6 extent=4 noalias" in text
    fresh = Module()
    fresh.register_intrinsic(_TOUCH)
    again = parse_function(text, fresh)
    assert again.args[1].attrs == {"below": 6, "extent": 4, "noalias": True}
    assert print_function(again) == text
    grad = _APP.module.functions[_APP.grad_fn()]
    sig = print_function(grad).splitlines()[0]
    assert "%nodelist: ptr<i64> below=27 extent=64 noalias" in sig


@pytest.mark.parametrize("type_, attrs, why", [
    (Ptr(), {"below": 4}, "cannot declare below"),
    (I64, {"below": 4}, "cannot declare below"),
    (I64, {"extent": 4}, "cannot declare extent"),
    (Ptr(I64), {"below": 0}, "want an integer >= 1"),
    (Ptr(I64), {"below": True}, "want an integer >= 1"),
    (Ptr(), {"extent": -1}, "want an integer >= 0"),
])
def test_verifier_rejects_malformed_contracts(type_, attrs, why):
    b = IRBuilder()
    with b.function("f", [("a", type_)], arg_attrs=[attrs]):
        pass
    with pytest.raises(VerificationError, match=why):
        verify_module(b.module)


_HASHSEED_SCRIPT = """
import sys
from repro.apps.lulesh.driver import LuleshApp
from repro.ir import print_function
app = LuleshApp(sys.argv[1], 2, pr=int(sys.argv[2]))
print(print_function(app.module.functions[app.grad_fn()]))
"""


@pytest.mark.parametrize("flavor", ["serial", "openmp", "mpi"])
def test_gradient_text_with_contracts_is_stable_across_hash_seeds(flavor):
    """Two processes under different ``PYTHONHASHSEED``s print one
    gradient text: nothing the pipeline decides depends on how values
    hash."""
    import repro
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    pr = "2" if flavor == "mpi" else "1"
    outs = []
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, REPRO_CACHE_DIR="off",
                   PYTHONPATH=os.pathsep.join(
                       [src_root, os.environ.get("PYTHONPATH", "")]))
        outs.append(subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT, flavor, pr],
            capture_output=True, env=env, check=True).stdout)
    assert outs[0] == outs[1] and b" below=27 " in outs[0]


#: ``unproven`` bound verdicts on the nx = 2 gradient; the gathers and
#: scatter-adds through the index arrays are certified by their below=
#: contracts (373 serial / 390 mpi before them), in the closure-record
#: flavours through the stored-value fact (907 openmp and raja / 1 314
#: hybrid before it)
UNPROVEN_CEILING = {"serial": 133, "mpi": 150, "openmp": 152, "raja": 152,
                    "hybrid": 181}


def _lowered_with_names(fn, facts):
    lowerer = Lowerer(fn, bounds=facts)
    return lowerer.build()[0], lowerer.names


@pytest.mark.parametrize("flavor", sorted(UNPROVEN_CEILING))
def test_below_contracts_leave_no_checked_gather_through_an_index(flavor):
    """A pointer loaded through a below= argument is an index: every
    gather and scatter-add it feeds lowers to the unchecked form — also
    where the index array itself is reloaded from a closure record."""
    pr = 2 if flavor in ("mpi", "hybrid") else 1
    app = LuleshApp(flavor, 2, pr=pr)
    grad = app.module.functions[app.grad_fn()]
    facts = certify_bounds(grad, app.module)
    assert facts.counts()["unproven"] <= UNPROVEN_CEILING[flavor]
    source, names = _lowered_with_names(grad, facts)
    index_ptrs = [names[v] for v in names if isinstance(v.type, PointerType)
                  and "below" in getattr(facts.origin(v)[0], "attrs", {})]
    index_args = "|".join(index_ptrs)
    indexes = set(re.findall(rf"(v\d+) = _lds?u?\(rt, (?:{index_args}),",
                             source))
    checked = [line.strip() for line in source.splitlines()
               if re.search(r"\b_(ld|at)\(rt, ", line)
               and set(re.findall(r"v\d+", line.rsplit(", ", 1)[-1]))
               & indexes]
    assert indexes and not checked, checked[:3]


@pytest.mark.parametrize("flavor", ["serial", "openmp", "raja", "mpi",
                                    "hybrid", "raja_mpi"])
def test_cpp_lulesh_primals_certify_every_site(flavor):
    """The C++ flavours' primals: every access proven, the fork bodies'
    through the closure records included."""
    pr = 2 if "mpi" in flavor or flavor == "hybrid" else 1
    app = LuleshApp(flavor, 2, pr=pr)
    counts = certify_bounds(app.module.functions[app.fn],
                            app.module).counts()
    assert counts["unproven"] == 0 and counts["proven"] > 250, counts
