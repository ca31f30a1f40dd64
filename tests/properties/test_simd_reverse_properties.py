"""Fuzz: the reverse of a ``simd`` loop is a ``simd`` loop, and says the
same thing as the scalar reverse sweep it replaced.

For random ``simd`` programs (colliding gathers, lane-uniform loads,
nested serial loops, masked branches, ``simd`` inside ``fork``):

* the gradient equals the gradient of the same program built with
  ``simd=False`` to 1e-12 (only the summation order of colliding lanes
  differs);
* interp, compiled and native agree bit for bit — arrays, clock, cost;
* the simulated cost is that of the scalar twin: equal flops, load and
  store bytes, atomics and reductions wherever the vector engine
  charges per lane (``simd_programs.parity_fields``), never more
  otherwise, and never more integer ops;
* gradient IR and gradient bits do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.interp import probe_toolchain

from . import simd_programs as sp

_PARITY = ("flops", "load_bytes", "store_bytes", "atomic_ops",
           "reduction_ops")

_BACKENDS = ("interp", "compiled") + (
    ("native",) if probe_toolchain() is not None else ())


def _for_ops(fn):
    return [op for op in fn.walk() if op.opcode == "for"]


@settings(max_examples=40, deadline=None)
@given(spec=sp.SPEC, n=st.integers(1, 6), seed=st.integers(0, 3))
def test_simd_gradient_matches_scalar_twin(spec, n, seed):
    vmod, vgrad = sp.gradient(spec, simd=True)
    smod, sgrad = sp.gradient(spec, simd=False)
    # Structure: the simd loop reverses into a simd loop (forward clone
    # + reverse), the twin into plain loops only.
    assert sum(bool(o.attrs.get("simd"))
               for o in _for_ops(vmod.functions[vgrad])) == 2
    assert not any(o.attrs.get("simd")
                   for o in _for_ops(smod.functions[sgrad]))

    vsh, vout, vcost, _ = sp.run_gradient(vmod, vgrad, n, seed)
    ssh, sout, scost, _ = sp.run_gradient(smod, sgrad, n, seed)
    np.testing.assert_array_equal(vout, sout)
    for k in sp.ARGS:
        np.testing.assert_allclose(vsh[k], ssh[k], rtol=1e-12, atol=1e-12,
                                   err_msg=f"d_{k} for {spec}")

    # Cost parity with the scalar sweep: exact where the vector engine
    # charges per lane, never dearer anywhere.
    exact = sp.parity_fields(spec)
    assert {k: vcost[k] for k in exact} == {k: scost[k] for k in exact}, spec
    for k in _PARITY + ("int_ops",):
        assert vcost[k] <= scost[k], (k, spec)


@settings(max_examples=25, deadline=None)
@given(spec=sp.SPEC, n=st.integers(1, 6), seed=st.integers(0, 3))
def test_simd_gradient_bit_identical_across_tiers(spec, n, seed):
    module, grad = sp.gradient(spec, simd=True)
    ref = sp.run_gradient(module, grad, n, seed, "interp")
    for backend in _BACKENDS[1:]:
        got = sp.run_gradient(module, grad, n, seed, backend)
        for k in sp.ARGS:
            np.testing.assert_array_equal(ref[0][k], got[0][k])
        np.testing.assert_array_equal(ref[1], got[1])
        assert ref[2] == got[2], (backend, spec)
        assert ref[3] == got[3], (backend, spec)


#: Fixed programs for the cross-process check: one per construct.
_FIXED = [
    {"fork": False, "terms": [["gather", 0, "mul"], ["uniform", 1, "add"],
                              ["inner", 3, "flat"]]},
    {"fork": False, "terms": [["inner", 2, "wide"], ["masked", 0.0, ""],
                              ["sin", 0, ""]]},
    {"fork": True, "terms": [["gather", 0, "add"], ["inner", 2, "flat"],
                             ["stride", 0, "mul"]]},
]

_HASHSEED_SCRIPT = """
import hashlib, json, sys
from repro.ir.printer import print_module
from tests.properties import simd_programs as sp
for spec in json.loads(sys.argv[1]):
    module, grad = sp.gradient(spec, simd=True)
    sys.stdout.write(print_module(module))
    for backend in ("interp", "compiled"):
        sh, out, cost, clock = sp.run_gradient(module, grad, 5, 2, backend)
        h = hashlib.sha256()
        for k in sp.ARGS:
            h.update(sh[k].tobytes())
        h.update(out.tobytes())
        print(backend, h.hexdigest(), repr(clock), sorted(cost.items()))
"""


def test_simd_gradient_stable_across_hash_seeds(tmp_path):
    import repro
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    script = tmp_path / "emit.py"
    script.write_text(_HASHSEED_SCRIPT)
    outs = []
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src_root, repo_root,
                        os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, str(script), json.dumps(_FIXED)],
            capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert b"via='lanes'" in outs[0]


@pytest.mark.parametrize("spec", _FIXED)
def test_fixed_programs_hold_the_properties(spec):
    """The cross-process programs, in-process (fast failure signal)."""
    test_simd_gradient_matches_scalar_twin.hypothesis.inner_test(
        spec, 5, 2)
    test_simd_gradient_bit_identical_across_tiers.hypothesis.inner_test(
        spec, 5, 2)
