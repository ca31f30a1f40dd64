"""Access plans against the interpreter (see ``Lowerer._plan``).

For random ``simd`` / workshare / ``parallel_for`` programs whose
addresses are ``c0 + s*iv + uniform`` with random sign and stride
(0, +-1, +-k), through ``ptradd`` chains, lane-private ``alloc c``
cells, masked branches, optionally one access whose lowest or highest
lane is exactly one cell out of range, and optionally inside spawned
tasks (some holding the loop serial) waited in a shuffled order:

* interp, compiled and native agree on every buffer, the clock and every
  ``CostVector`` field;
* a failing program fails alike — same exception type and message — and
  leaves the same bytes behind (the failing access mutates nothing);
* the lowering took the slice path where the address is affine in the
  lane with a non-zero stride, and never materialised an index vector
  for it.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings

from repro.interp import compile_function, probe_toolchain

from . import simd_programs as sp

_TIERS = ("compiled",) + (
    ("native",) if probe_toolchain() is not None else ())


def _check(spec):
    module = sp.build_plan(spec)
    want = sp.run_plan(module, "interp")
    for backend in _TIERS:
        got = sp.run_plan(module, backend)
        for a, b in zip(want[:3], got[:3]):
            np.testing.assert_array_equal(a, b)
        assert want[3:] == got[3:], backend
    return module, want[5]


@settings(max_examples=60, deadline=None)
@given(spec=sp.PLAN_SPEC)
def test_plans_match_the_interpreter(spec):
    _check(spec)


@settings(max_examples=30, deadline=None)
@given(spec=sp.PLAN_SPEC.filter(lambda s: s["oob"] is None))
def test_in_range_programs_run_and_slice(spec):
    """No ``oob``: the program completes, and every unmasked access with
    ``s != 0`` (or through a cell) is a slice in each vectorised copy of
    the loop."""
    module, error = _check(spec)
    assert error is None
    src = compile_function(module.functions["plan"]).__lowered_source__
    copies = sp.vector_loops(spec)
    for kind in ("ld", "st", "at"):
        op = {"ld": "load", "st": "store", "at": "atomic"}[kind]
        plain = [a for a in spec["accesses"]
                 if a["op"] == op and not a["masked"]]
        # Besides the accesses of the spec: one sliced store and one
        # sliced load per cell, and the closing store to ``out``.
        extra = sum(1 for a in spec["accesses"] if a["cell"])
        extra = {"ld": extra, "st": extra + 1, "at": 0}[kind]
        assert (src.count(f"_{kind}s(rt, ")
                == copies * (extra + sum(1 for a in plain if a["s"] != 0)))
    if all(a["s"] != 0 and not a["masked"] for a in spec["accesses"]):
        # ... and no arithmetic ran on an induction vector.
        ivs = re.findall(r"(v\d+) = np\.arange", src)
        assert len(ivs) == copies
        for iv in ivs:
            assert not re.search(rf"_k\d+\({iv}, ", src)


_EDGE = {"loop": "simd", "lb": 2, "trips": 5, "step": 2, "oob": None,
         "tasks": None,
         "accesses": [{"op": "store", "c0": 1, "s": -3, "uniform": True,
                       "hops": 2, "masked": False, "cell": None}]}


@pytest.mark.parametrize("loop", ["simd", "workshare", "reverse",
                                  "parallel_for"])
@pytest.mark.parametrize("op", ["load", "store", "atomic"])
@pytest.mark.parametrize("end", ["lo", "hi"])
def test_one_cell_out_of_range_is_the_interpreters_error(loop, op, end):
    """The endpoint check of a slice: exactly one lane out of range, at
    either end, on every loop flavour, raises the interpreter's
    ``index out of bounds [lo, hi]`` and writes nothing."""
    spec = dict(_EDGE, loop=loop, oob=[0, end],
                accesses=[dict(_EDGE["accesses"][0], op=op)])
    _, error = _check(spec)
    assert error is not None and "index out of bounds [" in error[1]
