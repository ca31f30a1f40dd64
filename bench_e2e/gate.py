"""Correctness gate: runs once per workload in set-up.

Every check is one operation in ``fail_share``.  The references are
independent of what they check: the finite difference is taken over
primal runs under ``backend="interp"`` (neither the AD transform nor
the compiled tier), the bit-identity reference is the interpreter's
gradient, and miniBUDE's energies come from its NumPy reference.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .workloads import Run, Workload, digest, total

FD_EPS = 1e-6
FD_RTOL = 1e-4


@dataclasses.dataclass
class Gate:
    checks: list            # [(name, ok, detail)]
    app: object             # prepared compiled app, memos warm
    grad: Run               # its gradient run on the seed's inputs
    primal: Run             # its primal run on the same inputs
    interp_grad_s: float    # wall-clock of the interpreter's gradient run

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def finite(rank_arrays: list) -> bool:
    return all(np.isfinite(a).all() for arrays in rank_arrays
               for a in arrays.values())


def same_run(a: Run, b: Run) -> bool:
    """Gradients, primal outputs, simulated clock and cost vector all
    bit-identical."""
    return (digest(a.grads) == digest(b.grads)
            and digest(a.outputs) == digest(b.outputs)
            and a.time == b.time and a.cost.as_dict() == b.cost.as_dict())


def run_gate(wl: Workload, inputs, shadow_seed: float = 1.0) -> Gate:
    """``shadow_seed`` is 1 in every benchmark run (the paper's
    projection seeding); the harness tests pass a wrong one to show the
    gate fails."""
    app = wl.make_app(inputs, backend="compiled")
    ref = wl.make_app(inputs, backend="interp")

    grad = wl.gradient(app, wl.fresh_state(app, inputs), shadow_seed)
    state = wl.fresh_state(ref, inputs)
    t0 = time.perf_counter()
    ref_grad = wl.gradient(ref, state, shadow_seed)
    interp_grad_s = time.perf_counter() - t0
    primal = wl.forward(app, wl.fresh_state(app, inputs))
    ref_primal = wl.forward(ref, wl.fresh_state(ref, inputs))

    def value(delta: float) -> float:
        return total(wl.forward(
            ref, wl.fresh_state(ref, inputs, delta)).outputs)

    fd = (value(FD_EPS) - value(-FD_EPS)) / (2 * FD_EPS)
    rev = total(grad.grads, wl.wrt)
    relerr = abs(rev - fd) / max(abs(fd), 1e-300)

    checks = [
        ("grad_finite", finite(grad.grads), ""),
        ("fd_projection", relerr <= FD_RTOL,
         f"reverse {rev:.12g} vs interp central FD {fd:.12g}, "
         f"rel.err {relerr:.3g}"),
        ("grad_bits_vs_interp", same_run(grad, ref_grad),
         "gradient, outputs, clock and cost vs backend=interp"),
        ("primal_bits_vs_interp", same_run(primal, ref_primal),
         "outputs, clock and cost vs backend=interp"),
    ]
    expected = wl.reference_outputs(app)
    if expected is not None:
        ok = all(np.allclose(got[k], want[k], rtol=1e-9, atol=1e-12)
                 for got, want in zip(primal.outputs, expected)
                 for k in want)
        checks.append(("reference_outputs", ok, "primal vs NumPy reference"))

    return Gate(checks, app, grad, primal, interp_grad_s)
