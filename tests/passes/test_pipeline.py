"""Pass-manager behaviour and pipeline-level invariants."""

import numpy as np
import pytest

from repro.interp import Executor
from repro.ir import F64, I64, IRBuilder, Ptr, verify_module
from repro.passes import (
    ConstantFold,
    DCE,
    PassManager,
    cleanup_pipeline,
    default_pipeline,
)


def _sample_module():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        k = b.mul(3.0, 2.0)            # foldable
        dead = b.sin(k)                # dead after folding
        with b.for_(0, n) as i:
            inv = b.sqrt(b.add(k, 10.0))   # invariant
            v = b.load(x, i)
            b.store(b.add(b.mul(v, inv), 0.0), x, i)
    return b


def test_pass_manager_converges_and_counts():
    b = _sample_module()
    pm = default_pipeline(verify_each=True)
    changed = pm.run(b.module)
    assert changed
    assert pm.stats  # at least one pass reported work
    # A second run reaches a fixpoint quickly.
    pm2 = default_pipeline()
    pm2.run(b.module)
    verify_module(b.module)


def test_pipeline_shrinks_and_preserves():
    b = _sample_module()
    before = b.module.functions["f"].num_ops()
    xs_expect = np.arange(1.0, 6.0) * 4.0
    default_pipeline().run(b.module)
    after = b.module.functions["f"].num_ops()
    assert after < before
    xs = np.arange(1.0, 6.0)
    Executor(b.module).run("f", xs, 5)
    np.testing.assert_allclose(xs, xs_expect)


def test_cleanup_pipeline_on_gradient():
    from repro.ad import ADConfig, Duplicated, autodiff
    sizes = {}
    for post_opt in (False, True):
        b = IRBuilder()
        with b.function("k", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            with b.parallel_for(0, n) as i:
                v = b.load(x, i)
                b.store(v * v, x, i)
        grad = autodiff(b.module, "k", [Duplicated, None],
                        ADConfig(post_opt=post_opt))
        sizes[post_opt] = b.module.functions[grad].num_ops()
        # both are correct
        x0 = np.arange(1.0, 4.0)
        dx = np.ones(3)
        Executor(b.module).run(grad, x0.copy(), dx, 3)
        np.testing.assert_allclose(dx, 2 * x0)
    # The emitter folds as it goes: cleanup may find nothing left.
    assert sizes[True] <= sizes[False]


def test_pass_order_custom_manager():
    b = _sample_module()
    pm = PassManager([ConstantFold(), DCE()], max_rounds=2)
    pm.run(b.module)
    fn = b.module.functions["f"]
    # the dead sin(6.0) vanished
    assert not any(op.opcode == "sin" for op in fn.walk())


def test_verify_each_catches_breakage():
    class Vandal(ConstantFold):
        name = "vandal"

        def run(self, fn, module):
            # break SSA: duplicate a result-less use of a loop-local
            from repro.ir.ops import StoreOp
            for op in fn.walk():
                if op.opcode == "for":
                    inner = op.body.ops[-1]
                    if inner.opcode == "store":
                        fn.body.append(inner.clone({}))
                        return True
            return False

    b = _sample_module()
    from repro.ir import VerificationError
    pm = PassManager([Vandal()], verify_each=True)
    with pytest.raises(VerificationError):
        pm.run(b.module)
