"""Value identity and the op walk: what every pass, the verifier, the
printer and the interpreters' ``env`` dicts lean on.

``Block.walk`` iterates with an explicit stack; the recursive generator
it replaced is kept here as the reference for order and for what a
caller may do to the IR while it iterates.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import repro  # noqa: F401  (every module that could subclass Value)
from repro.ad import ADConfig, Const, Duplicated, autodiff
from repro.ir import F64, I64, IRBuilder, Ptr, print_function, verify_module
from repro.ir.ops import Block
from repro.ir.values import Argument, Constant, Value

from ..properties.test_adjoint_equivalence import _time_stepped
from ..properties.test_roundtrip_properties import _STMT


# -- identity ---------------------------------------------------------------

def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_values_hash_and_compare_as_objects():
    assert Value.__hash__ is object.__hash__
    assert Value.__eq__ is object.__eq__
    for cls in _subclasses(Value):
        assert "__eq__" not in vars(cls), cls
        assert "__hash__" not in vars(cls), cls


def test_one_name_two_values_two_keys():
    a, b = Argument(F64, "x", 0), Argument(F64, "x", 0)
    one, uno = Constant(1.0), Constant(1.0)
    table = {a: "a", b: "b", one: "one", uno: "uno"}
    assert len(table) == 4
    assert table[a] == "a" and table[uno] == "uno"
    assert len({a, b, a, one, uno, one}) == 4


# -- the walk ---------------------------------------------------------------

def _walk_ref(block):
    """The recursive ``Block.walk``: one generator frame per level."""
    for op in list(block.ops):
        yield op
        for region in op.regions:
            yield from _walk_ref(region)


def _nested():
    """``if``/``else`` inside ``fork`` inside ``for``, with ops before,
    between and after the regions."""
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        b.store(0.0, x, 0)
        with b.for_(0, n) as i:
            v = b.load(x, i)
            with b.fork(2) as (tid, nth):
                w = b.mul(v, 2.0)
                with b.if_(b.cmp("lt", tid, 1)):
                    b.store(w, x, tid)
                    with b.for_(0, 2) as j:
                        b.store(b.add(w, 1.0), x, j)
                with b.else_():
                    b.store(b.sin(w), x, tid)
                    b.store(b.cos(w), x, 0)
                b.barrier()
            b.store(v, x, i)
        b.store(1.0, x, 1)
    verify_module(b.module)
    return b.module.functions["f"]


def test_walk_order_is_the_recursive_order():
    fn = _nested()
    want = list(_walk_ref(fn.body))
    assert [op.opcode for op in want].count("store") == 7
    assert list(fn.walk()) == want
    assert list(fn.body.walk()) == want
    for op in want:     # Op.walk: the op, then its regions
        assert list(op.walk()) == [op] + [
            o for r in op.regions for o in _walk_ref(r)]
    assert fn.num_ops() == len(want)


def _drive(walker, act):
    """Walk a fresh copy of the nested function, let ``act`` edit the IR
    at every op handed out; returns (opcodes seen, text left)."""
    fn = _nested()
    seen = []
    for op in walker(fn.body):
        seen.append(op.opcode)
        act(op)
    return seen, print_function(fn)


def _remove_some(kinds):
    def act(op):
        if op.opcode in kinds:
            op.parent.remove(op)
    return act


def test_walk_lets_the_caller_remove_the_op_it_was_handed():
    for kinds in ({"store"}, {"load", "mul", "sin"}, {"if"}, {"fork"},
                  {"for"}, {"store", "if", "barrier"}):
        got = _drive(Block.walk, _remove_some(kinds))
        assert got == _drive(_walk_ref, _remove_some(kinds)), kinds
    # the body of a region op the caller removed is still walked
    seen, text = _drive(Block.walk, _remove_some({"fork"}))
    assert "if" in seen and "fork" not in text


def test_walk_snapshots_each_block_when_it_reaches_it():
    """Edits to a block not reached yet are seen; edits to the block
    being walked are not (its op list was copied on entry)."""

    def empty_else(op):
        if op.opcode == "if":
            del op.regions[1].ops[:]

    def else_from_then(op):
        # handed the first op of the then-region: drop the else-region's
        # last op, and an op further down the block being walked
        blk = op.parent
        if blk.parent_op is not None and blk.parent_op.opcode == "if" \
                and blk is blk.parent_op.regions[0] and op is blk.ops[0]:
            blk.parent_op.regions[1].ops.pop()
            blk.ops.pop()

    for act in (empty_else, else_from_then):
        got = _drive(Block.walk, act)
        assert got == _drive(_walk_ref, act), act.__name__
    seen = _drive(Block.walk, else_from_then)[0]
    assert seen.count("store") == 6     # the else-region lost one, seen
    assert seen.count("for") == 2       # the inner loop was snapshotted
    assert "cos" not in _drive(Block.walk, empty_else)[0]


@settings(max_examples=15, deadline=None)
@given(stmts=st.lists(_STMT, min_size=1, max_size=3))
def test_walk_matches_reference_on_random_gradients(stmts):
    module = _time_stepped(stmts)
    grad = autodiff(module, "prog", [Duplicated, Const, Const],
                    ADConfig(post_opt=False))
    for fn in (module.functions["prog"], module.functions[grad]):
        assert list(fn.walk()) == list(_walk_ref(fn.body))
