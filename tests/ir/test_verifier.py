import pytest

from repro.ir import (
    F64,
    I64,
    IRBuilder,
    Ptr,
    VerificationError,
    verify_module,
)
from repro.ir.ops import BarrierOp, ComputeOp, ForOp, ReturnOp, StoreOp
from repro.ir.values import Constant


def test_use_before_def_rejected():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        leaked = None
        with b.for_(0, n) as i:
            leaked = b.load(x, i)
        # Use a loop-local value outside the loop: invalid.
        b.store(leaked, x, 0)
    with pytest.raises(VerificationError, match="dominate"):
        verify_module(b.module)


def test_sibling_region_value_rejected():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        v = None
        with b.if_(b.cmp("lt", n, 3)):
            v = b.load(x, 0)
        with b.else_():
            b.store(v, x, 1)
    with pytest.raises(VerificationError, match="dominate"):
        verify_module(b.module)


def test_enclosing_scope_visible():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        outer = b.load(x, 0)
        with b.for_(0, n) as i:
            b.store(outer, x, i)  # enclosing def: fine
    verify_module(b.module)


def test_barrier_outside_fork_rejected():
    b = IRBuilder()
    with b.function("f", [("n", I64)]) as f:
        with b.for_(0, f.args[0]):
            b.emit(BarrierOp())
    with pytest.raises(VerificationError,
                       match="barrier outside a fork region"):
        verify_module(b.module)


def test_barrier_inside_parallel_for_rejected():
    b = IRBuilder()
    with b.function("f", [("n", I64)]) as f:
        with b.parallel_for(0, f.args[0]):
            with b.for_(0, 2):
                b.emit(BarrierOp())
    with pytest.raises(VerificationError,
                       match="barrier inside parallel_for body"):
        verify_module(b.module)


def test_barrier_inside_fork_accepted():
    b = IRBuilder()
    with b.function("f", [("x", Ptr())]) as f:
        with b.fork(2) as (tid, _nth):
            b.store(1.0, f.args[0], tid)
            with b.for_(0, 2):
                b.barrier()
    verify_module(b.module)


class _ScopeOfSets:
    """The verifier's old ``_Scope``: a stack of sets, asked frame by
    frame.  Reference for the live-set one."""

    def __init__(self):
        self.frames = []

    def push(self, values=()):
        self.frames.append(set(values))

    def pop(self):
        self.frames.pop()

    def define(self, v):
        self.frames[-1].add(v)

    def visible(self, v):
        return any(v in frame for frame in self.frames)


def _scope_cases():
    """(name, builder) — valid nests and every way a use can fail to be
    dominated: a loop-local leaking out, a sibling region, a later op
    of the same block, an inner region's value used by an outer one."""
    def leak(b, x, n):
        with b.for_(0, n) as i:
            v = b.load(x, i)
            with b.if_(b.cmp("lt", i, 1)):
                b.store(v, x, i)
        b.store(v, x, 0)

    def sibling(b, x, n):
        with b.if_(b.cmp("lt", n, 3)):
            v = b.load(x, 0)
        with b.else_():
            b.store(v, x, 1)

    def later(b, x, n):
        v = b.load(x, 0)
        b.store(v, x, 1)
        b.block.ops.reverse()

    def nested_ok(b, x, n):
        v = b.load(x, 0)
        with b.fork(2) as (tid, _nth):
            with b.for_(0, n) as i:
                with b.if_(b.cmp("lt", i, tid)):
                    b.store(b.add(v, b.load(x, i)), x, i)
                with b.else_():
                    b.store(v, x, tid)
            b.store(v, x, tid)
        b.store(v, x, 0)

    def after_region(b, x, n):
        with b.for_(0, n) as i:
            with b.for_(0, n) as j:
                w = b.load(x, j)
            b.store(w, x, i)

    return [leak, sibling, later, nested_ok, after_region]


@pytest.mark.parametrize("case", _scope_cases(), ids=lambda c: c.__name__)
def test_live_set_scope_answers_like_the_stack_of_sets(case, monkeypatch):
    from repro.ir import verifier
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        case(b, *f.args)

    def outcome():
        try:
            verify_module(b.module)
        except VerificationError as e:
            return str(e)
        return "ok"

    got = outcome()
    monkeypatch.setattr(verifier, "_Scope", _ScopeOfSets)
    assert got == outcome()
    assert (got == "ok") == (case.__name__ == "nested_ok")
    assert got == "ok" or "does not dominate" in got


def test_workshare_outside_fork_rejected():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        op = ForOp(Constant(0, I64), n, Constant(1, I64), workshare=True)
        b.emit(op)
    with pytest.raises(VerificationError, match="workshare"):
        verify_module(b.module)


def test_nested_parallel_rejected():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.parallel_for(0, n) as i:
            with b.parallel_for(0, n) as j:
                b.store(0.0, x, j)
    with pytest.raises(VerificationError, match="nested"):
        verify_module(b.module)


def test_return_in_region_rejected():
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n) as i:
            b.block.append(ReturnOp([]))
    with pytest.raises(VerificationError, match="return"):
        verify_module(b.module)


def test_return_type_mismatch():
    b = IRBuilder()
    with b.function("f", [("a", F64)], ret=F64) as f:
        pass  # no return emitted; add a bad one manually
    fn = b.module.functions["f"]
    fn.body.append(ReturnOp([]))
    with pytest.raises(VerificationError, match="return"):
        verify_module(b.module)


def test_call_arity_verified():
    from repro.ir.ops import CallOp
    from repro.ir.types import Void
    b = IRBuilder()
    with b.function("f", [("x", Ptr())]) as f:
        f_x = f.args[0]
        bad = CallOp("mpi.barrier", [f_x], Void)
        b.emit(bad)
    with pytest.raises(VerificationError, match="expects"):
        verify_module(b.module)


def test_condition_must_terminate_while():
    from repro.ir.ops import ConditionOp, WhileOp
    b = IRBuilder()
    with b.function("f", [("x", Ptr())]) as f:
        x = f.args[0]
        w = WhileOp()
        b.emit(w)
        with b.at(w.body):
            c = b.cmp("lt", w.ivar, 2)
            b.loop_while(c)
            b.store(1.0, x, 0)  # op after condition
    with pytest.raises(VerificationError, match="condition"):
        verify_module(b.module)


# ---------------------------------------------------------------------------
# Request-typed value flow (ISSUE 5: verifier hygiene for mpi requests)
# ---------------------------------------------------------------------------

def _parse_and_verify(text):
    from repro.ir.parser import parse_module
    verify_module(parse_module(text))


def test_request_flow_clean_isend_wait():
    _parse_and_verify(
        "func @f(%buf: ptr<f64>, %n: i64) -> void {\n"
        "  %0 = call @mpi.isend(%buf, %n, 0, 1)\n"
        "  call @mpi.wait(%0)\n"
        "  return\n"
        "}\n")


def test_request_as_count_rejected():
    with pytest.raises(VerificationError, match="request-typed operand"):
        _parse_and_verify(
            "func @f(%buf: ptr<f64>, %n: i64) -> void {\n"
            "  %0 = call @mpi.isend(%buf, %n, 0, 1)\n"
            "  call @mpi.send(%buf, %0, 1, 5)\n"
            "  return\n"
            "}\n")


def test_int_into_wait_rejected():
    with pytest.raises(VerificationError, match="must be a request"):
        _parse_and_verify(
            "func @f(%buf: ptr<f64>, %n: i64) -> void {\n"
            "  call @mpi.wait(%n)\n"
            "  return\n"
            "}\n")


def test_request_into_pointer_arithmetic_rejected():
    from repro.ir.ops import PtrAddOp
    b = IRBuilder()
    with b.function("f", [("buf", Ptr()), ("n", I64)]) as f:
        buf, n = f.args
        r = b.call("mpi.isend", buf, n, 0, 1)
        b.block.append(PtrAddOp(r, n))
        b.call("mpi.wait", r)
    with pytest.raises(VerificationError, match="request-typed value"):
        verify_module(b.module)


def test_request_store_into_request_array_allowed():
    from repro.ir import Request
    b = IRBuilder()
    with b.function("f", [("buf", Ptr()), ("n", I64)]) as f:
        buf, n = f.args
        reqs = b.alloc(1, Request)
        b.store(b.call("mpi.isend", buf, n, 0, 1), reqs, 0)
        b.call("mpi.wait", b.load(reqs, 0))
    verify_module(b.module)
