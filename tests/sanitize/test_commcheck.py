"""Static MPI communication analyzer + adjoint-duality verifier.

Covers the symbolic endpoint extraction, every graph check (p2p
matching, collectives, request lifetimes, in-flight buffer accesses,
rendezvous deadlocks), the Fig. 5 duality verification on generated
gradients (including seeded-mutation detection), and the LULESH /
miniBUDE acceptance gates.
"""

import numpy as np
import pytest

from repro.ad import ADConfig, Duplicated, autodiff
from repro.interp import ExecConfig, InterpreterError
from repro.ir import F64, I64, IRBuilder, Ptr, verify_module
from repro.ir.values import Constant
from repro.parallel import SimMPI
from repro.passes.pass_manager import commcheck_pipeline
from repro.sanitize.commcheck import (
    CommCheckError,
    commcheck_function,
    verify_duality,
)


def codes(report):
    return {d.code for d in report.diagnostics}


def error_codes(report):
    return {d.code for d in report.errors}


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def ring_module(blocking: bool = False):
    """The Fig. 5 ring: isend right, irecv left, wait both, cube."""
    b = IRBuilder()
    with b.function("ring", [("x", Ptr()), ("y", Ptr()),
                             ("n", I64)]) as f:
        x, y, n = f.args
        rank = b.call("mpi.comm_rank")
        size = b.call("mpi.comm_size")
        nxt = (rank + 1) % size
        prv = (rank + size - 1) % size
        tmp = b.alloc(n, name="tmp")
        if blocking:
            b.call("mpi.send", x, n, nxt, 7)
            b.call("mpi.recv", tmp, n, prv, 7)
        else:
            r1 = b.call("mpi.isend", x, n, nxt, 7)
            r2 = b.call("mpi.irecv", tmp, n, prv, 7)
            b.call("mpi.wait", r1)
            b.call("mpi.wait", r2)
        with b.parallel_for(0, n) as i:
            t = b.load(tmp, i)
            b.store(t * t * t, y, i)
    verify_module(b.module)
    return b.module


def simple_module(name, body):
    b = IRBuilder()
    with b.function(name, [("buf", Ptr()), ("out", Ptr()),
                           ("n", I64)]) as f:
        body(b, f)
    return b.module


def head_to_head_module():
    """Symmetric exchange where every rank Sends before it Recvs."""
    def body(b, f):
        buf, out, n = f.args
        rank = b.call("mpi.comm_rank")
        size = b.call("mpi.comm_size")
        peer = b.sub(b.sub(size, 1), rank)
        b.call("mpi.send", buf, n, peer, 1)
        b.call("mpi.recv", out, n, peer, 1)
    return simple_module("hh", body)


# ---------------------------------------------------------------------------
# Clean programs and the symbolic summary
# ---------------------------------------------------------------------------

def test_ring_clean_across_sizes():
    rep = commcheck_function("ring", ring_module(), sizes=(2, 3, 5))
    assert rep.clean
    assert rep.checked


def test_symbolic_summary_tracks_rank_arithmetic():
    rep = commcheck_function("ring", ring_module(), sizes=(2,))
    peers = [row["peer"] for row in rep.summary if row["kind"] == "isend"]
    assert peers and all("rank" in p and "size" in p for p in peers)
    kinds = [row["kind"] for row in rep.summary]
    assert "isend" in kinds and "irecv" in kinds and "wait" in kinds


def test_function_without_comm_is_skipped():
    def body(b, f):
        b.store(1.0, f.args[0], 0)
    rep = commcheck_function("pure", simple_module("pure", body))
    assert not rep.checked
    assert rep.clean


# ---------------------------------------------------------------------------
# Point-to-point graph checks
# ---------------------------------------------------------------------------

def test_unmatched_send():
    def body(b, f):
        rank = b.call("mpi.comm_rank")
        with b.if_(b.cmp("eq", rank, 0)):
            b.call("mpi.send", f.args[0], f.args[2], 1, 3)
    rep = commcheck_function("um", simple_module("um", body), sizes=(2,))
    assert "unmatched-p2p" in error_codes(rep)


def test_count_mismatch():
    def body(b, f):
        rank = b.call("mpi.comm_rank")
        with b.if_(b.cmp("eq", rank, 0)):
            b.call("mpi.send", f.args[0], 10, 1, 3)
        with b.else_():
            b.call("mpi.recv", f.args[1], 20, 0, 3)
    rep = commcheck_function("cm", simple_module("cm", body), sizes=(2,))
    assert "count-mismatch" in error_codes(rep)


def test_tag_typo_gets_near_miss_hint():
    def body(b, f):
        rank = b.call("mpi.comm_rank")
        with b.if_(b.cmp("eq", rank, 0)):
            b.call("mpi.send", f.args[0], 10, 1, 3)
        with b.else_():
            b.call("mpi.recv", f.args[1], 10, 0, 4)
    rep = commcheck_function("tt", simple_module("tt", body), sizes=(2,))
    assert "unmatched-p2p" in error_codes(rep)
    assert any("tag" in d.message and "exists" in d.message
               for d in rep.errors)


def test_peer_out_of_range():
    def body(b, f):
        b.call("mpi.send", f.args[0], f.args[2], 5, 1)
        b.call("mpi.recv", f.args[1], f.args[2], 5, 1)
    rep = commcheck_function("oor", simple_module("oor", body), sizes=(2,))
    assert "peer-out-of-range" in error_codes(rep)


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------

def test_collective_divergence_on_guard():
    def body(b, f):
        rank = b.call("mpi.comm_rank")
        with b.if_(b.cmp("eq", rank, 0)):
            b.call("mpi.allreduce", f.args[0], f.args[1], f.args[2],
                   op="sum")
    rep = commcheck_function("cd", simple_module("cd", body), sizes=(2,))
    assert "collective-divergence" in error_codes(rep)


def test_collective_count_divergence():
    def body(b, f):
        rank = b.call("mpi.comm_rank")
        cnt = b.select(b.cmp("eq", rank, 0), b.const(4, I64),
                       b.const(8, I64))
        b.call("mpi.allreduce", f.args[0], f.args[1], cnt, op="sum")
    rep = commcheck_function("cc", simple_module("cc", body), sizes=(2,))
    assert "collective-divergence" in error_codes(rep)


# ---------------------------------------------------------------------------
# Request lifetimes and in-flight windows
# ---------------------------------------------------------------------------

def _ring_posts(b, f):
    rank = b.call("mpi.comm_rank")
    size = b.call("mpi.comm_size")
    nxt = (rank + 1) % size
    prv = (rank + size - 1) % size
    r1 = b.call("mpi.isend", f.args[0], f.args[2], nxt, 7)
    r2 = b.call("mpi.irecv", f.args[1], f.args[2], prv, 7)
    return r1, r2


def test_missing_and_double_wait():
    def body(b, f):
        r1, r2 = _ring_posts(b, f)
        b.call("mpi.wait", r1)
        b.call("mpi.wait", r1)      # double; r2 never waited
    rep = commcheck_function("mw", simple_module("mw", body), sizes=(2,))
    got = error_codes(rep)
    assert "missing-wait" in got and "double-wait" in got


def test_inflight_write():
    def body(b, f):
        r1, r2 = _ring_posts(b, f)
        b.store(1.5, f.args[0], 0)      # isend buffer still in flight
        b.call("mpi.wait", r1)
        b.call("mpi.wait", r2)
    rep = commcheck_function("iw", simple_module("iw", body), sizes=(2,))
    assert "inflight-write" in error_codes(rep)


def test_waited_ring_has_no_lifetime_findings():
    def body(b, f):
        r1, r2 = _ring_posts(b, f)
        b.call("mpi.wait", r1)
        b.call("mpi.wait", r2)
        b.store(1.5, f.args[0], 0)      # after wait: fine
    rep = commcheck_function("ok", simple_module("ok", body), sizes=(2, 3))
    assert rep.clean


# ---------------------------------------------------------------------------
# Rendezvous deadlocks: static flag + dynamic reproduction
# ---------------------------------------------------------------------------

def test_head_to_head_flagged_statically():
    rep = commcheck_function("hh", head_to_head_module(), sizes=(2,))
    assert "rendezvous-deadlock" in error_codes(rep)


def test_head_to_head_dynamic_eager_vs_rendezvous():
    """The same exchange passes under eager sends and deadlocks under
    rendezvous — the gap commcheck closes statically."""
    module = head_to_head_module()
    n = 3

    def make_args():
        return [(np.arange(1.0, n + 1) * (r + 1), np.zeros(n), n)
                for r in range(2)]

    args = make_args()
    SimMPI(module, 2, ExecConfig()).run("hh", lambda r: args[r])
    np.testing.assert_allclose(args[0][1], np.arange(1.0, n + 1) * 2)

    args = make_args()
    with pytest.raises(InterpreterError, match="deadlock"):
        SimMPI(module, 2, ExecConfig(),
               rendezvous_sends=True).run("hh", lambda r: args[r])


def test_blocking_ring_deadlock_matches_static_verdict():
    module = ring_module(blocking=True)
    rep = commcheck_function("ring", module, sizes=(3,))
    assert "rendezvous-deadlock" in error_codes(rep)
    n = 2
    bufs = [(np.ones(n), np.zeros(n), n) for _ in range(3)]
    with pytest.raises(InterpreterError, match="deadlock"):
        SimMPI(module, 3, ExecConfig(),
               rendezvous_sends=True).run("ring", lambda r: bufs[r])


def test_ordered_exchange_clean_and_runs_under_rendezvous():
    def body(b, f):
        buf, out, n = f.args
        rank = b.call("mpi.comm_rank")
        peer = b.sub(1, rank)
        with b.if_(b.cmp("eq", rank, 0)):
            b.call("mpi.send", buf, n, peer, 1)
            b.call("mpi.recv", out, n, peer, 2)
        with b.else_():
            b.call("mpi.recv", out, n, peer, 1)
            b.call("mpi.send", buf, n, peer, 2)
    module = simple_module("ord", body)
    rep = commcheck_function("ord", module, sizes=(2,))
    assert rep.clean
    n = 3
    args = [(np.ones(n) * (r + 1), np.zeros(n), n) for r in range(2)]
    SimMPI(module, 2, ExecConfig(),
           rendezvous_sends=True).run("ord", lambda r: args[r])
    np.testing.assert_allclose(args[0][1], 2.0)


# ---------------------------------------------------------------------------
# Warnings (possibly-spurious side of the severity model)
# ---------------------------------------------------------------------------

def test_guarded_comm_warns_not_errors():
    def body(b, f):
        flag = b.load(f.args[0], 0)
        with b.if_(b.cmp("gt", flag, 0.0)):
            b.call("mpi.barrier")
    rep = commcheck_function("gc", simple_module("gc", body), sizes=(2,))
    assert "guarded-comm" in codes(rep)
    assert not rep.errors


def test_comm_in_while_loop_warns():
    def body(b, f):
        with b.while_() as it:
            b.call("mpi.barrier")
            b.loop_while(b.cmp("lt", it, f.args[2]))
    rep = commcheck_function("wl", simple_module("wl", body), sizes=(2,))
    assert "comm-in-loop" in codes(rep)
    assert not rep.errors


# ---------------------------------------------------------------------------
# Adjoint duality (Fig. 5)
# ---------------------------------------------------------------------------

def build_ring_gradient(blocking: bool = False):
    module = ring_module(blocking)
    grad = autodiff(module, "ring", [Duplicated, Duplicated, None])
    return module, grad


def test_nonblocking_ring_duality_clean():
    module, grad = build_ring_gradient(False)
    rep = verify_duality(module, "ring", grad, sizes=(2, 3, 5))
    assert rep.duality
    assert not rep.errors


def test_blocking_ring_duality_holds_despite_deadlock():
    """The blocking ring's adjoint is still the exact transpose; the
    only error is the (true-positive) rendezvous deadlock the primal
    pattern itself has."""
    module, grad = build_ring_gradient(True)
    rep = verify_duality(module, "ring", grad, sizes=(2, 3))
    assert error_codes(rep) == {"rendezvous-deadlock"}


@pytest.mark.parametrize("collective,dual_codes", [
    ("allreduce_sum", set()),
    ("allreduce_min", set()),
    ("bcast", set()),
    ("reduce", set()),
])
def test_collective_duality_clean(collective, dual_codes):
    b = IRBuilder()
    with b.function("c", [("x", Ptr()), ("y", Ptr()), ("n", I64)]) as f:
        x, y, n = f.args
        if collective == "allreduce_sum":
            tot = b.alloc(n)
            b.call("mpi.allreduce", x, tot, n, op="sum")
            with b.parallel_for(0, n) as i:
                t = b.load(tot, i)
                b.store(t * t, y, i)
        elif collective == "allreduce_min":
            m = b.alloc(1)
            b.call("mpi.allreduce", x, m, 1, op="min")
            b.store(b.load(m, 0) * 10.0, y, 0)
        elif collective == "bcast":
            b.call("mpi.bcast", x, n, 0)
            with b.parallel_for(0, n) as i:
                b.store(b.load(x, i) * 2.0, y, i)
        else:
            tot = b.alloc(n)
            b.call("mpi.reduce", x, tot, n, 0, op="sum")
            rank = b.call("mpi.comm_rank")
            with b.if_(b.cmp("eq", rank, 0)):
                with b.parallel_for(0, n) as i:
                    b.store(b.load(tot, i) * 3.0, y, i)
    grad = autodiff(b.module, "c", [Duplicated, Duplicated, None])
    rep = verify_duality(b.module, "c", grad, sizes=(2, 3))
    assert error_codes(rep) == dual_codes


def test_adconfig_commcheck_hook():
    module = ring_module(False)
    grad = autodiff(module, "ring", [Duplicated, Duplicated, None],
                    ADConfig(commcheck=(2, 3)))
    assert grad in module.functions


# ---------------------------------------------------------------------------
# Seeded mutations of the Fig. 5 gradient pattern
# ---------------------------------------------------------------------------

def _calls(fn, callee):
    return [op for op in fn.walk()
            if op.opcode == "call" and op.attrs.get("callee") == callee]


def _mutant(module, grad, name):
    return module.clone_function(grad, name)


def test_mutation_flipped_peer_detected():
    module, grad = build_ring_gradient(False)
    mut = _mutant(module, grad, "mut_peer")
    rec_send = _calls(mut, "mpid.record_send")[0]
    rec_recv = _calls(mut, "mpid.record_recv")[0]
    # Swap the adjoint isend's destination for the isend's (the
    # transpose now points the wrong way around the ring).
    rec_recv.operands[2] = rec_send.operands[2]
    rep = verify_duality(module, "ring", "mut_peer", sizes=(3,))
    assert "duality-p2p" in error_codes(rep)


def test_mutation_wrong_tag_detected():
    module, grad = build_ring_gradient(False)
    mut = _mutant(module, grad, "mut_tag")
    rec_recv = _calls(mut, "mpid.record_recv")[0]
    rec_recv.operands[3] = Constant(99, I64)
    rep = verify_duality(module, "ring", "mut_tag", sizes=(2, 3))
    assert "duality-p2p" in error_codes(rep)


def test_mutation_shadow_swapped_for_primal_detected():
    module, grad = build_ring_gradient(False)
    mut = _mutant(module, grad, "mut_shadow")
    clone = _calls(mut, "mpi.isend")[0]
    rec_send = _calls(mut, "mpid.record_send")[0]
    rec_send.operands[0] = clone.operands[0]    # primal buf, not shadow
    rep = verify_duality(module, "ring", "mut_shadow", sizes=(2,))
    assert "shadow-is-primal" in error_codes(rep)


def test_mutation_dropped_adjoint_wait_detected():
    module, grad = build_ring_gradient(False)
    mut = _mutant(module, grad, "mut_wait")
    fin = _calls(mut, "mpid.finish_send")[0]
    fin.parent.remove(fin)
    rep = verify_duality(module, "ring", "mut_wait", sizes=(2,))
    assert "missing-wait" in error_codes(rep)


def test_unmutated_clone_still_clean():
    module, grad = build_ring_gradient(False)
    _mutant(module, grad, "mut_none")
    rep = verify_duality(module, "ring", "mut_none", sizes=(2, 3))
    assert not rep.errors


# ---------------------------------------------------------------------------
# Pass-manager integration
# ---------------------------------------------------------------------------

def test_commcheck_pipeline_collects_reports():
    module = ring_module(False)
    pm = commcheck_pipeline(sizes=(2, 3))
    pm.run(module)
    results = pm.passes[0].results
    assert "ring" in results and results["ring"].clean


def test_commcheck_pipeline_raises_on_error():
    module = head_to_head_module()
    pm = commcheck_pipeline(sizes=(2,), on_error="raise")
    with pytest.raises(CommCheckError, match="rendezvous-deadlock|hh"):
        pm.run(module)


# ---------------------------------------------------------------------------
# Acceptance gates: LULESH and miniBUDE (paper §VII apps)
# ---------------------------------------------------------------------------

def test_lulesh_mpi_primal_clean():
    from repro.apps.lulesh.driver import LuleshApp
    app = LuleshApp("mpi", 2, pr=2)
    rep = commcheck_function(app.fn, app.module, sizes=(app.nprocs,),
                             bindings={"steps": 2})
    assert rep.clean, rep.render()


def test_lulesh_mpi_duality():
    from repro.apps.lulesh.driver import LuleshApp
    app = LuleshApp("mpi", 2, pr=2)
    rep = verify_duality(app.module, app.fn, app.grad_fn(),
                         sizes=(app.nprocs,), bindings={"steps": 2})
    assert rep.clean, rep.render()


#: miniBUDE decks (protein atoms, ligand atoms, poses) the gates run on
MINIBUDE_DECKS = [(6, 3, 8), (8, 4, 12)]


def test_minibude_mpi_primal_clean():
    from repro.apps.minibude.deck import make_deck
    from repro.apps.minibude.driver import MinibudeApp
    for deck in MINIBUDE_DECKS:
        app = MinibudeApp("mpi", make_deck(*deck))
        rep = commcheck_function(app.fn, app.module, sizes=(2, 4))
        assert rep.clean, (deck, rep.render())


def test_minibude_mpi_duality():
    from repro.apps.minibude.deck import make_deck
    from repro.apps.minibude.driver import MinibudeApp
    for deck in MINIBUDE_DECKS:
        app = MinibudeApp("mpi", make_deck(*deck))
        rep = verify_duality(app.module, app.fn, app.grad_fn(),
                             sizes=(2, 4))
        assert rep.clean, (deck, rep.render())
