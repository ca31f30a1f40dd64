"""The traced run: per-layer times and counts.

Spans are recorded here, around calls into each module's public
functions; nothing inside ``src/repro`` is instrumented.  One decomposed
cycle is two root spans that share a cycle id:

* ``cycle`` — the real cold cycle (what ``ttfg_cold_s`` times) with a
  child span per driver call;
* ``replay`` — each stage ``ADTransform.build`` and ``compile_function``
  run, called again in pipeline order on private clones, one child span
  per stage.

A metric ``X_s`` is the median duration of the spans named ``X``.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import shutil
import statistics
import time

from repro.ad import ADTransform, CachePlanner, Duplicated, autodiff_transform
from repro.ad.activity import analyze_activity
from repro.ad.mpi_rules import register_mpid_intrinsics
from repro.ad.strategy import select_managed_loops
from repro.interp import (CompileCache, Executor, compile_function,
                          lower_function, probe_toolchain)
from repro.ir import Module, parse_function, print_function, verify_function
from repro.passes import (CSE, DCE, LICM, ConstantFold, Simplify,
                          analyze_aliasing, certify_bounds, cleanup_pipeline,
                          default_pipeline, force_inline_all)
from repro.sanitize import commcheck_function, lint_function

from .e2e import Sampler
from .trace import Tracer, self_times
from .gate import same_run

#: Spans whose median duration is reported as ``<name>_s``.
TIMED = (
    "apps.build", "ir.verify", "ir.print", "ir.parse",
    "passes.inline", "passes.preopt", "passes.constfold", "passes.cse",
    "passes.dce", "passes.simplify", "passes.licm", "passes.aliasing",
    "passes.cleanup", "passes.intervals",
    "ad.autodiff", "ad.activity", "ad.cacheplan",
    "interp.lower", "interp.pycompile", "interp.compile_total",
    "interp.cache_store", "interp.cache_load", "interp.wrap_args",
    "interp.first_run", "interp.exec",
    "interp.native_first_run", "interp.native_steady",
    "parallel.mpi_run", "sanitize.commcheck", "sanitize.lint",
)

#: Stages of ``ad.autodiff`` that ``replay`` times on their own;
#: ``ad.emit_s`` is what is left of the total.
AUTODIFF_STAGES = ("passes.inline", "passes.preopt", "passes.aliasing",
                   "ad.activity", "ad.cacheplan", "passes.cleanup",
                   "ir.verify")

SIMOP_FIELDS = ("flops", "divs", "specials", "int_ops", "atomic_ops",
                "reduction_ops")
SIMOP_BYTES = ("load_bytes", "store_bytes", "stream_bytes")


def sim_ops(cost) -> float:
    """Simulated operations of a run: compute ops plus 8-byte words
    moved."""
    return (sum(getattr(cost, f) for f in SIMOP_FIELDS)
            + sum(getattr(cost, f) for f in SIMOP_BYTES) / 8)


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


class TracedRun:
    def __init__(self, sampler: Sampler, tracer: Tracer) -> None:
        self.sampler, self.tracer = sampler, tracer
        self.wl, self.inputs = sampler.wl, sampler.inputs
        self.counts: dict[str, float] = {}
        self.checks: list = []
        self.plain: list[float] = []

    def state(self):
        return self.wl.fresh_state(self.sampler.gate.app, self.inputs)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def check_run(self, name: str, run) -> None:
        self.check(name, same_run(run, self.sampler.gate.grad),
                   "gradient, outputs, clock and cost equal the gate's")

    # ------------------------------------------------------------------
    def cycle(self, k: int) -> None:
        wl, span = self.wl, self.tracer.span
        self.tracer.cycle = k
        state = self.state()
        gc.collect()
        t0 = time.perf_counter()
        self.sampler.cycle("off", state)      # span-free, for overhead_share
        self.plain.append(time.perf_counter() - t0)

        state = self.state()
        gc.collect()
        with span("cycle"):
            with span("apps.build"):
                app = wl.make_app(self.inputs)
            with span("ad.autodiff"):
                app.grad_fn()
            with span("interp.first_run"):
                run = wl.gradient(app, state)
        self.check_run("cycle_gradient", run)
        with span("replay"):
            self.replay(app)

    def replay(self, app) -> None:
        wl, span, counts = self.wl, self.tracer.span, self.counts
        module, src = app.module, app.fn
        acts, cfg = wl.activities(), app.ad_config
        grad_name = app.grad_fn()
        grad = module.functions[grad_name]
        counts["ir.primal_ops"] = module.functions[src].num_ops()
        counts["ir.grad_ops"] = grad.num_ops()
        counts["ad.grad_atomics"] = sum(
            1 for op in grad.walk() if op.opcode == "atomic")

        # -- ADTransform.build, stage by stage, on a clone of the primal
        work = module.clone_function(src, "__bench_work")
        with span("passes.inline"):
            force_inline_all(work, module)
        for cls in (ConstantFold, CSE, DCE, Simplify, LICM):
            one = module.clone_function(work.name, "__bench_pass")
            with span(f"passes.{cls.name}"):
                cls().run(one, module)
            del module.functions[one.name]
        counts["passes.preopt_ops_in"] = work.num_ops()
        pm = default_pipeline(openmp_opt=cfg.openmp_opt)
        with span("passes.preopt"):
            pm.run_function(work, module)
        counts["passes.preopt_ops_out"] = work.num_ops()
        counts["passes.preopt_applied"] = sum(pm.stats.values())
        with span("passes.aliasing"):
            aliasing = analyze_aliasing(work, module)
        duplicated = {a for a, k in zip(work.args, acts) if k == Duplicated}
        with span("ad.activity"):
            activity = analyze_activity(work, module, aliasing, duplicated,
                                        set())
        shell = ADTransform(module, src, acts, cfg)
        shell.fn, shell.aliasing = work, aliasing
        with span("ad.cacheplan"):
            managed, report = select_managed_loops(shell)
            plan = CachePlanner(work, module, aliasing, activity,
                                cache_all=cfg.cache_all,
                                managed_loops=frozenset(managed)).build()
        del module.functions[work.name]
        counts["ad.cache_slots"] = len(plan.slots)
        counts["ad.cached_values"] = plan.stats["cached"]
        counts["ad.recomputed_values"] = plan.stats["recompute"]
        counts["ad.managed_loops"] = len(report["managed"])
        counts["ad.fallbacks"] = len(report["fallbacks"])

        # -- its tail (cleanup, verify) on a gradient emitted without it
        raw_cfg = dataclasses.replace(cfg, post_opt=False, verify=False,
                                      prefix="bench_raw_")
        with span("ad.autodiff_raw"):
            raw = autodiff_transform(module, src, acts, raw_cfg).grad
        counts["passes.cleanup_ops_in"] = raw.num_ops()
        with span("passes.cleanup"):
            cleanup_pipeline().run_function(raw, module)
        counts["passes.cleanup_ops_out"] = raw.num_ops()
        with span("ir.verify"):
            verify_function(raw, module)
        del module.functions[raw.name]
        self.check("replay_matches_gradient",
                   counts["passes.cleanup_ops_out"] == counts["ir.grad_ops"],
                   "replayed cleanup ends at the real gradient's op count")

        # -- the text round trip ROADMAP item 2c would pay when warm
        with span("ir.print"):
            text = print_function(grad)
        counts["ir.grad_text_bytes"] = len(text.encode())
        fresh = Module()
        register_mpid_intrinsics(fresh)
        with span("ir.parse"):
            parse_function(text, fresh)

        # -- compile_function, whole and stage by stage
        with span("interp.compile_total"):
            compile_function(grad, module=module)
        with span("passes.intervals"):
            facts = certify_bounds(grad, module)
        for status, n in facts.counts().items():
            counts[f"passes.bounds_{status}"] = n
        with span("interp.lower"):
            source, _, stats = lower_function(grad, bounds=facts)
        counts["interp.src_bytes"] = len(source.encode())
        for slot in ("kernels", "fused_ops", "mono_loads", "mono_stores",
                     "checks_elided"):
            counts[f"interp.{slot}"] = getattr(stats, slot)
        # Statements that hand an op to the interpreter: region bridges
        # and call dispatches (every mpi.* op is one).
        counts["interp.bridged_ops"] = (source.count("_bg(rt,")
                                        + source.count("_ca(rt,"))
        with span("interp.pycompile"):
            code = compile(source, "<bench_e2e>", "exec")
        root = os.path.join(self.sampler.run_dir, "replay")
        shutil.rmtree(root, ignore_errors=True)   # one entry: this cycle's
        cache = CompileCache(root)
        with span("interp.cache_store"):
            cache.store(source, "bench_e2e", code)
        with span("interp.cache_load"):
            loaded = cache.load(source, "bench_e2e")
        counts["interp.cache_blob_bytes"] = tree_bytes(root)
        self.check("cache_round_trip", loaded is not None
                   and loaded.co_code == code.co_code)

        # -- execution on the cycle's app, memos now warm
        rank_args, _, _ = wl.grad_args(app, self.state())
        executors = [Executor(module, wl.exec_config(app))
                     for _ in rank_args]
        with span("interp.wrap_args"):
            for ex, args in zip(executors, rank_args):
                ex.wrap_args(grad_name, args)
        state = self.state()
        with span("interp.exec"):
            run = wl.gradient(app, state)
        self.check_run("replay_exec_gradient", run)

    # ------------------------------------------------------------------
    def once(self) -> None:
        """What is taken once per run: disk-cache counters from a
        warm-disk cycle, the SimMPI-spelled run, the sanitizers and
        the native tier (its in-process library memo makes every native
        compile after the first free, so it cannot be sampled per
        cycle)."""
        wl, span, counts = self.wl, self.tracer.span, self.counts
        self.tracer.cycle = None

        def cache_stats(executors) -> dict:
            out = {"hits": 0, "misses": 0, "errors": 0}
            for ex in executors:
                for k in out:
                    out[k] += ex.compile_stats()["cache"][k]
            return out

        with span("once"):
            counts["interp.cache_variants"] = self.sampler.populate()
            app = wl.make_app(self.inputs,
                              compile_cache=self.sampler.cache_dir)
            run, executors = wl.observed_gradient(app, self.state())
            self.check_run("warm_disk_gradient", run)
            for k, n in cache_stats(executors).items():
                counts[f"interp.cache_{k}"] = n
            counts["ad.peak_cache_bytes"] = max(
                ex.adjoint_stats()["peak_cached_bytes"] for ex in executors)
            counts["parallel.ranks"] = len(executors)
            for _ in range(2):
                state = self.state()
                with span("parallel.mpi_run"):
                    wl.observed_gradient(app, state)

            grad_name = app.grad_fn()
            with span("sanitize.commcheck"):
                rep = commcheck_function(
                    grad_name, app.module, sizes=(len(executors),),
                    bindings=wl.bindings())
            counts["parallel.mpi_ops_static"] = len(rep.summary)
            counts["parallel.mpi_msgs_static"] = sum(
                1 for s in rep.summary if s["kind"] in ("send", "isend"))
            with span("sanitize.lint"):
                lint = lint_function(app.module.functions[grad_name],
                                     app.module)
            self.check("sanitizers_clean", not rep.errors and not lint.errors)

            app = wl.make_app(self.inputs, backend="native")
            app.grad_fn()
            state = self.state()
            with span("interp.native_first_run"):
                run, executors = wl.observed_gradient(app, state)
            self.check_run("native_gradient", run)
            native = [ex.compile_stats()["native"] for ex in executors]
            # Every rank's backend reports the one shared compile.
            counts["interp.native_cc_s"] = max(
                n["compile_seconds"] for n in native)
            counts["interp.native_kernels"] = max(
                n["kernels"] for n in native)
            counts["interp.native_claimed"] = max(
                n["claimed"] for n in native)
            for _ in range(2):
                state = self.state()
                with span("interp.native_steady"):
                    wl.observed_gradient(app, state)

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        tr, gate = self.tracer, self.sampler.gate
        med = {name: statistics.median(tr.durations(name)) for name in TIMED}
        out = {f"{name}_s": v for name, v in med.items()}
        out.update(self.counts)

        by_cycle: dict = {}
        for s in tr.spans:
            if s["cycle"] is not None:
                by_cycle.setdefault(s["cycle"], {})[s["name"]] = (
                    s["end"] - s["start"])
        out["ad.emit_s"] = statistics.median(
            c["ad.autodiff"] - sum(c[st] for st in AUTODIFF_STAGES)
            for c in by_cycle.values())

        selfs = self_times(tr.spans)
        out["trace.coverage_share"] = statistics.median(
            1 - selfs[i] / (s["end"] - s["start"])
            for i, s in enumerate(tr.spans) if s["name"] == "cycle")
        out["trace.overhead_share"] = (
            statistics.median(tr.durations("cycle"))
            / statistics.median(self.plain) - 1)

        cost = gate.grad.cost
        out["interp.exec_ns_per_simop"] = (
            med["interp.exec"] * 1e9 / sim_ops(cost))
        out["interp.interp_grad_s"] = gate.interp_grad_s
        out["interp.compiled_speedup_x"] = (
            gate.interp_grad_s / med["interp.exec"])
        out["perf.sim_grad_s"] = gate.grad.time
        out["perf.sim_primal_s"] = gate.primal.time
        for f in ("flops", "load_bytes", "store_bytes", "stream_bytes",
                  "atomic_ops"):
            out[f"perf.cost_{f}"] = getattr(cost, f)
        return out

    def layer_shares(self, m: dict) -> dict:
        """Self time of each layer as a share of the cold cycle, from
        the medians in ``m``."""
        passes_in_ad = (m["passes.inline_s"] + m["passes.preopt_s"]
                        + m["passes.aliasing_s"] + m["passes.cleanup_s"])
        layers = {
            "apps": m["apps.build_s"],
            "passes": passes_in_ad + m["passes.intervals_s"],
            "ir": m["ir.verify_s"],
            "ad": m["ad.autodiff_s"] - passes_in_ad - m["ir.verify_s"],
            "interp.compile": (m["interp.compile_total_s"]
                               - m["passes.intervals_s"]),
            "interp.exec": m["interp.exec_s"],
        }
        whole = sum(layers.values())
        return {k: v / whole for k, v in layers.items()}


def run_traced(sampler: Sampler, tracer: Tracer,
               seconds: float) -> TracedRun:
    """Three decomposed cycles, more while ``seconds`` last, at most
    five (one in smoke mode)."""
    at_least, at_most = (1, 1) if sampler.smoke else (3, 5)
    tr = TracedRun(sampler, tracer)
    toolchain = probe_toolchain()
    print("# native toolchain: " + (
        toolchain.identity if toolchain else
        "none found; the interp.native_* metrics time the compiled "
        "fallback and count no kernels"))
    tr.once()
    t0 = time.perf_counter()
    k = 0
    while k < at_least or (k < at_most
                           and time.perf_counter() - t0 < seconds):
        tr.cycle(k)
        k += 1
    return tr
