"""Wall-clock comparison of the execution backends:
``python -m repro.tools.bench_backend``.

Runs the LULESH and miniBUDE *gradient* benchmarks (the generated
reverse-mode derivative, the expensive path) under ``backend="interp"``
and each candidate backend (``--backend compiled|native|both``,
default both) and reports real (host) seconds, the speedup, and the
maximum absolute deviation between the backends' gradients, primal
outputs, and simulated clocks.  The compiled and native backends are
contractually bit-identical, so any deviation beyond ``--tol``
(default 1e-12 — in practice it must be exactly 0.0) is a bug and
makes the tool exit nonzero.  Native-backend rows carry a ``[native]``
case suffix so they gate independently in ``bench_compare``.  CI runs
``--smoke`` as a divergence gate; the committed ``BENCH_backend.json``
is produced by a full run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from ..apps.lulesh.driver import LuleshApp
from ..apps.minibude.driver import MinibudeApp

#: (name, kind, headline, kwargs) benchmark cases.  Gradient runs only
#: — the primal re-runs inside them as the augmented forward pass.
#: ``headline`` marks the benchmark rows the perf gate scores.  All
#: four are headline: the serial gradients run whole-array simd sweeps
#: forward and reverse (so the compiled tier saves per-op dispatch and
#: cost accounting there, no longer scalar-loop overhead), and the
#: threaded gradients are the rows the native C tier targets.  The threaded
#: LULESH row runs nx=14 (~2.2k elements, ~550-wide per-thread
#: chunks): a production-representative width where the fused
#: expression kernels and fold accumulators engage, unlike the nx=6
#: toy.  Measured honestly, the threaded rows sit at ~2.7-3.6x vs the
#: interpreter and the native tier only edges out the compiled one:
#: the dominant remaining cost on both is inline per-statement NumPy
#: work in fork bodies, which is backend-neutral (see ROADMAP on
#: loop-level C regions).
#: miniBUDE keeps the default deck: its per-task chunks are 8 poses
#: wide, so its floor is per-call overhead, not kernel width — the
#: honest hard case.
_FULL_CASES = [
    ("lulesh-serial-grad", "lulesh", True,
     dict(flavor="serial", nx=6, steps=3)),
    ("minibude-serial-grad", "minibude", True, dict(variant="serial")),
    ("lulesh-openmp-grad", "lulesh", True,
     dict(flavor="openmp", nx=14, steps=3, num_threads=4)),
    ("minibude-openmp-grad", "minibude", True,
     dict(variant="openmp", num_threads=4)),
]

#: What the committed ratios mean (kept next to the cases so a change
#: to either is reviewed with the other).
_SPEEDUP_NOTE = (
    "geomean of interpreter / compiled-tier wall-clock over the headline "
    "gradient rows. The ratio is of two tiers, so read it with the absolute "
    "seconds (bench_compare prints both). Since simd loops reverse as simd "
    "loops, both tiers run the adjoint sweep as NumPy kernels: every "
    "absolute time fell while the serial rows' ratio fell from 11.3x/10.3x "
    "to ~3x. Before -> after, interp s / compiled s: lulesh-serial "
    "2.66/0.236 -> ~0.035/0.012; minibude-serial 2.51/0.245 -> "
    "~0.075/0.023; lulesh-openmp (its min-fold loops are plain simd loops) "
    "0.80/0.214 -> ~0.2/0.075; minibude-openmp has no plain simd loop and "
    "is unchanged within noise (0.42/0.114 -> ~0.3/0.09). What the compiled "
    "tier buys is per-op dispatch and cost accounting on every row, no "
    "longer scalar-loop overhead; the threaded rows' floor is per-statement "
    "NumPy work in fork bodies, as before. Tiers are timed round-robin so "
    "a runner that changes speed mid-run moves the seconds, not the ratio. "
    "Static bounds certification is "
    "in effect (certified sites drop their runtime checks) and every "
    "vector access affine in the lane is a slice (_lds/_sts/_ats)."
)

_SMOKE_CASES = [
    ("lulesh-serial-grad", "lulesh", True,
     dict(flavor="serial", nx=4, steps=2)),
    ("minibude-serial-grad", "minibude", True, dict(variant="serial")),
]


#: Rows that run in milliseconds keep timing past ``--reps`` until this
#: much wall-clock has been sampled on every tier (at most 20x reps):
#: best-of-3 over 5 ms runs is scheduler noise.
_MIN_TIMED_SECONDS = 0.3


def _time_interleaved(runs: dict, reps: int) -> tuple[dict, dict]:
    """``(best seconds, last run's other results)`` per tier over at
    least ``reps`` rounds; a round calls every tier's ``one_run() ->
    (seconds, *results)`` once.  The perf gate scores a *ratio* of
    tiers, so they are timed round-robin: a shared runner that changes
    speed between one tier's measurement and the next would move the
    ratio, while within a round every tier sees the same machine."""
    best = dict.fromkeys(runs, float("inf"))
    total = dict.fromkeys(runs, 0.0)
    last: dict = {}
    n = 0
    while n < reps or (min(total.values()) < _MIN_TIMED_SECONDS
                       and n < 20 * reps):
        for tier, one_run in runs.items():
            t, *last[tier] = one_run()
            best[tier] = min(best[tier], t)
            total[tier] += t
        n += 1
    return best, last


def _backend_summary(stats) -> dict | None:
    """Compress Executor.compile_stats() into the benchmark-row form."""
    if not stats:
        return None
    cache = stats.get("cache")
    out = {
        "functions": stats["functions"],
        "fusion": stats["fusion"],
        "ops": stats["ops"],
        "kernels": stats["kernels"],
        "fused_ops": stats["fused_ops"],
        "mono_loads": stats["mono_loads"],
        "mono_stores": stats["mono_stores"],
        "fast_atomics": stats["fast_atomics"],
        "cache": ({k: cache[k] for k in
                   ("hits", "misses", "stores", "errors")}
                  if cache else None),
    }
    if stats.get("native") is not None:
        out["native"] = stats["native"]
    return out


def _prepare_lulesh(backend: str, flavor: str, nx: int, steps: int,
                    num_threads: int = 1, fusion: bool = True,
                    cache_dir=None, adjoint=None, cc=None):
    """Build and warm one LULESH gradient; returns ``(one_run,
    result)``: the timed call and the row builder for its best time
    and last outputs."""
    app = LuleshApp(flavor, nx, backend=backend, fusion=fusion,
                    compile_cache=cache_dir, adjoint=adjoint, cc=cc)
    app.grad_fn()  # build the derivative outside the timed region

    def one_run():
        doms = app.make_domains(1.0e4)
        shadows = [d.shadow_arrays(seed=1.0) for d in doms]
        t0 = time.perf_counter()
        res = app.run_gradient(doms, steps, num_threads, shadows)
        return time.perf_counter() - t0, doms, shadows, res

    one_run()  # warmup: compiles under backend="compiled"
    # The warmup run is where compilation (and any disk-cache traffic)
    # happens; the timed runs hit the in-memory per-function memo.
    stats = _backend_summary(app.last_compile_stats)

    def result(seconds, doms, shadows, res) -> dict:
        grads = np.concatenate([sh[f].ravel() for sh in shadows
                                for f in sorted(sh)])
        primal = np.concatenate([np.asarray(d[f], dtype=np.float64).ravel()
                                 for d in doms for f in sorted(d.arrays)])
        return {"seconds": seconds, "grads": grads, "primal": primal,
                "clock": res.time, "cost": res.cost.as_dict(),
                "backend_stats": stats,
                "adjoint_stats": app.last_adjoint_stats}

    return one_run, result


def _prepare_minibude(backend: str, variant: str, num_threads: int = 1,
                      fusion: bool = True, cache_dir=None, cc=None):
    """miniBUDE counterpart of :func:`_prepare_lulesh`."""
    app = MinibudeApp(variant, backend=backend, fusion=fusion,
                      compile_cache=cache_dir, cc=cc)
    app.grad_fn()

    def one_run():
        t0 = time.perf_counter()
        shadows, res = app.run_gradient(num_threads)
        return time.perf_counter() - t0, shadows, res

    one_run()
    stats = _backend_summary(app.last_compile_stats)

    def result(seconds, shadows, res) -> dict:
        grads = np.concatenate([shadows[k].ravel()
                                for k in sorted(shadows)])
        return {"seconds": seconds, "grads": grads,
                "primal": res.energies.copy(), "clock": res.time,
                "cost": res.cost.as_dict(), "backend_stats": stats}

    return one_run, result


def run_case(name: str, kind: str, headline: bool, kwargs: dict,
             reps: int, backends=("compiled",), fusion: bool = True,
             cache_dir=None, adjoint=None, cc=None) -> list[dict]:
    """One benchmark case: the interp baseline and every candidate
    backend are built and warmed, timed round-robin, and each candidate
    is diffed against the baseline.  Returns one row per candidate;
    native rows carry a ``[native]`` case suffix (their timing stays
    under the ``compiled_seconds`` key so downstream tooling reads
    every row the same way)."""
    prepare = _prepare_lulesh if kind == "lulesh" else _prepare_minibude
    if adjoint and kind == "lulesh":
        # The strategy tags the LULESH time loop; miniBUDE has no
        # counted time loop, so its cases keep the cache-all plan.
        kwargs = dict(kwargs, adjoint=adjoint)
    prepared = {"interp": prepare("interp", **kwargs)}
    for backend in backends:
        prepared[backend] = prepare(backend, fusion=fusion,
                                    cache_dir=cache_dir, cc=cc, **kwargs)
    best, last = _time_interleaved(
        {tier: one_run for tier, (one_run, _) in prepared.items()}, reps)
    results = {tier: result(best[tier], *last[tier])
               for tier, (_, result) in prepared.items()}
    interp = results["interp"]
    rows = []
    for backend in backends:
        cand = results[backend]
        dev = max(float(np.max(np.abs(interp["grads"] - cand["grads"]))),
                  float(np.max(np.abs(interp["primal"]
                                      - cand["primal"]))))
        rows.append({
            "case": name if backend == "compiled" else f"{name}[{backend}]",
            "backend_kind": backend,
            "headline": headline,
            "interp_seconds": round(interp["seconds"], 4),
            "compiled_seconds": round(cand["seconds"], 4),
            "speedup": round(interp["seconds"] / cand["seconds"], 2),
            "max_abs_dev": dev,
            "clock_match": interp["clock"] == cand["clock"],
            "cost_match": interp["cost"] == cand["cost"],
            "backend": cand["backend_stats"],
            "adjoint": adjoint if kind == "lulesh" else None,
            "adjoint_stats": cand.get("adjoint_stats"),
        })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small problem sizes (the CI divergence gate)")
    ap.add_argument("--reps", type=int, default=3,
                    help="minimum timed rounds over all tiers (best per "
                         "tier is kept; millisecond rows repeat until "
                         "0.3 s are sampled)")
    ap.add_argument("--tol", type=float, default=1e-12,
                    help="max allowed |interp - compiled| deviation")
    ap.add_argument("--out", metavar="FILE",
                    help="write the JSON report here as well as stdout")
    ap.add_argument("--backend", default="both",
                    choices=["compiled", "native", "both"],
                    help="candidate backend(s) to bench against interp "
                         "(default: both)")
    ap.add_argument("--cc", default=None,
                    help="C compiler for the native backend (default: "
                         "$CC, then cc/gcc/clang)")
    ap.add_argument("--no-fusion", action="store_true",
                    help="disable trace fusion in the compiled backend")
    ap.add_argument("--cache-dir", metavar="DIR",
                    help="persistent compile-cache directory for the "
                         "compiled backend (unset: defer to the "
                         "REPRO_CACHE_DIR environment variable; no "
                         "caching when that is unset too)")
    ap.add_argument("--adjoint", default=None,
                    choices=["cache-all", "checkpoint", "implicit"],
                    help="adjoint strategy for the LULESH time loop "
                         "(default: the engine's cache-all plan)")
    args = ap.parse_args(argv)

    backends = (("compiled", "native") if args.backend == "both"
                else (args.backend,))
    cases = _SMOKE_CASES if args.smoke else _FULL_CASES
    rows = []
    for name, kind, headline, kwargs in cases:
        case_rows = run_case(name, kind, headline, kwargs, args.reps,
                             backends=backends,
                             fusion=not args.no_fusion,
                             cache_dir=args.cache_dir,
                             adjoint=args.adjoint, cc=args.cc)
        rows += case_rows
        for row in case_rows:
            be = row["backend"] or {}
            cache = be.get("cache")
            extra = (f" fused={be['fused_ops']}/{be['ops']}"
                     f" kernels={be['kernels']}" if be else "")
            if cache:
                extra += (f" cache[h={cache['hits']} m={cache['misses']} "
                          f"s={cache['stores']}]")
            nat = be.get("native")
            if nat:
                extra += (f" native[k={nat['kernels']} c={nat['claimed']}"
                          f" f={nat['folds']}]" if nat["enabled"]
                          else " native[fallback]")
            if row.get("adjoint") and row.get("adjoint_stats"):
                extra += (
                    f" adjoint={row['adjoint']} "
                    f"peak={row['adjoint_stats']['peak_cached_bytes']}B")
            print(f"{row['case']:24s} "
                  f"interp={row['interp_seconds']:8.3f}s "
                  f"{row['backend_kind']}="
                  f"{row['compiled_seconds']:8.3f}s "
                  f"speedup={row['speedup']:5.2f}x "
                  f"dev={row['max_abs_dev']:.2e} "
                  f"clock_match={row['clock_match']} "
                  f"cost_match={row['cost_match']}{extra}")

    headline_speedups = [r["speedup"] for r in rows if r["headline"]]
    by_backend = {
        b: round(float(np.exp(np.mean(np.log(
            [r["speedup"] for r in rows
             if r["headline"] and r["backend_kind"] == b])))), 2)
        for b in backends
    }
    report = {
        "tool": "backend-bench",
        "mode": "smoke" if args.smoke else "full",
        "reps": args.reps,
        "adjoint": args.adjoint,
        "rows": rows,
        "speedup": round(float(np.exp(np.mean(
            np.log(headline_speedups)))), 2),
        "speedup_by_backend": by_backend,
        "speedup_note": _SPEEDUP_NOTE,
        "max_abs_dev": max(r["max_abs_dev"] for r in rows),
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)

    bad = [r for r in rows
           if r["max_abs_dev"] > args.tol or not r["clock_match"]
           or not r["cost_match"]]
    if bad:
        print(f"FAIL: {len(bad)} case(s) diverge beyond tol={args.tol}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
