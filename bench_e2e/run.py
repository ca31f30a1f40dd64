"""bench_e2e: time-to-first-gradient and steady-state gradient benchmark.

    python3 bench_e2e/run.py --seed S              every workload, untraced
    python3 bench_e2e/run.py --seed S --trace      every workload, traced
    python3 bench_e2e/run.py --repeat 2            repeatability self-check
    python3 bench_e2e/run.py --smoke               tiny sizes, not comparable
    python3 bench_e2e/run.py --workload W --seed S --seconds N --trace 0|1
                                                   one workload, in-process

Each workload runs in a fresh process of its own, one at a time, on one
OS thread.  The last line a one-workload run prints is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

T_START = time.perf_counter()   # set-up is timed from process start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: Units of metrics that must repeat exactly from run to run.
EXACT_UNITS = frozenset({"count", "B", "sim_s", "sim_x"})

#: e2e metric -> the sample kind whose median it is.
TIMED_E2E = {"ttfg_cold_s": "cold", "ttfg_warm_s": "warm",
             "grad_steady_s": "grad", "primal_steady_s": "primal"}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    if bad or len(set(names)) != len(names):
        raise ValueError(f"BENCHMARK.json: bad or repeated names {bad}")
    return spec


def host_header(smoke: bool) -> dict:
    import platform

    import numpy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc, load1 = os.cpu_count(), os.getloadavg()[0]
    return {"nproc": nproc, "load1": load1, "noisy": load1 > nproc,
            "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "comparable": not smoke}


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------

def run_workload(args, spec: dict) -> int:
    import resource

    from bench_e2e import OUT
    from bench_e2e.e2e import Sampler, measure
    from bench_e2e.gate import run_gate
    from bench_e2e.stats import summarize
    from bench_e2e.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()
    header = host_header(args.smoke)
    print(f"# bench_e2e {wl.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v!r}" for k, v in header.items()))

    os.makedirs(OUT, exist_ok=True)
    run_dir = os.path.join(OUT, f"run_{wl.name}_{os.getpid()}")
    detail: dict = {}
    try:
        inputs = wl.make_inputs(args.seed)
        gate = run_gate(wl, inputs)
        sampler = Sampler(wl, inputs, gate, run_dir, args.smoke)
        checks = list(gate.checks)
        if args.trace:
            from bench_e2e.layers import run_traced
            from bench_e2e.trace import Tracer
            tracer = Tracer()
            traced = run_traced(sampler, tracer, args.seconds)
            values = traced.metrics()
            checks += traced.checks
            attempted = len(checks)
            failed = sum(not ok for _, ok, _ in checks)
            tracer.dump(os.path.join(OUT, f"trace_{wl.name}.json"))
            detail["layer_shares"] = traced.layer_shares(values)
        else:
            res = measure(sampler, args.seconds, T_START)
            checks += res["checks"]
            attempted = res["attempted"] + len(gate.checks)
            failed = res["failed"] + sum(not ok for _, ok, _ in gate.checks)
            for name, kind in TIMED_E2E.items():
                detail[name] = summarize(res["samples"][kind])
            values = {name: d["median"] for name, d in detail.items()}
            values["setup_s"] = res["setup_s"]
            values["overhead_sim_x"] = gate.grad.time / gate.primal.time
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            detail["host_overhead_x"] = (values["grad_steady_s"]
                                         / values["primal_steady_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        print(f"metrics out of step with BENCHMARK.json: undeclared "
              f"{sorted(set(values) - set(units))}, missing "
              f"{sorted(set(units) - set(values))}", file=sys.stderr)
        return 3

    tally: dict = {}
    for name, ok, text in checks:
        good, n, _ = tally.get(name, (0, 0, ""))
        tally[name] = (good + ok, n + 1, text)
    for name, (good, n, text) in tally.items():
        print(f"check {name}: {'ok' if good == n else 'FAILED'} "
              f"{good}/{n} {text}".rstrip())
    for m in declared:
        line = f"{wl.name} {m['name']} {values[m['name']]:.6g} {m['unit']}"
        d = detail.get(m["name"])
        if d:
            tail = d["tail"]
            line += (f"  n={d['n']}" + (f" p{tail['p']}={tail['value']:.6g}"
                                        if tail else ""))
        print(line)
    print(f"{wl.name} fail_share {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    if "host_overhead_x" in detail:
        print(f"{wl.name} host_overhead_x {detail['host_overhead_x']:.6g} "
              f"x (grad_steady_s / primal_steady_s, derived, ungated)")
    for layer, share in detail.get("layer_shares", {}).items():
        print(f"# {wl.name} self-time share of the cold cycle: "
              f"{layer} {share:.3f}")

    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in units},
    }
    suffix = "_trace" if args.trace else ""
    with open(os.path.join(OUT, f"result_{wl.name}{suffix}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"header": header, "workload": wl.name, "seed": args.seed,
                   "checks": checks, "detail": detail, **result}, f,
                  indent=1)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in a child process
# ---------------------------------------------------------------------------

def run_child(args, workload: str, trace: int, hashseed) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT, check=False)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited {proc.returncode}")
    return json.loads(proc.stdout.rstrip().rsplit("\n", 1)[-1])


def compare_sets(spec: dict, sets: list) -> int:
    """Print, per workload × metric, the medians of the first two sets,
    their relative difference and the bound; count disagreements."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bad = 0
    for key in sets[0]:
        workload, _ = key
        for name, a in sets[0][key]["metrics"].items():
            m, b = declared[name], sets[1][key]["metrics"][name]
            exact = m["unit"] in EXACT_UNITS
            bound = 0.0 if exact else m.get("bound")
            diff = (abs(b["value"] - a["value"]) / abs(a["value"])
                    if a["value"] else float(b["value"] != a["value"]))
            wrong = bound is not None and diff > bound
            bad += wrong
            if bound is not None:
                print(f"repeat {workload} {name} {a['value']:.6g} "
                      f"{b['value']:.6g} {m['unit']} diff={diff:.4f} "
                      f"bound={bound:g}{'  DISAGREE' if wrong else ''}")
    return bad


def run_all(args, spec: dict) -> int:
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    modes = (0, 1) if args.repeat > 1 else (args.trace,)
    sets = []
    for i in range(args.repeat):
        # A different hash seed per set: exact counts must not move.
        hashseed = i if args.repeat > 1 else None
        sets.append({(w, t): run_child(args, w, t, hashseed)
                     for t in modes for w in names})
    wrong = sum(not r["correct"] for s in sets for r in s.values())
    if args.repeat > 1:
        wrong += compare_sets(spec, sets)
    print(json.dumps({"correct": wrong == 0, "comparable": not args.smoke,
                      "runs": [{"workload": w, "trace": t, **r}
                               for s in sets for (w, t), r in s.items()]}))
    return 1 if wrong else 0


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    # One OS thread, here and in every child (set before NumPy loads).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench_e2e: no src/repro beside this benchmark",
              file=sys.stderr)
        return 2
    if args.workload and args.repeat == 1:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    # Run as a script, sys.path[0] is this directory, where trace.py would
    # shadow the standard library's; the package is imported from the root.
    sys.path[0] = ROOT
    raise SystemExit(main())
