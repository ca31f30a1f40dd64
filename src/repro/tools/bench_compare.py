"""Compare two backend-benchmark reports:
``python -m repro.tools.bench_compare BASELINE CANDIDATE``.

The CI perf gate: loads the committed ``BENCH_backend.json`` (baseline)
and a freshly produced report (candidate, usually from ``bench_backend
--smoke``) and fails if any *headline* case's compiled-vs-interp
speedup regressed more than ``--max-regression`` (default 20%) below
the baseline.  Cases present in only one report are compared against
nothing (smoke runs a subset of the full suite) but listed, so a
silently vanishing case is visible in the log.

``--expect-cache warm|cold`` additionally asserts the candidate's
persistent compile-cache counters: a *cold* run must have compiled
(misses, no hits) and a *warm* run must have been served entirely from
disk (hits, no misses, no stores).  CI runs the smoke benchmark twice
under the same ``REPRO_CACHE_DIR`` and checks cold-then-warm.

Speedups are wall-clock ratios on shared runners, so the gate is
deliberately loose: it catches the "compiled backend silently fell
back to the interpreter" class of regression (speedup collapses to
~1x), not single-digit-percent noise.

The gated number is a *ratio of two tiers*, so it also falls when the
interpreter gets faster.  Every row therefore prints both tiers'
absolute seconds, baseline → candidate, next to the ratio: a
compiled-tier regression shows as compiled seconds going up, an
interpreter speed-up as interp seconds going down with compiled
seconds flat or better (then the committed baseline is what is stale —
regenerate ``BENCH_backend.json``).
"""

from __future__ import annotations

import argparse
import json
import sys


def load_report(path: str) -> dict:
    with open(path) as f:
        payload = json.load(f)
    if payload.get("tool") != "backend-bench":
        raise ValueError(f"{path}: not a backend-bench report "
                         f"(tool={payload.get('tool')!r})")
    return payload


def compare(baseline: dict, candidate: dict,
            max_regression: float) -> tuple[list[dict], list[str]]:
    """Per-case comparison rows and the list of failure messages."""
    base_rows = {r["case"]: r for r in baseline.get("rows", [])}
    failures: list[str] = []
    rows: list[dict] = []
    for cand in candidate.get("rows", []):
        name = cand["case"]
        base = base_rows.get(name)
        row = {"case": name,
               "headline": bool(cand.get("headline")),
               "baseline_speedup": base["speedup"] if base else None,
               "candidate_speedup": cand["speedup"],
               "baseline_seconds": _seconds(base),
               "candidate_seconds": _seconds(cand)}
        if base is not None and base["speedup"] > 0:
            change = (cand["speedup"] - base["speedup"]) / base["speedup"]
            row["change"] = round(change, 4)
            if cand.get("headline") and change < -max_regression:
                failures.append(
                    f"{name}: speedup {cand['speedup']:.2f}x regressed "
                    f"{-change:.0%} below baseline "
                    f"{base['speedup']:.2f}x (limit "
                    f"{max_regression:.0%})")
        else:
            row["change"] = None
        # A candidate that diverges is broken regardless of speed.
        if cand.get("max_abs_dev", 0.0) > 0.0:
            failures.append(f"{name}: nonzero backend deviation "
                            f"{cand['max_abs_dev']:.2e}")
        if not cand.get("clock_match", True):
            failures.append(f"{name}: simulated clocks diverged")
        if not cand.get("cost_match", True):
            failures.append(f"{name}: cost vectors diverged")
        rows.append(row)
    missing = sorted(set(base_rows) - {r["case"] for r in rows})
    for name in missing:
        rows.append({"case": name, "headline": None,
                     "baseline_speedup": base_rows[name]["speedup"],
                     "candidate_speedup": None, "change": None,
                     "baseline_seconds": _seconds(base_rows[name]),
                     "candidate_seconds": None})
    return rows, failures


def _seconds(row) -> "tuple | None":
    """(interp, compiled-tier) wall-clock seconds of one report row."""
    if not row or "interp_seconds" not in row:
        return None
    return row["interp_seconds"], row["compiled_seconds"]


def _fmt_seconds(tier: int, base, cand) -> str:
    def one(pair):
        return f"{pair[tier]:.4f}s" if pair else "—"
    return f"{one(base)}→{one(cand)}"


def check_cache(candidate: dict, expect: str) -> list[str]:
    """Assert every compiled row's disk-cache counters match ``expect``
    ('cold': compiled and stored; 'warm': served purely from disk)."""
    failures = []
    for row in candidate.get("rows", []):
        name = row["case"]
        cache = (row.get("backend") or {}).get("cache")
        if cache is None:
            failures.append(f"{name}: no compile-cache counters "
                            f"(was bench_backend run with --cache-dir?)")
            continue
        if cache.get("errors"):
            failures.append(f"{name}: {cache['errors']} cache error(s)")
        if expect == "cold":
            if not cache.get("misses") or not cache.get("stores"):
                failures.append(
                    f"{name}: cold run expected misses+stores, got "
                    f"{cache}")
        else:  # warm
            if not cache.get("hits") or cache.get("misses") \
                    or cache.get("stores"):
                failures.append(
                    f"{name}: warm run expected hits only (no misses/"
                    f"stores), got {cache}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed BENCH_backend.json")
    ap.add_argument("candidate", help="freshly produced report")
    ap.add_argument("--max-regression", type=float, default=0.20,
                    metavar="FRAC",
                    help="max allowed fractional headline-speedup "
                         "regression (default 0.20 = 20%%)")
    ap.add_argument("--expect-cache", choices=("cold", "warm"),
                    help="assert the candidate's persistent compile-"
                         "cache counters (cold: compiled+stored; warm: "
                         "pure hits)")
    args = ap.parse_args(argv)

    try:
        baseline = load_report(args.baseline)
        candidate = load_report(args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    rows, failures = compare(baseline, candidate, args.max_regression)
    if args.expect_cache:
        failures += check_cache(candidate, args.expect_cache)

    for r in rows:
        base = r["baseline_speedup"]
        cand = r["candidate_speedup"]
        change = (f"{r['change']:+.1%}" if r["change"] is not None
                  else "n/a")
        mark = "headline" if r["headline"] else (
            "not in candidate" if cand is None else "")
        secs = r["baseline_seconds"], r["candidate_seconds"]
        print(f"{r['case']:24s} baseline="
              f"{base if base is not None else '—':>6} candidate="
              f"{cand if cand is not None else '—':>6} "
              f"change={change:>7} "
              f"interp={_fmt_seconds(0, *secs)} "
              f"compiled={_fmt_seconds(1, *secs)} {mark}")

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print(f"OK: no headline regression beyond "
          f"{args.max_regression:.0%}"
          + (f", cache counters match '{args.expect_cache}'"
             if args.expect_cache else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
