"""Summarize benchmark results: ``python -m repro.tools.summarize``.

Reads the JSON series the benchmark harness saved under
``benchmarks/results/`` and renders the paper-style tables plus ASCII
scaling plots for the figure benchmarks.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from ..perf.report import Series, ascii_plot, format_table

DEFAULT_DIR = pathlib.Path(__file__).resolve().parents[3] / \
    "benchmarks" / "results"

#: result-name -> (x key, series key, y key) for plotting
_PLOTTABLE = {
    "fig8_mid_strong": ("ranks", "impl", "fwd_speedup"),
    "fig9_top_lulesh": ("threads", "impl", "fwd_speedup"),
    "fig9_bot_minibude": ("threads", "impl", "overhead"),
}


def load(results_dir: pathlib.Path) -> dict:
    out = {}
    for path in sorted(results_dir.glob("*.json")):
        with open(path) as f:
            out[path.stem] = json.load(f)
    return out


def render(name: str, data: dict, plot: bool = True) -> str:
    rows = data["rows"]
    cols = list(rows[0].keys()) if rows else []
    text = format_table(data["title"], cols,
                        [[r.get(c) for c in cols] for r in rows])
    spec = _PLOTTABLE.get(name)
    if plot and spec and rows:
        xk, sk, yk = spec
        series: dict[str, Series] = {}
        for r in rows:
            s = series.setdefault(r[sk], Series(str(r[sk])))
            s.points[r[xk]] = float(r[yk])
        text += "\n" + ascii_plot(list(series.values()),
                                  title=f"{name}: {yk} vs {xk}",
                                  value="raw")
    return text


def render_sanitize_report(payload: dict) -> str:
    """Render sanitizer JSON (lint or racecheck) as a benchmark table."""
    tool = payload.get("tool")
    if tool == "lint":
        rows = [{"severity": d["severity"], "code": d["code"],
                 "op": d["op"], "message": d["message"]}
                for d in payload.get("diagnostics", [])]
        counts = payload.get("counts", {})
        title = (f"sanitize-lint @{payload.get('fn', '?')}: "
                 f"{counts.get('error', 0)} error(s), "
                 f"{counts.get('warn', 0)} warning(s)")
        if not rows:
            return f"== {title} ==\nclean\n"
        cols = list(rows[0].keys())
        return format_table(title, cols,
                            [[r.get(c) for c in cols] for r in rows])
    if tool == "racecheck":
        rows = [{"kind": r["kind"],
                 "location": f"{r['buffer']}[{r['index']}]",
                 "thread": r["thread"], "prev_thread": r["prev_thread"],
                 "op": r["op"], "prev_op": r["prev_op"]}
                for r in payload.get("races", [])]
        title = (f"racecheck: {len(rows)} race(s), "
                 f"{payload.get('accesses_checked', 0)} accesses checked, "
                 f"{len(payload.get('threads', []))} logical threads")
        if not rows:
            return f"== {title} ==\nclean\n"
        cols = list(rows[0].keys())
        return format_table(title, cols,
                            [[r.get(c) for c in cols] for r in rows])
    raise ValueError(f"not a sanitizer report (tool={tool!r}); expected "
                     f"LintResult.to_json() or RaceChecker.to_json() output")


def render_adjoint_report(payload: dict) -> str:
    """Render an adjoint-strategy report: the per-loop managed/fallback
    table plus peak AD-cache bytes, from a gradient-run JSON (the
    ``python -m repro.apps.lulesh --json`` output, or any dict
    with ``adjoint_report``/``adjoint_stats`` keys)."""
    rep = payload.get("adjoint_report")
    if rep is None:
        raise ValueError("no 'adjoint_report' in payload; expected "
                         "`python -m repro.apps.lulesh --json` "
                         "output from a gradient run")
    stats = payload.get("adjoint_stats") or {}
    where = payload.get("flavor") or payload.get("fn") or "?"
    title = (f"adjoint strategy {rep.get('strategy', '?')!r} @{where} "
             f"steps={payload.get('steps', '?')}: "
             f"{len(rep.get('managed', []))} managed loop(s), "
             f"{len(rep.get('fallbacks', []))} fallback(s), "
             f"peak cached {stats.get('peak_cached_bytes', '?')} bytes")
    rows = ([{"loop": m["loop"], "strategy": m["strategy"], "note": ""}
             for m in rep.get("managed", [])] +
            [{"loop": f["loop"],
              "strategy": f"{f['strategy']} -> cache-all",
              "note": f.get("reason", "")}
             for f in rep.get("fallbacks", [])])
    if not rows:
        return f"== {title} ==\nno managed loops (cache-all everywhere)\n"
    cols = list(rows[0].keys())
    return format_table(title, cols,
                        [[r.get(c) for c in cols] for r in rows])


#: dest -> (renderer, help) for the report-file options shared by the
#: sanitizer and adjoint render paths.
_REPORT_KINDS = {
    "sanitize_report": (render_sanitize_report,
                        "render a sanitizer JSON report (lint or "
                        "racecheck output) instead of benchmark "
                        "results; repeatable"),
    "adjoint_report": (render_adjoint_report,
                       "render an adjoint-strategy report (lulesh "
                       "driver --json gradient output): managed loops, "
                       "fallbacks, peak cached bytes; repeatable"),
}


def _add_report_args(ap: argparse.ArgumentParser) -> None:
    for dest, (_, help_text) in _REPORT_KINDS.items():
        ap.add_argument("--" + dest.replace("_", "-"), metavar="FILE",
                        action="append", type=pathlib.Path, default=[],
                        help=help_text)


def _render_report_args(args: argparse.Namespace) -> bool:
    """Render any requested report files; True if any were given."""
    rendered = False
    for dest, (renderer, _) in _REPORT_KINDS.items():
        for path in getattr(args, dest):
            with open(path) as f:
                print(renderer(json.load(f)))
            rendered = True
    return rendered


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--results", type=pathlib.Path, default=DEFAULT_DIR)
    ap.add_argument("--no-plots", action="store_true")
    _add_report_args(ap)
    ap.add_argument("names", nargs="*",
                    help="result names to show (default: all)")
    args = ap.parse_args(argv)
    if _render_report_args(args):
        return 0
    data = load(args.results)
    if not data:
        print(f"no results in {args.results}; run "
              f"`pytest benchmarks/ --benchmark-only` first",
              file=sys.stderr)
        return 1
    names = args.names or sorted(data)
    for n in names:
        if n not in data:
            print(f"unknown result {n!r}", file=sys.stderr)
            return 2
        print(render(n, data[n], plot=not args.no_plots))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
