"""Retired names stay retired.

Each entry is a regular expression searched in every text file under
``src/`` and ``tests/`` and in README.md and DESIGN.md.  The region
certifier and the backend-ratio benchmark were removed (``bench_e2e`` is
the benchmark and ``certify_bounds`` the bounds entry point); the private
index walkers gave way to ``IntervalAnalysis.index_strides`` /
``.variance``; access plans replaced the monotonicity helper family;
the checkpoint sweeps are emitted by ``repro.ad.strategy`` itself; the
implicit (fixed-point) adjoint, the adjoint-strategy class layer and the
strategy stamp on gradients went; the op-by-op interpreter bridge went;
the frontend code that only its own tests called and the apps' post-hoc
RAJA tag went (the apps build every construct through the frontends).
"""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

RETIRED = [
    # the region certifier and the backend-ratio benchmark
    "regioncheck", "region_lint", "RegionChecker", "region_report",
    "bench_backend", "bench_compare", "BENCH_backend", "REGION_baseline",
    "analyze_intervals", "readonly_in_region",
    # the private index walkers
    "_index_form", "_lane_varying", "_join_vary", "classify_lane_index",
    # the monotonicity helper family (tests/interp/test_fusion.py names
    # its deterministic access-plan cases test_mono_* after the algebra)
    r"(?<!test_)mono_(add|neg|scale|relax)", "_make_mono_helpers",
    r"_ldmu?\b", r"_stmu?\b", "_ngat", "_nsca",
    # the bisection checkpoint machine (the strategy emits its sweeps)
    "_ckpt_forward_loop", "_ckpt_reverse_loop",
    # the implicit adjoint and the strategy plug-in layer
    "ImplicitAdjoint", "implicit_iters", "_implicit_(forward|reverse)_loop",
    "strategy_fingerprint", "CacheAllAdjoint", "_ManagedStrategy",
    r"\bAdjointStrategy\b",
    # the op-by-op interpreter bridge of the compiled tier
    "lower_bridge", r"\b_bg\b", "free_values",
    # frontend code no app called, and the post-hoc RAJA fork tag
    "JuliaArray", "MPI_SYMBOLS", "threads_for", "reduction_min_scratch",
    "raja_tag",
]

#: keeps reference copies of the index walkers for differential tests
EXEMPT = {"tests/passes/test_index_facts.py"}


def _texts():
    paths = [ROOT / "README.md", ROOT / "DESIGN.md"]
    for top in ("src", "tests"):
        paths += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in paths:
        rel = path.relative_to(ROOT).as_posix()
        if rel in EXEMPT or path == pathlib.Path(__file__).resolve():
            continue
        try:
            yield rel, path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue


def test_retired_names_stay_retired():
    pattern = re.compile("|".join(f"(?:{name})" for name in RETIRED))
    found = [f"{rel}:{n}: {line.strip()}"
             for rel, text in _texts()
             for n, line in enumerate(text.splitlines(), 1)
             if pattern.search(line)]
    assert not found, "a retired name is back:\n" + "\n".join(found)
