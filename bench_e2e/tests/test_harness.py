"""Unit tests of the benchmark harness itself."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from bench_e2e import ROOT
from bench_e2e.gate import run_gate
from bench_e2e.run import NAME_RE, load_spec
from bench_e2e.stats import summarize, tail_percentile
from bench_e2e.trace import Tracer, self_times
from bench_e2e.workloads import WORKLOADS, digest


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "cycle": 0}


# -- span self-time arithmetic ---------------------------------------------

def test_self_time_nested_children():
    spans = [span("root", 0, 10), span("a", 1, 4, 0), span("b", 5, 9, 0),
             span("a1", 2, 3, 1)]
    assert self_times(spans) == [3, 2, 4, 1]


def test_self_time_overlapping_children_count_once():
    spans = [span("root", 0, 10), span("a", 1, 5, 0), span("b", 3, 7, 0),
             span("late", 8, 12, 0), span("inside_a", 2, 4, 1)]
    # children cover [1,7] and [8,10] of the root: 8 of 10
    assert self_times(spans)[0] == 2
    assert self_times(spans)[1] == 2


def test_tracer_records_parent_and_cycle():
    tr = Tracer()
    tr.cycle = 7
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    outer, inner = tr.spans
    assert (outer["parent"], inner["parent"]) == (None, 0)
    assert outer["cycle"] == inner["cycle"] == 7
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert all(t >= 0 for t in self_times(tr.spans))


# -- the "at least ten samples beyond" percentile rule ----------------------

@pytest.mark.parametrize("n, p", [(1, None), (19, None), (20, 50), (39, 50),
                                  (40, 75), (99, 75), (100, 90), (200, 95),
                                  (1000, 99)])
def test_tail_percentile_needs_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p


def test_summarize_reports_median_tail_and_count():
    s = summarize([float(i) for i in range(1, 41)])
    assert s["n"] == 40 and s["median"] == 20.5
    assert s["tail"] == {"p": 75, "value": 30.0}
    assert sum(x > s["tail"]["value"] for x in range(1, 41)) >= 10
    assert summarize([1.0, 3.0])["tail"] is None


# -- names ------------------------------------------------------------------

def test_names_match_the_contract_regex():
    spec = load_spec()
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert NAME_RE.fullmatch(m["name"]) and len(m["name"]) <= 64
    for bad in ("", "a b", "a/b", "grad(s)", "é"):
        assert not NAME_RE.fullmatch(bad)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


# -- BENCHMARK.json <-> what a run prints -----------------------------------

@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_exactly_the_declared_ones(trace):
    spec = load_spec()
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench_e2e", "run.py"),
         "--smoke", "--workload", "minibude_serial", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    printed = {m.group(1): m.group(2) for m in (
        re.match(r"minibude_serial (\S+) \S+ (\S+)", ln) for ln in lines) if m}
    derived = {"fail_share", "host_overhead_x"}
    assert {n: u for n, u in printed.items() if n not in derived} == declared
    # the per-run disk cache is removed at exit
    assert not [d for d in os.listdir(os.path.join(ROOT, "bench_e2e", "out"))
                if d.startswith("run_minibude_serial_")]


# -- seed -> inputs ---------------------------------------------------------

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = WORKLOADS[name].smoke()

    def arrays(seed):
        inputs = wl.make_inputs(seed)
        app = wl.make_app(inputs)
        rank_args, _, _ = wl.grad_args(app, wl.fresh_state(app, inputs))
        return [{str(i): a for i, a in enumerate(args)
                 if isinstance(a, np.ndarray)} for args in rank_args]

    assert digest(arrays(3)) == digest(arrays(3))
    assert digest(arrays(3)) != digest(arrays(4))


# -- the gate fails when it should -----------------------------------------

@pytest.mark.parametrize("name", ["minibude_serial", "lulesh_ckpt"])
def test_wrong_seed_vector_fails_the_gate(name):
    wl = WORKLOADS[name].smoke()
    inputs = wl.make_inputs(0)
    good = run_gate(wl, inputs)
    assert good.ok, good.checks
    bad = run_gate(wl, inputs, shadow_seed=1.001)
    failed = [n for n, ok, _ in bad.checks if not ok]
    assert failed == ["fd_projection"]
