"""The CI perf gate: regression detection and cache-state assertions
of ``repro.tools.bench_compare``."""

import json

from repro.tools.bench_compare import check_cache, compare, main


def _report(rows):
    return {"tool": "backend-bench", "mode": "smoke", "rows": rows}


def _row(case, speedup, headline=True, dev=0.0, clock=True, cost=True,
         cache=None):
    row = {"case": case, "headline": headline, "speedup": speedup,
           "max_abs_dev": dev, "clock_match": clock, "cost_match": cost,
           "interp_seconds": 1.0, "compiled_seconds": 1.0 / speedup}
    if cache is not None:
        row["backend"] = {"cache": cache}
    return row


def test_no_regression_passes():
    base = _report([_row("a", 6.0), _row("b", 8.0)])
    cand = _report([_row("a", 5.5), _row("b", 9.0)])
    rows, failures = compare(base, cand, 0.20)
    assert failures == []
    assert {r["case"] for r in rows} == {"a", "b"}


def test_headline_regression_fails():
    base = _report([_row("a", 6.0)])
    cand = _report([_row("a", 4.0)])  # -33%
    _, failures = compare(base, cand, 0.20)
    assert len(failures) == 1
    assert "regressed" in failures[0]


def test_non_headline_rows_do_not_gate():
    base = _report([_row("a", 3.0, headline=False)])
    cand = _report([_row("a", 1.0, headline=False)])
    _, failures = compare(base, cand, 0.20)
    assert failures == []


def test_regression_exactly_at_limit_passes():
    base = _report([_row("a", 5.0)])
    cand = _report([_row("a", 4.0)])  # exactly -20%
    _, failures = compare(base, cand, 0.20)
    assert failures == []


def test_candidate_divergence_fails_regardless_of_speed():
    base = _report([_row("a", 5.0)])
    cand = _report([_row("a", 9.0, dev=1e-9)])
    _, failures = compare(base, cand, 0.20)
    assert any("deviation" in f for f in failures)
    cand = _report([_row("a", 9.0, clock=False)])
    _, failures = compare(base, cand, 0.20)
    assert any("clocks" in f for f in failures)
    cand = _report([_row("a", 9.0, cost=False)])
    _, failures = compare(base, cand, 0.20)
    assert any("cost" in f for f in failures)


def test_case_only_in_baseline_is_listed_not_failed():
    base = _report([_row("a", 6.0), _row("full-only", 2.0,
                                         headline=False)])
    cand = _report([_row("a", 6.0)])
    rows, failures = compare(base, cand, 0.20)
    assert failures == []
    (missing,) = [r for r in rows if r["case"] == "full-only"]
    assert missing["candidate_speedup"] is None


def test_new_candidate_case_compares_against_nothing():
    base = _report([_row("a", 6.0)])
    cand = _report([_row("a", 6.0), _row("new", 1.0)])
    rows, failures = compare(base, cand, 0.20)
    assert failures == []
    (new,) = [r for r in rows if r["case"] == "new"]
    assert new["baseline_speedup"] is None and new["change"] is None


# ---------------------------------------------------------------------------
# Cache-state assertions
# ---------------------------------------------------------------------------

def test_cold_cache_expectations():
    ok = _report([_row("a", 5.0, cache={"hits": 0, "misses": 2,
                                        "stores": 2, "errors": 0})])
    assert check_cache(ok, "cold") == []
    warm_counters = _report([_row("a", 5.0,
                                  cache={"hits": 2, "misses": 0,
                                         "stores": 0, "errors": 0})])
    assert check_cache(warm_counters, "cold") != []


def test_warm_cache_expectations():
    ok = _report([_row("a", 5.0, cache={"hits": 2, "misses": 0,
                                        "stores": 0, "errors": 0})])
    assert check_cache(ok, "warm") == []
    for bad in ({"hits": 0, "misses": 1, "stores": 1, "errors": 0},
                {"hits": 1, "misses": 1, "stores": 1, "errors": 0},
                {"hits": 1, "misses": 0, "stores": 0, "errors": 1}):
        rep = _report([_row("a", 5.0, cache=bad)])
        assert check_cache(rep, "warm") != [], bad


def test_missing_cache_counters_fail():
    rep = _report([_row("a", 5.0)])  # no backend stats at all
    assert check_cache(rep, "warm") != []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_main_pass_and_fail_exit_codes(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _report([_row("a", 6.0)]))
    good = _write(tmp_path, "good.json", _report([_row("a", 6.1)]))
    bad = _write(tmp_path, "bad.json", _report([_row("a", 1.0)]))
    assert main([base, good]) == 0
    assert "OK" in capsys.readouterr().out
    assert main([base, bad]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_rows_and_output_carry_both_tiers_absolute_seconds(tmp_path,
                                                            capsys):
    """A falling ratio is ambiguous; the absolute seconds say whether
    the compiled tier regressed or the interpreter got faster."""
    base_row = _row("a", 10.0)              # interp 1.0 s, compiled 0.1 s
    cand_row = dict(_row("a", 4.0), interp_seconds=0.2,
                    compiled_seconds=0.05)  # both faster, ratio down
    rows, failures = compare(_report([base_row]), _report([cand_row]), 0.20)
    assert failures                          # the ratio gate still trips
    assert rows[0]["baseline_seconds"] == (1.0, 0.1)
    assert rows[0]["candidate_seconds"] == (0.2, 0.05)
    base = _write(tmp_path, "base.json", _report([base_row, _row("b", 2.0)]))
    cand = _write(tmp_path, "cand.json", _report([cand_row]))
    assert main([base, cand]) == 1
    out = capsys.readouterr().out
    assert "interp=1.0000s→0.2000s" in out
    assert "compiled=0.1000s→0.0500s" in out
    assert "interp=1.0000s→—" in out        # case missing from candidate


def test_main_rejects_non_reports(tmp_path):
    junk = _write(tmp_path, "junk.json", {"tool": "something-else"})
    ok = _write(tmp_path, "ok.json", _report([]))
    assert main([junk, ok]) == 2
    assert main([ok, str(tmp_path / "missing.json")]) == 2


def test_main_expect_cache(tmp_path):
    base = _write(tmp_path, "base.json", _report([_row("a", 6.0)]))
    warm = _write(tmp_path, "warm.json", _report(
        [_row("a", 6.0, cache={"hits": 1, "misses": 0, "stores": 0,
                               "errors": 0})]))
    assert main([base, warm, "--expect-cache", "warm"]) == 0
    assert main([base, warm, "--expect-cache", "cold"]) == 1
