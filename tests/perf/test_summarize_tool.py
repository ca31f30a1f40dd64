"""The repro.tools.summarize CLI."""

import json

import pytest

from repro.tools.summarize import load, main, render


@pytest.fixture
def results_dir(tmp_path):
    rows = [
        {"impl": "A", "ranks": 1, "fwd_speedup": 1.0},
        {"impl": "A", "ranks": 8, "fwd_speedup": 6.5},
        {"impl": "B", "ranks": 1, "fwd_speedup": 1.0},
        {"impl": "B", "ranks": 8, "fwd_speedup": 7.8},
    ]
    with open(tmp_path / "fig8_mid_strong.json", "w") as f:
        json.dump({"title": "Strong scaling", "rows": rows}, f)
    return tmp_path


def test_load_and_render(results_dir):
    data = load(results_dir)
    assert "fig8_mid_strong" in data
    text = render("fig8_mid_strong", data["fig8_mid_strong"])
    assert "Strong scaling" in text
    assert "6.500" in text
    assert "A" in text and "B" in text


def test_main_ok(results_dir, capsys):
    assert main(["--results", str(results_dir)]) == 0
    out = capsys.readouterr().out
    assert "Strong scaling" in out


def test_main_unknown_name(results_dir):
    assert main(["--results", str(results_dir), "nope"]) == 2


def test_main_empty_dir(tmp_path):
    assert main(["--results", str(tmp_path)]) == 1
