"""What a fresh process sees: the app packages' imports, the two driver
CLIs, and the disk cache shared between a CLI process, a second CLI
process and a library caller that names the directory through the
config instead of the environment."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.apps.lulesh.driver import LuleshApp
from repro.tools import summarize

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _python(args, **env):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]), **env)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, check=True, timeout=300)


def test_apps_import_without_networkx():
    """The min-cut is solved in-repo; an import creeping back where
    some other package happens to provide networkx fails here."""
    _python(["-c", "import sys, repro.apps.lulesh.driver, repro.apps.minibude\n"
                   "assert 'networkx' not in sys.modules, 'networkx was imported'"])


@pytest.mark.parametrize("app", ["lulesh", "minibude"])
def test_app_cli_runs_its_driver_once(app):
    proc = _python(["-m", f"repro.apps.{app}", "--help"])
    assert proc.stdout.startswith(f"usage: python -m repro.apps.{app} ")
    assert proc.stderr == ""


def test_lulesh_cli_rejects_an_unknown_adjoint():
    with pytest.raises(subprocess.CalledProcessError) as err:
        _python(["-m", "repro.apps.lulesh", "--adjoint", "implicit"])
    assert err.value.returncode == 2
    assert "invalid choice: 'implicit'" in err.value.stderr


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Two CLI processes against one empty cache directory, each running
    a checkpointed gradient on the compiled tier."""
    cache = tmp_path_factory.mktemp("cache")
    runs = []
    for _ in range(2):
        proc = _python(["-m", "repro.apps.lulesh", "--nx", "2", "--steps", "2",
                        "--adjoint", "checkpoint", "--backend", "compiled",
                        "--json"], REPRO_CACHE_DIR=str(cache))
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
        runs.append(proc.stdout)
    return cache, runs


def _all_hits(event, stats):
    assert event == "hit", event
    assert stats["cache"]["hits"] >= 1 and stats["cache"]["misses"] == 0
    assert stats["lowered"] == 0
    assert stats["interpreter_only"] == {}


def test_second_process_neither_differentiates_nor_lowers(cli_runs,
                                                          monkeypatch):
    """Gradient text and lowered code are stored by the first process
    and served to the second; then to a third caller that names the
    directory through ``compile_cache=`` (where the cache lives is not
    part of the key)."""
    cache, runs = cli_runs
    first, second = map(json.loads, runs)
    assert first["cache_event"] == "miss"
    assert first["compile_stats"]["lowered"] == 1
    _all_hits(second["cache_event"], second["compile_stats"])
    assert first["gradient_digest"] == second["gradient_digest"]

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    app = LuleshApp("serial", 2, backend="compiled", adjoint="checkpoint",
                    compile_cache=str(cache))
    doms = app.make_domains()
    shadows = [d.shadow_arrays(seed=1.0) for d in doms]
    app.run_gradient(doms, 2, 1, shadows)
    _all_hits(app.gradient_cache["event"], app.last_compile_stats)
    digest = hashlib.sha256(b"".join(
        np.ascontiguousarray(sh[f]).tobytes()
        for sh in shadows for f in sorted(sh))).hexdigest()
    assert digest == first["gradient_digest"]


def test_adjoint_report_renders_the_cli_checkpoint_run(cli_runs, tmp_path,
                                                       capsys):
    _, (first, _) = cli_runs
    path = tmp_path / "adjoint.json"
    path.write_text(first)
    peak = json.loads(first)["adjoint_stats"]["peak_cached_bytes"]
    assert summarize.main(["--adjoint-report", str(path)]) == 0
    title, *table = capsys.readouterr().out.splitlines()
    assert title.startswith("== adjoint strategy 'checkpoint' @serial steps=2")
    assert f"1 managed loop(s), 0 fallback(s), peak cached {peak} bytes" \
        in title and peak > 0
    assert [row.split() for row in table[2:]] == [["s", "checkpoint"]]
