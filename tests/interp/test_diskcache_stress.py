"""One cache directory, several processes at once (what CI matrices and
MPI launchers do): every process differentiates, compiles and runs the
LULESH-openmp gradient against a directory that starts empty, each
under its own ``PYTHONHASHSEED``.

Whoever loses the race to store reads the winner's entries, so this is
also the determinism test of the gradient IR: the entries are keyed on
the printed primal (gradient) and on the printed gradient (code), and
only one of each may exist afterwards.  Whichever process rewrote the
gradient entry last, the one it left is marked as lowered: a seventh
process runs the stored code without building the gradient's body."""

import json
import os
import subprocess
import sys

import repro

WORKER = """
import hashlib, json
import numpy as np
from repro.apps.lulesh.driver import LuleshApp

app = LuleshApp("openmp", 2, backend="compiled")   # REPRO_CACHE_DIR
doms = app.make_domains(1.0e4)
shadows = [d.shadow_arrays(seed=1.0) for d in doms]
run = app.run_gradient(doms, 2, 4, shadows)
stats = app.last_compile_stats
print(json.dumps({
    "digest": hashlib.sha256(b"".join(
        np.ascontiguousarray(shadows[0][f]).tobytes()
        for f in sorted(shadows[0]))).hexdigest(),
    "clock": run.time,
    "gradient": stats["gradient_cache"], "code": stats["cache"],
    "lowered": stats["lowered"],
    "interpreter_only": stats["interpreter_only"],
    "text_only": app.module.functions[app.grad_fn()].text_only}))
"""

#: More workers than this box has cores.
WORKERS = 6


def test_concurrent_processes_share_one_directory(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    procs = []
    for seed in range(WORKERS):
        env = dict(os.environ, PYTHONHASHSEED=str(seed + 1),
                   REPRO_CACHE_DIR=str(tmp_path), PYTHONPATH=src,
                   OMP_NUM_THREADS="1")
        procs.append(subprocess.Popen(
            [sys.executable, "-c", WORKER], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    results = []
    for p in procs:
        out, err = p.communicate(timeout=300)
        assert p.returncode == 0, err
        results.append(json.loads(out.strip().splitlines()[-1]))

    assert len({r["digest"] for r in results}) == 1
    assert len({r["clock"] for r in results}) == 1
    for r in results:
        assert r["gradient"]["event"] in ("hit", "miss")
        assert r["gradient"]["errors"] == 0 and r["code"]["errors"] == 0
        assert r["interpreter_only"] == {}
        # whoever missed lowered, whoever hit did not
        assert r["lowered"] == r["code"]["misses"]
    # at least one process found the directory empty
    assert any(r["gradient"]["event"] == "miss" for r in results)

    files = sorted(os.path.relpath(os.path.join(d, f), tmp_path)
                   for d, _, fs in os.walk(tmp_path) for f in fs)
    assert not [f for f in files if f.endswith(".tmp")]
    assert [f.split(os.sep)[0] for f in files] == ["compiled-ir",
                                                   "gradient-ir"]

    # and the directory they left behind serves a seventh
    env = dict(os.environ, PYTHONHASHSEED="99", PYTHONPATH=src,
               REPRO_CACHE_DIR=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", WORKER], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True).stdout
    late = json.loads(out.strip().splitlines()[-1])
    assert late["digest"] == results[0]["digest"]
    assert late["gradient"]["event"] == "hit"
    assert late["code"] == {"hits": 1, "misses": 0, "stores": 0,
                            "errors": 0}
    assert late["lowered"] == 0 and late["interpreter_only"] == {}
    # it ran the stored code of a gradient it never parsed
    assert late["text_only"] is True
