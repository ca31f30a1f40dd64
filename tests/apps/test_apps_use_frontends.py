"""The apps build every framework construct through ``repro.frontends``:
no app module emits a Julia intrinsic or writes a framework tag itself
(one lowering per construct, so a frontend change reaches every app)."""

from __future__ import annotations

import pathlib
import re

import repro

APPS = pathlib.Path(repro.__file__).resolve().parent / "apps"

#: a Julia intrinsic named as a callee string, or a framework-tag write
HAND_LOWERED = re.compile(
    r"""["']jl\.(arrayptr|gc_preserve_\w+)["']"""
    r"""|attrs\[\s*["']framework["']\s*\]\s*=""")


def test_apps_emit_no_frontend_construct_by_hand():
    assert sorted(APPS.rglob("*.py"))
    found = [f"{path.relative_to(APPS)}:{n}: {line.strip()}"
             for path in sorted(APPS.rglob("*.py"))
             for n, line in enumerate(
                 path.read_text(encoding="utf-8").splitlines(), 1)
             if HAND_LOWERED.search(line)]
    assert not found, "hand-lowered construct in an app:\n" + "\n".join(found)
