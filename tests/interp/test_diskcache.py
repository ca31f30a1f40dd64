"""Persistent compile cache: key correctness (anything that can change
the generated code changes the key), hit/miss equivalence of the code a
process ends up running, corruption tolerance, and the
ExecConfig/environment plumbing."""

import base64
import dataclasses
import hashlib
import json
import marshal
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ad import ADConfig, Duplicated, autodiff
from repro.interp import (
    CompileCache,
    ExecConfig,
    Executor,
    compile_function,
    config_fingerprint,
    resolve_cache_dir,
)
from repro.interp.diskcache import FORMAT_VERSION, open_cache
from repro.interp.lowering import const_recipe, lower_function, resolve_consts
from repro.ir import (I64, IRBuilder, Ptr, parse_function, print_closure,
                      print_function, verify_module)
from repro.passes import certify_bounds

from ..ad.test_gradient_roundtrip import (
    APPS, _assert_same_run as _assert_same_app_run, _run as _run_app)
from ..properties import simd_programs as sp
from ..properties.test_adjoint_equivalence import _time_stepped
from ..properties.test_roundtrip_properties import _STMT


def _module(scale: float = 2.0):
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n, simd=True) as i:
            b.store(b.mul(b.load(x, i), scale), x, i)
    verify_module(b.module)
    return b.module


def _lowered_source(module, fn="f", **kwargs):
    return compile_function(module.functions[fn],
                            **kwargs).__lowered_source__


def _key_text(module, fn="f"):
    """What the compiled tier addresses its code entry by."""
    return print_closure(module, fn)


def _entry_paths(root):
    out = []
    for dirpath, _, files in os.walk(root):
        out += [os.path.join(dirpath, f) for f in files
                if f.endswith(".json")]
    return sorted(out)


# ---------------------------------------------------------------------------
# Key correctness: each input dimension must change the key
# ---------------------------------------------------------------------------

def test_exec_config_change_is_a_miss(tmp_path):
    cache = CompileCache(str(tmp_path))
    src = _key_text(_module())
    fp1 = config_fingerprint(ExecConfig(num_threads=1))
    fp2 = config_fingerprint(ExecConfig(num_threads=4))
    assert fp1 != fp2
    assert cache.key(src, fp1) != cache.key(src, fp2)
    code = compile(_lowered_source(_module()), "<t>", "exec")
    cache.store(src, fp1, code)
    assert cache.load(src, fp2) is None      # different config: miss
    assert cache.load(src, fp1) is not None  # same config: hit
    assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1,
                             "errors": 0}


def test_ir_body_change_is_a_miss(tmp_path):
    cache = CompileCache(str(tmp_path))
    fp = config_fingerprint(ExecConfig())
    src1 = _key_text(_module(2.0))
    src2 = _key_text(_module(3.0))
    assert src1 != src2
    cache.store(src1, fp, compile(_lowered_source(_module(2.0)), "<t>",
                                  "exec"))
    assert cache.load(src2, fp) is None
    assert cache.load(src1, fp) is not None


def test_ad_config_change_is_a_miss(tmp_path):
    """An ADConfig that changes the generated gradient code must reach
    the key through the printed gradient (which the lowered source is a
    function of)."""
    def nonlinear_module():
        b = IRBuilder()
        with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            with b.for_(0, n, simd=True) as i:
                v = b.load(x, i)
                b.store(b.mul(b.sin(v), v), x, i)
        verify_module(b.module)
        return b.module

    cache = CompileCache(str(tmp_path))
    fp = config_fingerprint(ExecConfig())
    sources = []
    # cache_all caches what the min-cut recomputes; post_opt=False would
    # not do: this kernel's raw gradient is already its cleaned one.
    for cfg in (ADConfig(), ADConfig(cache_all=True)):
        mod = nonlinear_module()
        grad = autodiff(mod, "f", [Duplicated, None], cfg)
        sources.append((_key_text(mod, grad), _lowered_source(mod, grad)))
    (text_a, src_a), (text_b, src_b) = sources
    assert src_a != src_b and text_a != text_b
    cache.store(text_a, fp, compile(src_a, "<t>", "exec"))
    assert cache.load(text_b, fp) is None
    assert cache.load(text_a, fp) is not None


def test_adjoint_strategy_change_is_a_miss(tmp_path):
    """ADConfig.adjoint reaches the key through the generated IR: the
    two strategies' gradients print different closures, so they never
    share a cache entry."""

    def loop_module():
        b = IRBuilder()
        with b.function("f", [("x", Ptr()), ("n", I64),
                              ("steps", I64)]) as f:
            x, n, steps = f.args
            with b.for_(0, steps, name="s"):
                with b.for_(0, n, name="i") as i:
                    v = b.load(x, i)
                    b.store(b.mul(v, v), x, i)
        verify_module(b.module)
        return b.module

    cache = CompileCache(str(tmp_path))
    fp = config_fingerprint(ExecConfig())
    sources = []
    for cfg in (ADConfig(), ADConfig(adjoint="checkpoint")):
        mod = loop_module()
        grad = autodiff(mod, "f", [Duplicated, None, None], cfg)
        sources.append(_key_text(mod, grad))
    src_a, src_b = sources
    assert src_a != src_b
    assert cache.key(src_a, fp) != cache.key(src_b, fp)
    cache.store(src_a, fp, compile("pass", "<t>", "exec"))
    assert cache.load(src_b, fp) is None
    assert cache.load(src_a, fp) is not None


def test_fusion_flag_changes_source_and_key(tmp_path):
    """The IR text is the same fused or not, so ``compile_function``
    folds the flag into the fingerprint it looks up."""
    cache = CompileCache(str(tmp_path))
    fp = config_fingerprint(ExecConfig())
    sources = []
    for fusion in (True, False, True):
        mod = _module()
        code = compile_function(mod.functions["f"], fusion=fusion,
                                cache=cache, fingerprint=fp, module=mod)
        sources.append(code.__lowered_source__)
    src_on, src_off, warm = sources
    assert src_on != src_off and warm is None
    assert cache.stats() == {"hits": 1, "misses": 2, "stores": 2,
                             "errors": 0}


def test_format_version_change_is_a_miss(tmp_path, monkeypatch):
    import repro.interp.diskcache as dc

    cache = CompileCache(str(tmp_path))
    fp = config_fingerprint(ExecConfig())
    src = _lowered_source(_module())
    cache.store(src, fp, compile(src, "<t>", "exec"))
    assert cache.load(src, fp) is not None
    old_key = cache.key(src, fp)

    monkeypatch.setattr(dc, "FORMAT_VERSION", FORMAT_VERSION + 1)
    bumped = CompileCache(str(tmp_path))
    # the key itself moves, so the old entry is simply never found
    assert bumped.key(src, fp) != old_key
    assert bumped.load(src, fp) is None
    assert bumped.stats()["misses"] == 1


def test_stale_format_entry_rejected_even_on_key_collision(tmp_path,
                                                           monkeypatch):
    """Defense in depth: an entry whose payload claims another format
    version is rejected at load even if it sits at the right path."""
    import repro.interp.diskcache as dc

    cache = CompileCache(str(tmp_path))
    fp = config_fingerprint(ExecConfig())
    src = _lowered_source(_module())
    cache.store(src, fp, compile(src, "<t>", "exec"))
    (path,) = _entry_paths(cache.root)
    with open(path) as f:
        entry = json.load(f)
    entry["format"] = FORMAT_VERSION + 1
    with open(path, "w") as f:
        json.dump(entry, f)
    assert cache.load(src, fp) is None
    assert cache.stats()["errors"] == 1
    assert not os.path.exists(path)  # corrupt entry unlinked


# ---------------------------------------------------------------------------
# Corruption tolerance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("corruption", [
    b"",                          # empty file
    b"{not json",                 # unparseable
    b'{"format": 1}',             # missing payload
    None,                         # truncated (handled below)
])
def test_corrupt_entry_falls_back_to_recompile(tmp_path, corruption):
    cache = CompileCache(str(tmp_path))
    fp = config_fingerprint(ExecConfig())
    src = _lowered_source(_module())
    cache.store(src, fp, compile(src, "<t>", "exec"))
    (path,) = _entry_paths(cache.root)
    if corruption is None:
        with open(path, "rb") as f:
            payload = f.read()
        corruption = payload[:len(payload) // 2]
    with open(path, "wb") as f:
        f.write(corruption)
    assert cache.load(src, fp) is None
    assert cache.stats()["errors"] == 1
    # and a full compile-through-the-cache still works end to end
    mod = _module()
    ex = Executor(mod, ExecConfig(backend="compiled",
                                  compile_cache=str(tmp_path)))
    ex.interp.backend.strict = True
    x = np.arange(3.0)
    ex.run("f", x, 3)
    np.testing.assert_array_equal(x, np.arange(3.0) * 2.0)


def test_corrupt_marshal_blob_is_a_miss(tmp_path):
    cache = CompileCache(str(tmp_path))
    fp = config_fingerprint(ExecConfig())
    src = _lowered_source(_module())
    cache.store(src, fp, compile(src, "<t>", "exec"))
    (path,) = _entry_paths(cache.root)
    with open(path) as f:
        entry = json.load(f)
    entry["code"] = "AAAA"  # valid base64, not a marshaled code object
    with open(path, "w") as f:
        json.dump(entry, f)
    assert cache.load(src, fp) is None
    assert cache.stats()["errors"] == 1


# ---------------------------------------------------------------------------
# Native .so entries
# ---------------------------------------------------------------------------

_CC_A = "cc 13.2.0 [-O2 -fPIC -shared]"
_CC_B = "cc 14.1.0 [-O2 -fPIC -shared]"


def _native_files(cache):
    out = []
    for dirpath, _, files in os.walk(cache.native_root):
        out += [os.path.join(dirpath, f) for f in files]
    return sorted(out)


def test_native_so_roundtrip(tmp_path):
    cache = CompileCache(str(tmp_path))
    blob = b"\x7fELF-not-really-a-library"
    path = cache.store_native("void k(void) {}\n", _CC_A, blob)
    assert path is not None and os.path.exists(path)
    got = cache.load_native("void k(void) {}\n", _CC_A)
    assert got == path
    with open(got, "rb") as f:
        assert f.read() == blob
    assert cache.stats() == {"hits": 1, "misses": 0, "stores": 1,
                             "errors": 0}


def test_native_key_separates_source_and_compiler(tmp_path):
    """The .so key covers the emitted C *and* the compiler identity: a
    compiler upgrade (new version string) must miss, never serve stale
    machine code."""
    cache = CompileCache(str(tmp_path))
    assert cache.native_key("void a(void){}", _CC_A) != \
        cache.native_key("void b(void){}", _CC_A)
    assert cache.native_key("void a(void){}", _CC_A) != \
        cache.native_key("void a(void){}", _CC_B)
    cache.store_native("void a(void){}", _CC_A, b"AAAA")
    assert cache.load_native("void a(void){}", _CC_B) is None
    assert cache.load_native("void b(void){}", _CC_A) is None
    assert cache.load_native("void a(void){}", _CC_A) is not None
    # the two rejected lookups were plain misses, not corruption
    assert cache.stats()["errors"] == 0


def test_native_corrupt_blob_is_a_miss_and_unlinked(tmp_path):
    """A .so whose bytes do not match the metadata digest (torn write,
    tampering) is dropped — both files — and reported as an error."""
    cache = CompileCache(str(tmp_path))
    path = cache.store_native("void k(void){}", _CC_A, b"GOODBYTES")
    with open(path, "wb") as f:
        f.write(b"EVILBYTES")
    assert cache.load_native("void k(void){}", _CC_A) is None
    assert cache.stats()["errors"] == 1
    assert _native_files(cache) == []  # blob and metadata both gone


def test_native_meta_format_mismatch_rejected(tmp_path):
    import repro.interp.diskcache as dc

    cache = CompileCache(str(tmp_path))
    cache.store_native("void k(void){}", _CC_A, b"BYTES")
    meta_path = [p for p in _native_files(cache)
                 if p.endswith(".json")][0]
    with open(meta_path) as f:
        meta = json.load(f)
    meta["format"] = dc.NATIVE_FORMAT_VERSION + 1
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    assert cache.load_native("void k(void){}", _CC_A) is None
    assert cache.stats()["errors"] == 1
    assert _native_files(cache) == []


def test_native_missing_meta_is_a_plain_miss(tmp_path):
    cache = CompileCache(str(tmp_path))
    assert cache.load_native("void never(void){}", _CC_A) is None
    assert cache.stats() == {"hits": 0, "misses": 1, "stores": 0,
                             "errors": 0}


# ---------------------------------------------------------------------------
# Config / environment plumbing
# ---------------------------------------------------------------------------

def test_resolve_cache_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert resolve_cache_dir(ExecConfig()) is None
    assert resolve_cache_dir(ExecConfig(compile_cache="off")) is None
    assert resolve_cache_dir(
        ExecConfig(compile_cache=str(tmp_path))) == str(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache_dir(ExecConfig()) == str(tmp_path / "env")
    # explicit "off" beats the environment
    assert resolve_cache_dir(ExecConfig(compile_cache="off")) is None
    assert open_cache(ExecConfig(compile_cache="off")) is None


@pytest.mark.parametrize("value", ["off", ""])
def test_env_off_disables_without_creating_a_directory(
        tmp_path, monkeypatch, value):
    """``REPRO_CACHE_DIR=off`` (or empty) means "disabled", exactly
    like ``compile_cache="off"`` — not a cache directory named ``off``."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", value)
    assert resolve_cache_dir(ExecConfig()) is None
    assert open_cache(ExecConfig()) is None
    # an explicit config directory still beats the environment
    assert resolve_cache_dir(
        ExecConfig(compile_cache=str(tmp_path / "c"))) == str(tmp_path / "c")
    ex = Executor(_module(), ExecConfig(backend="compiled"))
    ex.run("f", np.zeros(2), 2)
    assert ex.compile_stats()["cache"] is None      # reported disabled
    assert list(tmp_path.iterdir()) == []           # nothing appeared


def test_end_to_end_warm_process_hits(tmp_path):
    """Two executors over the same module + config: the second's disk
    cache is hit (fresh Function objects defeat the in-memory memo)."""
    cfg = dict(backend="compiled", compile_cache=str(tmp_path))
    ex1 = Executor(_module(), ExecConfig(**cfg))
    ex1.run("f", np.zeros(2), 2)
    assert ex1.compile_stats()["cache"]["stores"] == 1
    ex2 = Executor(_module(), ExecConfig(**cfg))
    ex2.run("f", np.zeros(2), 2)
    st = ex2.compile_stats()["cache"]
    assert st == {"hits": 1, "misses": 0, "stores": 0, "errors": 0}


# ---------------------------------------------------------------------------
# Gradient-IR entries: the AD transform's own cache, above compile()
# ---------------------------------------------------------------------------

_ACTS = [Duplicated, None]

#: One non-default value per ADConfig field.  A field added to ADConfig
#: must be added here (the first assert of the key test says so).
_OTHER_ADCONFIG = {
    "cache_all": True, "atomic_everywhere": True, "verify": False,
    "prefix": "grad_", "opt_level": "none", "openmp_opt": True,
    "post_opt": False, "cache_space": "gc", "sanitize": True,
    "force_increment_kind": "atomic", "commcheck": (2,),
    "adjoint": "checkpoint",
}


def _nonlinear_module(extra_op: bool = False):
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.for_(0, n, simd=True) as i:
            v = b.load(x, i)
            if extra_op:
                v = b.add(v, 1.0)
            b.store(b.mul(b.sin(v), v), x, i)
    verify_module(b.module)
    return b.module


def _gradient_entry_paths(cache):
    return _entry_paths(cache.gradient_root)


def _run_gradient(module, grad):
    x, dx = np.linspace(0.1, 0.9, 5), np.ones(5)
    ex = Executor(module, ExecConfig())
    ex.run(grad, x, dx, 5)
    return x, dx, ex.clock, ex.cost.as_dict()


def _assert_same_run(a, b):
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert a[2:] == b[2:]


def _fresh_run():
    module = _nonlinear_module()
    return _run_gradient(module, autodiff(module, "f", _ACTS))


def test_gradient_miss_then_hit_is_bit_identical(tmp_path):
    from repro.ad import autodiff_transform

    cache = CompileCache(str(tmp_path))
    cold = autodiff_transform(_nonlinear_module(), "f", _ACTS, cache=cache)
    assert cold.cache_event == "miss" and cold.plan is not None
    assert cache.stats() == {"hits": 0, "misses": 1, "stores": 1,
                             "errors": 0}
    assert len(_gradient_entry_paths(cache)) == 1

    warm = autodiff_transform(_nonlinear_module(), "f", _ACTS, cache=cache)
    assert warm.cache_event == "hit"
    # no transform ran: its analyses are not there, its report is
    assert warm.plan is None and warm.activity is None
    assert warm.adjoint_report == cold.adjoint_report
    assert warm.grad.attrs == cold.grad.attrs
    assert cache.stats()["hits"] == 1 and cache.stats()["stores"] == 1
    _assert_same_run(_run_gradient(warm.module, warm.grad_name),
                     _fresh_run())
    assert autodiff_transform(_nonlinear_module(), "f", _ACTS
                              ).cache_event == "off"


def _truncate(entry, raw):
    return raw[:len(raw) // 2]


def _edit(**changes):
    def apply(entry, raw):
        entry.update(changes)
        return json.dumps(entry).encode()
    return apply


def _unparsable_text(entry, raw):
    import hashlib
    entry["text"] = entry["text"].replace(" = load ", " = lod ", 1)
    entry["sha256"] = hashlib.sha256(entry["text"].encode()).hexdigest()
    return json.dumps(entry).encode()


def _other_function(entry, raw):
    import hashlib
    entry["text"] = entry["text"].replace("@diffe_f(", "@diffe_g(", 1)
    entry["sha256"] = hashlib.sha256(entry["text"].encode()).hexdigest()
    return json.dumps(entry).encode()


@pytest.mark.parametrize("corrupt", [
    _truncate,
    lambda entry, raw: b"",
    _edit(text="func @diffe_f() -> void {\n  return\n}\n"),  # digest
    _unparsable_text,
    _other_function,
    _edit(format=0),
    _edit(sources="0" * 64),
    lambda entry, raw: json.dumps(
        {k: v for k, v in entry.items() if k != "report"}).encode(),
], ids=["truncated", "empty", "digest-mismatch", "unparsable-text",
        "wrong-function", "format-skew", "source-skew", "missing-field"])
def test_corrupt_gradient_entry_is_a_miss_and_a_fresh_transform(
        tmp_path, corrupt):
    from repro.ad import autodiff_transform

    cache = CompileCache(str(tmp_path))
    autodiff_transform(_nonlinear_module(), "f", _ACTS, cache=cache)
    (path,) = _gradient_entry_paths(cache)
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(corrupt(json.loads(raw), raw))

    cache = CompileCache(str(tmp_path))
    module = _nonlinear_module()
    tr = autodiff_transform(module, "f", _ACTS, cache=cache)
    assert tr.cache_event == "miss" and tr.plan is not None
    assert cache.stats() == {"hits": 0, "misses": 1, "stores": 1,
                             "errors": 1}
    assert sorted(module.functions) == ["diffe_f", "f"]
    _assert_same_run(_run_gradient(module, tr.grad_name), _fresh_run())
    # the bad entry was unlinked and replaced by a good one
    assert _gradient_entry_paths(cache) == [path]
    again = autodiff_transform(_nonlinear_module(), "f", _ACTS, cache=cache)
    assert again.cache_event == "hit"


# ---------------------------------------------------------------------------
# Text-only hits: a gradient entry marked as lowered is not parsed at load
# ---------------------------------------------------------------------------

def _run_compiled(module, grad, cache_dir, **config):
    """``_run_gradient`` on the compiled tier (strict), plus its
    compile stats."""
    x, dx = np.linspace(0.1, 0.9, 5), np.ones(5)
    ex = Executor(module, ExecConfig(backend="compiled",
                                     compile_cache=cache_dir, **config))
    ex.interp.backend.strict = True
    ex.run(grad, x, dx, 5)
    return (x, dx, ex.clock, ex.cost.as_dict()), ex.compile_stats()


def _read_entry(path):
    with open(path, "rb") as f:
        return json.load(f)


def _marked_entry(tmp_path, config=None):
    """Path of the gradient entry of ``_nonlinear_module`` under
    ``config``, marked as lowered: a process stored it, then compiled
    the gradient (code store) and marked it."""
    from repro.ad import autodiff_transform

    cache = CompileCache(str(tmp_path))
    module = _nonlinear_module()
    tr = autodiff_transform(module, "f", _ACTS, config, cache=cache)
    (path,) = _gradient_entry_paths(cache)
    assert "lowered_sha256" not in _read_entry(path)
    _, stats = _run_compiled(module, tr.grad_name, str(tmp_path))
    assert stats["cache"]["stores"] == 1
    entry = _read_entry(path)
    assert entry["lowered_sha256"] == entry["sha256"]
    assert entry["callees"] == []
    return path


def _counting(monkeypatch, module, name):
    """Count calls of ``module.name`` (by first argument's name)."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(getattr(args[0], "name", args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_marked_entry_is_a_text_only_hit(tmp_path, monkeypatch):
    import repro.ir.parser as parser
    import repro.ir.verifier as verifier
    from repro.ad import autodiff_transform

    path = _marked_entry(tmp_path)
    want = _fresh_run()
    parses = _counting(monkeypatch, parser, "parse_body")
    verifies = _counting(monkeypatch, verifier, "verify_function")
    cache = CompileCache(str(tmp_path))
    module = _nonlinear_module()
    tr = autodiff_transform(module, "f", _ACTS, cache=cache)
    assert tr.cache_event == "hit" and tr.grad.text_only
    assert print_function(tr.grad) == _read_entry(path)["text"]
    got, stats = _run_compiled(module, tr.grad_name, str(tmp_path))
    _assert_same_run(got, want)
    assert stats["cache"] == {"hits": 1, "misses": 0, "stores": 0,
                              "errors": 0}
    assert stats["lowered"] == 0
    assert tr.grad.text_only and parses == []
    assert "diffe_f" not in verifies


def test_text_edited_after_the_mark_is_parsed_at_load_and_a_miss(
        tmp_path, monkeypatch):
    import repro.interp.diskcache as dc
    from repro.ad import autodiff_transform

    path = _marked_entry(tmp_path)
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(_unparsable_text(json.loads(raw), raw))
    parses = _counting(monkeypatch, dc, "parse_function")
    cache = CompileCache(str(tmp_path))
    module = _nonlinear_module()
    tr = autodiff_transform(module, "f", _ACTS, cache=cache)
    assert len(parses) == 1
    assert tr.cache_event == "miss" and tr.plan is not None
    assert cache.stats() == {"hits": 0, "misses": 1, "stores": 1,
                             "errors": 1}
    _assert_same_run(_run_gradient(module, tr.grad_name), _fresh_run())


def test_edited_lowered_digest_is_parsed_and_verified_at_load(
        tmp_path, monkeypatch):
    import repro.ir.verifier as verifier
    from repro.ad import autodiff_transform

    path = _marked_entry(tmp_path)
    entry = _read_entry(path)
    entry["lowered_sha256"] = "0" * 64
    with open(path, "w") as f:
        json.dump(entry, f)
    want = _fresh_run()
    verifies = _counting(monkeypatch, verifier, "verify_function")
    cache = CompileCache(str(tmp_path))
    module = _nonlinear_module()
    tr = autodiff_transform(module, "f", _ACTS, cache=cache)
    assert tr.cache_event == "hit" and not tr.grad.text_only
    assert verifies.count("diffe_f") == 1
    got, stats = _run_compiled(module, tr.grad_name, str(tmp_path))
    _assert_same_run(got, want)
    assert stats["cache"]["hits"] == 1 and verifies.count("diffe_f") == 1
    # the code hit of a built gradient marks its entry again
    entry = _read_entry(path)
    assert entry["lowered_sha256"] == entry["sha256"]


def test_text_only_hit_without_code_builds_the_body_once(tmp_path,
                                                         monkeypatch):
    """Code was stored for another ExecConfig: the body is built for
    the lowering, verified once, and the run is the fresh one's."""
    import repro.ir.parser as parser
    import repro.ir.verifier as verifier
    from repro.ad import autodiff_transform

    path = _marked_entry(tmp_path)
    fresh = _nonlinear_module()
    want, _ = _run_compiled(fresh, autodiff(fresh, "f", _ACTS), "off",
                            num_threads=2)
    parses = _counting(monkeypatch, parser, "parse_body")
    verifies = _counting(monkeypatch, verifier, "verify_function")
    for lowered in (1, 0):
        cache = CompileCache(str(tmp_path))
        module = _nonlinear_module()
        tr = autodiff_transform(module, "f", _ACTS, cache=cache)
        assert tr.cache_event == "hit" and tr.grad.text_only
        got, stats = _run_compiled(module, tr.grad_name, str(tmp_path),
                                   num_threads=2)
        _assert_same_run(got, want)
        assert stats["lowered"] == lowered
        assert tr.grad.text_only == (not lowered)
        # built once, verified once — by the first process only
        assert len(parses) == verifies.count("diffe_f") == 1
        entry = _read_entry(path)
        assert entry["lowered_sha256"] == entry["sha256"]


@pytest.mark.parametrize("config, field", [
    (ADConfig(sanitize=True), "lint_result"),
    (ADConfig(commcheck=True), "comm_result"),
], ids=["sanitize", "commcheck"])
def test_sanitize_and_commcheck_build_the_body_at_load(tmp_path, config,
                                                       field):
    from repro.ad import autodiff_transform

    _marked_entry(tmp_path, config)
    cache = CompileCache(str(tmp_path))
    module = _nonlinear_module()
    tr = autodiff_transform(module, "f", _ACTS, config, cache=cache)
    assert tr.cache_event == "hit" and not tr.grad.text_only
    assert getattr(tr, field) is not None   # the check ran on the hit
    _assert_same_run(_run_gradient(module, tr.grad_name), _fresh_run())


def _gc_module():
    """``f(x, out)``: a GC array, unpreserved across a safepoint, then
    read — a freed-buffer fault under ``gc_stress``, in the gradient's
    forward sweep too."""
    b = IRBuilder()
    with b.function("f", [("x", Ptr()), ("out", Ptr())]) as f:
        x, out = f.args
        arr = b.alloc(4, space="gc")
        b.store(b.load(x, 0), arr, 0)
        b.call("jl.safepoint")
        b.store(b.mul(b.load(arr, 0), 2.0), out, 0)
    verify_module(b.module)
    return b.module


def test_freed_buffer_fault_of_text_only_code_names_the_same_buffer(
        tmp_path):
    """The compiled code of a text-only gradient names the faulting
    buffer after the IR value the interpreter names it after (the body
    is built to look the name up)."""
    from repro.ad import autodiff_transform
    from repro.interp import InterpreterError

    acts = [Duplicated, Duplicated]
    args = (np.ones(1), np.zeros(1), np.ones(1), np.ones(1))
    errors = []
    for expect in ("miss", "hit"):
        module = _gc_module()
        tr = autodiff_transform(module, "f", acts,
                                cache=CompileCache(str(tmp_path)))
        assert tr.cache_event == expect
        assert tr.grad.text_only == (expect == "hit")
        ex = Executor(module, ExecConfig(backend="compiled", gc_stress=True,
                                         compile_cache=str(tmp_path)))
        ex.interp.backend.strict = True
        with pytest.raises(InterpreterError, match="freed/collected") as e:
            ex.run(tr.grad_name, *args)
        assert ex.compile_stats()["lowered"] == (expect == "miss")
        errors.append(str(e.value))
    assert not tr.grad.text_only
    with pytest.raises(InterpreterError) as e:
        Executor(module, ExecConfig(gc_stress=True)).run(tr.grad_name, *args)
    assert errors[1] == str(e.value)
    assert re.search(r"buffer %\d+ \(space=gc\)", errors[1])


def test_source_digest_change_moves_the_gradient_key(tmp_path, monkeypatch):
    """Editing anything under repro.ad / repro.passes / repro.ir is an
    AD version bump: old entries are simply never found."""
    import repro.interp.diskcache as dc
    from repro.ir import print_closure

    cache = CompileCache(str(tmp_path))
    text = print_closure(_nonlinear_module(), "f")
    key = cache.gradient_key(text, _ACTS, ADConfig())
    assert len(dc.sources_digest(dc._GRADIENT_SOURCES)) == 64
    monkeypatch.setattr(dc, "sources_digest", lambda packages: "0" * 64)
    assert cache.gradient_key(text, _ACTS, ADConfig()) != key


def test_gradient_key_covers_config_activities_and_primal(tmp_path):
    import dataclasses

    from repro.ir import print_closure

    assert set(_OTHER_ADCONFIG) == {
        f.name for f in dataclasses.fields(ADConfig)}
    cache = CompileCache(str(tmp_path))
    text = print_closure(_nonlinear_module(), "f")
    base = cache.gradient_key(text, _ACTS, ADConfig())
    assert base == cache.gradient_key(text, list(_ACTS), ADConfig())
    keys = {base}
    for name, value in _OTHER_ADCONFIG.items():
        assert getattr(ADConfig(), name) != value
        keys.add(cache.gradient_key(text, _ACTS,
                                    ADConfig(**{name: value})))
    keys.add(cache.gradient_key(text, [Duplicated, Duplicated], ADConfig()))
    keys.add(cache.gradient_key(
        print_closure(_nonlinear_module(extra_op=True), "f"), _ACTS,
        ADConfig()))
    assert len(keys) == len(_OTHER_ADCONFIG) + 3


def test_gradient_key_covers_callees(tmp_path):
    """The transform inlines user calls, so a change in a callee is a
    change of the primal."""
    from repro.ir import print_closure

    def module(scale):
        b = IRBuilder()
        with b.function("g", [("x", Ptr()), ("i", I64)]) as f:
            x, i = f.args
            b.store(b.mul(b.load(x, i), scale), x, i)
        with b.function("f", [("x", Ptr()), ("n", I64)]) as f:
            x, n = f.args
            with b.for_(0, n) as i:
                b.call("g", x, i)
        verify_module(b.module)
        return b.module

    cache = CompileCache(str(tmp_path))
    k2, k3 = (cache.gradient_key(print_closure(module(s), "f"), _ACTS,
                                 ADConfig()) for s in (2.0, 3.0))
    assert k2 != k3


@pytest.mark.parametrize("how", ["config", "env"])
def test_cache_off_prints_hashes_and_writes_nothing(tmp_path, monkeypatch,
                                                    how):
    """With the cache off, ``grad_fn()`` is the transform and a compile
    is certify + lower + ``compile()``, nothing else: no printer call,
    no key, no directory."""
    import repro.ad.transform as transform
    import repro.interp.compile as compile_mod
    import repro.interp.diskcache as dc
    from repro.apps.lulesh.driver import LuleshApp
    from repro.apps.minibude import MinibudeApp
    from repro.apps.minibude.deck import make_deck

    def forbidden(*args, **kwargs):
        raise AssertionError("cache machinery ran with the cache off")

    monkeypatch.chdir(tmp_path)
    if how == "env":
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        setting = None
    else:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        setting = "off"
    for mod in (transform, compile_mod):
        for name in ("print_closure", "print_function"):
            monkeypatch.setattr(mod, name, forbidden)
    monkeypatch.setattr(dc, "sources_digest", forbidden)
    monkeypatch.setattr(dc.hashlib, "sha256", forbidden)

    lulesh = LuleshApp("serial", 2, backend="compiled",
                       compile_cache=setting)
    bude = MinibudeApp("serial", make_deck(4, 2, 6), backend="compiled",
                       compile_cache=setting)
    doms = lulesh.make_domains()
    lulesh.run_gradient(doms, 2)
    bude.run_gradient()
    for app in (lulesh, bude):
        assert app.gradient_cache == {"event": "off"}
        stats = app.last_compile_stats
        assert stats["cache"] is None and stats["lowered"] == 1
        assert stats["interpreter_only"] == {}
    assert list(tmp_path.iterdir()) == []


def test_app_drivers_share_one_directory_with_the_executor(tmp_path):
    """Both drivers hand ``grad_fn`` the directory their executors use:
    a second app instance parses the gradient, unmarshals the code and
    reports both."""
    from repro.apps.minibude import MinibudeApp
    from repro.apps.minibude.deck import make_deck

    runs = []
    for _ in range(2):
        app = MinibudeApp("serial", make_deck(4, 2, 6), backend="compiled",
                          compile_cache=str(tmp_path))
        shadows, res = app.run_gradient()
        runs.append((shadows["poses"], res.time, app.last_compile_stats))
    (g0, t0, s0), (g1, t1, s1) = runs
    np.testing.assert_array_equal(g0, g1)
    assert t0 == t1
    assert s0["gradient_cache"] == {"event": "miss", "hits": 0,
                                    "misses": 1, "stores": 1, "errors": 0}
    assert s1["gradient_cache"] == {"event": "hit", "hits": 1,
                                    "misses": 0, "stores": 0, "errors": 0}
    assert s1["cache"] == {"hits": 1, "misses": 0, "stores": 0,
                           "errors": 0}
    assert len(_entry_paths(str(tmp_path))) == 2


# ---------------------------------------------------------------------------
# Code entries are addressed by the IR they were lowered from
# ---------------------------------------------------------------------------

def _k_table(code):
    """The constant table a compiled function's globals hold."""
    return {k: v for k, v in code.__globals__.items()
            if re.fullmatch(r"_k\d+", k)}


def _forbid_lowering(monkeypatch):
    import repro.interp.compile as compile_mod
    import repro.passes.intervals as intervals

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm process certified or lowered")

    monkeypatch.setattr(compile_mod, "lower_function", forbidden)
    monkeypatch.setattr(intervals, "certify_bounds", forbidden)


@pytest.mark.parametrize("name", sorted(APPS))
def test_code_hit_is_the_code_a_miss_builds(name, tmp_path, monkeypatch):
    """A process served from the directory runs what it would have
    built: same bytecode, a constant table holding the live function's
    own objects, equal counters, bit-identical arrays / clock / cost /
    peak AD-cache bytes — with certification and lowering out of reach.
    ``lulesh-mpi`` has ``mpi.*`` calls, ``minibude-julia`` task
    bodies."""
    make, threads = APPS[name]
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    want = _run_app(make(), threads, "compiled")

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cold = make()
    _assert_same_app_run(_run_app(cold, threads, "compiled"), want)
    assert cold.gradient_cache["event"] == "miss"

    warm = make()
    with monkeypatch.context() as m:
        _forbid_lowering(m)
        # _run pins strict backends: a compile that raised would surface
        _assert_same_app_run(_run_app(warm, threads, "compiled"), want)
    assert warm.gradient_cache["event"] == "hit"

    built = cold.module.functions[cold.grad_fn()]._compiled_code
    fn = warm.module.functions[warm.grad_fn()]
    served = fn._compiled_code
    assert built.__lowered_source__ and served.__lowered_source__ is None
    assert served.__code__.co_code == built.__code__.co_code
    assert served.__code__.co_consts == built.__code__.co_consts
    source, consts, stats = lower_function(
        fn, bounds=certify_bounds(fn, warm.module))
    assert source == built.__lowered_source__
    table = _k_table(served)
    assert list(table) == list(consts) and consts
    assert all(table[k] is consts[k] for k in consts)
    assert served.__fusion_stats__.as_dict() == stats.as_dict()


def _alloc_module(scale=2.0, extent=8, callee_scale=1.0, effects="pure"):
    """``f`` with one of every constant-table kind the small programs
    reach (an ``alloc`` op, a ``call`` op, an evaluate function) and
    everything else a code key has to cover: an ``extent`` the bounds
    certifier reads, a user callee, an intrinsic."""
    from repro.ir.function import IntrinsicInfo

    b = IRBuilder()
    b.module.register_intrinsic(
        IntrinsicInfo("rt.num_threads", [], I64, effects=effects))
    with b.function("g", [("x", Ptr()), ("i", I64)]) as f:
        x, i = f.args
        b.store(b.mul(b.load(x, i), callee_scale), x, i)
    with b.function("f", [("x", Ptr()), ("n", I64)],
                    arg_attrs=[{"extent": extent}, {}]) as f:
        x, n = f.args
        tmp = b.alloc(n)
        with b.for_(0, n, simd=True) as i:
            b.store(b.sqrt(b.mul(b.load(x, i), scale)), tmp, i)
        with b.for_(0, 8, simd=True) as i:
            b.store(b.load(tmp, i), x, i)
        b.call("g", x, b.sub(b.call("rt.num_threads"), 1))
    verify_module(b.module)
    return b.module


def _run_alloc(module, cache_dir, strict=True):
    ex = Executor(module, ExecConfig(backend="compiled",
                                     compile_cache=cache_dir))
    ex.interp.backend.strict = strict
    x = np.linspace(1.0, 2.0, 8)
    ex.run("f", x, 8)
    return x, ex.clock, ex.cost.as_dict(), ex.compile_stats()


def test_recipe_addresses_every_kind_of_constant():
    module = _alloc_module()
    fn = module.functions["f"]
    _, consts, _ = lower_function(fn, bounds=certify_bounds(fn, module))
    recipe = const_recipe(fn, consts)
    assert sorted({entry[0] for entry in recipe}) == ["evaluate", "op"]
    assert sorted(e[2] for e in recipe if e[0] == "op") == [
        "alloc", "call", "call"]
    resolved = resolve_consts(fn, recipe)
    assert list(resolved) == list(consts)
    assert all(resolved[k] is consts[k] for k in consts)


_BASE_FP = config_fingerprint(ExecConfig())

#: One non-default value per ExecConfig field that is part of the code
#: key.  A field added to ExecConfig must be added here or to the
#: exemption below (the key test's first assert says so).
_OTHER_EXECCONFIG = {
    "num_threads": 4, "gc_stress": True, "machine": "c6i",
    "mpi_impl": "mpich", "max_while_iters": 7, "max_call_depth": 3,
    "sanitize": True, "sanitize_raise": False, "backend": "compiled",
    "fusion": False, "cc": "gcc",
}


@pytest.mark.parametrize("change", [
    dict(module=dict(scale=3.0)),
    dict(module=dict(extent=16)),
    dict(module=dict(callee_scale=2.0)),
    dict(module=dict(effects="read")),
    dict(fusion=False),
    dict(fingerprint=f"{_BASE_FP}|native=cc-1"),   # NativeBackend's fold
    dict(sources="0" * 64),
] + [dict(config={name: value})
     for name, value in _OTHER_EXECCONFIG.items()],
    ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items())[:40])
def test_code_key_covers_what_the_code_depends_on(change, tmp_path,
                                                  monkeypatch):
    import repro.interp.diskcache as dc
    from repro.perf.machine import c6i_metal

    assert set(_OTHER_EXECCONFIG) | {"compile_cache"} == {
        f.name for f in dataclasses.fields(ExecConfig)}

    def build(module=None, fusion=True, fingerprint=_BASE_FP, config=None,
              sources=None):
        if config is not None:
            if "machine" in config:
                config = {"machine": c6i_metal()}
            (name, value), = config.items()
            assert getattr(ExecConfig(), name) != value
            fingerprint = config_fingerprint(ExecConfig(**config))
        with monkeypatch.context() as m:
            if sources is not None:
                m.setattr(dc, "sources_digest", lambda packages: sources)
            mod = _alloc_module(**(module or {}))
            cache = CompileCache(str(tmp_path))
            code = compile_function(mod.functions["f"], fusion=fusion,
                                    cache=cache, fingerprint=fingerprint,
                                    module=mod)
            return code.__lowered_source__ is None, cache.stats()

    assert build() == (False, {"hits": 0, "misses": 1, "stores": 1,
                               "errors": 0})
    assert build(**change) == (False, {"hits": 0, "misses": 1,
                                       "stores": 1, "errors": 0})
    for again in ({}, change):
        assert build(**again) == (True, {"hits": 1, "misses": 0,
                                         "stores": 0, "errors": 0})
    assert len(_entry_paths(str(tmp_path))) == 2


def test_cache_location_is_not_part_of_the_code_key(tmp_path, monkeypatch):
    """Where the cache lives is a deployment setting: the directory
    named by the config, the same one through the environment, and the
    same one moved elsewhere (a CI cache restore) all serve the entries
    the first process stored."""
    from repro.apps.minibude import MinibudeApp
    from repro.apps.minibude.deck import make_deck

    assert config_fingerprint(ExecConfig(compile_cache="/a")) == \
        config_fingerprint(ExecConfig()) == \
        config_fingerprint(ExecConfig(compile_cache="off"))

    def process(compile_cache):
        app = MinibudeApp("serial", make_deck(4, 2, 6), backend="compiled",
                          compile_cache=compile_cache)
        shadows, res = app.run_gradient()
        stats = app.last_compile_stats
        return (shadows["poses"], res.time, app.gradient_cache["event"],
                stats["cache"], stats["lowered"])

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    first = process(str(tmp_path / "a"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
    second = process(None)
    monkeypatch.delenv("REPRO_CACHE_DIR")
    os.rename(tmp_path / "a", tmp_path / "moved")
    third = process(str(tmp_path / "moved"))

    assert first[2:] == ("miss", {"hits": 0, "misses": 1, "stores": 1,
                                  "errors": 0}, 1)
    for later in (second, third):
        np.testing.assert_array_equal(later[0], first[0])
        assert later[1] == first[1]
        assert later[2:] == ("hit", {"hits": 1, "misses": 0, "stores": 0,
                                     "errors": 0}, 0)


def test_primal_and_gradient_never_share_a_code_entry(tmp_path):
    from repro.apps.minibude import MinibudeApp
    from repro.apps.minibude.deck import make_deck

    for expect in ("stores", "hits"):
        app = MinibudeApp("serial", make_deck(4, 2, 6), backend="compiled",
                          compile_cache=str(tmp_path))
        app.run_forward()
        assert app.last_compile_stats["cache"][expect] == 1
        app.run_gradient()
        assert app.last_compile_stats["cache"][expect] == 1
        assert len(_entry_paths(os.path.join(tmp_path, "compiled-ir"))) == 2


def _with_blob(entry, blob):
    """The entry holding ``blob`` instead, its digest matching."""
    entry["code"] = base64.b64encode(blob).decode("ascii")
    entry["sha256"] = hashlib.sha256(blob).hexdigest()
    return json.dumps(entry).encode()


def _rewrite_code(entry, edit_source):
    """Replace an entry's code by the compiled, edited lowering of
    ``_alloc_module``'s ``f`` — a well-formed entry (its blob digest
    matches) holding something other than what was stored."""
    module = _alloc_module()
    fn = module.functions["f"]
    source = lower_function(fn, bounds=certify_bounds(fn, module))[0]
    edited = edit_source(source)
    assert edited != source
    return _with_blob(entry, marshal.dumps(
        compile(edited, "<tampered>", "exec")))


def _recipe_edit(pattern, replacement):
    def edit(entry, raw):
        return _rewrite_code(entry, lambda source: re.sub(
            r"(?m)^_CONSTS = .*$",
            lambda m: re.sub(pattern, replacement, m.group(), count=1),
            source))
    return edit


def _truncated_blob(entry, raw):
    return _with_blob(entry, base64.b64decode(entry["code"])[:-40])


@pytest.mark.parametrize("corrupt", [
    _truncate,
    _truncated_blob,
    _edit(sha256="0" * 64),
    _edit(sources="0" * 64),
    _recipe_edit(r"\('op', \d+, 'alloc'\)", "('op', 9999, 'alloc')"),
    # op 0 is the alloc itself: the call site's entry now names it
    _recipe_edit(r"\('op', \d+, 'call'\)", "('op', 0, 'call')"),
    _recipe_edit(r"\('evaluate', '\w+'\)", "('evaluate', 'no_such_op')"),
    _recipe_edit(r"\('op', ", "('operation', "),
    # the record of the alloc disagrees with the live op
    _recipe_edit(r"\('stack', 'f64'", "('heap', 'f64'"),
    _recipe_edit(r"\('stack', 'f64'", "('stack', 'i64'"),
    lambda entry, raw: _rewrite_code(
        entry, lambda source: source.replace("_CONSTS = ", "_CONSTANTS = ")),
    lambda entry, raw: _rewrite_code(
        entry, lambda source: re.sub(r"(?m)^_STATS = \{",
                                     "_STATS = {'extra': 1, ", source)),
], ids=["truncated-file", "truncated-blob", "blob-digest", "sources-skew",
        "index-out-of-range", "wrong-kind-of-op", "unknown-evaluate",
        "unknown-entry-kind", "alloc-space-skew", "alloc-type-skew",
        "missing-recipe", "stats-skew"])
def test_corrupt_code_entry_is_a_miss_and_a_fresh_compile(tmp_path, corrupt):
    """A code entry that does not read, does not match its digests or
    whose recipe does not resolve against the live function is dropped
    and rebuilt: never an exception, never a partly filled table."""
    want = _run_alloc(_alloc_module(), "off")
    assert want[3]["cache"] is None
    _run_alloc(_alloc_module(), str(tmp_path))
    # the entry of f (g is the smaller one)
    path = max(_entry_paths(str(tmp_path)), key=os.path.getsize)
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(corrupt(json.loads(raw), raw))

    x, clock, cost, stats = _run_alloc(_alloc_module(), str(tmp_path))
    np.testing.assert_array_equal(x, want[0])
    assert (clock, cost) == want[1:3]
    # f: corrupt miss, rebuilt and stored; g: hit
    assert stats["cache"] == {"hits": 1, "misses": 1, "stores": 1,
                              "errors": 1}
    assert stats["lowered"] == 1 and stats["interpreter_only"] == {}
    assert os.path.exists(path)
    again = _run_alloc(_alloc_module(), str(tmp_path))[3]
    assert again["cache"] == {"hits": 2, "misses": 0, "stores": 0,
                              "errors": 0}
    assert again["lowered"] == 0


def test_compile_stats_name_the_interpreter_only_fallback(monkeypatch):
    """The reason a function fell back to the interpreter is in the
    report, not only on the Function object."""
    import repro.interp.compile as compile_mod

    def broken(*args, **kwargs):
        raise compile_mod.LoweringError("synthetic failure")

    monkeypatch.setattr(compile_mod, "lower_function", broken)
    x, _, _, stats = _run_alloc(_alloc_module(), "off", strict=False)
    monkeypatch.undo()
    np.testing.assert_array_equal(x, _run_alloc(_alloc_module(), "off")[0])
    assert stats["functions"] == 0 and stats["lowered"] == 0
    # ``f`` runs interpreted and reaches ``g`` through the call path
    # both tiers share, which asks the backend for ``g`` too.
    assert stats["interpreter_only"] == {
        name: "LoweringError: synthetic failure" for name in ("f", "g")}


def _assert_text_determines_code(module, name):
    """Two functions with one printed closure lower to one source —
    recipe and counters included — and the recipe of either resolves,
    against the other, to the other's own constant table."""
    old = module.functions[name]
    text = print_closure(module, name)
    src_old, consts_old, _ = lower_function(
        old, bounds=certify_bounds(old, module))
    del module.functions[name]
    new = parse_function(print_function(old), module)
    new.attrs.update(old.attrs)
    assert print_closure(module, name) == text
    src_new, consts_new, _ = lower_function(
        new, bounds=certify_bounds(new, module))
    assert src_new == src_old
    recipe = const_recipe(old, consts_old)
    assert recipe == const_recipe(new, consts_new)
    resolved = resolve_consts(new, recipe)
    assert list(resolved) == list(consts_new)
    assert all(resolved[k] is consts_new[k] for k in consts_new)


@settings(max_examples=25, deadline=None)
@given(spec=sp.SPEC)
def test_closure_text_determines_code_simd_programs(spec):
    _assert_text_determines_code(*sp.gradient(spec, simd=True))


@settings(max_examples=25, deadline=None)
@given(stmts=st.lists(_STMT, min_size=1, max_size=3),
       adjoint=st.sampled_from(["cache-all", "checkpoint"]))
def test_closure_text_determines_code_time_stepped_programs(stmts, adjoint):
    module = _time_stepped(stmts)
    grad = autodiff(module, "prog", [Duplicated, None, None],
                    ADConfig(adjoint=adjoint))
    _assert_text_determines_code(module, grad)
