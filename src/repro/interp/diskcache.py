"""Disk-persistent compile cache for the compiled backend.

Lowering an IR function is cheap (it also deterministically rebuilds
the constant-globals table the generated code closes over), but running
CPython's ``compile()`` over the generated source dominates cold-start
time for large adjoint functions.  This cache persists the *marshaled
code object* keyed by everything that determines it:

* the lowered Python source (which transitively encodes the IR body —
  and therefore any ADConfig that shaped a gradient function);
* an ExecConfig fingerprint (see :func:`config_fingerprint`);
* the cache :data:`FORMAT_VERSION`, the lowering generation
  (:data:`repro.interp.fusion.LOWERING_VERSION`), the CPython
  version (``marshal`` payloads are interpreter-specific) and the
  NumPy version.

A warm process therefore still lowers (rebuilding ``consts``), hashes
the source, and unmarshals the stored code object instead of compiling.

Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is the SHA-256
hex digest of the components above.  Entries are JSON with the marshal
blob base64-encoded, written atomically (temp file + ``os.replace``) so
concurrent processes never observe torn entries.  Any unreadable,
truncated, version-skewed or otherwise corrupt entry is treated as a
miss, unlinked best-effort, and recompiled — the cache can never turn
a working program into a crash.

The directory is resolved per :class:`~repro.interp.interpreter.
ExecConfig`: ``compile_cache`` names it directly, ``"off"`` disables,
and ``None`` defers to the ``REPRO_CACHE_DIR`` environment variable
(no caching when unset, empty, or ``off``).
"""

from __future__ import annotations

import base64
import hashlib
import json
import marshal
import os
import sys
import tempfile
import types
from dataclasses import fields as dataclass_fields
from typing import Optional

import numpy as np

from .fusion import LOWERING_VERSION

#: Bump when the on-disk entry layout changes.
FORMAT_VERSION = 1

#: Bump when the native .so entry layout changes.
NATIVE_FORMAT_VERSION = 1

#: Subdirectory under the user-chosen root, so a shared cache dir can
#: hold unrelated artifact families without collisions.
_SUBDIR = "compiled-ir"

#: Sibling subdirectory holding compiled native kernel libraries.
_NATIVE_SUBDIR = "native-so"


def _py_tag() -> str:
    v = sys.version_info
    return f"cpython-{v.major}.{v.minor}"


def config_fingerprint(config) -> str:
    """Stable value-fingerprint of an ExecConfig.

    Every dataclass field participates (conservative: some fields do
    not affect codegen today, but correctness never depends on keeping
    this list in sync with the lowering).  The machine model is folded
    in by class name + public numeric attributes.
    """
    parts = []
    for f in dataclass_fields(config):
        v = getattr(config, f.name)
        if f.name == "machine":
            if v is None:
                parts.append("machine=None")
            else:
                knobs = ",".join(
                    f"{k}={getattr(v, k)!r}" for k in sorted(vars(v))
                    if not k.startswith("_"))
                parts.append(f"machine={type(v).__name__}({knobs})")
        else:
            parts.append(f"{f.name}={v!r}")
    return ";".join(parts)


def resolve_cache_dir(config) -> Optional[str]:
    """Cache directory for ``config``, or None when caching is off.

    The config field wins when set; otherwise ``REPRO_CACHE_DIR``
    decides.  ``"off"`` disables caching from either source — it never
    names a directory — and so does an empty environment value."""
    v = getattr(config, "compile_cache", None) or \
        os.environ.get("REPRO_CACHE_DIR")
    return None if v in (None, "", "off") else v


def open_cache(config) -> Optional["CompileCache"]:
    root = resolve_cache_dir(config)
    return CompileCache(root) if root else None


class CompileCache:
    """One process's view of a persistent compiled-code store."""

    def __init__(self, root: str) -> None:
        self.root = os.path.join(root, _SUBDIR)
        self.native_root = os.path.join(root, _NATIVE_SUBDIR)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt/unreadable entries dropped (subset of misses).
        self.errors = 0

    # ------------------------------------------------------------------
    def key(self, source: str, fingerprint: str) -> str:
        h = hashlib.sha256()
        h.update(f"format={FORMAT_VERSION};lowering={LOWERING_VERSION};"
                 f"py={_py_tag()};numpy={np.__version__}\n".encode())
        h.update(fingerprint.encode())
        h.update(b"\n")
        h.update(source.encode())
        return h.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # ------------------------------------------------------------------
    def load(self, source: str, fingerprint: str):
        """Stored code object for (source, fingerprint), or None."""
        path = self._path(self.key(source, fingerprint))
        try:
            with open(path, "rb") as f:
                entry = json.load(f)
            if (entry.get("format") != FORMAT_VERSION
                    or entry.get("lowering") != LOWERING_VERSION
                    or entry.get("py") != _py_tag()):
                raise ValueError("version skew")
            code = marshal.loads(base64.b64decode(entry["code"]))
            if not isinstance(code, types.CodeType):
                raise ValueError("entry payload is not a code object")
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:  # noqa: BLE001 - corrupt entry => miss
            self.misses += 1
            self.errors += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return code

    def store(self, source: str, fingerprint: str, code) -> None:
        """Persist ``code`` (best effort: IO errors never propagate)."""
        path = self._path(self.key(source, fingerprint))
        entry = {
            "format": FORMAT_VERSION,
            "lowering": LOWERING_VERSION,
            "py": _py_tag(),
            "numpy": np.__version__,
            "code": base64.b64encode(marshal.dumps(code)).decode("ascii"),
        }
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="ascii") as f:
                    json.dump(entry, f)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self.stores += 1

    # -- native kernel libraries ---------------------------------------
    # Compiled .so blobs for the native backend live beside the marshal
    # entries under ``native-so/``, keyed by the emitted C source + the
    # probed compiler identity (compiler + version + flags): a compiler
    # upgrade changes every key, so stale machine code is never served.
    # Each entry is ``<key>.so`` plus ``<key>.json`` metadata carrying
    # the blob's digest; a blob that does not match its metadata (torn
    # write, manual tampering) is treated as a miss and both files are
    # dropped.  Counters are shared with the marshal entries.

    def native_key(self, c_source: str, cc_identity: str) -> str:
        h = hashlib.sha256()
        h.update(f"native-format={NATIVE_FORMAT_VERSION};"
                 f"lowering={LOWERING_VERSION}\n".encode())
        h.update(cc_identity.encode())
        h.update(b"\n")
        h.update(c_source.encode())
        return h.hexdigest()

    def _native_paths(self, key: str) -> tuple:
        base = os.path.join(self.native_root, key[:2], key)
        return base + ".so", base + ".json"

    def load_native(self, c_source: str, cc_identity: str) -> Optional[str]:
        """Path of a verified cached .so for (C source, compiler), or
        None on miss/corruption (corrupt entries are unlinked)."""
        so_path, meta_path = self._native_paths(
            self.native_key(c_source, cc_identity))
        try:
            with open(meta_path, "rb") as f:
                meta = json.load(f)
            if (meta.get("format") != NATIVE_FORMAT_VERSION
                    or meta.get("cc") != cc_identity):
                raise ValueError("version skew")
            with open(so_path, "rb") as f:
                blob = f.read()
            if hashlib.sha256(blob).hexdigest() != meta.get("sha256"):
                raise ValueError("library digest mismatch")
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:  # noqa: BLE001 - corrupt entry => miss
            self.misses += 1
            self.errors += 1
            for p in (so_path, meta_path):
                try:
                    os.unlink(p)
                except OSError:
                    pass
            return None
        self.hits += 1
        return so_path

    def store_native(self, c_source: str, cc_identity: str,
                     blob: bytes) -> Optional[str]:
        """Persist a compiled .so; returns its path, or None when the
        cache directory is unwritable (best effort, like store)."""
        so_path, meta_path = self._native_paths(
            self.native_key(c_source, cc_identity))
        meta = {
            "format": NATIVE_FORMAT_VERSION,
            "cc": cc_identity,
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        try:
            d = os.path.dirname(so_path)
            os.makedirs(d, exist_ok=True)
            for path, data, mode in ((so_path, blob, "wb"),
                                     (meta_path, None, "w")):
                fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
                try:
                    with os.fdopen(fd, mode) as f:
                        if data is None:
                            json.dump(meta, f)
                        else:
                            f.write(data)
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
        except OSError:
            return None
        self.stores += 1
        return so_path

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "errors": self.errors}
