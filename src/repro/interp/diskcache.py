"""Disk-persistent cache of what a process builds before its first
gradient runs: the gradient IR and the compiled code.

Two entry families share one directory and one discipline (the native
tier's ``.so`` blobs, a third, are described beside their methods).

**Gradient IR** (``<root>/gradient-ir/``) sits above ``compile()``.  The
AD transform is the dearest stage of a cold process — several steady
gradient evaluations on LULESH — and, like Enzyme's, its output is a
function of the program alone.  An entry is the *printed gradient
function* with its function attrs and adjoint report, keyed by what the
transform reads: the printed primal closure (``print_closure``: the
function, every user function it calls, the intrinsics it calls), the
activity list, every ``ADConfig`` field, and a digest of the
``repro.ad`` / ``repro.passes`` / ``repro.ir`` sources — editing any of
them is the version bump.  It is never keyed by the gradient's own
text: a lookup costs one print of the small primal.  The text is
lossless (``tests/ad/test_gradient_roundtrip.py``), so a function
parsed back lowers to the same source as the one that was printed.
Beside the text an entry holds the gradient's callee names in order of
discovery (``callees``, what ``print_closure`` follows) and, once code
lowered from that text is stored, ``lowered_sha256``: the digest of the
text the compiled tier lowered, written into the entry by
:meth:`CompileCache.mark_lowered` (an atomic rewrite, not a store).

**Code objects** (``<root>/compiled-ir/``) sit above lowering.
Certifying bounds, lowering and running CPython's ``compile()`` over the
generated source of a large adjoint is everything a process does
between holding a function and being able to call it.  An entry is the
*marshaled code object* of the generated module — the ``_compiled``
generator function plus two literals the lowering appends: ``_CONSTS``,
the *recipe* of the constant table (positions in the function, never
objects, with a record of what the code reads of each op; see
:func:`repro.interp.lowering.resolve_consts`), and ``_STATS``, the
fusion counters.  It is keyed by everything that
determines it:

* the printed IR closure it was lowered from (``print_closure``: the
  function, every user function it calls, the called intrinsics'
  signatures and effects, argument attrs including ``extent``, function
  attrs — what ``certify_bounds`` and the lowerer read; it transitively
  encodes any ADConfig that shaped a gradient function);
* an ExecConfig fingerprint (see :func:`config_fingerprint`) and the
  fusion flag;
* a digest of the ``repro.interp`` / ``repro.passes`` / ``repro.ir``
  sources (:func:`sources_digest`) — the code that lowers it; editing
  any of them is the version bump, there is no number to remember;
* the cache :data:`FORMAT_VERSION`, the CPython version (``marshal``
  payloads are interpreter-specific) and the NumPy version.

The format version, source digest and CPython tag are in the entry as
well as in the key, beside a SHA-256 of the blob (code and recipe
together).

A warm process therefore prints and hashes the primal and reads the
stored gradient instead of differentiating.  When the entry is marked
as lowered (``lowered_sha256`` equals its ``sha256``) and the
``ADConfig`` asks for neither ``sanitize`` nor ``commcheck``, the
gradient stays *text*: only its header line is read
(:func:`repro.ir.parser.read_function` — signature, argument contracts
and attrs, which ``wrap_args`` checks), ``print_closure`` returns the
stored text and callee list, and the code entry addressed by that text
is unmarshaled with its recipe resolved to stand-ins built from the
records it carries.  No parse, no verify, no print of the gradient, no
``certify_bounds``, no lowering, no ``compile()``.  The body is parsed,
and verified under the ``ADConfig``, only when something reads it — a
code miss under another ``ExecConfig``, the interpreter, a message
naming a buffer.  Any other entry is parsed at load and checked
(verify, lint, commcheck) as today, so text edited after it was written
still fails at load; its code hit then marks it.  The code entry is
addressed by the exact IR text it was lowered from plus a digest of the
code that lowers it, so two processes that race different gradients
into the directory — or two checkouts that lower differently — can
never be served each other's code, and the mark is only ever a hint
that such code exists.  The bounds checks a hit elides are exactly
those ``certify_bounds`` certified on the storing side, under the same
IR text and the same ``repro.passes`` sources.  A recipe that does not
resolve against the live function (an op of another kind, or whose
recorded alloc space, element type or flags or call attrs differ) is a
corrupt entry like any other.
(The native tier's emitter has to run during lowering to produce its C
bindings, so ``backend="native"`` lowers on every compile and addresses
its marshal entry by the lowered source through the same ``load`` /
``store`` pair.)

Layout: ``<root>/<family>/<key[:2]>/<key>.json`` where ``key`` is the
SHA-256 hex digest of the components above.  Entries are JSON (the
marshal blob base64-encoded; blob and gradient text each beside their
own SHA-256), written atomically (temp file + ``os.replace``) so
concurrent processes never observe torn entries.  Any unreadable,
truncated, version-skewed, digest-mismatched, unparsable or otherwise
corrupt entry is treated as a miss, unlinked best-effort, counted in
``errors``, and rebuilt — the cache can never turn a working program
into a crash.

The directory is resolved per :class:`~repro.interp.interpreter.
ExecConfig`: ``compile_cache`` names it directly, ``"off"`` disables,
and ``None`` defers to the ``REPRO_CACHE_DIR`` environment variable
(no caching when unset, empty, or ``off``).  The executors open it for
code objects; whoever calls ``autodiff_transform(..., cache=)`` — both
app drivers do, with ``open_cache()`` of the same setting — opens it
for gradients.  With caching off nothing here runs: no print, no hash,
no file-system call.
"""

from __future__ import annotations

import base64
import functools
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

from ..ir.parser import parse_function, read_function
from ..ir.printer import callees

#: Bump when the on-disk entry layout changes.
FORMAT_VERSION = 3

#: Bump when the native .so entry layout changes.
NATIVE_FORMAT_VERSION = 1

#: Subdirectory under the user-chosen root, so a shared cache dir can
#: hold unrelated artifact families without collisions.
_SUBDIR = "compiled-ir"

#: Sibling subdirectory holding compiled native kernel libraries.
_NATIVE_SUBDIR = "native-so"

#: Bump when the gradient-IR entry layout changes.
GRADIENT_FORMAT_VERSION = 2

#: Attribute of a gradient ``Function`` object (not of its IR attrs)
#: naming the entry it was stored as or read from: ``(key, length of
#: its text)``.
_ENTRY_ATTR = "_gradient_entry"

#: Sibling subdirectory holding printed gradient functions.
_GRADIENT_SUBDIR = "gradient-ir"

#: Packages whose code decides what gradient a primal turns into (and
#: how its text reads back) ...
_GRADIENT_SOURCES = ("ad", "passes", "ir")

#: ... and what generated code a function turns into (bounds
#: certification, lowering, the helpers the code calls, how the IR
#: prints).
_CODE_SOURCES = ("interp", "passes", "ir")


def _py_tag() -> str:
    v = sys.version_info
    return f"cpython-{v.major}.{v.minor}"


def config_fingerprint(config) -> str:
    """Stable value-fingerprint of an ExecConfig (or ADConfig).

    Every dataclass field participates (conservative: some fields do
    not affect codegen today, but correctness never depends on keeping
    this list in sync with the lowering) except ``compile_cache``:
    where the cache lives is a deployment setting, not a codegen input,
    and a directory reached through the environment, or moved, must
    still serve its entries.  The machine model is folded in by class
    name + public numeric attributes.
    """
    parts = []
    for f in dataclass_fields(config):
        v = getattr(config, f.name)
        if f.name == "compile_cache":
            continue
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


@functools.lru_cache(maxsize=None)
def sources_digest(packages: tuple) -> str:
    """SHA-256 over every ``.py`` of the named ``repro`` sub-packages
    (path and content, in sorted order): the entries' stand-in for a
    hand-bumped version number.  Read once per process and family, and
    only by a process that has a cache directory configured."""
    pkg = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256()
    for sub in packages:
        for d, dirs, files in os.walk(os.path.join(pkg, sub)):
            dirs.sort()
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read() + b"\0")
    return h.hexdigest()


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
        self.gradient_root = os.path.join(root, _GRADIENT_SUBDIR)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt/unreadable entries dropped (subset of misses).
        self.errors = 0

    # ------------------------------------------------------------------
    def key(self, text: str, fingerprint: str) -> str:
        """Key of the code lowered from ``text`` under ``fingerprint``.

        ``text`` is :func:`repro.ir.printer.print_closure` of the
        function (the native tier passes its lowered source)."""
        h = hashlib.sha256()
        h.update(f"format={FORMAT_VERSION};"
                 f"sources={sources_digest(_CODE_SOURCES)};"
                 f"py={_py_tag()};numpy={np.__version__}\n".encode())
        h.update(fingerprint.encode())
        h.update(b"\n")
        h.update(text.encode())
        return h.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # ------------------------------------------------------------------
    def load(self, text: str, fingerprint: str):
        """Stored code object for (text, fingerprint), or None."""
        path = self._path(self.key(text, fingerprint))
        try:
            with open(path, "rb") as f:
                entry = json.load(f)
            if (entry.get("format") != FORMAT_VERSION
                    or entry.get("sources") != sources_digest(_CODE_SOURCES)
                    or entry.get("py") != _py_tag()):
                raise ValueError("version skew")
            blob = base64.b64decode(entry["code"])
            if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
                raise ValueError("code blob digest mismatch")
            code = marshal.loads(blob)
            if not isinstance(code, types.CodeType):
                raise ValueError("entry payload is not a code object")
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:  # noqa: BLE001 - corrupt entry => miss
            self._drop_corrupt(path)
            return None
        self.hits += 1
        return code

    def _drop_corrupt(self, *paths: str) -> None:
        """Count a corrupt entry (a miss and an error) and unlink its
        files, best effort."""
        self.misses += 1
        self.errors += 1
        for p in paths:
            try:
                os.unlink(p)
            except OSError:
                pass

    def reject(self, text: str, fingerprint: str) -> None:
        """Take back the hit :meth:`load` just counted: the caller found
        the code object unusable (its recipe does not resolve against
        the live function), so the entry is corrupt after all."""
        self.hits -= 1
        self._drop_corrupt(self._path(self.key(text, fingerprint)))

    def store(self, text: str, fingerprint: str, code) -> None:
        """Persist ``code`` (best effort: IO errors never propagate)."""
        blob = marshal.dumps(code)
        self._write_json(self._path(self.key(text, fingerprint)), {
            "format": FORMAT_VERSION,
            "sources": sources_digest(_CODE_SOURCES),
            "py": _py_tag(),
            "numpy": np.__version__,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "code": base64.b64encode(blob).decode("ascii"),
        })

    def _write_json(self, path: str, entry: dict,
                    count: bool = True) -> None:
        """Atomic best-effort write of one JSON entry (temp file +
        ``os.replace``); counts a store when it lands (and ``count``)."""
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
        self.stores += count

    # -- gradient IR ---------------------------------------------------
    # Printed gradient functions live under ``gradient-ir/``, keyed by
    # what the AD transform reads — never by what it writes, so a lookup
    # costs one print of the (small) primal.  An entry carries the
    # SHA-256 of its text; the format version and source digest are in
    # the key *and* the entry, so a skewed or hand-edited file is
    # dropped like any other corrupt one.

    def gradient_key(self, primal_text: str, activities: list,
                     config) -> str:
        """Key of the gradient of a primal under one ADConfig.

        ``primal_text`` is :func:`repro.ir.printer.print_closure` of the
        function; every ADConfig field participates
        (:func:`config_fingerprint`)."""
        h = hashlib.sha256()
        h.update(f"gradient-format={GRADIENT_FORMAT_VERSION};"
                 f"sources={sources_digest(_GRADIENT_SOURCES)}\n".encode())
        h.update(config_fingerprint(config).encode())
        h.update(f"\nactivities={list(activities)!r}\n".encode())
        h.update(primal_text.encode())
        return h.hexdigest()

    def _gradient_path(self, key: str) -> str:
        return os.path.join(self.gradient_root, key[:2], key + ".json")

    def load_gradient(self, key: str, module, name: str,
                      text_only: bool = False, check=None):
        """Read the stored gradient ``name`` into ``module``.

        Returns ``(function, adjoint_report)``, or None on a miss.  With
        ``text_only``, an entry marked as lowered (its
        ``lowered_sha256`` equals its ``sha256``: code lowered from this
        very text was stored, see :meth:`mark_lowered`) is read as its
        header alone (:func:`repro.ir.parser.read_function`): the body
        is parsed, and ``check(fn)`` run on it, only when something
        reads it.  Any other entry is parsed now, and ``check`` is the
        caller's to run.  Either way the function is tagged with the
        entry, for :meth:`mark_lowered`.  An entry that does not read,
        verify against its digest or parse back is unlinked and counted
        in ``errors``; ``module`` is left without a function ``name``
        in that case."""
        path = self._gradient_path(key)
        known = set(module.functions)
        try:
            with open(path, "rb") as f:
                entry = json.load(f)
            if (entry.get("format") != GRADIENT_FORMAT_VERSION
                    or entry.get("sources")
                    != sources_digest(_GRADIENT_SOURCES)):
                raise ValueError("version skew")
            text, digest = entry["text"], entry["sha256"]
            if hashlib.sha256(text.encode()).hexdigest() != digest:
                raise ValueError("gradient text digest mismatch")
            names = entry["callees"]
            if not all(isinstance(c, str) for c in names):
                raise ValueError("callee list holds a non-name")
            if text_only and entry.get("lowered_sha256") == digest:
                fn = read_function(text, module, names, check)
            else:
                fn = parse_function(text, module)
            if fn.name != name:
                raise ValueError(f"entry holds {fn.name!r}, not {name!r}")
            fn.attrs.update(entry["attrs"])
            report = entry["report"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:  # noqa: BLE001 - corrupt entry => miss
            for added in set(module.functions) - known:
                del module.functions[added]
            self._drop_corrupt(path)
            return None
        self.hits += 1
        setattr(fn, _ENTRY_ATTR, (key, len(text)))
        return fn, report

    def store_gradient(self, key: str, fn, text: str,
                       report: dict) -> None:
        """Persist the gradient ``fn``, printed as ``text``, with its
        function attrs, callee list and adjoint report (best effort,
        like :meth:`store`), and tag ``fn`` with the entry."""
        self._write_json(self._gradient_path(key), {
            "format": GRADIENT_FORMAT_VERSION,
            "sources": sources_digest(_GRADIENT_SOURCES),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "text": text,
            "attrs": fn.attrs,
            "callees": callees(fn),
            "report": report,
        })
        setattr(fn, _ENTRY_ATTR, (key, len(text)))

    def mark_lowered(self, fn, text: str) -> None:
        """Record, in the gradient entry ``fn`` is tagged with, that code
        lowered from its text is now stored: ``lowered_sha256`` becomes
        the digest of the text the code was keyed on (``text``, the
        closure, starts with the function's own).  The entry is
        rewritten in place, and only when it still holds that text — a
        rewrite is not a store and adds no file.  Best effort; a
        function without a tag has nothing to mark."""
        tag = getattr(fn, _ENTRY_ATTR, None)
        if tag is None:
            return
        key, size = tag
        digest = hashlib.sha256(text[:size].encode()).hexdigest()
        path = self._gradient_path(key)
        try:
            with open(path, "rb") as f:
                entry = json.load(f)
        except (OSError, ValueError):
            return
        if (entry.get("sha256") != digest
                or entry.get("lowered_sha256") == digest):
            return
        entry["lowered_sha256"] = digest
        self._write_json(path, entry, count=False)

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
        h.update(f"native-format={NATIVE_FORMAT_VERSION}\n".encode())
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
            self._drop_corrupt(so_path, meta_path)
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
