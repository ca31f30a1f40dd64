"""Native codegen tier: C kernels behind ``ExecConfig(backend="native")``.

The compiled backend (:mod:`repro.interp.compile`) already isolates the
hot kernels statically: trace fusion collapses single-use elementwise
chains into one generated NumPy expression, vector accesses affine in
the lane are slices (no kernel to claim), and scalar-target reductions
are open-coded ordered folds.  This module adds a third tier that emits C
source for exactly those kernels, compiles it with the system C
compiler into one shared object per function, and calls the machine
code in place of the NumPy expression — operating in-place on the same
NumPy buffers, with the same simulated clock and cost accounting (cost
is aggregated statically by the lowering, so *how* a value is computed
never changes what is charged).

Claim/fallback contract (bit-identity is non-negotiable):

* the emitter only *claims* an expression when every operation in it
  has a C rendering that is IEEE-754 identical to the NumPy kernel the
  compiled backend would run: ``+ - * /``, ``fma`` as ``a*b+c`` (built
  with ``-ffp-contract=off``), ``abs``/``neg``, ``sqrt``/``floor``
  (correctly rounded by both), ``min``/``max`` via NumPy's exact
  NaN/ordering formulation, float comparisons, boolean logic, and
  ``select`` as a ternary.  Transcendentals, ``pow``, integer
  arithmetic and casts are never claimed — NumPy's SIMD routines make
  no bit-exactness promise against libm there.
* every claimed call site keeps its generated-NumPy expression as an
  inline guard: the kernel wrapper re-checks dtype/shape/contiguity at
  runtime and returns ``None`` when the buffers do not match the static
  expectation, in which case the original expression runs instead.
* a function with no claimable kernels, a C compile failure, a missing
  toolchain, or a missing FFI module all degrade to the plain compiled
  backend — per function or for the whole tier — with the reason
  recorded in ``compile_stats()["native"]``.

Compiled shared objects are cached two ways: an in-process memo keyed
by (compiler identity, C source digest), and — when a disk cache is
configured — ``.so`` blobs stored by :class:`~repro.interp.diskcache.
CompileCache` next to the marshal entries, keyed by emitted C +
compiler identity so a compiler upgrade can never serve stale code.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..ir.types import F64, I1
from ..ir.values import Constant
from .memory import Memory
from .compile import (
    CompiledBackend,
    compile_function,
    _at as _py_at,
    _ld as _py_ld,
    _st as _py_st,
)

try:  # pragma: no cover - exercised via the ctypes fallback tests
    import cffi
except ImportError:  # pragma: no cover
    cffi = None

#: Minimum fused compute ops before a claim pays for the FFI call.
#: A single C pass replaces one NumPy temporary + dispatch per fused
#: op, and with the direct ``from_buffer`` bindings the call overhead
#: sits below two NumPy ops at every chunk width the apps run
#: (measured: 2-op claims are a wash-to-win at width 8 and win
#: outright from width 64 up; 1-op claims lose to the single ufunc).
NATIVE_MIN_OPS = 2

#: Cap on one kernel expression's C text.
NATIVE_CHAR_CAP = 4000

#: Compile flags: position-independent shared object, optimization ON,
#: but every value-changing shortcut OFF — no fast-math, no FMA
#: contraction — so the machine code performs exactly the roundings the
#: NumPy expression performs.
CFLAGS = ("-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")

_DEFAULT_CANDIDATES = ("cc", "gcc", "clang")

_F8 = np.dtype(np.float64)
_B1 = np.dtype(np.bool_)
_I8 = np.dtype(np.int64)


class NativeBuildError(Exception):
    """C toolchain failed on emitter-generated source (a codegen bug or
    a broken compiler — either way the caller falls back to the
    generated-NumPy path unless strict)."""


# ---------------------------------------------------------------------------
# Toolchain probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Toolchain:
    """One usable C compiler (probed by actually building a .so)."""

    cc: str
    version: str
    flags: tuple = CFLAGS

    @property
    def identity(self) -> str:
        """Cache-key component: compiler + version + flags.  A compiler
        upgrade changes this string and therefore every .so cache key."""
        return f"{self.cc} {self.version} [{' '.join(self.flags)}]"


_PROBE_MEMO: dict = {}

_PROBE_SRC = "double repro_probe(double x) { return x + 1.0; }\n"


def _try_cc(cand: str) -> Optional[Toolchain]:
    with tempfile.TemporaryDirectory(prefix="repro-ccprobe-") as td:
        src = os.path.join(td, "probe.c")
        out = os.path.join(td, "probe.so")
        with open(src, "w") as f:
            f.write(_PROBE_SRC)
        try:
            r = subprocess.run([cand, *CFLAGS, src, "-o", out, "-lm"],
                               capture_output=True, timeout=120)
        except (OSError, subprocess.TimeoutExpired, ValueError):
            return None
        if r.returncode != 0 or not os.path.exists(out):
            return None
        version = "unknown"
        try:
            v = subprocess.run([cand, "--version"], capture_output=True,
                               timeout=60, text=True)
            first = (v.stdout or v.stderr or "").splitlines()
            if v.returncode == 0 and first:
                version = first[0].strip()
        except (OSError, subprocess.TimeoutExpired, ValueError):
            pass
    return Toolchain(cand, version)


def probe_toolchain(cc: Optional[str] = None) -> Optional[Toolchain]:
    """Find a working C compiler, or None.

    An explicit request (``cc`` argument, else the ``CC`` environment
    variable) probes *only* that command — so ``CC=/nonexistent`` is a
    deterministic way to force the no-compiler fallback.  Otherwise the
    conventional candidates are tried in order.  Results (including
    failures) are memoized per process.
    """
    want = cc or os.environ.get("CC") or ""
    if want in _PROBE_MEMO:
        return _PROBE_MEMO[want]
    tc = None
    for cand in ((want,) if want else _DEFAULT_CANDIDATES):
        tc = _try_cc(cand)
        if tc is not None:
            break
    _PROBE_MEMO[want] = tc
    return tc


# ---------------------------------------------------------------------------
# C expressions
# ---------------------------------------------------------------------------

class CExpr:
    """A claimable C rendering of one fused SSA subtree.

    ``text`` is the C expression with the *Python local names* still
    embedded as identifiers (they are all ``v<N>``, valid in C);
    ``leaves`` maps each embedded name to its parameter kind:
    ``"vd"`` varying f64 array, ``"ud"`` uniform f64 scalar, ``"vb"``
    varying bool array, ``"ub"`` uniform bool scalar.  ``ctype`` is the
    expression's own type (``"d"`` double / ``"b"`` boolean) and
    ``nops`` counts the compute ops folded in.
    """

    __slots__ = ("text", "leaves", "ctype", "nops")

    def __init__(self, text: str, leaves: dict, ctype: str,
                 nops: int) -> None:
        self.text = text
        self.leaves = leaves
        self.ctype = ctype
        self.nops = nops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CExpr({self.text!r}, {self.leaves}, {self.ctype}, {self.nops})"


#: f64-valued opcodes -> C template.  min/max use NumPy's exact loop
#: formulation ``(a < b || a != a) ? a : b`` (propagates NaN from
#: either side, returns *b* on equality — including signed zeros).
_C_FLOAT_TEMPLATES = {
    "add": "({a} + {b})",
    "sub": "({a} - {b})",
    "mul": "({a} * {b})",
    "div": "({a} / {b})",
    "fma": "({a} * {b} + {c})",
    "min": "_rmin({a}, {b})",
    "max": "_rmax({a}, {b})",
    "neg": "(-{a})",
    "abs": "fabs({a})",
    "sqrt": "sqrt({a})",
    "floor": "floor({a})",
}

#: bool-valued opcodes over bool operands.  C's short-circuit is
#: unobservable here: operand *values* are already fully computed.
_C_BOOL_TEMPLATES = {
    "and": "({a} && {b})",
    "or": "({a} || {b})",
    "xor": "({a} != {b})",
    "not": "(!{a})",
}

_C_CMP = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=",
          "eq": "==", "ne": "!="}

#: The fixed runtime kernels every generated library carries, plus the
#:  min/max helpers (kept bit-exact to np.minimum/np.maximum).
_C_PRELUDE = """\
#include <math.h>

static double _rmin(double a, double b) {
    return (a < b || a != a) ? a : b;
}
static double _rmax(double a, double b) {
    return (a > b || a != a) ? a : b;
}

double repro_fold_add(double cur, const double* v, long long n) {
    long long i;
    for (i = 0; i < n; i++) cur = cur + v[i];
    return cur;
}
double repro_fold_min(double cur, const double* v, long long n) {
    long long i;
    for (i = 0; i < n; i++) cur = _rmin(cur, v[i]);
    return cur;
}
double repro_fold_max(double cur, const double* v, long long n) {
    long long i;
    for (i = 0; i < n; i++) cur = _rmax(cur, v[i]);
    return cur;
}

/* Bounds-checked runtime helpers backing the generic _ld/_st/_at
 * paths.  Each returns the first out-of-bounds lane (so the caller
 * can fall back to the Python path, which raises the interpreter's
 * exact error) or -1 on success; the check pass runs to completion
 * BEFORE any mutation so a failed claim leaves no partial writes. */
static long long _rchk(long long off, const long long* x, long long n,
                       long long dlen) {
    long long i, j;
    for (i = 0; i < n; i++) {
        j = off + x[i];
        if (j < 0 || j >= dlen) return i;
    }
    return -1;
}
long long repro_gather_bc(const double* d, long long dlen, long long off,
                          const long long* x, double* out, long long n) {
    long long i, bad = _rchk(off, x, n, dlen);
    if (bad >= 0) return bad;
    for (i = 0; i < n; i++) out[i] = d[off + x[i]];
    return -1;
}
long long repro_scatter_bc(double* d, long long dlen, long long off,
                           const long long* x, const double* v,
                           long long n) {
    long long i, bad = _rchk(off, x, n, dlen);
    if (bad >= 0) return bad;
    for (i = 0; i < n; i++) d[off + x[i]] = v[i];  /* in order: last wins */
    return -1;
}
long long repro_scatter_fill(double* d, long long dlen, long long off,
                             const long long* x, double v, long long n) {
    long long i, bad = _rchk(off, x, n, dlen);
    if (bad >= 0) return bad;
    for (i = 0; i < n; i++) d[off + x[i]] = v;
    return -1;
}
/* Sequential read-modify-write folds: lane order matches ufunc.at's
 * unbuffered in-order application, so duplicate indices accumulate
 * with bit-identical rounding. */
long long repro_scatter_fold_add(double* d, long long dlen, long long off,
                                 const long long* x, const double* v,
                                 long long n) {
    long long i, j, bad = _rchk(off, x, n, dlen);
    if (bad >= 0) return bad;
    for (i = 0; i < n; i++) { j = off + x[i]; d[j] = d[j] + v[i]; }
    return -1;
}
long long repro_scatter_fold_min(double* d, long long dlen, long long off,
                                 const long long* x, const double* v,
                                 long long n) {
    long long i, j, bad = _rchk(off, x, n, dlen);
    if (bad >= 0) return bad;
    for (i = 0; i < n; i++) { j = off + x[i]; d[j] = _rmin(d[j], v[i]); }
    return -1;
}
long long repro_scatter_fold_max(double* d, long long dlen, long long off,
                                 const long long* x, const double* v,
                                 long long n) {
    long long i, j, bad = _rchk(off, x, n, dlen);
    if (bad >= 0) return bad;
    for (i = 0; i < n; i++) { j = off + x[i]; d[j] = _rmax(d[j], v[i]); }
    return -1;
}
"""

#: Generated-code global names for the fixed runtime kernels.
_FOLD_NAMES = {"add": "_nfadd", "min": "_nfmin", "max": "_nfmax"}
_FOLD_SYMS = {"_nfadd": "repro_fold_add", "_nfmin": "repro_fold_min",
              "_nfmax": "repro_fold_max"}
#: Bounds-checked helper symbols (back the _ld/_st/_at overrides; not
#: referenced by generated source, so they have no global name).
_HELPER_SYMS = {
    "gather_bc": "repro_gather_bc",
    "scatter_bc": "repro_scatter_bc",
    "scatter_fill": "repro_scatter_fill",
    "sfold_add": "repro_scatter_fold_add",
    "sfold_min": "repro_scatter_fold_min",
    "sfold_max": "repro_scatter_fold_max",
}


class NativeStats:
    """Counters describing one function's native lowering (summed
    across functions in ``compile_stats()``)."""

    __slots__ = ("kernels", "claimed", "claimed_ops", "folds",
                 "claims_proven", "claims_unproven", "compile_seconds",
                 "so_cached")

    def __init__(self) -> None:
        #: Distinct C kernels emitted for this function.
        self.kernels = 0
        #: Claimed call sites (several sites may share one kernel).
        self.claimed = 0
        #: Compute ops covered by claimed sites.
        self.claimed_ops = 0
        #: Reduction-fold sites routed natively.
        self.folds = 0
        #: Fold claims split by the interval analysis: bounds-certified
        #: sites reach the C helper with no bounds check on any layer;
        #: unproven sites keep the generated-Python check in front of
        #: the same helper.
        self.claims_proven = 0
        self.claims_unproven = 0
        #: Seconds spent in the C compiler (0.0 when cache-served).
        self.compile_seconds = 0.0
        self.so_cached = False

    @property
    def used(self) -> bool:
        return bool(self.claimed or self.folds)

    def merge(self, other: "NativeStats") -> None:
        self.kernels += other.kernels
        self.claimed += other.claimed
        self.claimed_ops += other.claimed_ops
        self.folds += other.folds
        self.claims_proven += other.claims_proven
        self.claims_unproven += other.claims_unproven
        self.compile_seconds += other.compile_seconds
        self.so_cached = self.so_cached or other.so_cached

    def as_dict(self) -> dict:
        out = {s: getattr(self, s) for s in NativeStats.__slots__}
        out["compile_seconds"] = round(out["compile_seconds"], 4)
        return out


# ---------------------------------------------------------------------------
# Emitter
# ---------------------------------------------------------------------------

class NativeEmitter:
    """Collects claimable kernels during one function's lowering, then
    builds the shared object and the generated-code bindings."""

    def __init__(self, toolchain: Toolchain,
                 min_ops: Optional[int] = None) -> None:
        self.toolchain = toolchain
        self.min_ops = NATIVE_MIN_OPS if min_ops is None else min_ops
        #: (normalized C text, kinds tuple) -> (global name, arg kinds).
        self._kernels: dict = {}
        self.stats = NativeStats()

    # -- expression composition ----------------------------------------
    def const_cexpr(self, c: Constant) -> Optional[CExpr]:
        v = c.value
        if isinstance(v, bool):
            return CExpr("1" if v else "0", {}, "b", 0)
        if isinstance(v, (int, float)):
            try:
                f = float(v)
            except OverflowError:
                return None
            if v != f or not np.isfinite(f):
                return None
            r = repr(f)
            # C has no negative literals; parenthesize so a unary-minus
            # template never forms the `--` token.
            return CExpr(f"({r})" if f < 0 else r, {}, "d", 0)
        return None

    def _leaf(self, lo, v) -> Optional[CExpr]:
        """CExpr for one operand: a constant literal, the operand's own
        pending CExpr (consumed), or a leaf on its materialized local."""
        if type(v) is Constant:
            return self.const_cexpr(v)
        c = lo.cpend.pop(v, None)
        if c is not None:
            return c
        name = lo.names.get(v)
        if name is None:
            return None  # pending python-only chain: not claimable
        t = getattr(v, "type", None)
        vr = lo.variance(v)
        if t is F64:
            kind = "vd" if vr is True else ("ud" if vr is False else None)
            ctype = "d"
        elif t is I1:
            kind = "vb" if vr is True else ("ub" if vr is False else None)
            ctype = "b"
        else:
            return None
        if kind is None:
            return None
        return CExpr(name, {name: kind}, ctype, 0)

    def _merge(self, ctype: str, text: str, parts) -> Optional[CExpr]:
        leaves: dict = {}
        nops = 1
        for p in parts:
            nops += p.nops
            leaves.update(p.leaves)
        if nops > NATIVE_CHAR_CAP or len(text) > NATIVE_CHAR_CAP:
            return None
        return CExpr(text, leaves, ctype, nops)

    def compose(self, op, lo) -> Optional[CExpr]:
        """CExpr for ``op`` applied to its operands, or None when any
        part has no bit-identical C rendering.  Bails *before* touching
        operand state when the opcode itself is unsupported."""
        oc = op.opcode
        if oc == "cmp":
            a = self._leaf(lo, op.operands[0])
            if a is None or a.ctype != "d":
                return None
            b = self._leaf(lo, op.operands[1])
            if b is None or b.ctype != "d":
                return None
            text = f"({a.text} {_C_CMP[op.attrs['pred']]} {b.text})"
            return self._merge("b", text, (a, b))
        if oc == "select":
            # Only the varying-condition form (np.where) is claimed;
            # uniform conditions lower to a Python conditional whose
            # untaken arm is never evaluated.
            if lo.variance(op.operands[0]) is not True:
                return None
            c = self._leaf(lo, op.operands[0])
            if c is None or c.ctype != "b":
                return None
            a = self._leaf(lo, op.operands[1])
            if a is None or a.ctype != "d":
                return None
            b = self._leaf(lo, op.operands[2])
            if b is None or b.ctype != "d":
                return None
            text = f"({c.text} ? {a.text} : {b.text})"
            return self._merge("d", text, (c, a, b))
        tmpl = _C_FLOAT_TEMPLATES.get(oc)
        want = "d"
        if tmpl is None:
            tmpl = _C_BOOL_TEMPLATES.get(oc)
            want = "b"
            if tmpl is None:
                return None
        parts = []
        for v in op.operands:
            p = self._leaf(lo, v)
            if p is None or p.ctype != want:
                return None
            parts.append(p)
        text = tmpl.format(a=parts[0].text,
                           b=parts[1].text if len(parts) > 1 else "",
                           c=parts[2].text if len(parts) > 2 else "")
        return self._merge(want, text, parts)

    def worthwhile(self, c: Optional[CExpr]) -> bool:
        """Claim only f64 results big enough to amortize the FFI call,
        with at least one varying leaf (else it is scalar math)."""
        return (c is not None and c.ctype == "d"
                and c.nops >= self.min_ops
                and any(k in ("vd", "vb") for k in c.leaves.values()))

    # -- kernel registry -----------------------------------------------
    def kernel_for(self, c: CExpr) -> tuple[str, list[str]]:
        """(generated-code global name, argument locals) for ``c``,
        deduplicating kernels by leaf-normalized C text."""
        leaves = list(c.leaves.items())
        text = c.text
        for i, (nm, kind) in enumerate(leaves):
            acc = f"p{i}[i]" if kind in ("vd", "vb") else f"p{i}"
            text = re.sub(rf"\b{nm}\b", acc, text)
        kinds = tuple(kind for _, kind in leaves)
        key = (text, kinds)
        gname = self._kernels.get(key)
        if gname is None:
            gname = f"_nk{len(self._kernels)}"
            self._kernels[key] = gname
            self.stats.kernels += 1
        self.stats.claimed += 1
        self.stats.claimed_ops += c.nops
        return gname, [nm for nm, _ in leaves]

    def fold_name(self, kind: str, proven: bool = False) -> str:
        self.stats.folds += 1
        if proven:
            self.stats.claims_proven += 1
        else:
            self.stats.claims_unproven += 1
        return _FOLD_NAMES[kind]

    # -- C source ------------------------------------------------------
    def c_source(self) -> str:
        parts = [_C_PRELUDE]
        decls = {"vd": "const double* p{i}", "ud": "double p{i}",
                 "vb": "const unsigned char* p{i}", "ub": "int p{i}"}
        for (text, kinds), gname in self._kernels.items():
            params = "".join(
                ", " + decls[k].format(i=i) for i, k in enumerate(kinds))
            parts.append(
                f"void repro{gname}(long long n, double* out{params}) {{\n"
                f"    long long i;\n"
                f"    for (i = 0; i < n; i++) out[i] = {text};\n"
                f"}}\n")
        return "\n".join(parts)

    # -- build ---------------------------------------------------------
    def build(self, cache=None) -> dict:
        """Compile (or cache-load) the kernels; returns the globals the
        generated Python source references plus the ``_ld``/``_st``/
        ``_at`` helper overrides (claimed
        dynamically at run time, so they ship even when no expression
        kernel was claimed — every kernel-free function shares one
        prelude-only library through the memo).  Raises
        :class:`NativeBuildError` on compiler failure."""
        source = self.c_source()
        kernels = [(gname, kinds)
                   for (text, kinds), gname in self._kernels.items()]
        bindings, cached = _load_bindings(source, kernels, self.toolchain,
                                          cache, self.stats)
        self.stats.so_cached = cached
        return bindings


# ---------------------------------------------------------------------------
# Library build + FFI loading
# ---------------------------------------------------------------------------

#: (toolchain identity, source digest) -> bindings dict.  Keeps the
#: loaded libraries (referenced by the wrappers) alive for the process.
_LIB_MEMO: dict = {}

#: Library handles (and their FFI instances).  The raw cdata function
#: pointers held by the wrappers do NOT keep the shared object mapped;
#: without this anchor the GC would dlclose it and later calls through
#: the memoized pointers would fault.  Entries live for the process,
#: matching ``_LIB_MEMO`` (which never evicts either).
_LIB_KEEPALIVE: list = []


def _compile_so(source: str, toolchain: Toolchain, stats) -> bytes:
    """Run the C compiler over ``source``; returns the .so bytes."""
    with tempfile.TemporaryDirectory(prefix="repro-native-") as td:
        src = os.path.join(td, "kernels.c")
        out = os.path.join(td, "kernels.so")
        with open(src, "w") as f:
            f.write(source)
        t0 = time.perf_counter()
        try:
            r = subprocess.run(
                [toolchain.cc, *toolchain.flags, src, "-o", out, "-lm"],
                capture_output=True, timeout=300, text=True)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise NativeBuildError(f"{toolchain.cc} failed: {e}") from e
        stats.compile_seconds += time.perf_counter() - t0
        if r.returncode != 0 or not os.path.exists(out):
            tail = (r.stderr or "").strip().splitlines()[-3:]
            raise NativeBuildError(
                f"{toolchain.cc} exited {r.returncode}: "
                f"{' | '.join(tail) or 'no diagnostics'}")
        with open(out, "rb") as f:
            return f.read()


def _load_bindings(source: str, kernels, toolchain: Toolchain, cache,
                   stats) -> tuple[dict, bool]:
    """Bindings for ``source``, via (in order) the in-process memo, the
    disk cache, or a fresh compile.  Returns ``(bindings, cached)``."""
    digest = hashlib.sha256(source.encode()).hexdigest()
    memo_key = (toolchain.identity, digest)
    hit = _LIB_MEMO.get(memo_key)
    if hit is not None:
        return hit, True
    path = None
    if cache is not None:
        path = cache.load_native(source, toolchain.identity)
    if path is not None:
        bindings = _dlopen_bindings(path, kernels)
        _LIB_MEMO[memo_key] = bindings
        return bindings, True
    blob = _compile_so(source, toolchain, stats)
    if cache is not None:
        path = cache.store_native(source, toolchain.identity, blob)
    if path is None:
        # No (writable) disk cache: load from a scratch file.  Deleting
        # the file after dlopen is fine on every platform we target.
        with tempfile.TemporaryDirectory(prefix="repro-native-") as td:
            path = os.path.join(td, "kernels.so")
            with open(path, "wb") as f:
                f.write(blob)
            bindings = _dlopen_bindings(path, kernels)
    else:
        bindings = _dlopen_bindings(path, kernels)
    _LIB_MEMO[memo_key] = bindings
    return bindings, False


def _dlopen_bindings(path: str, kernels) -> dict:
    """Load the shared object and wrap every kernel for generated code.

    Prefers cffi (ABI mode: ~3x lower call overhead); falls back to
    ctypes, which is always available.  Both paths share the wrapper
    codegen below through a common ``(raw fn, buffer-address fn)``
    surface.
    """
    if cffi is not None:
        ffi = cffi.FFI()
        decls = ["double repro_fold_add(double, void*, long long);",
                 "double repro_fold_min(double, void*, long long);",
                 "double repro_fold_max(double, void*, long long);",
                 "long long repro_gather_bc(void*, long long, long long,"
                 " void*, void*, long long);",
                 "long long repro_scatter_bc(void*, long long, long long,"
                 " void*, void*, long long);",
                 "long long repro_scatter_fill(void*, long long, long long,"
                 " void*, double, long long);",
                 "long long repro_scatter_fold_add(void*, long long,"
                 " long long, void*, void*, long long);",
                 "long long repro_scatter_fold_min(void*, long long,"
                 " long long, void*, void*, long long);",
                 "long long repro_scatter_fold_max(void*, long long,"
                 " long long, void*, void*, long long);"]
        for gname, kinds in kernels:
            params = "".join(
                ", " + ("void*" if k in ("vd", "vb") else
                        "double" if k == "ud" else "int")
                for k in kinds)
            decls.append(f"void repro{gname}(long long, void*{params});")
        ffi.cdef("\n".join(decls))
        lib = ffi.dlopen(path)
        # ``ffi.from_buffer`` goes through a Python-level api wrapper;
        # binding the backend builtin with a cached char[] ctype skips
        # it.  Buffer exports dominate small-kernel call cost, so the
        # saving is per C call, not per compile.
        try:
            import _cffi_backend
            _bt = ffi.typeof("char[]")
            fb = functools.partial(_cffi_backend.from_buffer, _bt)

            def fb_w(a, _fb=_cffi_backend.from_buffer, _t=_bt):
                return _fb(_t, a, True)  # require_writable
        except (ImportError, AttributeError):  # pragma: no cover
            fb = ffi.from_buffer

            def fb_w(a, _fb=ffi.from_buffer):
                return _fb(a, require_writable=True)
        raw = {name: getattr(lib, sym) for name, sym in _FOLD_SYMS.items()}
        for name, sym in _HELPER_SYMS.items():
            raw[name] = getattr(lib, sym)
        for gname, _ in kernels:
            raw[gname] = getattr(lib, "repro" + gname)
        _LIB_KEEPALIVE.append((ffi, lib))
    else:  # pragma: no cover - environments without cffi
        import ctypes
        lib = ctypes.CDLL(path)
        c_ll, c_d, c_i, c_p = (ctypes.c_longlong, ctypes.c_double,
                               ctypes.c_int, ctypes.c_void_p)
        raw = {}
        for name, sym in _FOLD_SYMS.items():
            fn = getattr(lib, sym)
            fn.restype = c_d
            fn.argtypes = [c_d, c_p, c_ll]
            raw[name] = fn
        for name, sym in _HELPER_SYMS.items():
            fn = getattr(lib, sym)
            fn.restype = c_ll
            fn.argtypes = [c_p, c_ll, c_ll, c_p,
                           c_d if name == "scatter_fill" else c_p, c_ll]
            raw[name] = fn
        for gname, kinds in kernels:
            fn = getattr(lib, "repro" + gname)
            fn.restype = None
            fn.argtypes = [c_ll, c_p] + [
                c_p if k in ("vd", "vb") else c_d if k == "ud" else c_i
                for k in kinds]
            raw[gname] = fn

        def fb(a, _c=ctypes.c_void_p):
            if not a.flags.c_contiguous:
                raise BufferError("not C-contiguous")
            return _c(a.ctypes.data)

        def fb_w(a, _c=ctypes.c_void_p):
            f = a.flags
            if not f.c_contiguous or not f.writeable:
                raise BufferError("not writable C-contiguous")
            return _c(a.ctypes.data)

        _LIB_KEEPALIVE.append((lib,))

    bindings = {}
    for gname, kinds in kernels:
        bindings[gname] = _make_expr_wrapper(gname, kinds, raw[gname], fb)
    for name in _FOLD_SYMS:
        bindings[name] = _FoldKernel(raw[name], fb)
    bindings.update(_make_helper_overrides(raw, fb, fb_w))
    return bindings


#: Exceptions that mean "buffer does not match the static claim": the
#: wrapper returns None and the generated NumPy fallback runs.
_CLAIM_ERRORS = (BufferError, ValueError, TypeError)


def _make_expr_wrapper(gname: str, kinds, fn, fb):
    """Build the per-kernel claim wrapper with a generated (specialized)
    argument check — no per-call loop over kinds."""
    params = [f"a{i}" for i in range(len(kinds))]
    lines = [f"def {gname}(n, {', '.join(params)}):"
             if params else f"def {gname}(n):"]
    for p, k in zip(params, kinds):
        if k == "vd":
            lines.append(f"    if type({p}) is not _nd or {p}.dtype is not "
                         f"_F8 or {p}.size != n: return None")
        elif k == "vb":
            lines.append(f"    if type({p}) is not _nd or {p}.dtype is not "
                         f"_B1 or {p}.size != n: return None")
        else:
            lines.append(f"    if type({p}) is _nd: return None")
    args = "".join(
        ", " + (f"_fb({p})" if k in ("vd", "vb") else p)
        for p, k in zip(params, kinds))
    lines += ["    out = _empty(n)",
              f"    try: _fn(n, _fb(out){args})",
              "    except _ERRS: return None",
              "    return out"]
    globs = {"_nd": np.ndarray, "_F8": _F8, "_B1": _B1,
             "_empty": np.empty, "_fb": fb, "_fn": fn,
             "_ERRS": _CLAIM_ERRORS}
    exec("\n".join(lines), globs)  # noqa: S102 - own codegen
    return globs[gname]


class _FoldKernel:
    """Ordered sequential fold ``data[x] op= v`` (identical to the
    ``ufunc.accumulate`` the compiled backend open-codes)."""

    __slots__ = ("fn", "fb")

    def __init__(self, fn, fb) -> None:
        self.fn = fn
        self.fb = fb

    def __call__(self, data, x, v):
        if data.dtype is not _F8 or v.dtype is not _F8:
            return None
        try:
            return self.fn(float(data[x]), self.fb(v), v.size)
        except _CLAIM_ERRORS:
            return None


def _make_helper_overrides(raw, fb, fb_w) -> dict:
    """Native-accelerated replacements for the generic ``_ld``/``_st``/
    ``_at`` runtime helpers (the generated code's global names — the
    bindings dict shadows :mod:`.compile`'s versions at exec time).

    Each override claims the hot vector shapes — float64 data, 1-D
    int64 index, integer pointer offset — with the bounds check folded
    into the same C call that moves the data, and delegates every other
    shape (and every failed claim, including out-of-bounds, which the
    Python path re-detects and raises exactly) to the original helper.
    Cost accounting matches the originals line for line.
    """
    gbc = raw["gather_bc"]
    sbc = raw["scatter_bc"]
    sfill = raw["scatter_fill"]
    sfold = {"add": raw["sfold_add"], "min": raw["sfold_min"],
             "max": raw["sfold_max"]}
    fold = {kind: raw[name] for kind, name in _FOLD_NAMES.items()}
    _nda = np.ndarray
    _empty = np.empty

    def _ld(rt, ptr, idx):
        if type(idx) is not _nda:
            # Scalar fast path, inlined from compile._ld (an extra
            # delegating frame here costs ~0.2us on the adjoint
            # sweeps' hottest call).
            off = ptr.offset
            if type(off) is _nda:
                return _py_ld(rt, ptr, idx)
            buf = ptr.buffer
            if buf.freed:
                buf.check_alive()
            at = off + idx
            data = buf.data
            if at < 0 or at >= len(data):
                Memory._check_bounds(buf, at)
            c = rt.cost
            if buf.stream:
                c.stream_bytes += 8
            else:
                c.load_bytes += 8
            return data[at]
        buf = ptr.buffer
        off = ptr.offset
        data = buf.data
        n = idx.size
        if (buf.freed or type(off) is not int or idx.dtype is not _I8
                or idx.ndim != 1 or data.dtype is not _F8 or n == 0):
            return _py_ld(rt, ptr, idx)
        out = _empty(n)
        try:
            bad = gbc(fb(data), data.size, off, fb(idx), fb_w(out), n)
        except _CLAIM_ERRORS:
            return _py_ld(rt, ptr, idx)
        if bad >= 0:
            return _py_ld(rt, ptr, idx)
        c = rt.cost
        if buf.stream:
            c.stream_bytes += n * 8
        else:
            c.load_bytes += n * 8
        return out

    def _st(rt, val, ptr, idx):
        if type(idx) is not _nda:
            if type(val) is _nda or type(ptr.offset) is _nda:
                return _py_st(rt, val, ptr, idx)
            # Scalar fast path, inlined from compile._st.
            buf = ptr.buffer
            if buf.freed:
                buf.check_alive()
            at = ptr.offset + idx
            data = buf.data
            if at < 0 or at >= len(data):
                Memory._check_bounds(buf, at)
            data[at] = val
            c = rt.cost
            if buf.stream:
                c.stream_bytes += 8
            else:
                c.store_bytes += 8
            return
        buf = ptr.buffer
        off = ptr.offset
        data = buf.data
        n = idx.size
        if (buf.freed or type(off) is not int or idx.dtype is not _I8
                or idx.ndim != 1 or data.dtype is not _F8 or n == 0):
            return _py_st(rt, val, ptr, idx)
        try:
            if type(val) is _nda:
                if val.dtype is not _F8 or val.shape != idx.shape:
                    return _py_st(rt, val, ptr, idx)
                bad = sbc(fb_w(data), data.size, off, fb(idx), fb(val), n)
            else:
                bad = sfill(fb_w(data), data.size, off, fb(idx),
                            float(val), n)
        except _CLAIM_ERRORS:
            return _py_st(rt, val, ptr, idx)
        if bad >= 0:
            return _py_st(rt, val, ptr, idx)
        w = n if n > 1 else 1
        c = rt.cost
        if buf.stream:
            c.stream_bytes += w * 8
        else:
            c.store_bytes += w * 8

    def _at(rt, kind, via, val, ptr, idx):
        buf = ptr.buffer
        off = ptr.offset
        data = buf.data
        if type(idx) is not _nda:
            # Scalar target folding a lane vector: the adjoint of a
            # broadcast read, and the hottest _at shape by far.
            if (type(off) is not int or buf.freed
                    or type(val) is not _nda or val.ndim != 1
                    or val.dtype is not _F8 or data.dtype is not _F8
                    or val.size == 0):
                return _py_at(rt, kind, via, val, ptr, idx)
            at = off + idx
            if at < 0 or at >= data.size:
                return _py_at(rt, kind, via, val, ptr, idx)
            try:
                data[at] = fold[kind](float(data[at]), fb(val), val.size)
            except _CLAIM_ERRORS:
                return _py_at(rt, kind, via, val, ptr, idx)
            w = val.size if val.size > 1 else 1
        else:
            n = idx.size
            if (buf.freed or type(off) is not int or idx.dtype is not _I8
                    or idx.ndim != 1 or data.dtype is not _F8
                    or type(val) is not _nda or val.shape != idx.shape
                    or val.dtype is not _F8 or n == 0):
                return _py_at(rt, kind, via, val, ptr, idx)
            try:
                bad = sfold[kind](fb_w(data), data.size, off, fb(idx),
                                  fb(val), n)
            except _CLAIM_ERRORS:
                return _py_at(rt, kind, via, val, ptr, idx)
            if bad >= 0:
                return _py_at(rt, kind, via, val, ptr, idx)
            w = n if n > 1 else 1
        rt.cost.add_rmw(via, w)

    return {"_ld": _ld, "_st": _st, "_at": _at}


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------

class NativeBackend(CompiledBackend):
    """The compiled backend with the native kernel tier layered on.

    Construction probes the toolchain once; when none is usable the
    backend *is* the compiled backend (identical code, identical
    results) with ``fallback_reason`` set.  Per-function build errors
    and claim-free functions degrade individually, recorded in
    ``function_fallbacks``.
    """

    def __init__(self, interp, strict: bool = False) -> None:
        super().__init__(interp, strict)
        cfg = interp.config
        cc = getattr(cfg, "cc", None)
        self.toolchain = probe_toolchain(cc)
        if self.toolchain is None:
            want = cc or os.environ.get("CC")
            tried = want if want else ", ".join(_DEFAULT_CANDIDATES)
            self.fallback_reason = (
                f"no usable C compiler (tried: {tried}); running the "
                f"generated-NumPy path")
        else:
            self.fallback_reason = None
            # The native lowering emits different source (kernel-call
            # sites), so its artifacts must never share the plain
            # compiled backend's per-function memo or cache entries.
            self.fingerprint = (
                f"{self.fingerprint}|native={self.toolchain.identity}")
        #: fn name -> NativeStats of its most recent compile.
        self.native_stats: dict[str, NativeStats] = {}
        #: fn name -> reason this function runs without native kernels.
        self.function_fallbacks: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _compile(self, fn, fingerprint: str):
        if self.toolchain is None:
            return super()._compile(fn, fingerprint)
        emitter = NativeEmitter(self.toolchain)
        try:
            return compile_function(fn, fusion=self.fusion,
                                    cache=self.cache,
                                    fingerprint=fingerprint,
                                    native=emitter,
                                    module=self.rt.module)
        except NativeBuildError as e:
            if self.strict:
                raise
            self.function_fallbacks[fn.name] = str(e)
            return super()._compile(fn, fingerprint)

    def get_compiled(self, fn):
        code = super().get_compiled(fn)
        if code is not None:
            ns = getattr(code, "__native_stats__", None)
            if ns is not None:
                self.native_stats[fn.name] = ns
                if not ns.used and fn.name not in self.function_fallbacks:
                    self.function_fallbacks[fn.name] = (
                        "no claimable kernels (dynamic native helpers "
                        "still active)")
            elif fn.name not in self.function_fallbacks:
                # Compiled without an emitter (build error earlier, or
                # the memo holds a plain-compiled artifact).
                self.function_fallbacks[fn.name] = (
                    self.fallback_reason or "compiled without native kernels")
        return code

    # ------------------------------------------------------------------
    def compile_stats(self) -> dict:
        out = super().compile_stats()
        agg = NativeStats()
        for st in self.native_stats.values():
            agg.merge(st)
        out["native"] = {
            "enabled": self.toolchain is not None,
            "cc": self.toolchain.identity if self.toolchain else None,
            "ffi": "cffi" if cffi is not None else "ctypes",
            "fallback_reason": self.fallback_reason,
            "function_fallbacks": dict(self.function_fallbacks),
            **agg.as_dict(),
        }
        return out
