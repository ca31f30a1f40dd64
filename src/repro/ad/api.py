"""Public AD API.

``autodiff(module, fn, activities)`` generates a reverse-mode gradient
function inside the module and returns its name, following Enzyme's
calling convention:

* ``Const`` (or ``None``) — the argument is not differentiated;
* ``Duplicated`` — a pointer argument followed (in the *generated*
  signature) by its shadow pointer; derivative flows accumulate into
  the shadow.  Output shadows act as seeds: initialize them before the
  call (e.g. to 1 for the §VII projection test).
* ``Active`` — an f64 scalar argument whose derivative is returned.

If the primal returns an f64, the gradient function takes a trailing
``seed`` argument (the differential of the return value).
"""

from __future__ import annotations

from typing import Optional

from ..ir.function import Module
from .mpi_rules import register_mpid_intrinsics
from .transform import Active, ADConfig, ADTransform, Const, Duplicated


def autodiff(module: Module, fn_name: str, activities: list,
             config: Optional[ADConfig] = None, cache=None) -> str:
    """Generate (or reuse) the gradient of ``fn_name``; returns its name."""
    return autodiff_transform(module, fn_name, activities, config,
                              cache).grad_name


def autodiff_transform(module: Module, fn_name: str, activities: list,
                       config: Optional[ADConfig] = None,
                       cache=None) -> ADTransform:
    """Like :func:`autodiff` but returns the transform itself, exposing
    the analyses of the run (``adjoint_report``, ``lint_result``,
    ``comm_result``, the cache ``plan``).

    ``cache`` is a gradient store, e.g. ``open_cache(exec_config)`` from
    :mod:`repro.interp.diskcache`: a gradient it already holds for this
    primal, activity list and config is read back instead of derived
    (``tr.cache_event == "hit"``; ``tr.plan`` and ``tr.activity`` are
    then ``None``) — as text only (``tr.grad.text_only``) when code
    lowered from it is stored too."""
    register_mpid_intrinsics(module)
    tr = ADTransform(module, fn_name, activities, config, cache)
    tr.build()
    return tr
