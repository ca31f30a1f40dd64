"""repro.passes — the optimization-pass substrate (LLVM analogue).

Alias analysis, inlining, constant folding, CSE, DCE, LICM, structural
simplification, and the OpenMPOpt analogue with parallel-region load
hoisting and region merging.  AD runs after these (and optionally runs
the cleanup pipeline on its output), reproducing the paper's
optimization↔differentiation interplay (§V-E).
"""

from .aliasing import AliasInfo, analyze_aliasing
from .constfold import ConstantFold
from .cse import CSE
from .dce import DCE
from .inline import force_inline_all, inline_all
from .intervals import (
    Affine,
    Interval,
    IntervalAnalysis,
    certify_bounds,
)
from .licm import LICM
from .openmp_opt import OpenMPOpt
from .pass_manager import (
    FunctionPass,
    PassManager,
    cleanup_pipeline,
    default_pipeline,
)
from .simplify import Simplify

__all__ = [
    "AliasInfo", "analyze_aliasing",
    "Affine", "Interval", "IntervalAnalysis",
    "certify_bounds",
    "ConstantFold", "CSE", "DCE", "LICM", "OpenMPOpt", "Simplify",
    "force_inline_all", "inline_all",
    "FunctionPass", "PassManager", "cleanup_pipeline", "default_pipeline",
]
