"""Pass manager: ordered IR-to-IR transformations.

Enzyme's effectiveness depends on running optimizations *before*
differentiation (simplified code → better aliasing → less caching) and
*after* it (cleaning up the generated adjoint) — §V-E.  The AD engine
invokes a pipeline built here on its private working copy after
inlining, and optionally on the generated gradient.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..ir.function import Function, Module
from ..ir.verifier import verify_function


class FunctionPass:
    """Base class: ``run`` returns True when the function changed."""

    name = "pass"

    def run(self, fn: Function, module: Module) -> bool:  # pragma: no cover
        raise NotImplementedError


class PassManager:
    """Runs ``passes`` in order, round after round, until none has
    anything left to do (or ``max_rounds``).

    A pass that ran and changed nothing is *clean* until some pass
    changes the function; a clean pass is skipped, and the manager
    stops at the end of a round in which every entry is clean.  That is
    exact: a deterministic pass asked again about unchanged IR answers
    the same.  Entries are one pass when they have the same class and
    the same constructor state (``vars`` at the time the manager is
    built), so the two ``ConstantFold()`` of a pipeline share their
    cleanliness and ``LICM(True)`` / ``LICM(False)`` do not.
    """

    def __init__(self, passes: Iterable[FunctionPass],
                 verify_each: bool = False, max_rounds: int = 4) -> None:
        self.passes = list(passes)
        self.verify_each = verify_each
        self.max_rounds = max_rounds
        #: ``{pass name: runs that changed the function}``
        self.stats: dict[str, int] = {}
        #: ``{pass name: runs}`` — what clean-skipping leaves of
        #: ``rounds × len(passes)``.
        self.runs: dict[str, int] = {}
        kinds = [(type(p), dict(vars(p))) for p in self.passes]
        self._kind = [kinds.index(k) for k in kinds]

    def run_function(self, fn: Function, module: Module) -> bool:
        changed_any = False
        clean: set[int] = set()
        for _ in range(self.max_rounds):
            for p, kind in zip(self.passes, self._kind):
                if kind in clean:
                    continue
                self.runs[p.name] = self.runs.get(p.name, 0) + 1
                if p.run(fn, module):
                    changed_any = True
                    clean.clear()
                    self.stats[p.name] = self.stats.get(p.name, 0) + 1
                    if self.verify_each:
                        verify_function(fn, module)
                else:
                    clean.add(kind)
            if clean.issuperset(self._kind):
                break
        return changed_any

    def run(self, module: Module,
            fn_names: Optional[Iterable[str]] = None) -> bool:
        names = list(fn_names) if fn_names is not None else \
            list(module.functions)
        changed = False
        for name in names:
            changed |= self.run_function(module.functions[name], module)
        return changed


def default_pipeline(openmp_opt: bool = False,
                     verify_each: bool = False) -> PassManager:
    """The standard pre-AD optimization pipeline.

    ``openmp_opt=True`` adds the parallel-region load/indirection
    hoisting pass (the paper's extended OpenMPOpt, §V-E / §VIII).
    """
    from .constfold import ConstantFold
    from .cse import CSE
    from .dce import DCE
    from .licm import LICM
    from .openmp_opt import OpenMPOpt
    from .simplify import Simplify

    passes: list[FunctionPass] = [
        ConstantFold(), CSE(), DCE(), Simplify(), LICM(),
    ]
    if openmp_opt:
        passes.append(OpenMPOpt())
    passes += [ConstantFold(), CSE(), DCE()]
    return PassManager(passes, verify_each=verify_each)


def sanitize_pipeline(on_error: str = "ignore",
                      verify_each: bool = False) -> PassManager:
    """Analysis-only pipeline running the shadow-memory race lint.

    The lint re-derives thread-locality of every write in parallel
    regions and reports non-atomic shadow increments whose disjointness
    proof fails (§VI-A1).  ``on_error="raise"`` turns lint errors into
    a ``sanitize.lint.LintError``; the pass never mutates IR, so the
    manager converges in one round.
    """
    from ..sanitize.lint import ShadowRaceLint

    return PassManager([ShadowRaceLint(on_error=on_error)],
                       verify_each=verify_each, max_rounds=1)


def commcheck_pipeline(sizes: tuple = (2, 3), on_error: str = "ignore",
                       verify_each: bool = False) -> PassManager:
    """Analysis-only pipeline running the static MPI communication
    analyzer (matching, collectives, request lifetimes, rendezvous
    deadlocks) on every communicating function.  ``on_error="raise"``
    turns error findings into a ``sanitize.commcheck.CommCheckError``;
    the pass never mutates IR, so the manager converges in one round.
    """
    from ..sanitize.commcheck import CommCheckPass

    return PassManager([CommCheckPass(sizes=sizes, on_error=on_error)],
                       verify_each=verify_each, max_rounds=1)


def cleanup_pipeline(verify_each: bool = False) -> PassManager:
    """Post-AD cleanup.  The transform's builder already folds and
    value-numbers per block as it emits (``ad.transform.FoldingBuilder``
    calls the same ``fold_op`` / ``value_key`` as the passes here); what
    is left for this pipeline is what only a whole-function view sees:
    values nothing uses, duplicates a hoisted copy introduced, and the
    regions those leave empty."""
    from .constfold import ConstantFold
    from .cse import CSE
    from .dce import DCE
    from .simplify import Simplify

    return PassManager([ConstantFold(), CSE(), DCE(), Simplify()],
                       verify_each=verify_each)
