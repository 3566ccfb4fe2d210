"""meghflow — the shared project model, MEGH011 and MEGH017.

Where the per-file meghlint rules (MEGH001–MEGH009) pattern-match one
AST at a time, the whole-program passes need a project model — symbol
table, import resolution, light local types — across *all* files
handed to one lint invocation.  This package builds that model once
(:func:`build_project`) for meghflow and meghshape alike.

meghflow itself checks two properties that need that model:

``MEGH011``
    Dirty-flag invalidation: every mutation of a declared
    lazily-aggregated field (``DatacenterArrays`` vectors,
    ``SparseMatrix`` backing store, ``RewardVector`` storage) must set
    its paired flag / bump its counter on every path to function exit.
``MEGH017``
    Float-reduction order: ``sum`` over an unordered iterable, or
    ``+=`` accumulation in a loop over one, in ``repro.core`` /
    ``repro.cloudsim``; names are resolved through each module's
    imports.

The entry point is :func:`run_flow`, invoked by the lint engine with
the modules it already parsed (parse-once: the same ASTs feed the
per-file rules and this pass).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.dirty import check_dirty_flags
from repro.analysis.flow.float_reduction import check_float_reduction
from repro.analysis.flow.invariants import (
    MUTATION_INVARIANTS,
    MutationInvariant,
)
from repro.analysis.flow.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    build_project,
)

__all__ = [
    "FLOW_RULES",
    "run_flow",
    "Project",
    "ModuleInfo",
    "FunctionInfo",
    "ClassInfo",
    "build_project",
    "MutationInvariant",
    "MUTATION_INVARIANTS",
    "check_dirty_flags",
    "check_float_reduction",
]

#: rule id -> (default severity, one-line summary). The registry the
#: engine/CLI consult for ``--select``/``--ignore`` validation and
#: ``--list-rules`` output.
FLOW_RULES: Dict[str, Tuple[Severity, str]] = {
    "MEGH011": (
        Severity.ERROR,
        "lazily-aggregated field mutated without setting its paired "
        "dirty flag / counter on every path",
    ),
    "MEGH017": (
        Severity.ERROR,
        "order-sensitive float reduction (sum over unordered iterable, "
        "+= over unordered source) in repro.core/repro.cloudsim",
    ),
}


def run_flow(
    parsed: Sequence[Tuple[Union[str, Path], ast.Module]],
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
    project: Optional[Project] = None,
) -> List[Diagnostic]:
    """Run the enabled meghflow rules over already-parsed modules.

    ``parsed`` pairs each path with the AST the engine produced for the
    per-file rules — the flow pass never re-parses.  ``select`` /
    ``ignore`` carry the same semantics as the per-file engine: when
    ``select`` is given only those rule ids run; ``ignore`` always
    subtracts.  ``project`` lets the engine share one project model
    across every whole-program pass (build-once); when omitted it is
    built here from ``parsed``.
    """
    enabled = set(FLOW_RULES)
    if select is not None:
        enabled &= select
    if ignore is not None:
        enabled -= ignore
    if not enabled:
        return []
    if project is None:
        project = build_project(parsed)
    diagnostics: List[Diagnostic] = []
    if "MEGH011" in enabled:
        diagnostics.extend(check_dirty_flags(project))
    if "MEGH017" in enabled:
        diagnostics.extend(check_float_reduction(project))
    return diagnostics
