"""meghpar — interprocedural determinism & process-safety analysis.

The execution engine (``repro.engine``) promises that ``jobs=4`` and
``jobs=1`` produce bit-identical results.  That promise is only as
strong as the code workers execute: a global write, an unordered
iteration, an unpicklable spec argument, an order-sensitive float
reduction, or a wall-clock read anywhere in the worker-reachable call
graph breaks it in ways the runtime differential tests catch late or
not at all.  meghpar proves the hazards absent statically over the
project model every whole-program pass shares (parse-once: the same
ASTs and the same project instance feed MEGH011, MEGH012 and
MEGH014–023), plus the call graph that only meghpar needs.

``MEGH014``
    shared-state mutation: writes to module-level globals or class
    attributes from worker-executed code (per-process divergence).
``MEGH015``
    unordered-iteration determinism: set/``os.listdir``/``glob``/
    ``Path.iterdir`` order leaking into accumulations, merges, or
    serialized output without ``sorted(...)``.
``MEGH016``
    pickle-boundary safety: lambdas, locally defined functions/classes,
    open handles, live RNG/lock objects flowing into ``JobSpec`` params
    or across the pool pipe.
``MEGH017``
    float-reduction-order discipline: ``sum``/``np.sum`` over unordered
    iterables and ``+=`` accumulation over unordered sources in
    ``repro.core``/``repro.cloudsim`` (complements MEGH011/012).
``MEGH018``
    worker resource hygiene: wall-clock, ``os.urandom``, environment
    reads in worker-reachable code (MEGH001/002 across the process
    boundary).

The entry point is :func:`run_par`, invoked by the lint engine with the
modules it already parsed and the shared project model.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.callgraph import build_call_graph
from repro.analysis.flow.project import Project, build_project
from repro.analysis.par.float_reduction import check_float_reduction
from repro.analysis.par.hygiene import check_hygiene
from repro.analysis.par.pickle_boundary import check_pickle_boundary
from repro.analysis.par.shared_state import check_shared_state
from repro.analysis.par.unordered import check_unordered
from repro.analysis.par.workers import (
    ENTRY_FUNCTIONS,
    REGISTRATION_FUNCTIONS,
    WorkerContext,
    build_worker_context,
)

__all__ = [
    "PAR_RULES",
    "run_par",
    "WorkerContext",
    "build_worker_context",
    "ENTRY_FUNCTIONS",
    "REGISTRATION_FUNCTIONS",
    "check_shared_state",
    "check_unordered",
    "check_pickle_boundary",
    "check_float_reduction",
    "check_hygiene",
]

#: rule id -> (default severity, one-line summary). Consulted by the
#: engine/CLI for ``--select``/``--ignore`` validation and
#: ``--list-rules`` output, exactly like ``FLOW_RULES``.
PAR_RULES: Dict[str, Tuple[Severity, str]] = {
    "MEGH014": (
        Severity.ERROR,
        "shared-state mutation (globals, module/class attributes) in "
        "worker-executed code — cross-process divergence",
    ),
    "MEGH015": (
        Severity.ERROR,
        "unordered iteration (set/listdir/glob/iterdir) flowing into "
        "accumulations, merges, or serialized output without sorted()",
    ),
    "MEGH016": (
        Severity.ERROR,
        "unpicklable or stateful value (lambda, local def, open handle, "
        "live RNG/lock) into JobSpec params or across the pool pipe",
    ),
    "MEGH017": (
        Severity.ERROR,
        "order-sensitive float reduction (sum over unordered iterable, "
        "+= over unordered source) in repro.core/repro.cloudsim",
    ),
    "MEGH018": (
        Severity.WARNING,
        "ambient resource read (wall-clock, os.urandom, environment) "
        "inside worker-reachable code",
    ),
}


def run_par(
    parsed: Sequence[Tuple[Union[str, Path], ast.Module]],
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
    project: Optional[Project] = None,
) -> List[Diagnostic]:
    """Run the enabled meghpar rules over already-parsed modules.

    Mirrors :func:`repro.analysis.flow.run_flow`: ``parsed`` pairs each
    path with the AST the engine produced for the per-file rules,
    ``select``/``ignore`` carry the engine's semantics, and
    ``project`` lets the engine hand over the model the other passes
    share so nothing is parsed or resolved twice.  The call graph is
    meghpar's alone, so it is built here, and only when a rule runs.
    """
    enabled = set(PAR_RULES)
    if select is not None:
        enabled &= select
    if ignore is not None:
        enabled -= ignore
    if not enabled:
        return []
    if project is None:
        project = build_project(parsed)
    context = build_worker_context(project, build_call_graph(project))
    diagnostics: List[Diagnostic] = []
    if "MEGH014" in enabled:
        diagnostics.extend(check_shared_state(project, context))
    if "MEGH015" in enabled:
        diagnostics.extend(check_unordered(project, context))
    if "MEGH016" in enabled:
        diagnostics.extend(check_pickle_boundary(project))
    if "MEGH017" in enabled:
        diagnostics.extend(check_float_reduction(project))
    if "MEGH018" in enabled:
        diagnostics.extend(check_hygiene(project, context))
    return diagnostics
