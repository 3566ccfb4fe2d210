"""MEGH018 — ambient-resource reads inside worker-executed code.

A worker that reads the wall clock, the OS entropy pool, or the
environment injects per-process, per-run state into a job whose cache
key claims the computation is fully described by its spec.  MEGH002
(wall-clock) and MEGH001 (unseeded randomness) already police
single-process code; this rule extends the discipline across the process boundary,
where the damage is worse: under spawn each worker re-imports modules
and re-reads the environment independently, so even "constant" ambient
reads can disagree between workers.

Reported, for worker-reachable functions only (WARNING — ambient reads
are sometimes legitimate, e.g. an audit toggle, and the baseline with a
written reason is the sanctioned escape hatch):

* wall-clock calls — ``time.time``/``time_ns``/``localtime``/
  ``strftime``, ``datetime.now``/``utcnow``/``today``
  (``time.perf_counter``/``monotonic`` stay exempt: durations are
  sanctioned for *measuring*, they never feed simulated state);
* entropy — ``os.urandom``, ``uuid.uuid1``/``uuid4``, ``secrets.*``;
* environment — ``os.getenv``, ``os.environ.get``,
  ``os.environ[...]`` reads;
* reads of module-level names that were *initialized from* one of the
  above at import time (the resource leaks in via a constant).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.project import FunctionInfo, Project, dotted_name
from repro.analysis.par.common import make_diagnostic, resolved_or_raw
from repro.analysis.par.workers import WorkerContext, function_local_names

__all__ = ["check_hygiene"]

RULE_ID = "MEGH018"

#: Resolved (or raw-spelled) callees that read ambient state.
_HAZARD_CALLS: Dict[str, str] = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.localtime": "wall-clock read",
    "time.gmtime": "wall-clock read",
    "time.ctime": "wall-clock read",
    "time.strftime": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "datetime.now": "wall-clock read",
    "datetime.utcnow": "wall-clock read",
    "datetime.today": "wall-clock read",
    "date.today": "wall-clock read",
    "os.urandom": "OS entropy read",
    "uuid.uuid1": "OS entropy read",
    "uuid.uuid4": "OS entropy read",
    "os.getenv": "environment read",
    "os.environ.get": "environment read",
}

_SECRETS_PREFIX = "secrets."


def _call_hazard(
    project: Project, function: FunctionInfo, call: ast.Call
) -> Optional[Tuple[str, str]]:
    """(spelled callee, hazard kind) when the call reads ambient state."""
    callee = resolved_or_raw(project, function, call.func)
    if callee is None:
        return None
    kind = _HAZARD_CALLS.get(callee)
    if kind is not None:
        return callee, kind
    if callee.startswith(_SECRETS_PREFIX) or callee == "secrets":
        return callee, "OS entropy read"
    return None


def _module_ambient_constants(function: FunctionInfo) -> Dict[str, str]:
    """Module-level names initialized from an ambient read."""
    ambient: Dict[str, str] = {}
    for statement in function.module.tree.body:
        targets: List[ast.expr]
        if isinstance(statement, ast.Assign):
            targets = list(statement.targets)
            value: Optional[ast.expr] = statement.value
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
            value = statement.value
        else:
            continue
        if not isinstance(value, ast.Call):
            continue
        dotted = dotted_name(value.func)
        if dotted is None:
            continue
        kind = _HAZARD_CALLS.get(dotted)
        if kind is None and dotted.startswith(_SECRETS_PREFIX):
            kind = "OS entropy read"
        if kind is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                ambient[target.id] = f"{kind} via {dotted}(...)"
    return ambient


def _is_environ_subscript(node: ast.Subscript) -> bool:
    dotted = dotted_name(node.value)
    return dotted == "os.environ"


def _check_function(
    project: Project,
    context: WorkerContext,
    function: FunctionInfo,
    diagnostics: List[Diagnostic],
) -> None:
    witness = context.witness(function.qualname)
    ambient_constants = _module_ambient_constants(function)
    locals_: Set[str] = (
        function_local_names(function) if ambient_constants else set()
    )
    for node in ast.walk(function.node):
        if isinstance(node, ast.Call):
            hazard = _call_hazard(project, function, node)
            if hazard is not None:
                callee, kind = hazard
                diagnostics.append(
                    make_diagnostic(
                        function,
                        node,
                        RULE_ID,
                        Severity.WARNING,
                        f"{kind} ({callee}(...)) in worker-executed code "
                        f"({witness}) — ambient state differs per process "
                        "and per run, while the job's cache key claims "
                        "the spec describes the computation; derive the "
                        "value from the spec or read it in the parent "
                        "and pass it through",
                    )
                )
        elif isinstance(node, ast.Subscript):
            if isinstance(node.ctx, ast.Load) and _is_environ_subscript(node):
                diagnostics.append(
                    make_diagnostic(
                        function,
                        node,
                        RULE_ID,
                        Severity.WARNING,
                        f"environment read (os.environ[...]) in "
                        f"worker-executed code ({witness}) — worker "
                        "environments are inherited at spawn time and "
                        "invisible to the job's cache key; pass the "
                        "value through the spec instead",
                    )
                )
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in ambient_constants and node.id not in locals_:
                diagnostics.append(
                    make_diagnostic(
                        function,
                        node,
                        RULE_ID,
                        Severity.WARNING,
                        f"read of module-level {node.id!r}, initialized "
                        f"at import time from a "
                        f"{ambient_constants[node.id]}, in "
                        f"worker-executed code ({witness}) — each spawn "
                        "worker re-imports and re-reads, so the value "
                        "can differ across processes",
                    )
                )


def check_hygiene(
    project: Project, context: WorkerContext
) -> List[Diagnostic]:
    """Run MEGH018 over every worker-reachable function."""
    diagnostics: List[Diagnostic] = []
    for function in context.iter_reachable_functions():
        _check_function(project, context, function, diagnostics)
    return diagnostics
