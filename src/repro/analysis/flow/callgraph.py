"""Call graph and light local type inference for the whole-program passes.

For every analyzable body the graph records each call expression with
the fully qualified callee it resolves to (or ``None``): module-local
functions, imported symbols, ``self.method()`` dispatch through the
class (and project-local bases), constructor calls, and method calls on
locals whose class is known from a constructor assignment or an
annotation.  meghpar walks these edges to compute the set of functions
reachable from the execution engine's worker entry points.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.flow.project import FunctionInfo, Project, dotted_name

__all__ = ["CallSite", "CallGraph", "LocalTypes", "build_call_graph"]


@dataclass
class CallSite:
    """One call expression with its resolution, if any."""

    node: ast.Call
    #: Fully qualified callee (project symbol or external dotted name).
    callee: Optional[str]
    #: True when ``callee`` names a symbol defined in this project.
    internal: bool


class LocalTypes:
    """Class types of local names, from constructors and annotations.

    Tracks only what call resolution needs: ``x = SomeClass(...)``,
    ``x: SomeClass``, parameter annotations, and ``self`` (typed as the
    enclosing class).  Everything else is unknown.
    """

    def __init__(
        self, project: Project, function: FunctionInfo
    ) -> None:
        self._project = project
        self._module = function.module
        self._types: Dict[str, str] = {}
        owner = project.class_of_method(function)
        if owner is not None:
            self._types["self"] = owner.qualname
            self._types["cls"] = owner.qualname
        if not isinstance(function.node, ast.Module):
            for argument in (
                list(function.node.args.posonlyargs)
                + list(function.node.args.args)
                + list(function.node.args.kwonlyargs)
            ):
                annotated = self._annotation_class(argument.annotation)
                if annotated is not None:
                    self._types[argument.arg] = annotated
        for statement in ast.walk(function.node):
            if isinstance(statement, ast.Assign):
                class_name = self.class_of_expression(statement.value)
                if class_name is None:
                    continue
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        self._types[target.id] = class_name
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                annotated = self._annotation_class(statement.annotation)
                if annotated is not None:
                    self._types[statement.target.id] = annotated

    def _annotation_class(
        self, annotation: Optional[ast.expr]
    ) -> Optional[str]:
        if annotation is None:
            return None
        name = dotted_name(annotation)
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            name = annotation.value
        if name is None:
            return None
        resolved = self._project.resolve(self._module, name)
        if resolved is not None and resolved in self._project.classes:
            return resolved
        return None

    def class_of_expression(self, expression: ast.expr) -> Optional[str]:
        """Project class constructed/held by an expression, if known."""
        if isinstance(expression, ast.Name):
            return self._types.get(expression.id)
        if isinstance(expression, ast.Call):
            callee = dotted_name(expression.func)
            if callee is None:
                return None
            resolved = self._project.resolve(self._module, callee)
            if resolved is None:
                return None
            canonical = self._project.canonical(resolved)
            if canonical in self._project.classes:
                return canonical
            return None
        if isinstance(expression, ast.Attribute):
            owner = self.class_of_expression(expression.value)
            if owner is not None:
                info = self._project.classes.get(owner)
                if info is not None:
                    return info.attr_types.get(expression.attr)
            return None
        return None


def resolve_call(
    project: Project,
    function: FunctionInfo,
    call: ast.Call,
    local_types: Optional[LocalTypes] = None,
) -> Optional[str]:
    """Fully qualified callee of ``call`` as seen from ``function``."""
    callee = dotted_name(call.func)
    module = function.module
    if callee is not None:
        resolved = project.resolve(module, callee)
        if resolved is not None:
            return project.canonical(resolved)
        if "." not in callee:
            return None  # local variable or builtin
        # Leading segment may be an unresolvable local; fall through to
        # typed-receiver dispatch below.
    if not isinstance(call.func, ast.Attribute):
        return None
    if local_types is None:
        local_types = LocalTypes(project, function)
    receiver_class = local_types.class_of_expression(call.func.value)
    if receiver_class is None:
        if callee is not None and "." in callee:
            return callee  # external dotted call, e.g. rng.integers
        return None
    info = project.classes.get(receiver_class)
    if info is None:
        return None
    method = project.method_of(info, call.func.attr)
    if method is not None:
        return method.qualname
    return f"{receiver_class}.{call.func.attr}"


@dataclass
class CallGraph:
    """Resolved call sites and internal call edges per function."""

    project: Project
    sites: Dict[str, List[CallSite]] = field(default_factory=dict)
    edges: Dict[str, Set[str]] = field(default_factory=dict)


def build_call_graph(project: Project) -> CallGraph:
    """Resolve every call site in every analyzable body, once."""
    graph = CallGraph(project=project)
    for function in project.iter_functions():
        local_types = LocalTypes(project, function)
        sites: List[CallSite] = []
        edges: Set[str] = set()
        for statement in function.body():
            for node in ast.walk(statement):
                if not isinstance(node, ast.Call):
                    continue
                callee = resolve_call(project, function, node, local_types)
                internal = callee is not None and (
                    callee in project.functions
                    or callee in project.classes
                )
                sites.append(
                    CallSite(node=node, callee=callee, internal=internal)
                )
                if internal and callee is not None:
                    # Constructor edges point at __init__ when present.
                    if callee in project.classes:
                        init = project.method_of(
                            project.classes[callee], "__init__"
                        )
                        edges.add(
                            init.qualname if init is not None else callee
                        )
                    else:
                        edges.add(callee)
        graph.sites[function.qualname] = sites
        graph.edges[function.qualname] = edges
    return graph
