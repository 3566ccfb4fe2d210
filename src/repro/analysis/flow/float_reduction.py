"""MEGH017 — float reductions whose result depends on summation order.

IEEE-754 addition is not associative: ``sum`` over an unordered
iterable can produce different last-bit results across runs, machines,
and hash seeds.  The SoA simulator rebuild established the "never
incremental float ``+=``" invariant precisely because the
reference/vectorized differential tests kept tripping on it; this rule
makes the invariant static for the numeric core.

Scoped to ``repro.core`` and ``repro.cloudsim`` (minus the reference
implementation, which is the sanctioned scalar oracle — mirroring the
MEGH009 exemption), two shapes are reported:

* ``sum(...)``/``np.sum(...)`` reductions over an *unordered* iterable
  (set literals/comprehensions, ``os.listdir``, ``Path.iterdir``, names
  bound to them) — ``math.fsum`` is exempt, its compensated result is
  order-independent;
* ``+=`` accumulation inside a ``for`` loop over an unordered source
  (integer-literal counter bumps stay exempt; loops over lists,
  ranges, or arrays are deterministic in order and stay silent).

The fixes, in preference order: batch the reduction over an array
(``float(np.sum(array))``), use ``math.fsum``, or pin the order with
``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.project import FunctionInfo, Project, dotted_name

__all__ = ["check_float_reduction"]

RULE_ID = "MEGH017"

#: Module-name prefixes holding the numeric core.
_SCOPE_PREFIXES: Tuple[str, ...] = ("repro.core", "repro.cloudsim")

#: Reductions whose float result depends on argument order.
_ORDER_SENSITIVE_REDUCTIONS: Tuple[str, ...] = (
    "sum",
    "np.sum",
    "numpy.sum",
)

#: Calls producing unordered (or OS-order) iterables, by resolved name.
_UNORDERED_CALLS: Dict[str, str] = {
    "set": "set(...)",
    "frozenset": "frozenset(...)",
    "os.listdir": "os.listdir(...) (filesystem order)",
    "os.scandir": "os.scandir(...) (filesystem order)",
    "glob.glob": "glob.glob(...) (filesystem order)",
    "glob.iglob": "glob.iglob(...) (filesystem order)",
}

#: Method names whose call yields filesystem-ordered entries regardless
#: of the (usually untyped) receiver: ``Path.iterdir`` and friends.
_UNORDERED_METHOD_ATTRS: Dict[str, str] = {
    "iterdir": ".iterdir() (filesystem order)",
    "rglob": ".rglob(...) (filesystem order)",
}


def walk_shallow(root: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope: never descend into nested function/class bodies.

    The project model registers module bodies as ``<module>``
    pseudo-functions whose node is the whole ``ast.Module`` — a plain
    ``ast.walk`` over one of those revisits every function body and
    duplicates findings.  Nested def/class nodes are still *yielded*
    but their bodies belong to their own scope.
    """
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                yield child
                continue
            stack.append(child)


def resolved_or_raw(
    project: Project, function: FunctionInfo, node: ast.expr
) -> Optional[str]:
    """Resolve a dotted callee through imports, else the raw spelling."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    resolved = project.resolve(function.module, dotted)
    return resolved if resolved is not None else dotted


class UnorderedSources:
    """Per-function tracker of names bound to unordered iterables."""

    def __init__(self, project: Project, function: FunctionInfo) -> None:
        self.project = project
        self.function = function
        #: Local name -> description of the unordered source it holds.
        self.names: Dict[str, str] = {}
        for node in walk_shallow(function.node):
            if isinstance(node, ast.Assign):
                description = self.classify(node.value, _names_ok=False)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if description is not None:
                            self.names[target.id] = description
                        else:
                            # A later ordered rebinding (x = sorted(x))
                            # clears the mark; without statement-order
                            # tracking, clearing on any ordered rebind
                            # is the conservative choice.
                            self.names.pop(target.id, None)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if node.value is not None:
                    description = self.classify(node.value, _names_ok=False)
                    if description is not None:
                        self.names[node.target.id] = description
                    else:
                        self.names.pop(node.target.id, None)

    def classify(
        self, expression: Optional[ast.expr], _names_ok: bool = True
    ) -> Optional[str]:
        """Description of the unordered source, or ``None`` if ordered."""
        if expression is None:
            return None
        if isinstance(expression, ast.Set):
            return "a set literal"
        if isinstance(expression, ast.SetComp):
            return "a set comprehension"
        if isinstance(expression, ast.Name) and _names_ok:
            return self.names.get(expression.id)
        if isinstance(expression, ast.Call):
            callee = resolved_or_raw(
                self.project, self.function, expression.func
            )
            if callee is not None and callee in _UNORDERED_CALLS:
                return _UNORDERED_CALLS[callee]
            if isinstance(expression.func, ast.Attribute):
                attr = expression.func.attr
                if attr in _UNORDERED_METHOD_ATTRS:
                    return _UNORDERED_METHOD_ATTRS[attr]
                # ``p.glob(...)`` is Path.glob unless the receiver is the
                # glob module itself (already handled by the dotted form).
                if attr == "glob":
                    return ".glob(...) (filesystem order)"
        return None


def make_diagnostic(
    function: FunctionInfo, node: ast.AST, message: str
) -> Diagnostic:
    return Diagnostic(
        path=function.module.path,
        line=getattr(node, "lineno", 1),
        column=getattr(node, "col_offset", 0) + 1,
        rule_id=RULE_ID,
        severity=Severity.ERROR,
        message=message,
    )


def _in_scope(function: FunctionInfo) -> bool:
    if not function.module.name.startswith(_SCOPE_PREFIXES):
        return False
    # The scalar reference implementation is the oracle the vectorized
    # path is diffed against; it is exempt by design (MEGH009 precedent).
    return not str(function.module.path).endswith("repro/cloudsim/reference.py")


def _check_function(
    project: Project,
    function: FunctionInfo,
    diagnostics: List[Diagnostic],
) -> None:
    sources = UnorderedSources(project, function)
    for node in walk_shallow(function.node):
        if isinstance(node, ast.Call):
            callee = resolved_or_raw(project, function, node.func)
            if callee not in _ORDER_SENSITIVE_REDUCTIONS or not node.args:
                continue
            argument = node.args[0]
            description = sources.classify(argument)
            if description is None and isinstance(
                argument, ast.GeneratorExp
            ):
                for generator in argument.generators:
                    description = sources.classify(generator.iter)
                    if description is not None:
                        break
            if description is None:
                continue
            diagnostics.append(
                make_diagnostic(
                    function,
                    node,
                    f"{callee}(...) over {description} — float addition "
                    "is not associative, so the result depends on an "
                    "arbitrary iteration order; reduce over an array "
                    "(float(np.sum(...))), use math.fsum, or sort the "
                    "iterable first",
                )
            )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            description = sources.classify(node.iter)
            if description is None:
                continue
            for statement in node.body:
                for inner in ast.walk(statement):
                    if not isinstance(inner, ast.AugAssign):
                        continue
                    if not isinstance(inner.op, ast.Add):
                        continue
                    if isinstance(inner.value, ast.Constant) and isinstance(
                        inner.value.value, int
                    ):
                        continue
                    diagnostics.append(
                        make_diagnostic(
                            function,
                            inner,
                            f"incremental += accumulation over "
                            f"{description} — float addition order is "
                            "unpinned, so results can differ across "
                            "runs and machines; batch the reduction or "
                            "iterate a sorted sequence",
                        )
                    )


def check_float_reduction(project: Project) -> List[Diagnostic]:
    """Run MEGH017 over the numeric core (``repro.core``/``cloudsim``)."""
    diagnostics: List[Diagnostic] = []
    for function in project.iter_functions():
        if _in_scope(function):
            _check_function(project, function, diagnostics)
    return diagnostics
