"""meghlint: project-specific static analysis for the Megh reproduction.

Megh's headline result — a convergent learn-as-you-go scheduler — is only
reproducible if every run is bit-deterministic under a seed and the
Sherman–Morrison incremental inverse stays numerically honest.  This
package provides an AST-based lint framework that enforces exactly those
project invariants:

* a rule registry (:mod:`repro.analysis.rules`) with the MEGH rule set
  (unseeded randomness, wall-clock reads, float equality, mutable
  defaults, missing seed plumbing, swallowed exceptions);
* two whole-program passes over one shared project model: meghflow
  (:mod:`repro.analysis.flow`, MEGH011 dirty-flag invalidation and
  MEGH017 float-reduction order) and meghshape (:mod:`repro.analysis.shape`, MEGH012 dtype/axis
  discipline and MEGH019–MEGH023 shapes and the kernel ABI);
* an engine (:mod:`repro.analysis.engine`) that walks files, parses each
  module once for every pass, applies the rules, honours
  ``# meghlint: ignore[RULE] -- reason`` suppressions, and reports
  directives that never fire;
* an accepted-findings baseline (:mod:`repro.analysis.baseline`) gating
  CI on *no new findings* with a written reason per entry;
* text and JSON reporters (:mod:`repro.analysis.reporting`);
* a CLI (:mod:`repro.analysis.cli`), reachable as ``repro lint`` /
  ``megh-repro lint`` or ``python -m repro.analysis``.

The runtime counterpart — contracts that audit the live LSPI state —
lives in :mod:`repro.core.contracts`.
"""

from repro.analysis.baseline import (
    Baseline,
    BaselineEntry,
    BaselineError,
    apply_baseline,
    load_baseline,
    update_baseline,
)
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.engine import (
    UNUSED_SUPPRESSION_RULE,
    LintConfig,
    LintResult,
    ParsedModule,
    lint_file,
    lint_paths,
    lint_source,
    parse_module,
)
from repro.analysis.flow import FLOW_RULES, run_flow
from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules import RULE_REGISTRY, Rule, all_rule_ids

__all__ = [
    "Diagnostic",
    "Severity",
    "LintConfig",
    "LintResult",
    "ParsedModule",
    "parse_module",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "RULE_REGISTRY",
    "FLOW_RULES",
    "run_flow",
    "Rule",
    "all_rule_ids",
    "UNUSED_SUPPRESSION_RULE",
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "apply_baseline",
    "load_baseline",
    "update_baseline",
]
