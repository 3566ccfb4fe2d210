"""Fixture-driven tests for meghflow's MEGH011 and for unseeded RNGs.

Each fixture under ``fixtures/<case>/`` is a miniature project — a
``repro`` package tree that is *parsed, never imported* — holding a
seeded-in defect (positive case) or its repaired twin (negative case).
The tests lint each case directory whole: the dirty-flag defect hides
on one branch of a conditional, and the unseeded generator that crosses
two call hops into ``repro.cloudsim`` is caught by MEGH001 at the line
that creates it, however the module imported the constructor.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import FLOW_RULES, LintConfig, lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _findings(case: str, rule: str):
    config = LintConfig(select=[rule])
    result = lint_paths([FIXTURES / case], config)
    assert not any(d.rule_id == "MEGH000" for d in result.diagnostics), (
        "fixture must parse"
    )
    return [d for d in result.diagnostics if d.rule_id == rule]


class TestRngProvenance:
    def test_unseeded_generator_crossing_two_hops_is_reported(self):
        findings = _findings("rng_flow_positive", "MEGH001")
        assert len(findings) == 1
        finding = findings[0]
        # Anchored at the creation site, where the fix belongs.
        assert finding.path.endswith("runner.py")
        assert finding.line == 9
        assert "without a seed" in finding.message

    def test_seeded_generator_is_silent(self):
        assert _findings("rng_flow_negative", "MEGH001") == []
        assert _findings("rng_alias_negative", "MEGH001") == []

    def test_aliased_unseeded_constructors_are_reported(self):
        findings = _findings("rng_alias_positive", "MEGH001")
        assert [f.line for f in findings] == [11, 12, 13, 14, 15]
        messages = [f.message for f in findings]
        for spelling in (
            "default_rng()",
            "npr.default_rng()",
            "random.Random()",
            "RandomState()",
            "PCG64()",
        ):
            assert any(m.startswith(spelling) for m in messages), spelling
        assert all("without a seed" in m for m in messages)


class TestDirtyFlags:
    def test_mark_missing_on_one_path_is_reported(self):
        findings = _findings("dirty_branch_positive", "MEGH011")
        messages = [f.message for f in findings]
        assert len(findings) == 2
        assert any("vm_demand" in message for message in messages)
        assert any("vm_delivered" in message for message in messages)
        for finding in findings:
            assert "every path" in finding.message

    def test_marks_on_every_path_are_silent(self):
        assert _findings("dirty_branch_negative", "MEGH011") == []


class TestCounterClosure:
    """Counter obligations discharged through helper methods.

    ``PendingUpdates`` (repro/core/kern.py) retires its staged window
    via ``_reset``, which owns the ``mutations`` bump — the closure
    must admit helpers that *always* bump and refuse ones that can
    return first.
    """

    def test_conditional_helper_does_not_discharge(self):
        findings = _findings("counter_closure_positive", "MEGH011")
        assert len(findings) == 1
        finding = findings[0]
        assert "_pend_rows_n" in finding.message
        assert "bump self.mutations" in finding.message

    def test_unconditional_helpers_discharge_transitively(self):
        assert _findings("counter_closure_negative", "MEGH011") == []


class TestFlowToggles:
    def test_flow_rules_are_registered(self):
        assert set(FLOW_RULES) == {"MEGH011"}

    def test_no_flow_config_skips_flow_rules(self):
        config = LintConfig(ignore=sorted(FLOW_RULES))
        result = lint_paths([FIXTURES / "dirty_branch_positive"], config)
        assert result.diagnostics == []

    def test_flow_findings_honour_line_suppressions(self, tmp_path):
        package = tmp_path / "repro" / "cloudsim"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text(
            "def touch(arrays, i):\n"
            "    arrays.vm_demand[i] = 1.0"
            "  # meghlint: ignore[MEGH011] -- test fixture\n"
        )
        config = LintConfig(select=["MEGH011"])
        result = lint_paths([tmp_path], config)
        assert result.diagnostics == []
        assert result.suppressed == 1
        assert result.unused_suppressions == []
