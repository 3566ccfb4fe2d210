"""Fixture-driven tests for the meghpar rules (MEGH014–MEGH018).

Each fixture under ``fixtures/<case>/`` is a miniature project — a
``repro`` package tree that is *parsed, never imported* — holding a
seeded-in defect (positive case) or its repaired twin (negative case).
Every positive proves a genuinely interprocedural property: the rules
only fire because the defective function is reachable from a worker
entry point (or registered into the mini registry), and every negative
proves the repaired idiom stays silent.

The second half pins the architecture: meghpar runs over the *same*
project model instance as meghflow (parse-once extends to
resolve-once), builds the call graph only it needs, and the real
repository's worker-reachable set
demonstrably covers the engine → builders → ``Simulation.run`` step
pipeline.
"""

from __future__ import annotations

from pathlib import Path

import repro.analysis.engine as engine_module
import repro.analysis.par as par_module
from repro.analysis import LintConfig, lint_paths
from repro.analysis.engine import iter_python_files, parse_module
from repro.analysis.flow import build_call_graph, build_project
from repro.analysis.par import PAR_RULES, build_worker_context, run_par

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[3]


def _findings(case: str, rule: str):
    config = LintConfig(select=[rule])
    result = lint_paths([FIXTURES / case], config)
    assert not any(d.rule_id == "MEGH000" for d in result.diagnostics), (
        "fixture must parse"
    )
    return [d for d in result.diagnostics if d.rule_id == rule]


class TestSharedState:
    def test_module_dict_store_and_global_write_are_reported(self):
        findings = _findings("par_shared_positive", "MEGH014")
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "TOTALS" in messages
        assert "_COUNTER" in messages
        # Provenance: the finding says *why* this code runs in workers.
        assert all("register_builder" in f.message for f in findings)

    def test_job_local_state_is_clean(self):
        assert _findings("par_shared_negative", "MEGH014") == []


class TestUnorderedIteration:
    def test_set_iteration_into_accumulation_is_reported(self):
        findings = _findings("par_unordered_positive", "MEGH015")
        assert len(findings) == 1
        assert "set literal" in findings[0].message
        assert "sorted" in findings[0].message

    def test_sorted_wrapper_is_clean(self):
        assert _findings("par_unordered_negative", "MEGH015") == []


class TestPickleBoundary:
    def test_lambda_and_open_handle_into_spec_are_reported(self):
        findings = _findings("par_pickle_positive", "MEGH016")
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "lambda" in messages
        assert "open file handle" in messages

    def test_plain_data_params_are_clean(self):
        assert _findings("par_pickle_negative", "MEGH016") == []


class TestFloatReductionOrder:
    def test_sum_and_incremental_add_over_sets_are_reported(self):
        findings = _findings("par_float_positive", "MEGH017")
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "sum(...)" in messages
        assert "+=" in messages

    def test_fsum_over_sorted_is_clean(self):
        assert _findings("par_float_negative", "MEGH017") == []


class TestWorkerHygiene:
    def test_wall_clock_and_env_reads_in_worker_are_reported(self):
        findings = _findings("par_hygiene_positive", "MEGH018")
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "wall-clock" in messages
        assert "environment read" in messages

    def test_parent_side_env_read_is_clean(self):
        # ``parent_region`` reads the environment but is never
        # registered — scoping to the worker-reachable set is what
        # keeps the rule useful.
        assert _findings("par_hygiene_negative", "MEGH018") == []


class TestRegistryAndEngineIntegration:
    def test_par_rules_are_registered_with_the_engine(self):
        assert set(PAR_RULES) == {
            "MEGH014",
            "MEGH015",
            "MEGH016",
            "MEGH017",
            "MEGH018",
        }
        assert PAR_RULES.keys() <= engine_module._ENGINE_RULE_IDS

    def test_no_par_config_disables_the_pass(self):
        config = LintConfig(ignore=sorted(PAR_RULES))
        result = lint_paths([FIXTURES / "par_shared_positive"], config)
        assert not any(
            d.rule_id in PAR_RULES for d in result.diagnostics
        )

    def test_select_par_rule_validates(self):
        LintConfig(select=["MEGH016"]).validate()

    def test_flow_and_par_share_one_project(self, monkeypatch):
        """Parse-once extends to resolve-once: one project model handed
        to both whole-program passes, and one call graph, built only
        when a meghpar rule runs."""
        builds = []
        graphs = []
        seen = {}
        real_build = engine_module.build_project
        real_graph = par_module.build_call_graph
        real_flow = engine_module.run_flow
        real_par = engine_module.run_par

        def recording_build(parsed):
            project = real_build(parsed)
            builds.append(project)
            return project

        def recording_graph(project):
            graphs.append(project)
            return real_graph(project)

        def recording_flow(parsed, select, ignore, project=None):
            seen["flow"] = project
            return real_flow(parsed, select, ignore, project=project)

        def recording_par(parsed, select, ignore, project=None):
            seen["par"] = project
            return real_par(parsed, select, ignore, project=project)

        monkeypatch.setattr(engine_module, "build_project", recording_build)
        monkeypatch.setattr(par_module, "build_call_graph", recording_graph)
        monkeypatch.setattr(engine_module, "run_flow", recording_flow)
        monkeypatch.setattr(engine_module, "run_par", recording_par)
        lint_paths([FIXTURES / "par_shared_positive"])
        assert len(builds) == 1
        assert seen["flow"] is builds[0]
        assert seen["par"] is builds[0]
        assert graphs == [builds[0]]
        lint_paths(
            [FIXTURES / "par_shared_positive"],
            LintConfig(ignore=sorted(PAR_RULES)),
        )
        assert len(builds) == 2
        assert len(graphs) == 1


class TestRepositoryWorkerCoverage:
    def test_step_pipeline_is_worker_reachable(self):
        """The real repo's call graph demonstrably covers the engine →
        registered builders → ``Simulation.run`` pipeline, so the
        MEGH014–018 certifications are about the code that matters."""
        parsed = []
        for file_path in iter_python_files([REPO_ROOT / "src"]):
            module = parse_module(
                file_path.read_text(encoding="utf-8"), path=str(file_path)
            )
            if module.tree is not None and not module.skipped:
                parsed.append((module.path, module.tree))
        project = build_project(parsed)
        graph = build_call_graph(project)
        context = build_worker_context(project, graph)
        expected = [
            "repro.engine.pool._worker_main",
            "repro.engine.registry.execute_spec",
            "repro.engine.registry._build_planetlab",
            "repro.harness.builders.build_planetlab_simulation",
            "repro.cloudsim.simulation.Simulation.run",
            "repro.core.agent.MeghScheduler.from_simulation",
        ]
        for qualname in expected:
            assert context.is_reachable(qualname), qualname
        # Witness chains resolve to a human-readable provenance.
        witness = context.witness("repro.cloudsim.simulation.Simulation.run")
        assert "worker entry" in witness

    def test_run_par_without_shared_instances_builds_its_own(self):
        source = "def f():\n    return 1\n"
        module = parse_module(source, path="standalone.py")
        assert module.tree is not None
        assert run_par([(module.path, module.tree)]) == []
