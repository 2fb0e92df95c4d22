"""The names the benchmark harness looks up or patches must exist, and its
workloads must pass its own output and parse-back checks."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import migrate
from migrate.harness import default_config, emit_trace, run_any, save_run_artifacts

SEARCHBENCH = Path(__file__).resolve().parents[1] / "searchbench"
SPANS = SEARCHBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("searchbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_boundaries_resolve():
    spans = load_spans()
    assert spans._BOUNDARIES
    for owner, attr, _ in spans._BOUNDARIES:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_package_exports_resolve():
    for name in migrate.__all__:
        assert hasattr(migrate, name), name


def test_benchmark_workloads_pass_its_checks(tmp_path, monkeypatch):
    # What the benchmark reads of a config and its run: the evaluations of a
    # full iteration (alpha + gamma), the budget, and config.json's round trip.
    spec = importlib.util.spec_from_file_location("searchbench_run", SEARCHBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    # Registered before it runs: its @dataclass looks the module up by name.
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    assert len(run.WORKLOADS) == 3
    for name, workload in run.WORKLOADS.items():
        workload = dataclasses.replace(workload, overrides={**workload.overrides, "budget": 200})
        config = run.make_config(workload, 0)
        trace = run_any(config)
        out = tmp_path / name
        emit_trace(trace, run.TRACE_FORMATS, out)
        save_run_artifacts(trace, out)
        assert run.check_outputs(config, trace) == [], name
        assert run.parse_back(out, config) == [], name


def test_score_new_span_counts_every_new_evaluation(monkeypatch):
    # A score memo must stay inside the span: the benchmark's
    # tasks.score_new.completions count must still see every new evaluation.
    modules = {}
    for name, path in (("spans", SPANS), ("searchbench_run", SEARCHBENCH / "run.py")):
        spec = importlib.util.spec_from_file_location(name, path)
        modules[name] = importlib.util.module_from_spec(spec)
        # run.py imports spans by this name, and its @dataclass looks itself up.
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    spans, run = modules["spans"], modules["searchbench_run"]

    workload = run.WORKLOADS["grids-islands"]
    workload = dataclasses.replace(workload, overrides={**workload.overrides, "budget": 200})
    tracer = spans.Tracer()
    search = run.run_search(workload, 0, tracer)
    assert search.problems == []
    new_evals = sum(r.new_count for r in search.trace.records)
    assert new_evals == search.new_evals > 0
    assert tracer.counts["tasks.score_new.completions"] == new_evals
    # setup_s and harness.build_task.ms see the search's one task build.
    assert [span[0] for span in tracer.spans].count("harness.build_task") == 1


def test_update_counts_read_the_update_policy_call():
    # spans.py counts each update from update_policy's second positional
    # argument, the group, and its returned diagnostics; a signature change
    # that moves either must fail here, not only in traced benchmark runs.
    spans = load_spans()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        run_any(default_config("words", "migrate", seed=1, budget=200, stop_threshold=None))
    counts = {key: tracer.counts[key] for key in
              ("grpo.groups", "grpo.steps", "grpo.tokens", "grpo.clipped_tokens")}
    assert counts == {"grpo.groups": 45, "grpo.steps": 90, "grpo.tokens": 4530,
                      "grpo.clipped_tokens": 0}
