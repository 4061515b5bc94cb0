"""The benchmark's workloads run on the current package: one smoke iteration
of each, checked against its stored reference values, untraced and under
perfbench's tracer, so a change to an API that perfbench reads or traces
fails here rather than in a benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("perfbench_workloads", "workloads.py")
tracer = load("perfbench_tracer", "tracer.py")

CASES = ([pytest.param(name, False, id=name) for name in workloads.WORKLOADS]
         + [pytest.param(name, True, id=f"{name}-traced")
            for name in workloads.WORKLOADS])


@pytest.mark.parametrize("name,traced", CASES)
def test_smoke_iteration_matches_the_reference(tmp_path, name, traced):
    reference = json.loads((BENCH / "reference.json").read_text())["smoke"]
    workload = workloads.make(name, reference["seed"], True, tmp_path)
    outcome = workloads.Outcome()
    spans = tracer.Tracer()
    if traced:
        # as `--trace 1` does: every traced target must still install
        spans.install()
    try:
        workload.iteration(0, outcome)
    finally:
        spans.uninstall()
    workload.check_reference(reference, outcome)
    workload.cleanup()
    assert outcome.failed_cells == set(), outcome.messages
    if traced and name != "desk-sweep":
        # a desk sweep assigns through assign_drops, which is not traced
        assert spans.counts["assignment.error_evals"] > 0
