"""The benchmark's workloads run on the current package: one smoke iteration
of each, checked against its stored reference values, so a change to an API
that perfbench reads fails here rather than in a benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_iteration_matches_the_reference(tmp_path, name):
    reference = json.loads((BENCH / "reference.json").read_text())["smoke"]
    workload = workloads.make(name, reference["seed"], True, tmp_path)
    outcome = workloads.Outcome()
    workload.iteration(0, outcome)
    workload.check_reference(reference, outcome)
    workload.cleanup()
    assert outcome.failed_cells == set(), outcome.messages
