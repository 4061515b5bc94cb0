"""Self-test of the benchmark: every workload at tiny sizes (--smoke).

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names comes out with its unit, that
the traced run emits spans for every traced layer, that counts repeat
exactly, and that the correctness gate fails on a corrupted reference value
and without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracer import SPAN_NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = ROOT / ".perfbench_out" / "selftest"
# per-layer metrics that are not exact counts
INEXACT = ("bench.trace_overhead_s", "bench.traced_cells", "harness.parallel_eff")


def run(workload, trace, seed=1, reference=None, cwd=ROOT, check=True):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=180, check=check)
    if not check:
        return out
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


def exact(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if not k.endswith(".self_ms") and k not in INEXACT}


@pytest.fixture(scope="module")
def traced():
    return {w: run(w, 1)[0] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_units(workload):
    result, text = run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac = 0 " in text and "provenance: " in text


def test_per_layer_metrics_and_units(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, result in traced.items():
        assert result["correct"], workload
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_every_traced_layer_emits_spans(traced):
    for span in SPAN_NAMES:
        assert any(r["metrics"][f"{span}.calls"]["value"] > 0
                   for r in traced.values()), span
    modules = {s.split(".")[0] for s in SPAN_NAMES}
    assert modules == {"network", "estimation", "assignment", "performance",
                       "protocol", "harness", "cli"}


def test_protocol_workload_never_evaluates(traced):
    metrics = traced["protocol"]["metrics"]
    for name, value in metrics.items():
        if name.startswith("performance.") and name.endswith(".calls"):
            assert value["value"] == 0, name
    assert metrics["protocol.run_protocol.calls"]["value"] == 1
    assert metrics["protocol.ap_to_ap"]["value"] == 0


def test_counts_repeat_exactly(traced):
    for workload in ("large-drop", "protocol"):
        again, _ = run(workload, 1)
        assert exact(again["metrics"]) == exact(traced[workload]["metrics"])


def test_desk_sweep_times_the_process_pool(traced):
    assert 0 < traced["desk-sweep"]["metrics"]["harness.parallel_eff"]["value"] != 1


@pytest.mark.parametrize("workload", ["desk-sweep", "large-drop"])
def test_corrupted_reference_fails_cells(workload):
    ref = json.loads((HERE / "reference.json").read_text())
    key = sorted(ref["smoke"][workload])[0]
    ref["smoke"][workload][key] *= 1 + 1e-6
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / f"reference-{workload}.json"
    path.write_text(json.dumps(ref))
    result, text = run(workload, 0, reference=path)
    assert not result["correct"] and result["failed"] > 0
    assert f"FAILED ({workload}, seed 1, T=" in text
    assert "max relative sum-SE change vs reference: 1e-06" in text


def test_fails_without_program_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("protocol", 0, cwd=bare, check=False)
    shutil.rmtree(bare)
    assert out.returncode != 0 and out.stdout == ""
