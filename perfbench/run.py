"""pilotsim benchmark: one workload per call, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0

Workloads: desk-sweep, large-drop, protocol (see
workloads.py for what each runs and why), or ``all`` to run each in turn.
With --trace 0 the last line of standard output is a JSON object holding
every end-to-end metric; with --trace 1 it holds every per-layer metric of a
traced run plus the tracing overhead; with ``all``, metric names carry the
workload as prefix. Lines before it repeat the metrics for people, name any
failed cell as (workload, seed, sweep value, drop, scheme), print the
largest relative sum-SE change against the stored reference values (checked
when --seed equals the reference seed, 1) and record the provenance.

The workload runs in a fresh child interpreter with one BLAS thread
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1) and
PYTHONPATH=src; this launcher imports neither numpy nor pilotsim.
set-up time is the median over SETUP_SAMPLES fresh interpreters.

--smoke shrinks every workload to a few cells and --reference replaces the
reference file; test_perfbench.py uses both.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk-sweep", "large-drop", "protocol")
REFERENCE_SEED = 1
SETUP_SAMPLES = 5   # fresh interpreters timed for setup_s; the last one runs
DEADLINE_S = 170.0  # one workload's call must end within 180 s
CAL_REF_MS = 1.0    # child.CAL_REF_S, for the printed scale


def git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def run_child(argv, env, deadline, result_path):
    """Run child.py to completion or kill its whole process group."""
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv,
                             "--result", str(result_path)],
                            cwd=ROOT, env=env, stdout=sys.stderr.fileno(),
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        if proc.poll() is None or rc is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if rc != 0:
        why = "timed out" if rc is None else f"exited {rc}"
        raise SystemExit(f"perfbench: child {why}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def run_workload(args, workload, env, out):
    """Run one workload within its deadline; print its lines, return its result."""
    deadline = time.monotonic() + DEADLINE_S
    child_args = ["--workload", workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--reference", args.reference,
                  "--reference-seed", str(REFERENCE_SEED), "--out", str(out)]
    if args.smoke:
        child_args.append("--smoke")
    result_path = out / f"result-{os.getpid()}.json"
    probes = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            probes.append(run_child(child_args + ["--setup-only"], env, deadline,
                                    result_path))
    result = run_child(child_args, env, deadline, result_path)
    probes.append(result)
    metrics = result["metrics"]
    if args.trace == 0:
        metrics["setup_s"]["value"] = statistics.median(p["setup_s"] for p in probes)

    prov = {"workload": workload, "seed": args.seed, "trace": args.trace,
            "git": git_describe(), "src_lines": src_lines(), **result["provenance"]}
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        raw_setup = statistics.median(p["setup_raw_s"] for p in probes)
        print(f"{workload} setup_s samples: {len(probes)} (measured median "
              f"{raw_setup:.4g} s); "
              f"cell_ms samples: {result['cell_samples']}; host-speed kernel "
              f"median {result['kernel_ms']:.4g} ms (ref_* values are "
              f"measured x {CAL_REF_MS} ms / kernel time)")
    else:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in result["module_share"].items())
        print(f"{workload} self time share by module: {shares}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload} failed_frac = {failed / attempted:.6g} "
          f"({failed}/{attempted} cells)")
    for message in result["messages"]:
        print(f"FAILED {message}")
    drift = result["max_drift"]
    print(f"{workload} max relative sum-SE change vs reference: "
          + (f"{drift:.3g}" if drift is not None
             else f"not checked (reference seed is {REFERENCE_SEED})"))
    result["correct"] = failed == 0 and not result["messages"]
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own test")
    ap.add_argument("--reference", default=str(HERE / "reference.json"))
    args = ap.parse_args()

    if not (ROOT / "src" / "pilotsim" / "__init__.py").is_file():
        print(f"perfbench: no pilotsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"

    if args.workload != "all":
        r = run_workload(args, args.workload, env, out)
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": r["metrics"]}))
        return 0
    # every workload in turn; metric names get the workload as prefix
    results = {w: run_workload(args, w, env, out) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
