"""One workload in a fresh interpreter; started by run.py, not by hand.

Writes one JSON result to --result. With --setup-only it only times the
set-up (import pilotsim, build the workload's inputs). With --trace 0 it
runs the untraced timed loop and checks the outputs. With --trace 1 it runs
an untraced pass and a traced pass of half the time each, and reports
per-layer numbers and the tracing overhead.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import COUNT_NAMES, SPAN_NAMES, Tracer, self_times  # noqa: E402

MIN_CELLS = 100  # p90 of per-cell times needs >= 10 samples beyond it

# The host these runs share changes speed by up to 40% within seconds to
# minutes. Untraced timings are therefore scaled to a reference host: a
# SIGALRM handler times a fixed kernel every SAMPLE_EVERY_S seconds, and each
# iteration's times are multiplied by CAL_REF_S over the median kernel time
# sampled during it. The kernel's own time is taken out of the iteration.
# Set-up time is scaled by the kernel timed right after it.
SAMPLE_EVERY_S = 0.2
SAMPLE_PAD_S = 0.5  # also use samples this close to a short iteration
CAL_REF_S = 0.001
SETUP_KERNEL_RUNS = 20
_CAL_ARRAY = np.random.default_rng(0).random((30, 30))


def kernel():
    """An interpreter loop and small numpy calls, the mix pilotsim's per-UE
    loops spend their time on."""
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    for _ in range(50):
        _CAL_ARRAY.sum(axis=0)
        np.argsort(_CAL_ARRAY[0])


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel timings (start, duration) taken from SIGALRM while entered."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append((time.perf_counter(), timed_kernel()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a pass shorter than one interval
            self._sample(None, None)

    def scale(self, t0, t1, wall, cell_times):
        """Times of an iteration run over [t0, t1], at reference-host speed."""
        near = [d for s, d in self.samples
                if t0 - SAMPLE_PAD_S <= s <= t1 + SAMPLE_PAD_S]
        near = near or [d for _, d in self.samples]
        factor = CAL_REF_S / statistics.median(near)
        inside = sum(d for s, d in self.samples if t0 <= s <= t1)
        own = (wall - inside) / wall  # kernel time is spread over the cells
        return (wall - inside) * factor, [c * own * factor for c in cell_times]


def run_pass(wl, seconds, outcome, min_cells=0, min_iterations=1,
             on_iteration=None, host=None):
    """Closed loop: start another iteration only while it should end in time.

    With `host` (an entered HostSpeed), times are scaled to reference-host
    speed once the loop has ended.
    """
    walls, spans = [], []
    start = time.perf_counter()
    while (len(walls) < min_iterations
           or len(walls) * wl.cells_per_iteration < min_cells
           or time.perf_counter() - start + statistics.median(walls) <= seconds):
        t0 = time.perf_counter()
        wall, cell_times = wl.iteration(len(walls), outcome)
        spans.append((t0, time.perf_counter(), wall, cell_times))
        walls.append(wall)
        if on_iteration is not None:
            on_iteration(len(walls))
    if host is not None:
        scaled = [host.scale(*span) for span in spans]
        walls = [w for w, _ in scaled]
        samples = [c for _, cells in scaled for c in cells]
    else:
        samples = [c for *_, cells in spans for c in cells]
    cells = len(walls) * wl.cells_per_iteration
    # means move smoothly as host contention comes and goes; medians jump
    return {"walls": walls, "samples": samples, "cells": cells,
            "cells_per_s": cells / sum(walls),
            "wall_s": statistics.fmean(walls)}


def end_to_end(result, setup_s):
    p50, p90 = np.percentile(np.array(result["samples"]) * 1e3, [50, 90])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (result["wall_s"], "ref_s"),
        "cells_per_s": (result["cells_per_s"], "1/ref_s"),
        "cell_ms_p50": (float(p50), "ref_ms"),
        "cell_ms_p90": (float(p90), "ref_ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(untraced, traced, self_s, window, parallel_eff):
    calls, counts, window_cells = window
    cells = traced["cells"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] / window_cells, "calls/cell")
        out[f"{name}.self_ms"] = (self_s[name] * 1e3 / cells, "ms/cell")
    ues = max(counts["protocol.ues"], 1)
    out.update({
        "performance.lsfd_flops_computed": (
            counts["performance.lsfd_flops3"] / 3 / window_cells, "flop/cell"),
        "network.serving_links": (
            counts["network.serving_links"] / window_cells, "count/cell"),
        "network.serving_max": (counts["network.serving_max"], "count"),
        "network.zf_dims": (counts["network.zf_dims"] / window_cells, "count/cell"),
        "assignment.contamination_reads": (
            counts["assignment.contamination_reads"] / window_cells, "count/cell"),
        "assignment.error_evals": (
            counts["assignment.error_evals"] / window_cells, "count/cell"),
        "assignment.intersection_checks": (
            counts["assignment.intersection_checks"] / window_cells, "count/cell"),
        "protocol.messages_per_ue": (counts["protocol.messages"] / ues, "count/UE"),
        "protocol.payload_per_ue": (counts["protocol.payload"] / ues, "count/UE"),
        "protocol.ap_to_ap": (counts["protocol.ap_to_ap"], "count"),
        "harness.bytes_written": (
            counts["harness.bytes_written"] / window_cells, "B/cell"),
        "harness.parallel_eff": (parallel_eff, "ratio"),
        "bench.trace_overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
        "bench.traced_cells": (cells, "count"),
    })
    return out


def traced_run(args, wl, outcome, out_root):
    """Untraced pass, traced pass, and for desk-sweep a 2-worker pass."""
    half = args.seconds / 2
    untraced = run_pass(wl, half, outcome)
    tracer = Tracer()
    window = None

    def snapshot(done):
        # calls and counts over the first window_iterations repeat exactly
        nonlocal window
        if done == wl.window_iterations:
            window = ({k: tracer.calls.get(k, 0) for k in SPAN_NAMES},
                      {k: tracer.counts.get(k, 0) for k in COUNT_NAMES},
                      done * wl.cells_per_iteration)

    tracer.install()
    try:
        traced = run_pass(wl, half, outcome, min_iterations=wl.window_iterations,
                          on_iteration=snapshot)
    finally:
        tracer.uninstall()
    passes = [untraced, traced]
    parallel_eff = 1.0
    if args.workload == "desk-sweep":
        # the only pass through harness.run_experiment's process pool
        pool = workloads.DeskSweep("desk-sweep-2w", args.seed, args.smoke, 2,
                                   out_root)
        two = run_pass(pool, half, outcome)
        pool.cleanup()
        passes.append(two)
        parallel_eff = two["cells_per_s"] / (2 * untraced["cells_per_s"])
    self_s = self_times(tracer.spans)
    shares = {}
    for name, seconds in self_s.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + seconds
    total = sum(shares.values()) or 1.0
    module_share = {k: v / total for k, v in sorted(shares.items())}
    metrics = per_layer(untraced, traced, self_s, window, parallel_eff)
    return passes, metrics, module_share


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", required=True)
    ap.add_argument("--reference-seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    out_root = Path(args.out)
    wl = workloads.make(args.workload, args.seed, args.smoke, out_root)
    setup_raw_s = time.perf_counter() - T_START
    # scaled like the loop's timings, by the kernel timed right after set-up
    kernel_s = statistics.median(timed_kernel() for _ in range(SETUP_KERNEL_RUNS))
    setup_s = setup_raw_s * CAL_REF_S / kernel_s
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return

    outcome = workloads.Outcome()
    if args.trace == 0:
        with HostSpeed() as host:
            timed = run_pass(wl, args.seconds, outcome,
                             min_cells=0 if args.smoke else MIN_CELLS, host=host)
        passes = [timed]
        metrics = end_to_end(timed, setup_s)
        result["cell_samples"] = len(timed["samples"])
        result["kernel_ms"] = statistics.median(d for _, d in host.samples) * 1e3
    else:
        passes, metrics, result["module_share"] = traced_run(args, wl, outcome,
                                                             out_root)

    ref_all = json.loads(Path(args.reference).read_text())
    ref = ref_all["smoke" if args.smoke else "full"]
    if args.seed == args.reference_seed:
        wl.check_reference(ref, outcome)
    wl.cleanup()

    result.update({
        # passes repeat the same cell sequence from its start
        "attempted": max(p["cells"] for p in passes),
        "failed": len(outcome.failed_cells),
        "messages": outcome.messages,
        "max_drift": outcome.max_drift,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "provenance": provenance(),
    })
    Path(args.result).write_text(json.dumps(result))


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.strip().endswith(".so")})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def provenance():
    import os
    import platform

    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{sp_blas.get('name')} {sp_blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": _blas_threads(),
    }


if __name__ == "__main__":
    main()
