"""Span tracer that measures pilotsim's layers from outside the package.

Tracing rebinds each traced public function in every ``pilotsim`` module
namespace that holds it, so calls the package makes internally (for example
``harness._run_cell`` calling ``evaluate``) go through the wrapper too.
Nothing under ``src/`` changes; ``uninstall`` restores the originals.

A span is ``(id, parent id, name, start, end)``. A span's self time is its
duration minus the part of it that its child spans cover. Spans stay in
memory until the benchmark ends. Everything runs in one process: the traced
workloads never start a pool.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

# (span name, defining module, attribute); "Class.method" patches the class
TARGETS = (
    ("cli.main", "pilotsim.cli", "main"),
    ("harness.run_experiment", "pilotsim.harness", "run_experiment"),
    ("network.generate_drop", "pilotsim.network", "generate_drop"),
    ("network.associate_aps", "pilotsim.network", "associate_aps"),
    ("network.group_strong_ues", "pilotsim.network", "group_strong_ues"),
    ("estimation.compute_gamma", "pilotsim.estimation", "compute_gamma"),
    ("estimation.cache.global_error_profile", "pilotsim.estimation",
     "ContaminationCache.global_error_profile"),
    ("estimation.cache.local_errors", "pilotsim.estimation",
     "ContaminationCache.local_errors"),
    ("estimation.cache.record", "pilotsim.estimation",
     "ContaminationCache.record"),
    ("assignment.assign_all", "pilotsim.assignment", "assign_all"),
    ("assignment.priority_select", "pilotsim.assignment", "priority_select"),
    ("performance.evaluate", "pilotsim.performance", "evaluate"),
    ("performance.collect_lsfd", "pilotsim.performance", "collect_lsfd"),
    ("performance.compute_lsfd", "pilotsim.performance", "compute_lsfd"),
    ("performance.sinr_pfzf", "pilotsim.performance", "sinr_pfzf"),
    ("protocol.run_protocol", "pilotsim.protocol", "run_protocol"),
    ("protocol.audit_overhead", "pilotsim.protocol", "audit_overhead"),
)

SCHEMES = ("eem", "dpb", "random", "scalable")

# assign_all gets one span name per scheme
SPAN_NAMES = tuple(
    n for name, _, _ in TARGETS
    for n in ([f"{name}.{s}" for s in SCHEMES]
              if name == "assignment.assign_all" else [name]))

# exact counts taken from return values and the public counter= hook
COUNT_NAMES = (
    "network.serving_links",       # sum of |M_t| per associated drop
    "network.serving_max",         # largest |M_t| seen
    "network.zf_dims",             # sum of strong-pilot counts per grouping
    "performance.lsfd_flops3",     # sum of |M_t|^3 over LSFD solves
    "assignment.contamination_reads",
    "assignment.error_evals",
    "assignment.intersection_checks",
    "protocol.ues",
    "protocol.messages",
    "protocol.payload",
    "protocol.ap_to_ap",
    "harness.bytes_written",
)


def _after_associate(counts, args, kwargs, result):
    sizes = [len(s) for s in result.serving_aps]
    counts["network.serving_links"] += sum(sizes)
    counts["network.serving_max"] = max(counts["network.serving_max"],
                                        max(sizes))


def _after_group(counts, args, kwargs, result):
    counts["network.zf_dims"] += int(result.strong_pilot_count.sum())


def _after_lsfd(counts, args, kwargs, result):
    # compute_lsfd(t, beta, gamma, powers, assoc, ...): one |M_t|-sized solve
    t = args[0] if args else kwargs["t"]
    assoc = args[4] if len(args) > 4 else kwargs["assoc"]
    counts["performance.lsfd_flops3"] += len(assoc.serving_aps[t]) ** 3


def _after_audit(counts, args, kwargs, result):
    counts["protocol.ues"] += len(result["per_ue"])
    counts["protocol.messages"] += result["total_messages"]
    counts["protocol.payload"] += result["total_payload"]
    counts["protocol.ap_to_ap"] += result["ap_to_ap"]


def _after_experiment(counts, args, kwargs, result):
    _, paths = result
    counts["harness.bytes_written"] += sum(os.path.getsize(p)
                                           for p in paths.values())


_AFTER = {
    "network.associate_aps": _after_associate,
    "network.group_strong_ues": _after_group,
    "performance.compute_lsfd": _after_lsfd,
    "protocol.audit_overhead": _after_audit,
    "harness.run_experiment": _after_experiment,
}


def self_times(spans) -> Counter:
    """Total self time per span name, in seconds.

    Spans nest without overlap in one thread, so the time child spans cover
    is the sum of their durations.
    """
    child_time = Counter()
    for _, parent, _, t0, t1 in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    out = Counter()
    for sid, _, name, t0, t1 in spans:
        out[name] += (t1 - t0) - child_time[sid]
    return out


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.counts = Counter()
        self.stack = []
        self._next = 0
        self._restore = []

    def _wrap(self, name, fn):
        after = _AFTER.get(name)
        is_assign = name == "assignment.assign_all"
        if is_assign:
            from pilotsim.assignment import OpCounter

        def traced(*args, **kwargs):
            span_name = name
            counter = None
            if is_assign:
                span_name = f"{name}.{args[0].scheme_id}"
                if len(args) < 7 and kwargs.get("counter") is None:
                    counter = kwargs["counter"] = OpCounter()
            sid = self._next
            self._next += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans.append((sid, parent, span_name, t0, t1))
                self.calls[span_name] += 1
            if after is not None:
                after(self.counts, args, kwargs, result)
            if counter is not None:
                self.counts["assignment.contamination_reads"] += sum(
                    counter.contamination_reads)
                self.counts["assignment.error_evals"] += sum(counter.error_evals)
                self.counts["assignment.intersection_checks"] += sum(
                    counter.intersection_checks)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "pilotsim" or key.startswith("pilotsim.")]
        for name, module_name, attr in TARGETS:
            # a target the program no longer has reports 0 calls
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is not None:
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []
