"""The benchmark's workloads: inputs from a seed, timed iterations, checks.

Every workload is a closed loop: the next iteration starts when the previous
one has finished. An iteration returns the wall time of the timed program
calls only; generating the workload's own inputs (seeds, arrival orders) and
checking the outputs happen outside the timed region.

- ``desk-sweep``: one iteration is the ROADMAP's end-to-end reference run
  ``pilotsim sweep-ues --desk-scale --workers 1`` (M=30, T in {30, 40, 50,
  60}, 50 drops, all four schemes), called through ``pilotsim.cli.main``.
  A cell is one (T, drop) pair; the CLI gives no per-cell times, so each
  iteration yields one cell-time sample, its wall time over its cell count.
  Traced calls also time the same sweep with ``--workers 2``.
- ``large-drop``: M=200, T=400; one iteration is one drop driven through
  ``generate_drop``, ``associate_aps``, then ``assign_all`` and ``evaluate``
  per scheme. A cell is one (drop, scheme) pair and carries a quarter of
  the drop's shared generation and association time.
- ``protocol``: M=100, T=100; one cell is one drop with a seeded arrival
  order: ``run_protocol``, ``audit_overhead``, a direct ``assign_all`` on the
  same order and an exact equality check, as ``pilotsim protocol-audit``
  does. An iteration is a batch of ten cells. It never calls ``evaluate``.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from pilotsim import assignment, cli, network, performance, protocol
from pilotsim.harness import SCHEME_CODE, derive_seed

SCHEMES = assignment.SCHEME_IDS
REL_TOL = 1e-9  # round-off allowance for reference sum-SE values


def _rel_change(value, ref) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


class Outcome:
    """Failures and drift found by a workload's checks."""

    def __init__(self):
        self.failed_cells = set()
        self.messages = []
        self.max_drift = None

    def fail(self, cells, detail):
        """Record failing cells, each (workload, seed, T, drop, scheme)."""
        workload, seed, value, drop, scheme = cells[0]
        if len(cells) > 1:
            drop = "*"
        self.failed_cells.update(cells)
        self.messages.append(f"({workload}, seed {seed}, T={value}, "
                             f"drop={drop}, scheme={scheme}): {detail}")

    def drift(self, value):
        self.max_drift = value if self.max_drift is None else max(self.max_drift, value)


class DeskSweep:
    """`pilotsim sweep-ues --desk-scale` through `pilotsim.cli.main`."""

    window_iterations = 1

    def __init__(self, name, seed, smoke, workers, out_root):
        self.name, self.seed, self.workers = name, seed, workers
        self.out = out_root / name
        shutil.rmtree(self.out, ignore_errors=True)
        self.argv = ["sweep-ues", "--desk-scale", "--workers", str(workers),
                     "--seed", str(seed), "--out", str(self.out)]
        self.values, drops = (30, 40, 50, 60), 50
        if smoke:
            self.values, drops = (30, 40), 2
            self.argv += ["--drops", str(drops),
                          "--values", ",".join(map(str, self.values))]
        self.cells_per_iteration = len(self.values) * drops
        self.drops = drops
        self.first = None

    def iteration(self, index, outcome):
        t0 = time.perf_counter()
        rc = cli.main(self.argv)
        wall = time.perf_counter() - t0
        if rc != 0:
            outcome.fail([(self.name, self.seed, "*", "*", "*")],
                         f"iteration {index}: pilotsim exited with {rc}")
            return wall, [wall / self.cells_per_iteration]
        results = (self.out / "sweep_ues_results.csv").read_bytes()
        aggregates = (self.out / "sweep_ues_aggregates.csv").read_bytes()
        if self.first is None:
            self.first = (results, aggregates)
            self._check_rows(results, aggregates, outcome)
        elif (results, aggregates) != self.first:
            outcome.fail([(self.name, self.seed, "*", "*", "*")],
                         f"iteration {index}: rerun on one seed changed the CSVs")
        return wall, [wall / self.cells_per_iteration]

    def _check_rows(self, results, aggregates, outcome):
        lines = results.decode().splitlines()[1:]
        seen = {}
        for line in lines:
            scheme, value, drop_seed, *se = line.split(",")
            cell = (self.name, self.seed, float(value), int(drop_seed), scheme)
            vals = np.array([float(x) for x in se])
            seen.setdefault(float(value), set()).add(int(drop_seed))
            if not np.all(np.isfinite(vals)) or np.any(vals < 0):
                outcome.fail([cell], f"SE not finite and >= 0: {line}")
        for value in self.values:
            if len(seen.get(float(value), ())) != self.drops:
                outcome.fail([(self.name, self.seed, float(value), "*", "*")],
                             f"expected {self.drops} drops")
        if len(lines) != self.cells_per_iteration * len(SCHEMES):
            outcome.fail([(self.name, self.seed, "*", "*", "*")],
                         f"expected {self.cells_per_iteration * len(SCHEMES)} rows, "
                         f"got {len(lines)}")
        self.means = {}
        for line in aggregates.decode().splitlines()[1:]:
            scheme, value, _, mean_sum_se, *_ = line.split(",")
            self.means[f"{scheme},{int(float(value))}"] = float(mean_sum_se)

    def check_reference(self, ref, outcome):
        """Per-(scheme, T) mean sum-SE against the stored values."""
        if self.first is None:
            return
        for key, want in ref["desk-sweep"].items():
            scheme, value = key.split(",")
            got = self.means.get(key)
            if got is None:
                change = float("inf")
            else:
                change = _rel_change(got, want)
            outcome.drift(change)
            if change > REL_TOL:
                # every cell of that sweep value fed the mean
                cells = [(self.name, self.seed, float(value), drop, scheme)
                         for drop in range(self.drops)]
                outcome.fail(cells, f"mean sum-SE {got!r} vs reference {want!r}")

    def reference_values(self):
        return dict(self.means)

    def cleanup(self):
        shutil.rmtree(self.out, ignore_errors=True)


class LargeDrop:
    """generate_drop -> associate_aps -> assign_all -> evaluate, per scheme."""

    window_iterations = 4

    def __init__(self, name, seed, smoke):
        self.name, self.seed = name, seed
        self.cfg = network.NetworkConfig(
            **(dict(num_aps=30, num_ues=50) if smoke
               else dict(num_aps=200, num_ues=400)))
        if smoke:
            self.window_iterations = 2
        self.powers = network.normalize_powers(self.cfg)
        self.cells_per_iteration = len(SCHEMES)
        self.sum_se = {}

    def iteration(self, index, outcome):
        drop_seed = derive_seed(self.seed, 0, index)
        schemes = [assignment.SchemeConfig(
            s, seed=derive_seed(self.seed, 0, index, 100 + SCHEME_CODE[s]))
            for s in SCHEMES]
        cfg, powers = self.cfg, self.powers
        t0 = time.perf_counter()
        real = network.generate_drop(cfg, drop_seed)
        assoc = network.associate_aps(real, cfg.assoc_threshold)
        shared = (time.perf_counter() - t0) / len(SCHEMES)
        cell_times, reports = [], []
        for scheme in schemes:
            t1 = time.perf_counter()
            pilots = assignment.assign_all(scheme, real, assoc, powers,
                                           cfg.pilot_length)
            report = performance.evaluate(real, assoc, pilots, powers, cfg)
            cell_times.append(shared + time.perf_counter() - t1)
            reports.append(report)
        for scheme, report in zip(SCHEMES, reports):
            cell = (self.name, self.seed, cfg.num_ues, index, scheme)
            if not np.all(np.isfinite(report.se)) or np.any(report.se < 0):
                outcome.fail([cell], "SE not finite and >= 0")
            self.sum_se[f"{index},{scheme}"] = report.sum_se
        return sum(cell_times), cell_times

    def check_reference(self, ref, outcome):
        """Per-cell sum-SE against the stored values, for the drops both have."""
        for key, got in self.sum_se.items():
            want = ref["large-drop"].get(key)
            if want is None:
                continue
            change = _rel_change(got, want)
            outcome.drift(change)
            if change > REL_TOL:
                drop, scheme = key.split(",")
                cell = (self.name, self.seed, self.cfg.num_ues, int(drop), scheme)
                outcome.fail([cell], f"sum-SE {got!r} vs reference {want!r}")

    def reference_values(self):
        return dict(self.sum_se)

    def cleanup(self):
        pass


class Protocol:
    """run_protocol -> audit_overhead -> direct assign_all, then compare."""

    window_iterations = 2

    def __init__(self, name, seed, smoke):
        self.name, self.seed = name, seed
        self.cfg = network.NetworkConfig(
            **(dict(num_aps=30, num_ues=50) if smoke
               else dict(num_aps=100, num_ues=100)))
        self.batch = 2 if smoke else 10
        self.powers = network.normalize_powers(self.cfg)
        self.cells_per_iteration = self.batch

    def iteration(self, index, outcome):
        cfg, powers = self.cfg, self.powers
        cell_times = []
        for drop in range(index * self.batch, (index + 1) * self.batch):
            drop_seed = derive_seed(self.seed, 0, drop)
            order = np.random.default_rng([self.seed, drop]).permutation(cfg.num_ues)
            scheme = assignment.SchemeConfig(
                "dpb", seed=derive_seed(self.seed, 0, drop, 100 + SCHEME_CODE["dpb"]))
            t0 = time.perf_counter()
            real = network.generate_drop(cfg, drop_seed)
            assoc = network.associate_aps(real, cfg.assoc_threshold)
            negotiated, log = protocol.run_protocol(real, assoc, scheme, order,
                                                    powers, cfg.pilot_length)
            try:
                report = protocol.audit_overhead(log, assoc, scheme.dpb_s)
            except protocol.BudgetViolation as exc:
                report = exc
            direct = assignment.assign_all(scheme, real, assoc, powers,
                                           cfg.pilot_length, order=order)
            same = np.array_equal(negotiated.pilot_of, direct.pilot_of)
            cell_times.append(time.perf_counter() - t0)
            cell = (self.name, self.seed, cfg.num_ues, drop, "dpb")
            if isinstance(report, protocol.BudgetViolation):
                outcome.fail([cell], f"budget violation: {report}")
            elif report["ap_to_ap"] != 0:
                outcome.fail([cell], f"{report['ap_to_ap']} AP-to-AP messages")
            if not same:
                outcome.fail([cell], "protocol and direct assignment differ")
        return sum(cell_times), cell_times

    def check_reference(self, ref, outcome):
        pass

    def cleanup(self):
        pass


WORKLOADS = ("desk-sweep", "large-drop", "protocol")


def make(name, seed, smoke, out_root):
    if name == "desk-sweep":
        return DeskSweep(name, seed, smoke, 1, out_root)
    if name == "large-drop":
        return LargeDrop(name, seed, smoke)
    if name == "protocol":
        return Protocol(name, seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
