"""Experiment driver: sweeps, Monte-Carlo drops, CSV/JSON outputs.

Seeding discipline: `cell_seeds` is the one seeding rule. A cell's drop
seed depends only on (master_seed, sweep index, drop index), so every scheme
scores the identical drop and adding schemes never perturbs the geometry.
Scheme-level randomness gets its own derived seed per (sweep, drop, scheme).
Each seed is `seeding.derive_seed` of those parts, made for a whole chunk
at once by `seeding.derive_seeds`.

The work unit is a chunk of ceil(num_drops / workers) drops of one sweep
value, at most `_CHUNK_DROPS` (25) of them: each scheme assigns pilots on
the whole chunk as one stack in one batched loop, the schemes' (D, T) pilot
arrays make one (D, S, T) array, one `evaluate_drops` call scores it (in
passes whose size performance sets), and rows stay per drop. A chunk that
fails reruns each of its cells through `_run_chunk`, the path that makes
the rows, to name its (sweep value, drop seed, scheme), or names the chunk
if every cell passes.
Each (drop, scheme) cell's co-pilot products take its own largest pilot
load, so neither the worker count, which sets the chunks, nor the scheme
list moves a row. Rows are sorted deterministically and files are written
via write-then-rename, so reruns are byte-identical regardless of worker
count.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import seeding
from .assignment import SCHEME_IDS, SchemeConfig, assign_drops
from .network import (NetworkConfig, associate_aps, generate_drop,
                      normalize_powers, require_integer)
from .performance import evaluate_drops, se_uplink
from .seeding import derive_seed  # re-exported: perfbench imports it here

__all__ = [
    "CellError",
    "SCHEME_CODE",
    "SWEEP_FIELDS",
    "DPB_OPTIONS",
    "ExperimentSpec",
    "ResultRow",
    "derive_seed",
    "cell_seeds",
    "run_experiment",
    "emit_cdf",
]

SCHEME_CODE = {s: i for i, s in enumerate(SCHEME_IDS)}

SWEEP_FIELDS = {
    "ue_count": "num_ues",
    "pilot_length": "pilot_length",
    "assoc_threshold": "assoc_threshold",
    "none": None,
}

# the run-wide scheme options; scheme_id and seed are set per cell
DPB_OPTIONS = tuple(f.name for f in dataclasses.fields(SchemeConfig)
                    if f.name not in ("scheme_id", "seed"))

_CSV_HEADER = "scheme,sweep_value,drop_seed,sum_se,p5_se,p10_se,mean_se"

# most drops in one work unit, which each scheme assigns as one stack. A
# sequential scheme's loop over UEs costs about as much per step for 25
# drops as for 6: at desk scale (M=30, T=60) the four schemes take about
# 0.6 of a 6-drop stack's time per drop at 25 drops, and 50 drops save
# about 5% more. The chunk's drops are held throughout, about 23 kB a drop
# at desk scale, and its assignment stack adds about 52 kB a drop
_CHUNK_DROPS = 25


class CellError(RuntimeError):
    """One cell failed: its drop, its association or one of its schemes;
    or a chunk failed where each of its cells passes alone.

    The message names the cell or chunk; the original error is the cause.
    """


def _cell_error(where: str, exc: Exception) -> CellError:
    return CellError(f"{where}: {type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class ExperimentSpec:
    config: NetworkConfig
    sweep: str
    sweep_values: tuple
    schemes: tuple
    num_drops: int
    master_seed: int
    output_dir: str
    name: str = "experiment"
    dpb: SchemeConfig = SchemeConfig("dpb")
    workers: int = 1

    def __post_init__(self):
        if self.sweep not in SWEEP_FIELDS:
            raise ValueError(f"unknown sweep {self.sweep!r}")
        for name in ("num_drops", "workers", "master_seed"):
            require_integer(name, getattr(self, name))
        if self.num_drops < 1 or self.workers < 1:
            raise ValueError("num_drops and workers must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        unknown = [s for s in self.schemes if s not in SCHEME_IDS]
        if unknown:
            raise ValueError(f"unknown schemes {unknown}")
        if not self.schemes or not self.sweep_values:
            raise ValueError("need at least one scheme and one sweep value")
        # as Python numbers, since the CSVs write each value's repr
        object.__setattr__(self, "sweep_values", tuple(
            v.item() if isinstance(v, np.generic) else v
            for v in self.sweep_values))
        for name in ("schemes", "sweep_values"):
            items = list(getattr(self, name))
            if len(set(items)) != len(items):
                raise ValueError(f"{name.replace('_', ' ')} must be distinct, "
                                 f"got {items}")
        for v in self.sweep_values:
            self.config_for(v)  # NetworkConfig validates each swept value

    def config_for(self, value) -> NetworkConfig:
        field = SWEEP_FIELDS[self.sweep]
        if field is None:
            return self.config
        return replace(self.config, **{field: value})


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    sweep_value: float
    drop_seed: int
    sum_se: float
    p5_se: float
    p10_se: float
    mean_se: float
    per_user: np.ndarray | None = None

    def csv_line(self) -> str:
        return (f"{self.scheme},{self.sweep_value!r},{self.drop_seed},"
                f"{self.sum_se!r},{self.p5_se!r},{self.p10_se!r},{self.mean_se!r}")


def cell_seeds(master_seed, sweep_idx, drop_idxs, scheme_ids) -> tuple:
    """The drop seeds of one sweep value's drops `drop_idxs`, and each
    scheme's seeds on them: `derive_seed(master_seed, sweep_idx, d)` for
    each drop d, then one list per scheme of
    `derive_seed(master_seed, sweep_idx, d, 100 + SCHEME_CODE[scheme])`.
    Each part's entropy words are made once."""
    words, derive = seeding.entropy_words, seeding.derive_seeds
    prefix = words(master_seed) + words(sweep_idx)
    drops = [prefix + words(d) for d in drop_idxs]
    codes = [words(100 + SCHEME_CODE[s]) for s in scheme_ids]
    seeds = derive([drop + code for code in codes for drop in drops])
    n = len(drops)
    return derive(drops), [seeds[k * n:(k + 1) * n]
                           for k in range(len(codes))]


def _rows(spec: ExperimentSpec, value, drop_seeds, se) -> list:
    """Result rows of drops scored on one sweep value, from their (D, S, T)
    stack of per-UE SE, schemes in spec order. One call per statistic
    covers every drop."""
    sums, means = se.sum(axis=2).tolist(), se.mean(axis=2).tolist()
    tails = np.percentile(se, (5.0, 10.0), axis=2).tolist()
    return [ResultRow(scheme_id, value, drop_seed, total, p5, p10, mean,
                      np.sort(ues) if spec.sweep == "none" else None)
            for drop_seed, drop_se, drop_sums, drop_means, p5s, p10s
            in zip(drop_seeds, se, sums, means, *tails)
            for scheme_id, ues, total, mean, p5, p10
            in zip(spec.schemes, drop_se, drop_sums, drop_means, p5s, p10s)]


def _run_chunk(args) -> list:
    """All schemes on a chunk of drops of one sweep value.

    One `cell_seeds` call gives the chunk's drop and scheme seeds. Each
    drop is built and associated on its own, and a failure there names
    its drop seed. Each scheme assigns its pilots on every drop of the chunk
    in one `assign_drops` call, a stack of up to `_CHUNK_DROPS` drops, and
    the schemes' (D, T) pilot arrays make one (D, S, T) array. Then one
    `evaluate_drops` call scores every drop's schemes, and one `se_uplink`
    call maps the SINRs to the per-UE SE that makes every row. If either
    fails, each (drop, scheme) cell reruns alone through `_run_chunk`, in
    that order, and the first to fail names its drop seed and scheme; if
    none fails, the error names the chunk. A cell's seeds do not depend on
    its chunk, so a one-cell run makes the cell's row.
    """
    spec, sweep_idx, drop_idxs = args
    value = spec.sweep_values[sweep_idx]
    cfg = spec.config_for(value)
    where = f"{spec.sweep}={value!r}"
    drop_seeds, scheme_seeds = cell_seeds(spec.master_seed, sweep_idx,
                                          drop_idxs, spec.schemes)
    reals, assocs = [], []
    for seed in drop_seeds:
        try:
            reals.append(generate_drop(cfg, seed))
            assocs.append(associate_aps(reals[-1], cfg.assoc_threshold))
        except Exception as exc:
            raise _cell_error(f"{where}, drop seed {seed}", exc) from exc
    powers = normalize_powers(cfg)
    try:
        pilot_of = np.stack([
            assign_drops(replace(spec.dpb, scheme_id=scheme_id), seeds,
                         reals, assocs, powers, cfg.pilot_length)
            for scheme_id, seeds in zip(spec.schemes, scheme_seeds)],
            axis=1)
        se = se_uplink(evaluate_drops(reals, assocs, pilot_of, powers, cfg),
                       cfg.coherence_block, cfg.pilot_length)
    except Exception as exc:
        if len(drop_seeds) == len(spec.schemes) == 1:
            raise _cell_error(f"{where}, drop seed {drop_seeds[0]}, "
                              f"scheme {spec.schemes[0]}", exc) from exc
        for di in drop_idxs:
            for scheme_id in spec.schemes:
                _run_chunk((replace(spec, schemes=(scheme_id,)), sweep_idx,
                            range(di, di + 1)))
        raise _cell_error(f"{where}, drop seeds {list(drop_seeds)}",
                          exc) from exc
    return _rows(spec, value, drop_seeds, se)


def _write_atomic(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_meta(path: Path, config: NetworkConfig, dpb: SchemeConfig,
                num_drops: int, master_seed: int, **fields) -> Path:
    """Write a run's `*_meta.json`: its inputs, the DPB options, the
    checkout's git state and the Python and numpy versions."""
    meta = {
        "config": dataclasses.asdict(config),
        "num_drops": num_drops,
        "master_seed": master_seed,
        **{name: getattr(dpb, name) for name in DPB_OPTIONS},
        **fields,
        "git": _git_describe(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    _write_atomic(path, json.dumps(meta, indent=2, sort_keys=True,
                                   default=np.generic.item) + "\n")
    return path


def _git_describe() -> str:
    """State of the checkout holding this package, wherever the run started."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _aggregate(rows) -> str:
    lines = ["scheme,sweep_value,num_drops,mean_sum_se,stderr_sum_se,"
             "mean_p5_se,mean_p10_se,mean_user_se"]
    keys = sorted({(r.sweep_value, r.scheme) for r in rows})
    for value, scheme in keys:
        group = [r for r in rows if r.sweep_value == value and r.scheme == scheme]
        sums = np.array([r.sum_se for r in group])
        stderr = float(sums.std(ddof=1) / np.sqrt(sums.size)) if sums.size > 1 else 0.0
        lines.append(
            f"{scheme},{value!r},{sums.size},{float(sums.mean())!r},{stderr!r},"
            f"{float(np.mean([r.p5_se for r in group]))!r},"
            f"{float(np.mean([r.p10_se for r in group]))!r},"
            f"{float(np.mean([r.mean_se for r in group]))!r}")
    return "\n".join(lines) + "\n"


def run_experiment(spec: ExperimentSpec):
    """Execute the full grid; returns (rows, {kind: path}).

    Row order in memory and on disk is (sweep_value, drop_seed, scheme),
    independent of evaluation order and of the worker count.
    """
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta_path = _write_meta(out_dir / f"{spec.name}_meta.json", spec.config,
                            spec.dpb, spec.num_drops, spec.master_seed,
                            sweep=spec.sweep,
                            sweep_values=list(spec.sweep_values),
                            schemes=list(spec.schemes))
    size = min(-(-spec.num_drops // spec.workers), _CHUNK_DROPS)
    chunks = [(spec, si, range(lo, min(lo + size, spec.num_drops)))
              for si in range(len(spec.sweep_values))
              for lo in range(0, spec.num_drops, size)]
    # a pool forks all its workers at once, so none beyond the chunks
    workers = min(spec.workers, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(_run_chunk, chunks))
    else:
        nested = [_run_chunk(c) for c in chunks]
    rows = sorted((r for cell in nested for r in cell),
                  key=lambda r: (r.sweep_value, r.drop_seed, r.scheme))

    results_path = out_dir / f"{spec.name}_results.csv"
    body = "\n".join([_CSV_HEADER] + [r.csv_line() for r in rows]) + "\n"
    _write_atomic(results_path, body)

    agg_path = out_dir / f"{spec.name}_aggregates.csv"
    _write_atomic(agg_path, _aggregate(rows))

    return rows, {"results": results_path, "aggregates": agg_path,
                  "metadata": meta_path}


def emit_cdf(rows, scheme: str, out_path) -> Path:
    """Pool per-user SE across drops for one scheme and write the CDF.

    Only rows of the `none` sweep carry per-user SE. Ordinates follow the
    midpoint convention (k - 0.5)/n over the sorted pooled sample.
    """
    detail = [r.per_user for r in rows if r.scheme == scheme]
    if not detail:
        raise ValueError(f"no rows for scheme {scheme!r}")
    if any(d is None for d in detail):
        raise ValueError("rows lack per-user detail; only the none sweep keeps it")
    pooled = np.sort(np.concatenate(detail))
    n = pooled.size
    ordinates = (np.arange(1, n + 1) - 0.5) / n
    lines = ["se,cdf"]
    lines += [f"{float(se)!r},{float(c)!r}" for se, c in zip(pooled, ordinates)]
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_path, "\n".join(lines) + "\n")
    return out_path
