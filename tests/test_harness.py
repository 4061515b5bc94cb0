"""Experiment harness: seeding discipline, file outputs, CLI plumbing."""

import dataclasses
import importlib
import json
import pickle
import platform
import re
import subprocess
import types
from pathlib import Path

import numpy as np
import pytest

import pilotsim
from pilotsim import (
    SCHEME_CODE,
    SCHEME_IDS,
    BudgetViolation,
    CellError,
    ExperimentSpec,
    NetworkConfig,
    PilotAssignment,
    ResultRow,
    SchemeConfig,
    assign_all,
    associate_aps,
    derive_seed,
    emit_cdf,
    generate_drop,
    normalize_powers,
    run_experiment,
    se_uplink,
)
from pilotsim import cli, harness, performance
from pilotsim.cli import main
from pilotsim.harness import cell_seeds
from pilotsim.performance import evaluate_drops
from probes import pilot_stack
# the seed tests live in test_seeding.py; they are also collected here,
# under the ids they had before they moved
from test_seeding import TestCellSeeds, TestDeriveSeed  # noqa: F401


def tiny_config(**over):
    base = dict(num_aps=8, num_ues=12, antennas_per_ap=8, pilot_length=7)
    base.update(over)
    return NetworkConfig(**base)


def tiny_spec(tmp_path, **over):
    base = dict(config=tiny_config(), sweep="ue_count", sweep_values=(10, 13),
                schemes=("eem", "dpb", "random"), num_drops=4, master_seed=3,
                output_dir=str(tmp_path), name="t")
    base.update(over)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, sweep="bandwidth")
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, schemes=("eem", "genie"))
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, num_drops=0)
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, schemes=())

    @pytest.mark.parametrize("name,value", [
        ("num_drops", 2.5), ("num_drops", 4.0), ("workers", 1.0),
        ("master_seed", 2.5)])
    def test_rejects_non_integral_counts(self, tmp_path, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            tiny_spec(tmp_path, **{name: value})
        assert tiny_spec(tmp_path, **{name: np.int64(2)}).config is not None

    def test_rejects_negative_seed(self, tmp_path):
        with pytest.raises(ValueError, match="^master_seed must be >= 0, got -1$"):
            tiny_spec(tmp_path, master_seed=-1)
        assert tiny_spec(tmp_path, master_seed=0).master_seed == 0

    @pytest.mark.parametrize("values", [(10, 10), (10, 13, 10.0)])
    def test_rejects_repeated_sweep_values(self, tmp_path, values):
        with pytest.raises(ValueError, match="^sweep values must be distinct"):
            tiny_spec(tmp_path, sweep_values=values)

    @pytest.mark.parametrize("schemes", [("eem", "eem"),
                                         ("dpb", "random", "dpb")])
    def test_rejects_repeated_schemes(self, tmp_path, schemes):
        with pytest.raises(ValueError, match=(
                rf"^schemes must be distinct, got \{list(schemes)}$")):
            tiny_spec(tmp_path, schemes=schemes)

    def test_swept_values_are_validated_eagerly(self, tmp_path):
        # pilot length 9 would exceed the 8 antennas: must fail at spec time
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, sweep="pilot_length", sweep_values=(5, 9))

    def test_config_for(self, tmp_path):
        spec = tiny_spec(tmp_path)
        assert spec.config_for(10).num_ues == 10
        assert spec.config_for(13).num_aps == spec.config.num_aps
        none_spec = tiny_spec(tmp_path, sweep="none", sweep_values=(0,))
        assert none_spec.config_for(0) is none_spec.config


class TestRunExperiment:
    @pytest.mark.parametrize("sweep,values", [("ue_count", (10, 13)),
                                              ("assoc_threshold", (0.9, 0.95))])
    def test_numpy_scalars_write_the_same_files(self, tmp_path, sweep,
                                                values):
        # a spec of numpy scalars writes the CSVs of one of Python numbers,
        # byte for byte, and the same meta
        def files(out, cast, integer):
            spec = tiny_spec(out, config=tiny_config(num_aps=integer(8)),
                             sweep=sweep,
                             sweep_values=tuple(map(cast, values)),
                             num_drops=integer(2), master_seed=integer(1),
                             dpb=SchemeConfig("dpb", dpb_s=integer(2)))
            _, paths = run_experiment(spec)
            return {kind: path.read_text() for kind, path in paths.items()}

        want = files(tmp_path / "python", type(values[0]), int)
        got = files(tmp_path / "numpy", np.asarray(values).dtype.type,
                    np.int64)
        assert json.loads(got.pop("metadata")) == json.loads(
            want.pop("metadata"))
        assert got == want

    def test_grid_shape_and_order(self, tmp_path):
        spec = tiny_spec(tmp_path)
        rows, paths = run_experiment(spec)
        assert len(rows) == 2 * 4 * 3
        keys = [(r.sweep_value, r.drop_seed, r.scheme) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert r.scheme in spec.schemes
            assert r.sum_se > 0 and r.p5_se <= r.p10_se <= r.mean_se * 12

    def test_schemes_share_drops(self, tmp_path):
        spec = tiny_spec(tmp_path)
        rows, _ = run_experiment(spec)
        for si, value in enumerate(spec.sweep_values):
            want = {derive_seed(spec.master_seed, si, di)
                    for di in range(spec.num_drops)}
            for scheme in spec.schemes:
                got = {r.drop_seed for r in rows
                       if r.sweep_value == value and r.scheme == scheme}
                assert got == want

    def test_output_files(self, tmp_path):
        spec = tiny_spec(tmp_path)
        _, paths = run_experiment(spec)
        text = paths["results"].read_text()
        header, *lines = text.strip().split("\n")
        assert header == "scheme,sweep_value,drop_seed,sum_se,p5_se,p10_se,mean_se"
        assert len(lines) == 24
        for line in lines:
            scheme, value, seed, *floats = line.split(",")
            assert float(value) in spec.sweep_values
            for f in floats:
                assert repr(float(f)) == f  # full-precision roundtrip
        agg = paths["aggregates"].read_text().strip().split("\n")
        assert len(agg) == 1 + 2 * 3
        meta = json.loads(paths["metadata"].read_text())
        assert meta["config"]["num_aps"] == 8
        assert meta["schemes"] == list(spec.schemes)

    @pytest.mark.parametrize("num_drops", [1, 4])
    def test_aggregates_recomputed_from_results(self, tmp_path, num_drops):
        # every aggregates column from the results rows, to the last bit:
        # means of each (sweep value, scheme) group, the stderr of its sum
        # SE with ddof=1, and 0.0 for a lone drop
        _, paths = run_experiment(tiny_spec(tmp_path, num_drops=num_drops))
        groups = {}
        for line in paths["results"].read_text().splitlines()[1:]:
            scheme, value, _, *se = line.split(",")
            groups.setdefault((float(value), value, scheme), []).append(
                [float(x) for x in se])
        want = ["scheme,sweep_value,num_drops,mean_sum_se,stderr_sum_se,"
                "mean_p5_se,mean_p10_se,mean_user_se"]
        for (_, value, scheme), se in sorted(groups.items()):
            sums, *others = (np.array(column) for column in zip(*se))
            n = sums.size
            stderr = sums.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
            means = [repr(float(c.mean())) for c in (sums, *others)]
            want.append(",".join([scheme, value, str(n), means[0],
                                  repr(float(stderr)), *means[1:]]))
        assert paths["aggregates"].read_text().splitlines() == want

    def test_rerun_and_workers_byte_identical(self, tmp_path):
        a = run_experiment(tiny_spec(tmp_path / "a"))[1]
        b = run_experiment(tiny_spec(tmp_path / "b"))[1]
        c = run_experiment(tiny_spec(tmp_path / "c", workers=3))[1]
        for kind in ("results", "aggregates"):
            ref = a[kind].read_bytes()
            assert b[kind].read_bytes() == ref
            assert c[kind].read_bytes() == ref

    def test_uneven_chunks_byte_identical(self, tmp_path):
        # five drops: chunks of 5, of 3 + 2 and of 2 + 2 + 1
        paths = [run_experiment(tiny_spec(tmp_path / f"w{workers}", num_drops=5,
                                          workers=workers))[1]
                 for workers in (1, 2, 3)]
        for kind in ("results", "aggregates"):
            ref = paths[0][kind].read_bytes()
            assert [p[kind].read_bytes() for p in paths[1:]] == [ref, ref]

    @pytest.mark.parametrize("workers,num_drops,pools", [
        (6, 2, [2]), (3, 1, []), (2, 4, [2])])
    def test_pool_has_no_more_workers_than_chunks(self, tmp_path, monkeypatch,
                                                   workers, num_drops, pools):
        # a pool forks all its workers at its first submit
        made = in_process_pool(monkeypatch)
        rows, _ = run_experiment(tiny_spec(tmp_path, sweep_values=(10,),
                                           num_drops=num_drops,
                                           workers=workers))
        assert made == pools
        assert len(rows) == 3 * num_drops

    @pytest.mark.parametrize("workers,chunks", [
        (1, [5]), (2, [3, 2]), (3, [2, 2, 1])])
    def test_one_evaluation_call_per_chunk(self, tmp_path, monkeypatch,
                                           workers, chunks):
        # the chunk's drops and all their schemes in one call
        in_process_pool(monkeypatch)
        calls = []
        real_evaluate = harness.evaluate_drops

        def evaluate_drops(reals, assocs, pilot_of, *args, **kwargs):
            calls.append((len(reals), {len(cell) for cell in pilot_of}))
            return real_evaluate(reals, assocs, pilot_of, *args, **kwargs)

        monkeypatch.setattr(harness, "evaluate_drops", evaluate_drops)
        run_experiment(tiny_spec(tmp_path, num_drops=5, workers=workers))
        assert calls == [(size, {3}) for size in chunks] * 2

    def test_chunk_rows_equal_cell_rows(self, tmp_path):
        spec = tiny_spec(tmp_path, num_drops=3)
        rows, _ = run_experiment(spec)
        assert [r.csv_line() for r in rows] == cell_lines(spec)

    def test_stack_assigned_whole_and_scored_in_slices(self, tmp_path,
                                                      monkeypatch):
        # one worker: thirteen drops are one chunk, which each scheme
        # assigns as one stack and one evaluate_drops call scores, in
        # slices that it sizes itself
        spec = tiny_spec(tmp_path, sweep_values=(10,), num_drops=13)
        stacks, slices = [], []
        real_drops = harness.assign_drops
        real_evaluate = harness.evaluate_drops

        def assign_drops(scheme, seeds, *args, **kwargs):
            stacks.append((scheme.scheme_id, len(seeds)))
            return real_drops(scheme, seeds, *args, **kwargs)

        def evaluate_drops(reals, *args, **kwargs):
            slices.append(len(reals))
            return real_evaluate(reals, *args, **kwargs)

        monkeypatch.setattr(harness, "assign_drops", assign_drops)
        monkeypatch.setattr(harness, "evaluate_drops", evaluate_drops)
        rows, _ = run_experiment(spec)
        assert stacks == [(s, 13) for s in spec.schemes]
        assert slices == [13]
        assert [r.csv_line() for r in rows] == cell_lines(spec)

    def test_meta_names_the_package_checkout(self, tmp_path, monkeypatch):
        want = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=Path(pilotsim.__file__).resolve().parent,
                              capture_output=True, text=True)
        if want.returncode != 0:
            pytest.skip("pilotsim is not imported from a git checkout")
        monkeypatch.chdir(tmp_path)
        _, paths = run_experiment(tiny_spec(tmp_path / "out", num_drops=1))
        meta = json.loads(paths["metadata"].read_text())
        assert meta["git"] == want.stdout.strip()

    @pytest.mark.parametrize("failure", [OSError("no git"), 128])
    def test_git_state_unknown_without_git(self, monkeypatch, failure):
        # git missing from the path, or git failing outside a checkout
        def run(args, **kwargs):
            if isinstance(failure, Exception):
                raise failure
            return subprocess.CompletedProcess(args, failure, "", "fatal\n")

        monkeypatch.setattr(harness.subprocess, "run", run)
        assert harness._git_describe() == "unknown"

    def test_meta_records_versions(self, tmp_path):
        _, paths = run_experiment(tiny_spec(tmp_path, num_drops=1))
        meta = json.loads(paths["metadata"].read_text())
        assert meta["python"] == platform.python_version()
        assert meta["numpy"] == np.__version__

    @pytest.mark.parametrize("target,text,error", [
        ("out.txt", "\ud800", UnicodeEncodeError),  # unencodable text
        ("taken", "fine\n", IsADirectoryError)],  # replace onto a directory
        ids=["write", "replace"])
    def test_failed_write_leaves_no_temporary_file(self, tmp_path, target,
                                                   text, error):
        (tmp_path / "taken").mkdir()
        with pytest.raises(error):
            harness._write_atomic(tmp_path / target, text)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_per_user_detail(self, tmp_path):
        spec = tiny_spec(tmp_path, sweep="none",
                         sweep_values=(12,), num_drops=2)
        rows, _ = run_experiment(spec)
        cfg = spec.config
        powers = normalize_powers(cfg)
        for drop_idx in range(spec.num_drops):
            drop_seed = derive_seed(spec.master_seed, 0, drop_idx)
            real = generate_drop(cfg, drop_seed)
            assoc = associate_aps(real, cfg.assoc_threshold)
            # the drop's schemes, scored in one pass as the harness does
            pas = []
            for scheme in spec.schemes:
                seed = derive_seed(spec.master_seed, 0, drop_idx,
                                   100 + SCHEME_CODE[scheme])
                pas.append(assign_all(SchemeConfig(scheme, seed=seed), real,
                                      assoc, powers, cfg.pilot_length))
            sinrs, = evaluate_drops([real], [assoc], pilot_stack([pas]),
                                    powers, cfg)
            for scheme, sinr in zip(spec.schemes, sinrs, strict=True):
                row, = [r for r in rows
                        if (r.drop_seed, r.scheme) == (drop_seed, scheme)]
                assert row.per_user.shape == (12,)
                np.testing.assert_array_equal(row.per_user, np.sort(
                    se_uplink(sinr, cfg.coherence_block, cfg.pilot_length)))


def cell_lines(spec):
    """The CSV lines of `spec`'s rows, made cell by cell: each drop alone,
    its schemes assigned one at a time, then scored in one evaluation pass
    of that drop."""
    cells = []
    for si, value in enumerate(spec.sweep_values):
        cfg = spec.config_for(value)
        powers = normalize_powers(cfg)
        for di in range(spec.num_drops):
            (drop_seed,), seeds = cell_seeds(spec.master_seed, si, [di],
                                             spec.schemes)
            real = generate_drop(cfg, drop_seed)
            assoc = associate_aps(real, cfg.assoc_threshold)
            pas = [assign_all(dataclasses.replace(spec.dpb, scheme_id=s,
                                                  seed=seed),
                              real, assoc, powers, cfg.pilot_length)
                   for s, (seed,) in zip(spec.schemes, seeds)]
            se = se_uplink(evaluate_drops([real], [assoc], pilot_stack([pas]),
                                          powers, cfg),
                           cfg.coherence_block, cfg.pilot_length)
            cells += harness._rows(spec, value, [drop_seed], se)
    key = lambda r: (r.sweep_value, r.drop_seed, r.scheme)
    return [r.csv_line() for r in sorted(cells, key=key)]


def in_process_pool(monkeypatch):
    """Make run_experiment's pool map in this process; returns the list of
    pool sizes it is asked for."""
    made = []

    class Pool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    return made


def record_schemes(monkeypatch):
    """Return a lookup from each pilot vector the harness makes to its
    scheme, for a chunk of drops as for one cell; a vector is looked up by
    value, as the first assignment made with those pilots."""
    made = []
    real_drops = harness.assign_drops

    def assign_drops(scheme, *args, **kwargs):
        pilot_of = real_drops(scheme, *args, **kwargs)
        made.extend((pilots, scheme.scheme_id) for pilots in pilot_of)
        return pilot_of

    monkeypatch.setattr(harness, "assign_drops", assign_drops)

    def scheme_of(pilots):
        return next(s for a, s in made if np.array_equal(a, pilots))
    return scheme_of


def fail_evaluations(monkeypatch, errors):
    """Make evaluate_drops raise errors[scheme] whenever it scores that
    scheme on any drop; the first cell is where the failure surfaces."""
    scheme_of = record_schemes(monkeypatch)
    real_evaluate = harness.evaluate_drops

    def evaluate_drops(reals, assocs, pilot_of, *args, **kwargs):
        for cell in pilot_of:
            for scheme in map(scheme_of, cell):
                if scheme in errors:
                    raise errors[scheme]
        return real_evaluate(reals, assocs, pilot_of, *args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_drops", evaluate_drops)


def fail_random_on_third_drop(monkeypatch, spec):
    """Make evaluate_drops raise whenever it scores the random scheme on the
    third drop of the first sweep value; returns that drop's seed."""
    bad_seed = derive_seed(spec.master_seed, 0, 2)
    scheme_of = record_schemes(monkeypatch)
    real_evaluate = harness.evaluate_drops

    def evaluate_drops(reals, assocs, pilot_of, *args, **kwargs):
        for real, cell in zip(reals, pilot_of):
            if real.seed == bad_seed and "random" in map(scheme_of, cell):
                raise ArithmeticError("bad SINR for UE 4")
        return real_evaluate(reals, assocs, pilot_of, *args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_drops", evaluate_drops)
    return bad_seed


class TestCellFailures:
    def test_failed_run_keeps_its_meta(self, tmp_path, monkeypatch):
        # the meta is written before the first chunk, so a failed run can
        # be replayed from it
        fail_evaluations(monkeypatch, {"dpb": ArithmeticError("bad SINR")})
        with pytest.raises(CellError):
            run_experiment(tiny_spec(tmp_path))
        meta = json.loads((tmp_path / "t_meta.json").read_text())
        assert (meta["master_seed"], meta["sweep_values"]) == (3, [10, 13])

    def test_error_names_its_cell(self, tmp_path, monkeypatch):
        fail_evaluations(monkeypatch,
                         {"dpb": ArithmeticError("bad SINR for UE 3")})
        with pytest.raises(CellError) as info:
            run_experiment(tiny_spec(tmp_path))
        msg = str(info.value)
        assert msg == (f"ue_count=10, drop seed {derive_seed(3, 0, 0)}, "
                       "scheme dpb: ArithmeticError: bad SINR for UE 3")
        assert isinstance(info.value.__cause__, ArithmeticError)
        again = pickle.loads(pickle.dumps(info.value))
        assert type(again) is CellError and str(again) == msg

    @pytest.mark.parametrize("stage", ["evaluate", "assign"])
    @pytest.mark.parametrize("schemes", [("eem", "dpb", "random"),
                                         ("eem", "random", "dpb")])
    def test_first_failing_scheme_in_spec_order(self, tmp_path, monkeypatch,
                                                schemes, stage):
        # dpb fails when evaluated, random when evaluated or assigned
        errors = {"dpb": ArithmeticError("dpb failed"),
                  "random": ValueError("random failed")}
        if stage == "evaluate":
            fail_evaluations(monkeypatch, errors)
        else:
            fail_evaluations(monkeypatch, {"dpb": errors["dpb"]})
            recorded_drops = harness.assign_drops

            def assign_drops(scheme, *args, **kwargs):
                if scheme.scheme_id == "random":
                    raise errors["random"]
                return recorded_drops(scheme, *args, **kwargs)

            monkeypatch.setattr(harness, "assign_drops", assign_drops)
        with pytest.raises(CellError) as info:
            run_experiment(tiny_spec(tmp_path, schemes=schemes))
        first = next(s for s in schemes if s in errors)
        exc = errors[first]
        assert str(info.value) == (
            f"ue_count=10, drop seed {derive_seed(3, 0, 0)}, scheme {first}: "
            f"{type(exc).__name__}: {exc}")
        assert info.value.__cause__ is exc

    def test_grouping_error_names_its_scheme(self, tmp_path, monkeypatch):
        # the stacked grouping sees each assignment as the one-hot of its
        # pilot vector
        scheme_of = record_schemes(monkeypatch)
        real_stack = performance.strong_stack

        def strong_stack(betas, serves, threshold, onehot, antennas):
            rows = onehot.argmax(axis=-1).reshape(-1, onehot.shape[2])
            if "random" in map(scheme_of, rows):
                raise ValueError("AP 2 would zero-force 8 pilots with only "
                                 "8 antennas")
            return real_stack(betas, serves, threshold, onehot, antennas)

        monkeypatch.setattr(performance, "strong_stack", strong_stack)
        with pytest.raises(CellError) as info:
            run_experiment(tiny_spec(tmp_path))
        assert str(info.value) == (
            f"ue_count=10, drop seed {derive_seed(3, 0, 0)}, scheme random: "
            "ValueError: AP 2 would zero-force 8 pilots with only 8 antennas")

    def test_failure_inside_a_chunk_names_its_drop(self, tmp_path, monkeypatch):
        # one worker: the five drops of a sweep value form one chunk, and
        # only its third drop fails, when its random assignment is scored
        spec = tiny_spec(tmp_path, num_drops=5)
        bad_seed = fail_random_on_third_drop(monkeypatch, spec)
        with pytest.raises(CellError) as info:
            run_experiment(spec)
        assert str(info.value) == (f"ue_count=10, drop seed {bad_seed}, "
                                   "scheme random: ArithmeticError: "
                                   "bad SINR for UE 4")

    def test_named_cell_replays_alone(self, tmp_path, monkeypatch):
        # a one-cell cut of a chunk makes that cell's sweep row, and a
        # failing cell named by its chunk fails the same way alone
        spec = tiny_spec(tmp_path, num_drops=4)
        rows, _ = run_experiment(spec)
        lines = {(r.sweep_value, r.drop_seed, r.scheme): r.csv_line()
                 for r in rows}
        for sweep_idx, value in enumerate(spec.sweep_values):
            drop_seed = derive_seed(spec.master_seed, sweep_idx, 2)
            for scheme_id in spec.schemes:
                cut = dataclasses.replace(spec, schemes=(scheme_id,))
                [row] = harness._run_chunk((cut, sweep_idx, range(2, 3)))
                assert row.csv_line() == lines[value, drop_seed, scheme_id]
        spec = tiny_spec(tmp_path, num_drops=5)
        fail_random_on_third_drop(monkeypatch, spec)
        with pytest.raises(CellError) as chunk:
            run_experiment(spec)
        cell = dataclasses.replace(spec, schemes=("random",))
        with pytest.raises(CellError) as alone:
            harness._run_chunk((cell, 0, range(2, 3)))
        assert str(alone.value) == str(chunk.value)

    def test_drop_failure_names_its_drop_before_any_assignment(
            self, tmp_path, monkeypatch):
        # only the third of five drops fails to build, so the chunk stops
        # there, names no scheme and assigns nothing
        spec = tiny_spec(tmp_path, num_drops=5)
        bad_seed = derive_seed(spec.master_seed, 0, 2)
        real_generate, assigned = harness.generate_drop, []

        def generate_drop(cfg, seed):
            if seed == bad_seed:
                raise ValueError("UE 3 outside the area")
            return real_generate(cfg, seed)

        def assign_drops(scheme, *args, **kwargs):
            assigned.append(scheme.scheme_id)

        monkeypatch.setattr(harness, "generate_drop", generate_drop)
        monkeypatch.setattr(harness, "assign_drops", assign_drops)
        with pytest.raises(CellError) as info:
            run_experiment(spec)
        assert str(info.value) == (f"ue_count=10, drop seed {bad_seed}: "
                                   "ValueError: UE 3 outside the area")
        assert assigned == []

    def test_batched_only_failure_names_its_chunk(self, tmp_path,
                                                 monkeypatch):
        # stacks of two or more drops fail, so every cell passes on its
        # own: the defect is in the batched path, and the error names the
        # chunk rather than returning rows made some other way
        error = RuntimeError("stacked step went wrong")
        real_drops = harness.assign_drops

        def assign_drops(scheme, seeds, *args, **kwargs):
            if len(seeds) > 1:
                raise error
            return real_drops(scheme, seeds, *args, **kwargs)

        monkeypatch.setattr(harness, "assign_drops", assign_drops)
        with pytest.raises(CellError) as info:
            run_experiment(tiny_spec(tmp_path, num_drops=3))
        seeds = [derive_seed(3, 0, di) for di in range(3)]
        assert str(info.value) == (f"ue_count=10, drop seeds {seeds}: "
                                   "RuntimeError: stacked step went wrong")
        assert info.value.__cause__ is error

    def test_association_failure_names_its_cell(self, tmp_path, monkeypatch):
        def associate_aps(*args, **kwargs):
            raise ValueError("no AP in range")

        monkeypatch.setattr(harness, "associate_aps", associate_aps)
        with pytest.raises(CellError) as info:
            run_experiment(tiny_spec(tmp_path))
        assert str(info.value) == (f"ue_count=10, drop seed {derive_seed(3, 0, 0)}"
                                   ": ValueError: no AP in range")
        assert isinstance(info.value.__cause__, ValueError)

    def test_cli_reports_cell_failure(self, tmp_path, monkeypatch, capsys):
        fail_evaluations(monkeypatch,
                         {"dpb": np.linalg.LinAlgError("singular")})
        code = main(["sweep-ues", "--desk-scale", "--values", "30",
                     "--drops", "1", "--scheme", "eem,dpb",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ue_count=30, drop seed ")
        assert "scheme dpb: LinAlgError: singular" in err

    @pytest.mark.parametrize("exc", [ArithmeticError("overflow"),
                                     np.linalg.LinAlgError("singular")])
    def test_cli_reports_numeric_errors(self, tmp_path, monkeypatch, capsys,
                                        exc):
        def run_protocol(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_protocol", run_protocol)
        code = main(["protocol-audit", "--desk-scale", "--drops", "1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {exc}\n"


class TestExports:
    MODULES = ("assignment", "estimation", "harness", "network",
               "performance", "protocol", "seeding")

    @pytest.mark.parametrize("name", MODULES)
    def test_module_all_resolves(self, name):
        module = importlib.import_module(f"pilotsim.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == []

    def test_package_reexports_resolve(self):
        exported = {}
        for name in self.MODULES:
            module = importlib.import_module(f"pilotsim.{name}")
            exported.update((n, getattr(module, n)) for n in module.__all__)
        public = {n: v for n, v in vars(pilotsim).items()
                  if not n.startswith("_")
                  and not isinstance(v, types.ModuleType)}
        assert public
        for name, value in public.items():
            assert exported.get(name) is value, name


class TestEmitCdf:
    def _row(self, scheme, values):
        return ResultRow(scheme, 0.0, 0, 1.0, 1.0, 1.0, 1.0,
                         np.sort(np.asarray(values, dtype=float)))

    def test_single_sample_midpoint(self, tmp_path):
        path = emit_cdf([self._row("eem", [2.5])], "eem", tmp_path / "c.csv")
        header, line = path.read_text().strip().split("\n")
        assert header == "se,cdf"
        assert line == "2.5,0.5"

    def test_pooled_and_sorted(self, tmp_path):
        rows = [self._row("eem", [3.0, 1.0]), self._row("eem", [2.0, 4.0]),
                self._row("dpb", [9.0, 9.0])]
        path = emit_cdf(rows, "eem", tmp_path / "c.csv")
        lines = path.read_text().strip().split("\n")[1:]
        ses = [float(l.split(",")[0]) for l in lines]
        cdfs = [float(l.split(",")[1]) for l in lines]
        assert ses == [1.0, 2.0, 3.0, 4.0]
        assert cdfs == [0.125, 0.375, 0.625, 0.875]

    def test_all_equal_values(self, tmp_path):
        path = emit_cdf([self._row("eem", [1.0, 1.0, 1.0])], "eem",
                        tmp_path / "c.csv")
        lines = path.read_text().strip().split("\n")[1:]
        assert [float(l.split(",")[0]) for l in lines] == [1.0] * 3

    def test_errors(self, tmp_path):
        with pytest.raises(ValueError):
            emit_cdf([self._row("eem", [1.0])], "dpb", tmp_path / "c.csv")
        bare = ResultRow("eem", 0.0, 0, 1.0, 1.0, 1.0, 1.0, None)
        with pytest.raises(ValueError):
            emit_cdf([bare], "eem", tmp_path / "c.csv")


class TestCli:
    def test_sweep_ues_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps({"num_aps": 8, "antennas_per_ap": 8}))
        code = main(["sweep-ues", "--config", str(cfg), "--values", "10,12",
                     "--drops", "2", "--scheme", "eem,random",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "results:" in out
        assert (tmp_path / "out" / "sweep_ues_results.csv").is_file()

    def test_small_sweep_matches_recorded_rows(self, tmp_path, capsys):
        """A desk sweep's rows against rows recorded from an earlier run:
        the cells exactly, the SE columns at perfbench's rtol 1e-9."""
        code = main(["sweep-ues", "--desk-scale", "--values", "30,60",
                     "--drops", "2", "--seed", "5", "--out", str(tmp_path)])
        assert code == 0

        def read(path):
            header, *lines = Path(path).read_text().strip().split("\n")
            rows = [line.split(",") for line in lines]
            return (header, [r[:3] for r in rows],
                    np.array([r[3:] for r in rows], dtype=float))

        want = read(Path(__file__).parent / "data" / "sweep_ues_desk_seed5.csv")
        got = read(tmp_path / "sweep_ues_results.csv")
        assert got[:2] == want[:2]
        np.testing.assert_allclose(got[2], want[2], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("command,drops,desk,defaults", [
        ("protocol-audit",
         "drops audited (default 10, also with --desk-scale)",
         "reduced preset: M=30, T=50", (10, 10)),
        ("sweep-ues", "Monte-Carlo drops (default 200, desk 50)",
         "reduced preset: M=30, T=50, 50 drops", (200, 50))])
    def test_help_states_the_drop_defaults(self, capsys, command, drops, desk,
                                           defaults):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        # each option's help, its wrapped lines joined, runs up to the next
        # option or the end
        text = " ".join(capsys.readouterr().out.split())
        for option, help_text in (("--drops DROPS", drops),
                                  ("--desk-scale", desk)):
            assert re.search(f"{option} {re.escape(help_text)}( -|$)", text)
        # and the drop counts the command then runs
        for flags, want in zip(([], ["--desk-scale"]), defaults):
            args = cli.build_parser().parse_args([command, *flags])
            assert cli._resolve(args)[2] == want

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps({"num_apps": 8}))
        code = main(["sweep-ues", "--config", str(cfg)])
        assert code == 2
        assert "unknown config keys: num_apps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep-ues", "protocol-audit"])
    def test_tie_rule_key_exits_2(self, tmp_path, capsys, command):
        # DPB has one tie rule, the seeded draw, and no option names it
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps({"tie_rule": "seeded_random"}))
        code = main([command, "--desk-scale", "--config", str(cfg),
                     "--drops", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown config keys: tie_rule\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry", [{"num_aps": 30.5}, {"pilot_length": 7.0},
                                       {"dpb_s": 2.5}])
    def test_non_integral_count_exits_2(self, tmp_path, capsys, entry):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(entry))
        code = main(["sweep-ues", "--desk-scale", "--config", str(cfg),
                     "--drops", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        (name, value), = entry.items()
        assert capsys.readouterr().err == (
            f"error: {name} must be an integer, got {value!r}\n")
        assert not (tmp_path / "out").exists()

    def test_non_integral_s_stops_audit_before_any_drop(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps({"dpb_s": 2.5}))
        code = main(["protocol-audit", "--desk-scale", "--config", str(cfg),
                     "--drops", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: dpb_s must be an integer, got 2.5\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("drops", ["0", "-1"])
    def test_audit_needs_a_drop(self, tmp_path, capsys, drops):
        code = main(["protocol-audit", "--desk-scale", "--drops", drops,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: drops must be >= 1, got {drops}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [["--scheme", "dpb"], ["--workers", "2"]])
    def test_audit_takes_no_scheme_or_workers(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main(["protocol-audit", "--desk-scale", "--drops", "1", *flag,
                  "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep-ues", "sweep-assoc", "cdf",
                                         "protocol-audit"])
    @pytest.mark.parametrize("delta", ["NaN", "Infinity"])
    def test_non_finite_delta_exits_2(self, tmp_path, capsys, command, delta):
        cfg = tmp_path / "net.json"
        cfg.write_text(f'{{"dpb_delta": {delta}}}')
        code = main([command, "--desk-scale", "--config", str(cfg),
                     "--drops", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: dpb_delta must be finite and >= 0\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep-ues", "protocol-audit"])
    @pytest.mark.parametrize("entry", [{"tx_power_mw": 1e300},
                                       {"noise_figure_db": 4000},
                                       {"bandwidth_hz": 1e-300}],
                             ids=["tx_power", "noise_figure", "bandwidth"])
    def test_unusable_power_exits_2_before_any_output(self, tmp_path, capsys,
                                                      command, entry):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(entry))
        code = main([command, "--desk-scale", "--config", str(cfg),
                     "--drops", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: tx_power_mw, bandwidth_hz and "
                            r"noise_figure_db give a noise-normalized power "
                            r"of \S+ dB, outside the float range\n",
                            captured.err)
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep-ues", "cdf", "protocol-audit"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        code = main([command, "--desk-scale", "--seed", "-1", "--drops", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: (master_)?seed must be >= 0, got -1\n",
                            captured.err)
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep-ues", "protocol-audit"])
    @pytest.mark.parametrize("entry,message", [
        ({"dpb_delta": "0.1"}, "dpb_delta must be a number, got '0.1'"),
        ({"assoc_threshold": "0.9"},
         "assoc_threshold must be a number, got '0.9'"),
        ({"ref_loss_db": "140.7"}, "ref_loss_db must be a number, got '140.7'"),
        ({"wrap_around": "false"}, "wrap_around must be a bool, got 'false'"),
        ({"num_aps": True}, "num_aps must be an integer, got True"),
        ({"d0_m": float("inf")}, "non-finite config value d0_m"),
        ({"d1_m": float("inf")}, "non-finite config value d1_m"),
        ([{"num_aps": 8}], "config file must hold a flat JSON object"),
        ({"ref_loss_db": 4000}, "a path loss of 3940.48 dB at 1 m gives an "
                                "LSFC outside the float range"),
        ({"exp_far": 5000}, "a path loss of -64924.8 dB at 1 m gives an "
                            "LSFC outside the float range"),
        ({"ref_loss_db": 2000}, "a path loss of 1940.48 dB at 1 m gives a "
                                "gamma that underflows to 0"),
        ({"tx_power_mw": 1e18}, "a path loss of 81.1846 dB at 1 m gives a "
                                "gamma whose noise term is lost to "
                                "round-off")],
        ids=["dpb_delta", "assoc_threshold", "ref_loss_db", "wrap_around",
             "num_aps", "d0_m_infinite", "d1_m_infinite", "list",
             "ref_loss_db_underflow", "exp_far_overflow",
             "gamma_underflow", "gamma_round_off"])
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, command,
                                           entry, message):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(entry))
        code = main([command, "--desk-scale", "--config", str(cfg),
                     "--drops", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_repeated_sweep_values_exit_2(self, tmp_path, capsys):
        code = main(["sweep-ues", "--desk-scale", "--values", "30,30",
                     "--drops", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: sweep values must be distinct, got [30, 30]\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,values,cast", [
        ("sweep-ues", "", "ints"), ("sweep-ues", " ", "ints"),
        ("sweep-ues", "30,", "ints"), ("sweep-ues", "30,,40", "ints"),
        ("sweep-assoc", "", "floats"), ("sweep-assoc", "0.9,", "floats")])
    def test_empty_values_entry_exits_2(self, tmp_path, capsys, command,
                                        values, cast):
        code = main([command, "--desk-scale", "--values", values,
                     "--drops", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --values takes comma-separated "
                                f"{cast}, got {values!r}\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,schemes", [
        ("sweep-ues", "eem,dpb,eem"), ("cdf", "eem,dpb,eem"),
        ("sweep-ues", "eem,eem")], ids=["sweep-ues", "cdf", "sweep-ues-twice"])
    def test_repeated_schemes_exit_2(self, tmp_path, capsys, command,
                                     schemes):
        code = main([command, "--desk-scale", "--scheme", schemes,
                     "--drops", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: schemes must be distinct, "
                                f"got {schemes.split(',')}\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,schemes", [
        ("sweep-ues", "eem,,dpb"), ("sweep-ues", "eem,,dpb,"),
        ("sweep-ues", "eem,"), ("sweep-ues", " "), ("cdf", ",dpb")])
    def test_empty_scheme_entry_exits_2(self, tmp_path, capsys, command,
                                        schemes):
        code = main([command, "--desk-scale", "--scheme", schemes,
                     "--drops", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --scheme takes comma-separated "
                                f"scheme ids, got {schemes!r}\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    DPB_FILE = {"dpb_s": 2, "dpb_delta": 0.25}

    def test_config_dpb_options_reach_every_sweep_cell(self, tmp_path,
                                                        monkeypatch):
        made = []
        real_assign = harness.assign_drops

        def assign_drops(scheme, seeds, *args, **kwargs):
            made.append((scheme, list(seeds)))
            return real_assign(scheme, seeds, *args, **kwargs)

        monkeypatch.setattr(harness, "assign_drops", assign_drops)
        cfg = tmp_path / "opts.json"
        cfg.write_text(json.dumps(self.DPB_FILE))
        code = main(["sweep-ues", "--desk-scale", "--config", str(cfg),
                     "--values", "30,40", "--drops", "2", "--seed", "7",
                     "--scheme", "eem,dpb", "--out", str(tmp_path / "out")])
        assert code == 0
        template = SchemeConfig("dpb", **self.DPB_FILE)
        # one call per sweep value and scheme covers both drops
        assert made == [
            (dataclasses.replace(template, scheme_id=s),
             cell_seeds(7, si, range(2), ("eem", "dpb"))[1][k])
            for si in range(2) for k, s in enumerate(("eem", "dpb"))]
        assert sum(s.scheme_id == "dpb" for s, _ in made) == 2
        meta = json.loads(
            (tmp_path / "out" / "sweep_ues_meta.json").read_text())
        assert {k: meta[k] for k in self.DPB_FILE} == self.DPB_FILE

    def test_config_dpb_options_reach_every_audited_drop(self, tmp_path,
                                                          monkeypatch, capsys):
        made = []
        real_protocol, real_assign = cli.run_protocol, cli.assign_drops

        def run_protocol(real, assoc, scheme, *args, **kwargs):
            made.append(scheme)
            return real_protocol(real, assoc, scheme, *args, **kwargs)

        def assign_drops(scheme, *args, **kwargs):
            made.append(scheme)
            return real_assign(scheme, *args, **kwargs)

        monkeypatch.setattr(cli, "run_protocol", run_protocol)
        monkeypatch.setattr(cli, "assign_drops", assign_drops)
        cfg = tmp_path / "opts.json"
        cfg.write_text(json.dumps(self.DPB_FILE))
        code = main(["protocol-audit", "--desk-scale", "--config", str(cfg),
                     "--drops", "3", "--seed", "7",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        template = SchemeConfig("dpb", **self.DPB_FILE)
        # each drop runs the protocol, then the stacked numpy step
        _, (seeds,) = cell_seeds(7, 0, range(3), ("dpb",))
        assert made == [s for seed in seeds for s in
                        2 * [dataclasses.replace(template, seed=seed)]]

    def test_sweep_meta_rebuilds_its_config(self, tmp_path, monkeypatch,
                                            capsys):
        specs = []
        real_run = cli.run_experiment

        def run_experiment(spec):
            specs.append(spec)
            return real_run(spec)

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps({"exp_far": 3.7, **self.DPB_FILE}))
        code = main(["sweep-ues", "--desk-scale", "--config", str(cfg),
                     "--values", "30", "--drops", "1", "--scheme", "eem",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        meta = json.loads(
            (tmp_path / "out" / "sweep_ues_meta.json").read_text())
        (spec,) = specs
        assert spec.config == NetworkConfig(num_aps=30, num_ues=50,
                                            exp_far=3.7)
        assert NetworkConfig(**meta["config"]) == spec.config

    @pytest.mark.parametrize("command,extra", [
        ("sweep-ues", ["--values", "30"]), ("protocol-audit", [])],
        ids=["sweep-ues", "protocol-audit"])
    def test_config_file_options_reach_the_meta(self, tmp_path, capsys,
                                                command, extra):
        # the file's DPB options apply to the sweeps and the audit alike,
        # and the meta records its path-loss key in the flat config
        cfg = tmp_path / "dpb.json"
        cfg.write_text(json.dumps({"dpb_s": 2, "dpb_delta": 0.3,
                                   "exp_far": 3.7}))
        assert main([command, "--desk-scale", "--drops", "2", *extra,
                     "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        name = command.replace("-", "_")
        meta = json.loads((tmp_path / "out" / f"{name}_meta.json").read_text())
        assert (meta["dpb_s"], meta["dpb_delta"]) == (2, 0.3)
        assert meta["config"]["exp_far"] == 3.7

    # sweep-pilots presets A=16 over the desk preset; a config file wins
    @pytest.mark.parametrize("entry,antennas", [({}, 16),
                                                ({"antennas_per_ap": 12}, 12)])
    def test_pilot_sweep_antenna_precedence(self, tmp_path, capsys, entry,
                                            antennas):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(entry))
        code = main(["sweep-pilots", "--desk-scale", "--config", str(cfg),
                     "--values", "7", "--drops", "1", "--scheme", "eem",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        meta = json.loads(
            (tmp_path / "out" / "sweep_pilots_meta.json").read_text())
        assert meta["config"]["antennas_per_ap"] == antennas
        assert (meta["config"]["num_aps"], meta["config"]["num_ues"]) == (30, 50)

    def test_audit_reports_a_budget_violation(self, tmp_path, monkeypatch,
                                              capsys):
        def audit_overhead(*args):
            raise BudgetViolation(4, "too many messages")

        monkeypatch.setattr(cli, "audit_overhead", audit_overhead)
        code = main(["protocol-audit", "--desk-scale", "--drops", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ("drop 0: BUDGET VIOLATION: UE 4: too many "
                                "messages\n")
        assert captured.out == ""

    def test_audit_reports_a_mismatch(self, tmp_path, monkeypatch, capsys):
        real_protocol = cli.run_protocol

        def run_protocol(*args, **kwargs):
            # one negotiated pick moves to the next pilot
            pa, log = real_protocol(*args, **kwargs)
            pilot_of = pa.pilot_of.copy()
            pilot_of[0] = (pilot_of[0] + 1) % pa.num_pilots
            return PilotAssignment(pilot_of, pa.num_pilots), log

        monkeypatch.setattr(cli, "run_protocol", run_protocol)
        code = main(["protocol-audit", "--desk-scale", "--drops", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "drop 0: protocol/direct assignment mismatch\n"
        assert captured.out == ""

    def test_unknown_scheme_exits_2(self, tmp_path, capsys):
        code = main(["sweep-ues", "--scheme", "psychic",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["cdf", "--config", str(tmp_path / "absent.json")])
        assert code == 2

    def test_config_directory_exits_2(self, tmp_path, capsys):
        code = main(["sweep-ues", "--desk-scale", "--config", str(tmp_path),
                     "--drops", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep-ues", "protocol-audit"])
    @pytest.mark.parametrize("below", ["", "x"], ids=["file", "under_file"])
    def test_unusable_out_exits_2_before_any_drop(self, tmp_path, capsys,
                                                  monkeypatch, command,
                                                  below):
        drops = []
        for module in (cli, harness):
            def generate_drop(*args, real=module.generate_drop):
                drops.append(args)
                return real(*args)

            monkeypatch.setattr(module, "generate_drop", generate_drop)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        code = main([command, "--desk-scale", "--drops", "1",
                     "--out", str(taken / below)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert drops == []
        assert taken.read_text() == "keep\n"

    def test_audit_meta_records_its_run(self, tmp_path, capsys):
        cfg = tmp_path / "opts.json"
        cfg.write_text(json.dumps({"exp_far": 3.7, **self.DPB_FILE}))
        code = main(["protocol-audit", "--desk-scale", "--config", str(cfg),
                     "--drops", "2", "--seed", "7",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        meta = json.loads(
            (tmp_path / "out" / "protocol_audit_meta.json").read_text())
        config = NetworkConfig(num_aps=30, num_ues=50, exp_far=3.7)
        want = {"config": dataclasses.asdict(config), "num_drops": 2,
                "master_seed": 7, **self.DPB_FILE,
                "python": platform.python_version(),
                "numpy": np.__version__}
        assert set(self.DPB_FILE) == set(harness.DPB_OPTIONS)
        assert set(meta) == set(want) | {"git"}
        assert {k: meta[k] for k in want} == want
        assert meta["git"] == harness._git_describe()
        assert NetworkConfig(**meta["config"]) == config

    def test_audit_writes_into_the_working_directory(self, tmp_path,
                                                     monkeypatch, capsys):
        """`--out ""` is the working directory, for the audit as for a sweep."""
        monkeypatch.chdir(tmp_path)
        code = main(["protocol-audit", "--desk-scale", "--drops", "1",
                     "--out", ""])
        assert code == 0
        assert (tmp_path / "protocol_audit_meta.json").is_file()
        assert (tmp_path / "protocol_trace.txt").is_file()

    def test_cdf_and_audit(self, tmp_path, capsys):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps({"num_aps": 8, "num_ues": 12}))
        code = main(["cdf", "--config", str(cfg), "--drops", "2",
                     "--scheme", "eem,dpb", "--out", str(tmp_path / "c")])
        assert code == 0
        assert (tmp_path / "c" / "cdf_cdf_eem.csv").is_file()
        assert (tmp_path / "c" / "cdf_cdf_dpb.csv").is_file()
        code = main(["protocol-audit", "--config", str(cfg), "--drops", "2",
                     "--out", str(tmp_path / "p")])
        assert code == 0
        out = capsys.readouterr().out
        assert "ap-to-ap messages: 0" in out
        assert "protocol matches direct assignment: OK" in out
        assert (tmp_path / "p" / "protocol_trace.txt").is_file()


class TestCliReruns:
    """Reruns through `cli.main` in this process whose CSVs must match byte
    for byte; a worker count above 1 starts a real pool."""

    @pytest.mark.parametrize("drops", [7, 27])
    def test_sweeps_rerun_across_chunk_layouts(self, tmp_path, capsys, drops):
        # each scheme assigns a chunk of up to 25 drops as one stack, and
        # evaluation scores it in slices of up to 6, so each drop must score
        # alike beside any neighbours: seven drops make chunks of 7, 4 + 3
        # and 3 + 3 + 1 at one, two and three workers, and 27 drops make
        # chunks of 25 + 2, 14 + 13 and 9 + 9 + 9, which cross both
        # boundaries
        for workers in (1, 2, 3):
            assert main(["sweep-ues", "--desk-scale", "--drops", str(drops),
                         "--workers", str(workers),
                         "--out", str(tmp_path / f"w{workers}")]) == 0
        for workers in (2, 3):
            for kind in ("results", "aggregates"):
                name = f"sweep_ues_{kind}.csv"
                assert ((tmp_path / f"w{workers}" / name).read_bytes()
                        == (tmp_path / "w1" / name).read_bytes())

    @pytest.mark.parametrize("argv,workers", [
        (["sweep-ues", "--drops", "2"], 2),
        # five drops over three workers: uneven chunks of 2, 2 and 1 drops
        (["sweep-ues", "--drops", "5"], 3),
        (["sweep-pilots", "--drops", "2", "--values", "7"], 2),
        (["sweep-assoc", "--drops", "2", "--values", "0.95"], 2),
        (["sweep-ues", "--drops", "3", "--config", "wrap.json"], 2),
        # the per-user CDFs carry every UE's SE
        (["cdf", "--drops", "2"], 2)],
        ids=["ues", "ues-uneven", "pilots", "assoc", "wrap-around", "cdf"])
    def test_runs_rerun_across_worker_counts(self, tmp_path, monkeypatch,
                                             capsys, argv, workers):
        monkeypatch.chdir(tmp_path)
        # the wrap-around case's config file
        Path("wrap.json").write_text(json.dumps({"wrap_around": True}))
        for count in (1, workers):
            assert main([*argv, "--desk-scale", "--workers", str(count),
                         "--out", f"w{count}"]) == 0
        name = argv[0].replace("-", "_")
        csvs = [f"{name}_results.csv", f"{name}_aggregates.csv"]
        if name == "cdf":
            csvs += [f"cdf_cdf_{scheme}.csv" for scheme in SCHEME_IDS]
        for csv in csvs:
            assert (Path(f"w{workers}", csv).read_bytes()
                    == Path("w1", csv).read_bytes())

    def test_rows_do_not_depend_on_the_scheme_list(self, tmp_path, capsys):
        # each (drop, scheme) cell is scored as its own system, so a
        # scheme's rows must not depend on the schemes run beside it. Seed 5
        # at T=30 holds dpb and random rows that moved at round-off when the
        # schemes of a drop shared one co-pilot width
        sweep = ["sweep-ues", "--desk-scale", "--seed", "5", "--values", "30"]

        def lines(out):
            path = out / "sweep_ues_results.csv"
            return path.read_bytes().splitlines(keepends=True)

        assert main([*sweep, "--out", str(tmp_path / "every")]) == 0
        every = lines(tmp_path / "every")
        for scheme in SCHEME_IDS:
            out = tmp_path / f"only_{scheme}"
            assert main([*sweep, "--scheme", scheme, "--out", str(out)]) == 0
            assert lines(out)[1:] == [line for line in every if line.startswith(
                f"{scheme},".encode())]
