"""The seeding module: SeedSequence's hashing, PCG64's first word and the
seeded picks against numpy's own generators, the seeds of a cell, the
protocol audit's trace against an earlier commit's, and that no other
module reaches np.random or a private seeding name."""

import ast
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim import (NetworkRealization, SCHEME_CODE,
                      SCHEME_IDS, SchemeConfig, associate_aps, derive_seed,
                      run_protocol)
from pilotsim import seeding
from pilotsim.assignment import assign_drops
from pilotsim.cli import main
from pilotsim.harness import cell_seeds
from pilotsim.seeding import _seed_state, bounded, stream_words
from probes import generator_pick, stack_row, unit_powers

SRC = Path(__file__).resolve().parents[1] / "src" / "pilotsim"


class TestStreamKernel:
    """`stream_words` and `bounded` against the generator they stand for."""

    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 10 ** 6 - 1),
           st.integers(1, 2 ** 16))
    @settings(max_examples=300, deadline=None)
    def test_matches_default_rng(self, seed, ue, n):
        word = int(stream_words(seed, ue))
        raw = np.random.default_rng([seed, ue]).bit_generator.random_raw()
        assert word == int(raw) & 0xFFFFFFFF
        assert bounded(word, n, seed, ue) == generator_pick(seed, ue, n)

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63,
                                      2 ** 64 - 1])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 100, 200])
    def test_edge_seeds(self, seed, n):
        word = int(stream_words(seed, 0))
        assert bounded(word, n, seed, 0) == generator_pick(seed, 0, n)

    def test_broadcast_matches_pairwise(self):
        seeds = [0, 2 ** 32 + 5, 2 ** 64 - 1]
        ues = np.arange(4)[:, None]
        words = stream_words(seeds, ues)
        assert words.shape == (4, 3)
        for t in range(4):
            for d, seed in enumerate(seeds):
                assert words[t, d] == stream_words(seed, t)

    @pytest.mark.parametrize("n", [2, 7, 200, 2 ** 16])
    def test_rejectable_word_falls_back(self, n):
        # word 0 leaves the product's low half 0 < n, so Lemire's method may
        # reject it; the pick must then be the generator's own, not 0
        picks = [bounded(0, n, 9, ue) for ue in range(8)]
        assert picks == [generator_pick(9, ue, n) for ue in range(8)]
        assert any(picks)

    def test_past_32_bits_falls_back(self):
        n = 2 ** 32 + 5
        for ue in range(4):
            word = int(stream_words(11, ue))
            assert bounded(word, n, 11, ue) == generator_pick(11, ue, n)

    @given(st.integers(1, 12).flatmap(lambda width: st.lists(
               st.lists(st.integers(0, 2 ** 32 - 1), min_size=width,
                        max_size=width), min_size=1, max_size=4)),
           st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_seed_state_matches_seed_sequence(self, columns, n):
        got = _seed_state(np.array(columns, dtype=np.uint32).T, n)
        assert got.dtype == np.uint32
        for column, state in zip(columns, got.T, strict=True):
            np.testing.assert_array_equal(
                state, np.random.SeedSequence(column).generate_state(n))

    @given(st.lists(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1,
                             max_size=12), min_size=1, max_size=6),
           st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_seed_state_of_columns_of_any_width(self, columns, n):
        widths = [len(c) for c in columns]
        entropy = np.zeros((max(widths), len(columns)), dtype=np.uint32)
        for k, column in enumerate(columns):
            entropy[:len(column), k] = column
        got = _seed_state(entropy, n, np.array(widths))
        for column, state in zip(columns, got.T, strict=True):
            np.testing.assert_array_equal(
                state, np.random.SeedSequence(column).generate_state(n))

    @pytest.mark.parametrize("seeds, ues, shape", [
        (5, 3, ()),
        (2 ** 64 - 1, [0, 7], (2,)),
        ([5, 2 ** 40, 2 ** 64 - 1], np.arange(4)[:, None], (4, 3)),
        (np.array([9], dtype=np.int64), np.arange(2, dtype=np.uint32), (2,)),
    ], ids=["scalar", "list", "broadcast", "int64"])
    def test_kernel_dtypes(self, seeds, ues, shape):
        # numpy 1.x casts uint64 mixed with int64 to float64; every kernel
        # operand is an explicit uint32 or uint64, so none is lost
        words = stream_words(seeds, ues)
        assert words.dtype == np.uint64 and words.shape == shape
        for entropy in ([[1, 2], [3, 4]], [np.arange(3), np.arange(3)],
                        np.ones((6, 2), dtype=np.int64)):
            assert _seed_state(entropy, 3).dtype == np.uint32

    def test_peak_memory_of_a_desk_stack(self):
        # a 25-drop, T=60 stack: 1500 (seed, UE) pairs, on uint64 limbs
        seeds = [derive_seed(9, d) for d in range(25)]
        ues = np.arange(60)[:, None]
        stream_words(seeds, ues)  # makes the cached hash constants
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            stream_words(seeds, ues)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 400_000

    @pytest.mark.parametrize("scheme_id", ["random", "dpb"])
    def test_one_kernel_call_per_stack(self, desk_drop, monkeypatch, scheme_id):
        cfg, real, powers, assoc = desk_drop(seed=4)
        calls = []

        def counted(seeds, ues):
            calls.append(np.broadcast(seeds, ues).size)
            return stream_words(seeds, ues)

        monkeypatch.setattr(seeding, "stream_words", counted)
        assign_drops(SchemeConfig(scheme_id), [1, 2, 3], [real] * 3,
                     [assoc] * 3, powers, cfg.pilot_length)
        assert calls == [3 * cfg.num_ues]


class TestPicks:
    """`random`'s picks where Lemire's method may reject a word, or lp
    passes 32 bits."""

    def test_rejectable_words_take_the_generator(self, desk_drop,
                                                 monkeypatch):
        # word 0 leaves Lemire's low half 0 < lp, where the method may
        # reject: those entries must draw as the generator does, not pick 0
        cfg, real, powers, assoc = desk_drop(seed=4)
        seeds = [1, 2 ** 40 + 3, 2 ** 64 - 1]
        calls = []

        def some_zero(seeds, ues):
            words = stream_words(seeds, ues)
            calls.append(words.shape)
            words[np.indices(words.shape).sum(axis=0) % 3 == 0] = 0
            return words

        monkeypatch.setattr(seeding, "stream_words", some_zero)
        got = assign_drops(SchemeConfig("random"), seeds, [real] * 3,
                           [assoc] * 3, powers, cfg.pilot_length)
        assert calls == [(cfg.num_ues, 3)]
        want = [[generator_pick(seed, t, cfg.pilot_length)
                 for t in range(cfg.num_ues)] for seed in seeds]
        assert got.tolist() == want
        zeroed = np.indices(got.T.shape).sum(axis=0).T % 3 == 0
        assert got[zeroed].any()

    def test_past_32_bits_takes_the_generator(self):
        real = NetworkRealization(np.zeros((1, 2)), np.zeros((4, 2)),
                                  np.ones((1, 4)), 0)
        lp, seeds = 2 ** 32 + 5, [11, 2 ** 63]
        got = assign_drops(SchemeConfig("random"), seeds, [real] * 2,
                           [associate_aps(real, 0.95)] * 2, unit_powers(4),
                           lp)
        assert got.tolist() == [[generator_pick(seed, t, lp)
                                 for t in range(4)] for seed in seeds]


class TestProtocolWords:
    def test_one_kernel_call_per_run(self, desk_drop, monkeypatch):
        cfg, real, powers, assoc = desk_drop(seed=6)
        calls = []

        def counted(seeds, ues):
            calls.append(np.broadcast(seeds, ues).size)
            return stream_words(seeds, ues)

        # the float loop draws every arriving UE's word in one call, and
        # resolves its ties from them
        monkeypatch.setattr(seeding, "stream_words", counted)
        order = np.random.default_rng(2).permutation(cfg.num_ues)
        scheme = SchemeConfig("dpb", seed=3)
        pa, _ = run_protocol(real, assoc, scheme, order, powers,
                             cfg.pilot_length)
        assert calls == [cfg.num_ues]
        np.testing.assert_array_equal(
            pa.pilot_of, stack_row(scheme, real, assoc, powers,
                                   cfg.pilot_length, order))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_spread(self):
        seeds = {derive_seed(7, i) for i in range(500)}
        assert len(seeds) == 500
        assert all(0 <= s < 2 ** 64 for s in seeds)


class TestCellSeeds:
    def test_one_rule_for_drop_and_schemes(self):
        drop_seeds, seeds = cell_seeds(4, 1, [3], ("eem", "dpb"))
        assert drop_seeds == [derive_seed(4, 1, 3)]
        assert seeds == [[derive_seed(4, 1, 3, 100 + SCHEME_CODE[s])]
                         for s in ("eem", "dpb")]

    @pytest.mark.parametrize("master", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64,
                                        2 ** 96 + 7])
    @pytest.mark.parametrize("sweep_idx", [1, 2 ** 32 + 3])
    @pytest.mark.parametrize("drop_idxs", [[4], range(25),
                                           [0, 2 ** 32 - 1, 2 ** 32, 2 ** 70]],
                             ids=["one", "chunk", "wide"])
    def test_chunk_matches_derive_seed(self, master, sweep_idx, drop_idxs):
        # past the pool of 4 entropy words, and with columns of several
        # widths in one call where a drop index passes 32 bits
        drop_seeds, seeds = cell_seeds(master, sweep_idx, drop_idxs,
                                       SCHEME_IDS)
        assert drop_seeds == [derive_seed(master, sweep_idx, d)
                              for d in drop_idxs]
        assert seeds == [[derive_seed(master, sweep_idx, d,
                                      100 + SCHEME_CODE[s])
                          for d in drop_idxs] for s in SCHEME_IDS]

    def test_rejects_a_negative_part(self):
        with pytest.raises(ValueError, match="^seed parts must be >= 0"):
            cell_seeds(-1, 0, [0], ("eem",))



def test_protocol_audit_trace_is_pinned(tmp_path, capsys):
    # the audit's drop streams, arrival order and stream words, against the
    # trace of an earlier commit: the direct assignment that the audit
    # checks itself against shares the same words, so it cannot see a drift
    assert main(["protocol-audit", "--desk-scale", "--drops", "1", "--seed",
                 "5", "--out", str(tmp_path)]) == 0
    trace = (tmp_path / "protocol_trace.txt").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == (
        "54642fc9080ccac18a141b56455d7ce0019976a26a635303f5eeb3ef8ee4b46c")


def module_trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_only_seeding_reaches_np_random():
    # every seed and seeded draw has one owner, so a change of seeding
    # touches one module
    users = set()
    for name, tree in module_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "random"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                users.add((name, ast.unparse(node)))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None)
                names = [f"{module}.{a.name}" if module else a.name
                         for a in node.names]
                users.update((name, n) for n in names
                             if n.startswith("numpy.random"))
    assert {name for name, _ in users} == {"seeding.py"}, sorted(users)


def test_no_module_takes_a_private_seeding_name():
    taken = set()
    for name, tree in module_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("seeding", "pilotsim.seeding")):
                taken.update((name, a.name) for a in node.names
                             if a.name.startswith("_"))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "seeding"
                  and node.attr.startswith("_")):
                taken.add((name, node.attr))
    assert taken == set()
