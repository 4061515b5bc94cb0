"""The stacked strong grouping and gammas against their one-drop calls.

`evaluate_drops` ranks the strong sets of a pass's drops in one
`strong_stack` call and computes the gammas of all its cells in one
`gamma_stack` call. `strong_one` and `gamma_one` of `probes` are those
functions on a stack of one, so each drop or cell of a stack must give the
same bits as its one-drop call, and a failing stack must raise what its
first failing drop or cell raises alone.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilotsim import (SCHEME_IDS, NetworkConfig, NetworkRealization,
                      PilotAssignment, PowerProfile, SchemeConfig, assign_all,
                      associate_aps, generate_drop, normalize_powers)
from pilotsim.estimation import gamma_stack
from pilotsim.network import strong_stack
from pilotsim.performance import evaluate_drops
from probes import gamma_one, map_from_sets, one_hot, pilot_stack, strong_one


def drop_stack(cfg, num_drops, schemes, seed, narrow=False):
    """num_drops drops of `cfg`, each with its association and its
    assignments under `schemes`; `narrow` adds one random assignment per
    drop that declares from one pilot up to the pilot length."""
    powers = normalize_powers(cfg)
    reals = [generate_drop(cfg, seed + d) for d in range(num_drops)]
    assocs = [associate_aps(real, cfg.assoc_threshold) for real in reals]
    rng = np.random.default_rng(seed)
    by_drop = []
    for d, (real, assoc) in enumerate(zip(reals, assocs)):
        cell = [assign_all(SchemeConfig(scheme, seed=seed + d), real, assoc,
                           powers, cfg.pilot_length) for scheme in schemes]
        if narrow:
            width = int(rng.integers(1, cfg.pilot_length + 1))
            cell.append(PilotAssignment(
                rng.integers(0, width, cfg.num_ues), width))
        by_drop.append(cell)
    return powers, reals, assocs, by_drop


def stacked(reals, assocs, by_drop):
    """The (D, M, T) LSFCs and serving flags and the (D, S, T) pilots."""
    return (np.stack([real.beta for real in reals]),
            np.stack([assoc.serves for assoc in assocs]),
            pilot_stack(by_drop))


def assert_matches_one_drop_calls(cfg, powers, reals, assocs, by_drop):
    betas, serves, pilot_of = stacked(reals, assocs, by_drop)
    onehot = one_hot(cfg.pilot_length, pilot_of)
    flags, counts = strong_stack(betas, serves, cfg.strong_threshold,
                                 onehot, cfg.antennas_per_ap)
    # written into a table's view, as evaluation does, and returned alike
    table = np.zeros(pilot_of.shape[:2] + betas.shape[1:2]
                     + (cfg.num_ues + 1,))
    gammas = gamma_stack(betas, powers, onehot, out=table[..., :-1])
    assert not table[..., -1].any()
    np.testing.assert_array_equal(gamma_stack(betas, powers, onehot), gammas)
    for d, (real, assoc, cell) in enumerate(zip(reals, assocs, by_drop,
                                                strict=True)):
        alone = strong_one(real, assoc, cfg.strong_threshold, cell,
                           cfg.antennas_per_ap)
        np.testing.assert_array_equal(flags[d], alone[0])
        np.testing.assert_array_equal(counts[d], alone[1])
        for s, pa in enumerate(cell):
            np.testing.assert_array_equal(
                gammas[d, s], gamma_one(real.beta, powers, cfg.pilot_length,
                                        pa))


class TestStacksMatchOneDropCalls:
    @given(num_aps=st.integers(1, 6), num_ues=st.integers(1, 10),
           lp=st.integers(1, 5), extra=st.integers(1, 4),
           assoc_threshold=st.one_of(st.just(1.0), st.floats(0.5, 1.0)),
           strong_threshold=st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
           num_drops=st.integers(1, 4),
           schemes=st.lists(st.sampled_from(SCHEME_IDS), min_size=1,
                            max_size=4, unique=True),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    @example(num_aps=1, num_ues=3, lp=5, extra=1, assoc_threshold=1.0,
             strong_threshold=1.0, num_drops=3, schemes=list(SCHEME_IDS),
             seed=0)
    @example(num_aps=5, num_ues=10, lp=2, extra=1, assoc_threshold=1.0,
             strong_threshold=0.5, num_drops=4, schemes=["dpb", "eem"],
             seed=1)
    def test_tiny_stacks(self, num_aps, num_ues, lp, extra, assoc_threshold,
                         strong_threshold, num_drops, schemes, seed):
        # tiny configs reach one AP, T <= Lp and assoc_threshold = 1; the
        # examples pin all three, and threshold 1 with several APs. Each
        # drop also holds an assignment that declares 1 to Lp pilots
        cfg = NetworkConfig(area_side_m=200.0, num_aps=num_aps,
                            num_ues=num_ues, antennas_per_ap=lp + extra,
                            pilot_length=lp, assoc_threshold=assoc_threshold,
                            strong_threshold=strong_threshold)
        assert_matches_one_drop_calls(
            cfg, *drop_stack(cfg, num_drops, schemes, seed, narrow=True))

    def test_desk_pass(self, desk_config):
        # one evaluation pass: six desk drops under all four schemes
        cfg = desk_config(num_ues=60)
        assert_matches_one_drop_calls(cfg, *drop_stack(cfg, 6, SCHEME_IDS, 21))


def grouping_instance():
    """Two drops of two APs and three UEs, everyone strong: AP 0 serves UEs
    0 and 1, AP 1 serves all three. With two antennas, pilots [0, 0, 1]
    fail at AP 1, and [0, 1, 1] and [0, 1, 2] at both APs."""
    serves = np.array([[True, True, False], [True, True, True]])
    betas = np.full((2, 2, 3), 1e-9)
    return betas, np.stack([serves, serves])


class TestStackErrors:
    @pytest.mark.parametrize("pilots, drop, message", [
        # the first offending (drop, assignment) is named, not the lowest AP
        # or the largest count
        ([[[0, 0, 0], [0, 0, 1]], [[0, 1, 2], [0, 0, 0]]], 0,
         "^AP 1 would zero-force 2 pilots with only 2 antennas$"),
        # a sound first drop raises nothing, so the later drop's error is
        # named
        ([[[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 1]]], 1,
         "^AP 0 would zero-force 2 pilots with only 2 antennas$"),
    ], ids=["first-cell", "later-drop"])
    def test_first_failing_drop_names_its_grouping_error(self, pilots, drop,
                                                         message):
        betas, serves = grouping_instance()
        onehot = one_hot(3, np.array(pilots))
        with pytest.raises(ValueError, match=message):
            strong_stack(betas, serves, 1.0, onehot, 2)
        # the first failing drop raises the same alone
        alone = slice(drop, drop + 1)
        with pytest.raises(ValueError, match=message):
            strong_stack(betas[alone], serves[alone], 1.0, onehot[alone], 2)

    @pytest.mark.parametrize("pilots", [
        [[[0, 0, 0], [0, 0, 1]], [[0, -1, 0], [0, 0, 0]]],
        [[[0, -1, 0], [0, 0, 0]], [[0, 1, 1], [0, 0, 0]]],
        [[[0, 1, 1], [0, -1, 0]], [[0, 0, 0], [0, 0, 0]]],
    ], ids=["second-drop", "first-drop", "second-assignment"])
    def test_incomplete_stack_is_rejected_first(self, pilots):
        # grouping's drops with an unassigned UE in the second drop, the
        # first, or a drop's second assignment: evaluation rejects each at
        # entry, before it ranks any strong set; grouping reads only
        # complete assignments
        betas, serves = grouping_instance()
        cfg = NetworkConfig(num_aps=2, num_ues=3, antennas_per_ap=4,
                            pilot_length=3, strong_threshold=1.0)
        reals = [NetworkRealization(np.zeros((2, 2)), np.zeros((3, 2)), beta,
                                    0) for beta in betas]
        assocs = [map_from_sets(tuple(np.flatnonzero(s[:, k])
                                      for k in range(3)), s) for s in serves]
        with pytest.raises(ValueError, match="^pilot index -1 is negative: "
                                             "evaluation requires a complete "
                                             "assignment$"):
            evaluate_drops(reals, assocs, np.array(pilots),
                           normalize_powers(cfg), cfg)

    def test_evaluation_rejects_an_incomplete_assignment(self, desk_config):
        cfg = desk_config()
        powers, reals, assocs, by_drop = drop_stack(cfg, 3, ("eem", "dpb"),
                                                    4)
        pilots = by_drop[1][1].pilot_of.copy()
        pilots[5] = -1
        by_drop[1][1] = PilotAssignment(pilots, cfg.pilot_length)
        with pytest.raises(ValueError, match="^pilot index -1 is negative: "
                                             "evaluation requires a complete "
                                             "assignment$"):
            evaluate_drops(reals, assocs, pilot_stack(by_drop), powers, cfg)

    @pytest.mark.parametrize("pilots, error", [
        ([[[0, 1], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 0]]], ValueError),
        ([[[0, 1], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 1]]],
         AssertionError),
    ], ids=["value-first", "assertion-first"])
    def test_first_failing_cell_names_its_gamma_error(self, pilots, error):
        # drop 0 is sound. Drops 1 and 2 have a negative LSFC, which makes
        # UE 0's gamma exceed its beta when it shares UE 1's pilot, and
        # UE 1's gamma negative when it does not; drop 1's first cell picks
        # the error, and the later cells hold the other one
        powers = PowerProfile(np.full(2, 10.0), np.ones(2))
        betas = np.array([[[1.0, 0.5]], [[1.0, -0.2]], [[1.0, -0.2]]])
        pilot_of = np.array(pilots)
        message = {ValueError: "^gamma must be positive and finite$",
                   AssertionError: "^gamma exceeded beta; inputs are "
                                   "inconsistent$"}[error]
        with pytest.raises(error, match=message):
            gamma_stack(betas, powers, one_hot(2, pilot_of))
        # alone, drop 0's cells pass and drop 1's first cell fails alike
        for pilots in pilot_of[0]:
            gamma_one(betas[0], powers, 2, PilotAssignment(pilots, 2))
        with pytest.raises(error, match=message):
            gamma_one(betas[1], powers, 2, PilotAssignment(pilot_of[1, 0], 2))
