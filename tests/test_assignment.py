"""Sequential pilot assignment: greedy, priority-intersection, and baselines."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilotsim import (
    NetworkConfig,
    NetworkRealization,
    OpCounter,
    PilotAssignment,
    PowerProfile,
    SchemeConfig,
    assign_all,
    associate_aps,
    derive_seed,
    generate_drop,
    normalize_powers,
)
from pilotsim import assignment
from pilotsim.assignment import SCHEME_IDS, assign_drops
from pilotsim.estimation import ContaminationCache
from oracles import (oracle_eem_choice, oracle_error_global,
                     oracle_error_local, oracle_offer, oracle_priority_select,
                     oracle_scalable_choice)
from probes import (cache_errors, generator_pick, local_error, map_from_sets,
                    offered_set, resolve_offers, stack_row, unit_powers)
import test_seeding


def w_one_powers(n, lp):
    # p_pilot * lp == 1 keeps hand-computed weights round
    return PowerProfile(np.full(n, 1.0 / lp), np.ones(n))


class TestSchemeConfig:
    def test_valid(self):
        cfg = SchemeConfig("dpb", dpb_s=2, dpb_delta=0.0)
        assert cfg.dpb_s == 2

    @pytest.mark.parametrize("kwargs", [
        dict(scheme_id="greedy"),
        dict(scheme_id="dpb", dpb_s=0),
        dict(scheme_id="dpb", dpb_delta=-0.1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SchemeConfig(**kwargs)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="^dpb_delta must be finite and >= 0$"):
            SchemeConfig("dpb", dpb_delta=delta)

    @pytest.mark.parametrize("delta", ["0.1", True, None])
    def test_rejects_non_numeric_delta(self, delta):
        with pytest.raises(ValueError, match=r"^dpb_delta must be a number, "
                                             rf"got {re.escape(repr(delta))}$"):
            SchemeConfig("dpb", dpb_delta=delta)

    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_rejects_non_integral_s(self, value):
        with pytest.raises(ValueError, match="^dpb_s must be an integer"):
            SchemeConfig("dpb", dpb_s=value)
        assert SchemeConfig("dpb", dpb_s=np.int64(2)).dpb_s == 2

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_rejects_non_integral_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            SchemeConfig("random", seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_rejects_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\*\*64\)"):
            SchemeConfig("random", seed=seed)

    def test_accepts_every_64_bit_seed(self):
        for seed in (0, 2 ** 64 - 1, np.uint64(2 ** 63), np.int64(7)):
            assert SchemeConfig("dpb", seed=seed).seed == seed


def eem_rows(betas, lp, order=None):
    """`eem` on one-AP drops whose UEs' LSFCs are the rows of `betas`,
    under unit powers: the (D, T) pilots of each drop alone and, as a
    second array, of the drops stacked."""
    reals = [NetworkRealization(np.zeros((1, 2)), np.zeros((len(row), 2)),
                                np.array([row], dtype=float), 0)
             for row in betas]
    assocs = [associate_aps(real, 1.0) for real in reals]
    powers = unit_powers(len(betas[0]))
    alone = np.concatenate([
        assign_drops(SchemeConfig("eem"), [0], [real], [assoc], powers, lp,
                     order) for real, assoc in zip(reals, assocs)])
    return alone, assign_drops(SchemeConfig("eem"), [0] * len(reals), reals,
                               assocs, powers, lp, order)


class TestEemStep:
    def test_unique_phase_uses_rank(self):
        # the first Lp arrivals take the pilot of their arrival rank
        order = np.array([4, 1, 3, 0, 2])
        alone, stacked = eem_rows([[1.0] * 5, [0.5, 1.0, 2.0, 0.1, 1e-3]], 3,
                                  order)
        for pilots in (*alone, *stacked):
            assert pilots[order[:3]].tolist() == [0, 1, 2]

    def test_all_zero_errors_tie_to_pilot_zero(self):
        # UE 2's own term absorbs the tiny sums of UEs 0 and 1 in rounding,
        # so every pilot scores an error of exactly 0 and the lowest wins,
        # although pilot 1 holds the smaller sum
        tiny = [1e-100, 1e-200, 1.0]
        alone, stacked = eem_rows([tiny, tiny], 2)
        assert alone.tolist() == stacked.tolist() == [[0, 1, 0]] * 2

    def test_avoids_contaminated_pilot(self):
        # UE 2 takes the pilot of the weaker earlier UE: pilot 1 in the
        # first drop, pilot 0 in the second
        alone, stacked = eem_rows([[1.0, 1e-3, 1.0], [1e-3, 1.0, 1.0]], 2)
        assert alone.tolist() == stacked.tolist() == [[0, 1, 1], [0, 1, 0]]

    def test_full_trajectory_matches_naive_scan(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=31)
        lp = cfg.pilot_length
        got = assign_all(SchemeConfig("eem"), real, assoc, powers, lp)
        partial = np.full(cfg.num_ues, -1)
        for t in range(cfg.num_ues):
            if t < lp:
                want = t
            else:
                want = oracle_eem_choice(t, real.beta, powers.p_pilot, lp,
                                         partial, assoc.serving_aps[t])
            assert got.pilot_of[t] == want
            partial[t] = want

    def test_read_counter_exact(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=8)
        counter = OpCounter()
        assign_all(SchemeConfig("eem"), real, assoc, powers,
                   cfg.pilot_length, counter=counter)
        for t, reads in enumerate(counter.contamination_reads):
            if t < cfg.pilot_length:
                assert reads == 0
            else:
                assert reads == len(assoc.serving_aps[t]) * cfg.pilot_length


def eem_matches_stack_row(cfg, real, powers, assoc, order):
    """One drop's `eem` picks and reads against its row of a two-copy
    stack, which the same step runs: the same picks, and half the stack's
    reads, whatever the stacking; returns the picks."""
    lp = cfg.pilot_length
    scheme = SchemeConfig("eem")
    alone, stacked = OpCounter(), OpCounter()
    got = assign_all(scheme, real, assoc, powers, lp, order, alone).pilot_of
    np.testing.assert_array_equal(
        got, stack_row(scheme, real, assoc, powers, lp, order, stacked))
    np.testing.assert_array_equal(2 * np.array(alone.contamination_reads),
                                  stacked.contamination_reads)
    return got


def assert_eem_matches_oracle(real, assoc, powers, lp, order, got):
    """One drop's `eem` picks `got` against the naive scan, from the same
    earlier picks; a differing pick must be a tie up to round-off of the two
    error forms."""
    partial = np.full(real.num_ues, -1)
    for rank, ue in enumerate(order.tolist()):
        serving = assoc.serving_aps[ue]
        pick = got[ue]
        if rank < lp:
            assert pick == rank
        else:
            want = oracle_eem_choice(ue, real.beta, powers.p_pilot, lp,
                                     partial, serving)
            if pick != want:
                errors = [oracle_error_global(ue, i, real.beta,
                                              powers.p_pilot, lp, partial,
                                              serving)
                          for i in (pick, want)]
                assert errors[0] == pytest.approx(errors[1], rel=1e-12,
                                                  abs=0.0)
        partial[ue] = pick


class TestEemDrop:
    """One-drop `eem` is the step of a stack of one: its picks must not
    depend on the stacking, and the naive scan is their oracle."""

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8), st.integers(1, 24),
           st.integers(1, 9), st.integers(1, 3),
           st.sampled_from([0.5, 0.95, 1.0]), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    # T <= Lp: every UE arrives in the unique phase
    @example(3, 4, 5, 9, 1, 0.95, False, True)
    # one AP serving every UE
    @example(4, 1, 24, 2, 1, 1.0, True, False)
    def test_matches_stack_row_and_oracle(self, seed, m, t, lp, extra,
                                          threshold, wrap, shadowed):
        cfg = NetworkConfig(num_aps=m, num_ues=t, pilot_length=lp,
                            antennas_per_ap=lp + extra,
                            assoc_threshold=threshold, wrap_around=wrap,
                            shadow_sigma_db=8.0 if shadowed else 0.0)
        real = generate_drop(cfg, seed)
        powers = normalize_powers(cfg)
        assoc = associate_aps(real, threshold)
        order = np.random.default_rng(seed).permutation(t)
        got = eem_matches_stack_row(cfg, real, powers, assoc, order)
        assert_eem_matches_oracle(real, assoc, powers, lp, order, got)

    def test_large_drop_matches_stack_row(self):
        # a perfbench large-drop cell's size, M = 200, T = 400, in a
        # permuted order
        cfg = NetworkConfig(num_aps=200, num_ues=400)
        real = generate_drop(cfg, 44)
        assoc = associate_aps(real, cfg.assoc_threshold)
        order = np.random.default_rng(44).permutation(cfg.num_ues)
        got = eem_matches_stack_row(cfg, real, normalize_powers(cfg), assoc,
                                    order)
        # past the unique phase, pilots are reused
        assert np.bincount(got).min() > 1


def local_offer(t, m, delta, beta, powers, lp, local_copilots):
    """AP m's offer from its local errors, `local_copilots[i]` holding the
    UEs it serves on pilot i."""
    errors = np.array([oracle_error_local(t, m, beta, powers.p_pilot, lp, ks)
                       for ks in local_copilots])
    return offered_set(errors, delta)


def nudged(x, ulps):
    """x moved up by `ulps` units in the last place."""
    for _ in range(ulps):
        x = math.nextafter(x, math.inf)
    return x


@st.composite
def sum_rows(draw):
    """Adversarial pilot sums of one AP: zero and up to three magnitudes,
    each possibly nudged up by 1-3 ulps, so sums repeat, a row can be all
    zeros, and distinct sums, tiny beside the UE's own term, can score one
    error."""
    anchors = [0.0, *draw(st.lists(
        st.floats(-20.0, 7.0).map(lambda e: 10.0 ** e), max_size=3))]
    entries = st.tuples(st.sampled_from(anchors), st.integers(0, 3))
    return [nudged(a, k) for a, k in draw(st.lists(entries, min_size=1,
                                                   max_size=70))]


class TestCandidateSets:
    def test_zero_error_pilot_collapses_set(self):
        # instance A: an untouched pilot exists, so the minimum error is 0
        # and the set ignores delta entirely
        beta = np.array([[1.0, 0.8, 0.6, 0.5]])
        lp = 3
        powers = w_one_powers(4, lp)
        local = [[0, 2], [1], []]
        errors = [
            0.08602150537634408,
            0.05797101449275362,
            0.0,
        ]
        for delta in (0.0, 0.1, 0.5, 100.0):
            assert local_offer(3, 0, delta, beta, powers, lp, local) == {2}
        cache = ContaminationCache([beta], powers, lp)
        for t, p in enumerate([0, 1, 0]):
            cache.record(t, p)
        np.testing.assert_allclose(cache_errors(cache, beta, powers, 3, 0),
                                   errors, rtol=1e-13)

    def test_delta_widens_set(self):
        # instance B: all pilots carry contamination, delta controls width
        beta = np.array([[0.30, 0.29, 0.9, 0.5, 0.7]])
        lp = 3
        powers = w_one_powers(5, lp)
        local = [[0], [1], [2, 3]]
        errors = np.array([
            0.043235294117647066,
            0.042004138338752606,
            0.1301707779886148,
        ])
        cache = ContaminationCache([beta], powers, lp)
        for t, p in enumerate([0, 1, 2, 2]):
            cache.record(t, p)
        cached = cache_errors(cache, beta, powers, 4, 0)
        np.testing.assert_allclose(cached, errors, rtol=1e-13)
        for delta, want in ((0.0, {1}), (0.1, {0, 1}), (5.0, {0, 1, 2})):
            assert local_offer(4, 0, delta, beta, powers, lp, local) == want
            assert offered_set(cached, delta) == want

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 4.0))
    @settings(max_examples=80, deadline=None)
    def test_argmin_membership_and_monotonicity(self, seed, delta):
        r = np.random.default_rng(seed)
        # a few distinct values, so pilots tie often
        errors = r.choice(r.uniform(0.0, 1.0, size=3),
                          size=int(r.integers(1, 9)))
        got = offered_set(errors, delta)
        assert int(np.argmin(errors)) in got
        assert got == set(oracle_offer(errors, delta).tolist())
        assert got <= offered_set(errors, delta + 0.5)
        assert np.all(errors[list(got)] <= (1.0 + delta) * errors.min())

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 70),
           st.sampled_from([0.0, 0.1, 5.0, None]))
    @settings(max_examples=200, deadline=None)
    def test_list_and_array_offers_agree(self, seed, lp, delta):
        # the float loop scores Python floats pilot by pilot, the stacked
        # step arrays: both admit the oracle's candidate set
        r = np.random.default_rng(seed)
        if delta is None:
            delta = float(r.uniform(0.0, 2.0))
        own, weight = 10.0 ** r.uniform(-9, -6), 10.0 ** r.uniform(0, 3)
        # a few distinct sums, zero among them, so pilots tie often
        sums = r.choice(np.append(0.0, 10.0 ** r.uniform(-4, 1, size=3)),
                        size=lp).tolist()
        errors = [local_error(weight * own, own, s) for s in sums]
        least = min(errors)
        got = {i for i, e in enumerate(errors)
               if assignment._offered(e, least, delta)}
        assert got == offered_set(np.array(errors), delta)
        assert got == set(oracle_offer(np.array(errors), delta).tolist())

    @given(row=sum_rows(),
           weighted_own=st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e),
           own=st.floats(-13.0, -6.0).map(lambda e: 10.0 ** e),
           delta=st.sampled_from([0.0, 1e-12, 0.1, 2.0, 1e6]))
    # distinct sums that score one error: the lower pilot holds the larger
    @example(row=[1e-20, 0.0], weighted_own=1.0, own=1e-9, delta=0.0)
    # a larger error within delta of the least is still offered
    @example(row=[1.0, 1.05], weighted_own=1.0, own=1e-9, delta=0.1)
    @example(row=[0.0] * 7, weighted_own=1e3, own=1e-9, delta=0.1)
    @settings(max_examples=300, deadline=None)
    def test_ranked_walk_matches_a_full_scan(self, row, weighted_own, own,
                                             delta):
        # the float loop walks an AP's pilots by sum and stops at the first
        # one rejected; a full scan scores every pilot
        errors = [local_error(weighted_own, own, s) for s in row]
        least = min(errors)
        mask = sum(1 << i for i, e in enumerate(errors)
                   if assignment._offered(e, least, delta))
        assert assignment._offer(row, weighted_own, own, delta) == (
            mask, errors.index(least))
        # the walk rests on errors that never fall as sums grow
        by_sum = [e for _, e in sorted(zip(row, errors))]
        assert by_sum == sorted(by_sum)


class TestPrioritySelect:
    """The priority resolution of both DPB steps (`_resolve`), fed
    best-first lists as `resolve_offers` does."""

    def test_full_agreement(self):
        assert resolve_offers([[3], [3], [3]]) == 3

    def test_pairwise_disjoint_falls_back_to_top_ap(self):
        assert resolve_offers([[0], [1], [2]]) == 0

    def test_level_two_order_prefers_stronger_pair(self):
        # sets {0,1}, {2}, {1}: triple empty, (1,2) empty, (1,3) = {1}
        assert resolve_offers([[0, 1], [2], [1]]) == 1

    def test_fallback_takes_lowest_error_member(self):
        assert resolve_offers([[2, 1], [0], [3]]) == 2

    def test_seeded_rule_reproducible_and_in_set(self):
        offers = [[1, 4, 5], [1, 4, 5]]
        picks = {resolve_offers(offers, seed=9, ue=u) for u in range(40)}
        assert picks <= {1, 4, 5}
        assert len(picks) > 1
        again = [resolve_offers(offers, seed=9, ue=u) for u in range(40)]
        assert again == [resolve_offers(offers, seed=9, ue=u) for u in range(40)]

    def test_intersection_check_budget(self):
        counter = OpCounter()
        counter.start_ue()
        resolve_offers([[0], [1], [2]], counter=counter)
        # exhaustive search: one triple plus three pairs
        assert counter.intersection_checks[-1] == 4

    def test_single_set_goes_straight_to_tiebreak(self):
        # one offer tries no intersection: its best pilot wins, draws or not
        for ue in range(20):
            assert resolve_offers([[4, 2]], seed=9, ue=ue) == 4

    def test_pilots_beyond_64_bits(self):
        offers = [[3, 70, 199], [70, 199]]
        assert resolve_offers(offers, seed=4, ue=1) in (70, 199)
        # a common set that the top AP never offered
        offers = [[3], [199, 70], [70, 199]]
        for ue in range(20):
            assert (resolve_offers(offers, seed=4, ue=ue)
                    == [70, 199][generator_pick(4, ue, 2)])

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5),
           st.integers(1, 130), st.booleans())
    @example(7, 3, 130, True)
    @example(11, 5, 70, True)
    @settings(max_examples=300, deadline=None)
    def test_matches_intersect1d_oracle(self, seed, s, lp, lone):
        # S' = 1-5 offers over up to 130 pilots; `lone` plants one pilot,
        # past bit 63 where Lp allows, in most offers and every other pilot
        # in one offer at most, so that any common set is that one pilot
        r = np.random.default_rng(seed)
        if lone:
            planted = int(r.integers(64 if lp > 64 else 0, lp))
            # pilot i joins offer owner[i]; s means none
            owner = r.integers(s + 1, size=lp)
            offers = [[i for i in r.permutation(lp).tolist()
                       if owner[i] == j
                       or i == planted and r.random() < 0.7]
                      or [int(r.integers(lp))] for j in range(s)]
        else:
            offers = [r.choice(lp, size=int(r.integers(1, lp + 1)),
                               replace=False).tolist() for _ in range(s)]
        for _ in range(8):
            run_seed = int(r.integers(2 ** 64, dtype=np.uint64))
            ue = int(r.integers(1000))
            mine, ref = OpCounter(), OpCounter()
            mine.start_ue()
            ref.start_ue()
            got = resolve_offers(offers, run_seed, ue, mine)
            want = oracle_priority_select(offers, run_seed, ue, ref)
            assert got == want
            assert mine.intersection_checks == ref.intersection_checks


def random_pilots(num_ues, lp, seed):
    """The `random` scheme's pilots on a one-AP drop of num_ues UEs."""
    real = NetworkRealization(np.zeros((1, 2)), np.zeros((num_ues, 2)),
                              np.ones((1, num_ues)), 0)
    return assign_all(SchemeConfig("random", seed=seed), real,
                      associate_aps(real, 0.95), unit_powers(num_ues),
                      lp).pilot_of.tolist()


class TestRandomPa:
    def test_single_pilot(self):
        assert random_pilots(12, 1, 3) == [0] * 12

    def test_reproducible_per_ue(self):
        a = random_pilots(50, 7, 42)
        assert a == random_pilots(50, 7, 42)
        assert a != random_pilots(50, 7, 43)
        # each UE draws from its own stream: fewer UEs keep the prefix
        assert random_pilots(20, 7, 42) == a[:20]

    def test_roughly_uniform(self):
        n = 30000
        counts = np.bincount(random_pilots(n, 7, 0), minlength=7)
        sigma = np.sqrt(n * (1 / 7) * (6 / 7))
        assert np.all(np.abs(counts - n / 7) <= 3 * sigma)

    # the kernel cases live in test_seeding.py; these names keep the ids
    # they had before they moved
    test_rejectable_words_take_the_generator = (
        test_seeding.TestPicks.test_rejectable_words_take_the_generator)
    test_past_32_bits_takes_the_generator = (
        test_seeding.TestPicks.test_past_32_bits_takes_the_generator)


class TestStreamKernel:
    # these tests live in test_seeding.py; the names here keep the ids they
    # had before they moved (Hypothesis runs a @given test from one class)
    _MOVED = test_seeding.TestStreamKernel
    test_edge_seeds = _MOVED.test_edge_seeds
    test_broadcast_matches_pairwise = _MOVED.test_broadcast_matches_pairwise
    test_rejectable_word_falls_back = _MOVED.test_rejectable_word_falls_back
    test_past_32_bits_falls_back = _MOVED.test_past_32_bits_falls_back
    test_kernel_dtypes = _MOVED.test_kernel_dtypes
    test_peak_memory_of_a_desk_stack = _MOVED.test_peak_memory_of_a_desk_stack
    test_one_kernel_call_per_stack = _MOVED.test_one_kernel_call_per_stack


def cache_choice(t, beta, powers, lp, prior):
    """assign_all's scalable read: holders recorded, argmin at the master."""
    cache = ContaminationCache([beta], powers, lp)
    for k, pilot in enumerate(prior):
        if pilot >= 0 and k != t:
            cache.record(k, pilot)
    return int(np.argmin(cache.sums[np.argmax(beta[:, t])]))


def oracle_scalable_run(beta, powers, lp, order):
    pilot_of = np.full(beta.shape[1], -1)
    for t in order:
        pilot_of[t] = oracle_scalable_choice(t, beta, powers, lp, pilot_of,
                                             order)
    return pilot_of


class TestScalablePa:
    def test_empty_prior_takes_pilot_zero(self):
        beta = np.array([[0.5, 0.4]])
        prior = np.array([-1, -1])
        assert oracle_scalable_choice(1, beta, unit_powers(2), 3, prior) == 0
        assert cache_choice(1, beta, unit_powers(2), 3, prior) == 0

    def test_frozen_loads(self):
        # master AP row [0.5, 0.4, 0.3, _], prior [0, 1, 0]:
        # loads [0.5 + 0.3, 0.4] so pilot 1 wins
        beta = np.array([[0.5, 0.4, 0.3, 0.2]])
        prior = np.array([0, 1, 0, -1])
        assert oracle_scalable_choice(3, beta, unit_powers(4), 2, prior) == 1
        assert cache_choice(3, beta, unit_powers(4), 2, prior) == 1

    def test_master_is_strongest_ap(self):
        # AP 1 is the master for UE 2 and sees pilot 0 as the lighter one
        beta = np.array([[0.9, 0.1, 0.2],
                         [0.1, 0.9, 0.3]])
        prior = np.array([0, 1, -1])
        assert oracle_scalable_choice(2, beta, unit_powers(3), 2, prior) == 0
        assert cache_choice(2, beta, unit_powers(3), 2, prior) == 0

    def test_tie_goes_to_lowest_index(self):
        beta = np.array([[0.5, 0.5, 0.5]])
        prior = np.array([0, 1, -1])
        assert oracle_scalable_choice(2, beta, unit_powers(3), 2, prior) == 0
        assert cache_choice(2, beta, unit_powers(3), 2, prior) == 0

    def test_own_stale_entry_ignored(self):
        beta = np.array([[1.0, 0.1]])
        prior = np.array([0, 1])
        assert oracle_scalable_choice(1, beta, unit_powers(2), 2, prior) == 1
        assert cache_choice(1, beta, unit_powers(2), 2, prior) == 1

    def test_tied_master_is_first_ap(self):
        # UE 2 hears APs 0 and 1 equally; AP 0 sees pilot 0 as the lighter
        # one (0.5 < 0.9), AP 1 would pick pilot 1
        beta = np.array([[0.5, 0.9, 0.7],
                         [0.9, 0.5, 0.7]])
        real = NetworkRealization(np.zeros((2, 2)), np.zeros((3, 2)), beta, 0)
        pa = assign_all(SchemeConfig("scalable"), real, associate_aps(real, 1.0),
                        unit_powers(3), 2)
        assert pa.pilot_of.tolist() == [0, 1, 0]

    @given(st.integers(0, 2 ** 31 - 1), st.booleans(), st.booleans(),
           st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    # pilot loads that tie exactly, where the order of summation decides
    @example(907, True, True, True, True)
    @example(196, True, True, True, True)
    def test_matches_rescan_oracle(self, seed, const_rows, equal_powers,
                                   tied_masters, shuffled):
        r = np.random.default_rng(seed)
        m, t, lp = (int(r.integers(1, 5)), int(r.integers(1, 13)),
                    int(r.integers(1, 5)))
        beta = 10.0 ** r.uniform(-12.0, -6.0, size=(m, t))
        if const_rows:
            rows = r.random(m) < 0.5
            beta[rows] = 10.0 ** r.uniform(-12.0, -6.0, size=(rows.sum(), 1))
        if tied_masters and m > 1:
            # some UEs hear a second AP exactly as strongly as their master
            for k in np.flatnonzero(r.random(t) < 0.5):
                beta[int(r.integers(m)), k] = beta[:, k].max()
        if equal_powers:
            powers = PowerProfile(np.full(t, 10.0 ** r.uniform(0.0, 3.0)),
                                  np.ones(t))
        else:
            powers = PowerProfile(10.0 ** r.uniform(0.0, 3.0, t), np.ones(t))
        order = r.permutation(t) if shuffled else np.arange(t)
        real = NetworkRealization(np.zeros((m, 2)), np.zeros((t, 2)), beta, 0)
        pa = assign_all(SchemeConfig("scalable"), real,
                        associate_aps(real, 0.95), powers, lp, order=order)
        np.testing.assert_array_equal(
            pa.pilot_of, oracle_scalable_run(beta, powers, lp, order))


class TestAssignAll:
    @pytest.mark.parametrize("scheme_id", ["eem", "dpb", "random", "scalable"])
    def test_complete_and_in_range(self, desk_drop, scheme_id):
        cfg, real, powers, assoc = desk_drop(seed=3)
        pa = assign_all(SchemeConfig(scheme_id, seed=5), real, assoc, powers,
                        cfg.pilot_length)
        assert (pa.pilot_of >= 0).all()
        assert pa.pilot_of.size == cfg.num_ues
        assert np.all(pa.pilot_of >= 0) and np.all(pa.pilot_of < cfg.pilot_length)

    def test_eem_unique_when_ues_fit(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=3, num_ues=7, pilot_length=7)
        pa = assign_all(SchemeConfig("eem"), real, assoc, powers, 7)
        np.testing.assert_array_equal(pa.pilot_of, np.arange(7))

    def test_order_reassigns_unique_phase(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=3, num_ues=6, pilot_length=7)
        order = np.array([5, 3, 0, 1, 4, 2])
        pa = assign_all(SchemeConfig("eem"), real, assoc, powers, 7, order=order)
        for rank, t in enumerate(order):
            assert pa.pilot_of[t] == rank

    @pytest.mark.parametrize("bad", [[0, 0, 1], [0, 1], [0, 1, 3]])
    def test_rejects_non_permutations(self, desk_drop, bad):
        cfg, real, powers, assoc = desk_drop(seed=3, num_ues=3)
        with pytest.raises(ValueError):
            assign_all(SchemeConfig("random"), real, assoc, powers,
                       cfg.pilot_length, order=np.array(bad))

    @pytest.mark.parametrize("bad", [[0.9, 1.2, 2.5, 3.1, 4.7],
                                     [True, False, 2, 3, 4],
                                     np.arange(5.0)])
    def test_rejects_non_integer_orders(self, desk_drop, bad):
        # a cast would run the first as the identity and the second as
        # [1, 0, 2, 3, 4]
        cfg, real, powers, assoc = desk_drop(seed=3, num_ues=5)
        with pytest.raises(ValueError, match="^order must hold integers"):
            assign_all(SchemeConfig("eem"), real, assoc, powers,
                       cfg.pilot_length, order=bad)

    @pytest.mark.parametrize("scheme_id", ["eem", "dpb"])
    def test_prefix_stable_under_truncation(self, desk_drop, scheme_id):
        # dropping the last UEs must not disturb the earlier assignments:
        # association is per-UE-column, so the truncated system is identical
        # for the survivors
        cfg, real, powers, assoc = desk_drop(seed=12)
        k = cfg.num_ues - 8
        scheme = SchemeConfig(scheme_id, seed=4)
        full = assign_all(scheme, real, assoc, powers, cfg.pilot_length)
        real_k = NetworkRealization(real.ap_positions, real.ue_positions[:k],
                                    real.beta[:, :k], real.seed)
        powers_k = PowerProfile(powers.p_pilot[:k], powers.p_uplink[:k])
        assoc_k = associate_aps(real_k, cfg.assoc_threshold)
        for t in range(k):
            np.testing.assert_array_equal(assoc_k.serving_aps[t],
                                          assoc.serving_aps[t])
        trunc = assign_all(scheme, real_k, assoc_k, powers_k, cfg.pilot_length)
        np.testing.assert_array_equal(trunc.pilot_of, full.pilot_of[:k])

    def test_dpb_eval_counter_exact(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=8)
        counter = OpCounter()
        s = 3
        assign_all(SchemeConfig("dpb", dpb_s=s, seed=1), real, assoc, powers,
                   cfg.pilot_length, counter=counter)
        for t, evals in enumerate(counter.error_evals):
            s_prime = min(s, len(assoc.serving_aps[t]))
            assert evals == s_prime * cfg.pilot_length
            assert counter.intersection_checks[t] <= 2 ** s - s - 1

    def test_random_scheme_matches_per_ue_stream(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=3)
        pa = assign_all(SchemeConfig("random", seed=77), real, assoc, powers,
                        cfg.pilot_length)
        want = [generator_pick(77, t, cfg.pilot_length)
                for t in range(cfg.num_ues)]
        assert list(pa.pilot_of) == want

    def test_random_reads_no_earlier_pick(self, desk_drop, monkeypatch):
        # each UE draws from its own stream, so the arrival order moves no
        # pilot, and no UE is stepped through a contamination cache
        cfg, real, powers, assoc = desk_drop(seed=3)
        scheme = SchemeConfig("random", seed=77)
        plain = assign_all(scheme, real, assoc, powers, cfg.pilot_length)
        monkeypatch.setattr(assignment, "ContaminationCache", None)
        counter = OpCounter()
        order = np.random.default_rng(0).permutation(cfg.num_ues)
        shuffled = assign_all(scheme, real, assoc, powers, cfg.pilot_length,
                              order, counter)
        np.testing.assert_array_equal(shuffled.pilot_of, plain.pilot_of)
        assert tallies(counter).size == 0


def tallies(counter):
    return np.array([counter.contamination_reads, counter.error_evals,
                     counter.intersection_checks])


def dpb_matches_oracle(cfg, real, powers, assoc):
    """One drop's `assign_all` dpb picks and intersection checks against
    the oracle's offers and priority selection, UE by UE."""
    lp = cfg.pilot_length
    scheme = SchemeConfig("dpb", dpb_s=3, seed=1)
    counter = OpCounter()
    pa = assign_all(scheme, real, assoc, powers, lp, counter=counter)
    heard = real.beta * assoc.serves
    cache = ContaminationCache([heard], powers, lp)
    for t in range(cfg.num_ues):
        offers = [oracle_offer(cache_errors(cache, heard, powers, t, int(m)),
                               scheme.dpb_delta).tolist()
                  for m in assoc.serving_aps[t][:scheme.dpb_s]]
        ref = OpCounter()
        ref.start_ue()
        assert oracle_priority_select(offers, scheme.seed, t,
                                      ref) == pa.pilot_of[t]
        assert counter.intersection_checks[t] == ref.intersection_checks[0]
        cache.record(t, int(pa.pilot_of[t]))


class TestAssignDrops:
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(SCHEME_IDS),
           st.integers(1, 4),
           st.sampled_from([1, 3, 7, 70]), st.sampled_from([0.0, 0.1, 1.0]),
           st.integers(1, 5), st.booleans())
    @settings(max_examples=200, deadline=None)
    # a stack with one-AP serving sets, dpb_s above |M_t|, delta = 0 and
    # masks past 64 bits
    @example(5, "dpb", 3, 70, 0.0, 5, True)
    @example(5, "dpb", 3, 70, 0.0, 5, False)
    @example(11, "eem", 4, 3, 0.1, 3, True)
    def test_each_drop_matches_its_own_run(self, seed, scheme_id, num_drops,
                                           lp, delta, s, shuffled):
        r = np.random.default_rng(seed)
        m, t = int(r.integers(1, 7)), int(r.integers(1, 13))
        reals = [NetworkRealization(np.zeros((m, 2)), np.zeros((t, 2)),
                                    10.0 ** r.uniform(-12.0, -6.0, size=(m, t)), 0)
                 for _ in range(num_drops)]
        # a threshold per drop, so serving-set sizes differ across the stack
        assocs = [associate_aps(real, float(r.choice([0.3, 0.8, 0.95, 1.0])))
                  for real in reals]
        powers = PowerProfile(10.0 ** r.uniform(0.0, 3.0, t), np.ones(t))
        order = r.permutation(t) if shuffled else None
        seeds = r.integers(2 ** 31, size=num_drops).tolist()
        scheme = SchemeConfig(scheme_id, s, delta)
        counter = OpCounter()
        got = assign_drops(scheme, seeds, reals, assocs, powers, lp, order,
                           counter)
        assert got.shape == (num_drops, t)
        want_tallies = 0
        for drop_seed, real, assoc, pilots in zip(seeds, reals, assocs, got):
            alone = OpCounter()
            want = assign_all(replace(scheme, seed=drop_seed), real, assoc,
                              powers, lp, order, alone)
            np.testing.assert_array_equal(pilots, want.pilot_of)
            want_tallies = want_tallies + tallies(alone)
        # padded APs add no reads, evaluations or intersection checks
        np.testing.assert_array_equal(tallies(counter), want_tallies)

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_desk_stack_matches_each_drop(self, desk_drop, scheme_id):
        # the harness's stack: 25 desk drops at M=30, T=60 in one call, in
        # a shuffled arrival order, each drawing from a 64-bit seed
        drops = [desk_drop(seed=seed, num_ues=60) for seed in range(25)]
        cfg, _, powers, _ = drops[0]
        _, reals, _, assocs = zip(*drops)
        order = np.random.default_rng(4).permutation(cfg.num_ues)
        seeds = [derive_seed(9, d) for d in range(25)]
        scheme = SchemeConfig(scheme_id)
        counter = OpCounter()
        got = assign_drops(scheme, seeds, reals, assocs, powers,
                           cfg.pilot_length, order, counter)
        want_tallies = 0
        assert got.dtype.kind == "i"
        for seed, real, assoc, pilots in zip(seeds, reals, assocs, got,
                                             strict=True):
            alone = OpCounter()
            want = assign_all(replace(scheme, seed=seed), real, assoc, powers,
                              cfg.pilot_length, order, alone)
            np.testing.assert_array_equal(pilots, want.pilot_of)
            want_tallies = want_tallies + tallies(alone)
        np.testing.assert_array_equal(tallies(counter), want_tallies)

    @pytest.mark.parametrize("scheme_id", ["eem", "scalable", "dpb"])
    @pytest.mark.parametrize("num_ues, lp", [(5, 7), (9, 3)],
                             ids=["T<=Lp", "T>Lp"])
    @pytest.mark.parametrize("s", [2, 5])
    def test_ragged_stacks_match_each_drop(self, scheme_id, num_ues, lp, s):
        # three drops of M = 4 whose runs differ in length across the
        # stack: every UE served by one AP, every UE by all four, and a mix;
        # S = 2 lies below some |M_t| and above others, S = 5 above all
        num_aps = 4
        r = np.random.default_rng(num_ues * 10 + s)
        reals, assocs = [], []
        for sizes in (np.ones(num_ues, int), np.full(num_ues, num_aps),
                      r.integers(1, num_aps + 1, num_ues)):
            beta = 10.0 ** r.uniform(-12.0, -6.0, size=(num_aps, num_ues))
            sets = [np.argsort(-beta[:, t])[:k] for t, k in enumerate(sizes)]
            serves = np.zeros((num_aps, num_ues), bool)
            for t, aps in enumerate(sets):
                serves[aps, t] = True
            reals.append(NetworkRealization(np.zeros((num_aps, 2)),
                                            np.zeros((num_ues, 2)), beta, 0))
            assocs.append(map_from_sets(sets, serves))
        powers = PowerProfile(10.0 ** r.uniform(0.0, 3.0, num_ues),
                              np.ones(num_ues))
        order = r.permutation(num_ues)
        seeds = [3, 5, 8]
        scheme = SchemeConfig(scheme_id, s)
        counter = OpCounter()
        got = assign_drops(scheme, seeds, reals, assocs, powers, lp, order,
                           counter)
        want_tallies = 0
        for seed, real, assoc, pilots in zip(seeds, reals, assocs, got,
                                             strict=True):
            alone = OpCounter()
            want = assign_all(replace(scheme, seed=seed), real, assoc, powers,
                              lp, order, alone)
            np.testing.assert_array_equal(pilots, want.pilot_of)
            want_tallies = want_tallies + tallies(alone)
            # a stack of one steps `eem` and `scalable` as the stack does,
            # so the naive scans judge the picks themselves
            if scheme_id == "eem":
                assert_eem_matches_oracle(real, assoc, powers, lp, order,
                                          pilots)
            elif scheme_id == "scalable":
                np.testing.assert_array_equal(pilots, oracle_scalable_run(
                    real.beta, powers, lp, order))
        np.testing.assert_array_equal(tallies(counter), want_tallies)

    def test_one_drop_checks_match_oracle(self, desk_drop):
        dpb_matches_oracle(*desk_drop(seed=8))

    @pytest.mark.parametrize("lp", [64, 65, 130])
    def test_masks_past_64_pilots_match_oracle(self, desk_drop, lp):
        # offers span one, two and three uint64 limbs; T = 50 <= Lp, so
        # pilots tie often and the common sets reach the top limb
        dpb_matches_oracle(*desk_drop(seed=8, pilot_length=lp,
                                      antennas_per_ap=lp + 1))

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_rejects_an_empty_stack(self, desk_drop, scheme_id):
        cfg, _, powers, _ = desk_drop(seed=3)
        with pytest.raises(ValueError, match="^need at least one drop"):
            assign_drops(SchemeConfig(scheme_id), [], [], [], powers,
                         cfg.pilot_length)

    def test_rejects_mismatched_stacks(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=3)
        with pytest.raises(ValueError, match="one seed and one association"):
            assign_drops(SchemeConfig("eem"), [1, 2], [real, real], [assoc],
                         powers, cfg.pilot_length)
        _, fewer, _, fewer_assoc = desk_drop(seed=3, num_ues=cfg.num_ues - 1)
        with pytest.raises(ValueError, match="must share M and T"):
            assign_drops(SchemeConfig("eem"), [1, 2], [real, fewer],
                         [assoc, fewer_assoc], powers, cfg.pilot_length)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2.0])
    def test_rejects_bad_drop_seeds(self, desk_drop, seed):
        cfg, real, powers, assoc = desk_drop(seed=3)
        with pytest.raises(ValueError, match="^seed must"):
            assign_drops(SchemeConfig("random"), [1, seed], [real, real],
                         [assoc, assoc], powers, cfg.pilot_length)


class TestDpbLocality:
    """The abstract's APs use only local information: a DPB step reads an
    AP's LSFCs of the UEs it serves, so no other link can move a pick."""

    @pytest.mark.parametrize("num_drops", [1, 3])
    def test_unserved_links_move_no_pick(self, desk_drop, num_drops):
        drops = [desk_drop(seed=30 + d, num_ues=60) for d in range(num_drops)]
        cfg, _, powers, _ = drops[0]
        _, reals, _, assocs = zip(*drops)
        r = np.random.default_rng(num_drops)
        # each unserved link scaled by 1e-6 to 1e6, with the same association
        moved = [NetworkRealization(
            real.ap_positions, real.ue_positions,
            np.where(assoc.serves, real.beta,
                     real.beta * 10.0 ** r.uniform(-6, 6, real.beta.shape)),
            real.seed) for real, assoc in zip(reals, assocs)]
        order = r.permutation(cfg.num_ues)
        seeds = [derive_seed(num_drops, d) for d in range(num_drops)]
        for scheme_id, same in (("dpb", True), ("eem", False)):
            picks = [assign_drops(SchemeConfig(scheme_id), seeds, stack,
                                  assocs, powers, cfg.pilot_length, order)
                     for stack in (reals, moved)]
            # eem hears every UE at every serving AP, so the scaling bites
            assert np.array_equal(*picks) == same
