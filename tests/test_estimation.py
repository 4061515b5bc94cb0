"""Channel-estimation quality: gamma, error metrics, and the running cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim import (NetworkConfig, NetworkRealization, PilotAssignment,
                      PowerProfile)
from pilotsim.estimation import ContaminationCache, local_error_profile
from pilotsim.performance import evaluate_drops
from oracles import (oracle_error_global, oracle_error_local, oracle_gamma,
                     oracle_gamma_bound)
from probes import gamma_one, map_from_sets


def unit_powers(n):
    return PowerProfile(np.ones(n), np.ones(n))


def evaluate_on_one_ap(pilots, lp):
    """Evaluate a (D, S, T) pilot stack on D drops of one AP that serves
    every UE at unit LSFC, under pilot length lp: the gammas' one caller."""
    num_drops, _, num_ues = np.shape(pilots)
    cfg = NetworkConfig(num_aps=1, num_ues=num_ues, pilot_length=lp)
    real = NetworkRealization(np.zeros((1, 2)), np.zeros((num_ues, 2)),
                              np.ones((1, num_ues)), 0)
    assoc = map_from_sets([[0]] * num_ues, np.ones((1, num_ues), bool))
    return evaluate_drops([real] * num_drops, [assoc] * num_drops,
                          np.array(pilots), unit_powers(num_ues), cfg)


def cached_global_error(t, pilot, beta, powers, lp, assignment, serving):
    """Aggregate error of UE t taking `pilot`, read from a cache that holds
    every other assigned UE."""
    cache = ContaminationCache(beta, powers, lp)
    for k, i in enumerate(assignment.pilot_of.tolist()):
        if i >= 0 and k != t:
            cache.record(k, i)
    serving = np.asarray(serving, dtype=int)
    return float(cache.local_errors(serving, t).sum(axis=0)[pilot])


def error_scale(t, serving, beta, powers, lp):
    """The bound term of the error summed over `serving`: the error is a
    difference of near-equal ratios, so a tolerance against an independently
    summed reference must scale with the minuend, not with the difference."""
    own = powers.p_pilot[t] * lp * beta[serving, t]
    return float(np.sum(own * beta[serving, t] / (own + 1.0)))


def cached_local_error(t, m, beta, powers, lp, copilots):
    """Error of UE t at AP m with the given UEs as its local co-pilots."""
    cache = ContaminationCache(beta, powers, lp)
    for k in copilots:
        if k != t:
            cache.record(int(k), 0)
    return float(cache.local_errors(m, t)[0])


class TestPilotAssignment:
    def test_basic_fields(self):
        pa = PilotAssignment(np.array([0, 1, 0, -1]), 2)
        assert pa.pilot_of.size == 4
        assert not (pa.pilot_of >= 0).all()

    def test_complete_flag(self):
        assert (PilotAssignment(np.array([1, 0]), 2).pilot_of >= 0).all()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PilotAssignment(np.array([0, 2]), 2)
        with pytest.raises(ValueError):
            PilotAssignment(np.array([-2]), 2)
        with pytest.raises(ValueError):
            PilotAssignment(np.array([[0, 1]]), 2)
        with pytest.raises(ValueError):
            PilotAssignment(np.array([0]), 0)

    @pytest.mark.parametrize("pilots,num_pilots", [
        ([0.5, 1.7], 3), (np.array([0.0, 1.0]), 3), ([True, 1], 3),
        (np.array([True, False]), 3), ([0, 1], 2.5), ([0, 1], True)])
    def test_rejects_non_integer_entries(self, pilots, num_pilots):
        # a cast would truncate 0.5 and 1.7 to pilots 0 and 1
        with pytest.raises(ValueError, match="must (be an integer|hold "
                                             "integers)"):
            PilotAssignment(pilots, num_pilots)

    def test_array_is_frozen(self):
        pa = PilotAssignment(np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            pa.pilot_of[0] = 1


class TestGamma:
    def test_single_ue_unit_everything(self):
        # w = p_pilot * Lp = 1, beta = 1: gamma = 1/(1+1)
        beta = np.array([[1.0]])
        q = gamma_one(beta, unit_powers(1), 1, PilotAssignment(np.array([0]), 1))
        assert q[0, 0] == 0.5
        assert oracle_gamma_bound(beta, np.ones(1), 1)[0, 0] == 0.5

    def test_two_copilot_ues(self):
        # two unit-strength UEs on one pilot: denominator 1+1+1
        beta = np.ones((1, 2))
        q = gamma_one(beta, unit_powers(2), 1, PilotAssignment(np.array([0, 0]), 1))
        np.testing.assert_allclose(q, 1.0 / 3.0, rtol=0, atol=0)

    def test_matches_oracle_random(self, rng):
        for _ in range(25):
            m, t, lp = 3, 4, 2
            beta = 10.0 ** rng.uniform(-12, -6, size=(m, t))
            powers = PowerProfile(10.0 ** rng.uniform(0, 3, t),
                                  10.0 ** rng.uniform(0, 3, t))
            pa = PilotAssignment(rng.integers(0, lp, t), lp)
            got = gamma_one(beta, powers, lp, pa)
            want = oracle_gamma(beta, powers.p_pilot, lp, pa.pilot_of)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_bound_reached_iff_alone(self, rng):
        beta = 10.0 ** rng.uniform(-10, -7, size=(2, 3))
        powers = unit_powers(3)
        pa = PilotAssignment(np.array([0, 1, 0]), 2)
        g = gamma_one(beta, powers, 3, pa)
        bound = oracle_gamma_bound(beta, powers.p_pilot, 3)
        # UE 1 is alone on its pilot, UEs 0 and 2 share
        np.testing.assert_array_equal(g[:, 1], bound[:, 1])
        assert np.all(g[:, [0, 2]] < bound[:, [0, 2]])
        assert np.all(g <= bound)

    def test_gamma_grows_toward_beta_with_power(self):
        beta = np.array([[2e-9]])
        pa = PilotAssignment(np.array([0]), 1)
        prev = 0.0
        for p in (1e2, 1e4, 1e6, 1e12):
            g = gamma_one(beta, PowerProfile(np.array([p]), np.array([p])),
                              7, pa)[0, 0]
            assert prev < g < beta[0, 0]
            prev = g
        assert g == pytest.approx(beta[0, 0], rel=1e-3)

    def test_incomplete_assignment_rejected(self):
        # gamma reads the one-hot of a complete assignment: evaluation
        # rejects an unassigned UE before it computes any gamma
        with pytest.raises(ValueError, match="^pilot index -1 is negative: "
                                             "evaluation requires a complete "
                                             "assignment$"):
            evaluate_on_one_ap([[[-1]]], 1)

    def test_quality_container_validates(self):
        pa = PilotAssignment(np.array([0]), 1)
        for beta in (0.0, np.inf):
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError, match="positive and finite"):
                    gamma_one(np.array([[beta]]), unit_powers(1), 1, pa)

    def test_gamma_above_beta_is_an_inconsistency(self):
        # a negative LSFC shrinks the shared denominator below UE 0's own
        # term, so UE 0's gamma exceeds its beta; that check comes first
        powers = PowerProfile(np.full(2, 10.0), np.ones(2))
        pa = PilotAssignment(np.array([0, 0]), 1)
        with pytest.raises(AssertionError, match="gamma exceeded beta"):
            gamma_one(np.array([[1.0, -0.2]]), powers, 1, pa)

    @pytest.mark.parametrize("pilot", [2, 3])
    def test_pilot_at_or_past_the_pilot_length_rejected(self, pilot):
        # a stack's one-hot is as wide as the pilot length, so a pilot at
        # or past it has no column: evaluation rejects it at entry
        with pytest.raises(ValueError, match=f"^pilot index {pilot} is not "
                                             "below the pilot length 2$"):
            evaluate_on_one_ap([[[0, 1, pilot]], [[1, 1, 0]]], 2)


class TestGlobalError:
    def test_unused_pilot_is_exactly_zero(self):
        beta = np.array([[1e-8, 5e-9], [2e-8, 1e-9]])
        pa = PilotAssignment(np.array([0, -1]), 3)
        err = cached_global_error(1, 2, beta, unit_powers(2), 3, pa, [0, 1])
        assert err == 0.0

    def test_single_ap_toy_value(self):
        # one AP, unit weights: bound 1/2 minus contaminated 1/3
        beta = np.ones((1, 2))
        pa = PilotAssignment(np.array([0, -1]), 1)
        err = cached_global_error(1, 0, beta, unit_powers(2), 1, pa, [0])
        assert err == pytest.approx(0.5 - 1.0 / 3.0, rel=0, abs=0)

    def test_extra_copilot_strictly_increases(self, rng):
        beta = 10.0 ** rng.uniform(-10, -7, size=(3, 4))
        powers = unit_powers(4)
        one = PilotAssignment(np.array([0, -1, -1, -1]), 2)
        two = PilotAssignment(np.array([0, 0, -1, -1]), 2)
        serving = [0, 1, 2]
        e1 = cached_global_error(3, 0, beta, powers, 2, one, serving)
        e2 = cached_global_error(3, 0, beta, powers, 2, two, serving)
        assert 0.0 < e1 < e2

    def test_matches_oracle_random(self, rng):
        for _ in range(50):
            m, t, lp = 4, 6, 3
            beta = 10.0 ** rng.uniform(-12, -6, size=(m, t))
            powers = PowerProfile(10.0 ** rng.uniform(0, 3, t),
                                  10.0 ** rng.uniform(0, 3, t))
            pilots = rng.integers(0, lp, t)
            pilots[t - 1] = -1
            pa = PilotAssignment(pilots, lp)
            serving = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)),
                                         replace=False))
            pilot = int(rng.integers(lp))
            got = cached_global_error(t - 1, pilot, beta, powers, lp, pa, serving)
            want = oracle_error_global(t - 1, pilot, beta, powers.p_pilot, lp,
                                       pa.pilot_of, serving)
            assert got == pytest.approx(want, rel=1e-12)

    def test_own_pilot_entry_ignored(self):
        # a stale self-assignment must not contaminate the candidate evaluation
        beta = np.ones((1, 2))
        with_self = PilotAssignment(np.array([0, 0]), 1)
        without = PilotAssignment(np.array([0, -1]), 1)
        p = unit_powers(2)
        a = cached_global_error(1, 0, beta, p, 1, with_self, [0])
        b = cached_global_error(1, 0, beta, p, 1, without, [0])
        assert a == b

    def test_vanishing_beta_vanishing_error(self):
        beta = np.full((2, 2), 1e-12)
        pa = PilotAssignment(np.array([0, -1]), 1)
        err = cached_global_error(1, 0, beta, unit_powers(2), 1, pa, [0, 1])
        assert 0.0 <= err < 1e-11


class TestLocalError:
    def test_empty_copilots_zero(self):
        beta = np.array([[1e-8, 2e-8]])
        assert cached_local_error(1, 0, beta, unit_powers(2), 7, []) == 0.0

    def test_matches_oracle(self, rng):
        for _ in range(30):
            beta = 10.0 ** rng.uniform(-11, -6, size=(3, 5))
            powers = PowerProfile(10.0 ** rng.uniform(0, 3, 5),
                                  10.0 ** rng.uniform(0, 3, 5))
            ks = rng.choice(5, size=int(rng.integers(0, 5)), replace=False)
            got = cached_local_error(4, 1, beta, powers, 3, ks)
            want = oracle_error_local(4, 1, beta, powers.p_pilot, 3, list(ks))
            # the metric is a difference of near-equal ratios; tolerance must
            # scale with the minuend, not with the (possibly tiny) difference
            own = powers.p_pilot[4] * 3 * beta[1, 4]
            bound = own * beta[1, 4] / (own + 1.0)
            assert abs(got - want) <= 1e-12 * bound

    def test_locals_sum_to_global_when_all_serve_all(self, rng):
        # if every AP serves every UE the local co-pilot sets coincide with
        # the global ones, so the per-AP pieces add up to the aggregate
        m, t, lp = 4, 5, 2
        beta = 10.0 ** rng.uniform(-11, -6, size=(m, t))
        powers = PowerProfile(10.0 ** rng.uniform(0, 2, t),
                              10.0 ** rng.uniform(0, 2, t))
        pilots = rng.integers(0, lp, t)
        pilots[0] = -1
        pa = PilotAssignment(pilots, lp)
        pilot = 0
        copilots = np.flatnonzero(pa.pilot_of == pilot)
        total = sum(cached_local_error(0, ap, beta, powers, lp, copilots)
                    for ap in range(m))
        overall = cached_global_error(0, pilot, beta, powers, lp, pa, range(m))
        assert total == pytest.approx(overall, rel=1e-12)


class TestErrorProperties:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_global_error_nonnegative(self, seed):
        r = np.random.default_rng(seed)
        m, t, lp = (int(r.integers(1, 5)) for _ in range(3))
        beta = 10.0 ** r.uniform(-12, -5, size=(m, t))
        powers = PowerProfile(10.0 ** r.uniform(0, 3, t), np.ones(t))
        pilots = r.integers(-1, lp, t)
        target = int(r.integers(t))
        pilots[target] = -1
        pa = PilotAssignment(pilots, lp)
        serving = np.flatnonzero(r.random(m) < 0.8)
        if serving.size == 0:
            serving = np.array([0])
        err = cached_global_error(target, int(r.integers(lp)), beta,
                                      powers, lp, pa, serving)
        assert err >= 0.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_adding_copilot_never_helps(self, seed):
        r = np.random.default_rng(seed)
        t = int(r.integers(3, 6))
        beta = 10.0 ** r.uniform(-12, -5, size=(2, t))
        powers = PowerProfile(10.0 ** r.uniform(0, 3, t), np.ones(t))
        base = np.full(t, -1)
        members = r.choice(t - 1, size=int(r.integers(0, t - 1)), replace=False)
        base[members] = 0
        newcomer = next(i for i in range(t - 1) if i not in members)
        grown = base.copy()
        grown[newcomer] = 0
        before = cached_global_error(t - 1, 0, beta, powers, 2,
                                         PilotAssignment(base, 2), [0, 1])
        after = cached_global_error(t - 1, 0, beta, powers, 2,
                                        PilotAssignment(grown, 2), [0, 1])
        assert after >= before


class TestContaminationCache:
    def _random_state(self, rng, m=4, t=6, lp=3):
        beta = 10.0 ** rng.uniform(-11, -6, size=(m, t))
        powers = PowerProfile(10.0 ** rng.uniform(0, 3, t),
                              10.0 ** rng.uniform(0, 3, t))
        pilots = np.full(t, -1)
        for k in range(t - 1):
            pilots[k] = rng.integers(lp)
        return beta, powers, PilotAssignment(pilots, lp)

    def test_profile_matches_free_function(self, rng):
        for _ in range(20):
            beta, powers, pa = self._random_state(rng)
            lp, t = pa.num_pilots, pa.pilot_of.size - 1
            cache = ContaminationCache(beta, powers, lp)
            for k in range(t):
                cache.record(k, int(pa.pilot_of[k]))
            serving = [0, 2, 3]
            profile = cache.local_errors(serving, t).sum(axis=0)
            direct = [oracle_error_global(t, i, beta, powers.p_pilot, lp,
                                          pa.pilot_of, serving)
                      for i in range(lp)]
            scale = error_scale(t, serving, beta, powers, lp)
            np.testing.assert_allclose(profile, direct, rtol=0,
                                       atol=1e-12 * scale)

    def test_local_profile_matches_free_function(self, rng):
        beta, powers, pa = self._random_state(rng)
        lp = pa.num_pilots
        t = pa.pilot_of.size - 1
        # a DPB table: each AP hears the UEs it serves; every AP probed
        # here serves t, as a probed AP always does
        serves = rng.random(beta.shape) < 0.6
        serves[:, t] = True
        cache = ContaminationCache(beta * serves, powers, lp)
        for k in range(t):
            cache.record(k, int(pa.pilot_of[k]))
        for m in range(beta.shape[0]):
            got = cache.local_errors(m, t)
            for i in range(lp):
                members = np.flatnonzero(pa.pilot_of == i)
                local = members[serves[m, members]]
                want = oracle_error_local(t, m, beta, powers.p_pilot, lp, local)
                scale = error_scale(t, [m], beta, powers, lp)
                assert abs(got[i] - want) <= 1e-12 * scale

    def test_multi_ap_rows_equal_per_ap_profiles(self, rng):
        for _ in range(20):
            beta, powers, pa = self._random_state(rng)
            t = pa.pilot_of.size - 1
            serves = rng.random(beta.shape) < 0.6
            serves[:, t] = True
            cache = ContaminationCache(beta * serves, powers, pa.num_pilots)
            for k in range(t):
                cache.record(k, int(pa.pilot_of[k]))
            aps = rng.permutation(beta.shape[0])[:int(rng.integers(1, 4))]
            rows = cache.local_errors(aps, t)
            assert rows.shape == (aps.size, pa.num_pilots)
            for row, m in zip(rows, aps):
                assert np.array_equal(row, cache.local_errors(int(m), t))

    def test_profile_shared_helper_consistency(self):
        # the scalar helper and the cached profile agree entry by entry
        sums = np.array([0.0, 0.4, 2.5])
        out = local_error_profile(2.0, 3.0, sums)
        bound = 6.0 / 3.0
        np.testing.assert_allclose(
            out, [bound - 6.0 / 3.0, bound - 6.0 / 3.4, bound - 6.0 / 5.5],
            rtol=1e-15)
        assert out[0] == 0.0
