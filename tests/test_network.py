import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_force_prefix, oracle_pairwise_distances,
                     oracle_strong_groups)
from pilotsim import (SCHEME_IDS, NetworkConfig, NetworkRealization,
                      PilotAssignment, PowerProfile, SchemeConfig, assign_all,
                      associate_aps, compute_lsfc, evaluate, generate_drop,
                      noise_power_dbm, normalize_powers, run_protocol)
from pilotsim.network import _pairwise_distances, serving_links
from probes import gamma_one, map_from_sets, strong_one

# hand-computed three-slope values (defaults: 140.7 dB, d0=10 m, d1=50 m,
# exponents 0 / 2 / 3.5), shadow 0
FROZEN_LSFC = {
    1.0: 7.612810046625335e-09,
    5.0: 7.612810046625335e-09,   # clamped region is flat
    10.0: 7.612810046625335e-09,
    30.0: 8.458677829583698e-10,
    50.0: 3.045124018650135e-10,
    100.0: 2.6915348039269248e-11,
    500.0: 9.62952765661948e-14,
    1414.0: 2.531786424786943e-15,
}


class TestPathLoss:
    def test_frozen_values(self):
        for d, beta in FROZEN_LSFC.items():
            assert compute_lsfc(d) == pytest.approx(beta, rel=1e-12)

    def test_continuity_at_breakpoints(self):
        for bp in (10.0, 50.0):
            below = compute_lsfc(bp * (1 - 1e-12))
            above = compute_lsfc(bp * (1 + 1e-12))
            assert below == pytest.approx(above, rel=1e-9)

    def test_minimum_distance_clamp(self):
        assert compute_lsfc(0.0) == compute_lsfc(1.0) == compute_lsfc(0.5)

    def test_far_slope_doubling(self):
        # beyond d1 a doubled distance costs 10 * 3.5 * log10(2) dB
        assert compute_lsfc(200.0) / compute_lsfc(400.0) == pytest.approx(
            2.0 ** 3.5, rel=1e-12)

    def test_shadow_db_offset(self):
        assert compute_lsfc(100.0, 8.0) / compute_lsfc(100.0, 0.0) == pytest.approx(
            10.0 ** 0.8, rel=1e-12)

    def test_shadow_only_beyond_d1(self):
        assert compute_lsfc(30.0, 8.0) == compute_lsfc(30.0, 0.0)
        assert compute_lsfc(51.0, 8.0) > compute_lsfc(51.0, 0.0)

    def test_array_input(self):
        d = np.array([1.0, 30.0, 500.0])
        out = compute_lsfc(d)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(FROZEN_LSFC[500.0], rel=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="^breakpoints must satisfy "
                                             "0 < d0 < d1$"):
            NetworkConfig(d0_m=60.0, d1_m=50.0)

    @pytest.mark.parametrize("name,value", [("ref_loss_db", "140.7"),
                                            ("d1_m", "50"), ("exp_far", True)])
    def test_params_reject_non_numbers(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be a number, "
                                             rf"got {re.escape(repr(value))}$"):
            NetworkConfig(**{name: value})

    def test_constants_come_from_the_config(self):
        steeper = NetworkConfig(exp_far=3.7)
        assert compute_lsfc(200.0, config=steeper) / compute_lsfc(
            400.0, config=steeper) == pytest.approx(2.0 ** 3.7, rel=1e-12)
        # generate_drop scores its drop with its own config's constants
        louder = NetworkConfig(num_aps=5, num_ues=4, ref_loss_db=130.7)
        base = dataclasses.replace(louder, ref_loss_db=140.7)
        np.testing.assert_allclose(generate_drop(louder, 3).beta,
                                   10.0 * generate_drop(base, 3).beta,
                                   rtol=1e-12)


class TestPowers:
    def test_frozen_normalization(self):
        # B = 20 MHz, NF = 9 dB -> noise -91.99 dBm; 100 mW -> ~10^11.199
        assert noise_power_dbm(20e6, 9.0) == pytest.approx(-91.98970004336019,
                                                           abs=1e-12)
        cfg = NetworkConfig()
        p = normalize_powers(cfg)
        assert np.all(p.p_pilot == p.p_pilot[0])
        assert np.array_equal(p.p_pilot, p.p_uplink)
        assert p.p_pilot[0] == pytest.approx(158113883008.41895, rel=1e-12)

    def test_tx_power_linearity(self):
        base = normalize_powers(NetworkConfig()).p_pilot[0]
        doubled = normalize_powers(NetworkConfig(tx_power_mw=200.0)).p_pilot[0]
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_bandwidth_scaling(self):
        base = normalize_powers(NetworkConfig()).p_pilot[0]
        quad = normalize_powers(NetworkConfig(bandwidth_hz=80e6)).p_pilot[0]
        assert quad == pytest.approx(base / 4.0, rel=1e-12)

    @pytest.mark.parametrize("field,value", [("tx_power_mw", 1e300),
                                             ("noise_figure_db", 4000.0),
                                             ("bandwidth_hz", 1e-300)])
    def test_unusable_power_rejected_when_built(self, field, value):
        # the power overflows a float, or rounds to zero
        with pytest.raises(ValueError, match="noise-normalized power"):
            NetworkConfig(**{field: value})

    def test_tiny_power_builds(self):
        cfg = NetworkConfig(tx_power_mw=1e-300)
        assert normalize_powers(cfg).p_pilot[0] > 0.0

    @pytest.mark.parametrize("pilot,uplink,message", [
        ([1.0, 2.0], [1.0], "pilot and uplink power vectors must have equal "
                            "length"),
        ([1.0, 0.0], [1.0, 1.0], "normalized powers must be positive"),
        ([1.0, 1.0], [1.0, -2.0], "normalized powers must be positive")])
    def test_profile_validation(self, pilot, uplink, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PowerProfile(np.array(pilot), np.array(uplink))

    @pytest.mark.parametrize("call", [*SCHEME_IDS, "protocol", "evaluate"])
    @pytest.mark.parametrize("offset", [None, -1, 1], ids=["1", "T-1", "T+1"])
    def test_profile_of_another_length_rejected(self, desk_drop, call,
                                                offset):
        # a 1-entry profile would broadcast and a longer one be read in part,
        # so each entry point checks the length before any work
        cfg, real, _, assoc = desk_drop(num_aps=10, num_ues=12)
        length = 1 if offset is None else 12 + offset
        powers = PowerProfile(np.full(length, 1e3), np.full(length, 1e3))
        with pytest.raises(ValueError, match=f"^the power profile has length "
                                             f"{length}, but the drop has 12 "
                                             f"UEs$"):
            if call == "protocol":
                run_protocol(real, assoc, SchemeConfig("dpb"), np.arange(12),
                             powers, cfg.pilot_length)
            elif call == "evaluate":
                evaluate(real, assoc, PilotAssignment(np.arange(12) % 7, 7),
                         powers, cfg)
            else:
                assign_all(SchemeConfig(call), real, assoc, powers,
                           cfg.pilot_length)


class TestGenerateDrop:
    def test_minimal_instance(self):
        cfg = NetworkConfig(num_aps=1, num_ues=1)
        real = generate_drop(cfg, 3)
        assert real.beta.shape == (1, 1)
        assert real.beta[0, 0] > 0

    def test_determinism(self):
        cfg = NetworkConfig(num_aps=10, num_ues=8)
        a, b = generate_drop(cfg, 99), generate_drop(cfg, 99)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.ap_positions, b.ap_positions)
        assert np.array_equal(a.ue_positions, b.ue_positions)
        c = generate_drop(cfg, 100)
        assert not np.array_equal(a.beta, c.beta)

    def test_ue_append_prefix_stability(self):
        # appending UEs must not disturb the existing columns of beta
        small = generate_drop(NetworkConfig(num_aps=12, num_ues=20), 5)
        big = generate_drop(NetworkConfig(num_aps=12, num_ues=27), 5)
        assert np.array_equal(small.beta, big.beta[:, :20])
        assert np.array_equal(small.ue_positions, big.ue_positions[:20])

    def test_beta_positive_finite_many_drops(self):
        cfg = NetworkConfig(num_aps=3, num_ues=2)
        for seed in range(10_000):
            beta = generate_drop(cfg, seed).beta
            assert np.all(beta > 0) and np.all(np.isfinite(beta))

    def test_wrap_around_shortens_paths(self):
        plain = generate_drop(NetworkConfig(num_aps=8, num_ues=6), 1)
        wrapped = generate_drop(NetworkConfig(num_aps=8, num_ues=6,
                                              wrap_around=True), 1)
        assert np.all(wrapped.beta >= plain.beta)

    @given(num_aps=st.integers(1, 40), num_ues=st.integers(1, 40),
           side=st.floats(1.0, 1e5), wrap=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_distances_match_summed_differences(self, num_aps, num_ues, side,
                                                wrap, seed):
        # one array per axis gives the bits of summing the (M, T, 2)
        # difference over its last axis, with and without the torus fold
        rng = np.random.default_rng(seed)
        ap, ue = (rng.uniform(0.0, side, (n, 2)) for n in (num_aps, num_ues))
        wrap_side = side if wrap else None
        np.testing.assert_array_equal(
            _pairwise_distances(ap, ue, wrap_side),
            oracle_pairwise_distances(ap, ue, wrap_side))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(antennas_per_ap=7, pilot_length=7)  # needs A > Lp
        with pytest.raises(ValueError):
            NetworkConfig(pilot_length=300, coherence_block=200)
        with pytest.raises(ValueError):
            NetworkConfig(assoc_threshold=0.0)
        with pytest.raises(ValueError):
            NetworkConfig(area_side_m=float("nan"))
        for name in ("d0_m", "d1_m"):
            with pytest.raises(ValueError,
                               match=f"^non-finite config value {name}$"):
                NetworkConfig(**{name: float("inf")})

    @pytest.mark.parametrize("entry,message", [
        ({"num_aps": 0}, "need at least one AP and one UE"),
        ({"num_ues": 0}, "need at least one AP and one UE"),
        ({"strong_threshold": 0.0}, r"strong_threshold must be in \(0, 1\]"),
        ({"strong_threshold": 1.5}, r"strong_threshold must be in \(0, 1\]"),
        ({"area_side_m": 0.0}, "area, bandwidth and transmit power must be "
                               "positive"),
        ({"bandwidth_hz": -20e6}, "area, bandwidth and transmit power must "
                                  "be positive"),
        ({"tx_power_mw": 0.0}, "area, bandwidth and transmit power must be "
                               "positive"),
        ({"shadow_sigma_db": -1.0}, "shadow sigma must be nonnegative"),
        ({"d0_m": 0.0}, "breakpoints must satisfy 0 < d0 < d1"),
        ({"d0_m": 50.0}, "breakpoints must satisfy 0 < d0 < d1"),
        # every LSFC underflows to 0, or overflows to inf inside d1
        ({"ref_loss_db": 4000.0}, r"a path loss of 3940\.48 dB at 1 m gives an "
                                  "LSFC outside the float range"),
        ({"exp_far": 5000.0}, r"a path loss of -64924\.8 dB at 1 m gives an "
                              "LSFC outside the float range"),
        # only the area's far corner underflows
        ({"area_side_m": 1e6, "exp_far": 100.0},
         r"a path loss of 3291\.21 dB at 1\.41421e\+06 m gives an LSFC "
         "outside the float range"),
        # every LSFC is a positive float, but gamma's (w b) b underflows
        ({"ref_loss_db": 2000.0}, r"a path loss of 1940\.48 dB at 1 m gives a "
                                  "gamma that underflows to 0"),
        # w g(1 m) is about 84 tx_power_mw, past 2^53, where gamma's
        # denominator w b + 1 may round to w b
        ({"tx_power_mw": 1e18}, r"a path loss of 81\.1846 dB at 1 m gives a "
                                "gamma whose noise term is lost to "
                                "round-off")])
    def test_rejects_out_of_range_values(self, entry, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NetworkConfig(**entry)

    def test_gamma_probe_keeps_small_positive_gammas(self):
        # at 1500 dB the weakest probe's (w b) b is still a positive float
        cfg = NetworkConfig(num_aps=4, num_ues=6, ref_loss_db=1500.0,
                            shadow_sigma_db=0.0)
        powers = normalize_powers(cfg)
        real = generate_drop(cfg, seed=1)
        pa = PilotAssignment(np.arange(6) % cfg.pilot_length, cfg.pilot_length)
        assert np.all(gamma_one(real.beta, powers, cfg.pilot_length, pa) > 0)

    def test_round_off_probe_keeps_high_powers(self):
        # at 1e13 mW, w g(1 m) is about 8.4e14, below 2^53: a UE alone on
        # its pilot (T <= Lp) keeps the noise term of its gammas' denominator
        cfg = NetworkConfig(num_aps=30, num_ues=6, tx_power_mw=1e13)
        powers = normalize_powers(cfg)
        for seed in range(10):
            real = generate_drop(cfg, seed)
            assoc = associate_aps(real, cfg.assoc_threshold)
            pa = assign_all(SchemeConfig("eem"), real, assoc, powers,
                            cfg.pilot_length)
            assert np.all(evaluate(real, assoc, pa, powers, cfg).sinr > 0)

    def test_wrap_around_probes_half_the_diagonal(self):
        # the far corner that rejects the plain area lies past the longest
        # wrapped distance, side / sqrt(2), whose LSFC and gamma are
        # positive floats. The outer breakpoint sits at 1 km, so that the
        # steep far slope does not carry the gain inside it past the
        # round-off probe
        far = dict(area_side_m=1e6, exp_far=50.0, d1_m=1000.0,
                   shadow_sigma_db=0.0)
        with pytest.raises(ValueError, match="at 1.41421e.06 m gives a gamma"):
            NetworkConfig(**far)
        cfg = NetworkConfig(**far, wrap_around=True)
        beta = generate_drop(cfg, seed=1).beta
        assert np.all(beta > 0) and np.all(np.isfinite(beta))

    @pytest.mark.parametrize("name", ["num_aps", "num_ues", "antennas_per_ap",
                                      "coherence_block", "pilot_length"])
    def test_rejects_non_integral_counts(self, name):
        base = NetworkConfig()
        value = float(getattr(base, name))
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            NetworkConfig(**{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            NetworkConfig(**{name: value + 0.5})
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            NetworkConfig(**{name: True})
        # numpy integers are integers
        cfg = NetworkConfig(**{name: np.int64(getattr(base, name))})
        assert getattr(cfg, name) == getattr(base, name)

    @pytest.mark.parametrize("name,value", [
        ("assoc_threshold", "0.9"), ("tx_power_mw", True),
        ("noise_figure_db", None), ("shadow_sigma_db", [8.0])])
    def test_rejects_non_numeric_values(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be a number, "
                                             rf"got {re.escape(repr(value))}$"):
            NetworkConfig(**{name: value})
        # numpy scalars and plain ints are numbers
        assert NetworkConfig(**{name: np.float32(0.9)}) is not None
        assert NetworkConfig(**{name: 1}) is not None

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_wrap_around_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match=r"^wrap_around must be a bool, "
                                             rf"got {re.escape(repr(value))}$"):
            NetworkConfig(wrap_around=value)

    def test_realization_validation(self):
        with pytest.raises(ValueError):
            NetworkRealization(np.zeros((2, 2)), np.zeros((3, 2)),
                               np.ones((2, 2)), 0)  # beta must be 2x3
        with pytest.raises(ValueError):
            NetworkRealization(np.zeros((1, 2)), np.zeros((1, 2)),
                               np.array([[-1.0]]), 0)


def _column_real(column):
    column = np.asarray(column, dtype=float)
    m = column.size
    return NetworkRealization(np.zeros((m, 2)), np.zeros((1, 2)),
                              column[:, None], 0)


class TestAssociation:
    def test_simple_prefix(self):
        assoc = associate_aps(_column_real([0.5, 0.3, 0.2]), 0.7)
        assert assoc.serving_aps[0].tolist() == [0, 1]

    def test_full_threshold_takes_all(self):
        assoc = associate_aps(_column_real([0.5, 0.3, 0.2]), 1.0)
        assert sorted(assoc.serving_aps[0].tolist()) == [0, 1, 2]

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            column = 10.0 ** rng.uniform(-14.0, -8.0, size=10)
            assoc = associate_aps(_column_real(column), 0.95)
            assert set(assoc.serving_aps[0].tolist()) == brute_force_prefix(
                column, 0.95)

    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from([1.0, 0.95, 0.5, 1e-12, None]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_column_wise_matches_brute_force(self, seed, threshold, tied):
        r = np.random.default_rng(seed)
        m = 1 if r.random() < 0.2 else int(r.integers(2, 8))
        t = 1 if r.random() < 0.2 else int(r.integers(2, 10))
        if threshold is None:
            threshold = float(r.uniform(1e-3, 1.0))
        if tied:  # three LSFC levels, so ties are common
            beta = r.choice(10.0 ** r.uniform(-12.0, -6.0, size=3), size=(m, t))
        else:
            beta = 10.0 ** r.uniform(-12.0, -6.0, size=(m, t))
        real = NetworkRealization(np.zeros((m, 2)), np.zeros((t, 2)), beta, 0)
        assoc = associate_aps(real, threshold)
        serves = np.zeros((m, t), dtype=bool)
        for k in range(t):
            col = beta[:, k]
            want = sorted(brute_force_prefix(col, threshold),
                          key=lambda a: (-col[a], a))
            assert assoc.serving_aps[k].tolist() == want
            assert not assoc.serving_aps[k].flags.writeable
            serves[want, k] = True
        assert np.array_equal(assoc.serves, serves)
        assert not assoc.serves.flags.writeable

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
    def test_rejects_threshold_outside_unit_interval(self, threshold):
        with pytest.raises(ValueError,
                           match=r"^assoc_threshold must be in \(0, 1\]$"):
            associate_aps(_column_real([0.5, 0.3, 0.2]), threshold)

    def test_threshold_monotonicity(self, rng):
        for _ in range(50):
            column = 10.0 ** rng.uniform(-14.0, -8.0, size=12)
            real = _column_real(column)
            lo = set(associate_aps(real, 0.8).serving_aps[0].tolist())
            hi = set(associate_aps(real, 0.97).serving_aps[0].tolist())
            assert lo <= hi

    def test_prefix_property_and_order(self, desk_drop):
        _, real, _, assoc = desk_drop()
        for t in range(real.num_ues):
            chosen = assoc.serving_aps[t]
            inside = real.beta[chosen, t]
            assert np.all(np.diff(inside) <= 0)  # descending
            outside = np.delete(real.beta[:, t], chosen)
            if outside.size:
                assert inside.min() >= outside.max()

    def test_serves_biconditional(self, desk_drop):
        _, real, _, assoc = desk_drop()
        rebuilt = np.zeros_like(assoc.serves)
        for t, aps in enumerate(assoc.serving_aps):
            rebuilt[aps, t] = True
        assert np.array_equal(rebuilt, assoc.serves)


class TestServingLinks:
    @pytest.mark.parametrize("threshold", [0.95, 1.0])
    def test_flattens_a_stack_drop_by_drop(self, threshold):
        # each set in priority order, drop by drop and UE by UE
        cfg = NetworkConfig(num_aps=12, num_ues=9, assoc_threshold=threshold)
        assocs = [associate_aps(generate_drop(cfg, seed), threshold)
                  for seed in (1, 2, 3)]
        aps, sizes = serving_links(assocs)
        sets = [row for assoc in assocs for row in assoc.serving_aps]
        assert sizes.shape == (3, 9)
        assert sizes.ravel().tolist() == [row.size for row in sets]
        np.testing.assert_array_equal(aps, np.concatenate(sets))

    def test_map_from_sets_equals_associated_map(self, desk_drop):
        # a map built from its per-UE serving sets holds the flat links and
        # sizes of associate_aps's, read-only
        _, _, _, assoc = desk_drop()
        built = map_from_sets(assoc.serving_aps, assoc.serves)
        np.testing.assert_array_equal(built.links, assoc.links)
        np.testing.assert_array_equal(built.sizes, assoc.sizes)
        assert not (built.links.flags.writeable or built.sizes.flags.writeable)
        for mine, theirs in zip(built.serving_aps, assoc.serving_aps,
                                strict=True):
            np.testing.assert_array_equal(mine, theirs)
        # an empty serving set is a size of 0 and adds no link
        lone = map_from_sets(((), (2, 0)), np.ones((3, 2), bool))
        assert lone.sizes.tolist() == [0, 2]
        assert lone.links.tolist() == [2, 0]
        assert [aps.tolist() for aps in lone.serving_aps] == [[], [2, 0]]


class TestStrongGrouping:
    antennas = NetworkConfig().antennas_per_ap

    def _instance(self, beta_row, pilots, nu, lp=None):
        m = 1
        beta = np.asarray(beta_row, dtype=float)[None, :]
        real = NetworkRealization(np.zeros((m, 2)),
                                  np.zeros((beta.shape[1], 2)), beta, 0)
        assoc = associate_aps(real, 1.0)
        lp = lp if lp is not None else max(pilots) + 1
        return real, assoc, PilotAssignment(np.asarray(pilots), lp)

    def test_full_threshold_takes_everyone(self):
        real, assoc, asg = self._instance([0.4, 0.3, 0.2], [0, 1, 0], 1.0)
        flags, _ = strong_one(real, assoc, 1.0, [asg], self.antennas)
        assert np.flatnonzero(flags[0]).tolist() == [0, 1, 2]

    def test_singleton_served_set(self):
        real, assoc, asg = self._instance([0.4], [0], 0.5)
        flags, counts = strong_one(real, assoc, 0.5, [asg], self.antennas)
        assert np.flatnonzero(flags[0]).tolist() == [0]
        assert counts.tolist() == [[1]]

    def test_distinct_pilot_count(self):
        # five served UEs on three distinct pilots, all strong
        real, assoc, asg = self._instance([0.5, 0.4, 0.3, 0.2, 0.1],
                                          [0, 1, 2, 0, 1], 1.0)
        flags, counts = strong_one(real, assoc, 1.0, [asg], self.antennas)
        assert counts.tolist() == [[3]]
        assert flags[0].all()

    def test_bounds_on_random_drops(self, desk_drop, rng):
        cfg, real, _, assoc = desk_drop()
        asg = PilotAssignment(rng.integers(0, cfg.pilot_length, cfg.num_ues),
                              cfg.pilot_length)
        flags, counts = strong_one(real, assoc, cfg.strong_threshold, [asg],
                                   cfg.antennas_per_ap)
        for m in range(cfg.num_aps):
            ls = counts[0, m]
            strong = np.flatnonzero(flags[m])
            assert ls <= min(len(strong), cfg.pilot_length)
            assert ls < cfg.antennas_per_ap
            assert set(strong) <= set(np.flatnonzero(assoc.serves[m]))

    def test_rejects_unassigned(self):
        # grouping reads the one-hot of a complete assignment: evaluation
        # rejects an unassigned UE before it ranks any strong set
        real, assoc, _ = self._instance([0.4, 0.3], [0, 1], 1.0)
        partial = PilotAssignment(np.array([0, -1]), 2)
        cfg = NetworkConfig(num_aps=1, num_ues=2, pilot_length=2,
                            strong_threshold=0.9)
        with pytest.raises(ValueError, match="^pilot index -1 is negative: "
                                             "evaluation requires a complete "
                                             "assignment$"):
            evaluate(real, assoc, partial, normalize_powers(cfg), cfg)

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
    def test_rejects_threshold_outside_unit_interval(self, threshold):
        real, assoc, asg = self._instance([0.4, 0.3], [0, 1], 1.0)
        with pytest.raises(ValueError,
                           match=r"^strong_threshold must be in \(0, 1\]$"):
            strong_one(real, assoc, threshold, [asg], self.antennas)

    def test_error_names_first_offending_assignment(self):
        # everyone strong; AP 0 serves UEs 0-2 and AP 1 serves UEs 0-3
        serves = np.array([[True, True, True, False], [True] * 4])
        real = NetworkRealization(np.zeros((2, 2)), np.zeros((4, 2)),
                                  np.full((2, 4), 1e-9), 0)
        assoc = map_from_sets(
            tuple(np.flatnonzero(serves[:, k]) for k in range(4)), serves)
        fine, at_ap1, at_ap0 = (PilotAssignment(np.array(p), 3) for p in
                                ([0, 0, 0, 0], [0, 1, 0, 2], [0, 1, 2, 0]))
        _, counts = strong_one(real, assoc, 1.0, [fine, at_ap1, at_ap0], 4)
        assert counts.tolist() == [[1, 1], [2, 3], [3, 3]]
        with pytest.raises(ValueError, match="^AP 1 would zero-force 3 "
                                             "pilots with only 3 antennas$"):
            strong_one(real, assoc, 1.0, [fine, at_ap1, at_ap0], 3)

    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from([1.0, 0.95, 0.5, 1e-12, 1e-300, None]))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_ap_oracle(self, seed, threshold):
        r = np.random.default_rng(seed)
        m, t, lp = (int(r.integers(1, 6)), int(r.integers(1, 9)),
                    int(r.integers(1, 5)))
        if threshold is None:
            threshold = float(r.uniform(1e-3, 1.0))
        # three LSFC levels per instance, so ties are common
        beta = r.choice(10.0 ** r.uniform(-12.0, -6.0, size=3), size=(m, t))
        serves = r.random((m, t)) < 0.6  # some APs serve nobody
        # one to three complete assignments ranked together
        asgs = [PilotAssignment(r.integers(0, lp, size=t), lp)
                for _ in range(int(r.integers(1, 4)))]
        # lp + 1 antennas can zero-force any set of pilots
        antennas = int(r.integers(1, lp + 2)) if r.random() < 0.5 else lp + 1
        real = NetworkRealization(np.zeros((m, 2)), np.zeros((t, 2)), beta, 0)
        assoc = map_from_sets(
            tuple(np.flatnonzero(serves[:, k]) for k in range(t)), serves)
        wants, first_error = [], None
        for asg in asgs:
            try:
                wants.append(oracle_strong_groups(
                    beta, [np.flatnonzero(serves[i]) for i in range(m)],
                    asg.pilot_of, threshold, antennas))
            except ValueError as exc:
                first_error = first_error or exc
        if first_error is not None:
            with pytest.raises(ValueError) as got:
                strong_one(real, assoc, threshold, asgs, antennas)
            assert str(got.value) == str(first_error)
            return
        flags, counts = strong_one(real, assoc, threshold, asgs, antennas)
        assert counts.shape == (len(asgs), m)
        for want, count in zip(wants, counts):
            for mine, ref in zip(flags, want[0]):
                np.testing.assert_array_equal(np.flatnonzero(mine), ref)
            np.testing.assert_array_equal(flags, want[1])
            np.testing.assert_array_equal(count, want[2])


def test_config_is_frozen():
    cfg = NetworkConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.num_aps = 5
