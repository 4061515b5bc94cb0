"""Closed-form SINR, LSFD weighting, and spectral-efficiency reporting."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilotsim import (
    SCHEME_IDS,
    NetworkConfig,
    NetworkRealization,
    PilotAssignment,
    PowerProfile,
    SchemeConfig,
    assign_all,
    associate_aps,
    evaluate,
    generate_drop,
    normalize_powers,
    prelog,
    se_uplink,
)
from pilotsim import estimation, network, performance
from pilotsim.performance import evaluate_drops
from oracles import (micro_instance, oracle_gamma, oracle_lsfd, oracle_sinr,
                     oracle_strong_groups, random_unit_vector)
from probes import (gamma_one, map_from_sets, pilot_stack, sinr_pfzf,
                    strong_one)


def single_link(beta_val=0.5, p_pilot=2.0, p_uplink=4.0, lp=3, antennas=8):
    """One AP, one UE on pilot 0, everything servable by hand: the probe's
    drop, association, pilots, powers and config, whose strong threshold
    of 1 makes the UE strong at its AP."""
    real = NetworkRealization(np.zeros((1, 2)), np.zeros((1, 2)),
                              np.array([[beta_val]]), 0)
    powers = PowerProfile(np.array([p_pilot]), np.array([p_uplink]))
    assoc = map_from_sets((np.array([0]),), np.array([[True]]))
    cfg = NetworkConfig(num_aps=1, num_ues=1, antennas_per_ap=antennas,
                        pilot_length=lp, strong_threshold=1.0)
    return real, assoc, np.array([0]), powers, cfg


def micro_probe(inst):
    """The probe's drop, association, pilots, powers and config of a
    `micro_instance`."""
    cfg = NetworkConfig(antennas_per_ap=inst["antennas"],
                        pilot_length=inst["lp"],
                        strong_threshold=inst["threshold"])
    return (inst["real"], inst["assoc"], inst["assignment"].pilot_of,
            inst["powers"], cfg)


class TestPrelog:
    def test_reference_operating_point(self):
        assert prelog(200, 7) == 0.4825
        assert prelog(200, 7) == 193.0 / 400.0

    def test_edges(self):
        assert prelog(200, 200) == 0.0
        assert prelog(100, 0) == 0.5


class TestSeUplink:
    def test_zero_sinr(self):
        assert se_uplink(0.0, 200, 7) == 0.0

    def test_sinr_three(self):
        assert se_uplink(3.0, 200, 7) == pytest.approx(2 * 0.4825, rel=1e-15)

    def test_array_passthrough(self):
        out = se_uplink(np.array([0.0, 1.0]), 200, 7)
        assert out.shape == (2,)
        assert out[0] == 0.0 and out[1] == pytest.approx(0.4825)

    def test_scalar_stays_scalar(self):
        assert isinstance(se_uplink(1.0, 200, 7), float)


class TestSinrSingleLink:
    def test_hand_value(self):
        # gamma = 6*0.25/4 = 0.375; gain = 8-1; leak = 0.125
        # SINR = 4*7*0.375 / (4*0.125 + 1) = 10.5/1.5
        got = sinr_pfzf(0, np.array([1.0]), *single_link())
        assert got == pytest.approx(7.0, rel=1e-14)

    def test_formula_sweep(self):
        # gamma = w b^2 / (w b + 1) with w = 3 p_pilot; gain = 8 - 1
        for beta_val, pp, pu in [(0.2, 1.0, 1.0), (1.5, 3.0, 0.5), (0.9, 10.0, 2.0)]:
            g = 3.0 * pp * beta_val ** 2 / (3.0 * pp * beta_val + 1.0)
            want = pu * 7.0 * g / (pu * (beta_val - g) + 1.0)
            got = sinr_pfzf(0, np.array([1.0]), *single_link(beta_val, pp, pu))
            assert got == pytest.approx(want, rel=1e-13)

    def test_weight_scale_invariance(self):
        probe = single_link()
        base = sinr_pfzf(0, np.array([1.0]), *probe)
        for c in (-1.0, 0.5, 10.0):
            scaled = sinr_pfzf(0, np.array([c]), *probe)
            assert scaled == pytest.approx(base, rel=1e-12)


class TestSinrAgainstOracle:
    def test_micro_instances(self, rng):
        hits = 0
        while hits < 40:
            inst = micro_instance(rng)
            real, powers, pa = inst["real"], inst["powers"], inst["assignment"]
            assoc, ants, gamma = inst["assoc"], inst["antennas"], inst["gamma"]
            flags, ls = inst["flags"], inst["counts"]
            probe = micro_probe(inst)
            for t in range(real.num_ues):
                serving = assoc.serving_aps[t]
                a = np.zeros(real.num_aps)
                a[serving] = oracle_lsfd(t, real.beta, gamma, powers, assoc,
                                         flags, ls, pa, ants)
                got = sinr_pfzf(t, a[serving], *probe)
                want = oracle_sinr(t, a, real.beta, gamma,
                                   powers.p_uplink, pa.pilot_of,
                                   flags, ls, ants)
                assert got == pytest.approx(want, rel=1e-10)
                hits += 1

    def test_scale_invariance_random(self, rng):
        inst = micro_instance(rng)
        real, assoc = inst["real"], inst["assoc"]
        args = micro_probe(inst)
        for t in range(real.num_ues):
            serving = assoc.serving_aps[t]
            w = random_unit_vector(rng, serving.size)
            a = sinr_pfzf(t, w, *args)
            b = sinr_pfzf(t, 7.5 * w, *args)
            assert b == pytest.approx(a, rel=1e-12)

    def test_weight_matrix_matches_vectors(self, rng):
        inst = micro_instance(rng)
        real, assoc = inst["real"], inst["assoc"]
        args = micro_probe(inst)
        for t in range(real.num_ues):
            probes = rng.normal(size=(6, assoc.serving_aps[t].size))
            got = sinr_pfzf(t, probes, *args)
            assert got.shape == (6,)
            singles = [sinr_pfzf(t, w, *args) for w in probes]
            assert all(isinstance(x, float) for x in singles)
            np.testing.assert_allclose(got, singles, rtol=1e-13)


class TestLsfdWeights:
    def test_single_serving_ap_unit(self):
        # gamma = 6 * 0.25 / 4; the UE is strong at its AP, on one pilot
        real, assoc, pilots, powers, cfg = single_link()
        w = oracle_lsfd(0, real.beta, np.array([[0.375]]), powers, assoc,
                        np.ones((1, 1), dtype=bool), [1],
                        PilotAssignment(pilots, cfg.pilot_length),
                        cfg.antennas_per_ap)
        np.testing.assert_array_equal(w, [1.0])

    def test_no_copilot_closed_form(self, rng):
        # orthogonal pilots make Q diagonal, so a is proportional to b / D
        while True:
            inst = micro_instance(rng)
            pa = inst["assignment"]
            if inst["real"].num_ues <= inst["lp"]:
                pilots = np.arange(inst["real"].num_ues)
                pa = PilotAssignment(pilots, inst["lp"])
                break
        real, powers, assoc, ants = (inst["real"], inst["powers"],
                                     inst["assoc"], inst["antennas"])
        flags, counts = strong_one(real, assoc, 0.95, [pa], ants)
        gamma = gamma_one(real.beta, powers, inst["lp"], pa)
        for t in range(real.num_ues):
            serving = assoc.serving_aps[t]
            delta = flags[serving, t].astype(float)
            gain = ants - delta * counts[0, serving]
            b = np.sqrt(gain * gamma[serving, t])
            d = (real.beta[serving] @ powers.p_uplink
                 - delta * ((gamma[serving] * flags[serving])
                            @ powers.p_uplink) + 1.0)
            want = b / d
            want = want / np.linalg.norm(want)
            got = oracle_lsfd(t, real.beta, gamma, powers, assoc, flags,
                              counts[0], pa, ants)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_dominates_equal_and_random_probes(self, desk_drop, rng):
        cfg, real, powers, assoc = desk_drop(seed=5)
        pa = assign_all(SchemeConfig("dpb", seed=5), real, assoc, powers,
                        cfg.pilot_length)
        gamma = gamma_one(real.beta, powers, cfg.pilot_length, pa)
        flags, counts = strong_one(real, assoc, cfg.strong_threshold, [pa],
                                   cfg.antennas_per_ap)
        args = (real.beta, gamma, powers, assoc, flags, counts[0], pa,
                cfg.antennas_per_ap)
        probe = (real, assoc, pa.pilot_of, powers, cfg)
        for t in range(0, cfg.num_ues, 5):
            serving = assoc.serving_aps[t]
            best = sinr_pfzf(t, oracle_lsfd(t, *args), *probe)
            equal = sinr_pfzf(t, np.full(serving.size, 1.0 / serving.size),
                              *probe)
            assert best + 1e-12 * best >= equal
            probes = np.array([random_unit_vector(rng, serving.size)
                               for _ in range(100)])
            probe_sinrs = sinr_pfzf(t, probes, *probe)
            assert np.all(best + 1e-12 * best >= probe_sinrs)


class TestFactorScore:
    @given(n=st.integers(1, 60), num_copilots=st.integers(0, 8),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    @example(n=1, num_copilots=0, seed=0)
    @example(n=60, num_copilots=8, seed=1)
    def test_matches_a_solve_and_ignores_the_corner(self, n, num_copilots,
                                                    seed):
        # Q = sum_k c_k c_k^T + diag(D) as an LSFD system builds it: D >= 1
        # up to 1e6, each co-pilot's square at most D on every link, and b
        # of magnitudes 1e-6 to 1e6
        rng = np.random.default_rng(seed)
        d = 10.0 ** rng.uniform(0.0, 6.0, n)
        c = np.sqrt(d[:, None] * rng.random((n, num_copilots)))
        b = 10.0 ** rng.uniform(-6.0, 6.0, n)
        bordered = np.empty((2, n + 1, n + 1))
        bordered[:, :n, :n] = c @ c.T + np.diag(d)
        bordered[:, n, :n] = bordered[:, :n, n] = b
        corner = 1.0 + b @ b / d.min()
        bordered[:, n, n] = corner, 4.0 * corner
        score = performance._scores(bordered)
        want = b @ np.linalg.solve(bordered[0, :n, :n], b)
        np.testing.assert_allclose(score, want, rtol=1e-13)
        assert np.all(score > 0.0)
        last = np.linalg.cholesky(bordered)[:, n, :n]
        np.testing.assert_array_equal(last[0], last[1])


class TestEvaluate:
    def test_ranks_strong_sets_once_per_pass(self, desk_config, monkeypatch):
        # thirteen drops are passes of 6, 6 and 1: each pass ranks its
        # drops' strong sets in one call and computes its cells' gammas in
        # another. The one-drop forms call the same stacked functions, so
        # any one-drop call would be recorded too
        cfg, powers, reals, assocs, pilot_of = desk_stack(desk_config, 13,
                                                          ("eem", "random"))
        calls = []

        record_stacked_calls(monkeypatch, calls)
        evaluate_drops(reals, assocs, pilot_of, powers, cfg)
        shapes = [((d, 30, 50), (d, 2, 50, cfg.pilot_length))
                  for d in (6, 6, 1)]
        assert calls == [(name, *shape) for shape in shapes
                         for name in ("strong_stack", "gamma_stack")]

    @pytest.mark.parametrize("pilot", [-1, 7])
    def test_rejects_out_of_range_pilots_before_any_pass(
            self, desk_config, monkeypatch, pilot):
        # thirteen drops are passes of 6, 6 and 1: an entry out of [0, Lp),
        # Lp = 7 here, in the last drop, the third pass, is rejected before
        # the first pass ranks a strong set or computes a gamma
        cfg, powers, reals, assocs, pilot_of = desk_stack(desk_config, 13,
                                                          ("eem", "random"))
        calls = []
        record_stacked_calls(monkeypatch, calls)
        pilot_of[12, 1, 9] = pilot
        with pytest.raises(ValueError, match=f"^pilot index {pilot} is "):
            evaluate_drops(reals, assocs, pilot_of, powers, cfg)
        assert calls == []

    def test_orthogonal_pilots_match_no_copilot_formula(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=13, num_ues=7)
        pa = assign_all(SchemeConfig("eem"), real, assoc, powers,
                        cfg.pilot_length)
        report = evaluate(real, assoc, pa, powers, cfg)
        assert report.se.shape == (7,)
        assert np.all(report.sinr > 0)
        # nobody shares a pilot, so each UE's SINR must not depend on any
        # co-pilot term at all; check one UE against the diagonal solve
        gamma = gamma_one(real.beta, powers, cfg.pilot_length, pa)
        flags, counts = strong_one(real, assoc, cfg.strong_threshold, [pa],
                                   cfg.antennas_per_ap)
        args = (real.beta, gamma, powers, assoc, flags, counts[0], pa,
                cfg.antennas_per_ap)
        t = 3
        want = sinr_pfzf(t, oracle_lsfd(t, *args), real, assoc, pa.pilot_of,
                         powers, cfg)
        assert report.sinr[t] == pytest.approx(want, rel=1e-13)

    def test_report_consistency(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=2)
        pa = assign_all(SchemeConfig("random", seed=3), real, assoc, powers,
                        cfg.pilot_length)
        report = evaluate(real, assoc, pa, powers, cfg)
        assert report.sum_se == pytest.approx(report.se.sum(), rel=1e-15)
        np.testing.assert_allclose(
            report.se, prelog(cfg.coherence_block, cfg.pilot_length)
            * np.log2(1.0 + report.sinr), rtol=1e-15)
        assert report.percentile(0) == pytest.approx(report.se.min())
        assert report.percentile(100) == pytest.approx(report.se.max())

    def test_rejects_incomplete_assignment(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=2)
        pilots = np.full(cfg.num_ues, -1)
        with pytest.raises(ValueError):
            evaluate(real, assoc, PilotAssignment(pilots, cfg.pilot_length),
                     powers, cfg)

    def test_rejects_more_pilots_than_the_pilot_length(self, desk_drop):
        # nine orthogonal pilots cannot be scored on length-7 sequences: a
        # PilotAssignment names its pilot count, a bare stack its entry
        cfg, real, powers, assoc = desk_drop(seed=2)
        fits, wide = (assign_all(SchemeConfig("eem"), real, assoc, powers, lp)
                      for lp in (cfg.pilot_length, 9))
        with pytest.raises(ValueError, match="^pilot index 8 is not below "
                                             "the pilot length 7$"):
            evaluate_drops([real], [assoc], pilot_stack([[fits, wide]]),
                           powers, cfg)
        with pytest.raises(ValueError, match="^an assignment has 9 pilots, "
                                             "more than the pilot length "
                                             "7$"):
            evaluate(real, assoc, wide, powers, cfg)

    def test_duplicate_ues_symmetric(self):
        # two indistinguishable UEs on distinct pilots get identical SE
        cfg = NetworkConfig(num_aps=1, num_ues=3, antennas_per_ap=8,
                            pilot_length=3)
        real = NetworkRealization(np.zeros((1, 2)), np.zeros((3, 2)),
                                  np.array([[1.0, 1.0, 0.5]]), 0)
        powers = PowerProfile(np.full(3, 1.0 / 3.0), np.ones(3))
        assoc = map_from_sets((np.array([0]),) * 3, np.ones((1, 3), dtype=bool))
        pa = PilotAssignment(np.array([0, 1, 2]), 3)
        report = evaluate(real, assoc, pa, powers, cfg)
        assert report.se[0] == report.se[1]
        assert report.se[2] < report.se[0]


def per_ue_sinr(real, assoc, pa, powers, cfg):
    """evaluate's SINR rebuilt one UE at a time from the oracle's weights."""
    gamma = gamma_one(real.beta, powers, cfg.pilot_length, pa)
    flags, counts = strong_one(real, assoc, cfg.strong_threshold, [pa],
                               cfg.antennas_per_ap)
    args = (real.beta, gamma, powers, assoc, flags, counts[0], pa,
            cfg.antennas_per_ap)
    return np.array([sinr_pfzf(t, oracle_lsfd(t, *args), real, assoc,
                               pa.pilot_of, powers, cfg)
                     for t in range(real.num_ues)])


EDGE_CONFIGS = {
    "desk": {},
    "t_le_lp": dict(num_ues=5),
    "one_ap": dict(num_aps=1),
    "assoc_threshold_1": dict(assoc_threshold=1.0),
    "single_serving_ap": dict(assoc_threshold=1e-9),
}


def degenerate_drop():
    """UE 1's only AP sees an overflowing interference sum, so its SINR is
    NaN while UE 0 stays finite."""
    cfg = NetworkConfig(num_aps=2, num_ues=2, antennas_per_ap=8,
                        pilot_length=3)
    beta = np.array([[1e-10, 1e-13], [1e-13, 1e10]])
    real = NetworkRealization(np.zeros((2, 2)), np.zeros((2, 2)), beta, 0)
    powers = PowerProfile(np.full(2, 1e12), np.full(2, 1e300))
    assoc = map_from_sets((np.array([0]), np.array([1])), np.eye(2, dtype=bool))
    return cfg, real, powers, assoc


def record_factor_shapes(monkeypatch):
    """The shape of each stack that evaluation factors, recorded in the
    returned list as `np.linalg.cholesky` is called."""
    calls = []
    cholesky = np.linalg.cholesky

    def counting_cholesky(a, *args, **kwargs):
        calls.append(a.shape)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(performance.np.linalg, "cholesky", counting_cholesky)
    return calls


class TestBatchedEvaluate:
    @pytest.mark.parametrize("edge", sorted(EDGE_CONFIGS))
    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_matches_per_ue_path(self, desk_drop, scheme, edge):
        for seed in (3, 4):
            cfg, real, powers, assoc = desk_drop(seed=seed, **EDGE_CONFIGS[edge])
            sizes = {aps.size for aps in assoc.serving_aps}
            if edge == "single_serving_ap":
                assert sizes == {1}
            if edge == "assoc_threshold_1":
                assert sizes == {cfg.num_aps}
            pa = assign_all(SchemeConfig(scheme, seed=seed), real, assoc,
                            powers, cfg.pilot_length)
            got = evaluate(real, assoc, pa, powers, cfg)
            want = per_ue_sinr(real, assoc, pa, powers, cfg)
            np.testing.assert_allclose(got.sinr, want, rtol=1e-10)

    def test_one_solve_per_serving_set_size(self, desk_drop, monkeypatch):
        cfg, real, powers, assoc = desk_drop(seed=3)
        pa = assign_all(SchemeConfig("dpb", seed=3), real, assoc, powers,
                        cfg.pilot_length)
        sizes = {aps.size for aps in assoc.serving_aps}
        assert len(sizes) > 1
        calls = record_factor_shapes(monkeypatch)
        evaluate(real, assoc, pa, powers, cfg)
        # each of size n's systems is bordered by its b, to n + 1
        assert sorted(shape[-1] for shape in calls) == sorted(
            size + 1 for size in sizes)

    @pytest.mark.parametrize("edge", sorted(EDGE_CONFIGS))
    def test_stacked_matches_one_scheme(self, desk_drop, edge):
        # each assignment's co-pilot products take its own largest load, so
        # the assignments scored beside it move none of its bits
        for seed in (3, 4):
            cfg, real, powers, assoc = desk_drop(seed=seed,
                                                 **EDGE_CONFIGS[edge])
            pas = [assign_all(SchemeConfig(scheme, seed=seed), real, assoc,
                              powers, cfg.pilot_length)
                   for scheme in SCHEME_IDS]
            stacked, = evaluate_drops([real], [assoc], pilot_stack([pas]),
                                      powers, cfg)
            assert len(stacked) == len(pas)
            for pa, got in zip(pas, stacked):
                want = evaluate(real, assoc, pa, powers, cfg)
                np.testing.assert_array_equal(got, want.sinr)

    def test_one_solve_per_size_for_all_schemes(self, desk_drop, monkeypatch):
        cfg, real, powers, assoc = desk_drop(seed=3)
        pas = [assign_all(SchemeConfig(scheme, seed=3), real, assoc, powers,
                          cfg.pilot_length) for scheme in SCHEME_IDS]
        sizes = Counter(aps.size for aps in assoc.serving_aps)
        assert len(sizes) > 1
        calls = record_factor_shapes(monkeypatch)
        evaluate_drops([real], [assoc], pilot_stack([pas]), powers, cfg)
        # one solve per size, holding that size's UEs under every assignment
        assert sorted(calls) == sorted(
            (len(SCHEME_IDS) * count, size + 1, size + 1)
            for size, count in sizes.items())

    def test_stacked_degenerate_sinr_names_its_ue(self):
        cfg, real, powers, assoc = degenerate_drop()
        good = PilotAssignment(np.array([0, 1]), 3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match="for UE 1$"):
                evaluate_drops([real], [assoc], pilot_stack([[good, good]]),
                               powers, cfg)
        with pytest.raises(ValueError, match="at least one"):
            evaluate_drops([real], [assoc], pilot_stack([[]]), powers, cfg)

    def test_first_failure_is_row_major(self, desk_drop, monkeypatch):
        # UE 1 fails under assignment 0 and UE 0 under assignment 1: the
        # first (assignment, UE) in row-major order is named, not the lower UE
        cfg, real, powers, assoc = desk_drop(seed=3)
        pas = [assign_all(SchemeConfig(scheme, seed=3), real, assoc, powers,
                          cfg.pilot_length) for scheme in ("eem", "dpb")]
        monkeypatch.setattr(performance, "_lsfd_groups", bad_systems(
            [(0, 0, 1), (0, 1, 0)], b=np.nan))
        with np.errstate(invalid="ignore"):
            with pytest.raises(ArithmeticError, match="for UE 1$"):
                evaluate_drops([real], [assoc], pilot_stack([pas]), powers,
                               cfg)

    def test_degenerate_sinr_names_first_ue(self):
        cfg, real, powers, assoc = degenerate_drop()
        pa = PilotAssignment(np.array([0, 1]), 3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match="for UE 1$"):
                evaluate(real, assoc, pa, powers, cfg)


def record_stacked_calls(monkeypatch, calls):
    """Record each `strong_stack` and `gamma_stack` call of evaluation in
    `calls`: its name and the shapes of its (D, M, T) betas, which both
    take first, and of its pilots' one-hot, the fourth and third argument."""
    for module, name, at in ((network, "strong_stack", 3),
                             (estimation, "gamma_stack", 2)):
        def call(*args, name=name, at=at, real=getattr(module, name),
                 **kwargs):
            calls.append((name, args[0].shape, args[at].shape))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, call)
        monkeypatch.setattr(performance, name, call)


def desk_stack(desk_config, num_drops, schemes=SCHEME_IDS, seed=14, **over):
    """num_drops drops of one desk config, each with its association, and
    the (D, S, T) pilots of their assignments under `schemes`, drawn from
    per-drop seeds."""
    cfg = desk_config(**over)
    powers = normalize_powers(cfg)
    reals = [generate_drop(cfg, seed + d) for d in range(num_drops)]
    assocs = [associate_aps(real, cfg.assoc_threshold) for real in reals]
    pilot_of = pilot_stack(
        [[assign_all(SchemeConfig(scheme, seed=seed + d), real, assoc,
                     powers, cfg.pilot_length) for scheme in schemes]
         for d, (real, assoc) in enumerate(zip(reals, assocs))])
    return cfg, powers, reals, assocs, pilot_of


def unit_systems(num_units):
    """num_units bordered systems [[Q, b], [b, s]] of n = 1 with Q = b = 1
    and s = 2, each scoring 1."""
    return np.tile([[1.0, 1.0], [1.0, 2.0]], (num_units, 1, 1))


def bad_systems(spots, q=1.0, b=1.0):
    """An `_lsfd_groups` stand-in: one `unit_systems` system per unit, a UE
    under one (drop, assignment) cell, but with Q = q and b = b at each
    (drop, assignment, UE) of `spots`."""
    def systems(reals, assocs, pilot_of, powers, config):
        num_drops, num_schemes, num_ues = pilot_of.shape
        bordered = unit_systems(num_drops * num_schemes * num_ues)
        for d, i, t in spots:
            at = (d * num_schemes + i) * num_ues + t
            bordered[at, 0, 0] = q
            bordered[at, 0, 1] = bordered[at, 1, 0] = b
        yield np.arange(len(bordered)), bordered
    return systems


class TestEvaluateDrops:
    @pytest.mark.parametrize("schemes", [("eem",), ("dpb", "random"),
                                         ("eem", "dpb", "scalable"),
                                         SCHEME_IDS], ids=len)
    def test_a_drop_scores_alike_in_any_chunk(self, desk_config, schemes):
        # each drop's co-pilot products keep its own width, so its SINRs do
        # not depend on the drops beside it, at any chunk size or position.
        # Drop seeds 14-20 hold drops whose SINRs would move at round-off if
        # padded to a wider chunk's width, so the check can fail
        cfg, powers, reals, assocs, pilot_of = desk_stack(desk_config, 7,
                                                          schemes)
        alone = np.concatenate([
            evaluate_drops([real], [assoc], cell[None], powers, cfg)
            for real, assoc, cell in zip(reals, assocs, pilot_of)])
        for size in range(2, 8):
            for lo in range(8 - size):
                chunk = slice(lo, lo + size)
                got = evaluate_drops(reals[chunk], assocs[chunk],
                                     pilot_of[chunk], powers, cfg)
                assert got.shape == (size, len(schemes), cfg.num_ues)
                np.testing.assert_array_equal(got, alone[chunk])

    @given(num_aps=st.integers(1, 6), num_ues=st.integers(1, 10),
           lp=st.integers(1, 5), extra=st.integers(1, 4),
           threshold=st.one_of(st.just(1.0), st.floats(0.5, 1.0)),
           num_drops=st.integers(2, 4),
           schemes=st.lists(st.sampled_from(SCHEME_IDS), min_size=1,
                            max_size=4, unique=True),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    @example(num_aps=1, num_ues=3, lp=5, extra=1, threshold=1.0,
             num_drops=3, schemes=list(SCHEME_IDS), seed=0)
    @example(num_aps=5, num_ues=10, lp=2, extra=1, threshold=1.0,
             num_drops=4, schemes=["dpb", "eem"], seed=1)
    def test_stack_matches_lone_drops(self, num_aps, num_ues, lp, extra,
                                      threshold, num_drops, schemes, seed):
        # each cell scores as its assignment does alone, whatever drops
        # and assignments share its stack. Tiny configs reach T <= Lp, one
        # AP and assoc_threshold = 1; the examples pin all three, and
        # threshold 1 with several APs
        cfg = NetworkConfig(area_side_m=200.0, num_aps=num_aps,
                            num_ues=num_ues, antennas_per_ap=lp + extra,
                            pilot_length=lp, assoc_threshold=threshold)
        powers = normalize_powers(cfg)
        reals = [generate_drop(cfg, seed + d) for d in range(num_drops)]
        assocs = [associate_aps(real, cfg.assoc_threshold) for real in reals]
        by_drop = [[assign_all(SchemeConfig(scheme, seed=seed), real, assoc,
                               powers, lp) for scheme in schemes]
                   for real, assoc in zip(reals, assocs)]
        got = evaluate_drops(reals, assocs, pilot_stack(by_drop), powers, cfg)
        assert got.shape == (num_drops, len(schemes), num_ues)
        for real, assoc, cell, sinrs in zip(reals, assocs, by_drop, got):
            for pa, sinr in zip(cell, sinrs):
                want = evaluate(real, assoc, pa, powers, cfg)
                np.testing.assert_array_equal(sinr, want.sinr)

    def test_one_solve_per_serving_set_size_of_the_stack(self, desk_config,
                                                         monkeypatch):
        # cells of different largest pilot loads still share each solve
        cfg, powers, reals, assocs, pilot_of = desk_stack(desk_config, 6)
        sizes = Counter(aps.size for assoc in assocs
                        for aps in assoc.serving_aps)
        loads = {np.bincount(pilots).max() for cell in pilot_of
                 for pilots in cell}
        assert len(loads) > 1
        calls = record_factor_shapes(monkeypatch)
        evaluate_drops(reals, assocs, pilot_of, powers, cfg)
        # one solve per size, holding that size's units of every cell
        assert sorted(calls) == sorted(
            (len(SCHEME_IDS) * count, size + 1, size + 1)
            for size, count in sizes.items())

    def test_first_failure_names_its_ue(self, desk_config, monkeypatch):
        # the first failure in (drop, assignment, UE) order names its UE,
        # not the lowest failing UE
        cfg, powers, reals, assocs, pilot_of = desk_stack(desk_config, 3,
                                                          ("eem", "dpb"))
        monkeypatch.setattr(performance, "_lsfd_groups", bad_systems(
            [(2, 0, 0), (1, 1, 3), (1, 0, 7)], b=np.nan))
        with np.errstate(invalid="ignore"):
            with pytest.raises(ArithmeticError, match="for UE 7$"):
                evaluate_drops(reals, assocs, pilot_of, powers, cfg)

    def test_a_system_that_is_not_positive_definite_names_its_ue(
            self, desk_config, monkeypatch):
        # its size's stack fails to factor, so its systems are factored one
        # at a time: the valid ones still score, and it scores NaN
        stack = unit_systems(4)
        stack[2, 0, 0] = -1.0
        np.testing.assert_array_equal(performance._scores(stack),
                                      [1.0, 1.0, np.nan, 1.0])
        cfg, powers, reals, assocs, pilot_of = desk_stack(desk_config, 3,
                                                          ("eem", "dpb"))
        monkeypatch.setattr(performance, "_lsfd_groups", bad_systems(
            [(1, 1, 4)], q=-1.0))
        with pytest.raises(ArithmeticError, match="for UE 4$"):
            evaluate_drops(reals, assocs, pilot_of, powers, cfg)

    def test_passes_of_six_drops_score_as_lone_cells(self, desk_config,
                                                     monkeypatch):
        # thirteen drops are three passes, 6 + 6 + 1, each cell the same
        # bits as its lone evaluate
        cfg, powers, reals, assocs, pilot_of = desk_stack(desk_config, 13,
                                                          ("eem", "random"))
        passes = []
        real_groups = performance._lsfd_groups

        def lsfd_groups(betas, *args):
            passes.append(len(betas))
            return real_groups(betas, *args)

        monkeypatch.setattr(performance, "_lsfd_groups", lsfd_groups)
        got = evaluate_drops(reals, assocs, pilot_of, powers, cfg)
        assert passes == [6, 6, 1]
        assert got.shape == (13, 2, cfg.num_ues)
        for real, assoc, cell, sinrs in zip(reals, assocs, pilot_of, got,
                                            strict=True):
            for pilots, sinr in zip(cell, sinrs, strict=True):
                pa = PilotAssignment(pilots, cfg.pilot_length)
                np.testing.assert_array_equal(
                    sinr, evaluate(real, assoc, pa, powers, cfg).sinr)

    def test_passes_bound_the_peak_memory(self, desk_config):
        # thirteen drops peak no higher than six, up to a fixed margin for
        # the larger score array: evaluation sets up at most six drops at
        # a time, where one thirteen-drop pass would double the peak
        cfg, powers, reals, assocs, pilot_of = desk_stack(desk_config, 13)

        def peak(num_drops):
            args = (reals[:num_drops], assocs[:num_drops],
                    pilot_of[:num_drops], powers, cfg)
            evaluate_drops(*args)
            tracemalloc.start()
            try:
                evaluate_drops(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(13) <= peak(6) + 64_000

    def test_rejects_malformed_stacks(self, desk_config):
        cfg, powers, reals, assocs, pilot_of = desk_stack(desk_config, 3)
        with pytest.raises(ValueError, match="at least one drop"):
            evaluate_drops([], [], pilot_of[:0], powers, cfg)
        with pytest.raises(ValueError, match="at least one drop"):
            evaluate_drops(reals, assocs[:2], pilot_of, powers, cfg)
        with pytest.raises(ValueError, match="at least one drop"):
            evaluate_drops(reals, assocs, pilot_of[:2], powers, cfg)
        with pytest.raises(ValueError, match="at least one pilot assignment"):
            evaluate_drops(reals, assocs, pilot_of[:, :0], powers, cfg)
        with pytest.raises(ValueError, match="one pilot per UE"):
            evaluate_drops(reals, assocs, pilot_of[..., :-1], powers, cfg)
        with pytest.raises(ValueError, match="one pilot per UE"):
            evaluate_drops(reals, assocs, pilot_of[:, 0], powers, cfg)
        other = generate_drop(desk_config(num_ues=40), 5)
        with pytest.raises(ValueError, match="must share M and T"):
            evaluate_drops([reals[0], other], assocs[:2], pilot_of[:2],
                           powers, cfg)
        wide = assign_all(SchemeConfig("eem"), reals[2], assocs[2], powers, 9)
        stack = pilot_of.copy()
        stack[2, 1] = wide.pilot_of
        with pytest.raises(ValueError, match="^pilot index 8 is not below "
                                             "the pilot length 7$"):
            evaluate_drops(reals, assocs, stack, powers, cfg)
        # the pilot length itself is the first index out of range
        stack[2, 1] = np.minimum(wide.pilot_of, cfg.pilot_length)
        with pytest.raises(ValueError, match="^pilot index 7 is not below "
                                             "the pilot length 7$"):
            evaluate_drops(reals, assocs, stack, powers, cfg)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_any_integer_stack_scores_alike(self, desk_config, dtype):
        cfg, powers, reals, assocs, pilot_of = desk_stack(desk_config, 2)
        np.testing.assert_array_equal(
            evaluate_drops(reals, assocs, pilot_of.astype(dtype), powers, cfg),
            evaluate_drops(reals, assocs, pilot_of, powers, cfg))

    @pytest.mark.parametrize("dtype", [float, bool])
    def test_rejects_a_stack_of_non_integers(self, desk_config, dtype):
        # a cast would truncate float pilots, and read bools as 0 and 1
        cfg, powers, reals, assocs, pilot_of = desk_stack(desk_config, 2)
        with pytest.raises(ValueError, match="^pilot_of must hold integers, "
                                             "not floats or bools$"):
            evaluate_drops(reals, assocs, pilot_of.astype(dtype), powers, cfg)


class TestRelabeling:
    # naming the pilots or the APs otherwise changes no physics. These
    # checks are structurally different from the oracles, which share the
    # package's formulas

    # not at one AP: there gamma_stack's one-hot product is a
    # vector-matrix product, whose per-pilot sums may take an order that
    # depends on the pilot's column
    @pytest.mark.parametrize("edge", sorted(set(EDGE_CONFIGS) - {"one_ap"}))
    def test_pilot_permutation_keeps_every_bit(self, desk_drop, edge):
        # each pilot's members stay in UE order, so every sum keeps its order
        rng = np.random.default_rng(22)
        for seed in (3, 4):
            cfg, real, powers, assoc = desk_drop(seed=seed,
                                                 **EDGE_CONFIGS[edge])
            pas = [assign_all(SchemeConfig(scheme, seed=seed), real, assoc,
                              powers, cfg.pilot_length)
                   for scheme in SCHEME_IDS]
            renamed = [PilotAssignment(rng.permutation(pa.num_pilots)[
                pa.pilot_of], pa.num_pilots) for pa in pas]
            want, got = (evaluate_drops([real], [assoc], pilot_stack([cell]),
                                        powers, cfg)
                         for cell in (pas, renamed))
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("edge", sorted(EDGE_CONFIGS))
    def test_ap_permutation_moves_only_round_off(self, desk_drop, edge):
        # the per-AP sums change their order, so only round-off may move
        for seed in (3, 4):
            cfg, real, powers, assoc = desk_drop(seed=seed,
                                                 **EDGE_CONFIGS[edge])
            pas = [assign_all(SchemeConfig(scheme, seed=seed), real, assoc,
                              powers, cfg.pilot_length)
                   for scheme in SCHEME_IDS]
            perm = np.random.default_rng(seed).permutation(cfg.num_aps)
            moved = NetworkRealization(real.ap_positions[perm],
                                       real.ue_positions, real.beta[perm],
                                       real.seed)
            moved_assoc = associate_aps(moved, cfg.assoc_threshold)
            # the same serving sets in the same order, under the new names
            for aps, renamed in zip(assoc.serving_aps,
                                    moved_assoc.serving_aps, strict=True):
                np.testing.assert_array_equal(perm[renamed], aps)
            want = evaluate_drops([real], [assoc], pilot_stack([pas]), powers,
                                  cfg)
            got = evaluate_drops([moved], [moved_assoc], pilot_stack([pas]),
                                 powers, cfg)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestContaminationMonotonicity:
    def test_extra_copilot_cannot_raise_sinr(self, desk_drop):
        # freeze the original-optimal weights, then inject one more co-pilot
        # UE, served by AP 0 alone. It is each other AP's strongest UE and
        # AP 0's weakest by far, so it is strong nowhere and the grouping
        # stays as it was: with everything else pinned, contamination can
        # only lose SINR
        cfg, real, powers, assoc = desk_drop(seed=17)
        pa = assign_all(SchemeConfig("eem"), real, assoc, powers,
                        cfg.pilot_length)
        gamma0 = gamma_one(real.beta, powers, cfg.pilot_length, pa)
        flags, counts = strong_one(real, assoc, cfg.strong_threshold, [pa],
                                   cfg.antennas_per_ap)
        t = 11
        pilot = int(pa.pilot_of[t])
        w0 = oracle_lsfd(t, real.beta, gamma0, powers, assoc, flags, counts[0],
                         pa, cfg.antennas_per_ap)
        base = sinr_pfzf(t, w0, real, assoc, pa.pilot_of, powers, cfg)

        new_col = real.beta.max(axis=1, keepdims=True)
        new_col[0] = real.beta[0].min() * 1e-6
        real_ext = NetworkRealization(real.ap_positions,
                                      np.zeros((cfg.num_ues + 1, 2)),
                                      np.hstack([real.beta, new_col]), 0)
        powers_ext = PowerProfile(np.append(powers.p_pilot, powers.p_pilot[0]),
                                  np.append(powers.p_uplink, powers.p_uplink[0]))
        pa_ext = PilotAssignment(np.append(pa.pilot_of, pilot),
                                 cfg.pilot_length)
        new_serves = np.zeros((cfg.num_aps, 1), dtype=bool)
        new_serves[0] = True
        serves_ext = np.hstack([assoc.serves, new_serves])
        assoc_ext = map_from_sets(assoc.serving_aps + (np.array([0]),),
                                  serves_ext)
        flags_ext, counts_ext = strong_one(real_ext, assoc_ext,
                                           cfg.strong_threshold, [pa_ext],
                                           cfg.antennas_per_ap)
        np.testing.assert_array_equal(
            flags_ext, np.hstack([flags, np.zeros((cfg.num_aps, 1), bool)]))
        np.testing.assert_array_equal(counts_ext, counts)
        gamma1 = gamma_one(real_ext.beta, powers_ext, cfg.pilot_length, pa_ext)
        worse = sinr_pfzf(t, w0, real_ext, assoc_ext, pa_ext.pilot_of,
                          powers_ext, cfg)
        assert worse < base
        assert np.all(gamma1[:, :cfg.num_ues] <= gamma0 + 1e-18)


class TestPipelineFuzz:
    # transmit powers stop at 1 W: near 300 W the SINR's non-coherent and
    # zero-forced sums cancel enough to move it by ~1e-10 against the oracle
    @given(num_aps=st.integers(1, 6), num_ues=st.integers(1, 10),
           lp=st.integers(1, 5), extra=st.integers(1, 4),
           threshold=st.one_of(st.just(1.0), st.floats(0.5, 1.0)),
           shadow=st.sampled_from([0.0, 8.0]), wrap=st.booleans(),
           side=st.sampled_from([50.0, 1000.0]),
           log_power=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_every_scheme_matches_oracles(self, num_aps, num_ues, lp, extra,
                                          threshold, shadow, wrap, side,
                                          log_power, seed):
        cfg = NetworkConfig(area_side_m=side, num_aps=num_aps,
                            num_ues=num_ues, antennas_per_ap=lp + extra,
                            pilot_length=lp, shadow_sigma_db=shadow,
                            assoc_threshold=threshold,
                            tx_power_mw=10.0 ** log_power, wrap_around=wrap)
        real = generate_drop(cfg, seed)
        powers = normalize_powers(cfg)
        assoc = associate_aps(real, cfg.assoc_threshold)
        pas = [assign_all(SchemeConfig(scheme, seed=seed), real, assoc,
                          powers, lp) for scheme in SCHEME_IDS]
        sinrs, = evaluate_drops([real], [assoc], pilot_stack([pas]), powers,
                                cfg)
        for pa, sinr in zip(pas, sinrs, strict=True):
            gamma = gamma_one(real.beta, powers, lp, pa)
            want_gamma = oracle_gamma(real.beta, powers.p_pilot, lp,
                                      pa.pilot_of)
            np.testing.assert_allclose(gamma, want_gamma, rtol=1e-12, atol=0)
            _, flags, counts = oracle_strong_groups(
                real.beta, [np.flatnonzero(row) for row in assoc.serves],
                pa.pilot_of, cfg.strong_threshold, cfg.antennas_per_ap)
            for t in range(num_ues):
                a = np.zeros(num_aps)
                a[assoc.serving_aps[t]] = oracle_lsfd(
                    t, real.beta, want_gamma, powers, assoc, flags, counts,
                    pa, cfg.antennas_per_ap)
                want = oracle_sinr(t, a, real.beta, want_gamma,
                                   powers.p_uplink, pa.pilot_of,
                                   flags, counts, cfg.antennas_per_ap)
                assert abs(sinr[t] - want) <= 1e-10 * want
