"""Acceptance gate: one test per shipping criterion, desk scale throughout.

Every test prints a single PASS line with the measured figure once its
assertions hold, so `pytest tests/test_acceptance.py -v -s` reads as a
checklist. Scale: M = 30, T in the 30..60 range, A = 8, Lp = 7, 50 drops.
"""

import numpy as np
import pytest

from pilotsim import (
    NetworkConfig,
    ExperimentSpec,
    OpCounter,
    SchemeConfig,
    assign_all,
    associate_aps,
    audit_overhead,
    derive_seed,
    generate_drop,
    normalize_powers,
    prelog,
    run_experiment,
    run_protocol,
)
from oracles import (micro_instance, oracle_eem_choice, oracle_error_global,
                     oracle_error_local, oracle_gamma_bound, oracle_lsfd,
                     oracle_sinr, random_unit_vector)
from probes import gamma_one, offered_set, sinr_pfzf, stack_row, strong_one

DESK = dict(num_aps=30, num_ues=50, antennas_per_ap=8, pilot_length=7)


def desk(**over):
    return NetworkConfig(**{**DESK, **over})


def drop_pieces(cfg, seed):
    real = generate_drop(cfg, seed)
    powers = normalize_powers(cfg)
    return real, powers, associate_aps(real, cfg.assoc_threshold)


def test_criterion_01_prelog_exact():
    value = prelog(200, 7)
    assert abs(value - 0.4825) <= 1e-15
    print(f"\nPASS criterion 1: prelog(200, 7) = {value!r} (|diff| <= 1e-15)")


def test_criterion_02_orthogonal_regime():
    cfg = desk(num_ues=7)
    worst = 0.0
    for d in range(5):
        real, powers, assoc = drop_pieces(cfg, derive_seed(21, 0, d))
        pa = assign_all(SchemeConfig("eem"), real, assoc, powers,
                        cfg.pilot_length)
        assert sorted(pa.pilot_of) == list(range(7))  # unique pilots
        for t in range(cfg.num_ues):
            err = oracle_error_global(t, int(pa.pilot_of[t]), real.beta,
                                      powers.p_pilot, cfg.pilot_length,
                                      pa.pilot_of, assoc.serving_aps[t])
            assert err == 0.0
        gamma = gamma_one(real.beta, powers, cfg.pilot_length, pa)
        bound = oracle_gamma_bound(real.beta, powers.p_pilot, cfg.pilot_length)
        np.testing.assert_allclose(gamma, bound, rtol=1e-12)
        worst = max(worst, float(np.max(np.abs(gamma / bound - 1.0))))
    print(f"\nPASS criterion 2: T <= Lp gives unique pilots, zero error, "
          f"gamma at bound (max rel dev {worst:.2e} <= 1e-12)")


def test_criterion_03_greedy_matches_brute_force():
    cfg = desk()
    checked = mismatches = 0
    for d in range(50):
        real, powers, assoc = drop_pieces(cfg, derive_seed(2024, 0, d))
        pa = assign_all(SchemeConfig("eem"), real, assoc, powers,
                        cfg.pilot_length)
        partial = np.full(cfg.num_ues, -1)
        for t in range(cfg.num_ues):
            if t < cfg.pilot_length:
                want = t
            else:
                want = oracle_eem_choice(t, real.beta, powers.p_pilot,
                                         cfg.pilot_length, partial,
                                         assoc.serving_aps[t])
                checked += 1
            if pa.pilot_of[t] != want:
                mismatches += 1
            partial[t] = pa.pilot_of[t]
    assert mismatches == 0
    print(f"\nPASS criterion 3: {checked} greedy steps over 50 drops match "
          f"the cache-free brute-force argmin ({mismatches} mismatches)")


def test_criterion_04_sinr_oracle_equivalence():
    rng = np.random.default_rng(20250814)
    worst = 0.0
    compared = 0
    for _ in range(1000):
        # the oracles take the oracle's gammas and strong sets, the probe
        # the package's own, built from the config
        inst = micro_instance(rng)
        real, powers, pa = inst["real"], inst["powers"], inst["assignment"]
        assoc, ants, gamma = inst["assoc"], inst["antennas"], inst["gamma"]
        flags, ls = inst["flags"], inst["counts"]
        cfg = NetworkConfig(antennas_per_ap=ants, pilot_length=inst["lp"],
                            strong_threshold=inst["threshold"])
        for t in range(real.num_ues):
            serving = assoc.serving_aps[t]
            a = np.zeros(real.num_aps)
            a[serving] = oracle_lsfd(t, real.beta, gamma, powers, assoc, flags,
                                     ls, pa, ants)
            got = sinr_pfzf(t, a[serving], real, assoc, pa.pilot_of, powers,
                            cfg)
            want = oracle_sinr(t, a, real.beta, gamma,
                               powers.p_uplink, pa.pilot_of,
                               flags, ls, ants)
            rel = abs(got - want) / want
            worst = max(worst, rel)
            assert rel <= 1e-10
            compared += 1
    print(f"\nPASS criterion 4: pipeline SINR matches literal oracle on "
          f"{compared} UE instances from 1000 micro-systems "
          f"(worst rel err {worst:.2e} <= 1e-10)")


def test_criterion_05_lsfd_dominance():
    cfg = desk()
    rng = np.random.default_rng(55)
    instances = violations = 0
    for d in range(10):
        real, powers, assoc = drop_pieces(cfg, derive_seed(1000, 0, d))
        pa = assign_all(SchemeConfig("dpb", seed=d), real, assoc, powers,
                        cfg.pilot_length)
        gamma = gamma_one(real.beta, powers, cfg.pilot_length, pa)
        flags, counts = strong_one(real, assoc, cfg.strong_threshold, [pa],
                                   cfg.antennas_per_ap)
        for t in range(0, cfg.num_ues, cfg.num_ues // 20):
            if instances == 200:
                break
            serving = assoc.serving_aps[t]
            args = (real.beta, gamma, powers, assoc, flags, counts[0], pa,
                    cfg.antennas_per_ap)
            probe = (real, assoc, pa.pilot_of, powers, cfg)
            best = sinr_pfzf(t, oracle_lsfd(t, *args), *probe)
            slack = best * (1.0 + 1e-12)
            probes = [np.full(serving.size, 1.0 / serving.size)]
            probes += [random_unit_vector(rng, serving.size)
                       for _ in range(1000)]
            violations += int(np.count_nonzero(
                sinr_pfzf(t, np.array(probes), *probe) > slack))
            instances += 1
    assert instances == 200
    assert violations == 0
    print(f"\nPASS criterion 5: optimal LSFD dominates equal weights and "
          f"1000 random probes on {instances} UE instances "
          f"({violations} violations beyond 1e-12 slack)")


def test_criterion_06_scheme_ordering(tmp_path):
    spec = ExperimentSpec(config=desk(), sweep="none", sweep_values=(50,),
                          schemes=("eem", "dpb", "random", "scalable"),
                          num_drops=50, master_seed=6,
                          output_dir=str(tmp_path), name="ordering")
    rows, _ = run_experiment(spec)
    sums = {s: np.array([r.sum_se for r in rows if r.scheme == s])
            for s in spec.schemes}
    mean = {s: float(v.mean()) for s, v in sums.items()}
    assert mean["eem"] > mean["dpb"] > mean["random"]
    assert mean["eem"] >= mean["scalable"]
    paired = sums["eem"] - sums["random"]
    stderr = paired.std(ddof=1) / np.sqrt(paired.size)
    assert paired.mean() > 3.0 * stderr
    print(f"\nPASS criterion 6: mean sum SE eem {mean['eem']:.2f} > dpb "
          f"{mean['dpb']:.2f} > random {mean['random']:.2f}, eem >= scalable "
          f"{mean['scalable']:.2f}; eem-random gap = "
          f"{paired.mean() / stderr:.1f} stderr (> 3)")


def test_criterion_07_dynamic_invariance():
    base, extra = 50, 55
    for scheme_id in ("eem", "dpb"):
        for d in range(20):
            seed = derive_seed(777, 0, d)
            run = {}
            for t_count in (base, extra):
                cfg = desk(num_ues=t_count)
                real, powers, assoc = drop_pieces(cfg, seed)
                scheme = SchemeConfig(scheme_id, seed=derive_seed(seed, 9))
                run[t_count] = assign_all(scheme, real, assoc, powers,
                                          cfg.pilot_length).pilot_of
            np.testing.assert_array_equal(run[extra][:base], run[base])
    print(f"\nPASS criterion 7: first {base} assignments bit-identical when "
          f"5 UEs join, eem and dpb, 20 drops each")


def test_criterion_08_protocol_audit():
    cfg = desk()
    total_msgs = 0
    for i in range(100):
        real, powers, assoc = drop_pieces(cfg, derive_seed(88, 0, i))
        order = np.random.default_rng([9, i]).permutation(cfg.num_ues)
        scheme = SchemeConfig("dpb", seed=derive_seed(88, 1, i))
        negotiated, log = run_protocol(real, assoc, scheme, order, powers,
                                       cfg.pilot_length)
        audit = audit_overhead(log, assoc, scheme.dpb_s)  # raises on breach
        assert audit["ap_to_ap"] == 0
        budget = sum(2 * min(scheme.dpb_s, len(assoc.serving_aps[t]))
                     + len(assoc.serving_aps[t]) for t in range(cfg.num_ues))
        assert audit["total_messages"] == budget
        direct = stack_row(scheme, real, assoc, powers, cfg.pilot_length,
                           order)
        np.testing.assert_array_equal(negotiated.pilot_of, direct)
        total_msgs += audit["total_messages"]
    print(f"\nPASS criterion 8: 100 protocol runs, zero ap-to-ap, exact "
          f"2S' + |M_t| budget ({total_msgs} messages), assignments "
          f"identical to the stacked numpy step")


def test_criterion_09_complexity_counters():
    cfg = desk()
    ues = 0
    for d in range(50):
        real, powers, assoc = drop_pieces(cfg, derive_seed(99, 0, d))
        eem_counter, dpb_counter = OpCounter(), OpCounter()
        assign_all(SchemeConfig("eem"), real, assoc, powers,
                   cfg.pilot_length, counter=eem_counter)
        assign_all(SchemeConfig("dpb", seed=d), real, assoc, powers,
                   cfg.pilot_length, counter=dpb_counter)
        for t in range(cfg.num_ues):
            m_t = len(assoc.serving_aps[t])
            assert eem_counter.contamination_reads[t] <= m_t * cfg.pilot_length
            assert dpb_counter.error_evals[t] <= 3 * cfg.pilot_length
            ues += 1
    print(f"\nPASS criterion 9: EEM reads <= |M_t| Lp and DPB evaluations "
          f"<= S Lp for all {ues} UEs across 50 drops")


def test_criterion_10_candidate_set_properties():
    rng = np.random.default_rng(1010)
    cfg = desk(num_ues=10)
    real, powers, _ = drop_pieces(cfg, 4)
    lp = cfg.pilot_length
    calls = 0
    for _ in range(5000):
        errors = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 10)))
        deltas = np.sort(rng.uniform(0.0, 2.0, size=2))
        narrow = offered_set(errors, deltas[0])
        wide = offered_set(errors, deltas[1])
        assert int(np.argmin(errors)) in narrow
        assert narrow <= wide
        calls += 2
    for _ in range(2500):
        t = int(rng.integers(cfg.num_ues))
        m = int(rng.integers(cfg.num_aps))
        local = [rng.choice(cfg.num_ues, size=int(rng.integers(0, 4)),
                            replace=False) for _ in range(lp)]
        deltas = np.sort(rng.uniform(0.0, 2.0, size=2))
        errors = np.array([oracle_error_local(t, m, real.beta, powers.p_pilot,
                                              lp, ks) for ks in local])
        narrow = offered_set(errors, deltas[0])
        wide = offered_set(errors, deltas[1])
        assert len(narrow) >= 1 and narrow <= wide
        calls += 2
    assert calls == 15000
    print(f"\nPASS criterion 10: argmin membership and delta-monotonicity "
          f"hold on {calls} randomized candidate-set calls")


def test_criterion_11_byte_identical_reruns(tmp_path):
    def spec(out, workers):
        return ExperimentSpec(config=desk(num_ues=30), sweep="ue_count",
                              sweep_values=(30, 35), num_drops=6,
                              schemes=("eem", "dpb", "random", "scalable"),
                              master_seed=11, output_dir=str(out),
                              name="det", workers=workers)

    _, first = run_experiment(spec(tmp_path / "a", 1))
    _, again = run_experiment(spec(tmp_path / "b", 1))
    _, wide = run_experiment(spec(tmp_path / "c", 3))
    for kind in ("results", "aggregates"):
        ref = first[kind].read_bytes()
        assert again[kind].read_bytes() == ref
        assert wide[kind].read_bytes() == ref
    print("\nPASS criterion 11: rerun and 3-worker run produce byte-identical "
          "results and aggregates CSVs")
