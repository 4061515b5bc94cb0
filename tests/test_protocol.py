"""Message-level protocol: structural locality, budgets, and equivalence."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim import (
    BudgetViolation,
    NetworkConfig,
    NetworkRealization,
    OpCounter,
    PowerProfile,
    SchemeConfig,
    assign_all,
    associate_aps,
    audit_overhead,
    derive_seed,
    generate_drop,
    normalize_powers,
    run_protocol,
)
from pilotsim.assignment import assign_drops
from pilotsim.cli import main
from pilotsim.estimation import local_error_profile
from pilotsim.harness import SCHEME_CODE
from pilotsim.protocol import KIND_NOTIFY, KIND_OFFER, KIND_PROBE, TraceLog
from oracles import (oracle_audit_rows, oracle_offer, oracle_priority_select,
                     oracle_protocol_log)
from probes import map_from_sets, offered_set, resolve_offers, stack_row
import test_seeding


def kind_counts(log):
    """Messages per kind, counted from the exported trace."""
    return Counter(line.split(",")[1] for line in log.export_lines())


def all_serve_instance(num_aps=5, num_ues=10, lp=4, seed=0):
    """Every AP serves every UE; serving order still sorts by LSFC."""
    r = np.random.default_rng(seed)
    beta = 10.0 ** r.uniform(-10, -7, size=(num_aps, num_ues))
    real = NetworkRealization(r.uniform(0, 1000, (num_aps, 2)),
                              r.uniform(0, 1000, (num_ues, 2)), beta, seed)
    serving = tuple(np.argsort(-beta[:, t], kind="stable")
                    for t in range(num_ues))
    assoc = map_from_sets(serving, np.ones((num_aps, num_ues), bool))
    powers = PowerProfile(10.0 ** r.uniform(0, 2, num_ues), np.ones(num_ues))
    return real, assoc, powers, lp


def traced_messages():
    """(kind, src role, dst role, payload) of every exported message of two
    runs: all APs serving all UEs, and a desk drop with S' = 4."""
    real, assoc, powers, lp = all_serve_instance()
    _, log = run_protocol(real, assoc, SchemeConfig("dpb"), np.arange(10),
                          powers, lp)
    lines = list(log.export_lines())
    cfg = NetworkConfig(num_aps=30, num_ues=50)
    real = generate_drop(cfg, 3)
    assoc = associate_aps(real, cfg.assoc_threshold)
    _, log = run_protocol(real, assoc, SchemeConfig("dpb", dpb_s=4, seed=3),
                          np.arange(cfg.num_ues), normalize_powers(cfg),
                          cfg.pilot_length)
    lines += log.export_lines()
    out = []
    for line in lines:
        _, kind, src, dst, payload = line.split(",")
        out.append((kind, src.rstrip("0123456789"), dst.rstrip("0123456789"),
                    int(payload)))
    return out


class TestMessage:
    """The exported trace obeys the message rules: each kind has one
    direction between a UE and an AP, and no payload is negative."""

    def test_valid_kinds(self):
        log = TraceLog()
        log.record_arrival(0, 3, [1], [2], [0])
        assert list(log.export_lines()) == [
            f"0,{KIND_PROBE},ue3,ap1,0",
            f"0,{KIND_OFFER},ap1,ue3,2",
            f"0,{KIND_NOTIFY},ue3,ap0,1",
        ]

    @pytest.mark.parametrize("kind", [KIND_PROBE, KIND_OFFER, KIND_NOTIFY])
    def test_no_kind_permits_ap_to_ap(self, kind):
        roles = {(src, dst) for k, src, dst, _ in traced_messages() if k == kind}
        assert roles and ("ap", "ap") not in roles

    @pytest.mark.parametrize("kind", [KIND_PROBE, KIND_OFFER, KIND_NOTIFY])
    def test_no_kind_permits_ue_to_ue(self, kind):
        roles = {(src, dst) for k, src, dst, _ in traced_messages() if k == kind}
        assert roles and ("ue", "ue") not in roles

    def test_wrong_direction(self):
        roles = {(k, src, dst) for k, src, dst, _ in traced_messages()}
        assert roles == {(KIND_PROBE, "ue", "ap"), (KIND_OFFER, "ap", "ue"),
                         (KIND_NOTIFY, "ue", "ap")}

    def test_self_addressed(self):
        assert all(src != dst for _, src, dst, _ in traced_messages())

    def test_unknown_kind_and_role(self):
        for kind, src, dst, _ in traced_messages():
            assert kind in (KIND_PROBE, KIND_OFFER, KIND_NOTIFY)
            assert {src, dst} == {"ue", "ap"}

    def test_negative_payload(self):
        payloads = {}
        for kind, _, _, payload in traced_messages():
            payloads.setdefault(kind, set()).add(payload)
        assert payloads[KIND_PROBE] == {0} and payloads[KIND_NOTIFY] == {1}
        assert min(payloads[KIND_OFFER]) >= 1


class TestTraceLog:
    def test_counters_and_export(self):
        log = TraceLog()
        log.record_arrival(0, 0, [2], [3], [])
        log.record_arrival(1, 1, [], [], [2])
        assert kind_counts(log) == {KIND_PROBE: 1, KIND_OFFER: 1,
                                    KIND_NOTIFY: 1}
        lines = list(log.export_lines())
        assert lines[0] == f"0,{KIND_PROBE},ue0,ap2,0"
        assert lines[1] == f"0,{KIND_OFFER},ap2,ue0,3"
        assert lines[2] == f"1,{KIND_NOTIFY},ue1,ap2,1"
        # the audit of a real run counts its AP-to-AP messages, none, and
        # sums the payload column of its export
        real, assoc, powers, lp = all_serve_instance(num_aps=5, num_ues=4)
        _, log = run_protocol(real, assoc, SchemeConfig("dpb", dpb_s=3),
                              np.arange(4), powers, lp)
        audit = audit_overhead(log, assoc, 3)
        assert audit["ap_to_ap"] == 0
        assert audit["total_payload"] == sum(
            int(line.split(",")[4]) for line in log.export_lines())


class TestRoles:
    """The negotiation's two roles: the APs' offers and sums, stepped on
    floats, against the numpy step of a stack, and the UE's resolution
    against the reference selection."""

    @pytest.mark.parametrize("seed,over", [
        (3, {}), (11, dict(pilot_length=3)), (19, dict(wrap_around=True))])
    def test_one_drop_picks_are_a_stack_row(self, desk_drop, seed, over):
        # the APs' float sums and offers of one drop against the numpy
        # cache of a two-drop stack
        cfg, real, powers, assoc = desk_drop(seed=seed, **over)
        _, other, _, other_assoc = desk_drop(seed=seed + 1, **over)
        lp = cfg.pilot_length
        order = np.random.default_rng(seed).permutation(cfg.num_ues)
        scheme = SchemeConfig("dpb", seed=seed)
        one = assign_all(scheme, real, assoc, powers, lp, order)
        stack = assign_drops(scheme, [seed, seed + 1], [real, other],
                             [assoc, other_assoc], powers, lp, order)
        np.testing.assert_array_equal(stack[0], one.pilot_of)

    def test_protocol_workload_picks_are_stack_rows(self):
        # perfbench's protocol cells at its reference seed, seeded and
        # ordered as that workload does: M = T = 100, drops 0-2. Its own
        # check compares two runs of the float loop; here the negotiated
        # picks meet the numpy step
        cfg = NetworkConfig(num_aps=100, num_ues=100)
        powers, lp, seed = normalize_powers(cfg), cfg.pilot_length, 1
        for drop in range(3):
            real = generate_drop(cfg, derive_seed(seed, 0, drop))
            assoc = associate_aps(real, cfg.assoc_threshold)
            order = np.random.default_rng([seed, drop]).permutation(
                cfg.num_ues)
            scheme = SchemeConfig("dpb", seed=derive_seed(
                seed, 0, drop, 100 + SCHEME_CODE["dpb"]))
            negotiated, log = run_protocol(real, assoc, scheme, order, powers,
                                           lp)
            audit_overhead(log, assoc, scheme.dpb_s)
            np.testing.assert_array_equal(
                negotiated.pilot_of,
                stack_row(scheme, real, assoc, powers, lp, order))

    def test_ue_resolution_matches_the_oracle(self):
        # the UE's choice from its offers, against the reference selection:
        # all three offers share pilots 0 and 2, a tie each UE draws
        offers = [[2, 0, 5], [0, 2], [5, 2, 0]]
        picks = set()
        for ue in range(40):
            want = oracle_priority_select(offers, 3, ue=ue)
            assert resolve_offers(offers, 3, ue=ue) == want
            picks.add(want)
        assert picks == {0, 2}


class TestRunProtocol:
    def test_single_ue_counts(self):
        real, assoc, powers, lp = all_serve_instance(num_aps=5, num_ues=1)
        sch = SchemeConfig("dpb", dpb_s=3)
        pa, log = run_protocol(real, assoc, sch, [0], powers, lp)
        assert pa.pilot_of[0] >= 0
        assert kind_counts(log) == {KIND_PROBE: 3, KIND_OFFER: 3,
                                    KIND_NOTIFY: 5}
        assert len(log.rows) == 2 * 3 + 5

    def test_structurally_no_ap_to_ap(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=4)
        scheme = SchemeConfig("dpb", seed=1)
        pa, log = run_protocol(real, assoc, scheme, np.arange(cfg.num_ues),
                               powers, cfg.pilot_length)
        assert (pa.pilot_of >= 0).all()
        assert audit_overhead(log, assoc, scheme.dpb_s)["ap_to_ap"] == 0

    def test_matches_direct_implementation(self, desk_drop):
        for seed in range(5):
            cfg, real, powers, assoc = desk_drop(seed=40 + seed)
            sch = SchemeConfig("dpb", seed=seed)
            direct = stack_row(sch, real, assoc, powers, cfg.pilot_length)
            proto, _ = run_protocol(real, assoc, sch,
                                    np.arange(cfg.num_ues), powers,
                                    cfg.pilot_length)
            np.testing.assert_array_equal(direct, proto.pilot_of)

    def test_tied_zero_errors_take_lowest_pilot(self):
        # Lp = 4, delta = 0: an AP's unused pilots tie at exactly 0.0 error.
        # UEs 0-1 hear AP 0 alone and UEs 2-5 AP 1 alone (S' = 1, so no
        # intersection is tried), each taking its AP's lowest unused pilot;
        # UE 2, the weakest at AP 1, leaves pilot 0 its least contaminated.
        # UE 6 hears both: AP 0 offers {2, 3}, AP 1 offers {0}, the pair is
        # empty, and the fallback takes AP 0's lowest tied pilot.
        beta = np.full((2, 7), 1e-9)
        beta[1, 2] = 1e-10
        beta[0, 6] = 2e-9
        serves = np.zeros((2, 7), bool)
        serves[0, [0, 1, 6]] = serves[1, 2:] = True
        serving = tuple(np.flatnonzero(serves[:, t]) for t in range(7))
        real = NetworkRealization(np.zeros((2, 2)), np.zeros((7, 2)), beta, 0)
        assoc = map_from_sets(serving, serves)
        powers = PowerProfile(np.full(7, 1e9), np.ones(7))
        sch = SchemeConfig("dpb", dpb_delta=0.0, seed=1)
        order = np.arange(7)
        want = [0, 1, 0, 1, 2, 3, 2]
        direct = stack_row(sch, real, assoc, powers, 4)
        proto, _ = run_protocol(real, assoc, sch, order, powers, 4)
        oracle = oracle_protocol_log(real, assoc, sch, order, powers, 4)
        assert direct.tolist() == want
        assert proto.pilot_of.tolist() == want
        assert oracle["pilot_of"].tolist() == want

    def test_prefix_replay(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=15)
        sch = SchemeConfig("dpb", seed=3)
        order = np.random.default_rng(0).permutation(cfg.num_ues)
        full, _ = run_protocol(real, assoc, sch, order, powers,
                               cfg.pilot_length)
        k = 20
        part, _ = run_protocol(real, assoc, sch, order[:k], powers,
                               cfg.pilot_length)
        np.testing.assert_array_equal(part.pilot_of[order[:k]],
                                      full.pilot_of[order[:k]])
        assert np.all(part.pilot_of[order[k:]] == -1)

    # moved to test_seeding.py; this name keeps its id
    test_one_kernel_call_per_run = (
        test_seeding.TestProtocolWords.test_one_kernel_call_per_run)

    def test_rejects_other_schemes_and_bad_orders(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=4)
        with pytest.raises(ValueError):
            run_protocol(real, assoc, SchemeConfig("eem"),
                         np.arange(cfg.num_ues), powers, cfg.pilot_length)
        for bad in ([0, 0], [cfg.num_ues], [-1]):
            with pytest.raises(ValueError):
                run_protocol(real, assoc, SchemeConfig("dpb"), bad, powers,
                             cfg.pilot_length)

    def test_rejects_non_integer_orders(self, desk_drop):
        # a cast would negotiate UEs 0, 1 and 2 for the first
        cfg, real, powers, assoc = desk_drop(seed=4)
        for bad in ([0.9, 1.2, 2.5], [True, 2], np.array([3.0])):
            with pytest.raises(ValueError,
                               match="^arrival order must hold integers"):
                run_protocol(real, assoc, SchemeConfig("dpb"), bad, powers,
                             cfg.pilot_length)
        # no arrivals is still an arrival order, though numpy reads [] as
        # floats
        pa, log = run_protocol(real, assoc, SchemeConfig("dpb"), [], powers,
                               cfg.pilot_length)
        np.testing.assert_array_equal(pa.pilot_of, -1)
        assert log.rows == []
        assert audit_overhead(log, assoc, 3) == {
            "per_ue": {}, "total_messages": 0, "total_payload": 0,
            "ap_to_ap": 0}

    def test_s_one_offers_match_probes(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=4)
        pa, log = run_protocol(real, assoc, SchemeConfig("dpb", dpb_s=1),
                               np.arange(cfg.num_ues), powers,
                               cfg.pilot_length)
        counts = kind_counts(log)
        assert counts[KIND_PROBE] == counts[KIND_OFFER] == cfg.num_ues
        assert (pa.pilot_of >= 0).all()


# one AP per 5000 m^2
AP_DENSITY = 2e-4


def fixed_density_drop(num_aps, seed):
    """A wrap-around drop with T = 2M UEs on the side that keeps the AP
    density at AP_DENSITY."""
    cfg = NetworkConfig(num_aps=num_aps, num_ues=2 * num_aps,
                        area_side_m=(num_aps / AP_DENSITY) ** 0.5,
                        wrap_around=True)
    real = generate_drop(cfg, seed)
    return cfg, real, normalize_powers(cfg), associate_aps(
        real, cfg.assoc_threshold)


class TestFixedDensity:
    """The per-UE costs that the abstract's scalability claim rests on, at
    three network sizes of one AP density: they hold whatever |M_t| does,
    and |M_t| itself grows with the network (README reports it)."""

    @pytest.mark.parametrize("num_aps", [25, 100, 400])
    def test_per_ue_costs(self, num_aps):
        cfg, real, powers, assoc = fixed_density_drop(num_aps, num_aps)
        lp, sizes = cfg.pilot_length, assoc.sizes
        order = np.random.default_rng(num_aps).permutation(cfg.num_ues)
        scheme = SchemeConfig("dpb", seed=derive_seed(num_aps, 1))
        s_prime = np.minimum(scheme.dpb_s, sizes)[order]
        dpb = OpCounter()
        direct = assign_all(scheme, real, assoc, powers, lp, order, dpb)
        # tallies are kept in arrival order
        assert dpb.error_evals == (s_prime * lp).tolist()
        assert all(checks <= 2 ** s - s - 1
                   for checks, s in zip(dpb.intersection_checks, s_prime))
        eem = OpCounter()
        assign_all(SchemeConfig("eem"), real, assoc, powers, lp, order, eem)
        want = sizes[order] * lp
        want[:lp] = 0
        assert eem.contamination_reads == want.tolist()
        negotiated, log = run_protocol(real, assoc, scheme, order, powers, lp)
        report = audit_overhead(log, assoc, scheme.dpb_s)
        assert report["ap_to_ap"] == 0
        sent = np.bincount([row[2] for row in log.rows],
                           minlength=cfg.num_ues)
        np.testing.assert_array_equal(
            sent, 2 * np.minimum(scheme.dpb_s, sizes) + sizes)
        # the stack steps on numpy, one drop on Python floats
        _, other, _, other_assoc = fixed_density_drop(num_aps, num_aps + 1)
        stack = assign_drops(scheme, [scheme.seed, 5], [real, other],
                             [assoc, other_assoc], powers, lp, order)
        np.testing.assert_array_equal(negotiated.pilot_of, direct.pilot_of)
        np.testing.assert_array_equal(stack[0], direct.pilot_of)


@st.composite
def drawn_logs(draw):
    """(log, assoc, s): a log of drawn arrival records against drawn
    serving sets. A UE may arrive in several records, an arrival may be
    empty, and a record's probe and offer-size lists may differ in length;
    about half the UEs keep their budget, their messages split over one to
    three records."""
    num_aps, num_ues = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    s = draw(st.integers(1, 4))
    serving = [draw(st.permutations(range(num_aps)))[
        :draw(st.integers(1, num_aps))] for _ in range(num_ues)]
    serves = np.zeros((num_aps, num_ues), bool)
    for t, aps in enumerate(serving):
        serves[aps, t] = True
    aps = st.lists(st.integers(0, num_aps - 1), max_size=5)
    pilots = st.lists(st.integers(1, 15), max_size=5)
    records = []
    for t in range(num_ues):
        if draw(st.booleans()):
            probed = serving[t][:min(s, len(serving[t]))]
            sizes = draw(st.lists(st.integers(1, 15), min_size=len(probed),
                                  max_size=len(probed)))
            cuts = sorted(draw(st.lists(st.integers(0, len(serving[t])),
                                        max_size=2)))
            bounds = list(zip([0, *cuts], [*cuts, len(serving[t])]))
            records += [(t, probed[a:b], sizes[a:b], serving[t][a:b])
                        for a, b in bounds]
        else:
            records += [(t, draw(aps), draw(pilots), draw(aps))
                        for _ in range(draw(st.integers(0, 3)))]
    records += [(draw(st.integers(0, num_ues - 1)), [], [], [])
                for _ in range(draw(st.integers(0, 2)))]
    log = TraceLog()
    for idx, record in enumerate(draw(st.permutations(records))):
        log.record_arrival(idx, *record)
    return log, map_from_sets(serving, serves), s


class TestAuditOverhead:
    @given(drawn_logs())
    @settings(max_examples=300, deadline=None)
    def test_record_audit_matches_row_recount(self, drawn):
        # counting each UE's records against counting the expanded rows by
        # kind: the same report, or the same offender and message
        log, assoc, s = drawn
        want, offender = oracle_audit_rows(log, assoc, s)
        if offender is None:
            assert json.dumps(audit_overhead(log, assoc, s)) == json.dumps(want)
        else:
            with pytest.raises(BudgetViolation) as got:
                audit_overhead(log, assoc, s)
            ue, detail = offender
            assert (got.value.ue, str(got.value)) == (ue, f"UE {ue}: {detail}")

    def test_uniform_instance_totals(self):
        real, assoc, powers, lp = all_serve_instance(num_aps=5, num_ues=10)
        sch = SchemeConfig("dpb", dpb_s=3)
        pa, log = run_protocol(real, assoc, sch, np.arange(10), powers, lp)
        audit = audit_overhead(log, assoc, 3)
        assert audit["ap_to_ap"] == 0
        assert audit["total_messages"] == 10 * (2 * 3 + 5)
        assert len(audit["per_ue"]) == 10
        for stats in audit["per_ue"].values():
            assert stats == {"probes": 3, "offers": 3, "notifies": 5}
        # payload: one pilot per notify plus the offered set sizes
        offered = sum(int(line.split(",")[4]) for line in log.export_lines()
                      if line.split(",")[1] == KIND_OFFER)
        assert audit["total_payload"] == offered + 10 * 5

    def test_budget_respects_small_serving_sets(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=18)
        sch = SchemeConfig("dpb", dpb_s=3, seed=2)
        pa, log = run_protocol(real, assoc, sch, np.arange(cfg.num_ues),
                               powers, cfg.pilot_length)
        audit = audit_overhead(log, assoc, 3)
        for t, stats in audit["per_ue"].items():
            serving = len(assoc.serving_aps[t])
            assert stats["probes"] == min(3, serving)
            assert stats["notifies"] == serving

    def test_unknown_ue_raises(self):
        real, assoc, powers, lp = all_serve_instance(num_aps=2, num_ues=3)
        for ue in (-1, 3):
            log = TraceLog()
            log.record_arrival(0, ue, [0], [1], [0, 1])
            with pytest.raises(ValueError, match="association lacks"):
                audit_overhead(log, assoc, 3)

    def test_tampered_trace_raises(self, desk_drop):
        cfg, real, powers, assoc = desk_drop(seed=18)
        sch = SchemeConfig("dpb", seed=2)
        pa, log = run_protocol(real, assoc, sch, np.arange(cfg.num_ues),
                               powers, cfg.pilot_length)
        log.record_arrival(cfg.num_ues, 0, [1], [1], [])
        with pytest.raises(BudgetViolation) as err:
            audit_overhead(log, assoc, 3)
        assert err.value.ue == 0


def assert_matches_oracle(real, assoc, scheme, order, powers, lp):
    want = oracle_protocol_log(real, assoc, scheme, order, powers, lp)
    pa, log = run_protocol(real, assoc, scheme, order, powers, lp)
    np.testing.assert_array_equal(pa.pilot_of, want["pilot_of"])
    assert list(log.export_lines()) == want["lines"]
    assert kind_counts(log) == want["by_kind"]
    # json also pins plain Python ints and the ascending UE order
    audit = audit_overhead(log, assoc, scheme.dpb_s)
    assert json.dumps(audit) == json.dumps(want["audit"])


class TestOracleLog:
    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from(["drop", "all_serve", "one_ap"]),
           st.integers(1, 4), st.sampled_from([0.0, 0.1, 5.0]),
           st.floats(0.0, 1.0), st.one_of(st.none(), st.floats(-3.0, 9.0)))
    @settings(max_examples=200, deadline=None)
    def test_matches_message_per_send_oracle(self, seed, kind, s, delta,
                                             prefix, log_power):
        # log_power, when drawn, sets tx_power_mw = 10**log_power, far from
        # the default 100 mW either way
        r = np.random.default_rng(seed)
        tx_power_mw = 100.0 if log_power is None else 10.0 ** log_power
        if kind == "all_serve":
            real, assoc, powers, lp = all_serve_instance(
                int(r.integers(1, 6)), int(r.integers(1, 13)),
                int(r.integers(1, 6)), seed)
            scale = tx_power_mw / 100.0
            powers = PowerProfile(powers.p_pilot * scale,
                                  powers.p_uplink * scale)
        else:
            lp = int(r.integers(1, 6))
            cfg = NetworkConfig(
                num_aps=1 if kind == "one_ap" else int(r.integers(2, 12)),
                num_ues=int(r.integers(1, 25)), pilot_length=lp,
                antennas_per_ap=lp + 1,
                assoc_threshold=float(r.choice([0.9, 0.95, 1.0])),
                tx_power_mw=tx_power_mw)
            real = generate_drop(cfg, seed)
            assoc = associate_aps(real, cfg.assoc_threshold)
            powers = normalize_powers(cfg)
        order = r.permutation(real.num_ues)
        order = order[:int(round(prefix * order.size))]
        scheme = SchemeConfig("dpb", s, delta, seed)
        assert_matches_oracle(real, assoc, scheme, order, powers, lp)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 70),
           st.sampled_from([0.0, 0.1, 5.0, None]))
    @settings(max_examples=300, deadline=None)
    def test_offer_is_sorted_candidate_set(self, seed, lp, delta):
        r = np.random.default_rng(seed)
        if delta is None:
            delta = float(r.uniform(0.0, 2.0))
        own, weight = 10.0 ** r.uniform(-9, -6), 10.0 ** r.uniform(0, 3)
        # a few distinct sums, zero among them, so pilots tie often
        sums = r.choice(np.append(0.0, 10.0 ** r.uniform(-4, 1, size=3)),
                        size=lp)
        # the float errors that an AP of the DPB loop scores, pilot by pilot
        errors = [local_error_profile(weight * own, own, s)
                  for s in sums.tolist()]
        assert (offered_set(errors, delta)
                == set(oracle_offer(np.array(errors), delta).tolist()))


def test_cli_trace_matches_oracle(tmp_path, capsys):
    out = tmp_path / "audit"
    assert main(["protocol-audit", "--desk-scale", "--drops", "2",
                 "--out", str(out)]) == 0
    cfg = NetworkConfig(num_aps=30, num_ues=50)
    powers = normalize_powers(cfg)
    totals = {"messages": 0, "payload": 0, "ap_to_ap": 0}
    for di in range(2):
        real = generate_drop(cfg, derive_seed(1, 0, di))
        assoc = associate_aps(real, cfg.assoc_threshold)
        order = np.random.default_rng([1, di]).permutation(cfg.num_ues)
        scheme = SchemeConfig(
            "dpb", seed=derive_seed(1, 0, di, 100 + SCHEME_CODE["dpb"]))
        want = oracle_protocol_log(real, assoc, scheme, order, powers,
                                   cfg.pilot_length)
        if di == 0:
            lines = (out / "protocol_trace.txt").read_text(
                encoding="utf-8").splitlines()
            assert lines == want["lines"]
        totals["messages"] += want["audit"]["total_messages"]
        totals["payload"] += want["audit"]["total_payload"]
        totals["ap_to_ap"] += want["audit"]["ap_to_ap"]
    printed = capsys.readouterr().out.splitlines()
    assert f"total messages: {totals['messages']}" in printed
    assert f"total payload (pilot indices): {totals['payload']}" in printed
    assert f"ap-to-ap messages: {totals['ap_to_ap']}" in printed
