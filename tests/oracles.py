"""Independent literal transcriptions used as ground truth in tests.

Everything here is deliberately naive: scalar loops, no caching, no helpers
shared with the package, so the package is checked against a structurally
different evaluation path.
"""

import itertools
import math
from collections import Counter

import numpy as np

from pilotsim import (AssociationMap, NetworkRealization, PilotAssignment,
                      PowerProfile)
from pilotsim.protocol import KIND_NOTIFY, KIND_OFFER, KIND_PROBE


def oracle_gamma(beta, p_pilot, lp, pilot_of):
    """Quality factor, symbol by symbol."""
    num_aps, num_ues = beta.shape
    out = np.empty((num_aps, num_ues))
    for m in range(num_aps):
        for t in range(num_ues):
            denom = 1.0
            for k in range(num_ues):
                if pilot_of[k] == pilot_of[t]:
                    denom += p_pilot[k] * lp * beta[m, k]
            out[m, t] = p_pilot[t] * lp * beta[m, t] ** 2 / denom
    return out


def oracle_gamma_bound(beta, p_pilot, lp):
    """Contamination-free ceiling of gamma, w b^2 / (w b + 1), entry by entry."""
    out = np.empty(beta.shape)
    for m, t in np.ndindex(*beta.shape):
        own = p_pilot[t] * lp * beta[m, t]
        out[m, t] = own * beta[m, t] / (own + 1.0)
    return out


def oracle_error_global(t, pilot, beta, p_pilot, lp, pilot_of, serving):
    """Aggregate estimation error of taking `pilot`, summed over `serving`."""
    total = 0.0
    for m in serving:
        own = p_pilot[t] * lp * beta[m, t]
        denom = own + 1.0
        for k in range(len(pilot_of)):
            if k != t and pilot_of[k] == pilot:
                denom += p_pilot[k] * lp * beta[m, k]
        total += own * beta[m, t] / (own + 1.0) - own * beta[m, t] / denom
    return total


def oracle_error_local(t, m, beta, p_pilot, lp, copilots):
    """Single-AP estimation error with an explicit local co-pilot set."""
    own = p_pilot[t] * lp * beta[m, t]
    denom = own + 1.0
    for k in copilots:
        if k != t:
            denom += p_pilot[k] * lp * beta[m, k]
    return own * beta[m, t] / (own + 1.0) - own * beta[m, t] / denom


def oracle_eem_choice(t, beta, p_pilot, lp, pilot_of, serving):
    """Strict-less-than greedy scan over every pilot, no caching."""
    best, best_err = None, math.inf
    for i in range(lp):
        err = oracle_error_global(t, i, beta, p_pilot, lp, pilot_of, serving)
        if err < best_err:
            best, best_err = i, err
    return best


def oracle_scalable_choice(t, beta, powers, lp, partial, order=None):
    """Least-loaded pilot as seen from the master (strongest) AP of UE t,
    rescanning every UE's pilot on every call.

    Load of pilot i sums beta[m*, k] * (p_k * Lp) over its current holders k
    at the master AP m*, one term at a time in arrival `order` (default: UE
    index order). Exact ties then round as the package's running sums do,
    and go to the lowest pilot index.
    """
    beta = np.asarray(beta, dtype=float)
    pilots = np.asarray(getattr(partial, "pilot_of", partial), dtype=int)
    order = range(pilots.size) if order is None else order
    m_star = int(np.argmax(beta[:, t]))
    loads = [0.0] * lp
    for k in order:
        k = int(k)
        if k != t and pilots[k] >= 0:
            loads[pilots[k]] += beta[m_star, k] * (powers.p_pilot[k] * lp)
    return int(np.argmin(loads))


def oracle_offer(errors, delta):
    """Candidate set (errors within (1 + delta) of the least), reordered
    best-first by a stable argsort over its members."""
    members = np.flatnonzero(errors <= (1.0 + delta) * errors.min())
    return members[np.argsort(errors[members], kind="stable")]


def oracle_priority_select(offers, seed=0, ue=0, counter=None):
    """Priority intersection over sorted index arrays with np.intersect1d,
    drawing from a fresh seeded generator whatever the common set's size,
    and falling back to the first pilot of the strongest AP's offer."""
    sets = [np.sort(np.asarray(o, dtype=int)) for o in offers]
    s = len(sets)
    common = None
    for level in range(s, 1, -1):
        for group in itertools.combinations(range(s), level):
            if counter is not None:
                counter.add_checks(1)
            cand = sets[group[0]]
            for j in group[1:]:
                cand = np.intersect1d(cand, sets[j], assume_unique=True)
                if cand.size == 0:
                    break
            if cand.size:
                common = cand
                break
        if common is not None:
            break
    if common is None:
        return int(offers[0][0])
    rng = np.random.default_rng([seed, ue])
    return int(common[rng.integers(common.size)])


def oracle_sinr(t, a_full, beta, gamma, p_uplink, pilot_of, strong_flag,
                ls_count, antennas):
    """Closed-form SINR, every sum written out over all M APs and T UEs."""
    num_aps, num_ues = beta.shape
    sig = 0.0
    for m in range(num_aps):
        d = 1.0 if strong_flag[m, t] else 0.0
        sig += a_full[m] * math.sqrt((antennas - d * ls_count[m]) * gamma[m, t])
    numerator = p_uplink[t] * sig ** 2
    coherent = 0.0
    for k in range(num_ues):
        if k != t and pilot_of[k] == pilot_of[t]:
            s = 0.0
            for m in range(num_aps):
                d = 1.0 if strong_flag[m, t] else 0.0
                s += a_full[m] * math.sqrt((antennas - d * ls_count[m]) * gamma[m, k])
            coherent += p_uplink[k] * s ** 2
    noncoherent = 0.0
    for k in range(num_ues):
        for m in range(num_aps):
            dt = 1.0 if strong_flag[m, t] else 0.0
            dk = 1.0 if strong_flag[m, k] else 0.0
            noncoherent += (p_uplink[k] * a_full[m] ** 2
                            * (beta[m, k] - dt * dk * gamma[m, k]))
    noise = sum(a_full[m] ** 2 for m in range(num_aps))
    return numerator / (coherent + noncoherent + noise)


def oracle_lsfd(t, beta, gamma, powers, assoc, strong_flag, ls_count,
                assignment, antennas):
    """Optimal LSFD weights Q_t^{-1} b_t over t's serving APs, unit norm.

    b_mt = sqrt((A - delta_mt L_m) gamma_mt); Q_t adds p_k c_k c_k^T for each
    co-pilot k, c_k being b_t with gamma_mk in place of gamma_mt, to the
    diagonal of non-coherent interference plus noise. Every entry is built
    in scalar loops. `strong_flag` is the drop's (M, T) strong flags and
    L_m = ls_count[m] its strong-pilot count under `assignment`.
    """
    serving = [int(m) for m in assoc.serving_aps[t]]
    p = powers.p_uplink
    num_ues = beta.shape[1]
    gain = [antennas - (ls_count[m] if strong_flag[m, t] else 0)
            for m in serving]
    n = len(serving)
    b = np.array([math.sqrt(gain[i] * gamma[m, t])
                  for i, m in enumerate(serving)])
    q = np.zeros((n, n))
    for i, m in enumerate(serving):
        q[i, i] = 1.0
        for k in range(num_ues):
            q[i, i] += p[k] * beta[m, k]
            if strong_flag[m, t] and strong_flag[m, k]:
                q[i, i] -= p[k] * gamma[m, k]
    for k in range(num_ues):
        if k != t and assignment.pilot_of[k] == assignment.pilot_of[t]:
            c = [math.sqrt(gain[i] * gamma[m, k])
                 for i, m in enumerate(serving)]
            for i in range(n):
                for j in range(n):
                    q[i, j] += p[k] * c[i] * c[j]
    a = np.linalg.solve(q, b)
    return a / np.linalg.norm(a)


def oracle_pairwise_distances(ap_pos, ue_pos, wrap_side):
    """The (M, T) AP-UE distances from one (M, T, 2) difference, folded over
    the 3x3 torus images if `wrap_side` is given, summed over its last axis."""
    diff = ap_pos[:, None, :] - ue_pos[None, :, :]
    if wrap_side is not None:
        diff = np.abs(diff)
        diff = np.minimum(diff, wrap_side - diff)
    return np.sqrt(np.sum(diff * diff, axis=2))


def oracle_lsfc(distance_m, shadow_db, p):
    """The LSFCs of config `p` as three np.where branches, each evaluated
    at every link, with the shadowing masked to the far branch."""
    d0, d1 = p.d0_m / 1000.0, p.d1_m / 1000.0
    mid_off = 10.0 * (p.exp_far - p.exp_mid) * math.log10(d1)
    near_off = mid_off + 10.0 * (p.exp_mid - p.exp_near) * math.log10(d0)
    d_km = np.maximum(np.asarray(distance_m, dtype=float), 1.0) / 1000.0
    log_d = np.log10(d_km)
    loss = np.where(
        d_km > d1,
        p.ref_loss_db + 10.0 * p.exp_far * log_d,
        np.where(
            d_km > d0,
            p.ref_loss_db + mid_off + 10.0 * p.exp_mid * log_d,
            p.ref_loss_db + near_off + 10.0 * p.exp_near * log_d,
        ),
    )
    shadowed = np.where(d_km > d1, shadow_db, 0.0)
    return 10.0 ** ((-loss + shadowed) / 10.0)


def brute_force_prefix(column, threshold):
    """Smallest descending prefix reaching threshold * total, linear scan."""
    order = np.argsort(-column, kind="stable")
    partial = np.cumsum(column[order])
    need = threshold * partial[-1]
    for k in range(len(column)):
        if partial[k] >= need:
            return set(int(i) for i in order[:k + 1])
    return set(int(i) for i in order)


def oracle_strong_groups(beta, served_ues, pilot_of, strong_threshold,
                         antennas):
    """Per-AP strong grouping, one AP at a time in index order.

    Returns (strong sets, M x T strong flags, distinct strong pilots per AP)
    and raises the first AP's error exactly as the package does.
    """
    num_aps, num_ues = beta.shape
    strong_flag = np.zeros((num_aps, num_ues), dtype=bool)
    strong_sets = []
    pilot_count = np.zeros(num_aps, dtype=int)
    for m in range(num_aps):
        members = np.asarray(served_ues[m], dtype=int)
        if members.size == 0:
            strong_sets.append(members.copy())
            continue
        if np.any(pilot_of[members] < 0):
            raise ValueError(f"AP {m} serves unassigned UEs; assign pilots first")
        local = brute_force_prefix(beta[m, members], strong_threshold)
        chosen = np.array(sorted(int(members[i]) for i in local), dtype=int)
        strong_sets.append(chosen)
        strong_flag[m, chosen] = True
        pilot_count[m] = len({int(pilot_of[k]) for k in chosen})
        if pilot_count[m] >= antennas:
            raise ValueError(
                f"AP {m} would zero-force {pilot_count[m]} pilots with only "
                f"{antennas} antennas")
    return tuple(strong_sets), strong_flag, pilot_count


def oracle_protocol_log(real, assoc, scheme, arrival_order, powers, lp):
    """The DPB negotiation with one (idx, kind, src, dst, payload) tuple per
    send.

    Each AP keeps its own per-pilot sums and offers `oracle_offer` of its
    errors; the UE resolves the offers with `oracle_priority_select`. The
    audit counts messages by parsing node ids back out of the tuples.
    Returns a dict with `pilot_of`, `lines`, `by_kind` and `audit`.
    """
    w = powers.p_pilot * lp
    sums = [np.zeros(lp) for _ in range(real.num_aps)]
    records = []
    pilot_of = np.full(real.num_ues, -1, dtype=int)
    for idx, t in enumerate(arrival_order):
        t = int(t)
        serving = assoc.serving_aps[t]
        offers = []
        for m in serving[:min(scheme.dpb_s, serving.size)]:
            m = int(m)
            records.append((idx, KIND_PROBE, f"ue{t}", f"ap{m}", 0))
            weighted_own = float(w[t]) * float(real.beta[m, t])
            num = weighted_own * float(real.beta[m, t])
            errors = (num / (weighted_own + 1.0)
                      - num / (weighted_own + sums[m] + 1.0))
            offer = oracle_offer(errors, scheme.dpb_delta)
            records.append((idx, KIND_OFFER, f"ap{m}", f"ue{t}", len(offer)))
            offers.append(offer.tolist())
        pilot = oracle_priority_select(offers, scheme.seed, ue=t)
        for m in serving:
            m = int(m)
            records.append((idx, KIND_NOTIFY, f"ue{t}", f"ap{m}", 1))
            sums[m][pilot] += float(w[t]) * float(real.beta[m, t])
        pilot_of[t] = pilot

    probes, offered, notifies = Counter(), Counter(), Counter()
    for _, kind, src, dst, _ in records:
        if kind == KIND_PROBE:
            probes[int(src[2:])] += 1
        elif kind == KIND_OFFER:
            offered[int(dst[2:])] += 1
        else:
            notifies[int(src[2:])] += 1
    per_ue = {}
    for t in sorted(set(probes) | set(offered) | set(notifies)):
        size = len(assoc.serving_aps[t])
        got = (probes[t], offered[t], notifies[t])
        assert got == (min(scheme.dpb_s, size),) * 2 + (size,)
        per_ue[t] = {"probes": got[0], "offers": got[1], "notifies": got[2]}
    audit = {
        "per_ue": per_ue,
        "total_messages": len(records),
        "total_payload": sum(rec[4] for rec in records),
        "ap_to_ap": sum(1 for rec in records
                        if rec[2].startswith("ap") and rec[3].startswith("ap")),
    }
    return {
        "pilot_of": pilot_of,
        "lines": [",".join(map(str, rec)) for rec in records],
        "by_kind": Counter(rec[1] for rec in records),
        "audit": audit,
    }


def oracle_audit_rows(log, assoc, s):
    """`protocol.audit_overhead` counted message by message, as
    (report, offender): bincounts of the UE column of `log.rows` per kind,
    each row's kind read from its exported line, checked against the
    budget S'_t probes, S'_t offers and |M_t| notifies, S'_t = min(s,
    |M_t|), of every UE with a message. offender is None, or the lowest
    offending UE and the detail of its BudgetViolation, and then report is
    None. AP-to-AP messages are counted from the exported lines' ends."""
    rows = log.rows
    lines = [line.split(",") for line in log.export_lines()]
    assert len(lines) == len(rows)
    kind = np.array([line[1] for line in lines])
    ue = np.array([row[2] for row in rows], dtype=np.int64)
    size = int(ue.max()) + 1 if ue.size else 0
    got = np.stack([np.bincount(ue[kind == k], minlength=size)
                    for k in (KIND_PROBE, KIND_OFFER, KIND_NOTIFY)], axis=1)
    ues = np.flatnonzero(got.any(axis=1))
    got = got[ues]
    serving = assoc.sizes[ues]
    s_prime = np.minimum(s, serving)
    want = np.stack([s_prime, s_prime, serving], axis=1)
    bad = np.flatnonzero((got != want).any(axis=1))
    if bad.size:
        i = bad[0]
        return None, (int(ues[i]),
                      f"expected {tuple(want[i].tolist())} (probes, offers, "
                      f"notifies), traced {tuple(got[i].tolist())}")
    return {
        "per_ue": {t: {"probes": p, "offers": o, "notifies": n}
                   for t, (p, o, n) in zip(ues.tolist(), got.tolist())},
        "total_messages": len(rows),
        "total_payload": sum(row[4] for row in rows),
        "ap_to_ap": sum(line[2].startswith("ap") and line[3].startswith("ap")
                        for line in lines),
    }, None


def micro_instance(rng):
    """Tiny random system (M <= 3, T <= 4, Lp <= 2) with full structures:
    its association, its strong threshold, and its assignment's gammas,
    strong flags and counts, from `oracle_gamma` and
    `oracle_strong_groups`."""
    num_aps = int(rng.integers(1, 4))
    num_ues = int(rng.integers(1, 5))
    lp = int(rng.integers(1, 3))
    antennas = lp + int(rng.integers(1, 6))
    beta = 10.0 ** rng.uniform(-12.0, -6.0, size=(num_aps, num_ues))
    real = NetworkRealization(rng.uniform(0.0, 1000.0, (num_aps, 2)),
                              rng.uniform(0.0, 1000.0, (num_ues, 2)), beta, 0)
    powers = PowerProfile(10.0 ** rng.uniform(0.0, 3.0, num_ues),
                          10.0 ** rng.uniform(0.0, 3.0, num_ues))
    assignment = PilotAssignment(rng.integers(0, lp, size=num_ues), lp)
    serves = rng.random((num_aps, num_ues)) < 0.7
    for t in range(num_ues):
        if not serves[:, t].any():
            serves[int(rng.integers(num_aps)), t] = True
    serving = []
    for t in range(num_ues):
        aps = np.flatnonzero(serves[:, t])
        serving.append(aps[np.argsort(-beta[aps, t], kind="stable")])
    assoc = AssociationMap(np.concatenate(serving), [a.size for a in serving],
                           serves)
    threshold = float(rng.uniform(0.3, 1.0))
    _, flags, counts = oracle_strong_groups(
        beta, [np.flatnonzero(row) for row in serves], assignment.pilot_of,
        threshold, antennas)
    return {"real": real, "powers": powers, "assignment": assignment,
            "assoc": assoc, "threshold": threshold,
            "gamma": oracle_gamma(beta, powers.p_pilot, lp,
                                  assignment.pilot_of),
            "flags": flags, "counts": counts, "lp": lp, "antennas": antennas}


def random_unit_vector(rng, n):
    v = rng.normal(size=n)
    norm = np.linalg.norm(v)
    while norm == 0.0:
        v = rng.normal(size=n)
        norm = np.linalg.norm(v)
    return v / norm
