"""Distributed pilot negotiation as explicit UE/AP message passing.

This reruns the distributed scheme with every piece of information that
crosses the air logged as a message, so tests can audit the overhead claims
directly: no AP ever talks to another AP (or to any central node, which
simply does not exist here), and each arriving UE costs exactly S' probes,
S' offers, and |M_t| notifications.

AP agents are constructed with nothing but their own LSFC row restricted to
the UEs they serve; locality is enforced by what the handlers can reach, not
by convention. The error arithmetic (`local_error_profile`) is shared with
the direct implementation and an offer holds exactly the pilots of
`candidate_set_from_profile`, so the negotiated assignment is bit-identical
to it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .assignment import (CandidateSets, SchemeConfig, priority_select,
                         rank_from_order)
from .estimation import PilotAssignment, local_error_profile

__all__ = [
    "KIND_PROBE",
    "KIND_OFFER",
    "KIND_NOTIFY",
    "Message",
    "TraceLog",
    "AccessPointAgent",
    "UserAgent",
    "BudgetViolation",
    "run_protocol",
    "audit_overhead",
]

KIND_PROBE = "PilotProbe"
KIND_OFFER = "CandidateOffer"
KIND_NOTIFY = "PilotNotify"

# who may send what to whom; anything else (notably ap->ap) cannot exist
_DIRECTIONS = {
    KIND_PROBE: ("ue", "ap"),
    KIND_OFFER: ("ap", "ue"),
    KIND_NOTIFY: ("ue", "ap"),
}

# a trace row is (arrival_index, kind code, ue, ap, payload_size); the code
# is the kind's position in _KINDS and fixes which end sends
_KINDS = tuple(_DIRECTIONS)
_PROBE, _OFFER, _NOTIFY = (_KINDS.index(k)
                           for k in (KIND_PROBE, KIND_OFFER, KIND_NOTIFY))
_AP_TO_AP = frozenset(code for code, kind in enumerate(_KINDS)
                      if _DIRECTIONS[kind] == ("ap", "ap"))


def node_role(node: str) -> str:
    if node.startswith("ap"):
        return "ap"
    if node.startswith("ue"):
        return "ue"
    raise ValueError(f"unknown node id {node!r}")


def _node_index(node: str, role: str) -> int:
    index = node[len(role):]
    if not index.isdecimal() or node != f"{role}{int(index)}":
        raise ValueError(f"node id {node!r} is not {role}<index>")
    return int(index)


@dataclass(frozen=True)
class Message:
    """One logged transmission; payload counts pilot indices carried."""

    kind: str
    src: str
    dst: str
    payload_size: int

    def __post_init__(self):
        if self.kind not in _DIRECTIONS:
            raise ValueError(f"unknown message kind {self.kind!r}")
        if self.src == self.dst:
            raise ValueError("self-addressed message")
        want_src, want_dst = _DIRECTIONS[self.kind]
        if node_role(self.src) != want_src or node_role(self.dst) != want_dst:
            raise ValueError(f"{self.kind} must go {want_src}->{want_dst}, "
                             f"got {self.src}->{self.dst}")
        if self.payload_size < 0:
            raise ValueError("negative payload")


def _row_message(row) -> tuple:
    """(arrival_index, Message) for one trace row."""
    idx, code, ue, ap, payload = row
    kind = _KINDS[code]
    ids = {"ue": f"ue{ue}", "ap": f"ap{ap}"}
    src, dst = _DIRECTIONS[kind]
    return idx, Message(kind, ids[src], ids[dst], payload)


class _RecordView(Sequence):
    """Read-only (arrival_index, Message) pairs, built from rows on access."""

    def __init__(self, rows: list):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [_row_message(row) for row in self._rows[i]]
        return _row_message(self._rows[i])


class TraceLog:
    """Ordered message log: one integer row per message, kind counters.

    A row names one UE and one AP; its kind fixes the direction, so the log
    cannot hold an AP-to-AP or UE-to-UE message. `by_kind` is kept as
    messages arrive; `by_edge` and `records` are derived from the rows.
    """

    def __init__(self):
        self._rows = []
        self.by_kind = Counter()

    def record(self, arrival_index: int, msg: Message):
        ids = dict(zip(_DIRECTIONS[msg.kind], (msg.src, msg.dst)))
        self._rows.append((int(arrival_index), _KINDS.index(msg.kind),
                           _node_index(ids["ue"], "ue"),
                           _node_index(ids["ap"], "ap"),
                           int(msg.payload_size)))
        self.by_kind[msg.kind] += 1

    def _record_arrival(self, arrival_index: int, ue: int, probed: list,
                        offers: list, serving: list):
        """One arrival: a probe and its offer per probed AP, then a notify
        per serving AP."""
        rows = self._rows
        for ap, offer in zip(probed, offers):
            rows.append((arrival_index, _PROBE, ue, ap, 0))
            rows.append((arrival_index, _OFFER, ue, ap, len(offer)))
        rows.extend([(arrival_index, _NOTIFY, ue, ap, 1) for ap in serving])
        self.by_kind[KIND_PROBE] += len(probed)
        self.by_kind[KIND_OFFER] += len(offers)
        self.by_kind[KIND_NOTIFY] += len(serving)

    @property
    def records(self) -> Sequence:
        return _RecordView(self._rows)

    @property
    def by_edge(self) -> Counter:
        return Counter((m.src, m.dst) for _, m in self.records)

    def verify_counters(self) -> bool:
        return Counter(_KINDS[row[1]] for row in self._rows) == self.by_kind

    def ap_to_ap_count(self) -> int:
        return sum(1 for row in self._rows if row[1] in _AP_TO_AP)

    def total_payload(self) -> int:
        return sum(row[4] for row in self._rows)

    def export_lines(self):
        """Line-delimited trace: arrival_index,kind,src,dst,payload_size."""
        for idx, m in self.records:
            yield f"{idx},{m.kind},{m.src},{m.dst},{m.payload_size}"


class AccessPointAgent:
    """AP-side handler; owns only what AP m can learn over the air.

    State is the LSFC (and pilot power) of each served UE, known from
    association, plus per-pilot contamination sums accumulated from
    notifications, in arrival order.
    """

    def __init__(self, ap_id: int, served_beta: dict, served_weight: dict,
                 num_pilots: int, delta: float):
        self.ap_id = int(ap_id)
        self._beta = dict(served_beta)
        self._weight = dict(served_weight)
        self.pilot_sums = np.zeros(num_pilots)
        self.delta = float(delta)

    def candidate_offer(self, ue: int) -> tuple:
        """Pilots within (1 + delta) of the least local error, best-first.

        Ordering by ascending local error (ties by pilot index) is what lets
        the UE apply the lowest-error fallback without extra payload. The
        members sort first, so the offer is a prefix of one stable argsort.
        """
        own = self._beta[ue]
        errors = local_error_profile(self._weight[ue] * own, own, self.pilot_sums)
        ranked = errors.argsort(kind="stable")
        within = errors <= (1.0 + self.delta) * errors[ranked[0]]
        return tuple(ranked[:np.count_nonzero(within)].tolist())

    def learn_assignment(self, ue: int, pilot: int):
        self.pilot_sums[pilot] += self._weight[ue] * self._beta[ue]


class UserAgent:
    """UE-side chooser working purely from the received offers."""

    def __init__(self, ue_id: int, num_pilots: int, tie_rule: str, seed: int):
        self.ue_id = int(ue_id)
        self.num_pilots = int(num_pilots)
        self.tie_rule = tie_rule
        self.seed = int(seed)

    def choose(self, offers) -> int:
        # the top AP's offer order stands in for its error profile: rank
        # positions preserve exactly the comparisons selection performs;
        # selection reads the sets as bitmasks, so their order is free
        rank = rank_from_order(offers[0], self.num_pilots)
        cands = CandidateSets(tuple(offers), rank)
        return priority_select(cands, self.tie_rule, self.seed, ue=self.ue_id)


def run_protocol(real, assoc, scheme: SchemeConfig, arrival_order, powers,
                 lp: int):
    """Negotiate pilots for the arriving UEs over logged messages.

    `arrival_order` may be any duplicate-free subset of UEs; UEs that never
    arrive stay unassigned (-1), so replaying a prefix of an arrival sequence
    reproduces exactly the prefix of the full run. Deterministic given
    (scheme.seed, arrival_order); matches the direct implementation exactly.
    """
    if scheme.scheme_id != "dpb":
        raise ValueError("the message protocol enacts the distributed scheme only")
    num_ues = real.num_ues
    order = np.asarray(arrival_order, dtype=int)
    if order.size != np.unique(order).size:
        raise ValueError("arrival order must not repeat UEs")
    if order.size and (order.min() < 0 or order.max() >= num_ues):
        raise ValueError("arrival order names unknown UEs")
    w = powers.p_pilot * lp
    agents = []
    for m in range(real.num_aps):
        served = assoc.served_ues[m]
        ues = served.tolist()
        agents.append(AccessPointAgent(
            m, dict(zip(ues, real.beta[m, served].tolist())),
            dict(zip(ues, w[served].tolist())), lp, scheme.dpb_delta))
    log = TraceLog()
    pilot_of = np.full(num_ues, -1, dtype=int)
    for arrival_index, t in enumerate(order.tolist()):
        serving = assoc.serving_aps[t].tolist()
        probed = serving[:scheme.dpb_s]
        offers = [agents[m].candidate_offer(t) for m in probed]
        pilot = UserAgent(t, lp, scheme.tie_rule, scheme.seed).choose(offers)
        for m in serving:
            agents[m].learn_assignment(t, pilot)
        log._record_arrival(arrival_index, t, probed, offers, serving)
        pilot_of[t] = pilot
    return PilotAssignment(pilot_of, lp), log


class BudgetViolation(RuntimeError):
    def __init__(self, ue: int, detail: str):
        self.ue = ue
        super().__init__(f"UE {ue}: {detail}")


def audit_overhead(log: TraceLog, assoc, s: int) -> dict:
    """Check every UE's message budget against the trace.

    Budget per UE: S'_t probes, S'_t offers, |M_t| notifies, with
    S'_t = min(S, |M_t|). Raises BudgetViolation naming the first offender.
    """
    rows = log._rows
    kind = np.fromiter((row[1] for row in rows), dtype=np.int64, count=len(rows))
    ue = np.fromiter((row[2] for row in rows), dtype=np.int64, count=len(rows))
    size = int(ue.max()) + 1 if ue.size else 0
    # one column per kind: probes, offers, notifies
    got = np.stack([np.bincount(ue[kind == code], minlength=size)
                    for code in (_PROBE, _OFFER, _NOTIFY)], axis=1)
    ues = np.flatnonzero(got.any(axis=1))
    got = got[ues]
    serving = np.array([len(assoc.serving_aps[t]) for t in ues.tolist()],
                       dtype=np.int64)
    s_prime = np.minimum(s, serving)
    want = np.stack([s_prime, s_prime, serving], axis=1)
    bad = np.flatnonzero((got != want).any(axis=1))
    if bad.size:
        i = bad[0]
        raise BudgetViolation(
            int(ues[i]), f"expected {tuple(want[i].tolist())} "
                         f"(probes, offers, notifies), traced {tuple(got[i].tolist())}")
    per_ue = {t: {"probes": p, "offers": o, "notifies": n}
              for t, (p, o, n) in zip(ues.tolist(), got.tolist())}
    return {
        "per_ue": per_ue,
        "total_messages": len(rows),
        "total_payload": log.total_payload(),
        "ap_to_ap": log.ap_to_ap_count(),
    }
