"""Distributed pilot negotiation as explicit UE/AP message passing.

This reruns the distributed scheme with every piece of information that
crosses the air logged as a message, so tests can audit the overhead claims
directly: no AP ever talks to another AP (or to any central node, which
simply does not exist here), and each arriving UE costs exactly S' probes,
S' offers, and |M_t| notifications. The log keeps one record per arrival:
the UE, the APs it probed with the sizes of their offers, and the APs it
notified. Each of those is a message between the UE and one AP whose kind
fixes which end sends, so an AP-to-AP message cannot be written down at
all; the per-message rows and the exported trace are expanded from the
records only when read.

The negotiation is the one-drop float DPB loop, `assignment.dpb_arrivals`:
each probed AP scores the pilots from its own sums over the UEs it serves,
and the UE resolves the offers by AP priority and notifies its serving
APs, which add its pilot to their sums. The log's records are the loop's
yields: each UE's offers, and the APs the loop added its pick to, of which
the first S' are the ones it probed; it reads no serving set itself. So
the negotiated assignment is the one-drop `assign_all`'s by construction;
tests check it against the numpy step of a stack and against an
independent message-per-send oracle.
"""

from __future__ import annotations

import numpy as np

from .assignment import SchemeConfig, dpb_arrivals
from .estimation import PilotAssignment
from .network import (require_associations, require_integers,
                      require_powers)

__all__ = [
    "KIND_PROBE",
    "KIND_OFFER",
    "KIND_NOTIFY",
    "TraceLog",
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

# a trace row's kind code is the kind's position in _KINDS
_KINDS = tuple(_DIRECTIONS)
_PROBE, _OFFER, _NOTIFY = (_KINDS.index(k)
                           for k in (KIND_PROBE, KIND_OFFER, KIND_NOTIFY))


class TraceLog:
    """Ordered message log: one record per arrival.

    A record is (arrival_index, ue, probed, offer_sizes, serving), the
    lists as `record_arrival` was given them, cut to one offer per probe.
    `rows` expands them to one integer row per message, (arrival_index,
    kind code, ue, ap, payload_size), payload counting the pilot indices
    carried. A row names one UE and one AP and its kind fixes the
    direction, so the log cannot hold an AP-to-AP or UE-to-UE message.
    """

    def __init__(self):
        self.arrivals = []

    def record_arrival(self, arrival_index: int, ue: int, probed: list,
                       offer_sizes: list, serving: list):
        """One arrival: a probe and its offer, of `offer_sizes[i]` pilots,
        per probed AP, then a notify per serving AP. A probe without an
        offer size, or a size without a probe, is dropped."""
        if len(probed) != len(offer_sizes):
            n = min(len(probed), len(offer_sizes))
            probed, offer_sizes = probed[:n], offer_sizes[:n]
        self.arrivals.append((arrival_index, ue, probed, offer_sizes,
                              serving))

    @property
    def rows(self) -> list:
        """The messages in send order, one integer row each."""
        rows = []
        for idx, ue, probed, sizes, serving in self.arrivals:
            for ap, size in zip(probed, sizes):
                rows.append((idx, _PROBE, ue, ap, 0))
                rows.append((idx, _OFFER, ue, ap, size))
            rows.extend([(idx, _NOTIFY, ue, ap, 1) for ap in serving])
        return rows

    def export_lines(self):
        """Line-delimited trace: arrival_index,kind,src,dst,payload_size."""
        for idx, code, ue, ap, payload in self.rows:
            kind = _KINDS[code]
            ids = {"ue": f"ue{ue}", "ap": f"ap{ap}"}
            src, dst = (ids[role] for role in _DIRECTIONS[kind])
            yield f"{idx},{kind},{src},{dst},{payload}"


def run_protocol(real, assoc, scheme: SchemeConfig, arrival_order, powers,
                 lp: int):
    """Negotiate pilots for the arriving UEs over logged messages.

    `arrival_order` may be any duplicate-free subset of UEs; UEs that never
    arrive stay unassigned (-1), so replaying a prefix of an arrival sequence
    reproduces exactly the prefix of the full run. Deterministic given
    (scheme.seed, arrival_order): the picks of `dpb_arrivals`, whose
    yields the log records.
    """
    if scheme.scheme_id != "dpb":
        raise ValueError("the message protocol enacts the distributed scheme only")
    num_ues = real.num_ues
    require_associations([real], [assoc])
    require_powers(powers, num_ues)
    order = require_integers("arrival order", arrival_order)
    if order.size != np.unique(order).size:
        raise ValueError("arrival order must not repeat UEs")
    if order.size and (order.min() < 0 or order.max() >= num_ues):
        raise ValueError("arrival order names unknown UEs")
    log = TraceLog()
    pilot_of = np.full(num_ues, -1, dtype=int)
    arrivals = dpb_arrivals(scheme, scheme.seed, real, assoc, powers, lp,
                            order)
    for arrival_index, (t, masks, pilot, notified) in enumerate(arrivals):
        # the loop probed the first S' of the APs it added the pick to
        log.record_arrival(arrival_index, t, notified[:len(masks)],
                           [mask.bit_count() for mask in masks], notified)
        pilot_of[t] = pilot
    return PilotAssignment(pilot_of, lp), log


class BudgetViolation(RuntimeError):
    def __init__(self, ue: int, detail: str):
        self.ue = ue
        super().__init__(f"UE {ue}: {detail}")


def audit_overhead(log: TraceLog, assoc, s: int) -> dict:
    """Check every UE's message budget against the trace.

    Budget per UE: S'_t probes, S'_t offers, |M_t| notifies, with
    S'_t = min(S, |M_t|), counted over all of the UE's arrival records.
    Raises BudgetViolation naming the offender of lowest index, and
    ValueError for a record of a UE that `assoc` does not hold. A record
    holds only UE-AP messages, so `ap_to_ap` is 0 whatever the log.
    """
    # per UE: (probes, notifies); an offer answers each probe
    got = {}
    messages = payload = 0
    for _, ue, probed, sizes, serving in log.arrivals:
        messages += 2 * len(probed) + len(serving)
        payload += sum(sizes) + len(serving)
        probes, notifies = got.get(ue, (0, 0))
        got[ue] = (probes + len(probed), notifies + len(serving))
    ues = sorted(got)
    if ues and not 0 <= ues[0] <= ues[-1] < assoc.sizes.size:
        raise ValueError("the trace names UEs that the association lacks")
    per_ue = {}
    for ue in ues:
        probes, notifies = got[ue]
        if not (probes or notifies):
            continue
        serving = int(assoc.sizes[ue])
        s_prime = min(s, serving)
        if (probes, notifies) != (s_prime, serving):
            raise BudgetViolation(
                int(ue), f"expected {(s_prime, s_prime, serving)} "
                         f"(probes, offers, notifies), "
                         f"traced {(probes, probes, notifies)}")
        per_ue[int(ue)] = {"probes": probes, "offers": probes,
                           "notifies": notifies}
    return {
        "per_ue": per_ue,
        "total_messages": messages,
        "total_payload": payload,
        "ap_to_ap": 0,
    }
