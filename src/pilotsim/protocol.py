"""Distributed pilot negotiation as explicit UE/AP message passing.

This reruns the distributed scheme with every piece of information that
crosses the air logged as a message, so tests can audit the overhead claims
directly: no AP ever talks to another AP (or to any central node, which
simply does not exist here), and each arriving UE costs exactly S' probes,
S' offers, and |M_t| notifications. The log keeps one integer row per
message whose kind fixes which end sends, so an AP-to-AP message cannot be
written down at all.

The negotiation is the one-drop float DPB loop, `assignment.dpb_arrivals`:
each probed AP scores the pilots from its own sums over the UEs it serves,
and the UE resolves the offers by AP priority and notifies its serving
APs, which add its pilot to their sums. The log is built from the loop's
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
from .network import require_integers, require_powers

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
_AP_TO_AP = frozenset(code for code, kind in enumerate(_KINDS)
                      if _DIRECTIONS[kind] == ("ap", "ap"))


class TraceLog:
    """Ordered message log: one integer row per message.

    A row is (arrival_index, kind code, ue, ap, payload_size), payload
    counting the pilot indices carried. It names one UE and one AP and its
    kind fixes the direction, so the log cannot hold an AP-to-AP or
    UE-to-UE message.
    """

    def __init__(self):
        self.rows = []

    def record_arrival(self, arrival_index: int, ue: int, probed: list,
                       offer_sizes: list, serving: list):
        """One arrival: a probe and its offer, of `offer_sizes[i]` pilots,
        per probed AP, then a notify per serving AP."""
        rows = self.rows
        for ap, size in zip(probed, offer_sizes):
            rows.append((arrival_index, _PROBE, ue, ap, 0))
            rows.append((arrival_index, _OFFER, ue, ap, size))
        rows.extend([(arrival_index, _NOTIFY, ue, ap, 1) for ap in serving])

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
    S'_t = min(S, |M_t|). Raises BudgetViolation naming the first offender.
    """
    rows = log.rows
    # one comprehension per column: zip(*rows) keeps an iterator per row
    # alive, and the garbage collections those set off cost more
    kinds = [row[1] for row in rows]
    kind = np.fromiter(kinds, dtype=np.int64, count=len(rows))
    ue = np.fromiter([row[2] for row in rows], dtype=np.int64, count=len(rows))
    size = int(ue.max()) + 1 if ue.size else 0
    # one column per kind: probes, offers, notifies
    got = np.stack([np.bincount(ue[kind == code], minlength=size)
                    for code in (_PROBE, _OFFER, _NOTIFY)], axis=1)
    ues = np.flatnonzero(got.any(axis=1))
    got = got[ues]
    serving = assoc.sizes[ues]
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
        "total_payload": sum([row[4] for row in rows]),
        "ap_to_ap": sum(map(kinds.count, _AP_TO_AP)),
    }
