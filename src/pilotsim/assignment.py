"""Sequential pilot-assignment schemes.

Four schemes share one driver. `eem` greedily minimizes the aggregate
estimation error over a UE's serving APs; `dpb` lets the strongest few APs
each offer a candidate pilot set and resolves them by priority intersection
at the UE; `random` and `scalable` are baselines. All schemes are strictly
sequential and never revisit an earlier UE's pilot, so assignments are
prefix-stable under newly arriving UEs.

Per-UE step cost, with the running sums of a ContaminationCache: `eem`
reads |M_t| Lp sums; `dpb` evaluates S' Lp local errors and intersects at
most 2^S' - S' - 1 pilot bitmasks; `random` makes one seeded draw;
`scalable` takes the argmin of its master AP's Lp sums. Recording a pick
adds one precomputed row to the sums; no step scans the other UEs.

Pilot indices are 0-based throughout.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .estimation import (ContaminationCache, PilotAssignment,
                         estimation_error_local)
from .network import require_integer

__all__ = [
    "SCHEME_IDS",
    "TIE_RULES",
    "SchemeConfig",
    "CandidateSets",
    "OpCounter",
    "assign_all",
    "eem_step",
    "dpb_candidates",
    "candidate_set_from_profile",
    "rank_from_order",
    "priority_select",
    "random_pa_step",
]

SCHEME_IDS = ("eem", "dpb", "random", "scalable")
TIE_RULES = ("seeded_random", "deterministic")


@dataclass(frozen=True)
class SchemeConfig:
    scheme_id: str
    dpb_s: int = 3
    dpb_delta: float = 0.1
    tie_rule: str = "seeded_random"
    seed: int = 0

    def __post_init__(self):
        if self.scheme_id not in SCHEME_IDS:
            raise ValueError(f"unknown scheme {self.scheme_id!r}; pick from {SCHEME_IDS}")
        require_integer("dpb_s", self.dpb_s)
        if self.dpb_s < 1:
            raise ValueError("dpb_s must be >= 1")
        if self.dpb_delta < 0:
            raise ValueError("dpb_delta must be >= 0")
        if self.tie_rule not in TIE_RULES:
            raise ValueError(f"unknown tie rule {self.tie_rule!r}")


@dataclass(frozen=True)
class CandidateSets:
    """Candidate pilot sets from a UE's priority APs, strongest AP first.

    `top_errors` ranks pilots from the strongest AP's point of view; any
    monotone surrogate works, so selection only ever compares these values
    for order. Both assignment drivers pass :func:`rank_from_order`
    positions, which pins down the pick even when the winning common set
    lies outside the strongest AP's own candidates.
    """

    sets: tuple
    top_errors: np.ndarray


@dataclass
class OpCounter:
    """Per-UE operation tallies backing the complexity assertions."""

    contamination_reads: list = field(default_factory=list)
    error_evals: list = field(default_factory=list)
    intersection_checks: list = field(default_factory=list)

    def start_ue(self):
        self.contamination_reads.append(0)
        self.error_evals.append(0)
        self.intersection_checks.append(0)

    def add_reads(self, n: int):
        self.contamination_reads[-1] += n

    def add_evals(self, n: int):
        self.error_evals[-1] += n

    def add_checks(self, n: int):
        self.intersection_checks[-1] += n


def eem_step(t: int, cache: ContaminationCache, serving, arrival_rank: int,
             counter: OpCounter | None = None) -> int:
    """Greedy minimum-aggregate-error pilot for one arriving UE.

    The first Lp arrivals take the unused pilot matching their arrival rank;
    afterwards the choice is the argmin over all pilots (first minimizer on
    ties, i.e. the lowest pilot index).
    """
    if arrival_rank < cache.num_pilots:
        return int(arrival_rank)
    serving = np.asarray(serving, dtype=int)
    errors = cache.global_error_profile(t, serving)
    if counter is not None:
        counter.add_reads(serving.size * cache.num_pilots)
    return int(np.argmin(errors))


def candidate_set_from_profile(errors: np.ndarray, delta: float):
    """Pilots within (1 + delta) of the minimum error, ascending index.

    Errors are nonnegative, so the argmin always qualifies; delta = 0
    degenerates to the exact argmin set. A stack of profiles gives a tuple
    of sets, one per row.
    """
    within = errors <= (1.0 + delta) * errors.min(axis=-1, keepdims=True)
    if within.ndim == 1:
        return within.nonzero()[0]
    return tuple(row.nonzero()[0] for row in within)


def dpb_candidates(t: int, m: int, delta: float, beta, powers, lp: int,
                   local_copilots) -> np.ndarray:
    """Candidate set C_m offered by AP m to arriving UE t.

    `local_copilots[i]` holds the UEs served by AP m currently on pilot i.
    """
    if len(local_copilots) != lp:
        raise ValueError("need one co-pilot set per pilot")
    errors = np.array([
        estimation_error_local(t, m, beta, powers, lp, members)
        for members in local_copilots
    ])
    return candidate_set_from_profile(errors, delta)


def rank_from_order(order, num_pilots: int) -> np.ndarray:
    """Preference surrogate: position within `order`, +inf for the rest.

    A UE can reconstruct this from a best-first candidate offer alone, so
    using it on the direct path too keeps both drivers working from exactly
    the information that crosses the air.
    """
    order = np.asarray(order, dtype=int)
    rank = np.full(num_pilots, np.inf)
    rank[order] = np.arange(order.size)
    return rank


def priority_select(cands: CandidateSets, tie_rule: str = "seeded_random",
                    seed: int = 0, ue: int = 0,
                    counter: OpCounter | None = None) -> int:
    """Resolve candidate sets into one pilot at the UE.

    Levels run from all S' sets down to pairs; within a level, AP groups are
    tried in lexicographic order of priority rank (for S = 3: {1,2,3}, then
    {1,2}, {1,3}, {2,3}). The first nonempty intersection of pilot bitmasks
    wins; a lone pilot is forced, several go to `tie_rule`. If every
    intersection is empty, fall back to the best pilot of the strongest AP.
    """
    masks = [sum(1 << i for i in np.asarray(c, dtype=int).tolist())
             for c in cands.sets]
    common = 0
    for level in range(len(masks), 1, -1):
        for group in itertools.combinations(masks, level):
            if counter is not None:
                counter.add_checks(1)
            common = functools.reduce(operator.and_, group)
            if common:
                break
        if common:
            break
    if not common:
        members = np.asarray(cands.sets[0], dtype=int)
        return int(members[np.argmin(cands.top_errors[members])])
    pilots = [i for i in range(common.bit_length()) if common >> i & 1]
    if len(pilots) == 1 or tie_rule == "deterministic":
        return min(pilots, key=cands.top_errors.__getitem__)
    rng = np.random.default_rng([seed, ue])
    return pilots[rng.integers(len(pilots))]


def _dpb_step(t: int, cache: ContaminationCache, serving, scheme: SchemeConfig,
              counter: OpCounter | None) -> int:
    profiles = cache.local_errors(serving[:scheme.dpb_s], t)
    if counter is not None:
        counter.add_evals(profiles.size)
    sets = candidate_set_from_profile(profiles, scheme.dpb_delta)
    best_first = sets[0][np.argsort(profiles[0][sets[0]], kind="stable")]
    cands = CandidateSets(sets, rank_from_order(best_first, cache.num_pilots))
    return priority_select(cands, scheme.tie_rule, scheme.seed, ue=t,
                           counter=counter)


def random_pa_step(t: int, lp: int, seed: int) -> int:
    """Uniform pilot from UE t's own seeded stream."""
    rng = np.random.default_rng([seed, t])
    return int(rng.integers(lp))


def assign_all(scheme: SchemeConfig, real, assoc, powers, lp: int,
               order=None, counter: OpCounter | None = None) -> PilotAssignment:
    """Run one scheme over all UEs in arrival order; earlier picks are final."""
    num_ues = real.num_ues
    if order is None:
        order = np.arange(num_ues)
    else:
        order = np.asarray(order, dtype=int)
        if not np.array_equal(np.sort(order), np.arange(num_ues)):
            raise ValueError("order must be a permutation of all UEs")
    cache = None
    if scheme.scheme_id != "random":
        cache = ContaminationCache(real.beta, powers, lp,
                                   track_local=scheme.scheme_id == "dpb")
    if scheme.scheme_id == "scalable":
        # master AP per UE: the first strongest, as np.argmax picks it
        master = np.argmax(real.beta, axis=0)
    pilot_of = np.full(num_ues, -1, dtype=int)
    for rank, t in enumerate(order):
        t = int(t)
        serving = assoc.serving_aps[t]
        if counter is not None:
            counter.start_ue()
        if scheme.scheme_id == "eem":
            pilot = eem_step(t, cache, serving, rank, counter)
        elif scheme.scheme_id == "dpb":
            pilot = _dpb_step(t, cache, serving, scheme, counter)
        elif scheme.scheme_id == "random":
            pilot = random_pa_step(t, lp, scheme.seed)
        else:
            # least-loaded pilot at the master AP, lowest index on ties
            pilot = int(np.argmin(cache.global_sums[master[t]]))
        pilot_of[t] = pilot
        if cache is not None:
            cache.record(t, pilot, serving)
    return PilotAssignment(pilot_of, lp)
