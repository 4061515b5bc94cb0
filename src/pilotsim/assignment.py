"""Sequential pilot-assignment schemes.

Four schemes share one driver. `eem` greedily minimizes the aggregate
estimation error over a UE's serving APs; `dpb` lets the strongest few APs
each offer a candidate pilot set and resolves them by priority intersection
at the UE; `random` and `scalable` are baselines. All schemes are strictly
sequential and never revisit an earlier UE's pilot, so assignments are
prefix-stable under newly arriving UEs.

Per-UE step cost, with the running sums of a ContaminationCache: `eem`
reads |M_t| Lp sums; `dpb` evaluates S' Lp local errors, takes each probed
AP's `best_first` offer and resolves the offers with `priority_select`,
which intersects at most 2^S' - S' - 1 pilot bitmasks; `random` makes one
seeded draw; `scalable` takes the argmin of its master AP's Lp sums.
Recording a pick adds one precomputed row to the sums; no step scans the
other UEs. The message-passing protocol builds and resolves its offers
with the same two functions.

Pilot indices are 0-based throughout.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .estimation import ContaminationCache, PilotAssignment
from .network import require_integer, require_number

__all__ = [
    "SCHEME_IDS",
    "TIE_RULES",
    "SchemeConfig",
    "OpCounter",
    "assign_all",
    "eem_step",
    "best_first",
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
        require_number("dpb_delta", self.dpb_delta)
        if not (math.isfinite(self.dpb_delta) and self.dpb_delta >= 0):
            raise ValueError("dpb_delta must be finite and >= 0")
        if self.tie_rule not in TIE_RULES:
            raise ValueError(f"unknown tie rule {self.tie_rule!r}")


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
    errors = cache.local_errors(serving, t).sum(axis=0)
    if counter is not None:
        counter.add_reads(serving.size * cache.num_pilots)
    return int(np.argmin(errors))


def best_first(errors: np.ndarray, delta: float) -> list:
    """One AP's offer: the pilots within (1 + delta) of its least error,
    best first, as a prefix of one stable argsort (ties by pilot index).

    Errors are nonnegative, so the best pilot always qualifies; delta = 0
    keeps only the minimizers.
    """
    ranked = errors.argsort(kind="stable")
    within = errors <= (1.0 + delta) * errors[ranked[0]]
    return ranked[:np.count_nonzero(within)].tolist()


def priority_select(offers, tie_rule: str = "seeded_random", seed: int = 0,
                    ue: int = 0, counter: OpCounter | None = None) -> int:
    """Resolve the offers of a UE's priority APs, strongest AP first, into
    one pilot; each offer is a best-first list of pilot indices (Python ints).

    Levels run from all S' offers down to pairs; within a level, AP groups
    are tried in lexicographic order of priority rank (for S = 3: {1,2,3},
    then {1,2}, {1,3}, {2,3}). The first nonempty intersection of pilot
    bitmasks wins; a lone pilot is forced, several go to `tie_rule`:
    `deterministic` takes the strongest AP's best common pilot, else the
    lowest one. If every intersection is empty, the strongest AP's best
    pilot wins.
    """
    masks = [sum(1 << i for i in offer) for offer in offers]
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
        return offers[0][0]
    pilots = [i for i in range(common.bit_length()) if common >> i & 1]
    if len(pilots) == 1:
        return pilots[0]
    if tie_rule == "deterministic":
        return next((i for i in offers[0] if common >> i & 1), pilots[0])
    rng = np.random.default_rng([seed, ue])
    return pilots[rng.integers(len(pilots))]


def _dpb_step(t: int, cache: ContaminationCache, serving, scheme: SchemeConfig,
              counter: OpCounter | None) -> int:
    profiles = cache.local_errors(serving[:scheme.dpb_s], t)
    if counter is not None:
        counter.add_evals(profiles.size)
    offers = [best_first(row, scheme.dpb_delta) for row in profiles]
    return priority_select(offers, scheme.tie_rule, scheme.seed, ue=t,
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
        # a DPB AP hears only the UEs it serves
        heard = real.beta * assoc.serves if scheme.scheme_id == "dpb" else real.beta
        cache = ContaminationCache(heard, powers, lp)
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
            pilot = int(np.argmin(cache.sums[master[t]]))
        pilot_of[t] = pilot
        if cache is not None:
            cache.record(t, pilot)
    return PilotAssignment(pilot_of, lp)
