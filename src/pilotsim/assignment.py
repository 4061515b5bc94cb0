"""Sequential pilot-assignment schemes.

Four schemes share one driver. `eem` greedily minimizes the aggregate
estimation error over a UE's serving APs; `dpb` lets the strongest few APs
each offer a candidate pilot set and resolves them by priority intersection
at the UE; `random` and `scalable` are baselines. All schemes are strictly
sequential and never revisit an earlier UE's pilot, so assignments are
prefix-stable under newly arriving UEs.

`assign_drops` runs one scheme over a stack of D drops that share M, T
and Lp, and `assign_all` is its one-drop call. One loop over arrival order
steps every drop at once, one drop as a stack of one, on the serving links
laid out once per call UE by UE and each UE's drop by drop
(`_link_terms`), so UE t's step reads one slice of links. Only `dpb` on one
drop steps on Python floats (`dpb_arrivals`), at about half the numpy
step's time there (0.6 times at Lp = 15), with the same picks bit for bit;
it walks each probed AP's pilots ranked by sum, since an error never falls
as its sum grows, and scores only those it can offer, and the first it
rejects (`_offer`). It is the package's one float DPB loop: the protocol
(`protocol.run_protocol`) logs its messages from the same yields. Stacks
keep the numpy step, as 25 desk drops stepped on floats one by one took
about three times as long, and so do `eem` and `scalable`: a float `eem`
was 1.9-2.8x slower even at one drop. `random` reads no earlier pick:
`seeding.picks` draws every UE at once.

Per step, against the running sums of a ContaminationCache: `eem` scores
UE t's |M_t| Lp errors per drop with `sum_errors` against its links' terms,
sums each drop's run with one `np.add.reduceat` and takes the argmin;
`dpb` scores only its probed links, the first S' = min(S, |M_t|) of each
run, turns each probed AP's offer into a pilot bitmask of Python ints
(exact for any Lp) in one uint64 product per 64 pilots, and resolves each
drop's masks by priority intersection, at most 2^S' - S' - 1 of them;
`scalable` takes the argmin of the sums at each drop's master AP, the
first link of its run. Recording the picks adds one precomputed row per
drop to the sums; no step scans the other UEs. Both DPB steps make an AP's
offer, a pilot set, with `_offered` and resolve it with `_resolve`.

Pilot indices are 0-based throughout.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .estimation import (ContaminationCache, PilotAssignment, error_terms,
                         sum_errors)
from .network import (require_associations, require_integer,
                      require_integers, require_number, require_powers)

__all__ = [
    "SCHEME_IDS",
    "SchemeConfig",
    "OpCounter",
    "assign_all",
    "assign_drops",
    "dpb_arrivals",
]

SCHEME_IDS = ("eem", "dpb", "random", "scalable")


def _require_seed(seed):
    """A scheme seed is an integer in [0, 2^64), the range of
    `seeding.derive_seed` and of the stream words' entropy layout."""
    require_integer("seed", seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class SchemeConfig:
    scheme_id: str
    dpb_s: int = 3
    dpb_delta: float = 0.1
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
        _require_seed(self.seed)


@dataclass
class OpCounter:
    """Per-UE tallies for the complexity assertions; `random` steps no UE."""

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


def _offered(errors, least, delta: float):
    """Which pilots an AP offers: those within (1 + delta) of its least
    error `least`; one float error, or rows of errors against a column."""
    return errors <= (1.0 + delta) * least


@functools.cache
def _groups(s: int) -> tuple:
    """The AP index groups that `_resolve` intersects for S' = s offers,
    in its order of trial."""
    return tuple(group for level in range(s, 1, -1)
                 for group in itertools.combinations(range(s), level))


def _resolve(masks: list, best: int, seed: int, ue: int, word: int,
             counter: OpCounter | None) -> int:
    """UE ue's pilot from its offers, pilot sets as bitmasks of Python ints
    (any Lp fits), strongest AP first: the first nonempty intersection from
    all S' offers down to pairs, a level's AP groups in lexicographic order
    of priority rank (S = 3: {1,2,3}, {1,2}, {1,3}, {2,3}), walked from the
    cached index groups of `_groups`. A lone pilot is forced, its bit's
    index; several tie, the one drawn with `word`, UE ue's first stream
    word under `seed`, by rank among them, lowest first. With none, `best`,
    the strongest AP's least-error pilot, wins."""
    common = 0
    checks = 0
    for group in _groups(len(masks)):
        checks += 1
        common = masks[group[0]]
        for i in group[1:]:
            common &= masks[i]
        if common:
            break
    if counter is not None:
        counter.add_checks(checks)
    if not common:
        return best
    if not common & (common - 1):
        return common.bit_length() - 1
    # the draw's rank among the common pilots, lowest first: clear the
    # lower ones and take the lowest bit left
    for _ in range(seeding.bounded(word, common.bit_count(), seed, ue)):
        common &= common - 1
    return (common & -common).bit_length() - 1


def _offer_masks(within, bits) -> list:
    """Each row of offered pilots (`within`, bool) as a bitmask of Python
    ints, exact for any Lp: one uint64 product per 64 pilots, whose limbs
    are joined low to high."""
    masks = None
    for lo in range(0, within.shape[-1], 64):
        limbs = (within[:, lo:lo + 64] @ bits[lo:lo + 64]).tolist()
        masks = limbs if masks is None else [
            mask | limb << lo for mask, limb in zip(masks, limbs)]
    return masks


def assign_all(scheme: SchemeConfig, real, assoc, powers, lp: int,
               order=None, counter: OpCounter | None = None) -> PilotAssignment:
    """Run one scheme over all UEs in arrival order; earlier picks are final.

    The one-drop stack of `assign_drops`, seeded by `scheme.seed`.
    """
    return PilotAssignment(assign_drops(scheme, [scheme.seed], [real], [assoc],
                                        powers, lp, order, counter)[0], lp)


def _offer(row, weighted_own: float, own: float, delta: float) -> tuple:
    """One AP's offer from its pilot sums `row`, a list of Python floats,
    as (mask, best): the bitmask of the pilots that `_offered` admits, and
    the lowest pilot whose error is the least.

    A pilot's error never falls as its sum grows (`sum_errors`), so the
    offer is a prefix of the pilots ranked by sum. The walk takes the AP's
    `error_terms` once and scores one error per distinct sum with
    `sum_errors`, the least first, and stops at the first pilot rejected;
    the least error's pilots lead the ranking.
    """
    ranked = sorted(range(len(row)), key=row.__getitem__)
    num, bound = error_terms(weighted_own, own)
    last = row[ranked[0]]
    least = error = sum_errors(num, bound, weighted_own, last)
    mask, best = 0, ranked[0]
    for i in ranked:
        if row[i] != last:
            last = row[i]
            error = sum_errors(num, bound, weighted_own, last)
            if not _offered(error, least, delta):
                break
        if i < best and error == least:
            best = i
        mask |= 1 << i
    return mask, best


def _link_runs(assocs, num_aps: int) -> tuple:
    """The serving links of a stack of D drops as flat (drop, AP) rows
    d M + m of a (D M, Lp) view of a cache's sums, drop by drop and UE by
    UE as the associations lay them; the place there of each (UE, drop)
    run's first link, UE by UE and each UE's runs drop by drop; and the
    T D + 1 bounds of those runs laid end to end in that order."""
    rows = np.concatenate([assoc.links + d * num_aps
                           for d, assoc in enumerate(assocs)])
    sizes = np.concatenate([assoc.sizes for assoc in assocs])
    firsts = np.cumsum(sizes)
    firsts -= sizes
    runs = sizes.reshape(len(assocs), -1).T.ravel()
    bounds = np.zeros(runs.size + 1, dtype=int)
    np.cumsum(runs, out=bounds[1:])
    return rows, firsts.reshape(len(assocs), -1).T.ravel(), bounds


def _link_terms(reals, assocs, powers, lp: int) -> tuple:
    """The serving links of a stack of D drops, UE by UE and each UE's
    drop by drop, each run in priority order: their flat (drop, AP) rows
    (`_link_runs`), b_mt and w_t b_mt, w = p_pilot Lp, as float arrays, and
    the run bounds, UE t's run in drop d being rows[bounds[t D + d]:
    bounds[t D + d + 1]], so that all of UE t's links are one slice. One
    drop's rows are its AP indices, in the order of `assoc.links`."""
    num_ues = reals[0].num_ues
    rows, firsts, bounds = _link_runs(assocs, reals[0].num_aps)
    # each link's place among the drop-by-drop links
    firsts -= bounds[:-1]
    src = np.repeat(firsts, bounds[1:] - bounds[:-1])
    src += np.arange(bounds[-1])
    rows = rows.take(src)
    # the LSFCs drop by drop, each taken at its flat (m, t) index, which
    # gathers in about half the time of an (m, t) index pair
    ues = np.arange(num_ues)
    betas = np.concatenate([
        real.beta.ravel().take(assoc.links * num_ues
                               + np.repeat(ues, assoc.sizes))
        for real, assoc in zip(reals, assocs)]).take(src)
    del src
    per_ue = bounds[::len(assocs)]
    weighted = (powers.p_pilot * lp)[np.repeat(ues, per_ue[1:] - per_ue[:-1])]
    weighted *= betas
    return rows, betas, weighted, bounds


def dpb_arrivals(scheme: SchemeConfig, seed: int, real, assoc, powers,
                 lp: int, order, counter: OpCounter | None = None):
    """`dpb` on one drop, stepped on Python floats: for each UE t of
    `order`, any duplicate-free int array of UEs, yield (t, masks, pilot,
    aps): its probed APs' offers as pilot bitmasks, strongest AP first, its
    pick, and the APs whose sums the pick was added to, its serving APs in
    priority order, of which the first len(masks) are the probed ones. Ties
    draw from UE t's stream under `seed`.

    Each AP keeps its pilot sums as a list of Lp floats, which each serving
    link holds a reference to, and each link's b_mt and w_t b_mt are read
    once, by `_link_terms`. An AP's error never falls as a pilot's sum
    grows, so its offer is a prefix of its pilots ranked by sum: `_offer`
    walks that ranking, scoring with `error_terms` and `sum_errors` and
    admitting with `_offered`, and stops at the first pilot rejected,
    which gives the offer of a full scan; a UE's pick adds w_t b_mt to
    its own pilot's sum at its serving APs only, where the numpy cache adds
    exact zeros elsewhere, so every sum takes the cache's additions in the
    cache's order and every pick is the stacked step's, bit for bit. The
    counter still tallies S' Lp errors per UE, the scheme's stated cost.
    """
    # UE t's serving APs, strongest first, are aps[starts[t]:ends[t]]
    aps, betas, weighted, starts = (
        a.tolist() for a in _link_terms([real], [assoc], powers, lp))
    ends = starts[1:]
    sums = [[0.0] * lp for _ in range(real.num_aps)]
    # link k's AP's sums
    rows = [sums[ap] for ap in aps]
    delta = scheme.dpb_delta
    words = seeding.stream_words(seed, order).tolist()
    for t, word in zip(order.tolist(), words):
        first, end = starts[t], ends[t]
        probed = range(first, min(first + scheme.dpb_s, end))
        if counter is not None:
            counter.start_ue()
            counter.add_evals(len(probed) * lp)
        # the fallback: the strongest AP's least-error pilot, lowest on ties
        mask, best = _offer(rows[first], weighted[first], betas[first], delta)
        masks = [mask]
        for k in probed[1:]:
            masks.append(_offer(rows[k], weighted[k], betas[k], delta)[0])
        pilot = _resolve(masks, best, seed, t, word, counter)
        for k in range(first, end):
            rows[k][pilot] += weighted[k]
        yield t, masks, pilot, aps[first:end]


def assign_drops(scheme: SchemeConfig, seeds, reals, assocs, powers, lp: int,
                 order=None, counter: OpCounter | None = None) -> np.ndarray:
    """Run one scheme over a stack of drops: the (D, T) int array whose
    row d is drop d's complete assignment, pilots in [0, lp).

    The drops share M, T, the UE powers, `order` and `scheme`'s options;
    drop d draws its ties from seeds[d], and `scheme.seed` is not read. One
    loop over arrival order steps every drop at once on the stack's serving
    links (`_link_terms`), a single drop as a stack of one, so each drop's
    assignment equals `assign_all` on that drop alone; `dpb` on a single
    drop steps on Python floats (`dpb_arrivals`) instead. Counter tallies
    are per UE, summed over the drops.
    """
    if not reals or not len(seeds) == len(reals) == len(assocs):
        raise ValueError("need at least one drop, with one seed and one "
                         "association per drop")
    for seed in seeds:
        _require_seed(seed)
    num_drops = len(reals)
    num_aps, num_ues = reals[0].beta.shape
    if any(real.beta.shape != (num_aps, num_ues) for real in reals):
        raise ValueError("the drops of a stack must share M and T")
    require_associations(reals, assocs)
    require_powers(powers, num_ues)
    if order is None:
        order = np.arange(num_ues)
    else:
        order = require_integers("order", order)
        if not np.array_equal(np.sort(order), np.arange(num_ues)):
            raise ValueError("order must be a permutation of all UEs")
    if scheme.scheme_id == "random":
        return seeding.picks(seeds, num_ues, lp)
    dpb = scheme.scheme_id == "dpb"
    if dpb and num_drops == 1:
        pilot_of = np.full(num_ues, -1)
        for t, _, pilot, _ in dpb_arrivals(scheme, seeds[0], reals[0],
                                           assocs[0], powers, lp, order,
                                           counter):
            pilot_of[t] = pilot
        return pilot_of[None]
    # a DPB AP hears only the UEs it serves
    cache = ContaminationCache([real.beta * assoc.serves if dpb else real.beta
                                for real, assoc in zip(reals, assocs)],
                               powers, lp)
    # row d M + m: the sums at AP m of drop d; a step picks one int for one
    # drop and one pilot per drop for a stack, as the cache records them
    sums, picks = cache.sums.reshape(-1, lp), cache.sums.shape[:-2]
    scalable = scheme.scheme_id == "scalable"
    if scalable:
        rows, firsts, bounds = _link_runs(assocs, num_aps)
        # each drop's master AP, the first link of its run, UE by UE
        masters = rows[firsts].reshape(num_ues, *picks)
    else:
        rows, betas, weighted, bounds = _link_terms(reals, assocs, powers, lp)
        num, bound = error_terms(weighted, betas)
        del betas
        # the links' terms as columns, each row against its AP's Lp sums
        weighted, num, bound = weighted[:, None], num[:, None], bound[:, None]
    if dpb:
        # a stack's DPB scores only its probed links, the first
        # S' = min(S, |M_t|) of each run
        runs = bounds[1:] - bounds[:-1]
        probed = (np.arange(bounds[-1]) - np.repeat(bounds[:-1], runs)
                  < scheme.dpb_s)
        rows, num, bound, weighted = (a[probed] for a in (rows, num, bound,
                                                          weighted))
        np.cumsum(np.minimum(runs, scheme.dpb_s), out=bounds[1:])
        # row t: the first word of UE t's stream under each drop's seed
        words = seeding.stream_words(seeds, np.arange(num_ues)[:, None])
        # `bits` holds pilot i's bit in its 64-bit limb
        bits = np.uint64(1) << (np.arange(lp, dtype=np.uint64) % np.uint64(64))
    # UE t's links are rows[starts[t]:ends[t]], drop d's run from
    # offsets[t, d] on
    starts = bounds[:-1:num_drops]
    offsets = bounds[:-1].reshape(num_ues, num_drops) - starts[:, None]
    ends, starts = bounds[num_drops::num_drops].tolist(), starts.tolist()
    # eem sums each drop's errors into `totals`, viewed in the picks' shape
    totals = np.empty((num_drops, lp))
    scores = totals.reshape(*picks, lp)
    # pilots are UE-major, so step t writes row t
    pilot_of = np.full((num_ues, *picks), -1)
    for rank, t in enumerate(order.tolist()):
        if counter is not None:
            counter.start_ue()
        if scalable:
            # least-loaded pilot at the master AP, lowest on ties
            pilots = sums[masters[t]].argmin(axis=-1)
        elif rank < lp and not dpb:
            # eem's first Lp arrivals take the pilot of their rank
            pilots = rank
        else:
            k = slice(starts[t], ends[t])
            errors = sum_errors(num[k], bound[k], weighted[k], sums[rows[k]])
            if dpb:
                if counter is not None:
                    counter.add_evals(len(errors) * lp)
                masks = _offer_masks(
                    _offered(errors, errors.min(axis=-1, keepdims=True),
                             scheme.dpb_delta), bits)
                # the strongest AP's least-error pilot, lowest on ties
                best = errors[offsets[t]].argmin(axis=-1).tolist()
                cuts = [*offsets[t].tolist(), len(masks)]
                pilots = [_resolve(masks[a:b], first, seed, t, word, counter)
                          for a, b, first, seed, word in zip(
                              cuts, cuts[1:], best, seeds, words[t].tolist())]
            else:
                if counter is not None:
                    counter.add_reads(len(errors) * lp)
                # eem: the least error summed over each drop's run, lowest
                # on ties; no run is empty (`AssociationMap` serves every
                # UE), where reduceat would read the next run's first row
                np.add.reduceat(errors, offsets[t], axis=0, out=totals)
                pilots = scores.argmin(axis=-1)
        pilot_of[t] = pilots
        cache.record(t, pilots)
    return pilot_of.reshape(num_ues, num_drops).T
