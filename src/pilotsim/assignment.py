"""Sequential pilot-assignment schemes.

Four schemes share one driver. `eem` greedily minimizes the aggregate
estimation error over a UE's serving APs; `dpb` lets the strongest few APs
each offer a candidate pilot set and resolves them by priority intersection
at the UE; `random` and `scalable` are baselines. All schemes are strictly
sequential and never revisit an earlier UE's pilot, so assignments are
prefix-stable under newly arriving UEs.

`assign_drops` runs one scheme over a stack of D drops that share M, T
and Lp: one loop over arrival order steps every drop at once, the stack's
serving sets padded with a dummy AP that hears no UE. `assign_all` is its
one-drop call, which steps unstacked on the drop's own serving sets; `dpb`
on one drop steps on Python floats instead (`dpb_arrivals`), which takes
about half the numpy step's time there (0.6 times at Lp = 15), and gives
its picks bit for bit. A probed AP's error never falls as a pilot's sum
grows, so the float loop walks its pilots ranked by sum and scores only
those it can offer, and the first it rejects (`_offer`). `dpb_arrivals` is
the package's one float DPB loop: the protocol (`protocol.run_protocol`)
logs its messages from the same yields, the offers and the APs each pick
was added to. Stacks keep the numpy step, since 25 desk drops stepped on
floats one by one took about three times as long, and so do `eem` and
`scalable`: a float `eem` was 1.9-2.8x slower even at one drop, its cache
hearing every UE. `eem` on one drop steps on numpy without the cache's
`local_errors` (`_eem_drop`): its serving links' b_mt, w_t b_mt and the
error's per-link half are built once per drop, not gathered again at each
arrival, which cut the step's time by about a quarter at M = 200,
T = 400, with the same picks. `random` reads no earlier pick:
`seeding.picks` draws every UE at once.

Per batched step, with the running sums of a ContaminationCache: `eem`
reads |M_t| Lp sums per drop, through `local_errors` on a stack and against
its own link terms on one drop; `dpb` evaluates S' Lp local errors per
drop, turns each probed AP's offer into a pilot bitmask of Python ints
(exact for any Lp) in one uint64 product per 64 pilots, and resolves each
drop's masks by priority intersection, at most 2^S' - S' - 1 of them;
`scalable` takes the argmin of the sums at each drop's master AP, its
first serving AP. Recording the picks adds one precomputed row per drop to
the sums; no step scans the other UEs. Both DPB steps make an AP's offer,
a pilot set, with `_offered` and resolve a UE's offers with `_resolve`.

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
from .network import (require_integer, require_integers, require_number,
                      require_powers, serving_links)

__all__ = [
    "SCHEME_IDS",
    "SchemeConfig",
    "OpCounter",
    "assign_all",
    "assign_drops",
    "eem_step",
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


def eem_step(t: int, cache: ContaminationCache, serving, arrival_rank: int):
    """Greedy minimum-aggregate-error pilot for one arriving UE.

    The first Lp arrivals take the unused pilot matching their arrival rank;
    afterwards the choice is the argmin over all pilots (first minimizer on
    ties, i.e. the lowest pilot index). A stacked cache takes a (D, S) array
    of serving APs and gives one pilot per drop. The step of a stack; one
    drop steps in `_eem_drop`, which gives the same picks.
    """
    if arrival_rank < cache.num_pilots:
        return arrival_rank
    return cache.local_errors(serving, t).sum(axis=-2).argmin(axis=-1)


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


def _offer_masks(within, bits, num_drops: int) -> list:
    """Each drop's rows of offered pilots (`within`, bool) as bitmasks of
    Python ints, exact for any Lp: one uint64 product per 64 pilots, whose
    limbs are joined low to high."""
    masks = None
    for lo in range(0, within.shape[-1], 64):
        limbs = (within[..., lo:lo + 64] @ bits[lo:lo + 64]).reshape(
            num_drops, -1).tolist()
        masks = limbs if masks is None else [
            [mask | limb << lo for mask, limb in zip(*rows)]
            for rows in zip(masks, limbs)]
    return masks


def assign_all(scheme: SchemeConfig, real, assoc, powers, lp: int,
               order=None, counter: OpCounter | None = None) -> PilotAssignment:
    """Run one scheme over all UEs in arrival order; earlier picks are final.

    The one-drop stack of `assign_drops`, seeded by `scheme.seed`.
    """
    return PilotAssignment(assign_drops(scheme, [scheme.seed], [real], [assoc],
                                        powers, lp, order, counter)[0], lp)


def _serving_table(assocs, num_aps: int) -> tuple:
    """Serving sets and their sizes, UE-major so step t reads row t. One
    drop keeps its own sets; a stack pads them to one width with AP index
    M, a dummy AP that hears no UE."""
    if len(assocs) == 1:
        # one `scalable` drop, as in every such `assign_all`: padded, it ran
        # 2.3x as long (M x T of 30 x 50 to 200 x 400); one eem or dpb drop
        # steps on its serving links and reads no table
        return assocs[0].serving_aps, assocs[0].sizes
    aps, sizes = serving_links(assocs)
    width = int(sizes.max())
    # filled drop-major, in the order of `aps`; read through a UE-major view
    padded = np.full(sizes.shape + (width,), num_aps)
    padded[np.arange(width) < sizes[..., None]] = aps
    return padded.swapaxes(0, 1), sizes.T


def _offer(row, weighted_own: float, own: float, delta: float) -> tuple:
    """One AP's offer from its pilot sums `row`, a list of Python floats,
    as (mask, best): the bitmask of the pilots that `_offered` admits, and
    the lowest pilot whose error is the least.

    Each rounded step of `local_error_profile` is monotone in the sum, so
    a pilot's error never falls as its sum grows, in floats as in exact
    arithmetic: the offer is a prefix of the pilots ranked by sum. The walk
    takes the AP's `error_terms` once and scores one error per distinct
    sum with `sum_errors`, the least first, and stops at the first pilot
    rejected; the least error's pilots lead the ranking.
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


def _link_terms(real, assoc, powers, lp: int) -> tuple:
    """Each serving link's b_mt and w_t b_mt, w = p_pilot Lp, as float
    arrays in the order of `assoc.links`."""
    owners = np.repeat(np.arange(real.num_ues), assoc.sizes)
    betas = real.beta[assoc.links, owners]
    return betas, betas * (powers.p_pilot * lp)[owners]


def _eem_drop(real, assoc, powers, lp: int, order,
              counter: OpCounter | None) -> np.ndarray:
    """`eem` on one drop: the (T,) pilots of `eem_step`, bit for bit.

    The serving links' terms are built once: b_mt and w_t b_mt by
    `_link_terms` and the error's per-link half by `error_terms`. UE t's
    step then scores its run of links against the cache's sums at those
    APs with `sum_errors`, the other half, and takes the argmin of the
    column sums, as the cache's `local_errors` rows would give; the cache
    still records every pick.
    """
    cache = ContaminationCache(real.beta, powers, lp)
    betas, weighted = _link_terms(real, assoc, powers, lp)
    num, bound = error_terms(weighted, betas)
    # the links' terms as columns, each row against its AP's Lp sums
    weighted, num, bound = weighted[:, None], num[:, None], bound[:, None]
    aps = assoc.links
    # UE t's serving links, strongest first, are links[starts[t]:ends[t]]
    ends = np.cumsum(assoc.sizes).tolist()
    starts = [0, *ends]
    pilot_of = np.full(real.num_ues, -1)
    for rank, t in enumerate(order.tolist()):
        if counter is not None:
            counter.start_ue()
        if rank < lp:
            pilot = rank
        else:
            k = slice(starts[t], ends[t])
            pilot = sum_errors(num[k], bound[k], weighted[k],
                               cache.sums[aps[k]]).sum(axis=0).argmin()
            if counter is not None:
                counter.add_reads((ends[t] - starts[t]) * lp)
        pilot_of[t] = pilot
        cache.record(t, pilot)
    return pilot_of


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
    walks that ranking, scoring with the halves of `local_error_profile`
    and admitting with `_offered`, and stops at the first pilot rejected,
    which gives the offer of a full scan; a UE's pick adds w_t b_mt to
    its own pilot's sum at its serving APs only, where the numpy cache adds
    exact zeros elsewhere, so every sum takes the cache's additions in the
    cache's order and every pick is the stacked step's, bit for bit. The
    counter still tallies S' Lp errors per UE, the scheme's stated cost.
    """
    betas, weighted = (a.tolist() for a in _link_terms(real, assoc, powers,
                                                       lp))
    aps = assoc.links.tolist()
    # UE t's serving links, strongest first, are links[starts[t]:ends[t]]
    ends = np.cumsum(assoc.sizes).tolist()
    starts = [0, *ends]
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
    loop over arrival order steps every drop at once, so each drop's
    assignment equals `assign_all` on that drop alone; a single drop steps
    unstacked: on its serving links' terms for `eem` and on Python floats
    for `dpb`. Counter tallies are per UE, summed over the drops.
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
    require_powers(powers, num_ues)
    if order is None:
        order = np.arange(num_ues)
    else:
        order = require_integers("order", order)
        if not np.array_equal(np.sort(order), np.arange(num_ues)):
            raise ValueError("order must be a permutation of all UEs")
    if scheme.scheme_id == "random":
        return seeding.picks(seeds, num_ues, lp)
    stacked = num_drops > 1
    if scheme.scheme_id == "eem" and not stacked:
        return _eem_drop(reals[0], assocs[0], powers, lp, order, counter)[None]
    if scheme.scheme_id == "dpb" and not stacked:
        pilot_of = np.full(num_ues, -1)
        for t, _, pilot, _ in dpb_arrivals(scheme, seeds[0], reals[0],
                                           assocs[0], powers, lp, order,
                                           counter):
            pilot_of[t] = pilot
        return pilot_of[None]
    if stacked:
        # a stack's AP index M hears no UE: the padding of its serving sets
        heard = np.zeros((num_drops, num_aps + 1, num_ues))
        for rows, real, assoc in zip(heard, reals, assocs):
            # a DPB AP hears only the UEs it serves
            rows[:num_aps] = (real.beta * assoc.serves
                              if scheme.scheme_id == "dpb" else real.beta)
    else:
        # one scalable drop reads its own LSFCs, uncopied
        heard = reals[0].beta
    cache = ContaminationCache(heard, powers, lp)
    serving, sizes = _serving_table(assocs, num_aps)
    if scheme.scheme_id == "dpb":
        # row t: the first word of UE t's stream under each drop's seed
        words = seeding.stream_words(seeds, np.arange(num_ues)[:, None])
        # DPB probes S APs per drop, padded past the S' = min(S, |M_t|)
        # that offer; `bits` holds pilot i's bit in its 64-bit limb
        s_prime = np.minimum(scheme.dpb_s, sizes).reshape(num_ues, -1).tolist()
        bits = np.uint64(1) << (np.arange(lp, dtype=np.uint64) % np.uint64(64))
    # pilots are UE-major, so step t writes row t
    pilot_of = np.full((num_ues, num_drops) if stacked else num_ues, -1)
    for rank, t in enumerate(order.tolist()):
        if counter is not None:
            counter.start_ue()
        if scheme.scheme_id == "eem":
            pilots = eem_step(t, cache, serving[t], rank)
            if counter is not None and rank >= lp:
                counter.add_reads(int(sizes[t].sum()) * lp)
        elif scheme.scheme_id == "dpb":
            profiles = cache.local_errors(serving[t][..., :scheme.dpb_s], t)
            if counter is not None:
                counter.add_evals(sum(s_prime[t]) * lp)
            within = _offered(profiles, profiles.min(axis=-1, keepdims=True),
                              scheme.dpb_delta)
            masks = _offer_masks(within, bits, num_drops)
            # the strongest AP's least-error pilot, lowest on ties
            best = profiles[..., 0, :].argmin(axis=-1).reshape(num_drops)
            pilots = [_resolve(m[:s], b, seed, t, word, counter)
                      for m, s, b, seed, word in zip(masks, s_prime[t],
                                                     best.tolist(), seeds,
                                                     words[t].tolist())]
        else:
            # least-loaded pilot at the master (first serving) AP, lowest on ties
            pilots = cache.loads(serving[t][..., 0]).argmin(axis=-1)
        pilot_of[t] = pilots
        cache.record(t, pilots)
    return pilot_of.reshape(num_ues, num_drops).T
