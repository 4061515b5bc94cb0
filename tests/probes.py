"""One-drop forms of the package's stacked calls, for the tests.

`evaluate` scores only the optimal weights, so the tests that compare other
weight vectors (the oracle's, equal ones, random probes) read UE t's Q and b
out of its bordered system from `performance._lsfd_groups`, which builds
the one-drop pass, its grouping and gammas included, from the drop and its
int pilots as evaluation does, and evaluate the Rayleigh quotient here.
The package ranks strong sets and computes gammas only for stacks of drops,
each reading the one-hot of the pilots that `one_hot` builds as an
evaluation pass does; `strong_one` and `gamma_one` are those calls on one
drop. `map_from_sets` builds an association from per-UE serving sets, and
`pilot_stack` the (D, S, T) pilot array of `PilotAssignment`s. DPB steps
one drop on Python floats and a stack on numpy, so `stack_row` gives a
drop's pilots from the stacked step; the other schemes step one drop as a
stack of one. `local_error` is the package's estimation error, its two
halves composed, and `cache_errors` scores a one-drop cache's sums with it
as the steps do. Both DPB steps make an AP's offer with
`assignment._offered` and resolve a UE's offers with `assignment._resolve`;
`offered_set` and `resolve_offers` call them on an error array and on
best-first lists. `generator_pick` is the generator that every seeded pick
stands for, and `unit_powers` a power profile of ones.
"""

import numpy as np

from pilotsim import (AssociationMap, PowerProfile, assignment, estimation,
                      network, performance, seeding)


def unit_powers(n):
    return PowerProfile(np.ones(n), np.ones(n))


def generator_pick(seed, ue, n):
    return int(np.random.default_rng([seed, ue]).integers(n))


def local_error(weighted_own, own_beta, pilot_sums):
    """UE t's estimation error at one AP, w_t b_mt = `weighted_own` and
    b_mt = `own_beta`, for the contamination sums `pilot_sums`: the
    package's `sum_errors` of its `error_terms`, on floats or arrays."""
    return estimation.sum_errors(
        *estimation.error_terms(weighted_own, own_beta), weighted_own,
        pilot_sums)


def cache_errors(cache, beta, powers, t, aps):
    """UE t's errors at AP `aps` of a one-drop cache built from the LSFC
    matrix `beta` and `powers`, one per pilot; an index array of APs gives
    one row per AP."""
    own = np.asarray(beta)[aps, t][..., None]
    weighted = powers.p_pilot[t] * cache.sums.shape[-1] * own
    return local_error(weighted, own, cache.sums[aps])


def offered_set(errors, delta):
    """The pilots that one AP with these errors offers, as a set of ints."""
    errors = np.asarray(errors)
    return set(np.flatnonzero(
        assignment._offered(errors, errors.min(), delta)).tolist())


def resolve_offers(offers, seed=0, ue=0, counter=None):
    """UE ue's pick from best-first lists of pilot indices, strongest AP
    first, as the DPB steps resolve it: the offers as bitmasks, the first
    offer's first pilot as the fallback, ties drawn with the first word of
    UE ue's stream under `seed`."""
    masks = [sum(1 << i for i in offer) for offer in offers]
    return assignment._resolve(masks, offers[0][0], seed, ue,
                               int(seeding.stream_words(seed, ue)), counter)


def map_from_sets(serving_aps, serves):
    """The AssociationMap whose UE t is served by serving_aps[t], a sequence
    of AP indices in priority order."""
    sizes = [len(aps) for aps in serving_aps]
    links = np.concatenate([np.asarray(aps, dtype=int) for aps in serving_aps])
    return AssociationMap(links, sizes, serves)


def one_hot(lp, pilot_of):
    """The one-hot of a complete pilot array over `lp` pilots: a last axis
    of width lp, one 1.0 per UE in its pilot's column."""
    return np.eye(lp)[pilot_of]


def strong_one(real, assoc, threshold, assignments, antennas):
    """`strong_stack` on one drop: its (M, T) strong flags, and row s of its
    (S, M) strong-pilot counts for the s-th of its assignments."""
    lp = max(pa.num_pilots for pa in assignments)
    flags, counts = network.strong_stack(
        real.beta[None], assoc.serves[None], threshold,
        one_hot(lp, pilot_stack([assignments])), antennas)
    return flags[0], counts[0]


def pilot_stack(by_drop):
    """The (D, S, T) pilot array of D drops' S `PilotAssignment`s each."""
    return np.array([[pa.pilot_of for pa in cell] for cell in by_drop])


def stack_row(scheme, real, assoc, powers, lp, order=None, counter=None):
    """The stacked step's (T,) pilots for one drop: row 0 of
    `assign_drops` on the drop stacked with itself, both copies drawing
    their ties under `scheme.seed`; `counter` tallies both copies."""
    return assignment.assign_drops(scheme, [scheme.seed] * 2, [real] * 2,
                                   [assoc] * 2, powers, lp, order,
                                   counter)[0]


def gamma_one(beta, powers, lp, assignment):
    """`gamma_stack` on one drop: the (M, T) gammas of one assignment."""
    return estimation.gamma_stack(np.asarray(beta, dtype=float)[None], powers,
                                  one_hot(lp, assignment.pilot_of[None, None])
                                  )[0, 0]


def sinr_pfzf(t, weights, real, assoc, pilot_of, powers, config):
    """Closed-form PFZF SINR for UE t, p_t (a.b)^2 / a.Q a, per weight vector.

    `weights` aligns with assoc.serving_aps[t], and pilot_of is the drop's
    (T,) complete pilots; `config` gives the pilot length, the strong
    threshold and the antenna count. A vector gives a float; a (K, |M_t|)
    matrix of K weight vectors gives K SINRs from one build of Q.
    """
    # a pass of one cell, whose unit indices are its UE indices
    for units, bordered in performance._lsfd_groups(
            [real], [assoc], np.asarray(pilot_of)[None, None], powers,
            config):
        hit = np.flatnonzero(units == t)
        if hit.size:
            # t's system [[Q, b], [b, s]]
            q, b = bordered[hit[0], :-1, :-1], bordered[hit[0], -1, :-1]
            break
    a = np.asarray(weights, dtype=float)
    probes = np.atleast_2d(a)
    sinr = (powers.p_uplink[t] * (probes @ b) ** 2
            / np.sum((probes @ q) * probes, axis=1))
    return float(sinr[0]) if a.ndim == 1 else sinr
