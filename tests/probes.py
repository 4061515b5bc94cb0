"""One-drop forms of the package's stacked calls, for the tests.

`evaluate` scores only the optimal weights, so the tests that compare other
weight vectors (the oracle's, equal ones, random probes) read UE t's system
out of `performance._lsfd_groups` and evaluate the Rayleigh quotient here.
The package ranks strong sets and computes gammas only for stacks of drops,
each reading the one-hot of the pilots that `one_hot` builds as an
evaluation pass does; `strong_one` and `gamma_one` are those calls on one
drop. `map_from_sets` builds an association from per-UE serving sets, and
`pilot_stack` the (D, S, T) pilot array of `PilotAssignment`s.
"""

import numpy as np

from pilotsim import AssociationMap, estimation, network, performance


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


def gamma_one(beta, powers, lp, assignment):
    """`gamma_stack` on one drop: the (M, T) gammas of one assignment."""
    return estimation.gamma_stack(np.asarray(beta, dtype=float)[None], powers,
                                  one_hot(lp, assignment.pilot_of[None, None])
                                  )[0, 0]


def sinr_pfzf(t, weights, beta, gamma, powers, assoc, flags, counts,
              assignment, antennas):
    """Closed-form PFZF SINR for UE t, p_t (a.b)^2 / a.Q a, per weight vector.

    `weights` aligns with assoc.serving_aps[t]; flags are the drop's (M, T)
    strong flags and counts its (M,) strong-pilot counts under `assignment`.
    A vector gives a float; a (K, |M_t|) matrix of K weight vectors gives K
    SINRs from one build of Q.
    """
    # a stack of one cell, whose unit indices are its UE indices, and its
    # weight table: the gammas and a zero column
    table = np.zeros((1, 1) + beta.shape[:1] + (beta.shape[1] + 1,))
    table[0, 0, :, :-1] = gamma
    for units, q, b in performance._lsfd_groups(
            np.asarray(beta)[None], powers, table, flags[None],
            counts[None, None], [assoc],
            one_hot(assignment.num_pilots, assignment.pilot_of[None, None]),
            antennas):
        hit = np.flatnonzero(units == t)
        if hit.size:
            q, b = q[hit[0]], b[hit[0]]
            break
    a = np.asarray(weights, dtype=float)
    probes = np.atleast_2d(a)
    sinr = (powers.p_uplink[t] * (probes @ b) ** 2
            / np.sum((probes @ q) * probes, axis=1))
    return float(sinr[0]) if a.ndim == 1 else sinr
