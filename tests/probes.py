"""SINR of UE t under arbitrary LSFD weights, from the package's own Q and b.

`evaluate` scores only the optimal weights, so the tests that compare other
weight vectors (the oracle's, equal ones, random probes) read UE t's system
out of `performance._lsfd_groups` and evaluate the Rayleigh quotient here.
"""

import numpy as np

from pilotsim import performance


def sinr_pfzf(t, weights, beta, gamma, powers, assoc, assignment, antennas):
    """Closed-form PFZF SINR for UE t, p_t (a.b)^2 / a.Q a, per weight vector.

    `weights` aligns with assoc.serving_aps[t], and `assoc` is grouped for
    `assignment` alone. A vector gives a float; a (K, |M_t|) matrix of K
    weight vectors gives K SINRs from one build of Q.
    """
    # a stack of one cell, whose unit indices are its UE indices, and its
    # weight table: the gammas and a zero column
    table = np.zeros((1, 1) + beta.shape[:1] + (beta.shape[1] + 1,))
    table[0, 0, :, :-1] = gamma
    for units, q, b in performance._lsfd_groups(
            np.asarray(beta)[None], powers, table, assoc.strong_flag[None],
            assoc.strong_pilot_count[None], [assoc],
            assignment.pilot_of[None, None], antennas):
        hit = np.flatnonzero(units == t)
        if hit.size:
            q, b = q[hit[0]], b[hit[0]]
            break
    a = np.asarray(weights, dtype=float)
    probes = np.atleast_2d(a)
    sinr = (powers.p_uplink[t] * (probes @ b) ** 2
            / np.sum((probes @ q) * probes, axis=1))
    return float(sinr[0]) if a.ndim == 1 else sinr
