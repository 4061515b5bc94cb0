"""Closed-form uplink performance: optimal-LSFD PFZF SINR, spectral efficiency.

The SINR is evaluated in closed form from large-scale quantities only. For a
UE t served by the APs M_t it is a generalized Rayleigh quotient in the LSFD
weight vector a: signal p_t (a.b)^2 over a.Q a, where Q collects coherent
co-pilot interference plus a diagonal of non-coherent interference and noise.
The optimal weights are therefore Q^{-1} b up to scale, and the optimal SINR
is p_t b.Q^{-1} b (Nayebi et al., "Performance of cell-free massive MIMO
systems with MMSE and LSFD receivers", Asilomar 2016). `evaluate` scores a
drop from this closed form without forming any weight vector, for one pilot
assignment or for several (a cell's schemes) at once. Neither the serving
nor the strong sets depend on the pilots, so the strong sets are ranked
once per drop, and `_lsfd_groups` lays the serving links of all UEs out
once, ordered by |M_t|, and computes every per-link term of all assignments
at once. Each serving-set size is then a contiguous run of links, from
which the (Q_t, b_t) stack of all assignments is built and solved in one
call: a cell's schemes share one stacked solve per serving-set size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import PilotAssignment, compute_gamma
from .network import group_strong_ues

__all__ = [
    "SeReport",
    "prelog",
    "se_uplink",
    "evaluate",
]


@dataclass(frozen=True)
class SeReport:
    """Per-UE SINR/SE for one evaluated drop."""

    sinr: np.ndarray
    se: np.ndarray
    sum_se: float

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.se, q))


def prelog(coherence_block: int, pilot_length: int) -> float:
    """SE prefactor: half the fraction of the block left after pilots."""
    return (1.0 - pilot_length / coherence_block) / 2.0


def _lsfd_groups(beta, powers, gammas, grouped, assignments, antennas: int):
    """Yield the LSFD systems (ues, Q, b) of one drop per serving-set size n,
    ascending: all UEs with |M_t| = n in ascending order, Q as (S, N, n, n)
    and b as (S, N, n) for S pilot assignments.

    b_mt = sqrt((A - delta_mt L_{S_m}) gamma_mt) over m in M_t, and
    Q_t = sum_{k != t on t's pilot} p_k c_k c_k^T + diag(D_t), where c_k is
    b_t with gamma_mk in place of gamma_mt and D_t the non-coherent-plus-noise
    diagonal. D_t >= 1, so every Q_t is symmetric positive definite.

    `gammas` is the (S, M, T) stack of one gamma per assignment, and
    `grouped` is the drop's association after one `group_strong_ues` call
    for all of `assignments`: one shared strong flag, and one row of
    strong-pilot counts per assignment. The per-AP sums, the co-pilot
    weight table and its member table (a cumulative one-hot count of each
    pilot over the UEs) are each one pass over the stack. The serving links of
    all UEs are laid out once, ordered by |M_t| and then by UE, and every
    per-link scalar is computed as (S, L) rows. Each serving-set size is
    then one contiguous run of links that reshapes to (S, N, n); only its
    co-pilot gather and Q = C C^T are formed per group, which keeps the
    largest temporary at one group's (S, N, n, K) stack.
    """
    beta = np.asarray(beta, dtype=float)
    num_aps, num_ues = beta.shape
    p = powers.p_uplink
    num_schemes = len(gammas)
    flag = grouped.strong_flag
    # per AP: sum_k p_k beta_mk, and sum_k p_k gamma_mk over its strong UEs
    noncoh = beta @ p
    zf = (gammas * flag) @ p
    # sqrt(p_k gamma_mk) per co-pilot k; column T is zero and pads the table
    table_w = np.zeros((num_schemes, num_aps, num_ues + 1))
    np.sqrt(gammas * p, out=table_w[:, :, :num_ues])
    # one table row per (assignment, pilot) lists that pilot's UEs in
    # ascending order, padded with T to the largest load of any assignment.
    # rank[s, t, i] counts the UEs up to t on pilot i, so t's slot in its
    # pilot's row is its own count less one, and rank[:, -1] holds the loads
    pilot_of = np.stack([pa.pilot_of for pa in assignments])[..., None]
    num_pilots = max(pa.num_pilots for pa in assignments)
    rank = (pilot_of == np.arange(num_pilots)).cumsum(axis=1)
    slot = np.take_along_axis(rank, pilot_of, 2) - 1
    stack = np.arange(num_schemes)[:, None, None]
    table = np.full((num_schemes, num_pilots, rank[:, -1].max()), num_ues)
    table[stack, pilot_of, slot] = np.arange(num_ues)[:, None]

    sets = grouped.serving_aps
    sizes = np.fromiter(map(len, sets), dtype=int, count=len(sets))
    ues = np.argsort(sizes, kind="stable")
    sizes = sizes[ues]
    serving = np.concatenate([sets[t] for t in ues.tolist()])
    link_ue = np.repeat(ues, sizes)
    delta = flag[serving, link_ue]
    # A - delta_mt L_{S_m}: zero-forcing spends one dimension per distinct
    # strong pilot, but only from the viewpoint of strong UEs
    gain = antennas - delta * grouped.strong_pilot_count[:, serving]
    root = np.sqrt(gain)
    diag = noncoh[serving] - delta * zf[:, serving] + 1.0
    b = np.sqrt(gain * gammas[:, serving, link_ue])
    # each link's row of w, as a flat offset, and each UE's co-pilots: its
    # pilot's row of the table minus its own slot
    row = (np.arange(num_schemes)[:, None] * num_aps + serving) * (num_ues + 1)
    j = np.arange(table.shape[2] - 1)
    copilots = table[stack, pilot_of[:, ues], j + (j >= slot[:, ues])]
    w = table_w.ravel()
    start = [0, *np.cumsum(sizes).tolist()]
    cuts = (np.flatnonzero(np.diff(sizes)) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, ues.size]):
        n = int(sizes[lo])
        shape = (num_schemes, hi - lo, n)
        links = slice(start[lo], start[hi])
        c = (root[:, links].reshape(shape)[..., None]
             * w[row[:, links].reshape(shape)[..., None]
                 + copilots[:, lo:hi, None, :]])
        q = c @ c.swapaxes(-1, -2)
        # the diagonal of each n x n block, as a strided view
        q.reshape(-1, n * n)[:, ::n + 1] += diag[:, links].reshape(-1, n)
        # contiguous, so that sums over each b_t run as for one assignment
        yield ues[lo:hi], q, np.ascontiguousarray(b[:, links].reshape(shape))


def se_uplink(sinr, coherence_block: int, pilot_length: int):
    """Ergodic uplink SE in bits/s/Hz; accepts scalars or arrays."""
    return prelog(coherence_block, pilot_length) * np.log2(1.0 + np.asarray(sinr))


def evaluate(real, assoc, assignments, powers, config):
    """Full pipeline for one drop: gamma, strong grouping, closed-form SINR, SE.

    `assignments` is one `PilotAssignment`, which gives one `SeReport`, or a
    sequence of them on this drop, which gives one `SeReport` per assignment
    in order. Each UE scores p_t b.Q^{-1} b, its optimal-LSFD SINR. All
    assignments share one strong-set ranking and one batched pass: one
    stacked solve per serving-set size. Co-pilot products are padded to the
    largest pilot load, so a score can differ at round-off from a lone call.
    """
    single = isinstance(assignments, PilotAssignment)
    assignments = [assignments] if single else list(assignments)
    if not assignments:
        raise ValueError("need at least one pilot assignment")
    for i, pa in enumerate(assignments):
        if pa.num_pilots > config.pilot_length:
            raise ValueError(f"assignment {i} has {pa.num_pilots} pilots, more "
                             f"than the pilot length {config.pilot_length}")
    gammas = np.stack([compute_gamma(real.beta, powers, config.pilot_length,
                                     pa) for pa in assignments])
    grouped = group_strong_ues(real, assoc, config.strong_threshold,
                               assignments, config.antennas_per_ap)
    score = np.empty((len(assignments), real.num_ues))
    for ues, q, b in _lsfd_groups(real.beta, powers, gammas, grouped,
                                  assignments, config.antennas_per_ap):
        score[:, ues] = np.sum(
            b * np.linalg.solve(q, b[..., None])[..., 0], axis=-1)
    # one pass over the (S, T) stack; argwhere meets failures row-major
    sinr = powers.p_uplink * score
    bad = np.argwhere(~(np.isfinite(sinr) & (sinr > 0.0)))
    if bad.size:
        i, t = bad[0]
        where = "" if single else f" under assignment {i}"
        raise ArithmeticError(
            f"non-finite or non-positive SINR for UE {t}{where}")
    se = se_uplink(sinr, config.coherence_block, config.pilot_length)
    reports = [SeReport(sinr=r, se=e, sum_se=float(total))
               for r, e, total in zip(sinr, se, se.sum(axis=1))]
    return reports[0] if single else reports
