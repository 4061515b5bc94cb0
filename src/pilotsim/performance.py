"""Closed-form uplink performance: optimal-LSFD PFZF SINR, spectral efficiency.

The SINR is evaluated in closed form from large-scale quantities only. For a
UE t served by the APs M_t it is a generalized Rayleigh quotient in the LSFD
weight vector a: signal p_t (a.b)^2 over a.Q a, where Q collects coherent
co-pilot interference plus a diagonal of non-coherent interference and noise.
The optimal weights are therefore Q^{-1} b up to scale, and the optimal SINR
is p_t b.Q^{-1} b (Nayebi et al., "Performance of cell-free massive MIMO
systems with MMSE and LSFD receivers", Asilomar 2016). `evaluate_drops`
scores a stack of drops from this closed form without forming any weight
vector, with several pilot assignments per drop (a chunk's cells) at once;
`evaluate` is its one-drop call. Neither the serving nor the strong sets
depend on the pilots, so the strong sets are ranked once per drop.
`_lsfd_groups` lays the serving links of every (drop, UE) pair of the stack
out once, ordered by |M_t| and then by the drop's largest pilot load K, and
computes every per-link term of all assignments at once. Each serving-set
size is then a contiguous run of links, whose (Q_t, b_t) stack over all
drops and assignments is solved in one call.

Each Q_t is built with the co-pilot slots of its own drop's K, and a solve
treats each matrix of its stack on its own, so a drop's SINRs do not depend
on the drops stacked with it: the worker count, which sets the stacks, never
moves a result. The assignments scored together on one drop share its K, so
the scheme list can still move a result at round-off.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .estimation import PilotAssignment, compute_gamma
from .network import group_strong_ues, serving_links

__all__ = [
    "SeReport",
    "prelog",
    "se_uplink",
    "evaluate",
    "evaluate_drops",
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


def _lsfd_groups(betas, powers, gammas, groupeds, by_drop, antennas: int):
    """The LSFD systems (pairs, Q, b) of a stack of D drops, one per
    serving-set size n in ascending order: `pairs` holds p = d T + t for
    each UE t of drop d with |M_t| = n, ordered by its drop's K and then by
    p; Q is (S, N, n, n) and b is (S, N, n) over the S assignments of each
    drop. The set-up runs at the call, and an iterator is returned.

    b_mt = sqrt((A - delta_mt L_{S_m}) gamma_mt) over m in M_t, and
    Q_t = sum_{k != t on t's pilot} p_k c_k c_k^T + diag(D_t), where c_k is
    b_t with gamma_mk in place of gamma_mt and D_t the non-coherent-plus-noise
    diagonal. D_t >= 1, so every Q_t is symmetric positive definite.

    betas[d] is drop d's (M, T) LSFC matrix; `gammas` lists the (M, T)
    gammas, drop by drop and within a drop assignment by assignment, and is
    emptied as they are copied into the co-pilot weight table;
    groupeds[d] is drop d's association after one `group_strong_ues` call
    for all of by_drop[d]: one shared strong flag, and one row of
    strong-pilot counts per assignment. The per-AP sums, the co-pilot
    weight table and its member table (a cumulative one-hot count of each
    pilot over the UEs) are each one pass over the stack. The serving links
    of all pairs are laid out once, and every per-link scalar is computed
    as C-ordered (S, L) rows. The pairs of one key (n, K) are then one
    contiguous run of links that reshapes to (S, N, n); only its co-pilot
    gather and Q = C C^T are formed per run, over the K - 1 co-pilot slots
    of its drops. Memory is kept to what the systems read: each gamma is
    freed once copied, arrays are built in place and freed once read, and
    the rest of the set-up is freed at return.
    """
    num_drops, num_schemes = len(by_drop), len(by_drop[0])
    num_aps, num_ues = groupeds[0].strong_flag.shape
    p = powers.p_uplink
    flags = np.stack([grouped.strong_flag for grouped in groupeds])
    counts = np.stack([grouped.strong_pilot_count for grouped in groupeds])
    # per AP: sum_k p_k beta_mk, and sum_k p_k gamma_mk over its strong UEs.
    # Row i of the table holds gamma_mk for AP m and UE k under the i-th
    # (drop, assignment); its column T is zero. Each gamma is popped from
    # the list as it is copied, so that it is freed at once
    noncoh = np.stack([beta @ p for beta in betas])
    zf = np.empty((num_drops * num_schemes, num_aps))
    table_w = np.zeros((num_drops * num_schemes, num_aps, num_ues + 1))
    for i in range(len(table_w)):
        gamma = gammas.pop(0)
        zf[i] = (gamma * flags[i // num_schemes]) @ p
        table_w[i, :, :num_ues] = gamma
    del gamma
    # one table row per (drop, assignment, pilot) lists that pilot's UEs in
    # ascending order, padded with T to the largest load in the stack.
    # rank[d, s, t, i] counts the UEs up to t on pilot i, so t's slot in
    # its pilot's row is its own count less one, and rank[..., -1, :]
    # holds the loads, whose largest per drop is its K
    pilot_of = np.array([[pa.pilot_of for pa in cell]
                         for cell in by_drop])[..., None]
    num_pilots = max(pa.num_pilots for cell in by_drop for pa in cell)
    rank = (pilot_of == np.arange(num_pilots)).cumsum(axis=2)
    slot = np.take_along_axis(rank, pilot_of, 3) - 1
    loads = rank[:, :, -1].reshape(num_drops, -1).max(axis=1)
    del rank
    table_row = (np.arange(num_drops * num_schemes).reshape(
        num_drops, num_schemes, 1, 1) * num_pilots + pilot_of)
    # (its UE indices as int32, which halves the co-pilot gather)
    table = np.full((num_drops * num_schemes * num_pilots, int(loads.max())),
                    num_ues, dtype=np.int32)
    table[table_row, slot] = np.arange(num_ues)[:, None]

    # pairs by key (n, K), and each pair's co-pilots: its pilot's row of
    # the table minus its own slot, gathered by flat offsets built in place
    aps, sizes = serving_links(groupeds)
    key = (sizes * (int(loads.max()) + 1) + loads[:, None]).ravel()
    pairs = np.argsort(key, kind="stable")
    key, n = key[pairs], sizes.ravel()[pairs]
    pair_drop, pair_ue = np.divmod(pairs, num_ues)
    stack = np.arange(num_schemes)[:, None]
    j = np.arange(table.shape[1] - 1)
    at = j >= slot[pair_drop, stack, pair_ue]
    at = at + j
    at += table_row[pair_drop, stack, pair_ue] * table.shape[1]
    copilots = table.ravel()[at]
    del at
    # each pair's links, in its priority order, and their flat offsets in
    # a (D, M) and a (D, S, M) array, the latter as C-ordered (S, L) rows
    first = np.cumsum(sizes.ravel()) - sizes.ravel()
    end = np.cumsum(n)
    serving = aps[np.repeat(first[pairs] - end + n, n) + np.arange(end[-1])]
    link_drop = np.repeat(pair_drop, n)
    link_ue = np.repeat(pair_ue, n)
    at_ap = link_drop * num_aps + serving
    at_scheme = (np.arange(num_schemes)[:, None] * num_aps
                 + (link_drop * num_schemes * num_aps + serving))
    delta = flags.ravel()[at_ap * num_ues + link_ue]
    # the (S, L) rows are built in place, and freed once read, so that few
    # are alive at once
    diag = zf.ravel()[at_scheme]
    diag *= delta
    np.subtract(noncoh.ravel()[at_ap], diag, out=diag)
    diag += 1.0
    # A - delta_mt L_{S_m}: zero-forcing spends one dimension per distinct
    # strong pilot, but only from the viewpoint of strong UEs
    gain = counts.ravel()[at_scheme]
    gain *= delta
    np.subtract(antennas, gain, out=gain)
    root = np.sqrt(gain)
    # each link's row of the table, as a flat offset
    row = at_scheme * (num_ues + 1)
    del at_scheme
    b = table_w.ravel()[row + link_ue]
    b *= gain
    np.sqrt(b, out=b)
    del gain
    # the table becomes sqrt(p_k gamma_mk) per co-pilot k, its zero
    # column times any power staying zero; in place on the whole table, as
    # on a column slice numpy would buffer the strided rows
    table_w *= np.append(p, 0.0)
    np.sqrt(table_w, out=table_w)
    # runs of one key: each run's first and end pair, its n and its K - 1
    heads = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist()]
    runs = list(zip(heads, [*heads[1:], pairs.size], n[heads].tolist(),
                    (loads[pair_drop[heads]] - 1).tolist()))
    return _systems(table_w.ravel(), row, root, diag, b, copilots, pairs,
                    [0, *end.tolist()], runs)


def _systems(w, row, root, diag, b, copilots, pairs, start, runs):
    """Yield `_lsfd_groups`' systems from its flat weight table `w` and its
    per-link rows. start[i] is pair i's first link, and `runs` lists each
    run of pairs of one key as (first pair, end pair, n, K - 1), in order."""
    num_schemes = len(row)
    # one system stack per n, its Q built one run of equal K at a time
    for size, group in itertools.groupby(runs, operator.itemgetter(2)):
        group = list(group)
        lo, hi = group[0][0], group[-1][1]
        q = np.empty((num_schemes, hi - lo, size, size))
        for a, z, _, width in group:
            shape = (num_schemes, z - a, size)
            links = slice(start[a], start[z])
            c = w[row[:, links].reshape(shape)[..., None]
                  + copilots[:, a:z, None, :width]]
            c *= root[:, links].reshape(shape)[..., None]
            np.matmul(c, c.swapaxes(-1, -2), out=q[:, a - lo:z - lo])
        links = slice(start[lo], start[hi])
        # the diagonal of each n x n block, as a strided view
        q.reshape(-1, size * size)[:, ::size + 1] += diag[:, links].reshape(
            -1, size)
        # contiguous, so that sums over each b_t run as for one assignment
        yield pairs[lo:hi], q, np.ascontiguousarray(
            b[:, links].reshape(num_schemes, hi - lo, size))


def se_uplink(sinr, coherence_block: int, pilot_length: int):
    """Ergodic uplink SE in bits/s/Hz; accepts scalars or arrays."""
    return prelog(coherence_block, pilot_length) * np.log2(1.0 + np.asarray(sinr))


def evaluate_drops(reals, assocs, by_drop, powers, config) -> list:
    """Full pipeline for a stack of drops: gamma, strong grouping,
    closed-form SINR, SE.

    by_drop[d] is a sequence of drop d's pilot assignments, the same number
    for every drop; the drops share M, T and the UE powers. Returns one list
    of `SeReport`s per drop, in assignment order. Each UE scores
    p_t b.Q^{-1} b, its optimal-LSFD SINR. A drop's assignments share one
    strong-set ranking, and the whole stack one batched pass with one
    stacked solve per serving-set size. Co-pilot products are padded to the
    drop's own largest pilot load K, so a drop scores the same bits in any
    stack; the assignments scored beside it set K, so they can move its
    scores at round-off. SINRs are checked on the (D, S, T) stack and the
    first failure in (drop, assignment, UE) order is raised; its message
    names the assignment if a drop has several, and the drop if the stack
    has several.
    """
    by_drop = [list(cell) for cell in by_drop]
    if not reals or not len(reals) == len(assocs) == len(by_drop):
        raise ValueError("need at least one drop, each with its association "
                         "and its assignments")
    num_schemes = len(by_drop[0])
    if not num_schemes or any(len(cell) != num_schemes for cell in by_drop):
        raise ValueError("need at least one pilot assignment per drop, the "
                         "same number for every drop")
    if len({real.beta.shape for real in reals}) > 1:
        raise ValueError("the drops of a stack must share M and T")
    num_drops = len(reals)

    def named(d, i):
        return f"assignment {i}" + (f" of drop {d}" if num_drops > 1 else "")

    for d, cell in enumerate(by_drop):
        for i, pa in enumerate(cell):
            if pa.num_pilots > config.pilot_length:
                raise ValueError(f"{named(d, i)} has {pa.num_pilots} pilots, "
                                 f"more than the pilot length "
                                 f"{config.pilot_length}")
    groupeds = [group_strong_ues(real, assoc, config.strong_threshold, cell,
                                 config.antennas_per_ap)
                for real, assoc, cell in zip(reals, assocs, by_drop)]
    # the gammas, before the set-up allocates its weight table, so that
    # compute_gamma's temporaries never overlap it
    gammas = [compute_gamma(real.beta, powers, config.pilot_length, pa)
              for real, cell in zip(reals, by_drop) for pa in cell]
    score = np.empty((num_schemes, num_drops * reals[0].num_ues))
    for pairs, q, b in _lsfd_groups([real.beta for real in reals], powers,
                                    gammas, groupeds, by_drop,
                                    config.antennas_per_ap):
        score[:, pairs] = np.sum(
            b * np.linalg.solve(q, b[..., None])[..., 0], axis=-1)
    # one pass over the (D, S, T) stack; argwhere meets failures row-major
    sinr = np.multiply(powers.p_uplink, score.reshape(
        num_schemes, num_drops, -1).swapaxes(0, 1), order="C")
    bad = np.argwhere(~(np.isfinite(sinr) & (sinr > 0.0)))
    if bad.size:
        d, i, t = bad[0]
        where = (f" under {named(d, i)}" if num_schemes > 1
                 else f" of drop {d}" if num_drops > 1 else "")
        raise ArithmeticError(
            f"non-finite or non-positive SINR for UE {t}{where}")
    se = se_uplink(sinr, config.coherence_block, config.pilot_length)
    return [[SeReport(sinr=r, se=e, sum_se=float(total))
             for r, e, total in zip(*cell)]
            for cell in zip(sinr, se, se.sum(axis=2))]


def evaluate(real, assoc, assignments, powers, config):
    """`evaluate_drops` on one drop.

    `assignments` is one `PilotAssignment`, which gives one `SeReport`, or a
    sequence of them on this drop, which gives one `SeReport` per assignment
    in order.
    """
    single = isinstance(assignments, PilotAssignment)
    reports, = evaluate_drops([real], [assoc],
                              [[assignments] if single else assignments],
                              powers, config)
    return reports[0] if single else reports
