"""Closed-form uplink performance: optimal-LSFD PFZF SINR, spectral efficiency.

The SINR is evaluated in closed form from large-scale quantities only. For a
UE t served by the APs M_t it is a generalized Rayleigh quotient in the LSFD
weight vector a: signal p_t (a.b)^2 over a.Q a, where Q collects coherent
co-pilot interference plus a diagonal of non-coherent interference and noise.
The optimal weights are therefore Q^{-1} b up to scale, and the optimal SINR
is p_t b.Q^{-1} b (Nayebi et al., "Performance of cell-free massive MIMO
systems with MMSE and LSFD receivers", Asilomar 2016). `evaluate_drops`
scores a stack of drops from this closed form without forming any weight
vector, several pilot assignments per drop (a chunk's cells) at once, in
passes of at most `_PASS_DROPS` drops; `evaluate` scores one
`PilotAssignment`, a (1, 1, T) stack, and adds its SE. `_lsfd_groups`
builds a whole pass from its drops and (D, S, T) int pilots. Its one
one-hot of the pilots, as wide as the pilot length, is read by one
`strong_stack` call, which ranks the drops' strong sets, one `gamma_stack`
call and the co-pilot ranks. It lays the serving links of every unit out
once, a UE under one (drop, assignment) cell, ordered by |M_t| and then by
the cell's largest pilot load K_c, and computes every per-link term of all
cells at once. Each serving-set size is then a contiguous run of links,
whose systems over all cells are built as one stack of bordered matrices
[[Q_t, b_t], [b_t, s_t]] and factored in one Cholesky call: every Q_t is
symmetric positive definite, and the last row of the factor is L^{-1} b_t,
whose squared norm is b_t.Q_t^{-1} b_t.

Each Q_t is built with the co-pilot slots of its own cell's K_c, and the
factorization treats each matrix of its stack on its own, so a cell's SINRs
depend on that cell alone: neither the drops stacked with it, which the
worker count sets, nor the other assignments scored on its drop, which the
scheme list sets, moves a result.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .estimation import gamma_stack
from .network import (require_associations, require_powers, serving_links,
                      strong_stack)

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


# most drops in one `_lsfd_groups` pass, whose peak memory grows with the
# drops it scores, about 0.16 MB a drop at desk scale, while its speed hardly
# does: one 25-drop pass takes a 25-drop stack's peak from 1.9 to 5.3 MB
_PASS_DROPS = 6


def _stack(arrays) -> np.ndarray:
    """The arrays stacked on a new leading axis; one array is viewed, not
    copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _lsfd_groups(reals, assocs, pilot_of, powers, config):
    """The LSFD systems (units, bordered) of one evaluation pass, one per
    serving-set size n in ascending order: `reals` and `assocs` are its D
    drops and their associations, and pilot_of the (D, S, T) int array of
    S complete assignments per drop, each entry in [0, Lp). Cell c = d S + s
    is drop d under its s-th assignment, and unit u = c T + t is UE t of
    cell c: `units` holds the units with |M_t| = n, ordered by their cell's
    largest pilot load K_c and then by u, and `bordered` is
    (N, n + 1, n + 1), unit i's system [[Q, b], [b, s]] at [i]: Q in the
    leading n x n block, b in the last row and column, and in the corner
    s = 1 + b.b / min(D_t). The set-up runs at the call, and an iterator is
    returned.

    b_mt = sqrt((A - delta_mt L_{S_m}) gamma_mt) over m in M_t, and
    Q_t = sum_{k != t on t's pilot} p_k c_k c_k^T + diag(D_t), where c_k is
    b_t with gamma_mk in place of gamma_mt and D_t the non-coherent-plus-noise
    diagonal. D_t >= 1, so every Q_t is symmetric positive definite.

    The set-up writes the gammas into the (D, S, M, T + 1) co-pilot weight
    table, gamma_mk of cell d S + s at [d, s, m, k] and zero in column T,
    and later rewrites it in place. Every per-link scalar is one flat row
    over the links of all units, and the units of one key (n, K_c) are a
    contiguous run of links that reshapes to (N, n). Arrays are built in
    place and freed once read.
    """
    num_drops, num_schemes, num_ues = pilot_of.shape
    num_cells, num_aps = num_drops * num_schemes, reals[0].num_aps
    num_pilots, p = config.pilot_length, powers.p_uplink
    betas = _stack([real.beta for real in reals])
    onehot = np.eye(num_pilots)[pilot_of]
    flags, counts = strong_stack(
        betas, _stack([assoc.serves for assoc in assocs]),
        config.strong_threshold, onehot, config.antennas_per_ap)
    table_w = np.zeros((num_drops, num_schemes, num_aps, num_ues + 1))
    gamma_stack(betas, powers, onehot, out=table_w[..., :num_ues])
    # per AP: sum_k p_k beta_mk, and sum_k p_k gamma_mk over its strong UEs
    noncoh = betas @ p
    zf = ((table_w[..., :num_ues] * flags[:, None]) @ p).ravel()
    # one table row per (cell, pilot) lists that pilot's UEs in ascending
    # order, padded with T to the largest load in the stack. rank[c, t, i]
    # counts the UEs up to t on pilot i, so t's slot in its pilot's row is
    # its own count less one, and rank[c, -1] holds the loads, whose
    # largest is K_c
    pilot_of = pilot_of.reshape(num_cells, num_ues, 1)
    rank = onehot.reshape(num_cells, num_ues, -1).cumsum(1, dtype=np.intp)
    slot = np.take_along_axis(rank, pilot_of, 2) - 1
    loads = rank[:, -1].max(axis=1)
    del rank
    width = int(loads.max())
    table_row = np.arange(num_cells)[:, None, None] * num_pilots + pilot_of
    # (its UE indices as int32, which halves the co-pilot gather)
    table = np.full((num_cells * num_pilots, width), num_ues, dtype=np.int32)
    table[table_row, slot] = np.arange(num_ues)[:, None]

    # units by key (n, K_c), each with its (drop, UE) pair, and each unit's
    # co-pilots: its pilot's row of the table minus its own slot, gathered
    # by flat offsets built in place
    aps, sizes = serving_links(assocs)
    key = (sizes[:, None] * (width + 1)
           + loads.reshape(num_drops, num_schemes, 1)).ravel()
    units = np.argsort(key, kind="stable")
    unit_cell, unit_ue = np.divmod(units, num_ues)
    pair = unit_cell // num_schemes * num_ues + unit_ue
    key, n = key[units], sizes.ravel()[pair]
    j = np.arange(width - 1)
    at = j >= slot[unit_cell, unit_ue]
    at = at + j
    at += table_row[unit_cell, unit_ue] * width
    copilots = table.ravel()[at]
    del at
    # each unit's links, in its priority order, and their flat offsets in
    # a (D, M) and a (D S, M) array
    first = np.cumsum(sizes.ravel()) - sizes.ravel()
    end = np.cumsum(n)
    serving = aps[np.repeat(first[pair] - end + n, n) + np.arange(end[-1])]
    link_cell = np.repeat(unit_cell, n)
    link_ue = np.repeat(unit_ue, n)
    at_ap = link_cell // num_schemes * num_aps + serving
    at_cell = link_cell * num_aps + serving
    del link_cell, serving
    delta = flags.ravel()[at_ap * num_ues + link_ue]
    # the rows are built in place, and freed once read, so that few are
    # alive at once
    diag = zf[at_cell]
    diag *= delta
    np.subtract(noncoh.ravel()[at_ap], diag, out=diag)
    del at_ap
    diag += 1.0
    # A - delta_mt L_{S_m}: zero-forcing spends one dimension per distinct
    # strong pilot, but only from the viewpoint of strong UEs
    gain = counts.ravel()[at_cell]
    gain *= delta
    del delta
    np.subtract(config.antennas_per_ap, gain, out=gain)
    root = np.sqrt(gain)
    # each link's row of the table and its own entry, as flat offsets
    row = at_cell
    row *= num_ues + 1
    link_ue += row
    b = table_w.ravel()[link_ue]
    del at_cell, link_ue
    b *= gain
    np.sqrt(b, out=b)
    del gain
    # each unit's corner s = 1 + b.b / min(D_t): Q >= min(D_t) I, so the
    # Schur complement s - b.Q^{-1} b is at least 1, and the bordered
    # matrix is positive definite whenever Q is
    unit_start = end - n
    corner = np.add.reduceat(b * b, unit_start)
    corner /= np.minimum.reduceat(diag, unit_start)
    corner += 1.0
    # the table becomes sqrt(p_k gamma_mk) per co-pilot k, its zero
    # column times any power staying zero; in place on the whole table, as
    # on a column slice numpy would buffer the strided rows
    table_w *= np.append(p, 0.0)
    np.sqrt(table_w, out=table_w)
    # runs of one key: each run's first and end unit, its n and its K_c - 1
    heads = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist()]
    runs = list(zip(heads, [*heads[1:], units.size], n[heads].tolist(),
                    (loads[unit_cell[heads]] - 1).tolist()))
    return _systems(table_w.ravel(), row, root, diag, b, corner, copilots,
                    units, [0, *end.tolist()], runs)


def _systems(w, row, root, diag, b, corner, copilots, units, start, runs):
    """Yield `_lsfd_groups`' bordered systems from its flat weight table `w`,
    its per-link rows and its per-unit corners. start[i] is unit i's first
    link, and `runs` lists each run of units of one key as (first unit, end
    unit, n, K_c - 1), in order."""
    # one bordered stack per n, its co-pilots gathered once over the widest
    # run's K_c - 1 slots, and its Q block built one run of equal K_c at a
    # time
    for size, group in itertools.groupby(runs, operator.itemgetter(2)):
        group = list(group)
        lo, hi = group[0][0], group[-1][1]
        links = slice(start[lo], start[hi])
        shape = (hi - lo, size, 1)
        c = w[row[links].reshape(shape) + copilots[lo:hi, None, :group[-1][3]]]
        c *= root[links].reshape(shape)
        bordered = np.empty((hi - lo, size + 1, size + 1))
        q = bordered[:, :size, :size]
        for a, z, _, width in group:
            run = c[a - lo:z - lo, :, :width]
            np.matmul(run, run.swapaxes(-1, -2), out=q[a - lo:z - lo])
        del c, run
        # the diagonal of each n x n block, every (n + 2)-th entry of its
        # matrix, as a strided view
        flat = bordered.reshape(-1, (size + 1) ** 2)
        flat[:, :size * (size + 2):size + 2] += diag[links].reshape(-1, size)
        border = b[links].reshape(-1, size)
        bordered[:, size, :size] = bordered[:, :size, size] = border
        bordered[:, size, size] = corner[lo:hi]
        yield units[lo:hi], bordered


def _scores(bordered):
    """b.Q^{-1} b of each bordered system [[Q, b], [b, s]] of a stack. With
    Q = L L^T, the last row of its Cholesky factor is (L^{-1} b,
    sqrt(s - b.Q^{-1} b)), so the score is that row's squared norm without
    its corner, which s never enters. If a system is not positive definite,
    the stack is factored one system at a time, and each failing one scores
    NaN."""
    size = bordered.shape[-1] - 1
    try:
        factor = np.linalg.cholesky(bordered)
    except np.linalg.LinAlgError:
        if len(bordered) == 1:
            return np.full(1, np.nan)
        return np.concatenate([_scores(one) for one in bordered[:, None]])
    last = factor[:, size, :size]
    return np.einsum("ij,ij->i", last, last)


def se_uplink(sinr, coherence_block: int, pilot_length: int):
    """Ergodic uplink SE in bits/s/Hz; accepts scalars or arrays."""
    return prelog(coherence_block, pilot_length) * np.log2(1.0 + np.asarray(sinr))


def evaluate_drops(reals, assocs, pilot_of, powers, config) -> np.ndarray:
    """Closed-form SINR of a stack of drops: gamma, strong grouping, then
    each UE's optimal-LSFD SINR p_t b.Q^{-1} b.

    pilot_of is the (D, S, T) int array of S complete pilot assignments per
    drop, pilot_of[d, s] the s-th of drop d; the drops share M, T and the UE
    powers. Returns the checked (D, S, T) SINRs, assignments in order. Every
    entry must lie in [0, Lp), which is checked here, once, before any drop
    is scored. The drops are scored in passes of at most `_PASS_DROPS`,
    each built by `_lsfd_groups` from its slice of the drops and pilots; a
    pass's cells share one stacked Cholesky factorization per serving-set
    size, each matrix bordered by its b, which scores b.Q^{-1} b without a
    solve. Each (drop, assignment) cell takes co-pilot products of its own
    largest pilot load, so a cell scores the same bits in any stack or pass
    and beside any assignments. A system that does not factor scores NaN,
    and the first failing SINR in (drop, assignment, UE) order names its UE.
    """
    if not reals or not len(reals) == len(assocs) == len(pilot_of):
        raise ValueError("need at least one drop, each with its association "
                         "and its assignments")
    if len({real.beta.shape for real in reals}) > 1:
        raise ValueError("the drops of a stack must share M and T")
    require_associations(reals, assocs)
    pilot_of = np.asarray(pilot_of)
    if (pilot_of.ndim != 3 or not pilot_of.shape[1]
            or pilot_of.shape[2] != reals[0].num_ues):
        raise ValueError("pilot_of must be (D, S, T): at least one pilot "
                         "assignment per drop, one pilot per UE")
    require_powers(powers, pilot_of.shape[2])
    if not np.issubdtype(pilot_of.dtype, np.integer):
        raise ValueError("pilot_of must hold integers, not floats or bools")
    pilot_of = pilot_of.astype(int, copy=False)
    if pilot_of.min() < 0:
        raise ValueError(f"pilot index {pilot_of.min()} is negative: "
                         "evaluation requires a complete assignment")
    if pilot_of.max() >= config.pilot_length:
        raise ValueError(f"pilot index {pilot_of.max()} is not below the "
                         f"pilot length {config.pilot_length}")
    per_drop = pilot_of[0].size
    score = np.empty(pilot_of.size)
    for lo in range(0, len(pilot_of), _PASS_DROPS):
        part = slice(lo, lo + _PASS_DROPS)
        out = score[lo * per_drop:(lo + _PASS_DROPS) * per_drop]
        for units, bordered in _lsfd_groups(reals[part], assocs[part],
                                            pilot_of[part], powers, config):
            out[units] = _scores(bordered)
        # the last system stack is not held through the next pass's set-up
        del bordered
    # argwhere meets the (D, S, T) stack's failures row-major
    sinr = powers.p_uplink * score.reshape(pilot_of.shape)
    bad = np.argwhere(~(np.isfinite(sinr) & (sinr > 0.0)))
    if bad.size:
        raise ArithmeticError(
            f"non-finite or non-positive SINR for UE {bad[0, 2]}")
    return sinr


def evaluate(real, assoc, assignment, powers, config) -> SeReport:
    """One drop under one `PilotAssignment`: its SINRs, the same bits as
    that cell's in any `evaluate_drops` stack, and their SE."""
    if assignment.num_pilots > config.pilot_length:
        raise ValueError(f"an assignment has {assignment.num_pilots} pilots, "
                         f"more than the pilot length {config.pilot_length}")
    sinr = evaluate_drops([real], [assoc], assignment.pilot_of[None, None],
                          powers, config)[0, 0]
    se = se_uplink(sinr, config.coherence_block, config.pilot_length)
    return SeReport(sinr=sinr, se=se, sum_se=float(se.sum()))
