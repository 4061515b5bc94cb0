"""Pilot bookkeeping and MMSE channel-estimation quality metrics.

gamma_mt is the mean square of the MMSE channel estimate at AP m for UE t.
Reusing a pilot inflates the estimator's interference denominator and drags
gamma below its contamination-free ceiling. The estimation error measures
that loss at one AP for every pilot at once, in two halves, each written
once: a per-link half (`error_terms`) that no pilot sum moves and a per-sum
half (`sum_errors`). `ContaminationCache` keeps the one table of running
sums they are scored against: eem sums a UE's errors over its serving APs
(global form), and DPB reads them per probed AP (local form). Which UEs an
AP hears is fixed by the LSFC matrices the cache is built from: the full
ones, or ones masked to the links each AP serves.

All arithmetic stays in linear scale and double precision: the errors are
differences of near-equal ratios and would not survive dB-domain round trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import require_integer, require_integers

__all__ = [
    "PilotAssignment",
    "ContaminationCache",
    "error_terms",
    "gamma_stack",
    "sum_errors",
]


@dataclass(frozen=True)
class PilotAssignment:
    """Pilot index per UE, -1 while a UE is still unassigned."""

    pilot_of: np.ndarray
    num_pilots: int

    def __post_init__(self):
        require_integer("num_pilots", self.num_pilots)
        pilots = require_integers("pilot_of", self.pilot_of)
        if pilots.ndim != 1:
            raise ValueError("pilot_of must be a flat vector")
        if self.num_pilots < 1:
            raise ValueError("need at least one pilot")
        if np.any(pilots < -1) or np.any(pilots >= self.num_pilots):
            raise ValueError("pilot indices must be -1 or in [0, num_pilots)")
        pilots.flags.writeable = False
        object.__setattr__(self, "pilot_of", pilots)


def gamma_stack(betas, powers, onehot, out=None) -> np.ndarray:
    """gamma_mt = w_t b_mt^2 / (sum_{k in P_{i_t}} w_k b_mk + 1) of D drops,
    each under S complete pilot assignments; the sum runs over every UE on
    t's pilot, t itself included, so the denominator is >= w_t b_mt + 1.
    betas is (D, M, T) and onehot the (D, S, T, Lp) one-hot of the pilots,
    as wide as the pilot length whatever the pilots, so a cell's sums take
    one order in any stack. The (D, S, M, T) gammas are written into `out`
    if given, and returned. The first failing (drop, assignment) raises.
    """
    weighted = (powers.p_pilot * onehot.shape[-1]) * betas
    # sum_{k on pilot i} w_k b_mk per (drop, assignment, m, i), then each
    # UE's own pilot's sum through the one-hot again, exact as its other
    # terms are exact zeros; then gamma, in place, over the numerators
    # w_t b_mt^2
    out = np.matmul(weighted[:, None] @ onehot, onehot.swapaxes(-1, -2),
                    out=out)
    out += 1.0
    weighted *= betas
    np.divide(weighted[:, None], out, out=out)
    # both checks in one pass, which a NaN gamma fails too; which check
    # failed is asked only of the first failing cell, to pick the message
    ok = out <= betas[:, None]
    ok &= out > 0
    for d, s in np.argwhere(~ok.all(axis=(2, 3)))[:1]:
        if np.any(out[d, s] > betas[d]):
            raise AssertionError("gamma exceeded beta; inputs are inconsistent")
        raise ValueError("gamma must be positive and finite")
    return out


def error_terms(weighted_own, own_beta) -> tuple:
    """The per-link half of the estimation error: num = w_t b_mt b_mt and
    the contamination-free bound num / (w_t b_mt + 1), which no pilot sum
    moves; floats, or arrays of links."""
    num = weighted_own * own_beta
    return num, num / (weighted_own + 1.0)


def sum_errors(num, bound, weighted_own, pilot_sums):
    """The per-sum half: UE t's estimation errors at AP m for the link
    terms of `error_terms`, w_t b_mt and the contamination sums
    `pilot_sums`, each sum_{k on pilot i} w_k b_mk over the UEs that AP m
    hears on pilot i, bound - num / ((w_t b_mt + sum) + 1); floats, or
    columns of links against rows of sums.

    Each rounded step is monotone in the sum, so an error never falls as
    its sum grows, in floats as in exact arithmetic: the one-drop DPB loop
    (`assignment._offer`) relies on that to stop at the first pilot it
    rejects in its ranking by sum. Every caller, on floats or on arrays,
    scores the same expression and so the same bits.
    """
    return bound - num / (weighted_own + pilot_sums + 1.0)


class ContaminationCache:
    """Running per-(AP, pilot) contamination sums for sequential assignment.

    Holding the sums incrementally is what keeps a sequential step at
    O(|M_t| Lp): evaluating a pilot costs one cached read per serving AP
    instead of a fresh pass over all co-pilot UEs. The cache holds a stack
    of D drops that share the UE powers, given as D (M, T) LSFC matrices;
    `sums[d, m, i]` totals w_k b_mk over the UEs on pilot i that AP m of
    drop d hears, so it carries the factor Lp of w = p_pilot Lp, which
    `scalable`'s argmin at its master AP leaves unchanged. AP m hears the
    UEs with nonzero `beta[m]`: for `dpb` the matrices are `beta * serves`,
    so an AP's sums are local to the UEs it serves, every other UE adding
    an exact 0.0. `record` must be called once per UE, in arrival order;
    sums then accumulate in the same order as the one-drop float DPB loop
    (`assignment.dpb_arrivals`) adds its floats, which keeps the two DPB
    steps bitwise identical. The steps read `sums` directly, scoring them
    with `sum_errors` against link terms built once per call.

    `betas` holds D (M, T) matrices. A stack's sums are (D, M, Lp), and
    `record` takes one pilot per drop; one drop's are (M, Lp), and `record`
    takes one int.
    """

    def __init__(self, betas, powers, lp: int):
        # a stack's LSFCs in one (D, M, T) array; one drop's read uncopied
        heard = (np.asarray(betas[0])[None] if len(betas) == 1
                 else np.stack(betas))
        # row t is w_t b_mt over every drop's APs, one read per record:
        # copied UE-major, then scaled in place, which needs a smaller
        # iteration buffer than one product with the transposed LSFCs
        contrib = np.array(np.moveaxis(heard, -1, 0), dtype=float, order="C")
        contrib *= (powers.p_pilot * lp)[:, None, None]
        self.sums = np.zeros(heard.shape[:-1] + (lp,))
        if len(betas) == 1:
            # one drop's tables lose the drop axis, so its picks are ints:
            # a basic index, at about a third of the cost of an index array
            contrib, self.sums = contrib[:, 0], self.sums[0]
        self.contrib = contrib
        # a stack's leading index, pairing each drop with its own pick
        self._each = (np.arange(len(betas)),)[:self.sums.ndim - 2]

    def record(self, t: int, pilot):
        """Add UE t on `pilot` at every AP: one int for one drop, one per
        drop for a stack."""
        self.sums[self._each + (slice(None), pilot)] += self.contrib[t]
