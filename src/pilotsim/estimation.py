"""Pilot bookkeeping and MMSE channel-estimation quality metrics.

gamma_mt is the mean square of the MMSE channel estimate at AP m for UE t.
Reusing a pilot inflates the estimator's interference denominator and drags
gamma below its contamination-free ceiling. `local_error_profile` measures
that loss at one AP for every pilot at once; `ContaminationCache` keeps the
one table of running sums it reads and gives it one row per requested AP,
which eem sums over a UE's serving APs (global form) and DPB on a stack of
drops reads per AP (local form). Which UEs an AP hears is fixed by the LSFC
matrix the cache is built from: the full one, or one masked to the links
each AP serves.

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
    "gamma_stack",
    "local_error_profile",
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


def local_error_profile(weighted_own: float, own_beta: float,
                        pilot_sums: np.ndarray) -> np.ndarray:
    """Per-pilot estimation error at one AP for one prospective UE.

    `pilot_sums[i]` is the accumulated contamination sum_{k on pilot i}
    w_k b_mk seen at this AP; column vectors of `weighted_own` and
    `own_beta` against rows of sums give one profile per AP, and a float
    sum gives one pilot's error. The only copy of the error formula: the
    bookkeeping cache calls it on arrays, and the one-drop DPB loop on
    floats, one distinct sum at a time in a probed AP's ranking of its
    pilots by sum, so both produce bit-identical errors. Each rounded step
    must stay monotone in the sum: the loop relies on a pilot's error
    never falling as its sum grows to stop at the first pilot it rejects.
    """
    num = weighted_own * own_beta
    bound = num / (weighted_own + 1.0)
    return bound - num / (weighted_own + pilot_sums + 1.0)


class ContaminationCache:
    """Running per-(AP, pilot) contamination sums for sequential assignment.

    Holding the sums incrementally is what keeps a sequential step at
    O(|M_t| Lp): evaluating a pilot costs one cached read per serving AP
    instead of a fresh pass over all co-pilot UEs. `sums[m, i]` totals
    w_k b_mk over the UEs on pilot i that AP m hears, so it carries the
    factor Lp of w = p_pilot Lp; `scalable` reads its master AP's row, whose
    argmin that factor leaves unchanged. AP m hears the UEs with nonzero
    `beta[m]`: for `dpb` the cache is built from `beta * serves`, so row m
    is AP m's local sum over the UEs it serves, every other UE adding an
    exact 0.0. `record` must be called once per assignment, in arrival
    order; sums then accumulate in the same order as the one-drop float DPB
    loop (`assignment.dpb_arrivals`) adds its floats, which keeps the two
    DPB steps bitwise identical. `local_errors` is the one read
    of the errors: `eem` sums its rows over a UE's serving APs, and `dpb`
    takes one offer per row.

    `beta` is one drop's (M, T) matrix or a (D, M, T) stack of drops that
    share the UE powers. A stack's sums are (D, M, Lp); `record` then takes
    one pilot per drop, `loads` one AP per drop, and `local_errors` a
    (D, S) array of S APs per drop.
    """

    def __init__(self, beta, powers, lp: int):
        self.beta = np.asarray(beta, dtype=float)
        self.w = powers.p_pilot * lp
        self.num_pilots = int(lp)
        # row t is w_t b_mt over all APs (of every drop): one read per record
        by_ue = np.moveaxis(self.beta, -1, 0)
        self.contrib = np.multiply(
            by_ue, self.w.reshape((-1,) + (1,) * (by_ue.ndim - 1)), order="C")
        self.sums = np.zeros(self.beta.shape[:-1] + (lp,))
        # a stack's leading index, pairing each drop with its own pilot or
        # AP (`_each`) or its own row of APs (`_each_row`); none for one drop
        drops = [np.arange(len(self.beta))] if self.beta.ndim == 3 else []
        self._each = tuple(drops)
        self._each_row = tuple(d[:, None] for d in drops)

    def record(self, t: int, pilot):
        """Add UE t on `pilot` at every AP."""
        self.sums[self._each + (slice(None), pilot)] += self.contrib[t]

    def loads(self, m) -> np.ndarray:
        """The running sums at AP m, one entry per pilot."""
        return self.sums[self._each + (m,)]

    def local_errors(self, m, t: int) -> np.ndarray:
        """Local error profile at AP m, one entry per pilot; an index array
        of APs gives one row per AP."""
        at = self._each_row + (m,)
        own = self.beta[at + (t,)][..., None]
        return local_error_profile(self.w[t] * own, own, self.sums[at])
