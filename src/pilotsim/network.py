"""Network geometry, large-scale fading, and AP-UE association structures.

A "drop" is one Monte-Carlo realization of AP and UE positions on a square
area together with the resulting matrix of large-scale fading coefficients
(LSFCs). Everything downstream (pilot assignment, SINR evaluation) consumes
only this large-scale information; no small-scale fading is ever drawn.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import seeding

__all__ = [
    "NetworkConfig",
    "NetworkRealization",
    "PowerProfile",
    "AssociationMap",
    "compute_lsfc",
    "generate_drop",
    "noise_power_dbm",
    "normalize_powers",
    "associate_aps",
    "serving_links",
    "strong_stack",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def require_integer(name: str, value):
    """Reject a count that is not an integer; numpy integers pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_integers(name: str, values) -> np.ndarray:
    """`values` as an int array. Float and bool entries are rejected, which
    a cast would truncate or read as 0 and 1; an empty sequence passes."""
    array = np.asarray(values)
    if array.size and (not np.issubdtype(array.dtype, np.integer)
                       or isinstance(values, (list, tuple))
                       and {bool, np.bool_} & set(map(type, values))):
        raise ValueError(f"{name} must hold integers, not floats or bools")
    return array.astype(int)


def require_number(name: str, value):
    """Reject a value that is not a real number, such as a string or a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """Static system parameters for one simulation scenario.

    `assoc_threshold` is the fraction of a UE's total LSFC mass its serving
    APs must capture; `strong_threshold` plays the same role per AP when
    splitting served UEs into the strong (zero-forced) group.

    The last six fields are the three-slope log-distance path loss of
    :func:`compute_lsfc`. Defaults follow the common 1.9 GHz
    parameterization (15 m AP and 1.65 m UE antenna heights): fixed loss
    140.7 dB at 1 km, breakpoints at 10 m and 50 m, and exponents 0 / 2 / 3.5
    on the three segments. The profile is continuous at both breakpoints by
    construction.
    """

    area_side_m: float = 1000.0
    num_aps: int = 100
    num_ues: int = 100
    antennas_per_ap: int = 8
    bandwidth_hz: float = 20e6
    coherence_block: int = 200
    pilot_length: int = 7
    shadow_sigma_db: float = 8.0
    assoc_threshold: float = 0.95
    strong_threshold: float = 0.95
    tx_power_mw: float = 100.0
    noise_figure_db: float = 9.0
    wrap_around: bool = False
    ref_loss_db: float = 140.7
    d0_m: float = 10.0
    d1_m: float = 50.0
    exp_near: float = 0.0
    exp_mid: float = 2.0
    exp_far: float = 3.5

    def __post_init__(self):
        for name in ("num_aps", "num_ues", "antennas_per_ap", "coherence_block",
                     "pilot_length"):
            require_integer(name, getattr(self, name))
        for name in ("area_side_m", "bandwidth_hz", "shadow_sigma_db",
                     "assoc_threshold", "strong_threshold", "tx_power_mw",
                     "noise_figure_db", "ref_loss_db", "d0_m", "d1_m",
                     "exp_near", "exp_mid", "exp_far"):
            require_number(name, getattr(self, name))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite config value {name}")
        if not isinstance(self.wrap_around, bool):
            raise ValueError(f"wrap_around must be a bool, got {self.wrap_around!r}")
        if self.num_aps < 1 or self.num_ues < 1:
            raise ValueError("need at least one AP and one UE")
        if not 0 < self.pilot_length <= self.coherence_block:
            raise ValueError("pilot length must satisfy 0 < Lp <= Lc")
        if self.antennas_per_ap <= self.pilot_length:
            raise ValueError("partial zero-forcing requires A > Lp")
        if not 0.0 < self.assoc_threshold <= 1.0:
            raise ValueError("assoc_threshold must be in (0, 1]")
        if not 0.0 < self.strong_threshold <= 1.0:
            raise ValueError("strong_threshold must be in (0, 1]")
        if self.area_side_m <= 0 or self.bandwidth_hz <= 0 or self.tx_power_mw <= 0:
            raise ValueError("area, bandwidth and transmit power must be positive")
        if self.shadow_sigma_db < 0:
            raise ValueError("shadow sigma must be nonnegative")
        if not 0.0 < self.d0_m < self.d1_m:
            raise ValueError("breakpoints must satisfy 0 < d0 < d1")
        w = _normalized_power(self) * self.pilot_length
        # the loss is linear in log-distance between 1 m, the breakpoints and
        # the area's largest distance, so those points hold its extremes
        far = self.area_side_m * math.sqrt(2.0) / (2.0 if self.wrap_around else 1.0)
        probes = np.clip([1.0, self.d0_m, self.d1_m, far], 1.0, far)
        losses = _path_loss_db(probes / 1000.0, self)
        with np.errstate(all="ignore"):
            gains = compute_lsfc(probes, config=self)
            for d_m, loss_db, g in zip(probes, losses, gains):
                if not 0.0 < g < math.inf:
                    raise ValueError(f"a path loss of {loss_db:.6g} dB at {d_m:.6g} m "
                                     f"gives an LSFC outside the float range")
                # gamma's numerator, (w b) b in gamma_stack's order; it
                # grows with b, so this holds at every probe iff at the weakest
                if not (w * g) * g > 0.0:
                    raise ValueError(f"a path loss of {loss_db:.6g} dB at {d_m:.6g} m "
                                     f"gives a gamma that underflows to 0")
        # from 2^53 on, gamma's denominator w b + 1 may round to w b, and a
        # lone UE gets gamma = b (1 + eps); a shadowed b can pass max(g)
        at = int(np.argmax(gains))
        if w * gains[at] >= 2.0 ** 53:
            raise ValueError(f"a path loss of {losses[at]:.6g} dB at {probes[at]:.6g} m "
                             f"gives a gamma whose noise term is lost to round-off")


@dataclass(frozen=True)
class NetworkRealization:
    """One drop: node positions plus the M x T linear-scale LSFC matrix."""

    ap_positions: np.ndarray
    ue_positions: np.ndarray
    beta: np.ndarray
    seed: int

    def __post_init__(self):
        ap = np.atleast_2d(np.asarray(self.ap_positions, dtype=float))
        ue = np.atleast_2d(np.asarray(self.ue_positions, dtype=float))
        beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        if beta.shape != (ap.shape[0], ue.shape[0]):
            raise ValueError(f"beta must be {ap.shape[0]}x{ue.shape[0]}, got {beta.shape}")
        if not np.all(np.isfinite(beta)) or np.any(beta <= 0):
            raise ValueError("LSFCs must be positive and finite")
        object.__setattr__(self, "ap_positions", _readonly(ap))
        object.__setattr__(self, "ue_positions", _readonly(ue))
        object.__setattr__(self, "beta", _readonly(beta))

    @property
    def num_aps(self) -> int:
        return self.beta.shape[0]

    @property
    def num_ues(self) -> int:
        return self.beta.shape[1]


@dataclass(frozen=True)
class PowerProfile:
    """Normalized (noise-referenced) SNR per UE for pilots and uplink data."""

    p_pilot: np.ndarray
    p_uplink: np.ndarray

    def __post_init__(self):
        pp = np.asarray(self.p_pilot, dtype=float)
        pu = np.asarray(self.p_uplink, dtype=float)
        if pp.shape != pu.shape:
            raise ValueError("pilot and uplink power vectors must have equal length")
        if np.any(pp <= 0) or np.any(pu <= 0):
            raise ValueError("normalized powers must be positive")
        object.__setattr__(self, "p_pilot", _readonly(pp))
        object.__setattr__(self, "p_uplink", _readonly(pu))


def require_powers(powers: PowerProfile, num_ues: int):
    """Reject a power profile that is not one entry per UE of the drop."""
    if powers.p_pilot.shape != (num_ues,):
        raise ValueError(f"the power profile has length {powers.p_pilot.size}"
                         f", but the drop has {num_ues} UEs")


@dataclass(frozen=True)
class AssociationMap:
    """Serving structure between APs and UEs.

    The boolean `serves[m, t]` is the one record of which AP serves (and
    hears) which UE; AP m's served UEs are `np.flatnonzero(serves[m])`.
    `links` lists the APs serving each UE, UE by UE, each UE's in
    descending LSFC order, the priority order `serves` cannot hold, and
    `sizes` counts them per UE: this flat form is what the batched schemes
    and evaluation read. `serving_aps[t]`, UE t's run of `links`, is built
    on first read. The map holds no strong sets: they do not depend on the
    pilots, but their distinct-pilot counts do, and `strong_stack` ranks the
    sets and counts their pilots for a stack of drops and assignments.
    """

    links: np.ndarray
    sizes: np.ndarray
    serves: np.ndarray

    def __post_init__(self):
        for name, dtype in (("links", int), ("sizes", int), ("serves", bool)):
            object.__setattr__(self, name, _readonly(
                np.asarray(getattr(self, name), dtype=dtype)))
        links, sizes, serves = self.links, self.sizes, self.serves
        if serves.ndim != 2 or links.ndim != 1 or sizes.ndim != 1:
            raise ValueError("serves must be an M x T matrix, and links and "
                             "sizes flat vectors")
        if sizes.size != serves.shape[1]:
            raise ValueError(f"sizes counts {sizes.size} UEs, but serves "
                             f"has {serves.shape[1]}")
        if sizes.size and sizes.min() < 1:
            raise ValueError("every UE needs at least one serving AP")
        if sizes.sum() != links.size:
            raise ValueError(f"sizes counts {sizes.sum()} serving links, "
                             f"but links holds {links.size}")
        if links.size and (links.min() < 0 or links.max() >= serves.shape[0]):
            raise ValueError(f"a serving AP lies outside [0, "
                             f"{serves.shape[0]})")

    @functools.cached_property
    def serving_aps(self) -> tuple:
        """Each UE's serving APs in priority order, as views of `links`."""
        end = np.cumsum(self.sizes).tolist()
        return tuple(self.links[a:b] for a, b in zip([0, *end], end))


def _path_loss_db(d_km, p: NetworkConfig) -> np.ndarray:
    """The three-slope path loss of `p` in dB at distances in km."""
    d0, d1 = p.d0_m / 1000.0, p.d1_m / 1000.0
    # offsets chain the segments together so the profile stays continuous
    mid_off = 10.0 * (p.exp_far - p.exp_mid) * math.log10(d1)
    near_off = mid_off + 10.0 * (p.exp_mid - p.exp_near) * math.log10(d0)
    log_d = np.log10(d_km)
    return np.where(
        d_km > d1,
        p.ref_loss_db + 10.0 * p.exp_far * log_d,
        np.where(
            d_km > d0,
            p.ref_loss_db + mid_off + 10.0 * p.exp_mid * log_d,
            p.ref_loss_db + near_off + 10.0 * p.exp_near * log_d,
        ),
    )


def _lsfc_exponent(d: np.ndarray, shadow_db, p: NetworkConfig) -> np.ndarray:
    """Turn distances `d` in m, in place, into the exponents x of their
    LSFCs 10^x, x = (shadow_db - loss) / 10 with both in dB, and return `d`.

    Every link takes the far slope, and the few within the outer breakpoint
    are then overwritten from `_path_loss_db`, so besides `d` only a mask
    of the far links and the near ones' losses are held. The bits are those
    of the three branches over every link."""
    np.maximum(d, 1.0, out=d)
    d /= 1000.0
    far = d > p.d1_m / 1000.0
    near = np.flatnonzero(~far)
    near_loss = _path_loss_db(d.flat[near], p)
    np.log10(d, out=d)
    d *= 10.0 * p.exp_far
    d += p.ref_loss_db
    d.flat[near] = near_loss
    np.negative(d, out=d)
    # shadowing applies only beyond the outer breakpoint
    np.add(d, shadow_db, out=d, where=far)
    d /= 10.0
    return d


def compute_lsfc(distance_m, shadow_db=0.0, config: NetworkConfig | None = None):
    """Linear-scale LSFC for one distance or an array of distances.

    Path loss follows the three-slope profile of `config` (default
    `NetworkConfig()`); the lognormal shadowing term `shadow_db` is applied
    only beyond the outer breakpoint, where the environment actually
    decorrelates. Distances are clamped to 1 m to avoid the log singularity.
    The result has the broadcast shape of the two inputs, a numpy float for
    scalars; the inputs are never written, as the work runs on a copy.
    """
    p = config if config is not None else NetworkConfig()
    exponent = _lsfc_exponent(
        np.array(np.broadcast_arrays(distance_m, shadow_db)[0], dtype=float),
        shadow_db, p)
    # a scalar takes numpy's scalar power, which may differ in the last bit
    # from the array loop's
    return 10.0 ** (exponent if exponent.ndim else exponent[()])


def _pairwise_distances(ap_pos: np.ndarray, ue_pos: np.ndarray,
                        wrap_side: float | None) -> np.ndarray:
    """The (M, T) AP-UE distances, built in two (M, T) buffers."""
    dx, dy = (ap_pos[:, i, None] - ue_pos[:, i] for i in (0, 1))
    if wrap_side is not None:
        # shortest distance over the 3x3 torus images, axis by axis:
        # min(d, side - d) in place, since for 0 <= d <= side, side - d is
        # exact where d > side / 2 (Sterbenz) and at least d elsewhere
        for d in (dx, dy):
            np.abs(d, out=d)
            np.subtract(wrap_side, d, out=d, where=d > wrap_side / 2)
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def generate_drop(config: NetworkConfig, seed: int) -> NetworkRealization:
    """Draw one reproducible network drop.

    AP and UE positions are i.i.d. uniform on the square. Identical
    (config, seed) pairs produce bit-identical output. AP positions, UE
    positions, and shadowing come from three independently spawned streams,
    and the per-UE quantities are drawn UE-major, so rerunning the same seed
    with extra UEs appended leaves the first T columns of beta unchanged.
    The set-up holds at most three (M, T) float arrays at its peak: the
    distances are built in two buffers, and the shadowing, drawn after
    them, sits beside the one that becomes beta in place.
    """
    ap_rng, ue_rng, sh_rng = seeding.drop_streams(seed)
    side = config.area_side_m
    ap_pos = ap_rng.uniform(0.0, side, size=(config.num_aps, 2))
    ue_pos = ue_rng.uniform(0.0, side, size=(config.num_ues, 2))
    beta = _pairwise_distances(ap_pos, ue_pos,
                               side if config.wrap_around else None)
    shadow = sh_rng.normal(0.0, config.shadow_sigma_db,
                           size=(config.num_ues, config.num_aps)).T
    np.power(10.0, _lsfc_exponent(beta, shadow, config), out=beta)
    return NetworkRealization(ap_pos, ue_pos, beta, int(seed))


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power over the signal bandwidth, in dBm."""
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def _normalized_power(config: NetworkConfig) -> float:
    """Transmit over noise power, linear; rejected unless a positive float."""
    tx_dbm = 10.0 * math.log10(config.tx_power_mw)
    snr_db = tx_dbm - noise_power_dbm(config.bandwidth_hz, config.noise_figure_db)
    try:
        p = 10.0 ** (snr_db / 10.0)
        if p > 0.0:
            return p
    except OverflowError:
        pass
    raise ValueError(f"tx_power_mw, bandwidth_hz and noise_figure_db give a "
                     f"noise-normalized power of {snr_db:.6g} dB, outside the "
                     f"float range")


def normalize_powers(config: NetworkConfig) -> PowerProfile:
    """Noise-normalized SNR per UE; pilots and data share one power budget."""
    per_ue = np.full(config.num_ues, _normalized_power(config))
    return PowerProfile(per_ue, per_ue.copy())


def _top_share(values: np.ndarray, share: float) -> tuple:
    """Each row's entries ranked largest first, ties in column order, and
    the length of the smallest ranked prefix holding `share` of the row's
    sum. Zero entries are never chosen, so their order does not matter;
    any sort gives this order on rows without positive ties, an ascending
    one read backwards included, and only those rows need the stable one.
    Two arrays of the shape of `values` are held: the ranking and the
    ranked entries, summed in place; the first sort needs no negated copy."""
    order = np.argsort(values, axis=1)[:, ::-1]
    ranked = values[np.arange(len(values))[:, None], order]
    tied = ((ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] > 0)).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(-values[tied], axis=1, kind="stable")
    csum = ranked.cumsum(axis=1, out=ranked)
    return order, (csum < share * csum[:, -1:]).sum(axis=1) + 1


def associate_aps(real: NetworkRealization, assoc_threshold: float) -> AssociationMap:
    """Serving sets per UE: smallest descending-LSFC prefix of APs capturing
    `assoc_threshold` of the UE's total LSFC mass across all APs."""
    if not 0.0 < assoc_threshold <= 1.0:
        raise ValueError("assoc_threshold must be in (0, 1]")
    num_aps, num_ues = real.beta.shape
    order, size = _top_share(real.beta.T, assoc_threshold)
    # each UE's ranking cut to its serving prefix, UE by UE
    links = order[np.arange(num_aps) < size[:, None]]
    serves = np.zeros((num_aps, num_ues), dtype=bool)
    serves[links, np.repeat(np.arange(num_ues), size)] = True
    return AssociationMap(links, size, serves)


def require_associations(reals, assocs):
    """Reject an association that does not fit its drop: its `serves` must
    be the drop's M x T."""
    for real, assoc in zip(reals, assocs):
        if assoc.serves.shape != real.beta.shape:
            raise ValueError("an association of {} APs and {} UEs does not fit"
                             " a drop of {} APs and {} UEs".format(
                                 *assoc.serves.shape, *real.beta.shape))


def serving_links(assocs) -> tuple:
    """The serving sets of a stack of D associations as one flat array,
    drop by drop and UE by UE, each set in its priority order; and their
    (D, T) sizes."""
    return (np.concatenate([assoc.links for assoc in assocs]),
            np.stack([assoc.sizes for assoc in assocs]))


def strong_stack(betas, serves, strong_threshold: float, onehot,
                 antennas_per_ap: int) -> tuple:
    """Per-AP strong-UE grouping of D drops, each ranked once for its S
    assignments: betas and serves are (D, M, T), and onehot is the
    (D, S, T, Lp) one-hot of their complete pilots.

    At each AP the served UEs are ranked by LSFC, and the smallest prefix holding
    `strong_threshold` of the AP's served LSFC mass is the strong set, whatever
    the pilots. Its distinct-pilot count under each assignment is the zero-forcing
    dimension spent at the AP and must stay below the antenna count. Returns the
    (D, M, T) strong flags and (D, S, M) counts, or raises for the first
    offending (drop, assignment, AP). The count is at most the pilot length,
    which `NetworkConfig` keeps below `antennas_per_ap`, so this check cannot
    fire through `evaluate_drops`; it guards direct calls.
    """
    if not 0.0 < strong_threshold <= 1.0:
        raise ValueError("strong_threshold must be in (0, 1]")
    num_drops, num_aps, num_ues = serves.shape
    # each (drop, AP)'s served links in one row, padded to the largest
    # degree with zeros, which are never chosen and leave the sums unchanged
    link_rows, link_ues = np.divmod(np.flatnonzero(serves), num_ues)
    degree = np.bincount(link_rows, minlength=num_drops * num_aps)
    start = np.cumsum(degree) - degree
    slot = np.arange(link_rows.size) - start[link_rows]
    padded = np.zeros((degree.size, int(degree.max())))
    padded[link_rows, slot] = betas.reshape(-1, num_ues)[link_rows, link_ues]
    order, size = _top_share(padded, strong_threshold)
    size[degree == 0] = 0
    strong = (start[:, None] + order)[np.arange(padded.shape[1]) < size[:, None]]
    # the strong flags as 0/1 floats, which the one-hot product reads as is
    weights = np.zeros(serves.shape)
    weights.reshape(-1, num_ues)[link_rows[strong], link_ues[strong]] = 1.0
    # an AP's strong UEs per pilot under each assignment, and so the
    # distinct pilots among them
    counts = np.count_nonzero(weights[:, None] @ onehot, axis=-1)
    # the first offending AP of the first offending (drop, assignment)
    for d, s, m in np.argwhere(counts >= antennas_per_ap)[:1]:
        raise ValueError(f"AP {m} would zero-force {counts[d, s, m]} pilots with only "
                         f"{antennas_per_ap} antennas")
    return weights > 0.0, counts
