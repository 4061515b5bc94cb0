"""Command-line front end for the experiment harness."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import seeding
from .assignment import SCHEME_IDS, SchemeConfig, assign_drops
from .harness import (DPB_OPTIONS, CellError, ExperimentSpec, _write_atomic,
                      _write_meta, cell_seeds, emit_cdf, run_experiment)
from .network import (NetworkConfig, associate_aps, generate_drop,
                      normalize_powers)
from .protocol import BudgetViolation, audit_overhead, run_protocol

_NETWORK_KEYS = {f.name for f in dataclasses.fields(NetworkConfig)}

# command -> (swept field, paper-style full-scale values, desk-scale values);
# `--values` casts to the type of the defaults, and `cdf` sweeps nothing
_SWEEPS = {
    "sweep-ues": ("ue_count", (20, 40, 60, 80, 100), (30, 40, 50, 60)),
    "sweep-pilots": ("pilot_length", (5, 7, 9, 11, 13, 15), (5, 7, 9, 11)),
    "sweep-assoc": ("assoc_threshold", (0.8, 0.85, 0.9, 0.95, 0.99),
                    (0.8, 0.9, 0.95, 0.99)),
    "cdf": ("none", None, None),
}


def load_config_file(path) -> tuple:
    """Flat JSON config; every key must name a known field."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("config file must hold a flat JSON object")
    unknown = sorted(set(data) - _NETWORK_KEYS - set(DPB_OPTIONS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return ({k: v for k, v in data.items() if k in _NETWORK_KEYS},
            {k: v for k, v in data.items() if k in DPB_OPTIONS})


def _add_common(sub, runs_schemes: bool):
    sub.add_argument("--config", help="flat JSON config file")
    if runs_schemes:
        sub.add_argument("--scheme", default=",".join(SCHEME_IDS),
                         help="comma-separated scheme ids (default: all)")
    sub.add_argument("--drops", type=int, default=None,
                     help="Monte-Carlo drops (default 200, desk 50)"
                     if runs_schemes
                     else "drops audited (default 10, also with --desk-scale)")
    sub.add_argument("--seed", type=int, default=1, help="master seed")
    sub.add_argument("--out", default="results", help="output directory")
    sub.add_argument("--desk-scale", action="store_true",
                     help="reduced preset: M=30, T=50"
                     + (", 50 drops" if runs_schemes else ""))
    if runs_schemes:
        sub.add_argument("--workers", type=int, default=1,
                         help="parallel drop workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotsim",
        description="Pilot assignment and uplink SE simulator for "
                    "distributed massive MIMO")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("sweep-ues", "sum SE vs number of UEs"),
                       ("sweep-pilots", "sum SE vs pilot length (A=16)"),
                       ("sweep-assoc", "sum SE vs association threshold"),
                       ("cdf", "per-user SE distribution"),
                       ("protocol-audit", "message-passing overhead audit")):
        p = sub.add_parser(name, help=text)
        _add_common(p, runs_schemes=name != "protocol-audit")
        if name.startswith("sweep"):
            p.add_argument("--values", default=None,
                           help="comma-separated sweep values")
    return parser


def _resolve(args):
    """Network config, DPB options and drop count. Precedence: defaults <
    desk preset < subcommand preset < config file."""
    net, scheme_opts = {}, {}
    if args.desk_scale:
        net.update(num_aps=30, num_ues=50)
    if args.command == "sweep-pilots":
        net.setdefault("antennas_per_ap", 16)
    if args.config:
        file_net, scheme_opts = load_config_file(args.config)
        net.update(file_net)
    drops = args.drops
    if drops is None:
        drops = (10 if args.command == "protocol-audit"
                 else 50 if args.desk_scale else 200)
    return NetworkConfig(**net), SchemeConfig("dpb", **scheme_opts), drops


def _run_sweep(args) -> int:
    """The sweeps, and `cdf` as the `none` sweep with per-user detail."""
    config, dpb, drops = _resolve(args)
    sweep, full, desk = _SWEEPS[args.command]
    if sweep == "none":
        values = (config.num_ues,)
    elif args.values is not None:
        cast = type(full[0])
        try:
            values = tuple(map(cast, args.values.split(",")))
        except ValueError:
            raise ValueError(f"--values takes comma-separated {cast.__name__}s, "
                             f"got {args.values!r}") from None
    else:
        values = desk if args.desk_scale else full
    schemes = tuple(s.strip() for s in args.scheme.split(","))
    if not all(schemes):
        raise ValueError(f"--scheme takes comma-separated scheme ids, "
                         f"got {args.scheme!r}")
    spec = ExperimentSpec(config=config, sweep=sweep, sweep_values=values,
                          schemes=schemes, num_drops=drops,
                          master_seed=args.seed, output_dir=args.out,
                          name=args.command.replace("-", "_"), dpb=dpb,
                          workers=args.workers)
    rows, paths = run_experiment(spec)
    if sweep != "none":
        print("\n".join(f"{label}: {p}" for label, p in paths.items()))
        return 0
    cdfs = [emit_cdf(rows, s, Path(args.out) / f"cdf_cdf_{s}.csv") for s in schemes]
    print("\n".join(map(str, [*paths.values(), *cdfs])))
    return 0


def _run_protocol_audit(args) -> int:
    """Audit drop d as sweep cell (0, d): the drop and dpb seed it gets there.
    The output directory and its meta are made before the first drop."""
    config, dpb, drops = _resolve(args)
    if drops < 1:
        raise ValueError(f"drops must be >= 1, got {drops}")
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_meta(out_dir / "protocol_audit_meta.json", config, dpb, drops,
                args.seed)
    powers = normalize_powers(config)
    totals = {"messages": 0, "payload": 0, "ap_to_ap": 0}
    drop_seeds, (dpb_seeds,) = cell_seeds(args.seed, 0, range(drops),
                                          ("dpb",))
    for di, (drop_seed, seed) in enumerate(zip(drop_seeds, dpb_seeds)):
        scheme = dataclasses.replace(dpb, seed=seed)
        real = generate_drop(config, drop_seed)
        assoc = associate_aps(real, config.assoc_threshold)
        order = seeding.arrival_order(args.seed, di, real.num_ues)
        negotiated, log = run_protocol(real, assoc, scheme, order, powers,
                                       config.pilot_length)
        try:
            report = audit_overhead(log, assoc, scheme.dpb_s)
        except BudgetViolation as exc:
            print(f"drop {di}: BUDGET VIOLATION: {exc}", file=sys.stderr)
            return 1
        # the numpy step on the drop stacked with itself: one drop would
        # step on the float loop that the negotiation ran
        direct = assign_drops(scheme, [seed] * 2, [real] * 2, [assoc] * 2,
                              powers, config.pilot_length, order)[0]
        if not np.array_equal(negotiated.pilot_of, direct):
            print(f"drop {di}: protocol/direct assignment mismatch",
                  file=sys.stderr)
            return 1
        totals["messages"] += report["total_messages"]
        totals["payload"] += report["total_payload"]
        totals["ap_to_ap"] += report["ap_to_ap"]
        if di == 0:
            trace = out_dir / "protocol_trace.txt"
            _write_atomic(trace, "\n".join(log.export_lines()) + "\n")
            print(f"trace: {trace}")
    print(f"drops audited: {drops}")
    print(f"total messages: {totals['messages']}")
    print(f"total payload (pilot indices): {totals['payload']}")
    print(f"ap-to-ap messages: {totals['ap_to_ap']}")
    print("per-UE budget: OK (2*S' probes/offers + |M_t| notifies)")
    print("protocol matches direct assignment: OK")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in _SWEEPS:
            return _run_sweep(args)
        return _run_protocol_audit(args)
    # np.linalg.LinAlgError is a ValueError; an unusable path is an OSError
    except (ValueError, OSError, ArithmeticError, CellError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
