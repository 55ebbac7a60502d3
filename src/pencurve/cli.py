"""Command-line driver: fit, check, oracle, plot, conjecture.

Exit codes: 0 success (theory-check failures are findings, not errors),
2 usage/input problems, 3 resource refusals, 4 numeric failures. Every
output file embeds the run manifest, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .curve import Polyline
from .diagnostics import full_report
from .errors import (
    BudgetExceededError,
    ConfigError,
    DimensionMismatchError,
    NumericError,
    ParseError,
    PencurveError,
)
from .measure import DiscreteMeasure, load_measure
from .optimizer import FitConfig, conjecture_search, fit
from .oracle import OracleConfig, brute_force_min, certify_fit, golden_record
from .svgplot import render_svg

USAGE_ERR, BUDGET_ERR, NUMERIC_ERR = 2, 3, 4


def _manifest(command: str, args: argparse.Namespace, inputs: dict) -> dict:
    cfg = {k: str(v) if isinstance(v, Path) else v for k, v in sorted(vars(args).items())
           if k != "func"}
    return {
        "command": command,
        "config": cfg,
        "inputs": inputs,
        "version": __version__,
        "seed": getattr(args, "seed", None),
    }


def _write_artifact(path: Path, text: str) -> None:
    """Write text to path over its old bytes, then cut the file to the new length.

    Opening with O_TRUNC, as Path.write_text does, can make ext4 wait for
    the previous write's writeback, up to tens of milliseconds per rewrite;
    writing in place does not. A symlink is written through, and an existing file
    keeps its mode.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as f:
        f.write(text)
        f.truncate()


def _dump_json(path: Path, payload: dict) -> None:
    _write_artifact(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _read_measure(path: Path, fmt: str | None) -> tuple[DiscreteMeasure, dict]:
    """The measure in path, and the manifest's inputs: {path: sha256 of the bytes parsed}."""
    data = path.read_bytes()
    fmt = fmt or ("json" if path.suffix.lower() == ".json" else "csv")
    return load_measure(data, fmt), {str(path): hashlib.sha256(data).hexdigest()}


def _read_curve(path: Path, mu: DiscreteMeasure, inputs: dict) -> Polyline:
    """The curve in path, refused unless it is in range and has mu's dimension."""
    data = path.read_bytes()
    inputs[str(path)] = hashlib.sha256(data).hexdigest()  # of the bytes parsed
    try:
        curve = Polyline.from_dict(json.loads(data.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"curve file {path} is not UTF-8 JSON: {exc}") from exc
    if mu.dim != curve.dim:
        raise DimensionMismatchError(f"measure d={mu.dim} vs curve d={curve.dim}")
    return curve


def cmd_fit(args) -> int:
    mu, inputs = _read_measure(args.measure, args.format)
    cfg = FitConfig(
        p=args.p, lam=args.lam, m_init=args.m_init, m_max=args.m_max,
        restarts=args.restarts, seed=args.seed,
    ).resolved(mu)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # bad settings and a bad --out fail before the fit
    result = fit(mu, cfg)
    report = full_report(mu, result.curve, cfg.p, cfg.lam)
    manifest = _manifest("fit", args, inputs)
    _dump_json(out / "curve.json", {"manifest": manifest, **result.curve.to_dict()})
    _dump_json(out / "result.json", {"manifest": manifest, **result.to_dict()})
    _dump_json(out / "report.json", {"manifest": manifest, **report.to_dict()})
    if args.svg:
        svg = render_svg(mu, result.curve,
                         comment=json.dumps(manifest, sort_keys=True))
        _write_artifact(out / "plot.svg", svg)
    print(f"energy {result.breakdown.total:.9g}  length {result.curve.total_length:.9g}  "
          f"vertices {result.curve.n_vertices}  status {result.status}")
    print(report.table())
    return 0


def cmd_check(args) -> int:
    mu, inputs = _read_measure(args.measure, args.format)
    curve = _read_curve(args.curve, mu, inputs)
    report = full_report(mu, curve, args.p, args.lam)
    manifest = _manifest("check", args, inputs)
    out = Path(args.out)
    if out.is_dir():
        out = out / "report.json"
    _dump_json(out, {"manifest": manifest, **report.to_dict()})
    print(report.table())
    return 0


def cmd_oracle(args) -> int:
    mu, inputs = _read_measure(args.measure, args.format)
    fitted = _read_curve(args.curve, mu, inputs) if args.curve else None  # before the search
    ocfg = OracleConfig(m=args.m, h=args.grid_h, p=args.p, lam=args.lam, budget=args.budget)
    curve, energy_val = brute_force_min(mu, ocfg)
    payload = {
        "manifest": _manifest("oracle", args, inputs),
        "oracle": golden_record(mu, ocfg, curve, energy_val),
    }
    if fitted is not None:
        payload["certify"] = certify_fit(mu, fitted, ocfg, found=(curve, energy_val))
    _dump_json(Path(args.out), payload)
    print(f"oracle energy {energy_val:.9g} with {curve.n_vertices} vertices at h={args.grid_h}")
    if "certify" in payload:
        print(f"certification: {payload['certify']['status']}")
    return 0


def cmd_plot(args) -> int:
    mu, inputs = _read_measure(args.measure, args.format)
    if mu.dim != 2:
        raise DimensionMismatchError("plotting needs a 2-D measure")
    curve = _read_curve(args.curve, mu, inputs) if args.curve else None
    manifest = _manifest("plot", args, inputs)
    svg = render_svg(mu, curve, comment=json.dumps(manifest, sort_keys=True))
    _write_artifact(Path(args.out), svg)
    print(f"wrote {args.out}")
    return 0


def cmd_conjecture(args) -> int:
    if not 1.0 <= args.p < 2.0:
        raise ConfigError(
            f"p={args.p} is outside [1, 2): for p >= 2 minimizing curves are "
            "provably injective, so there is nothing to search"
        )
    candidates = conjecture_search(p=args.p, budget=args.budget, seed=args.seed,
                                   restarts=args.restarts)
    payload = {"manifest": _manifest("conjecture", args, {}), "n_candidates": len(candidates),
               "candidates": candidates}
    _dump_json(Path(args.out), payload)
    print(f"{len(candidates)} self-intersecting stationary candidates "
          f"out of {args.budget} instances")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencurve",
        description="Fit length-penalized principal curves to weighted point "
                    "clouds and certify the geometric properties of the result.",
    )
    parser.add_argument("--version", action="version", version=f"pencurve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_measure_arg(sp):
        sp.add_argument("measure", type=Path, help="measure file (CSV or JSON)")
        sp.add_argument("--format", choices=("csv", "json"), default=None,
                        help="input format (default: by file extension)")

    sp = sub.add_parser("fit", help="fit a penalized principal curve")
    add_measure_arg(sp)
    sp.add_argument("--p", type=float, required=True, help="distance exponent, p >= 1")
    sp.add_argument("--lambda", dest="lam", type=float, required=True,
                    help="length penalty weight, > 0")
    sp.add_argument("--m-init", type=int, default=None, help="initial vertex count")
    sp.add_argument("--m-max", type=int, default=None, help="vertex budget")
    sp.add_argument("--restarts", type=int, default=1, help="independent jittered restarts")
    sp.add_argument("--seed", type=int, default=0, help="seed for restart jitter")
    sp.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sp.add_argument("--svg", action="store_true", help="also write plot.svg")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("check", help="run the theory certificates on a given curve")
    add_measure_arg(sp)
    sp.add_argument("curve", type=Path, help="curve JSON file")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--out", type=Path, default=Path("report.json"))
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("oracle", help="exhaustive grid-search minimum on a tiny instance")
    add_measure_arg(sp)
    sp.add_argument("--m", type=int, required=True, help="oracle vertex count (<= 4)")
    sp.add_argument("--h", dest="grid_h", type=float, required=True, help="grid resolution")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--curve", type=Path, default=None, help="fitted curve to certify")
    sp.add_argument("--budget", type=float, default=1e9, help="pair-cost evaluation budget")
    sp.add_argument("--out", type=Path, default=Path("oracle.json"))
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("plot", help="render measure (and optional curve) to SVG")
    add_measure_arg(sp)
    sp.add_argument("--curve", type=Path, default=None)
    sp.add_argument("--out", type=Path, default=Path("plot.svg"))
    sp.set_defaults(func=cmd_plot)

    sp = sub.add_parser("conjecture", help="search for non-injective stationary fits (1 <= p < 2)")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--budget", type=int, default=20, help="number of random instances")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--restarts", type=int, default=4)
    sp.add_argument("--out", type=Path, default=Path("candidates.json"))
    sp.set_defaults(func=cmd_conjecture)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_ERR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return BUDGET_ERR
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERR
    except (PencurveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERR


if __name__ == "__main__":
    sys.exit(main())
