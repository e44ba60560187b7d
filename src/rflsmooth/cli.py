"""Batch command-line front end.

Commands
--------
synth            synthesize gains (pinned point or optimized bound)
sweep            uncertainty sweep CSV (delta2, psa, pf, hurwitz)
mc               Monte Carlo empirical error covariance
reproduce-paper  consolidated comparison against the published references
validate         validate a configuration file

Exit codes: 0 success, 2 configuration error, 3 infeasible, 4 numerical
failure, 5 unstable closed loop.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    bundled_example_path,
    compact_from_config,
    load_config,
    scaling_from_config,
    sim_from_config,
)
from .covariance import SweepRow, delta_sweep, write_sweep_csv
from .errors import ConfigError, InfeasibleError, NumericalError, StationarityError
from .reproduce import format_report, run_reproduction
from .sim import monte_carlo
from .synthesis import compute_gains, minimize_bound, solution_to_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
EXIT_UNSTABLE = 5


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: str, seed, artifacts):
    manifest = {
        "command": command,
        "config": str(config),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "toolkit_version": __version__,
        "master_seed": seed,
        "output_directory": str(out_dir),
        "checksums": {p.name: _sha256(p) for p in artifacts},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _load(args):
    config_path = Path(args.config) if args.config else bundled_example_path()
    doc = load_config(config_path)
    return config_path, doc


def _solution(doc, args):
    compact = compact_from_config(doc, paper_realization=args.paper_realization)
    point, settings = scaling_from_config(doc)
    delayed = args.target_output == "delayed"
    seed = args.seed if args.seed is not None else settings["seed"]
    if point is not None:
        sol = compute_gains(compact, point, delayed_target=delayed)
        trace = []
    else:
        result = minimize_bound(
            compact, tau_bounds=settings["tau_bounds"],
            n_starts=settings["n_starts"], seed=seed,
            lam_high=settings["lam_high"], delayed_target=delayed,
        )
        sol, trace = result.solution, result.trace
    return compact, sol, trace, seed


def cmd_synth(args) -> int:
    config_path, doc = _load(args)
    compact, sol, trace, seed = _solution(doc, args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = solution_to_json(sol, extra={"search_trace": trace})
    out = out_dir / "synthesis.json"
    out.write_text(payload, encoding="utf-8")
    _write_manifest(out_dir, "synth", config_path, seed, [out])
    print(f"Vtau = {sol.Vtau:.6g}  rho(YX) = {sol.rho_yx:.6g}  tau = {sol.point.tau:.6g}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config_path, doc = _load(args)
    compact, sol, _, seed = _solution(doc, args)
    grid = np.linspace(-1.0, 0.0, args.grid)
    rows = delta_sweep(compact, sol, grid)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "sweep.csv"
    write_sweep_csv(rows, out)
    _write_manifest(out_dir, "sweep", config_path, seed, [out])
    stable = sum(r.hurwitz for r in rows)
    print(f"swept {len(rows)} points, {stable} stable; wrote {out}")
    return EXIT_OK


def cmd_mc(args) -> int:
    config_path, doc = _load(args)
    cfg = sim_from_config(doc, runs=args.runs, master_seed=args.seed,
                          estimator=args.estimator)
    compact, sol, _, _ = _solution(doc, args)
    def progress(done, total):
        print(f"\r{done}/{total} runs", end="", file=sys.stderr, flush=True)
    report = monte_carlo(cfg, sol, progress=progress, keep_errors=args.save_errors)
    print("", file=sys.stderr)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "monte_carlo.json"
    doc_out = {"config": dict(cfg.__dict__), **report.to_dict()}
    out.write_text(json.dumps(doc_out, indent=2, sort_keys=True), encoding="utf-8")
    artifacts = [out]
    if args.save_errors:
        err_path = out_dir / "errors.csv"
        with open(err_path, "w", encoding="utf-8") as fh:
            fh.write("run_error\n")
            for e in report.errors:
                fh.write(f"{float(e)!r}\n")
        artifacts.append(err_path)
    _write_manifest(out_dir, "mc", config_path, cfg.master_seed, artifacts)
    print(f"error covariance = {report.error_covariance:.6g} "
          f"+- {report.standard_error:.2g} over {report.runs_completed} runs "
          f"({report.runs_diverged} divergent)")
    if not report.healthy:
        print("warning: more than 1% of runs diverged; report flagged unhealthy")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    report = run_reproduction(realization=args.realization)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sol = report.pop("solution")
    report.pop("compact")
    sweep_rows = report.pop("sweep")

    report_path = out_dir / "reproduction.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    synth_path = out_dir / "synthesis.json"
    synth_path.write_text(solution_to_json(sol), encoding="utf-8")
    sweep_path = out_dir / "sweep.csv"
    write_sweep_csv([SweepRow(*r) for r in sweep_rows], sweep_path)
    _write_manifest(out_dir, "reproduce-paper", "<builtin>", args.seed,
                    [report_path, synth_path, sweep_path])
    report["solution"] = sol
    print(format_report(report))
    return EXIT_OK if report["passed"] else EXIT_NUMERICAL


def cmd_validate(args) -> int:
    config_path, doc = _load(args)
    compact_from_config(doc, paper_realization=args.paper_realization)
    if "simulation" in doc:
        sim_from_config(doc)
    print(f"{config_path}: OK")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rflsmooth",
        description="Robust fixed-lag smoother synthesis and simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="configuration file (default: bundled example)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--paper-realization", action="store_true",
                       help="use the published power-of-two delay realization")
        p.add_argument("--target-output", choices=("printed", "delayed"),
                       default="printed",
                       help="estimation target in the synthesis cost")

    p = sub.add_parser("synth", help="synthesize estimator/smoother gains")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="uncertainty sweep CSV")
    common(p)
    p.add_argument("--grid", type=int, default=21, help="number of sweep points")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mc", help="Monte Carlo error covariance")
    common(p)
    p.add_argument("--runs", type=int, default=None, help="number of runs override")
    p.add_argument("--estimator", choices=("smoother", "ngcf"), default=None)
    p.add_argument("--save-errors", action="store_true",
                   help="persist per-run terminal errors to errors.csv")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("reproduce-paper",
                       help="compare computed values against the published references")
    common(p)
    p.add_argument("--realization", choices=("paper", "balanced"), default="paper",
                   help="delay realization used for the reproduction")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("validate", help="validate a configuration file")
    common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StationarityError as exc:
        print(f"unstable closed loop: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
