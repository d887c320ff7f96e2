"""Command-line experiment runner.

Exit codes: 0 success, 1 partial run failures, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .errors import ConfigError, DomainError
from .experiments import (PARAM_PRESETS, SPECTRAL_SOURCES, ExperimentConfig,
                          cmd_ablate, cmd_logistic, cmd_params, cmd_spectral,
                          cmd_sweep, format_logistic_report,
                          format_params_table)
from .plotting import FigureSpec, emit_plot


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _load_config(args) -> ExperimentConfig:
    """The config file with `--out` and `--seed-override` applied; the
    result passes the config's own checks."""
    cfg = ExperimentConfig.load(args.config)
    if args.out:
        cfg = replace(cfg, outputs_dir=args.out)
    if getattr(args, "seed_override", None) is not None:
        cfg = replace(cfg, seeds=_parse_int_list(args.seed_override))
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceralab",
        description="adapter experiments on a tiny frozen transformer")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="override the config's outputs_dir")
        p.add_argument("--jobs", type=int, default=1,
                       help="concurrent runs (default 1)")
        p.add_argument("--seed-override", help="comma-separated seeds")

    p_sweep = sub.add_parser("sweep", help="method x rank x seed grid")
    add_config_flags(p_sweep)

    p_ablate = sub.add_parser("ablate", help="five-variant ablation at one rank")
    add_config_flags(p_ablate)

    p_spec = sub.add_parser("spectral", help="spectrum report for a stored run")
    p_spec.add_argument("--config", required=True)
    p_spec.add_argument("--out", help="override the config's outputs_dir")
    p_spec.add_argument("--run-id", required=True)
    p_spec.add_argument("--source", choices=SPECTRAL_SOURCES)

    p_params = sub.add_parser("params", help="trainable-parameter audit")
    p_params.add_argument("--preset", default="llama3-8b",
                          choices=list(PARAM_PRESETS))
    p_params.add_argument("--ranks", default="16,64,128,512",
                          help="comma-separated ranks")

    p_log = sub.add_parser("logistic", help="ground-truth map trajectory")
    p_log.add_argument("--r", type=float, default=3.5)
    p_log.add_argument("--x0", type=float, default=0.4)
    p_log.add_argument("--n", type=int, default=5)

    p_plot = sub.add_parser("plot", help="render a series JSON to SVG")
    p_plot.add_argument("--input", required=True,
                        help='JSON: {"series": [...], "axes": {...}}')
    p_plot.add_argument("--out", required=True, help="output SVG path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            cfg = _load_config(args)
            outcome = cmd_sweep(cfg, jobs=args.jobs)
            print(f"sweep: {len(outcome.records)} records, "
                  f"{len(outcome.failures)} failures -> {cfg.outputs_dir}")
            return outcome.exit_code
        if args.command == "ablate":
            cfg = _load_config(args)
            outcome = cmd_ablate(cfg, jobs=args.jobs)
            print(f"ablation: {len(outcome.records)} records, "
                  f"{len(outcome.failures)} failures -> {cfg.outputs_dir}")
            return outcome.exit_code
        if args.command == "spectral":
            cfg = _load_config(args)
            report = cmd_spectral(cfg, args.run_id, args.source)
            print(f"spectral report for {args.run_id}: "
                  f"ER={report.effective_rank:.3f} auc90={report.auc90_index}")
            return 0
        if args.command == "params":
            rows = cmd_params(args.preset, _parse_int_list(args.ranks))
            print(format_params_table(rows))
            return 0
        if args.command == "logistic":
            result = cmd_logistic(args.r, args.x0, args.n)
            print(format_logistic_report(result))
            return 0
        if args.command == "plot":
            with open(args.input) as fh:
                figure = FigureSpec.from_dict(json.load(fh))
            emit_plot(figure.series, figure.axes, args.out)
            print(f"wrote {args.out}")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
