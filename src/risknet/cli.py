"""Command-line interface.

Subcommands:

* ``build``          parse the panel and write per-window networks only
* ``analyze``        full study: networks, reports, rankings, timeseries
                     (and charts with --charts)
* ``rank``           recompute ranking tables from saved reports
* ``export-charts``  render charts from saved reports and networks

All fatal errors exit nonzero with a one-line JSON object on stderr:
``{"error": "<type>", "message": "<detail>"}``.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .charts import emit_charts
from .errors import RiskNetError
from .panel import load_returns
from .pipeline import (
    StudyConfig,
    build_networks,
    config_from_sources,
    load_config_file,
    parse_periods,
    rank_firms,
    read_networks,
    read_reports,
    run_study,
    write_networks,
    write_rankings,
    write_study,
)


def _add_common(parser: argparse.ArgumentParser, *, needs_input: bool) -> None:
    if needs_input:
        parser.add_argument("--input", required=True, help="return panel CSV")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--alpha", type=float, help="tail level (default 0.05)")
    parser.add_argument("--min-obs", type=int, help="eligibility floor per window")
    parser.add_argument(
        "--periods",
        help="sub-periods as 'Name=YYYY-MM..YYYY-MM;Name=...' (default: the four study periods)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risknet",
        description="Tail-risk networks of firms and robustness-based rankings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write per-window networks only")
    _add_common(p_build, needs_input=True)

    p_analyze = sub.add_parser("analyze", help="run the full study")
    _add_common(p_analyze, needs_input=True)
    p_analyze.add_argument(
        "--charts", action="store_true", help="also render SVG charts"
    )

    p_rank = sub.add_parser("rank", help="recompute rankings from saved reports")
    _add_common(p_rank, needs_input=False)

    p_charts = sub.add_parser(
        "export-charts", help="render charts from saved outputs"
    )
    _add_common(p_charts, needs_input=False)
    return parser


def _config_from_args(args: argparse.Namespace) -> StudyConfig:
    file_values = load_config_file(args.config) if args.config else None
    overrides: dict = {
        "alpha": args.alpha,
        "min_obs": args.min_obs,
        "out_dir": Path(args.out),
    }
    if getattr(args, "input", None):
        overrides["input_path"] = Path(args.input)
    if args.periods:
        overrides["sub_periods"] = parse_periods(args.periods)
    if getattr(args, "charts", False):
        overrides["charts"] = True
    return config_from_sources(file_values, **overrides)


def _cmd_build(config: StudyConfig) -> int:
    panel = load_returns(config.input_path, delimiter=config.delimiter)
    networks, _ = build_networks(panel, config)
    if not networks:
        raise RiskNetError("no non-degenerate window in the input")
    write_networks(networks, config.out_dir)
    print(f"wrote {len(networks)} networks under {config.out_dir / 'networks'}")
    return 0


def _cmd_analyze(config: StudyConfig) -> int:
    result = run_study(config)
    write_study(result, config, config.out_dir)
    if config.charts:
        files = emit_charts(
            result.reports, result.networks, config.sub_periods, config.out_dir
        )
        print(f"wrote {len(files)} charts under {config.out_dir / 'charts'}")
    print(
        f"analyzed {len(result.reports)} windows "
        f"({len(result.skipped)} skipped), "
        f"{len(result.rankings)} ranking tables under {config.out_dir}"
    )
    return 0


def _cmd_rank(config: StudyConfig) -> int:
    reports = read_reports(config.out_dir)
    tables = rank_firms(reports, config.sub_periods)
    paths = write_rankings(tables, config.out_dir)
    print(f"wrote {len(paths)} ranking tables under {config.out_dir / 'rankings'}")
    return 0


def _cmd_export_charts(config: StudyConfig) -> int:
    reports = read_reports(config.out_dir)
    networks = read_networks(config.out_dir)
    files = emit_charts(reports, networks, config.sub_periods, config.out_dir)
    print(f"wrote {len(files)} charts under {config.out_dir / 'charts'}")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "analyze": _cmd_analyze,
    "rank": _cmd_rank,
    "export-charts": _cmd_export_charts,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except (RiskNetError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
