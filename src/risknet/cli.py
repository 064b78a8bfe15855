"""Command-line interface.

Subcommands, and the flags each takes besides ``--out``, ``--config`` and
``-v``:

* ``build``          ``--input --alpha --min-obs``: parse the panel and
                     write per-window networks only
* ``analyze``        ``--input --alpha --min-obs --periods --charts``: full
                     study (networks, reports, rankings, timeseries, charts)
* ``rank``           ``--periods``: recompute ranking tables from saved reports
* ``export-charts``  ``--periods``: render charts from saved reports and networks

All fatal errors, usage errors included, exit 1 with a one-line JSON
object on stderr: ``{"error": "<type>", "message": "<detail>"}``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

# One BLAS thread unless the environment says otherwise, set before numpy
# loads OpenBLAS. The command's factorizations and products are of the
# order of a window's firms (about 120 in the study), where a second
# thread does not make the WERC kernel faster; its idle worker spins, or
# is woken onto the main thread's core, so a run's time would depend on
# whether the other core is free.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .charts import emit_charts
from .errors import ConfigError, RiskNetError
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


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so ``main`` reports them like any other error."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _add_command(sub, name: str, summary: str, *, panel: bool = False, periods: bool = True):
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--out", required=True, type=Path, help="output directory")
    parser.add_argument("--config", help="key=value config file")
    if panel:
        parser.add_argument("--input", required=True, type=Path, help="return panel CSV")
        parser.add_argument("--alpha", type=float, help="tail level (default 0.05)")
        parser.add_argument("--min-obs", type=int, help="eligibility floor per window")
    if periods:
        parser.add_argument(
            "--periods",
            help="sub-periods as 'Name=YYYY-MM..YYYY-MM;Name=...' (default: the four study periods)",
        )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="risknet",
        description="Tail-risk networks of firms and robustness-based rankings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "build", "write per-window networks only", panel=True, periods=False)
    analyze = _add_command(sub, "analyze", "run the full study", panel=True)
    analyze.add_argument("--charts", action="store_true", help="also render SVG charts")
    _add_command(sub, "rank", "recompute rankings from saved reports")
    _add_command(sub, "export-charts", "render charts from saved outputs")
    return parser


def _config_from_args(args: argparse.Namespace) -> StudyConfig:
    """Config-file values overridden by the flags this subcommand takes."""
    flags = vars(args)
    periods = flags.get("periods")
    return config_from_sources(
        load_config_file(args.config) if args.config else None,
        input_path=flags.get("input"),
        out_dir=args.out,
        alpha=flags.get("alpha"),
        min_obs=flags.get("min_obs"),
        sub_periods=parse_periods(periods) if periods else None,
        charts=flags.get("charts"),
    )


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
    try:
        args = _build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except (RiskNetError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
