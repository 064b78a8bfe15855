"""Command-line interface.

Subcommands, and the flags each takes besides ``--out``, ``--config`` and
``-v``:

* ``build``          ``--input --alpha --min-obs``: parse the panel and
                     write per-window networks only, deleting other results
* ``analyze``        ``--input --alpha --min-obs --periods --charts``: full
                     study (networks, reports, rankings, timeseries, charts)
* ``rank``           ``--periods``: recompute ranking tables from saved reports
* ``export-charts``  ``--periods``: render charts from saved reports and the
                     saved networks' edge lists, refusing those of two studies

``rank`` and ``export-charts`` run without loading numpy.

All fatal errors, usage errors included, exit 1 with a one-line JSON
object on stderr: ``{"error": "<type>", "message": "<detail>"}``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import logging
import os
import sys
from pathlib import Path
from types import ModuleType

# One BLAS thread unless the environment says otherwise, set before numpy
# loads OpenBLAS. The command's factorizations and products are of the
# order of a window's firms (about 120 in the study), where a second
# thread does not make the WERC kernel faster; its idle worker spins, or
# is woken onto the main thread's core, so a run's time would depend on
# whether the other core is free.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import reports
from .errors import ConfigError, RiskNetError


def _lazy(name: str) -> ModuleType:
    """``risknet.<name>``: the module itself once imported, else a module
    placed in ``sys.modules`` whose body runs on its first attribute use."""
    full = f"{__package__}.{name}"
    if full in sys.modules:  # a second copy would split monkeypatches and wrappers
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# The modules that need numpy load when a command first calls into them,
# so ``rank`` runs without numpy. They are registered here, not imported
# inside the commands, because perfbench/tracer.py looks each of them up in
# sys.modules as soon as this module is imported; once the tracer reads
# the program's own stage records, these can become imports in the commands.
panel, windows, network, spectral, pipeline, charts = map(
    _lazy, ("panel", "windows", "network", "spectral", "pipeline", "charts")
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
        parser.add_argument("--alpha", help="tail level (default 0.05)")
        parser.add_argument("--min-obs", help="eligibility floor per window")
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


def _config_from_args(args: argparse.Namespace) -> reports.StudyConfig:
    """Config-file values overridden by the flags this subcommand takes."""
    flags = vars(args)
    return reports.config_from_sources(
        reports.load_config_file(args.config) if args.config else None,
        alpha=flags.get("alpha"),
        min_obs=flags.get("min_obs"),
        periods=flags.get("periods"),
    )


def _cmd_build(args: argparse.Namespace, config: reports.StudyConfig) -> int:
    returns = panel.load_returns(args.input, delimiter=config.delimiter)
    networks, _ = pipeline.build_networks(returns, config)
    if not networks:
        raise RiskNetError("no non-degenerate window in the input")
    reports.write_networks(networks, args.out)
    print(f"wrote {len(networks)} networks under {args.out / 'networks'}")
    return 0


def _cmd_analyze(args: argparse.Namespace, config: reports.StudyConfig) -> int:
    result = pipeline.run_study(args.input, config)
    pipeline.write_study(result, config, args.out)
    if args.charts:
        saved = (net.saved() for net in result.networks)
        files = charts.emit_charts(result.reports, saved, config.sub_periods, args.out)
        print(f"wrote {len(files)} charts under {args.out / 'charts'}")
    print(
        f"analyzed {len(result.reports)} windows "
        f"({len(result.skipped)} skipped), "
        f"{len(result.rankings)} ranking tables under {args.out}"
    )
    return 0


def _cmd_rank(args: argparse.Namespace, config: reports.StudyConfig) -> int:
    saved = reports.read_reports(args.out)
    tables = reports.rank_firms(saved, config.sub_periods)
    paths = reports.write_rankings(tables, args.out)
    print(f"wrote {len(paths)} ranking tables under {args.out / 'rankings'}")
    return 0


def _cmd_export_charts(args: argparse.Namespace, config: reports.StudyConfig) -> int:
    saved = reports.read_reports(args.out)
    networks = reports.check_same_study(saved, reports.read_networks(args.out), args.out)
    files = charts.emit_charts(saved, networks, config.sub_periods, args.out)
    print(f"wrote {len(files)} charts under {args.out / 'charts'}")
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
        return _COMMANDS[args.command](args, _config_from_args(args))
    except (RiskNetError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
