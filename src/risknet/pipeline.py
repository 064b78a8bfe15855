"""The study loop: one study run cuts the input panel into calendar-month
windows, builds the tail-risk network of each healthy window, restricts to
the largest component when a window comes out disconnected, and reports
density, the normalized Kirchhoff index, per-vertex removal impacts,
clustering, and strength. Windows are independent of each other; they are
processed in date order so outputs are reproducible byte for byte.

This module owns the loop and ``write_study``, which writes the standard
output tree by :mod:`risknet.reports`: networks, reports, period rankings
and the time series. That module also holds both saved formats and their
readers, the configuration and the periods, and imports no numpy. Charts
are :mod:`risknet.charts`' business.

Failures stay local: a degenerate or unanalyzable window is logged and
skipped; only an unreadable input or a study with no usable window at all
is fatal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, RiskNetError, WindowError
from .network import RiskNetwork, build_directed, density, symmetrize
from .panel import ReturnPanel, load_returns
from .reports import (
    RankingTable, RobustnessReport, StudyConfig, rank_firms, write_networks, write_rankings,
    write_reports, write_timeseries,
)
# looked up here by perfbench/
from .reports import parse_periods, read_networks, read_reports, write_report
from .spectral import barrat_clustering_all, largest_component, normalized_kirchhoff, werc_all
from .windows import window_panel

__all__ = [
    "StudyResult", "run_study", "build_networks", "analyze_panel", "window_report", "write_study",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StudyResult:
    networks: tuple[RiskNetwork, ...]
    reports: tuple[RobustnessReport, ...]
    rankings: tuple[RankingTable, ...]
    skipped: tuple[tuple[str, str], ...] = ()


def window_report(net: RiskNetwork) -> RobustnessReport:
    """Robustness metrics of one window's network.

    A disconnected network is restricted to its largest component first
    (noted in the report); a window whose analyzed component has fewer
    than three firms cannot support removal impacts and raises. Kirchhoff
    index, impacts and surviving orders come from one ``werc_all`` pass,
    and every firm's clustering from one ``barrat_clustering_all`` pass.
    """
    work = largest_component(net)
    note = None
    if work.n < net.n:
        note = f"restricted to largest component: {work.n} of {net.n} firms"
    if work.n < 3:
        raise WindowError(
            f"window {net.label}: analyzed component has {work.n} firms, need 3"
        )
    removal = werc_all(work)
    return RobustnessReport(
        window_id=net.window_id,
        label=net.label,
        firms=net.firms,
        analyzed_firms=work.firms,
        component_note=note,
        density=density(work),
        kirchhoff=removal.kirchhoff,
        normalized_kirchhoff=normalized_kirchhoff(removal.kirchhoff, work.n),
        werc=tuple(float(v) for v in removal.impacts),
        clustering=tuple(barrat_clustering_all(work).tolist()),
        strength=tuple(float(s) for s in work.strengths),
        surviving_order=removal.surviving_order,
    )


def build_networks(
    panel: ReturnPanel, config: StudyConfig
) -> tuple[tuple[RiskNetwork, ...], tuple[tuple[str, str], ...]]:
    """Symmetric network of every non-degenerate window in date order, and
    (label, reason) for every degenerate window left out."""
    networks: list[RiskNetwork] = []
    skipped: list[tuple[str, str]] = []
    for window in window_panel(panel, config.min_obs):
        if window.degenerate:
            reason = f"degenerate window ({window.n_firms} eligible firms)"
            log.warning("skipping %s: %s", window.label, reason)
            skipped.append((window.label, reason))
            continue
        networks.append(symmetrize(build_directed(window, config.alpha)))
    return tuple(networks), tuple(skipped)


def analyze_panel(panel: ReturnPanel, config: StudyConfig) -> StudyResult:
    """Run the full study on an in-memory panel."""
    networks, degenerate = build_networks(panel, config)
    reports: list[RobustnessReport] = []
    skipped = list(degenerate)
    for net in networks:
        try:
            reports.append(window_report(net))
        except RiskNetError as exc:
            log.warning("skipping %s: %s", net.label, exc)
            skipped.append((net.label, str(exc)))
    # labels are YYYY-MM, so sorting restores window order
    skipped.sort(key=lambda item: item[0])
    if not reports:
        details = "; ".join(f"{label}: {why}" for label, why in skipped[:5])
        raise WindowError(f"no analyzable window in the study range ({details})")
    rankings = rank_firms(reports, config.sub_periods)
    return StudyResult(
        networks=networks,
        reports=tuple(reports),
        rankings=tuple(rankings),
        skipped=tuple(skipped),
    )


def run_study(config: StudyConfig) -> StudyResult:
    """Load the configured input and run the full study."""
    if config.input_path is None:
        raise ConfigError("config has no input path")
    panel = load_returns(config.input_path, delimiter=config.delimiter)
    log.info(
        "loaded %d days x %d firms from %s",
        panel.n_days,
        panel.n_firms,
        config.input_path,
    )
    return analyze_panel(panel, config)


def write_study(result: StudyResult, config: StudyConfig, out_dir: str | Path) -> None:
    """Write the standard output tree: networks/, which deletes an earlier
    study's results, charts included, then reports/, rankings/, timeseries.csv."""
    write_networks(result.networks, out_dir)
    write_reports(result.reports, out_dir)
    write_rankings(result.rankings, out_dir)
    write_timeseries(result.reports, config.sub_periods, out_dir)
