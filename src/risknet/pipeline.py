"""End-to-end study orchestration.

One study run cuts the input panel into calendar-month windows, builds the
tail-risk network of each healthy window, restricts to the largest
component when a window comes out disconnected, and reports density, the
normalized Kirchhoff index, per-vertex removal impacts, clustering, and
strength. Windows are independent of each other; they are processed in
date order so outputs are reproducible byte for byte.

Firms are then ranked per sub-period by ``reports.rank_firms``; the
configuration, the periods, the report type and its file format, and the
ranking tables live in :mod:`risknet.reports`, which imports no numpy.

Failures stay local: a degenerate or unanalyzable window is logged and
skipped; only an unreadable input or a study with no usable window at all
is fatal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, RiskNetError, WindowError
from .network import (
    RiskNetwork, build_directed, density, network_from_dict, symmetrize, write_network,
)
from .panel import ReturnPanel, load_returns
from .reports import (
    RankingTable, RobustnessReport, StudyConfig, SubPeriod, WeightBand, _read_windows,
    _write_csv, _write_windows, rank_firms, write_rankings, write_report,
)
from .reports import parse_periods, read_reports  # looked up here by perfbench/
from .spectral import barrat_clustering_all, largest_component, normalized_kirchhoff, werc_all
from .windows import window_panel

__all__ = [
    "StudyResult", "run_study", "build_networks", "analyze_panel", "window_report",
    "weight_distribution_stats", "timeseries_rows", "write_study", "read_networks",
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




def weight_distribution_stats(networks: Sequence[RiskNetwork]) -> tuple[WeightBand, ...]:
    """Mean and 5%/95% band of positive weights, grouped per year.

    Groups whose networks carry no positive weight are omitted (logged).
    """
    buckets: dict[str, list[np.ndarray]] = {}
    for net in networks:
        year = net.label.split("-")[0]
        iu = np.triu_indices(net.n, k=1)
        flat = net.weights[iu]
        buckets.setdefault(year, []).append(flat[flat > 0.0])
    bands = []
    for year in sorted(buckets):
        weights = np.concatenate(buckets[year]) if buckets[year] else np.array([])
        if weights.size == 0:
            log.warning("weight stats: no positive weights in %s, group omitted", year)
            continue
        q05, q95 = np.quantile(weights, [0.05, 0.95])
        bands.append(
            WeightBand(
                group=year,
                count=int(weights.size),
                mean=float(weights.mean()),
                q05=float(q05),
                q95=float(q95),
            )
        )
    return tuple(bands)


def _period_of(label: str, sub_periods: Sequence[SubPeriod]) -> str:
    for period in sub_periods:
        if period.contains(label):
            return period.label
    return ""


def timeseries_rows(
    reports: Sequence[RobustnessReport], sub_periods: Sequence[SubPeriod] = ()
) -> list[tuple]:
    """One row per window: id, label, density, normalized Kirchhoff, median
    clustering, and the sub-period the window falls in (empty when none)."""
    rows = []
    for report in sorted(reports, key=lambda r: r.window_id):
        rows.append(
            (
                report.window_id,
                report.label,
                report.density,
                report.normalized_kirchhoff,
                float(np.median(report.clustering)),
                _period_of(report.label, sub_periods),
            )
        )
    return rows




def read_networks(out_dir: str | Path) -> tuple[RiskNetwork, ...]:
    return _read_windows(out_dir, "networks", network_from_dict)


# The writers are passed at call time, not bound as defaults, so a wrapper
# set on this module's ``write_network`` or ``write_report`` sees every call.
def write_networks(networks: Sequence[RiskNetwork], out_dir: str | Path) -> list[Path]:
    return _write_windows(networks, out_dir, "networks", write_network)


def write_reports(reports: Sequence[RobustnessReport], out_dir: str | Path) -> list[Path]:
    return _write_windows(reports, out_dir, "reports", write_report)




def write_timeseries(
    reports: Sequence[RobustnessReport],
    sub_periods: Sequence[SubPeriod],
    out_dir: str | Path,
) -> Path:
    path = Path(out_dir) / "timeseries.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_csv(
            handle,
            (
                "window",
                "label",
                "density",
                "normalized_kirchhoff",
                "median_clustering",
                "period",
            ),
            timeseries_rows(reports, sub_periods),
        )
    return path


def write_study(result: StudyResult, config: StudyConfig, out_dir: str | Path) -> None:
    """Write the standard output tree: networks/, reports/, rankings/,
    timeseries.csv (charts are the chart module's business)."""
    write_networks(result.networks, out_dir)
    write_reports(result.reports, out_dir)
    write_rankings(result.rankings, out_dir)
    write_timeseries(result.reports, config.sub_periods, out_dir)
