"""End-to-end study orchestration.

One study run cuts the input panel into calendar-month windows, builds the
tail-risk network of each healthy window, restricts to the largest
component when a window comes out disconnected, and reports density, the
normalized Kirchhoff index, per-vertex removal impacts, clustering, and
strength. Windows are independent of each other; they are processed in
date order so outputs are reproducible byte for byte.

Firms are then ranked per sub-period (and over the whole range) by their
average removal impact across the windows where they were present, subject
to a minimum-coverage rule, and the period tables are assigned quartiles.

Failures stay local: a degenerate or unanalyzable window is logged and
skipped; only an unreadable input or a study with no usable window at all
is fatal.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ConfigError, NetworkFormatError, NumericalError, RiskNetError, WindowError
from .network import (
    RiskNetwork,
    _checked,
    _field,
    _write_records,
    build_directed,
    density,
    network_from_dict,
    read_json,
    symmetrize,
    write_network,
)
from .panel import ReturnPanel, load_returns
from .spectral import (
    barrat_clustering_all,
    largest_component,
    normalized_kirchhoff,
    werc_all,
)
from .windows import window_panel

__all__ = [
    "SubPeriod",
    "StudyConfig",
    "StudyResult",
    "RankingRow",
    "RankingTable",
    "RobustnessReport",
    "WeightBand",
    "DEFAULT_SUB_PERIODS",
    "ALL_PERIODS",
    "parse_periods",
    "load_config_file",
    "run_study",
    "build_networks",
    "analyze_panel",
    "window_report",
    "rank_firms",
    "weight_distribution_stats",
    "timeseries_rows",
    "period_slug",
    "write_study",
    "read_reports",
    "read_networks",
]

log = logging.getLogger(__name__)

REPORT_SCHEMA_VERSION = 1
ALL_PERIODS = "All periods"
COVERAGE_FLOOR = 0.25

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")


def _parse_month(text: str) -> tuple[int, int]:
    m = _MONTH_RE.match(text.strip())
    if not m:
        raise ConfigError(f"malformed month {text!r}, expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise ConfigError(f"month out of range in {text!r}")
    return year, month


@dataclass(frozen=True)
class SubPeriod:
    """Named inclusive month range, e.g. Lehman 2008-01..2009-12."""

    label: str
    start: tuple[int, int]
    end: tuple[int, int]

    def __post_init__(self) -> None:
        if not self.label.strip():
            raise ConfigError("sub-period label must not be blank")
        if self.start > self.end:
            raise ConfigError(
                f"sub-period {self.label!r}: start {self.start} after end {self.end}"
            )

    def contains(self, label: str) -> bool:
        return self.start <= _parse_month(label) <= self.end


DEFAULT_SUB_PERIODS: tuple[SubPeriod, ...] = (
    SubPeriod("Pre-crisis", (2003, 1), (2007, 12)),
    SubPeriod("Lehman", (2008, 1), (2009, 12)),
    SubPeriod("Sovereign", (2010, 1), (2012, 12)),
    SubPeriod("Post-crisis", (2013, 1), (2015, 12)),
)


def parse_periods(text: str) -> tuple[SubPeriod, ...]:
    """Parse 'Name=YYYY-MM..YYYY-MM;Name=...' into sub-periods."""
    periods = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ConfigError(f"malformed period {piece!r}, expected Name=START..END")
        name, _, span = piece.partition("=")
        if ".." not in span:
            raise ConfigError(f"malformed period range {span!r}, expected START..END")
        start, _, end = span.partition("..")
        periods.append(SubPeriod(name.strip(), _parse_month(start), _parse_month(end)))
    if not periods:
        raise ConfigError("no sub-periods given")
    return tuple(periods)


def period_slug(label: str) -> str:
    """File-name form of a period label."""
    slug = re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")
    if not slug:
        raise ConfigError(f"period label {label!r} has no usable characters")
    return slug


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study run needs besides the panel itself."""

    input_path: Path | None = None
    out_dir: Path | None = None
    alpha: float = 0.05
    min_obs: int = 15
    delimiter: str = ","
    sub_periods: tuple[SubPeriod, ...] = DEFAULT_SUB_PERIODS
    charts: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        if self.min_obs < 1:
            raise ConfigError(f"min_obs must be positive, got {self.min_obs}")
        ordered = sorted(self.sub_periods, key=lambda p: p.start)
        if tuple(ordered) != self.sub_periods:
            raise ConfigError("sub-periods must be given in chronological order")
        for left, right in zip(ordered, ordered[1:]):
            if left.end >= right.start:
                raise ConfigError(
                    f"sub-periods {left.label!r} and {right.label!r} overlap"
                )
        labels = [p.label for p in self.sub_periods] + [ALL_PERIODS]
        slugs = [period_slug(x) for x in labels]
        if len(set(slugs)) != len(slugs):
            raise ConfigError(f"period labels collide after slugging: {labels}")


_CONFIG_KEYS = ("min_obs", "confidence", "delimiter", "periods")


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read a key=value config file ('#' starts a comment).

    Documented keys: min_obs, confidence (the VaR level; alpha is its
    complement), delimiter, periods.
    """
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(
                f"{path}:{line_no}: unknown key {key!r}, expected one of {_CONFIG_KEYS}"
            )
        if key in values:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def config_from_sources(
    file_values: dict[str, str] | None = None, **overrides
) -> StudyConfig:
    """Defaults, overridden by config-file values, overridden by keyword
    arguments (the CLI's flags)."""
    kwargs: dict = {}
    file_values = file_values or {}
    if "confidence" in file_values:
        try:
            confidence = float(file_values["confidence"])
        except ValueError:
            raise ConfigError(
                f"confidence must be a number, got {file_values['confidence']!r}"
            ) from None
        if not 0.5 < confidence < 1.0:
            raise ConfigError(f"confidence must lie in (0.5, 1), got {confidence}")
        kwargs["alpha"] = 1.0 - confidence
    if "min_obs" in file_values:
        try:
            kwargs["min_obs"] = int(file_values["min_obs"])
        except ValueError:
            raise ConfigError(
                f"min_obs must be an integer, got {file_values['min_obs']!r}"
            ) from None
    if "delimiter" in file_values:
        kwargs["delimiter"] = file_values["delimiter"]
    if "periods" in file_values:
        kwargs["sub_periods"] = parse_periods(file_values["periods"])
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    return StudyConfig(**kwargs)


@dataclass(frozen=True)
class RankingRow:
    firm: str
    mean_werc: float
    rank: int
    quartile: int
    coverage: int


@dataclass(frozen=True)
class RankingTable:
    """Firms of one period ranked by average removal impact.

    ``excluded`` lists (firm, coverage) pairs that fell below the coverage
    floor; ``window_count`` is the number of analyzed windows in the
    period."""

    period: str
    window_count: int
    rows: tuple[RankingRow, ...]
    excluded: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class WeightBand:
    """Positive-weight distribution summary for one group of networks."""

    group: str
    count: int
    mean: float
    q05: float
    q95: float


@dataclass(frozen=True)
class RobustnessReport:
    """Per-window robustness summary produced by the pipeline."""

    window_id: int
    label: str
    firms: tuple[str, ...]
    analyzed_firms: tuple[str, ...]
    component_note: str | None
    density: float
    kirchhoff: float
    normalized_kirchhoff: float
    werc: tuple[float, ...]
    clustering: tuple[float, ...]
    strength: tuple[float, ...]
    surviving_order: tuple[int | None, ...]

    def __post_init__(self) -> None:
        """Refuse what no analyzed window yields: NaN, a non-finite density,
        Kirchhoff index, clustering or strength, and a removal impact that
        is -inf or disagrees with its surviving order (an integer, not a
        bool, exactly where the impact is +inf)."""
        values = (self.kirchhoff, self.normalized_kirchhoff, *self.werc)
        if any(math.isnan(v) for v in values):
            raise NumericalError(
                f"window {self.label}: NaN in Kirchhoff index or removal impacts"
            )
        finite = (
            self.density, self.kirchhoff, self.normalized_kirchhoff,
            *self.clustering, *self.strength,
        )
        if not all(map(math.isfinite, finite)):
            raise NumericalError(
                f"window {self.label}: non-finite density, Kirchhoff index, "
                "clustering or strength"
            )
        for firm, impact, order in zip(self.analyzed_firms, self.werc, self.surviving_order):
            if impact == -math.inf or (impact == math.inf) != (type(order) is int):
                raise NumericalError(
                    f"window {self.label}: firm {firm} has removal impact {impact} "
                    f"with surviving order {order}"
                )


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


def rank_firms(
    reports: Sequence[RobustnessReport], sub_periods: Sequence[SubPeriod]
) -> tuple[RankingTable, ...]:
    """Period tables of firms ranked by mean removal impact.

    A firm enters a period's table when it was present in at least a
    quarter of the period's analyzed windows. Firms whose removal ever
    disconnected a window rank first (+inf mean), ordered by how often
    they disconnect, then by the smaller average surviving component,
    then by identifier; finite means sort descending with identifier
    tie-breaks. The first quartile is the top ceil(#firms / 4).
    """
    tables = []
    for period in list(sub_periods) + [None]:
        if period is None:
            label = ALL_PERIODS
            members = list(reports)
        else:
            label = period.label
            members = [r for r in reports if period.contains(r.label)]
        total = len(members)
        stats: dict[str, dict] = {}
        for report in members:
            for firm, value, survivor in zip(
                report.analyzed_firms, report.werc, report.surviving_order
            ):
                entry = stats.setdefault(
                    firm, {"values": [], "infs": 0, "survivors": []}
                )
                entry["values"].append(value)
                if math.isinf(value):
                    entry["infs"] += 1
                    entry["survivors"].append(int(survivor))
        included = []
        excluded = []
        for firm in sorted(stats):
            entry = stats[firm]
            coverage = len(entry["values"])
            if coverage < COVERAGE_FLOOR * total:
                excluded.append((firm, coverage))
                continue
            if entry["infs"]:
                mean = math.inf
                key = (
                    0,
                    -entry["infs"],
                    sum(entry["survivors"]) / entry["infs"],
                    firm,
                )
            else:
                mean = sum(entry["values"]) / coverage
                key = (1, -mean, 0.0, firm)
            included.append((key, firm, mean, coverage))
        included.sort(key=lambda item: item[0])
        chunk = math.ceil(len(included) / 4) if included else 1
        rows = tuple(
            RankingRow(
                firm=firm,
                mean_werc=mean,
                rank=position,
                quartile=min(4, 1 + (position - 1) // chunk),
                coverage=coverage,
            )
            for position, (_, firm, mean, coverage) in enumerate(included, start=1)
        )
        for firm, coverage in excluded:
            log.info(
                "%s: %s excluded (present in %d of %d windows)",
                label,
                firm,
                coverage,
                total,
            )
        tables.append(
            RankingTable(
                period=label,
                window_count=total,
                rows=rows,
                excluded=tuple(excluded),
            )
        )
    return tuple(tables)


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


def _csv_cell(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def _write_csv(target: IO[str], header: Sequence[str], rows: Iterable[tuple]) -> None:
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(cell) for cell in row])


def _report_header(report: RobustnessReport) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "window_id": report.window_id,
        "label": report.label,
        "firms": list(report.firms),
        "component_note": report.component_note,
        "density": report.density,
        "kirchhoff": report.kirchhoff,
        "normalized_kirchhoff": report.normalized_kirchhoff,
    }


def report_to_dict(report: RobustnessReport) -> dict:
    return {
        **_report_header(report),
        "vertices": [
            {
                "firm": firm,
                "werc": "inf" if w == math.inf else w,
                "clustering": c,
                "strength": s,
                "surviving_order": survivor,
            }
            for firm, w, c, s, survivor in zip(
                report.analyzed_firms,
                report.werc,
                report.clustering,
                report.strength,
                report.surviving_order,
            )
        ],
    }


def _numbers(key: str, values: list, *, inf: bool = False) -> tuple[float, ...]:
    """``values`` of ``key`` as floats, once each is a JSON number, or with
    ``inf`` also the string "inf"."""
    if inf:
        values = [math.inf if x == "inf" else x for x in values]
    return tuple(map(float, _checked(key, values, "a number or 'inf'" if inf else "a number")))


def report_from_dict(payload: dict) -> RobustnessReport:
    """Inverse of :func:`report_to_dict`, with schema validation by the
    saved network's checker, column by column: nothing is coerced. Numbers
    must be JSON numbers, and ``werc`` and the Kirchhoff indices may be
    "inf"; ``window_id`` and each surviving order must be integers (2.7 is
    refused, not truncated), and a surviving order may be null; ``label``
    and each ``firm`` must be strings, ``component_note`` a string or null
    and ``firms`` a list of strings."""
    try:
        version = _field(payload, "schema_version", "an integer")
        if version != REPORT_SCHEMA_VERSION:
            raise NetworkFormatError(f"unsupported report schema version {version!r}")
        vertices = _field(payload, "vertices", "a list")
        column = {key: [v[key] for v in vertices] for key in _VERTEX_KEYS}
        return RobustnessReport(
            window_id=_field(payload, "window_id", "an integer"),
            label=_field(payload, "label", "a string"),
            firms=tuple(_field(payload, "firms", "a list of strings")),
            analyzed_firms=tuple(_checked("firm", column["firm"], "a string")),
            component_note=_field(payload, "component_note", "a string or null"),
            density=_numbers("density", [payload["density"]])[0],
            kirchhoff=_numbers("kirchhoff", [payload["kirchhoff"]], inf=True)[0],
            normalized_kirchhoff=_numbers(
                "normalized_kirchhoff", [payload["normalized_kirchhoff"]], inf=True
            )[0],
            werc=_numbers("werc", column["werc"], inf=True),
            clustering=_numbers("clustering", column["clustering"]),
            strength=_numbers("strength", column["strength"]),
            surviving_order=tuple(
                _checked("surviving_order", column["surviving_order"], "an integer or null")
            ),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise NetworkFormatError(f"bad report payload: {exc}") from None


_VERTEX_KEYS = ("firm", "werc", "clustering", "strength", "surviving_order")

# One vertex in the layout ``json.dump(..., indent=2)`` gives it.
_VERTEX = (
    '    {\n      "firm": {},\n      "werc": {},\n      "clustering": {},\n'
    '      "strength": {},\n      "surviving_order": {}\n    }'
)


def _json_items(values: Iterable) -> list[str]:
    """The JSON text of each of ``values`` (numbers, null or "inf"), as
    ``json.dumps(..., allow_nan=False)`` writes it, from one call of the
    json module's C encoder: no such text holds ", ". A NaN or infinite
    float raises ``ValueError``."""
    text = json.dumps(list(values), allow_nan=False)[1:-1]
    return text.split(", ") if text else []


def write_report(report: RobustnessReport, target: str | Path | IO[str]) -> None:
    """Write ``report_to_dict(report)`` by ``network._write_records``. A NaN
    or infinite float, other than an infinite removal impact, raises
    ``ValueError``."""
    werc = ["inf" if w == math.inf else w for w in report.werc]
    values = map(_json_items, (werc, report.clustering, report.strength, report.surviving_order))
    firms = map(json.encoder.encode_basestring_ascii, report.analyzed_firms)
    _write_records(target, _report_header(report), "vertices", _VERTEX, (firms, *values))


def _read_windows(out_dir: str | Path, sub: str, parse) -> tuple:
    """``parse`` of every ``<out_dir>/<sub>/window_<k>.json``, by k."""
    directory = Path(out_dir) / sub
    if not directory.is_dir():
        raise NetworkFormatError(f"no {sub} directory under {out_dir}")
    found = []
    for path in directory.glob("window_*.json"):
        suffix = path.stem.split("_", 1)[1]
        if suffix.isdigit():
            found.append((int(suffix), path))
    if not found:
        # "reports" -> "no report files"
        raise NetworkFormatError(f"no {sub[:-1]} files in {directory}")
    return tuple(read_json(path, parse) for _, path in sorted(found))


def read_reports(out_dir: str | Path) -> tuple[RobustnessReport, ...]:
    return _read_windows(out_dir, "reports", report_from_dict)


def read_networks(out_dir: str | Path) -> tuple[RiskNetwork, ...]:
    return _read_windows(out_dir, "networks", network_from_dict)


def _write_windows(items: Sequence, out_dir: str | Path, sub: str, write) -> list[Path]:
    """``write`` each item to ``<out_dir>/<sub>/window_<window_id>.json``."""
    directory = Path(out_dir) / sub
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for item in items:
        path = directory / f"window_{item.window_id}.json"
        write(item, path)
        paths.append(path)
    return paths


# The writers are passed at call time, not bound as defaults, so a wrapper
# set on this module's ``write_network`` or ``write_report`` sees every call.
def write_networks(networks: Sequence[RiskNetwork], out_dir: str | Path) -> list[Path]:
    return _write_windows(networks, out_dir, "networks", write_network)


def write_reports(reports: Sequence[RobustnessReport], out_dir: str | Path) -> list[Path]:
    return _write_windows(reports, out_dir, "reports", write_report)


def write_rankings(rankings: Sequence[RankingTable], out_dir: str | Path) -> list[Path]:
    directory = Path(out_dir) / "rankings"
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for table in rankings:
        path = directory / f"{period_slug(table.period)}.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write_csv(
                handle,
                ("firm", "mean_werc", "rank", "quartile", "coverage"),
                (
                    (r.firm, r.mean_werc, r.rank, r.quartile, r.coverage)
                    for r in table.rows
                ),
            )
        paths.append(path)
    return paths


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
