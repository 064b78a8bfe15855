"""Study configuration, sub-periods, saved networks and reports, period
rankings and the time series: the file side of a study, which imports no
numpy, so ``risknet rank`` and ``risknet export-charts`` need no numpy.
Firms are ranked per sub-period (and over the whole range) by their
average removal impact across the windows where they were present,
subject to a minimum-coverage rule, with quartiles. This module writes
every output file but the charts, and holds the one writer of every
output directory, which deletes what an earlier run left there. Both
saved formats are written and read here: networks and reports share one
writer, a single ``json.dumps`` call per file, and one exact-type checker
of header fields and report columns; a saved network is read as its edge
list, checked one edge at a time in file order.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
from collections import namedtuple
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from types import NoneType
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from .errors import ConfigError, NetworkFormatError, NumericalError, RiskNetError

if TYPE_CHECKING:
    from .network import RiskNetwork

__all__ = [
    "SubPeriod", "StudyConfig", "RankingRow", "RankingTable", "RobustnessReport", "ALL_PERIODS",
    "parse_periods", "load_config_file", "rank_firms", "read_reports", "timeseries_rows",
    "SavedNetwork", "read_networks",
]

log = logging.getLogger(__name__)

_T = TypeVar("_T")

NETWORK_SCHEMA_VERSION = 2
REPORT_SCHEMA_VERSION = 2
ALL_PERIODS = "All periods"
COVERAGE_FLOOR = 0.25

_MONTH_RE = re.compile(r"^([0-9]{4})-([0-9]{2})$")


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
        # XML cannot hold a C0 control, U+FFFE or U+FFFF even escaped, nor UTF-8 a lone surrogate
        if re.search("[\x00-\x1f\ud800-\udfff\ufffe\uffff]", self.label):
            raise ConfigError(
                f"sub-period label {self.label!r} holds a character XML 1.0 or UTF-8 cannot hold"
            )
        if self.start > self.end:
            start, end = ("{:04d}-{:02d}".format(*month) for month in (self.start, self.end))
            raise ConfigError(f"sub-period {self.label!r}: start {start} after end {end}")

    def contains(self, label: str) -> bool:
        return self.start <= _parse_month(label) <= self.end


_DEFAULT_SUB_PERIODS: tuple[SubPeriod, ...] = (
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


def _period_slug(label: str) -> str:
    """File-name form of a period label."""
    slug = re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")
    if not slug:
        raise ConfigError(f"period label {label!r} has no usable characters")
    if len(slug) > 251:  # with ".csv", the 255 bytes most file systems allow in a name
        raise ConfigError(f"period label {label!r} makes a file name longer than 255 bytes")
    return slug


@dataclass(frozen=True)
class StudyConfig:
    """The study's parameters: all a run needs besides the panel and where to write."""

    alpha: float = 0.05
    min_obs: int = 15
    delimiter: str = ","
    sub_periods: tuple[SubPeriod, ...] = _DEFAULT_SUB_PERIODS

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 0.5 and math.isfinite(1.0 / self.alpha)):
            raise ConfigError(f"alpha must lie in (0, 0.5) with 1/alpha finite, got {self.alpha}")
        if self.min_obs < 1:
            raise ConfigError(f"min_obs must be positive, got {self.min_obs}")
        if len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be one character, got {self.delimiter!r}")
        ordered = sorted(self.sub_periods, key=lambda p: p.start)
        if tuple(ordered) != self.sub_periods:
            raise ConfigError("sub-periods must be given in chronological order")
        for left, right in zip(ordered, ordered[1:]):
            if left.end >= right.start:
                raise ConfigError(
                    f"sub-periods {left.label!r} and {right.label!r} overlap"
                )
        labels = [p.label for p in self.sub_periods] + [ALL_PERIODS]
        slugs = [_period_slug(x) for x in labels]
        if len(set(slugs)) != len(slugs):
            raise ConfigError(f"period labels collide after slugging: {labels}")


_CONFIG_KEYS = ("min_obs", "confidence", "delimiter", "periods")


@contextmanager
def _opened(path: str | Path, error: type[RiskNetError]) -> Iterator[TextIO]:
    """The UTF-8 file at ``path``, open with line ends kept and a leading
    byte-order mark dropped; a byte that is not UTF-8, met anywhere in the
    ``with`` body, raises ``error`` naming the file. Every input file's reader."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc.reason}") from None


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read a key=value config file ('#' starts a comment).

    Documented keys: min_obs, confidence (the VaR level; alpha is its
    complement), delimiter, periods.
    """
    values: dict[str, str] = {}
    with _opened(path, ConfigError) as handle:
        lines = handle.read().splitlines()
    for line_no, raw in enumerate(lines, start=1):
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


def _number(key: str, text: str, kind: type[_T]) -> _T:
    """``kind(text)`` for ASCII text with no ``_``: ``int`` and ``float``
    also read other scripts' digits, and ``_`` as a separator."""
    if text.isascii() and "_" not in text:
        with suppress(ValueError):
            return kind(text)
    raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {text!r}")


def config_from_sources(
    file_values: dict[str, str] | None = None, *,
    alpha: str | None = None, min_obs: str | None = None, periods: str | None = None,
) -> StudyConfig:
    """Defaults, overridden by config-file values, overridden by the CLI's
    flags (None where not given): the text of both is read by the same code,
    and a value that is not text is refused."""
    flags = {"alpha": alpha, "min_obs": min_obs, "periods": periods}
    kwargs: dict = {}
    for values in (file_values or {}, {k: v for k, v in flags.items() if v is not None}):
        for key, value in values.items():
            if not isinstance(value, str):
                raise ConfigError(f"{key} must be given as text, got {value!r}")
        if "confidence" in values:
            confidence = _number("confidence", values["confidence"], float)
            if not 0.5 < confidence < 1.0:
                raise ConfigError(f"confidence must lie in (0.5, 1), got {confidence}")
            from fractions import Fraction  # loads decimal, so not at start-up
            # the float nearest the exact complement: 1.0 - 0.90 is 0.09999999999999998
            try:
                kwargs["alpha"] = float(1 - Fraction(values["confidence"]))
            except ValueError:  # Fraction reads the digits by int(), which takes at most 4,300
                raise ConfigError("confidence has too many digits to read exactly") from None
        if "alpha" in values:
            kwargs["alpha"] = _number("alpha", values["alpha"], float)
        if "min_obs" in values:
            kwargs["min_obs"] = _number("min_obs", values["min_obs"], int)
        if "delimiter" in values:
            # a stripped value cannot hold a tab, so the two characters \t stand for one
            delimiter = values["delimiter"]
            kwargs["delimiter"] = "\t" if delimiter == "\\t" else delimiter
        if "periods" in values:
            kwargs["sub_periods"] = parse_periods(values["periods"])
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
        """Refuse what no analyzed window yields. ``NumericalError``: NaN, a
        non-finite density, Kirchhoff index, clustering or strength, an
        impact of -inf, and a surviving order that is not an integer (nor a
        bool) where the impact is +inf, or not None where it is finite.
        ``ValueError``: a per-vertex column of other than one entry per
        analyzed firm, fewer than three, a repeated name, analyzed firms
        not some of ``firms`` in their order, and a surviving order of m
        analyzed firms outside [1, m - 2]."""
        if any(map(math.isnan, (self.kirchhoff, self.normalized_kirchhoff, *self.werc))):
            raise NumericalError(f"window {self.label}: NaN in Kirchhoff index or removal impacts")
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
            if impact == -math.inf or type(order) is not (int if impact == math.inf else NoneType):
                raise NumericalError(
                    f"window {self.label}: firm {firm} has removal impact {impact} "
                    f"with surviving order {order}"
                )
        m = len(self.analyzed_firms)
        for key, name, _ in _REPORT_VERTICES[1:]:
            if len(getattr(self, name)) != m:
                raise ValueError(f"{key} has {len(getattr(self, name))} entries for {m} firms")
        if m < 3:
            raise ValueError(f"need at least three vertices, got {m}")
        _distinct("firms", self.firms, ValueError)
        _distinct("firm", self.analyzed_firms, ValueError)
        listed = iter(self.firms)
        stray = next((firm for firm in self.analyzed_firms if firm not in listed), None)
        if stray is not None:
            raise ValueError(f"firm {stray!r} is not in firms, or out of their order")
        top = m - 2  # a cut leaves the other m - 1 firms in two parts or more
        wrong = [k for k in self.surviving_order if k is not None and not 1 <= k <= top]
        if wrong:
            raise ValueError(f"surviving_order must lie in [1, {top}], got {wrong[0]}")


def rank_firms(
    reports: Sequence[RobustnessReport], sub_periods: Sequence[SubPeriod]
) -> tuple[RankingTable, ...]:
    """Period tables of firms ranked by mean removal impact: one per
    sub-period, in their order, then the table of all periods.

    A firm enters a period's table when it was present in at least a
    quarter of the period's analyzed windows. Firms whose removal ever
    disconnected a window rank first (+inf mean), ordered by how often
    they disconnect, then by the smaller average surviving component,
    then by identifier; finite means sort descending with identifier
    tie-breaks. The first quartile is the top ceil(#firms / 4).
    """
    spans = [(p.label, [r for r in reports if p.contains(r.label)]) for p in sub_periods]
    tables = []
    for label, members in [*spans, (ALL_PERIODS, reports)]:
        total = len(members)
        impacts: dict[str, list[float]] = {}
        orders: dict[str, list[int]] = {}  # one per removal that disconnects: +inf impact
        for report in members:
            for firm, impact, order in zip(
                report.analyzed_firms, report.werc, report.surviving_order
            ):
                impacts.setdefault(firm, []).append(impact)
                if order is not None:
                    orders.setdefault(firm, []).append(order)
        included = []
        excluded = []
        for firm in sorted(impacts):
            coverage = len(impacts[firm])
            if coverage < COVERAGE_FLOOR * total:
                log.info(
                    "%s: %s excluded (present in %d of %d windows)", label, firm, coverage, total
                )
                excluded.append((firm, coverage))
            elif firm in orders:
                cuts = orders[firm]
                key = (0, -len(cuts), sum(cuts) / len(cuts), firm)
                included.append((key, firm, math.inf, coverage))
            else:
                mean = sum(impacts[firm]) / coverage
                included.append(((1, -mean, 0.0, firm), firm, mean, coverage))
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
        tables.append(
            RankingTable(period=label, window_count=total, rows=rows, excluded=tuple(excluded))
        )
    return tuple(tables)


def _write_csv(header: Sequence[str], rows: Iterable[tuple], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)  # a float as its repr, inf as inf


# What json.load gives each kind of saved value, by the words that name it
# in an error: exact types, so a bool is not an integer. A "list of" kind
# holds the types of the list's entries.
_KINDS = {
    "an integer": {int},
    "an integer or null": {int, type(None)},
    "a number": {int, float},
    "a number or 'inf'": {int, float},  # "inf" is read as inf before the check
    "a string": {str},
    "a string or null": {str, type(None)},
    "a list": {list},
    "a list of strings": {str},
}


def _checked(key: str, values: list, kind: str) -> tuple:
    """``values`` of ``key``, once each is of ``kind``, as a tuple, with a
    number read as a float; else the error ``<key> must be <kind>, got <the
    first value that is not>``. The values are walked again only when their
    set of types is wrong."""
    types = _KINDS[kind]
    if not set(map(type, values)) <= types:
        bad = next(value for value in values if type(value) not in types)
        raise NetworkFormatError(f"{key} must be {kind}, got {bad!r}")
    return tuple(map(float, values) if kind.startswith("a number") else values)


def _field(payload: dict, key: str, kind: str):
    """``payload[key]``, once it is of ``kind`` (:func:`_checked`): a list,
    then each of its entries, for a "list of" kind."""
    value = payload[key]
    if kind.startswith("a list of "):
        return _checked(key, _checked(key, [value], "a list")[0], kind)
    return _checked(key, [value], kind)[0]


def _distinct(key: str, names: tuple, error: type[Exception] = NetworkFormatError) -> tuple:
    """``names``, the ``key`` of a network or report, once none repeats."""
    if len(set(names)) < len(names):
        name = next(x for k, x in enumerate(names) if x in names[:k])
        raise error(f"{key} repeats {name!r}")
    return names


def read_json(path: str | Path, parse: Callable[[dict], _T]) -> _T:
    """``parse`` of the payload of the saved network or report at ``path``,
    a UTF-8 file; every error names it."""
    try:
        with _opened(path, NetworkFormatError) as handle:
            payload = json.load(handle)
    except (ValueError, RecursionError) as exc:  # too deep, or an integer too long to read
        raise NetworkFormatError(f"{path}: invalid JSON: {exc}") from None
    try:
        return parse(payload)
    except RiskNetError as exc:
        raise type(exc)(f"{path}: {exc}") from None


@dataclass(frozen=True)
class SavedNetwork:
    """A saved network as its file holds it: the header, and the edges
    ``[i, j, weight]`` as three columns in file order."""

    window_id: int
    label: str
    firms: tuple[str, ...]
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    weights: tuple[float, ...]


def network_from_dict(payload: dict) -> SavedNetwork:
    """The network a saved payload holds, with schema validation.

    Nothing is coerced (:func:`_field`): ``window_id`` and ``n`` must be
    integers, ``label`` a string and ``firms`` a list of strings, none
    twice. Each edge must be a list ``[i, j, weight]``: integers 0 <= i <
    j < n (a bool, 1.0 or "2" is refused, not truncated), a numeric weight
    in (0, 1], read as a float, and no pair twice. Edges are checked one
    at a time in file order, and the error names the first bad entry, by
    the first rule it breaks.
    """
    try:
        version = _field(payload, "schema_version", "an integer")
        if not 1 <= version <= NETWORK_SCHEMA_VERSION:  # version 1 differs only in layout
            raise NetworkFormatError(f"unsupported schema version {version!r}")
        window_id = _field(payload, "window_id", "an integer")
        label = _field(payload, "label", "a string")
        n = _field(payload, "n", "an integer")
        firms = _distinct("firms", _field(payload, "firms", "a list of strings"))
        edges = payload["edges"]
    except (KeyError, TypeError) as exc:
        raise NetworkFormatError(f"bad network payload: {exc}") from None
    if n != len(firms):
        raise NetworkFormatError(f"n={n} but {len(firms)} firms listed")
    if type(edges) is not list:
        raise NetworkFormatError(f"bad network payload: edges is a {type(edges).__name__}")

    rows: list[int] = []
    cols: list[int] = []
    weights: list[float] = []
    seen: set[int] = set()
    for entry in edges:
        if type(entry) is not list or len(entry) != 3:
            raise NetworkFormatError(f"bad edge entry {entry!r}: expected [i, j, weight]")
        i, j, weight = entry
        if type(i) is not int or type(j) is not int:
            raise NetworkFormatError(f"edge indices must be integers: {entry!r}")
        if not 0 <= i < j < n:
            raise NetworkFormatError(f"edge indices out of order or range: {entry!r}")
        if type(weight) is not float and type(weight) is not int:
            raise NetworkFormatError(f"bad edge entry {entry!r}: weight is not a number")
        if not 0.0 < weight <= 1.0:  # NaN fails, and a long int compares exactly
            raise NetworkFormatError(f"edge weight outside (0, 1]: {entry!r}")
        key = i * n + j  # 0 <= i < j < n, so this names the pair
        if key in seen:
            raise NetworkFormatError(f"duplicate edge ({i}, {j})")
        seen.add(key)
        rows.append(i)
        cols.append(j)
        weights.append(float(weight))
    return SavedNetwork(window_id, label, firms, tuple(rows), tuple(cols), tuple(weights))


def report_from_dict(payload: dict) -> RobustnessReport:
    """The report a saved payload holds, checked by the saved-file checker,
    the header in file order, then the vertices column by column: nothing is
    coerced. Numbers must be JSON numbers, and only ``werc`` may be "inf";
    ``window_id`` and each surviving order must be integers (2.7 is refused,
    not truncated), and a surviving order may be null; ``label`` and each
    ``firm`` must be strings, ``component_note`` a string or null and
    ``firms`` a list of strings. The rest are :class:`RobustnessReport`'s
    own rules, and its ``ValueError`` is raised as ``NetworkFormatError``."""
    try:
        version = _field(payload, "schema_version", "an integer")
        if not 1 <= version <= REPORT_SCHEMA_VERSION:  # version 1 differs only in layout
            raise NetworkFormatError(f"unsupported report schema version {version!r}")
        header = {key: _field(payload, key, kind) for key, kind in _REPORT_HEADER}
        vertices = _field(payload, "vertices", "a list")
        column = {key: [v[key] for v in vertices] for key, _, _ in _REPORT_VERTICES}
        column["werc"] = [math.inf if x == "inf" else x for x in column["werc"]]
        columns = {name: _checked(key, column[key], kind) for key, name, kind in _REPORT_VERTICES}
    except (KeyError, TypeError, OverflowError) as exc:
        raise NetworkFormatError(f"bad report payload: {exc}") from None
    try:
        return RobustnessReport(**header, **columns)
    except ValueError as exc:
        raise NetworkFormatError(str(exc)) from None


# A report's header after its schema version, then a vertex's keys, each in
# file order with its saved kind (see _KINDS). A header key is the report's
# attribute; a vertex key is followed by the report's column that holds it.
_REPORT_HEADER = (
    ("window_id", "an integer"), ("label", "a string"), ("firms", "a list of strings"),
    ("component_note", "a string or null"), ("density", "a number"),
    ("kirchhoff", "a number"), ("normalized_kirchhoff", "a number"),
)
_REPORT_VERTICES = (
    ("firm", "analyzed_firms", "a string"), ("werc", "werc", "a number or 'inf'"),
    ("clustering", "clustering", "a number"), ("strength", "strength", "a number"),
    ("surviving_order", "surviving_order", "an integer or null"),
)

def _write_json(payload: dict, path: str | Path) -> None:
    """Write ``payload`` as one line, ``json.dumps`` by the json module's C
    encoder, and a newline. A NaN or infinite float raises ``ValueError``
    before the file is opened, so nothing is written."""
    # built by the writers below from numbers and strings, so it cannot hold a cycle
    text = json.dumps(payload, allow_nan=False, check_circular=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def write_network(net: RiskNetwork, path: str | Path) -> None:
    """Write the header and ``edges``, the rows ``[i, j, weight]`` of
    ``net.saved()``, by :func:`_write_json`."""
    saved = net.saved()
    _write_json(dict(schema_version=NETWORK_SCHEMA_VERSION, window_id=saved.window_id,
                     label=saved.label, n=len(saved.firms), firms=saved.firms,
                     edges=list(zip(saved.rows, saved.cols, saved.weights))), path)


def write_report(report: RobustnessReport, path: str | Path) -> None:
    """Write the header and "vertices", one object per analyzed firm with
    an infinite removal impact as "inf", by :func:`_write_json`."""
    payload = {"schema_version": REPORT_SCHEMA_VERSION}
    payload.update((key, getattr(report, key)) for key, _ in _REPORT_HEADER)
    column = {key: getattr(report, name) for key, name, _ in _REPORT_VERTICES}
    column["werc"] = ["inf" if w == math.inf else w for w in report.werc]
    payload["vertices"] = [dict(zip(column, row)) for row in zip(*column.values())]
    _write_json(payload, path)


def _window_files(directory: Path) -> dict[Path, int]:
    """Every ``window_<k>.json`` in the directory, k in digits that ``int``
    reads, with its k."""
    files = ((path, path.stem.split("_", 1)[1]) for path in directory.glob("window_*.json"))
    return {path: int(k) for path, k in files if k.isdecimal()}


# The files of each output directory that risknet owns: a run deletes those it does not write.
_OWNED = {"networks": _window_files, "reports": _window_files,
          "rankings": lambda d: d.glob("*.csv"), "charts": lambda d: d.glob("*.svg")}


def _write_files(out_dir: str | Path, sub: str, entries: Sequence[tuple]) -> list[Path]:
    """Write each (file name, writer, item) entry by ``writer(item, path)``
    into ``<out_dir>/<sub>`` (made only for an entry), then delete each file
    of ``_OWNED[sub]`` there that this call did not write, so that the
    directory's owned files are this run's alone."""
    directory = Path(out_dir) / sub
    if entries:
        directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, write, item in entries:
        path = directory / name
        write(item, path)
        paths.append(path)
    for stale in set(_OWNED[sub](directory)) - set(paths):
        stale.unlink()
    return paths


def _write_windows(items: Sequence, out_dir: str | Path, sub: str, write) -> list[Path]:
    """``write`` each item to ``<out_dir>/<sub>/window_<window_id>.json``;
    every other window file there is deleted."""
    entries = [(f"window_{item.window_id}.json", write, item) for item in items]
    return _write_files(out_dir, sub, entries)


def _read_windows(out_dir: str | Path, sub: str, parse) -> Iterator:
    """``parse`` of every ``<out_dir>/<sub>/window_<k>.json``, by k, one at
    a time. Two files of one k (``window_1.json`` and ``window_01.json``), a
    file whose ``window_id`` is not its k, and a label that is not a month
    ``YYYY-MM`` after the label of the window before are refused."""
    directory = Path(out_dir) / sub
    if not directory.is_dir():
        raise NetworkFormatError(f"no {sub} directory under {out_dir}")
    found = sorted((k, path) for path, k in _window_files(directory).items())
    if not found:
        # "reports" -> "no report files"
        raise NetworkFormatError(f"no {sub[:-1]} files in {directory}")
    for (k, path), (other, again) in zip(found, found[1:]):
        if k == other:
            raise NetworkFormatError(f"{path} and {again} both hold window {k}")
    previous = ""
    for k, path in found:
        item = read_json(path, parse)
        if item.window_id != k:
            raise NetworkFormatError(
                f"{path}: window_id {item.window_id} does not match the file name"
            )
        if not re.fullmatch(r"[0-9]{4}-(0[1-9]|1[0-2])", item.label):  # as window_panel writes it
            raise NetworkFormatError(f"{path}: label {item.label!r} is not a month YYYY-MM")
        if item.label <= previous:  # YYYY-MM labels sort as their months do
            raise NetworkFormatError(
                f"{path}: label {item.label!r} is not after the previous window's, {previous!r}"
            )
        previous = item.label
        yield item


def read_reports(out_dir: str | Path) -> tuple[RobustnessReport, ...]:
    return tuple(_read_windows(out_dir, "reports", report_from_dict))


def read_networks(out_dir: str | Path) -> Iterator[SavedNetwork]:
    return _read_windows(out_dir, "networks", network_from_dict)


def check_same_study(
    reports: Sequence[RobustnessReport], networks: Iterable[SavedNetwork], out_dir: str | Path
) -> Iterator[SavedNetwork]:
    """``networks`` passed through, then a refusal of reports and networks of two
    studies: each report needs the network of its window, with the same label and
    firms. A network with no report is fine: ``analyze`` saves those of skipped windows."""
    saved = {}
    for net in networks:
        saved[net.window_id] = (net.label, net.firms)
        yield net
    for report in reports:
        k = report.window_id
        if saved.get(k) == (report.label, report.firms):
            continue
        path, other = (
            {n: p for p, n in _window_files(Path(out_dir) / sub).items()}.get(k)
            for sub in ("reports", "networks")
        )
        if other is None:
            raise NetworkFormatError(f"{path}: no saved network holds window {k}")
        raise NetworkFormatError(f"{path} and {other} disagree on the label or firms of window {k}")


# Each writer is passed at call time, so a wrapper set on it sees every call.
def write_networks(networks: Sequence[RiskNetwork], out_dir: str | Path) -> list[Path]:
    """New networks start a new study: no result of an earlier one stays."""
    paths = _write_windows(networks, out_dir, "networks", write_network)
    for sub in ("reports", "rankings", "charts"):
        _write_files(out_dir, sub, ())
    (Path(out_dir) / "timeseries.csv").unlink(missing_ok=True)
    return paths


def write_reports(reports: Sequence[RobustnessReport], out_dir: str | Path) -> list[Path]:
    return _write_windows(reports, out_dir, "reports", write_report)


def _write_ranking(table: RankingTable, path: Path) -> None:
    header = [field.name for field in fields(RankingRow)]
    _write_csv(header, map(attrgetter(*header), table.rows), path)


def write_rankings(rankings: Sequence[RankingTable], out_dir: str | Path) -> list[Path]:
    """One ``rankings/<period>.csv`` per table; every other ``*.csv`` there
    is deleted."""
    entries = [(f"{_period_slug(table.period)}.csv", _write_ranking, table) for table in rankings]
    return _write_files(out_dir, "rankings", entries)


def _median(values: Sequence[float]) -> float:
    """The middle value, or the mean of the two middle ones: the float
    ``numpy.median`` gives."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _period_of(label: str, sub_periods: Sequence[SubPeriod]) -> str:
    for period in sub_periods:
        if period.contains(label):
            return period.label
    return ""


# A row of timeseries.csv, whose header is its fields.
_TimeseriesRow = namedtuple(
    "_TimeseriesRow", "window label density normalized_kirchhoff median_clustering period"
)


def timeseries_rows(
    reports: Sequence[RobustnessReport], sub_periods: Sequence[SubPeriod]
) -> list[_TimeseriesRow]:
    """One row per window, in window order: its median clustering, and the
    sub-period it falls in (empty when none), beside its report's values."""
    return [
        _TimeseriesRow(
            report.window_id,
            report.label,
            report.density,
            report.normalized_kirchhoff,
            _median(report.clustering),
            _period_of(report.label, sub_periods),
        )
        for report in sorted(reports, key=lambda r: r.window_id)
    ]


def write_timeseries(
    reports: Sequence[RobustnessReport], sub_periods: Sequence[SubPeriod], out_dir: str | Path
) -> Path:
    path = Path(out_dir) / "timeseries.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(_TimeseriesRow._fields, timeseries_rows(reports, sub_periods), path)
    return path
