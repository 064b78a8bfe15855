"""The benchmark's own reference study, and checks of a study's outputs
against it.

The reference is computed here from the in-memory panel with numpy alone:
calendar-month windows, tail-impact edge weights, largest components,
Kirchhoff index and WERC of every vertex, and the period rankings. It
follows the method as ``risknet``'s docstrings state it, but calls none of
``risknet``'s code, so a change to the program that alters its results
cannot move the reference along with it. The checks read the program's
output files with ``json`` and ``csv`` only.

Kirchhoff indices come from the Laplacian pseudo-inverse, taken as
inv(L + J/n) - J/n (exact for a connected network), with no eigensolver;
see the README for why ``risknet.spectral.effective_resistance_oracle`` is
not used.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# risknet's defaults (StudyConfig.alpha, WindowScheme.min_obs, the ranking
# coverage floor), which the benchmark's commands do not override
ALPHA = 0.05
MIN_OBS = 15
COVERAGE_FLOOR = 0.25
ALL_PERIODS = "All periods"

# An exact but different estimator may change the last digits of a weight.
WEIGHT_ATOL = 1e-9
# Kirchhoff, WERC and mean_werc may differ in the last digits (another
# exact WERC kernel); the firm order may differ only between firms whose
# reference means agree within RANK_RTOL.
KIRCHHOFF_RTOL = 1e-6
WERC_RTOL = 1e-6
WERC_ATOL = 1e-9
RANK_RTOL = 1e-6


@dataclass(frozen=True)
class Period:
    label: str
    start: tuple[int, int]
    end: tuple[int, int]


@dataclass(frozen=True)
class Window:
    """One non-degenerate window: its network, and its robustness figures
    when it is analyzable (``analyzed`` is empty otherwise)."""

    window_id: int
    month: tuple[int, int]
    firms: tuple[str, ...]
    weights: np.ndarray
    analyzed: tuple[str, ...]
    kirchhoff: float
    werc: tuple[float, ...]
    surviving: tuple[int | None, ...]


@dataclass(frozen=True)
class Row:
    firm: str
    mean_werc: float
    quartile: int
    coverage: int


def _shortfall(series: np.ndarray, alpha: float) -> float:
    k = max(1, math.floor(alpha * series.size))
    q = np.partition(series, k - 1)[k - 1]
    return float(-series[series <= q].mean())


def directed_weights(returns: np.ndarray, mask: np.ndarray, alpha: float = ALPHA) -> np.ndarray:
    """Entry [j, i]: weight of source j -> target i, 1 - clip((ES_i - MES_ij)
    / (mean_i + ES_i)), zero when the conditional tail mean of i exceeds its
    mean, when the tail spread is not positive, when the pair shares fewer
    than max(MIN_OBS, 1/alpha) days, or when either firm has fewer than
    1/alpha observed days. Mean and ES are on each firm's own days, MES on
    the pair's common days."""
    days, n = returns.shape
    weights = np.zeros((n, n))
    needed = math.ceil(1.0 / alpha)
    if days < needed:
        return weights
    floor = max(MIN_OBS, needed)
    observed = mask.sum(axis=0)
    mean = np.array([returns[mask[:, i], i].mean() for i in range(n)])
    shortfall = np.array([_shortfall(returns[mask[:, i], i], alpha) if observed[i] >= needed
                          else math.nan for i in range(n)])
    profiled = observed >= needed
    values = np.where(mask, returns, 0.0)
    for j in range(n):
        if not profiled[j]:
            continue
        common = mask & mask[:, [j]]
        count = common.sum(axis=0)
        k = np.maximum(1, np.floor(alpha * count).astype(int))
        source = np.sort(np.where(common, returns[:, [j]], np.inf), axis=0)
        quantile = source[np.minimum(k, days) - 1, np.arange(n)]
        tail = common & (returns[:, [j]] <= quantile)
        with np.errstate(invalid="ignore", divide="ignore"):
            mes = -(values * tail).sum(axis=0) / tail.sum(axis=0)
            spread = mean + shortfall
            raw = (shortfall - mes) / spread
        live = profiled & (count >= floor) & (mean >= -mes) & (spread > 0.0)
        live[j] = False
        weights[j, live] = 1.0 - np.clip(raw[live], 0.0, 1.0)
    return weights


def components(adjacency: np.ndarray) -> list[np.ndarray]:
    """Vertex index arrays of the components, ordered by smallest vertex."""
    seen = np.zeros(len(adjacency), dtype=bool)
    found = []
    for start in range(len(adjacency)):
        if seen[start]:
            continue
        reach = np.zeros(len(adjacency), dtype=bool)
        reach[start] = True
        frontier = reach.copy()
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~reach
            reach |= frontier
        seen |= reach
        found.append(np.flatnonzero(reach))
    return found


def kirchhoff(weights: np.ndarray) -> float:
    """Sum of pairwise effective resistances of a connected network."""
    n = len(weights)
    laplacian = np.diag(weights.sum(axis=1)) - weights
    pinv = np.linalg.inv(laplacian + 1.0 / n) - 1.0 / n
    return float(n * np.trace(pinv) - pinv.sum())


def _robustness(weights: np.ndarray) -> tuple[float, tuple[float, ...], tuple[int | None, ...]]:
    """Kirchhoff index, WERC of every vertex (relative change of K / C(n, 2)
    on removal, +inf when removal disconnects) and, for the +inf vertices,
    the order of the largest surviving piece."""
    n = len(weights)
    total = kirchhoff(weights)
    base = total / math.comb(n, 2)
    werc, surviving = [], []
    for v in range(n):
        keep = np.flatnonzero(np.arange(n) != v)
        reduced = weights[np.ix_(keep, keep)]
        pieces = components(reduced > 0.0)
        if len(pieces) > 1:
            werc.append(math.inf)
            surviving.append(max(len(p) for p in pieces))
        else:
            werc.append((kirchhoff(reduced) / math.comb(n - 1, 2) - base) / base)
            surviving.append(None)
    return total, tuple(werc), tuple(surviving)


def study(dates, firms, returns: np.ndarray, mask: np.ndarray) -> list[Window]:
    """Every non-degenerate calendar-month window of the panel."""
    months: dict[tuple[int, int], list[int]] = {}
    for row, day in enumerate(dates):
        months.setdefault((day.year, day.month), []).append(row)
    windows = []
    for window_id, (month, rows) in enumerate(months.items(), start=1):
        eligible = np.flatnonzero(mask[rows].sum(axis=0) >= MIN_OBS)
        if len(eligible) < 2:
            continue
        sub = np.ix_(rows, eligible)
        directed = directed_weights(returns[sub], mask[sub])
        weights = (directed + directed.T) / 2.0
        names = tuple(firms[i] for i in eligible)
        pieces = components(weights > 0.0)
        top = max(len(p) for p in pieces)
        best = min((p for p in pieces if len(p) == top),
                   key=lambda p: tuple(sorted(names[i] for i in p)))
        analyzed, total, werc, surviving = (), math.nan, (), ()
        if len(best) >= 3:
            analyzed = tuple(names[i] for i in best)
            total, werc, surviving = _robustness(weights[np.ix_(best, best)])
        windows.append(Window(window_id, month, names, weights, analyzed, total, werc, surviving))
    return windows


def rankings(windows: list[Window], periods: list[Period]) -> dict[str, list[Row]]:
    """Ranking table of every period and of all periods, by file slug.

    A firm enters a table when present in at least a quarter of the
    period's analyzed windows. Firms whose removal ever disconnected a
    window come first (+inf mean), by how often they disconnect, then by
    the smaller average surviving piece, then by name; the others by
    descending mean WERC, then by name. The first quartile is the top
    ceil(#firms / 4)."""
    analyzed = [w for w in windows if w.analyzed]
    tables = {}
    for period in [*periods, None]:
        members = [w for w in analyzed if period is None or period.start <= w.month <= period.end]
        values: dict[str, list[float]] = {}
        survivors: dict[str, list[int]] = {}
        for window in members:
            for firm, value, survivor in zip(window.analyzed, window.werc, window.surviving):
                values.setdefault(firm, []).append(value)
                if survivor is not None:
                    survivors.setdefault(firm, []).append(survivor)
        ranked = []
        for firm, seen in values.items():
            if len(seen) < COVERAGE_FLOOR * len(members):
                continue
            if firm in survivors:
                cut = survivors[firm]
                ranked.append(((0, -len(cut), sum(cut) / len(cut), firm), math.inf, firm, len(seen)))
            else:
                mean = sum(seen) / len(seen)
                ranked.append(((1, -mean, 0.0, firm), mean, firm, len(seen)))
        ranked.sort()
        chunk = math.ceil(len(ranked) / 4) if ranked else 1
        label = ALL_PERIODS if period is None else period.label
        tables[slug(label)] = [Row(firm, mean, min(4, 1 + position // chunk), coverage)
                               for position, (_, mean, firm, coverage) in enumerate(ranked)]
    return tables


def slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def _number(value) -> float:
    return math.inf if value == "inf" else float(value)


def check_rankings(out_dir: Path, tables: dict[str, list[Row]]) -> list[str]:
    """Every period's ``rankings/<slug>.csv`` against the reference table."""
    problems = []
    for name, want in tables.items():
        path = out_dir / "rankings" / f"{name}.csv"
        if not path.is_file():
            problems.append(f"missing rankings/{path.name}")
            continue
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        by_firm = {row.firm: row for row in want}
        if sorted(r["firm"] for r in rows) != sorted(by_firm):
            problems.append(f"{path.name}: firms differ from the reference")
            continue
        for position, (got, expected) in enumerate(zip(rows, want)):
            ref = by_firm[got["firm"]]
            mean = _number(got["mean_werc"])
            tied = math.isfinite(ref.mean_werc) and _close(ref.mean_werc, expected.mean_werc, RANK_RTOL)
            if got["firm"] != expected.firm and not tied:
                problems.append(f"{path.name}: rank {position + 1} is {got['firm']}, "
                                f"reference has {expected.firm}")
            elif not _close(mean, ref.mean_werc, RANK_RTOL):
                problems.append(f"{path.name}: {ref.firm} mean_werc {mean!r} vs {ref.mean_werc!r}")
            elif (int(got["rank"]), int(got["quartile"]), int(got["coverage"])) != (
                    position + 1, expected.quartile, ref.coverage):
                problems.append(f"{path.name}: {ref.firm} rank/quartile/coverage "
                                f"{got['rank']}/{got['quartile']}/{got['coverage']}")
            else:
                continue
            break
    return problems


def _load(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_windows(out_dir: Path, windows: list[Window]) -> list[str]:
    """The tree's ``networks/`` and ``reports/`` against the reference: one
    file per window, every edge weight, the analyzed firms, Kirchhoff
    index, every vertex's WERC and the surviving order of +inf vertices."""
    problems = []
    want_networks = sorted(f"window_{w.window_id}.json" for w in windows)
    want_reports = sorted(f"window_{w.window_id}.json" for w in windows if w.analyzed)
    for sub, want in (("networks", want_networks), ("reports", want_reports)):
        got = sorted(p.name for p in (out_dir / sub).glob("window_*.json"))
        if got != want:
            problems.append(f"{sub}/ holds {len(got)} windows, reference has {len(want)}")
    if problems:
        return problems
    for window in windows:
        name = f"window_{window.window_id}.json"
        net = _load(out_dir / "networks" / name)
        if tuple(net["firms"]) != window.firms:
            problems.append(f"networks/{name}: firms differ from the reference")
            continue
        edges = np.array(net["edges"], dtype=float).reshape(-1, 3)
        i, j = edges[:, 0].astype(int), edges[:, 1].astype(int)
        weights = np.zeros_like(window.weights)
        weights[i, j] = weights[j, i] = edges[:, 2]
        worst = float(np.abs(weights - window.weights).max(initial=0.0))
        if worst > WEIGHT_ATOL:
            problems.append(f"networks/{name}: a weight is {worst:.3g} off the reference")
        if not window.analyzed:
            continue
        report = _load(out_dir / "reports" / name)
        vertices = report["vertices"]
        if tuple(v["firm"] for v in vertices) != window.analyzed:
            problems.append(f"reports/{name}: analyzed firms differ from the reference")
            continue
        total = _number(report["kirchhoff"])
        if not _close(total, window.kirchhoff, KIRCHHOFF_RTOL):
            problems.append(f"reports/{name}: kirchhoff {total!r} vs {window.kirchhoff!r}")
        for vertex, werc, survivor in zip(vertices, window.werc, window.surviving):
            value = _number(vertex["werc"])
            if not _close(value, werc, WERC_RTOL, WERC_ATOL) or vertex["surviving_order"] != survivor:
                problems.append(f"reports/{name}: {vertex['firm']} werc {value!r} "
                                f"(surviving {vertex['surviving_order']}) vs {werc!r} ({survivor})")
                break
    return problems
