"""Inputs, operations and output checks of the benchmark's workloads
(what each one covers and why: ``BENCHMARK.json`` and the README).

Every input comes from ``risknet.synthetic.generate_panel`` and the
workload seed. An operation is a list of ``risknet`` argument lists run one
after the other; ``check`` compares its outputs with ``reference.py`` and
returns the problems found, empty when the outputs are right.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from risknet.panel import ReturnPanel, panel_from_rows, save_returns
from risknet.pipeline import StudyConfig, analyze_panel, parse_periods, write_study
from risknet.synthetic import generate_panel, month_span

WORKLOADS = ("full-observed", "masked-days", "rerank-saved")

START = (2005, 1)
MASK_SHARE = 0.02
# what export-charts writes: one line chart per time series, and the weight
# band chart when any network has a positive weight
LINE_CHARTS = ("density.svg", "median_clustering.svg", "normalized_kirchhoff.svg")
BAND_CHART = "weights_by_year.svg"


@dataclass(frozen=True)
class Size:
    firms: int
    months: int
    masked_months: int


SIZES = {
    "paper": Size(firms=120, months=12, masked_months=6),
    "smoke": Size(firms=8, months=3, masked_months=3),
}


@dataclass
class Prepared:
    """A workload after its first set-up: what one operation runs, how to
    check it, and how to set up again."""

    # the ``risknet`` argument lists of one operation writing under the given
    # directory; clears what the previous operation left where it must
    commands: Callable[[Path], list[list[str]]]
    check: Callable[[Path], list[str]]
    windows: int
    # builds the inputs again, identically; ``setup_s`` has one time per build
    build: Callable[[], object]
    setup_repeats: int
    setup_s: list[float]
    reference_s: float
    facts: dict

    def build_again(self) -> None:
        self.setup_s.append(_timed(self.build)[0])


def _months(count: int) -> list[tuple[int, int]]:
    year, month = START
    end_index = year * 12 + month - 1 + count - 1
    return month_span(START, (end_index // 12, end_index % 12 + 1))


def _periods(months: list[tuple[int, int]], parts: int, prefix: str) -> list[reference.Period]:
    """Split the months into ``parts`` consecutive sub-periods."""
    return [reference.Period(f"{prefix}{i + 1}", months[chunk[0]], months[chunk[-1]])
            for i, chunk in enumerate(np.array_split(np.arange(len(months)), parts))]


def _periods_arg(periods: list[reference.Period]) -> str:
    return ";".join(f"{p.label}={p.start[0]:04d}-{p.start[1]:02d}..{p.end[0]:04d}-{p.end[1]:02d}"
                    for p in periods)


def make_panel(size: Size, months: int, seed: int, *, masked: bool) -> ReturnPanel:
    span = _months(months)
    panel = generate_panel(size.firms, span[0], span[-1], seed=seed, n_fragile=size.firms // 2)
    if not masked:
        return panel
    keep = np.random.default_rng([seed, 1]).random(panel.mask.shape) >= MASK_SHARE
    return panel_from_rows(panel.dates, panel.firms, panel.returns, panel.mask & keep)


def _timed(step: Callable[[], object]) -> tuple[float, object]:
    start = time.perf_counter()
    result = step()
    return time.perf_counter() - start, result


def _reference(panel: ReturnPanel, periods: list[reference.Period]):
    windows = reference.study(panel.dates, panel.firms, panel.returns, panel.mask)
    return windows, reference.rankings(windows, periods)


def _window_facts(windows: list[reference.Window], months: int) -> dict:
    analyzed = [w for w in windows if w.analyzed]
    return {
        "windows_analyzed": len(analyzed),
        "windows_skipped": months - len(analyzed),
        "windows_restricted": sum(len(w.analyzed) < len(w.firms) for w in analyzed),
    }


def _study(size: Size, months: int, seed: int, work: Path, *, masked: bool, repeats: int) -> Prepared:
    """``risknet analyze`` on a panel CSV; set-up builds and writes the CSV."""
    periods = _periods(_months(months), 2, "H")
    periods_arg = _periods_arg(periods)
    csv_path = work / "returns.csv"

    def build():
        panel = make_panel(size, months, seed, masked=masked)
        save_returns(panel, csv_path)
        return panel

    setup_s, panel = _timed(build)
    reference_s, (windows, tables) = _timed(lambda: _reference(panel, periods))

    def commands(op_dir: Path) -> list[list[str]]:
        return [["analyze", "--input", str(csv_path), "--out", str(op_dir), "--periods", periods_arg]]

    def check(op_dir: Path) -> list[str]:
        return reference.check_windows(op_dir, windows) + reference.check_rankings(op_dir, tables)

    facts = _window_facts(windows, months)
    return Prepared(commands, check, facts["windows_analyzed"], build, repeats, [setup_s], reference_s, {
        "firms": size.firms, "months": months, "masked_share": MASK_SHARE if masked else 0.0,
        "periods": periods_arg, **facts, "input_bytes": csv_path.stat().st_size,
    })


def _rerank(size: Size, seed: int, work: Path, *, repeats: int) -> Prepared:
    """Re-rank and re-chart a saved tree; set-up writes the tree."""
    span = _months(size.months)
    saved = StudyConfig(sub_periods=parse_periods(_periods_arg(_periods(span, 2, "H"))))
    periods = _periods(span, 3, "T")
    periods_arg = _periods_arg(periods)
    tree = work / "study"

    def write_tree():
        shutil.rmtree(tree, ignore_errors=True)
        panel = make_panel(size, size.months, seed, masked=False)
        write_study(analyze_panel(panel, saved), saved, tree)
        return panel

    setup_s, panel = _timed(write_tree)
    reference_s, (windows, tables) = _timed(lambda: _reference(panel, periods))
    # the operations only read the tree, so it is checked once, here
    problems = reference.check_windows(tree, windows)
    if problems:
        raise RuntimeError(f"the saved study tree differs from the reference: {problems[:5]}")
    charts = sorted(LINE_CHARTS + ((BAND_CHART,) if any(w.weights.any() for w in windows) else ()))

    def commands(op_dir: Path) -> list[list[str]]:
        for stale in ("rankings", "charts"):
            shutil.rmtree(tree / stale, ignore_errors=True)
        return [
            ["rank", "--out", str(tree), "--periods", periods_arg],
            ["export-charts", "--out", str(tree), "--periods", periods_arg],
        ]

    def check(op_dir: Path) -> list[str]:
        problems = reference.check_rankings(tree, tables)
        emitted = sorted(p.name for p in (tree / "charts").glob("*.svg"))
        if emitted != charts:
            problems.append(f"charts {emitted}, expected {charts}")
        return problems

    tree_bytes = sum(p.stat().st_size for p in tree.rglob("*") if p.is_file())
    facts = _window_facts(windows, size.months)
    return Prepared(commands, check, facts["windows_analyzed"], write_tree, repeats, [setup_s],
                    reference_s, {"firms": size.firms, "months": size.months,
                                  "periods": periods_arg, **facts, "tree_bytes": tree_bytes})


def prepare(workload: str, size: Size, seed: int, work: Path) -> Prepared:
    if workload == "full-observed":
        return _study(size, size.months, seed, work, masked=False, repeats=31)
    if workload == "masked-days":
        return _study(size, size.masked_months, seed, work, masked=True, repeats=31)
    if workload == "rerank-saved":
        return _rerank(size, seed, work, repeats=3)
    raise ValueError(f"unknown workload {workload!r}")
