"""Metamorphic relations of the whole study: changes to the panel that
must leave the outputs as they were. Neither the reference nor the
per-stage oracles can see an estimator that depends on the scale of the
returns or on the order of the firm columns; these relations can."""

from __future__ import annotations

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from risknet.cli import main
from risknet.panel import ReturnPanel, panel_from_rows, save_returns
from risknet.reports import read_networks, read_reports
from risknet.synthetic import generate_panel

# two calendar years, so the band chart has two bands
SPAN = ((2006, 11), (2007, 2))
FIRMS = 12

PANELS = st.fixed_dictionaries(
    {"seed": st.integers(0, 2**32 - 1), "masked": st.sampled_from([0.0, 0.02, 0.05])}
)


def make_panel(seed: int, masked: float) -> ReturnPanel:
    """A small synthetic panel with a share ``masked`` of its cells missing."""
    panel = generate_panel(FIRMS, *SPAN, seed=seed, stress=None)
    keep = np.random.default_rng([seed, 1]).random(panel.mask.shape) >= masked
    return panel_from_rows(panel.dates, panel.firms, panel.returns, panel.mask & keep)


def analyze(panel: ReturnPanel, out: Path, *flags: str) -> Path:
    """``risknet analyze`` of ``panel`` into ``out``."""
    source = out.with_suffix(".csv")
    save_returns(panel, source)
    assert main(["analyze", "--input", str(source), "--out", str(out), *flags]) == 0
    return out


def tree(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@settings(max_examples=20, derandomize=True, deadline=None)
@given(PANELS, st.sampled_from([2.0, 0.25]))
def test_scaling_every_return_leaves_the_tree_unchanged(panel, scale):
    # every weight is a ratio of sums of returns: a power of two cancels exactly
    base = make_panel(**panel)
    scaled = panel_from_rows(base.dates, base.firms, base.returns * scale, base.mask)
    with tempfile.TemporaryDirectory() as tmp:
        first = analyze(base, Path(tmp, "base"), "--charts")
        second = analyze(scaled, Path(tmp, "scaled"), "--charts")
        assert tree(first) == tree(second)


def by_name(out: Path) -> tuple[dict, dict]:
    """Each window's edge weights by the names of their two firms, and its
    removal impacts and surviving orders by firm."""
    edges = {
        net.label: {
            tuple(sorted((net.firms[i], net.firms[j]))): w
            for i, j, w in zip(net.rows, net.cols, net.weights)
        }
        for net in read_networks(out)
    }
    impacts = {
        report.label: dict(zip(report.analyzed_firms, zip(report.werc, report.surviving_order)))
        for report in read_reports(out)
    }
    return edges, impacts


def rankings(out: Path) -> dict[str, list[list[str]]]:
    tables = {}
    for path in sorted((out / "rankings").glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as handle:
            tables[path.name] = list(csv.reader(handle))
    return tables


@settings(max_examples=20, derandomize=True, deadline=None)
@given(PANELS, st.data())
def test_reordering_the_firm_columns_moves_no_edge_or_rank(panel, data):
    base = make_panel(**panel)
    order = data.draw(st.permutations(range(FIRMS)))
    moved = panel_from_rows(
        base.dates, [base.firms[j] for j in order], base.returns[:, order], base.mask[:, order]
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second = analyze(base, Path(tmp, "base")), analyze(moved, Path(tmp, "moved"))
        (edges, impacts), (moved_edges, moved_impacts) = by_name(first), by_name(second)
        # each pair's weight is computed on its own days: bit for bit
        assert moved_edges == edges
        # the factorizations eliminate in vertex order, so only the last bits move
        assert moved_impacts.keys() == impacts.keys()
        for label, firms in impacts.items():
            assert moved_impacts[label].keys() == firms.keys()
            for firm, (werc, survivors) in firms.items():
                moved_werc, moved_survivors = moved_impacts[label][firm]
                assert moved_survivors == survivors
                assert math.isclose(moved_werc, werc, rel_tol=1e-9, abs_tol=0.0)
        table, moved_table = rankings(first), rankings(second)
        assert table.keys() == moved_table.keys()
        for name, rows in table.items():
            assert [row[0] for row in moved_table[name]] == [row[0] for row in rows]
