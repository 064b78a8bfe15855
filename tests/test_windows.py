"""Calendar-month windowing and eligibility."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from risknet.errors import WindowError
from risknet.panel import panel_from_rows
from risknet.windows import window_panel


def weekdays(start: dt.date, end: dt.date) -> list[dt.date]:
    days = []
    d = start
    while d <= end:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def make_panel(start, end, n_firms, missing=None, seed=0):
    rng = np.random.default_rng(seed)
    dates = weekdays(start, end)
    values = rng.normal(scale=0.02, size=(len(dates), n_firms))
    mask = np.ones_like(values, dtype=bool)
    if missing is not None:
        for t, j in missing:
            mask[t, j] = False
    firms = [f"F{j:03d}" for j in range(n_firms)]
    return panel_from_rows(dates, firms, values, mask)


def test_fifteen_years_of_months_gives_180_slices():
    panel = make_panel(dt.date(2001, 1, 1), dt.date(2015, 12, 31), 3)
    slices = window_panel(panel)
    assert len(slices) == 180
    assert slices[0].label == "2001-01"
    assert slices[-1].label == "2015-12"
    assert [s.window_id for s in slices] == list(range(1, 181))


def test_windows_partition_the_panel_dates():
    panel = make_panel(dt.date(2004, 3, 1), dt.date(2004, 7, 31), 4)
    slices = window_panel(panel)
    covered = [d for s in slices for d in s.dates]
    assert covered == list(panel.dates)


def test_month_without_dates_yields_no_slice():
    full = make_panel(dt.date(2008, 1, 1), dt.date(2008, 3, 31), 3)
    rows = [t for t, d in enumerate(full.dates) if d.month != 2]
    panel = panel_from_rows(
        [full.dates[t] for t in rows], full.firms, full.returns[rows], full.mask[rows]
    )
    slices = window_panel(panel)
    assert [(s.window_id, s.label) for s in slices] == [(1, "2008-01"), (2, "2008-03")]
    assert [d for s in slices for d in s.dates] == list(panel.dates)


def test_two_month_panel_preserves_firm_union():
    panel = make_panel(dt.date(2010, 1, 1), dt.date(2010, 2, 28), 5)
    slices = window_panel(panel)
    assert len(slices) == 2
    union = set()
    for s in slices:
        assert not s.degenerate
        union.update(s.firms)
    assert union == set(panel.firms)


def test_firm_below_min_obs_dropped_from_that_window_only():
    # knock firm 1 out of January only: 10 observed days < 15
    panel = make_panel(dt.date(2001, 1, 1), dt.date(2001, 2, 28), 3)
    jan_rows = [t for t, d in enumerate(panel.dates) if d.month == 1]
    missing = [(t, 1) for t in jan_rows[: len(jan_rows) - 10]]
    panel = make_panel(
        dt.date(2001, 1, 1), dt.date(2001, 2, 28), 3, missing=missing
    )
    slices = window_panel(panel, min_obs=15)
    assert "F001" not in slices[0].firms
    assert "F001" in slices[1].firms
    # every kept firm meets the eligibility floor
    for s in slices:
        assert (s.mask.sum(axis=0) >= 15).all()


def test_lower_min_obs_never_shrinks_eligibility():
    rng = np.random.default_rng(3)
    panel = make_panel(
        dt.date(2002, 1, 1),
        dt.date(2002, 6, 30),
        6,
        missing=[
            (int(t), int(j))
            for t, j in zip(rng.integers(0, 120, 300), rng.integers(0, 6, 300))
        ],
        seed=3,
    )
    for strict, loose in [(20, 15), (15, 10), (10, 1)]:
        strict_slices = window_panel(panel, min_obs=strict)
        loose_slices = window_panel(panel, min_obs=loose)
        for a, b in zip(strict_slices, loose_slices):
            assert set(a.firms) <= set(b.firms)


def test_degenerate_window_flagged_not_dropped():
    # one month where only a single firm has enough days
    panel = make_panel(dt.date(2001, 1, 1), dt.date(2001, 2, 28), 2)
    jan_rows = [t for t, d in enumerate(panel.dates) if d.month == 1]
    panel = make_panel(
        dt.date(2001, 1, 1),
        dt.date(2001, 2, 28),
        2,
        missing=[(t, 0) for t in jan_rows],
    )
    slices = window_panel(panel)
    assert len(slices) == 2
    assert slices[0].degenerate
    assert slices[0].firms == ("F001",)
    assert not slices[1].degenerate


def test_slices_are_read_only_and_share_no_memory_with_the_panel():
    panel = make_panel(dt.date(2003, 1, 1), dt.date(2003, 3, 31), 4, missing=[(0, 2), (5, 1)])
    for s in window_panel(panel):
        rows = [t for t, d in enumerate(panel.dates) if d in s.dates]
        columns = [panel.firms.index(f) for f in s.firms]
        for got, whole in ((s.returns, panel.returns), (s.mask, panel.mask)):
            assert np.array_equal(got, whole[np.ix_(rows, columns)], equal_nan=got.dtype == float)
            assert not got.flags.writeable
            assert not np.shares_memory(got, whole)


def test_bad_scheme_rejected():
    panel = make_panel(dt.date(2001, 1, 1), dt.date(2001, 1, 31), 2)
    with pytest.raises(WindowError, match="min_obs"):
        window_panel(panel, min_obs=0)

