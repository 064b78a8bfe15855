"""The synthetic panel generator's shape and regime guarantees."""

from __future__ import annotations

import numpy as np
import pytest

from risknet.synthetic import _weekday_dates, generate_panel, month_span


def test_month_span_and_weekdays():
    assert month_span((2001, 11), (2002, 2)) == [
        (2001, 11),
        (2001, 12),
        (2002, 1),
        (2002, 2),
    ]
    days = _weekday_dates((2001, 2), (2001, 2))
    assert len(days) == 20  # February 2001 has exactly 20 weekdays
    assert all(d.weekday() < 5 for d in days)
    with pytest.raises(ValueError, match="after end"):
        month_span((2002, 1), (2001, 1))


def test_same_seed_same_panel():
    a = generate_panel(15, (2004, 1), (2004, 6), seed=3, n_fragile=5)
    b = generate_panel(15, (2004, 1), (2004, 6), seed=3, n_fragile=5)
    assert a.dates == b.dates
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.returns[a.mask], b.returns[b.mask])
    c = generate_panel(15, (2004, 1), (2004, 6), seed=4, n_fragile=5)
    assert not np.array_equal(a.returns[a.mask], c.returns[c.mask])


def test_fragile_firms_missing_only_in_stress_months():
    panel = generate_panel(
        20, (2007, 1), (2008, 12), seed=6, stress=((2008, 1), (2008, 6)), n_fragile=7
    )
    stress_rows = np.array(
        [d.year == 2008 and d.month <= 6 for d in panel.dates]
    )
    absent = ~panel.mask
    # missing cells exist, all inside the regime, and never for the carrier
    assert absent.any()
    assert not absent[~stress_rows, :].any()
    assert not absent[:, 0].any()
    fragile_cols = np.flatnonzero(absent.any(axis=0))
    assert len(fragile_cols) == 7
    # fragile firms are dark for the whole regime
    assert absent[np.ix_(stress_rows, fragile_cols)].all()


def test_no_stress_regime_means_fully_observed():
    panel = generate_panel(9, (2010, 1), (2010, 3), seed=1, stress=None)
    assert panel.mask.all()


def test_generator_input_validation():
    with pytest.raises(ValueError, match="three firms"):
        generate_panel(2, (2007, 1), (2007, 2), seed=1)
    with pytest.raises(ValueError, match="leave some firms"):
        generate_panel(5, (2007, 1), (2007, 2), seed=1, n_fragile=5)
    with pytest.raises(ValueError, match="after end month"):
        generate_panel(5, (2009, 1), (2008, 1), stress=None)
    with pytest.raises(ValueError, match=r"month out of range in \(2007, 13\)"):
        generate_panel(5, (2007, 13), (2008, 1), stress=None)
    with pytest.raises(ValueError, match=r"month out of range in \(2007, 13\)"):
        generate_panel(5, (2007, 1), (2007, 2), stress=((2007, 1), (2007, 13)))
