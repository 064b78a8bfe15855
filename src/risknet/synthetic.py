"""Synthetic daily return panels with known risk structure.

The generator produces a weekday panel driven by a small factor model:

* each firm loads on one of a few sector factors (heavy-tailed), giving
  blocks of ordinary tail co-movement;
* every firm also loads weakly on one common heavy-tailed factor, and the
  first firm ("the carrier") loads on it strongly while also straddling
  all sectors, which makes it the dominant systemic vertex by design;
* inside an optional stress regime the common-factor loadings of the firms
  still trading are boosted (elevated correlation), while a chosen set of
  fragile firms stops reporting for those whole months, shrinking the
  eligible cross-section the way crisis delistings and halts do.

The point is a panel whose network diagnostics are known in advance: calm
months give a sector-blocked network of full width; stress months give a
denser network over fewer firms, which raises the per-pair resistance
level. Useful for demos and for exercising the full pipeline without
proprietary data.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from .panel import ReturnPanel, panel_from_rows

__all__ = ["generate_panel", "month_span"]

N_SECTORS = 4
STRESS_BOOST = 2.5  # common-factor loading multiplier inside the regime
SCALE = 0.01  # daily return units per factor-model unit


def month_span(start: tuple[int, int], end: tuple[int, int]) -> list[tuple[int, int]]:
    """All (year, month) pairs from start to end inclusive."""
    for month in (start, end):
        if not 1 <= month[1] <= 12:  # a start month past 12 would never end the loop below
            raise ValueError(f"month out of range in {month}")
    if start > end:
        raise ValueError(f"start month {start} after end month {end}")
    months = []
    y, m = start
    while (y, m) <= end:
        months.append((y, m))
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return months


def _weekday_dates(start: tuple[int, int], end: tuple[int, int]) -> list[dt.date]:
    """Every Monday-Friday date in the inclusive month range (refused when
    reversed, by :func:`month_span`)."""
    out = []
    for year, month in month_span(start, end):
        day = dt.date(year, month, 1)
        while day.month == month:
            if day.weekday() < 5:
                out.append(day)
            day += dt.timedelta(days=1)
    return out


def generate_panel(
    n_firms: int = 120,
    start: tuple[int, int] = (2001, 1),
    end: tuple[int, int] = (2015, 12),
    *,
    seed: int = 20,
    stress: tuple[tuple[int, int], tuple[int, int]] | None = ((2008, 1), (2009, 6)),
    n_fragile: int = 60,
) -> ReturnPanel:
    """Build the factor panel described in the module docstring.

    ``stress`` bounds the regime months inclusively (None for no regime);
    ``n_fragile`` firms (never the carrier) go missing during the regime.
    The same seed always yields the same panel.
    """
    if n_firms < 3:
        raise ValueError("need at least three firms")
    rng = np.random.default_rng(seed)
    dates = _weekday_dates(start, end)
    t = len(dates)

    sector_of = np.arange(n_firms) % N_SECTORS
    sector_factors = rng.standard_t(df=5, size=(t, N_SECTORS))
    common_factor = rng.standard_t(df=3, size=t)
    idio = rng.normal(size=(t, n_firms))

    sector_load = rng.uniform(0.8, 1.2, size=n_firms)
    common_load = rng.uniform(0.15, 0.35, size=n_firms)
    # the carrier: strong on the common tail factor, present in every sector
    carrier_sector_load = 1.0
    common_load[0] = 1.5

    in_stress = np.zeros(t, dtype=bool)
    fragile = np.zeros(n_firms, dtype=bool)
    if stress is not None:
        stress_months = set(month_span(*stress))
        in_stress = np.array([(d.year, d.month) in stress_months for d in dates])
        if n_fragile >= n_firms:
            raise ValueError("n_fragile must leave some firms trading")
        candidates = rng.permutation(np.arange(1, n_firms))
        fragile[candidates[:n_fragile]] = True

    boost = np.where(in_stress, STRESS_BOOST, 1.0)[:, None]
    values = (
        sector_factors[:, sector_of] * sector_load[None, :]
        + boost * common_factor[:, None] * common_load[None, :]
        + idio
    )
    values[:, 0] = (
        sector_factors.sum(axis=1) * carrier_sector_load
        + boost[:, 0] * common_factor * common_load[0]
        + idio[:, 0]
    )
    values *= SCALE

    mask = np.ones((t, n_firms), dtype=bool)
    if stress is not None and fragile.any():
        mask[np.ix_(in_stress, fragile)] = False

    firms = [f"F{j:03d}" for j in range(n_firms)]
    return panel_from_rows(dates, firms, values, mask)
