"""Calendar windowing of return panels.

The study builds one network per calendar month, so that is the only
windowing: panels are cut into calendar-month windows indexed t = 1..T in
date order. A firm is eligible in a window when it has at least
``min_obs`` observed days there (15 by default); a window with fewer than
two eligible firms is kept (so the windows still partition the panel's
dates) but flagged degenerate and skipped by downstream stages.

Missing days inside a window are never imputed: univariate statistics use
each firm's own observed days, pair statistics use the intersection of the
two firms' observed days.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import WindowError
from .panel import ReturnPanel

__all__ = ["WindowSlice", "window_panel"]


@dataclass(frozen=True)
class WindowSlice:
    """One window of a panel, restricted to its eligible firms.

    ``returns`` and ``mask`` have shape (window days, eligible firms).
    ``label`` is the calendar month as ``YYYY-MM``. ``degenerate`` is True
    when fewer than two firms are eligible; such slices exist only to keep
    the windowing a partition of the panel's dates.
    """

    window_id: int
    label: str
    dates: tuple
    firms: tuple[str, ...]
    returns: np.ndarray
    mask: np.ndarray
    min_obs: int
    degenerate: bool = field(default=False)

    def __post_init__(self) -> None:
        self.returns.setflags(write=False)
        self.mask.setflags(write=False)

    @property
    def n_days(self) -> int:
        return len(self.dates)

    @property
    def n_firms(self) -> int:
        return len(self.firms)


def window_panel(panel: ReturnPanel, min_obs: int = 15) -> list[WindowSlice]:
    """Cut ``panel`` into calendar-month slices.

    Every month holding one of the panel's dates yields one slice (in date
    order, window_id starting at 1), so the slices partition the panel's
    dates; a month with no date takes no id (January and March 2008 give
    ids 1 and 2). Months with fewer than two eligible firms come back
    flagged degenerate. A ``min_obs`` below 1 raises :class:`WindowError`.
    """
    if min_obs < 1:
        raise WindowError(f"min_obs must be positive, got {min_obs}")
    slices: list[WindowSlice] = []
    # dates strictly increase, so each month's rows are one run, start:end
    end = 0
    months = groupby(panel.dates, lambda d: (d.year, d.month))
    for window_id, ((year, month), days) in enumerate(months, start=1):
        start, end = end, end + sum(1 for _ in days)
        eligible = np.flatnonzero(panel.mask[start:end].sum(axis=0) >= min_obs)
        firms = tuple(panel.firms[j] for j in eligible)
        slices.append(
            WindowSlice(
                window_id=window_id,
                label=f"{year:04d}-{month:02d}",
                dates=panel.dates[start:end],
                firms=firms,
                returns=panel.returns[start:end, eligible].copy(),
                mask=panel.mask[start:end, eligible].copy(),
                min_obs=min_obs,
                degenerate=len(firms) < 2,
            )
        )
    return slices
