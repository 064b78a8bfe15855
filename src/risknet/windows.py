"""Calendar windowing of return panels.

Panels are cut into calendar-month windows indexed t = 1..T in date order.
A firm is eligible in a window when it has at least ``min_obs`` observed
days there; a window with fewer than two eligible firms is kept (so the
windows still partition the panel's dates) but flagged degenerate and
skipped by downstream stages.

Missing days inside a window are never imputed: univariate statistics use
each firm's own observed days, pair statistics use the intersection of the
two firms' observed days.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import WindowError
from .panel import ReturnPanel

__all__ = ["WindowScheme", "WindowSlice", "window_panel"]

_SCHEME_KINDS = ("calendar_month",)


@dataclass(frozen=True)
class WindowScheme:
    """How to cut a panel into windows.

    ``kind`` currently must be ``"calendar_month"``; ``min_obs`` is the
    minimum number of observed days a firm needs inside a window to be
    eligible there.
    """

    kind: str = "calendar_month"
    min_obs: int = 15

    def __post_init__(self) -> None:
        if self.kind not in _SCHEME_KINDS:
            raise WindowError(
                f"unknown window scheme {self.kind!r}; expected one of {_SCHEME_KINDS}"
            )
        if self.min_obs < 1:
            raise WindowError(f"min_obs must be positive, got {self.min_obs}")


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


def window_panel(panel: ReturnPanel, scheme: WindowScheme) -> list[WindowSlice]:
    """Cut ``panel`` into calendar-month slices.

    Every month between the panel's first and last date yields one slice
    (in date order, window_id starting at 1), so the slices partition the
    panel's dates. Months with fewer than two eligible firms come back
    flagged degenerate.
    """
    month_keys = [(d.year, d.month) for d in panel.dates]
    slices: list[WindowSlice] = []
    order: list[tuple[int, int]] = []
    groups: dict[tuple[int, int], list[int]] = {}
    for row, key in enumerate(month_keys):
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    for window_id, key in enumerate(order, start=1):
        rows = np.array(groups[key], dtype=int)
        sub_mask = panel.mask[rows, :]
        counts = sub_mask.sum(axis=0)
        eligible = np.flatnonzero(counts >= scheme.min_obs)
        label = f"{key[0]:04d}-{key[1]:02d}"
        firms = tuple(panel.firms[j] for j in eligible)
        returns = panel.returns[np.ix_(rows, eligible)].copy()
        mask = sub_mask[:, eligible].copy()
        slices.append(
            WindowSlice(
                window_id=window_id,
                label=label,
                dates=tuple(panel.dates[r] for r in rows),
                firms=firms,
                returns=returns,
                mask=mask,
                min_obs=scheme.min_obs,
                degenerate=len(firms) < 2,
            )
        )
    return slices
