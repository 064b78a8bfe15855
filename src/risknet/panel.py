"""Daily return panels: the input data model and its text format.

A panel is a wide table. The first column holds ISO-8601 dates, one row per
trading day, and every other column holds one firm's daily returns. Empty
cells mean "not observed" (the firm did not trade or report that day); they
are tracked in a boolean mask, never imputed.

Files are read in one pass and validated as they are parsed: one parser
turns each cell into a float, so errors can name the offending row and
column, and each row is kept as packed doubles until the panel is built.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
from array import array
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import PanelFormatError
from .reports import _opened

__all__ = ["ReturnPanel", "load_returns", "save_returns"]


@dataclass(frozen=True)
class ReturnPanel:
    """Immutable daily return panel.

    Attributes
    ----------
    dates : tuple of ``datetime.date``, strictly increasing.
    firms : tuple of str, unique, in file column order.
    returns : float array of shape ``(len(dates), len(firms))``. Entries
        where ``mask`` is False hold NaN and must not be read as data.
    mask : bool array, same shape; True where a return was observed.
    """

    dates: tuple[dt.date, ...]
    firms: tuple[str, ...]
    returns: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        t, n = len(self.dates), len(self.firms)
        if self.returns.shape != (t, n) or self.mask.shape != (t, n):
            raise PanelFormatError(
                f"shape mismatch: {t} dates x {n} firms vs returns "
                f"{self.returns.shape} and mask {self.mask.shape}"
            )
        if len(set(self.firms)) != n:
            raise PanelFormatError("duplicate firm identifiers")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise PanelFormatError("dates must be strictly increasing")
        if not np.all(np.isfinite(self.returns) | ~self.mask):
            raise PanelFormatError("observed returns must be finite")
        self.returns.setflags(write=False)
        self.mask.setflags(write=False)

    @property
    def n_days(self) -> int:
        return len(self.dates)

    @property
    def n_firms(self) -> int:
        return len(self.firms)


def _shown(text: str) -> str:
    """``repr(text)``; for a cell over several lines (a quote left open makes
    one of the rest of the file), its first line and a count of the others."""
    first, *rest = re.split(r"\r\n?|\n", text.rstrip("\r\n"))
    if not rest:
        return repr(text)
    return f"{first!r} and {len(rest)} more line{'s' * (len(rest) > 1)} (an unclosed quote?)"


def _underflows(text: str) -> bool:
    """Whether number text that reads as 0.0 has a nonzero mantissa, as ``1e-400``."""
    return bool(text.strip().lower().partition("e")[0].strip("+-.0"))


def _parse_cell(text: str, row: int, firm: str) -> float:
    """The cell's return, NaN when it is blank. A cell that is not ASCII
    decimal text, not finite, or a nonzero that underflows to 0.0 raises,
    naming the row, the column and the text."""
    value_text = text.strip()
    if not value_text:
        return math.nan
    try:
        if not value_text.isascii() or "_" in value_text:  # float() reads both
            raise ValueError
        value = float(value_text)
    except ValueError:
        raise PanelFormatError(
            f"row {row}, column {firm!r}: not a number: {_shown(text)}"
        ) from None
    if not math.isfinite(value):
        raise PanelFormatError(
            f"row {row}, column {firm!r}: non-finite value {text!r}"
        )
    if value == 0.0 and _underflows(value_text):
        raise PanelFormatError(f"row {row}, column {firm!r}: nonzero {text!r} underflows to 0.0")
    return value


def load_returns(path: str | Path, *, delimiter: str = ",") -> ReturnPanel:
    """Parse the delimited UTF-8 return table at ``path`` into a :class:`ReturnPanel`.

    The first row is a required header ("date" plus one firm identifier per
    column); data rows carry an ISO date followed by returns, with empty cells
    meaning missing. Rows are sorted by date. Every cell goes through
    :func:`_parse_cell`, in file order, so parse errors name the 1-based
    file row, the column involved and the cell's text, and the first bad
    cell in the file is the one named. Each row is kept as an
    ``array('d')`` of 8 bytes a value, and ``returns`` is built from their
    joined bytes. The file is parsed as it is read, so a bad row is named
    before a byte that is not UTF-8 in a later 8 KiB block. A line ends only
    at CR, LF or CRLF.
    """
    with _opened(path, PanelFormatError) as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader, None)
            if header is None:
                raise PanelFormatError("empty table: no header row")
            if len(header) < 2:
                raise PanelFormatError("header must list a date column and at least one firm")
            firms = tuple(name.strip() for name in header[1:])
            if any(not name for name in firms):
                raise PanelFormatError("blank firm identifier in header")
            if len(set(firms)) != len(firms):
                dupes = sorted({f for f in firms if firms.count(f) > 1})
                raise PanelFormatError(f"duplicate firm columns: {', '.join(dupes)}")

            rows: list[tuple[dt.date, array]] = []
            seen: dict[dt.date, int] = {}
            for row_no, record in enumerate(reader, start=2):
                if not "".join(record).strip():
                    continue
                if len(record) != len(firms) + 1:
                    raise PanelFormatError(
                        f"row {row_no}: expected {len(firms) + 1} cells, got {len(record)}"
                    )
                date_text = record[0].strip()
                try:
                    date = dt.date.fromisoformat(date_text)
                except ValueError:
                    raise PanelFormatError(
                        f"row {row_no}: malformed date {_shown(date_text)}"
                    ) from None
                if date in seen:
                    raise PanelFormatError(
                        f"row {row_no}: duplicate date {date.isoformat()} "
                        f"(first seen at row {seen[date]})"
                    )
                seen[date] = row_no
                rows.append((date, array("d", map(_parse_cell, record[1:], repeat(row_no), firms))))
        except csv.Error as exc:  # such as a cell over the csv module's field size limit
            raise PanelFormatError(f"row {reader.line_num}: {exc}") from None

    if not rows:
        raise PanelFormatError("empty table: no data rows")
    rows.sort(key=lambda item: item[0])
    dates = tuple(date for date, _ in rows)
    returns = np.frombuffer(b"".join(values for _, values in rows)).reshape(len(dates), len(firms))
    mask = ~np.isnan(returns)
    return ReturnPanel(dates=dates, firms=firms, returns=returns, mask=mask)


def save_returns(panel: ReturnPanel, path: str | Path) -> None:
    """Write a panel in the comma-separated format: values by ``repr``, so a
    load/save cycle is bit-exact, and masked entries as empty cells."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(("date",) + panel.firms)
        # a row at a time (whole-panel lists hold a float object per cell); no cell needs
        # quoting, and observed returns are finite, so "nan" marks just the masked cells
        for date, values, seen in zip(panel.dates, panel.returns, panel.mask):
            cells = map(repr, np.where(seen, values, math.nan).tolist())
            handle.write(",".join([date.isoformat(), *cells]).replace("nan", "") + "\n")


def panel_from_rows(
    dates: Iterable[dt.date],
    firms: Iterable[str],
    returns: np.ndarray,
    mask: np.ndarray | None = None,
) -> ReturnPanel:
    """Convenience constructor from in-memory arrays (used by tests and the
    synthetic generator). NaN entries are treated as missing when no mask is
    given."""
    returns = np.asarray(returns, dtype=float).copy()
    if mask is None:
        mask = ~np.isnan(returns)
    else:
        mask = np.asarray(mask, dtype=bool).copy()
        returns[~mask] = np.nan
    return ReturnPanel(tuple(dates), tuple(firms), returns, mask)
