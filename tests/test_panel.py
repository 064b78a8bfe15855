"""Input table parsing, validation, and round-trip serialization."""

from __future__ import annotations

import datetime as dt
import io

import numpy as np
import pytest

from risknet.errors import PanelFormatError
from risknet.panel import ReturnPanel, load_returns, panel_from_rows, save_returns


def _load(text: str, **kwargs) -> ReturnPanel:
    return load_returns(io.StringIO(text), **kwargs)


def test_basic_parse_shapes_and_order():
    panel = _load(
        "date,A,B\n"
        "2001-01-03,0.01,-0.02\n"
        "2001-01-02,0.005,0.0\n"
    )
    assert panel.firms == ("A", "B")
    assert panel.dates == (dt.date(2001, 1, 2), dt.date(2001, 1, 3))
    # rows were sorted by date
    assert panel.returns[0, 0] == 0.005
    assert panel.mask.all()


def test_single_empty_cell_sets_exactly_one_mask_entry():
    panel = _load(
        "date,A,B\n"
        "2001-01-02,0.01,-0.02\n"
        "2001-01-03,,0.01\n"
        "2001-01-04,0.0,0.02\n"
    )
    assert panel.mask.sum() == 5
    assert not panel.mask[1, 0]
    assert np.isnan(panel.returns[1, 0])


def test_duplicate_date_rejected_with_date_named():
    with pytest.raises(PanelFormatError, match="2001-01-02"):
        _load(
            "date,A\n"
            "2001-01-02,0.01\n"
            "2001-01-02,0.02\n"
        )


def test_malformed_date_names_row():
    with pytest.raises(PanelFormatError, match="row 3"):
        _load(
            "date,A\n"
            "2001-01-02,0.01\n"
            "02/01/2001,0.02\n"
        )


def test_non_numeric_cell_names_row_and_column():
    with pytest.raises(PanelFormatError, match=r"row 2, column 'B'"):
        _load(
            "date,A,B\n"
            "2001-01-02,0.01,oops\n"
        )


def test_non_finite_cell_rejected():
    with pytest.raises(PanelFormatError, match="non-finite"):
        _load(
            "date,A\n"
            "2001-01-02,inf\n"
        )


def test_duplicate_firm_column_rejected():
    with pytest.raises(PanelFormatError, match="duplicate firm columns: A"):
        _load("date,A,A\n2001-01-02,0.01,0.02\n")


def test_empty_table_rejected():
    with pytest.raises(PanelFormatError, match="no data rows"):
        _load("date,A\n")
    with pytest.raises(PanelFormatError, match="no header"):
        _load("")


def test_ragged_row_rejected():
    with pytest.raises(PanelFormatError, match="row 2"):
        _load("date,A,B\n2001-01-02,0.01\n")


def test_alternate_delimiter():
    panel = _load("date;A\n2001-01-02;0.25\n", delimiter=";")
    assert panel.returns[0, 0] == 0.25


def test_fully_observed_block_mask_all_true():
    rng = np.random.default_rng(7)
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(21)]
    panel = panel_from_rows(dates, ["F1", "F2", "F3"], rng.normal(size=(21, 3)))
    assert panel.mask.all()
    assert panel.n_days == 21 and panel.n_firms == 3


def test_roundtrip_is_bit_exact():
    rng = np.random.default_rng(11)
    for trial in range(20):
        t, n = int(rng.integers(2, 30)), int(rng.integers(1, 8))
        values = rng.normal(scale=0.02, size=(t, n))
        mask = rng.random(size=(t, n)) > 0.2
        dates = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(t)]
        firms = [f"F{j:02d}" for j in range(n)]
        panel = panel_from_rows(dates, firms, values, mask)
        buffer = io.StringIO()
        save_returns(panel, buffer)
        again = _load(buffer.getvalue())
        assert again.firms == panel.firms
        assert again.dates == panel.dates
        assert np.array_equal(again.mask, panel.mask)
        observed = panel.mask
        assert np.array_equal(again.returns[observed], panel.returns[observed])


def test_shape_and_monotone_date_invariants():
    dates = (dt.date(2001, 1, 2), dt.date(2001, 1, 1))
    with pytest.raises(PanelFormatError, match="increasing"):
        ReturnPanel(dates, ("A",), np.zeros((2, 1)), np.ones((2, 1), dtype=bool))
    with pytest.raises(PanelFormatError, match="shape"):
        ReturnPanel(
            (dt.date(2001, 1, 1),), ("A",), np.zeros((2, 1)), np.ones((2, 1), dtype=bool)
        )


def test_panel_is_read_only():
    panel = _load("date,A\n2001-01-02,0.01\n")
    with pytest.raises(ValueError):
        panel.returns[0, 0] = 1.0
