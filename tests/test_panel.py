"""Input table parsing, validation, and round-trip serialization."""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import csv_save_returns
from risknet.errors import PanelFormatError
from risknet.panel import ReturnPanel, load_returns, panel_from_rows, save_returns
from risknet.synthetic import generate_panel


def _load(text: str, **kwargs) -> ReturnPanel:
    """``load_returns`` of a file that holds ``text``, line ends as given."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return load_returns(path, **kwargs)


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


@pytest.mark.parametrize(
    "cell, shown",
    [
        ("1_0", "not a number: '1_0'"),
        ("\uff10.\uff10\uff11", "not a number: '\uff10.\uff10\uff11'"),  # full-width 0.01
        ("\u0661", "not a number: '\u0661'"),  # Arabic-Indic 1
        ("1e-400", "nonzero '1e-400' underflows to 0.0"),
        (" -0.25E-330", "nonzero ' -0.25E-330' underflows to 0.0"),
    ],
)
def test_cell_outside_the_ascii_decimal_grammar_is_refused(cell, shown):
    # float() reads each of these: as 10.0, 0.01, 1.0, 0.0 and -0.0
    with pytest.raises(PanelFormatError) as refused:
        _load(f"date,A,B\n2001-01-02,0.5,0.25\n2001-01-03,0.0,{cell}\n")
    assert str(refused.value) == f"row 3, column 'B': {shown}"


def test_zero_and_iso_dates_still_load():
    panel = _load("date,A,B\n20010102,0,-0.0\n2001-W01-3,0e-400,0.000\n")
    assert panel.dates == (dt.date(2001, 1, 2), dt.date(2001, 1, 3))
    assert (panel.returns == 0.0).all()


def test_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("date,A\n2001-01-02,0.25\n", encoding="utf-8-sig")
    panel = load_returns(path)
    assert panel.firms == ("A",) and panel.returns[0, 0] == 0.25


def test_duplicate_firm_column_rejected():
    with pytest.raises(PanelFormatError, match="duplicate firm columns: A"):
        _load("date,A,A\n2001-01-02,0.01,0.02\n")


DAY = (dt.date(2001, 1, 2),)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ReturnPanel(DAY, ("A", "A"), np.zeros((1, 2)), np.ones((1, 2), bool)),
         "duplicate firm identifiers"),
        (lambda: panel_from_rows(DAY, ("A", "B"), [[0.01, np.inf]]),
         "observed returns must be finite"),
        (lambda: ReturnPanel(DAY, ("A", "B"), np.zeros((1, 2)), np.ones((2, 2), bool)),
         "shape mismatch: 1 dates x 2 firms vs returns (1, 2) and mask (2, 2)"),
    ],
    ids=["duplicate-firm", "observed-inf", "mask-shape"],
)
def test_panel_constructors_refuse_a_bad_panel(build, message):
    with pytest.raises(PanelFormatError, match=f"^{re.escape(message)}$"):
        build()


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


def test_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    for trial in range(20):
        t, n = int(rng.integers(2, 30)), int(rng.integers(1, 8))
        values = rng.normal(scale=0.02, size=(t, n))
        mask = rng.random(size=(t, n)) > 0.2
        dates = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(t)]
        firms = [f"F{j:02d}" for j in range(n)]
        panel = panel_from_rows(dates, firms, values, mask)
        save_returns(panel, tmp_path / "panel.csv")
        again = load_returns(tmp_path / "panel.csv")
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


def test_panel_load_peak_below_four_times_its_returns(tmp_path):
    path = tmp_path / "panel.csv"
    save_returns(generate_panel(120, (2001, 1), (2004, 12), seed=5), path)
    load_returns(path)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        panel = load_returns(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert panel.returns.shape == (1045, 120)
    assert peak <= 4 * panel.returns.nbytes


def test_panel_save_peak_below_its_returns(tmp_path):
    panel = generate_panel(120, (2001, 1), (2004, 12), seed=5)
    save_returns(panel, tmp_path / "warm.csv")  # warm caches outside the measurement
    tracemalloc.start()
    try:
        save_returns(panel, tmp_path / "panel.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert panel.returns.shape == (1045, 120)
    assert peak <= panel.returns.nbytes


def per_cell_oracle(text: str) -> ReturnPanel:
    """The loader one cell at a time: every cell stripped, matched against
    the ASCII decimal grammar, parsed and checked on its own, so each error
    names its row, column and text."""

    def parse_cell(text: str, row: int, firm: str) -> float:
        value_text = text.strip()
        if not value_text:
            return float("nan")
        if not re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"
                            r"|[+-]?(nan|inf|infinity)", value_text, re.IGNORECASE):
            raise PanelFormatError(
                f"row {row}, column {firm!r}: not a number: {text!r}"
            )
        value = float(value_text)
        if not np.isfinite(value):
            raise PanelFormatError(
                f"row {row}, column {firm!r}: non-finite value {text!r}"
            )
        if value == 0.0 and re.search(r"[1-9]", re.split("[eE]", value_text)[0]):
            raise PanelFormatError(
                f"row {row}, column {firm!r}: nonzero {text!r} underflows to 0.0"
            )
        return value

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty table: no header row") from None
    if len(header) < 2:
        raise PanelFormatError("header must list a date column and at least one firm")
    firms = tuple(name.strip() for name in header[1:])
    if any(not name for name in firms):
        raise PanelFormatError("blank firm identifier in header")
    if len(set(firms)) != len(firms):
        dupes = sorted({f for f in firms if firms.count(f) > 1})
        raise PanelFormatError(f"duplicate firm columns: {', '.join(dupes)}")
    rows = []
    seen = {}
    for row_no, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) != len(firms) + 1:
            raise PanelFormatError(
                f"row {row_no}: expected {len(firms) + 1} cells, got {len(record)}"
            )
        date_text = record[0].strip()
        try:
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            raise PanelFormatError(f"row {row_no}: malformed date {date_text!r}") from None
        if date in seen:
            raise PanelFormatError(
                f"row {row_no}: duplicate date {date.isoformat()} "
                f"(first seen at row {seen[date]})"
            )
        seen[date] = row_no
        values = [parse_cell(cell, row_no, firms[col]) for col, cell in enumerate(record[1:])]
        rows.append((date, values))
    if not rows:
        raise PanelFormatError("empty table: no data rows")
    rows.sort(key=lambda item: item[0])
    returns = np.array([values for _, values in rows], dtype=float)
    return ReturnPanel(
        dates=tuple(date for date, _ in rows),
        firms=firms,
        returns=returns,
        mask=~np.isnan(returns),
    )


def mostly(common, rare, share=0.1):
    """Draws from ``rare`` about ``share`` of the time, else from ``common``."""
    ten = round(1 / share)
    return st.sampled_from([common] * (ten - 1) + [rare]).flatmap(lambda s: s)


CELLS = mostly(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["1e308", "-1e308", "1.5e308"]),  # finite, but their sum overflows
        st.sampled_from(["", "", " ", "\t", "\u00a0\u2003"]),  # blank or whitespace only
        st.sampled_from([" 0.25", "-0.5 ", "\t1e-3\u00a0", "\u20031.0\u2003"]),  # padded
        # padded with, or only, characters where str.splitlines ends a line and a file does not
        st.sampled_from(["\x0b0.5", "0.25\x0c", "\x1c1.0", "\x1d0.5\x1e", "-2e-3\x85",
                         "\u20280.1", "1\u2029", "\x85"]),
        st.sampled_from(["1_000", "0.0_1"]),
        st.sampled_from(["\u0661\u0662", "\uff10.\uff15", "\u0967e-2"]),  # non-ASCII digits
        st.sampled_from(["1e-400", "-0.5e-330", "0e5", "-0.0", "0.000e-400"]),  # zero or underflow
    ),
    st.one_of(
        st.sampled_from(["nan", "NaN", "-nan", " inf", "-Infinity", "1e999", "-1e999"]),
        st.sampled_from(["abc", "0.1.2", "--1", "1e", "_1", "1__0", "\u00b2", "\u00e9"]),
    ),
)
DATES = mostly(
    st.builds(
        "{}2001-02-{:02d}{}".format,
        st.sampled_from(["", " "]),
        st.integers(1, 28),
        st.sampled_from(["", "\t"]),
    ),
    st.sampled_from(["2001-13-01", "x", ""]),
)


@st.composite
def tables(draw) -> str:
    """Panel text: a header of 1-4 firms, rarely none, a blank one or a
    repeated one, and rows whose dates may be unsorted, repeated or
    malformed and whose cells may be anything a file holds; a few rows are
    short or blank."""
    n = draw(st.integers(1, 4))
    names = [f"F{j}" for j in range(n)]
    rare = [[], names[:-1] + [""], names[:-1] + [" \t"], names[:-1] + [" F0"]]
    lines = [",".join(["date"] + draw(mostly(st.just(names), st.sampled_from(rare), 0.2)))]
    for _ in range(draw(st.integers(0, 5))):
        shape = draw(st.sampled_from(["full"] * 18 + ["short", "blank"]))
        if shape == "blank":
            lines.append("," * n)
            continue
        width = n if shape == "full" else draw(st.integers(0, n - 1))
        cells = draw(st.lists(CELLS, min_size=width, max_size=width))
        lines.append(",".join([draw(DATES)] + cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=600, derandomize=True, deadline=None)
@given(tables())
def test_loader_matches_the_per_cell_oracle(text):
    try:
        want = per_cell_oracle(text)
    except PanelFormatError as exc:
        with pytest.raises(PanelFormatError) as got:
            _load(text)
        assert str(got.value) == str(exc)
        return
    panel = _load(text)
    assert panel.dates == want.dates and panel.firms == want.firms
    assert panel.returns.tobytes() == want.returns.tobytes()
    assert np.array_equal(panel.mask, want.mask)


# both sides of repr's switch to exponent form (below 1e-4, from 1e16), signed zeros, subnormals
EDGE_RETURNS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-4, 9.99e-05, -1e-05,
                                1e16, -1e16, 9999999999999998.0, -0.1])
RETURNS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    EDGE_RETURNS,
    st.floats(-1e-307, 1e-307),
)
# names the csv module quotes, and names that load back stripped
FIRM_NAMES = st.text(st.sampled_from('ab,"\u00e9\u0416 '), min_size=1, max_size=4).filter(str.strip)


@st.composite
def saved_panels(draw) -> ReturnPanel:
    """0-8 firms over 1-30 days; none, some or all cells masked, and
    behind a mask either NaN or any finite return."""
    t, n = draw(st.integers(1, 30)), draw(st.integers(0, 8))
    firms = draw(st.lists(FIRM_NAMES, min_size=n, max_size=n, unique_by=str.strip))
    gaps = draw(st.lists(st.integers(1, 4), min_size=t, max_size=t))
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=sum(gaps[:k])) for k in range(t)]
    masked = draw(st.sampled_from(["none", "some", "all"]))
    seen = [masked == "none" or (masked == "some" and draw(st.booleans())) for _ in range(t * n)]
    hidden = st.one_of(st.just(math.nan), RETURNS)
    values = [draw(RETURNS if observed else hidden) for observed in seen]
    return ReturnPanel(
        tuple(dates), tuple(firms),
        np.array(values, dtype=float).reshape(t, n), np.array(seen, dtype=bool).reshape(t, n),
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(saved_panels())
def test_writer_matches_the_csv_writer_and_loads_back(panel):
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "panel.csv", Path(tmp) / "reference.csv"
        save_returns(panel, path)
        csv_save_returns(panel, reference)
        assert path.read_bytes() == reference.read_bytes()
        if not panel.n_firms:  # the loader needs a firm column
            return
        again = load_returns(path)
    assert again.dates == panel.dates
    assert again.firms == tuple(name.strip() for name in panel.firms)
    assert np.array_equal(again.mask, panel.mask)
    assert again.returns[again.mask].tobytes() == panel.returns[panel.mask].tobytes()
