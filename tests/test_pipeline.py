"""Study orchestration: config handling, reports, rankings, and exports."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import statistics
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import from_weights, random_connected
from oracles import report_to_dict
from risknet import pipeline, spectral
from risknet.errors import ConfigError, NetworkFormatError, NumericalError, WindowError
from risknet.charts import weight_distribution_stats
from risknet.network import DirectedWeights, RiskNetwork, build_directed
from risknet.panel import load_returns, panel_from_rows
from risknet.pipeline import analyze_panel, window_report, write_study
from risknet.reports import (
    ALL_PERIODS,
    RankingRow,
    RobustnessReport,
    SavedNetwork,
    StudyConfig,
    SubPeriod,
    config_from_sources,
    load_config_file,
    parse_periods,
    period_slug,
    rank_firms,
    read_networks,
    read_reports,
    report_from_dict,
    timeseries_rows,
    write_rankings,
    write_network,
    write_report,
    write_reports,
    write_timeseries,
)
from risknet.synthetic import generate_panel, weekday_dates
from risknet.windows import window_panel


def small_study(**kwargs):
    defaults = dict(
        n_firms=12,
        start=(2007, 1),
        end=(2007, 6),
        seed=9,
        stress=None,
    )
    defaults.update(kwargs)
    panel = generate_panel(**defaults)
    config = StudyConfig(
        sub_periods=(SubPeriod("H1", (2007, 1), (2007, 6)),)
    )
    return analyze_panel(panel, config), config


def fake_report(window_id, label, firms, werc, survivors=None):
    n = len(firms)
    survivors = survivors or tuple(None for _ in firms)
    return RobustnessReport(
        window_id=window_id,
        label=label,
        firms=tuple(firms),
        analyzed_firms=tuple(firms),
        component_note=None,
        density=1.0,
        kirchhoff=float(n),
        normalized_kirchhoff=float(n) / max(1, n * (n - 1) // 2),
        werc=tuple(werc),
        clustering=tuple(0.5 for _ in firms),
        strength=tuple(1.0 for _ in firms),
        surviving_order=tuple(survivors),
    )


# ---------------------------------------------------------------- config


def test_period_parsing_and_slug():
    periods = parse_periods("Pre=2003-01..2007-12; Crash=2008-01..2009-12")
    assert periods[0] == SubPeriod("Pre", (2003, 1), (2007, 12))
    assert periods[1].label == "Crash"
    assert period_slug("All periods") == "all-periods"
    with pytest.raises(ConfigError, match="month out of range"):
        parse_periods("X=2003-13..2004-01")
    # saved labels are ASCII YYYY-MM, so digits of other scripts make no month
    for text in ("A=２００８-０１..2009-１２", "A=2008-٠١..2009-12"):
        with pytest.raises(ConfigError, match="malformed month"):
            parse_periods(text)
    with pytest.raises(ConfigError, match="expected Name"):
        parse_periods("just-a-range")


def test_config_validation():
    with pytest.raises(ConfigError, match="alpha"):
        StudyConfig(alpha=0.7)
    with pytest.raises(ConfigError, match="overlap"):
        StudyConfig(
            sub_periods=(
                SubPeriod("A", (2001, 1), (2003, 6)),
                SubPeriod("B", (2003, 6), (2004, 1)),
            )
        )
    with pytest.raises(ConfigError, match="chronological"):
        StudyConfig(
            sub_periods=(
                SubPeriod("B", (2005, 1), (2005, 12)),
                SubPeriod("A", (2001, 1), (2001, 12)),
            )
        )


def test_config_file_parsing_and_precedence(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# comment\n"
        "min_obs = 12\n"
        "confidence = 0.90\n"
    )
    values = load_config_file(cfg)
    config = config_from_sources(values)
    assert config.min_obs == 12
    assert config.alpha == 0.1
    # CLI-style overrides beat the file
    config = config_from_sources(values, alpha="0.05", min_obs=None)
    assert config.alpha == 0.05
    assert config.min_obs == 12


@pytest.mark.parametrize(
    "values, flags, message",
    [
        ({}, {"alpha": 0.05}, "alpha must be given as text, got 0.05"),
        ({}, {"min_obs": 15}, "min_obs must be given as text, got 15"),
        ({"confidence": 0.9}, {}, "confidence must be given as text, got 0.9"),
        ({"min_obs": "12"}, {"periods": ()}, "periods must be given as text, got ()"),
    ],
)
def test_config_values_must_be_text(values, flags, message):
    # a number that is not text would reach str methods as a stray AttributeError
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_sources(values, **flags)


def test_config_file_with_byte_order_mark(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("min_obs = 12\n", encoding="utf-8-sig")
    assert load_config_file(cfg) == {"min_obs": "12"}


def test_config_file_rejects_unknown_or_duplicate_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("min_obs=5\nwhatever=1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config_file(bad)
    dup = tmp_path / "dup.cfg"
    dup.write_text("min_obs=5\nmin_obs=6\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config_file(dup)
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("min_obs 5\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config_file(noeq)


def test_crlf_panel_and_config_read_as_lf(tmp_path):
    texts = {
        "panel.csv": "date,A,B\n2001-01-03,0.01,\n\n2001-01-02,-0.02,0.5\n",
        "study.cfg": "# comment\nmin_obs = 12\nperiods = A=2001-01..2001-12 # one\n",
        "bad.cfg": "min_obs = 12\nmin_obs 5\n",
    }
    read = []
    for folder, end in (("lf", "\n"), ("crlf", "\r\n")):
        (tmp_path / folder).mkdir()
        for name, text in texts.items():
            path = tmp_path / folder / name
            path.write_text(text.replace("\n", end), encoding="utf-8", newline="")
        panel = load_returns(tmp_path / folder / "panel.csv")
        with pytest.raises(ConfigError) as bad:
            load_config_file(tmp_path / folder / "bad.cfg")
        read.append((
            panel.dates, panel.firms, panel.returns.tobytes(), panel.mask.tobytes(),
            load_config_file(tmp_path / folder / "study.cfg"), str(bad.value).split(":", 1)[1],
        ))
    assert read[1] == read[0]
    assert read[0][4] == {"min_obs": "12", "periods": "A=2001-01..2001-12"}
    assert read[0][5] == "2: expected key=value, got 'min_obs 5'"


# ---------------------------------------------------------------- reports


def test_window_report_on_disconnected_network_restricts_and_notes():
    w = np.zeros((5, 5))
    for i, j in ((0, 1), (1, 2), (0, 2)):
        w[i, j] = w[j, i] = 0.6
    w[3, 4] = w[4, 3] = 0.9
    report = window_report(from_weights(w))
    assert report.component_note == "restricted to largest component: 3 of 5 firms"
    assert report.analyzed_firms == ("F00", "F01", "F02")
    assert len(report.werc) == 3
    assert report.firms == tuple(f"F{i:02d}" for i in range(5))


def test_window_report_refuses_tiny_component():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 0.5
    w[2, 3] = w[3, 2] = 0.4
    with pytest.raises(WindowError, match="need 3"):
        window_report(from_weights(w))


def test_window_report_inverts_one_grounded_matrix_per_non_cut_removal_and_one_base(
    monkeypatch,
):
    spectra, orders = [], []
    real_spectrum, real_cholesky = spectral.spectrum, np.linalg.cholesky

    def counting_spectrum(laplacian):
        spectra.append(laplacian.shape[0])
        return real_spectrum(laplacian)

    def counting_cholesky(stack):
        orders.extend([stack.shape[-1]] * (stack.shape[0] if stack.ndim == 3 else 1))
        return real_cholesky(stack)

    monkeypatch.setattr(spectral, "spectrum", counting_spectrum)
    # and the pipeline's own binding, should it import one
    monkeypatch.setattr(pipeline, "spectrum", counting_spectrum, raising=False)
    monkeypatch.setattr(spectral.np.linalg, "cholesky", counting_cholesky)
    report = window_report(random_connected(np.random.default_rng(5), 7))
    assert spectra == []
    # the placeholder entry keeps every removal at the base's grounded order
    assert orders == [6] * (1 + sum(math.isfinite(v) for v in report.werc))


def test_werc_searches_components_once_and_window_report_twice(monkeypatch):
    searches = []
    real = spectral._labels

    def counting(adjacency, removals=False):
        searches.append(removals)
        return real(adjacency, removals)

    monkeypatch.setattr(spectral, "_labels", counting)
    net = random_connected(np.random.default_rng(5), 7)
    spectral.werc_all(net)
    assert searches == [True]  # the removal search alone
    searches.clear()
    assert window_report(net).component_note is None
    assert searches == [False, True]  # largest_component's, then werc_all's


def pendant_triangle(eps=1e-12):
    """A unit triangle on 0, 1, 2 plus a pendant edge 2-3 of weight eps:
    connected however small eps is, with vertex 2 its one cut vertex."""
    w = np.zeros((4, 4))
    for i, j in ((0, 1), (1, 2), (0, 2)):
        w[i, j] = w[j, i] = 1.0
    w[2, 3] = w[3, 2] = eps
    return w


def study_with_march(monkeypatch, weights):
    """The small study with window 2007-03 replaced by a four-firm network
    of the given (symmetric) weights."""
    real = pipeline.build_directed

    def with_march(window, alpha):
        if window.label != "2007-03":
            return real(window, alpha)
        return DirectedWeights(window.window_id, window.label, window.firms[:4], weights)

    monkeypatch.setattr(pipeline, "build_directed", with_march)
    return small_study()


def test_ill_conditioned_pendant_gets_finite_report(monkeypatch):
    # lambda_2 (about 1.3e-12) lies far below 1e-10 * lambda_max, yet the
    # positive weights connect the network, so every value is defined
    eps = 1e-12
    report = window_report(from_weights(pendant_triangle(eps), label="2007-03"))
    assert report.component_note is None
    assert report.kirchhoff == pytest.approx(3.0 / eps + 10.0 / 3.0, rel=1e-3)
    assert math.isinf(report.werc[2])
    assert all(math.isfinite(report.werc[i]) for i in (0, 1, 3))
    assert report.surviving_order == (None, None, 2, None)

    result, _ = study_with_march(monkeypatch, pendant_triangle(eps))
    assert result.skipped == ()
    (march,) = [r for r in result.reports if r.label == "2007-03"]
    assert march.analyzed_firms == march.firms[:4]


def test_report_with_nan_werc_is_refused():
    report = window_report(from_weights(pendant_triangle(0.5), label="2007-03"))
    with pytest.raises(NumericalError, match="window 2007-03: NaN"):
        dataclasses.replace(report, werc=(math.nan, *report.werc[1:]))


@pytest.mark.parametrize(
    "change",
    [
        dict(density=math.inf),
        dict(kirchhoff=math.inf),
        dict(normalized_kirchhoff=-math.inf),
        dict(clustering=(0.5, math.nan, 0.5)),
        dict(strength=(1.0, 1.0, math.inf)),
        dict(werc=(-math.inf, 0.25, 0.1)),
        dict(werc=(math.inf, 0.25, 0.1)),
        dict(surviving_order=(None, 2, None)),
        # the writer would put out `true`, which the reader refuses
        dict(werc=(math.inf, 0.25, 0.1), surviving_order=(True, None, None)),
        # a finite impact has no surviving order, not even one written `true`
        dict(surviving_order=(None, None, True)),
    ],
    ids=str,
)
def test_report_with_inconsistent_values_is_refused(change):
    report = fake_report(3, "2001-03", ("A", "B", "C"), (0.5, 0.25, 0.1))
    with pytest.raises(NumericalError, match="window 2001-03: "):
        dataclasses.replace(report, **change)


@pytest.mark.parametrize(
    "change, message",
    [
        # write_report would zip the columns and drop firm D
        (dict(werc=(0.5, 0.25, 0.1)), "werc has 3 entries for 4 firms"),
        (dict(clustering=(0.5, 0.5, 0.5)), "clustering has 3 entries for 4 firms"),
        (dict(strength=(1.0, 1.0, 1.0)), "strength has 3 entries for 4 firms"),
        (dict(surviving_order=(None, None, None)), "surviving_order has 3 entries for 4 firms"),
        # rank would count a firm twice in one window
        (dict(firms=("A", "B", "C", "D", "A")), "firms repeats 'A'"),
        (dict(analyzed_firms=("A", "B", "B", "D")), "firm repeats 'B'"),
        (dict(analyzed_firms=("B", "A", "C", "D")),
         "firm 'A' is not in firms, or out of their order"),
        (dict(analyzed_firms=("A", "B", "C", "E")),
         "firm 'E' is not in firms, or out of their order"),
        # no analyzed window has fewer than three firms
        (dict(analyzed_firms=("A", "B"), werc=(0.5, 0.25), clustering=(0.5, 0.5),
              strength=(1.0, 1.0), surviving_order=(None, None)),
         "need at least three vertices, got 2"),
        # a cut leaves the other m - 1 firms in two parts or more
        (dict(werc=(math.inf, 0.25, 0.1, 0.05), surviving_order=(0, None, None, None)),
         "surviving_order must lie in [1, 2], got 0"),
        (dict(werc=(math.inf, 0.25, 0.1, 0.05), surviving_order=(3, None, None, None)),
         "surviving_order must lie in [1, 2], got 3"),
    ],
    ids=[
        "werc-short", "clustering-short", "strength-short", "order-short", "firms-repeat",
        "firm-repeat", "firm-order", "firm-unlisted", "two-vertices", "order-zero",
        "order-m-minus-1",
    ],
)
def test_report_structure_is_refused_at_construction(change, message):
    # the saved-report reader's rules, so write_report cannot write what rank refuses
    report = fake_report(3, "2001-03", ("A", "B", "C", "D"), (0.5, 0.25, 0.1, 0.05))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(report, **change)


def test_nan_report_refused_and_window_skipped(monkeypatch, tmp_path):
    real = pipeline.werc_all

    def nan_in_march(net):
        removal = real(net)
        if net.label != "2007-03":
            return removal
        impacts = removal.impacts.copy()
        impacts[0] = math.nan
        return dataclasses.replace(removal, impacts=impacts)

    monkeypatch.setattr(pipeline, "werc_all", nan_in_march)
    result, config = small_study()
    assert [label for label, _ in result.skipped] == ["2007-03"]
    assert "window 2007-03: NaN" in result.skipped[0][1]
    assert "2007-03" not in [r.label for r in result.reports]
    write_study(result, config, tmp_path)


def test_unresolvable_pendant_raises_and_window_skipped(monkeypatch, tmp_path):
    # the smallest subnormal: the solver returns it as lambda_2, and
    # 1 / lambda_2 overflows
    tiny = 5e-324
    with pytest.raises(NumericalError, match="too small to resolve"):
        window_report(from_weights(pendant_triangle(tiny), label="2007-03"))

    result, config = study_with_march(monkeypatch, pendant_triangle(tiny))
    assert [label for label, _ in result.skipped] == ["2007-03"]
    assert "too small to resolve" in result.skipped[0][1]
    write_study(result, config, tmp_path)


def test_short_month_gives_zero_network_and_is_skipped():
    # a 20-day January and a 19-day February: at alpha 0.05 a firm needs
    # ceil(1 / 0.05) = 20 observed days, so February cannot be estimated
    dates = weekday_dates((2005, 1), (2005, 1))[:20]
    dates += weekday_dates((2005, 2), (2005, 2))[:19]
    firms = [f"F{j}" for j in range(6)]
    rng = np.random.default_rng(5)
    common = rng.standard_t(df=4, size=(len(dates), 1))
    values = 0.02 * (common + rng.standard_t(df=4, size=(len(dates), len(firms))))
    panel = panel_from_rows(dates, firms, values)
    january, february = window_panel(panel)
    assert (january.n_days, february.n_days) == (20, 19)

    built = build_directed(february, 0.05)
    assert not built.matrix.any()
    assert sorted(
        d.target for d in built.diagnostics if d.kind == "inestimable_firm"
    ) == firms

    result = analyze_panel(panel, StudyConfig())
    assert result.skipped == (
        ("2005-02", "window 2005-02: analyzed component has 1 firms, need 3"),
    )
    (report,) = result.reports
    assert report.label == "2005-01"
    assert not any(math.isnan(v) for v in (report.kirchhoff, *report.werc))


def test_analyze_panel_produces_one_report_per_healthy_window():
    result, config = small_study()
    assert len(result.reports) == 6
    assert len(result.networks) == 6
    assert result.skipped == ()
    for report in result.reports:
        n = len(report.analyzed_firms)
        assert len(report.werc) == n
        assert len(report.clustering) == n
        assert len(report.strength) == n
        assert 0.0 <= report.density <= 1.0
        assert report.normalized_kirchhoff > 0.0
    labels = [r.label for r in result.reports]
    assert labels == sorted(labels)


def test_report_json_roundtrip_with_infinities():
    report = fake_report(
        7,
        "2008-03",
        ("A", "B", "C"),
        (math.inf, 0.25, -0.1),
        survivors=(1, None, None),  # A's removal leaves B and C apart
    )
    payload = report_to_dict(report)
    assert payload["vertices"][0]["werc"] == "inf"
    again = report_from_dict(payload)
    assert again == report
    with pytest.raises(NetworkFormatError, match="schema"):
        report_from_dict(dict(payload, schema_version=3))


@pytest.mark.parametrize(
    "edits, message",
    [
        ([(1, "clustering", "0.5"), (2, "clustering", True)],
         "clustering must be a number, got '0.5'"),
        ([(2, "firm", 7), (0, "werc", "0.1")], "firm must be a string, got 7"),
        ([(1, "werc", "-inf")], "werc must be a number or 'inf', got '-inf'"),
        ([(0, "surviving_order", 2.0)], "surviving_order must be an integer or null, got 2.0"),
    ],
    ids=["first-of-two-in-a-column", "firm-column-first", "werc-string", "order-float"],
)
def test_report_vertices_are_checked_a_column_at_a_time(edits, message):
    payload = report_to_dict(fake_report(3, "2008-03", ("A", "B", "C"), (0.25, 0.5, -0.1)))
    for vertex, key, value in edits:
        payload["vertices"][vertex][key] = value
    with pytest.raises(NetworkFormatError, match=f"^{re.escape(message)}$"):
        report_from_dict(payload)


NAMES = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        ['Q"uote', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f", "Zürich Rück", "東京海上"]
    ),
)
# a month as window_panel writes it, or any text, for both sides of the reader's label check
MONTHS = st.builds("{:04d}-{:02d}".format, st.integers(0, 9999), st.integers(1, 12))
LABELS = st.one_of(MONTHS, NAMES)
FLOATS = st.one_of(
    st.sampled_from([5e-324, 1.0, 1e-05, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def report_fields(draw, faulty: bool = True) -> dict:
    """The fields of a report of 0-10 analyzed firms among 0-10, each with
    a finite removal impact or an infinite one and its surviving order.
    Most are as an analyzed window's, with three or more analyzed firms,
    surviving orders in [1, m - 2] for m of them and a month label. When
    ``faulty``, about one in four may have fewer firms and one in four any
    order from 0 to 200, which the report refuses; one in four has any
    label, which only the reader refuses."""
    least = 3 * (not faulty or draw(st.integers(0, 3)) > 0)
    firms = draw(st.lists(NAMES, min_size=least, max_size=10, unique=True))
    picked = draw(st.sets(st.integers(0, max(len(firms) - 1, 0)), min_size=least))
    analyzed = [f for k, f in enumerate(firms) if k in picked]
    cut = [draw(st.booleans()) for _ in analyzed]
    valid = len(analyzed) > 2 and (not faulty or draw(st.integers(0, 3)) > 0)
    orders = st.integers(1, len(analyzed) - 2) if valid else st.integers(0, 200)
    return dict(
        window_id=draw(st.integers(0, 10**6)),
        label=draw(MONTHS if draw(st.integers(0, 3)) else LABELS),
        firms=tuple(firms),
        analyzed_firms=tuple(analyzed),
        component_note=draw(st.one_of(st.none(), NAMES)),
        density=draw(FLOATS),
        kirchhoff=draw(FLOATS),
        normalized_kirchhoff=draw(FLOATS),
        werc=tuple(math.inf if c else draw(FLOATS) for c in cut),
        clustering=tuple(draw(FLOATS) for _ in analyzed),
        strength=tuple(draw(FLOATS) for _ in analyzed),
        surviving_order=tuple(draw(orders) if c else None for c in cut),
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(report_fields())
def test_report_writer_bytes_match_json_dump(fields):
    top = len(fields["analyzed_firms"]) - 2
    if top < 1:
        with pytest.raises(ValueError, match="at least three vertices"):
            RobustnessReport(**fields)
        return
    if any(k is not None and not 1 <= k <= top for k in fields["surviving_order"]):
        with pytest.raises(ValueError, match=r"surviving_order must lie in \[1, "):
            RobustnessReport(**fields)
        return
    # every report that is made is written, and read back equal
    report = RobustnessReport(**fields)
    with tempfile.TemporaryDirectory() as out:
        (path,) = write_reports([report], out)
        text = path.read_bytes().decode("utf-8")
        assert text == json.dumps(report_to_dict(report), allow_nan=False) + "\n"
        assert report_from_dict(json.loads(text)) == report
        if not re.fullmatch(r"[0-9]{4}-(0[1-9]|1[0-2])", report.label):
            with pytest.raises(NetworkFormatError, match="is not a month YYYY-MM"):
                read_reports(out)
        else:
            assert read_reports(out) == (report,)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(report_fields(faulty=False).map(lambda fields: RobustnessReport(**fields)))
def test_timeseries_median_is_numpys(report):
    # the reports module takes the median without numpy, to the same float
    (row,) = timeseries_rows([report])
    with np.errstate(over="ignore"):
        assert row[4] == float(np.median(report.clustering))


# years of one weight to a couple of thousand; the sampled sizes sit at and around powers of 2
BAND_SIZES = st.one_of(
    st.sampled_from([1, 2, 7, 8, 9, 16, 127, 128, 129, 136, 137, 256, 264, 271, 1024, 2047]),
    st.integers(1, 2100),
)


@st.composite
def yearly_networks(draw) -> list[SavedNetwork]:
    """One or two years of positive weights, each split over one or more
    networks. The statistics read only labels and weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    networks = []
    for year in ("2005", "2006")[: draw(st.integers(1, 2))]:
        size = draw(BAND_SIZES)
        weights = {
            "uniform": lambda: 1.0 - rng.random(size),
            "wide": lambda: np.exp(rng.uniform(-700.0, 0.0, size)),
            "ties": lambda: rng.integers(1, 5, size) / 4,
        }[draw(st.sampled_from(["uniform", "wide", "ties"]))]().tolist()
        cuts = sorted(draw(st.lists(st.integers(0, size), max_size=3)))
        for k, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, size])):
            label = f"{year}-{k + 1:02d}"
            networks.append(SavedNetwork(k, label, (), (), (), tuple(weights[lo:hi])))
    return networks


@settings(max_examples=300, derandomize=True, deadline=None)
@given(yearly_networks())
def test_weight_band_floats_are_numpys(networks):
    # the charts module takes numpy's quantiles without numpy, and the exactly rounded mean
    bands = weight_distribution_stats(networks)
    assert [b.group for b in bands] == sorted({net.label[:4] for net in networks})
    for band in bands:
        year = [net.weights for net in networks if net.label.startswith(band.group)]
        weights = np.concatenate([np.array(w, dtype=float) for w in year])
        assert band.count == weights.size
        assert band.mean == statistics.fmean(weights.tolist())
        assert [band.q05, band.q95] == np.quantile(weights, [0.05, 0.95]).tolist()


@pytest.mark.parametrize("field, value", [("clustering", math.nan), ("werc", -math.inf)])
def test_report_writer_refuses_non_finite_floats(field, value, tmp_path):
    report = fake_report(1, "2008-03", ("A", "B", "C"), (0.25, 0.5, 0.1))
    # past the report's own validation, as json.dump would meet it
    object.__setattr__(report, field, (value, 0.5, 0.1))
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_report(report, tmp_path / "report.json")
    assert not (tmp_path / "report.json").exists()  # nothing is written
    with pytest.raises(ValueError, match="not JSON compliant"):
        json.dumps(report_to_dict(report), allow_nan=False)


def test_writers_never_run_the_pure_python_json_encoder(tmp_path, monkeypatch):
    # an indent, or any option the C encoder lacks, would send every edge
    # and vertex through the pure-Python encoder, many times slower
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python json encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    w = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.25], [1.0, 0.25, 0.0]])
    write_network(RiskNetwork(1, "2008-03", ("A", "B", "C"), w), tmp_path / "net.json")
    report = fake_report(1, "2008-03", ("A", "B", "C"), (math.inf, 0.5, 0.1), (1, None, None))
    write_report(report, tmp_path / "report.json")
    assert report_from_dict(json.loads((tmp_path / "report.json").read_text())) == report


# ---------------------------------------------------------------- ranking


def test_rank_firms_orders_and_quartiles():
    reports = [
        fake_report(t, f"2001-{t:02d}", ("A", "B", "C", "D"), (0.4, 0.3, 0.2, 0.1))
        for t in range(1, 5)
    ]
    (table,) = [
        t for t in rank_firms(reports, ()) if t.period == ALL_PERIODS
    ]
    assert [r.firm for r in table.rows] == ["A", "B", "C", "D"]
    assert [r.rank for r in table.rows] == [1, 2, 3, 4]
    assert [r.quartile for r in table.rows] == [1, 2, 3, 4]
    assert all(r.coverage == 4 for r in table.rows)


def test_rank_firms_coverage_floor_excludes():
    # Z, of no impact, makes up the three firms of an analyzed window
    reports = [
        fake_report(t, f"2001-{t:02d}", ("A", "B", "Z"), (0.2, 0.1, 0.0)) for t in range(1, 9)
    ]
    # C shows up in exactly one of eight windows: below the 25% floor
    reports[0] = fake_report(1, "2001-01", ("A", "B", "C"), (0.2, 0.1, 9.9))
    (table,) = rank_firms(reports, ())
    assert [r.firm for r in table.rows] == ["A", "B", "Z"]
    assert table.excluded == (("C", 1),)
    # at exactly 25% (2 of 8) the firm is kept
    reports[1] = fake_report(2, "2001-02", ("A", "B", "C"), (0.2, 0.1, 9.9))
    (table,) = rank_firms(reports, ())
    assert [r.firm for r in table.rows] == ["C", "A", "B", "Z"]


def test_rank_firms_infinite_means_rank_first_with_tie_rules():
    # E, of no impact, makes five firms, so that a cut may leave three
    firms = ("A", "B", "C", "D", "E")
    reports = [
        fake_report(
            1,
            "2001-01",
            firms,
            (math.inf, math.inf, 5.0, 0.1, 0.0),
            survivors=(3, 2, None, None, None),
        ),
        fake_report(
            2,
            "2001-02",
            firms,
            (0.0, math.inf, 4.0, 0.2, 0.0),
            survivors=(None, 2, None, None, None),
        ),
    ]
    (table,) = rank_firms(reports, ())
    # B disconnects twice, A once; both beat every finite mean
    assert [r.firm for r in table.rows] == ["B", "A", "C", "D", "E"]
    assert table.rows[0].mean_werc == math.inf
    assert table.rows[1].mean_werc == math.inf
    assert table.rows[2].mean_werc == pytest.approx(4.5)


def padded(firms, windows, expected):
    """The case with five firms of no impact after the others in each
    window, ranked last, so that a cut may leave up to 6 of the 8."""
    pad = "VWXYZ"
    windows = [(werc + (0.0,) * 5, survivors + (None,) * 5) for werc, survivors in windows]
    return firms + pad, windows, expected + pad


@pytest.mark.parametrize(
    "firms, windows, expected",
    [
        ("BAC", [((0.3, 0.3, 0.1), None)], "ABC"),
        # A leaves components of 2 then 6 firms, B of 3 and 3: B's average is smaller
        padded("ABC", [((math.inf, math.inf, 0.1), (2, 3, None)),
                       ((math.inf, math.inf, 0.2), (6, 3, None))], "BAC"),
        padded("BAC", [((math.inf, math.inf, 0.1), (4, 4, None))], "ABC"),
    ],
    ids=["equal-means-by-identifier", "equal-counts-by-average-order", "full-tie-by-identifier"],
)
def test_rank_firms_tie_breaks(firms, windows, expected):
    reports = [
        fake_report(t, f"2001-{t:02d}", tuple(firms), werc, survivors)
        for t, (werc, survivors) in enumerate(windows, start=1)
    ]
    (table,) = rank_firms(reports, ())
    assert "".join(r.firm for r in table.rows) == expected


def test_rank_firms_per_period_membership():
    reports = [
        fake_report(1, "2001-01", ("A", "B", "C"), (0.3, 0.2, 0.1)),
        fake_report(2, "2001-02", ("A", "B", "C"), (0.3, 0.2, 0.1)),
        fake_report(3, "2002-01", ("A", "B", "C"), (0.1, 0.2, 0.3)),
    ]
    periods = (
        SubPeriod("One", (2001, 1), (2001, 12)),
        SubPeriod("Two", (2002, 1), (2002, 12)),
    )
    tables = {t.period: t for t in rank_firms(reports, periods)}
    assert set(tables) == {"One", "Two", ALL_PERIODS}
    assert [r.firm for r in tables["One"].rows] == ["A", "B", "C"]
    assert [r.firm for r in tables["Two"].rows] == ["C", "B", "A"]
    assert tables[ALL_PERIODS].window_count == 3
    # firm absent from a period's windows entirely: excluded from that table
    # (Z, of no impact, makes up the three firms of an analyzed window)
    reports_gap = reports[:2] + [fake_report(3, "2002-01", ("B", "C", "Z"), (0.2, 0.3, 0.0))]
    tables = {t.period: t for t in rank_firms(reports_gap, periods)}
    assert [r.firm for r in tables["Two"].rows] == ["C", "B", "Z"]


def test_ranking_relabel_invariance():
    rng = np.random.default_rng(3)
    werc_values = rng.uniform(-0.2, 0.8, size=6)
    firms = tuple(f"F{i}" for i in range(6))
    renamed = tuple(f"Z{5 - i}" for i in range(6))
    base = rank_firms([fake_report(1, "2001-01", firms, tuple(werc_values))], ())
    swapped = rank_firms([fake_report(1, "2001-01", renamed, tuple(werc_values))], ())
    assert [r.rank for r in base[0].rows] == [r.rank for r in swapped[0].rows]
    mapping = dict(zip(firms, renamed))
    assert [mapping[r.firm] for r in base[0].rows] == [r.firm for r in swapped[0].rows]


def test_quartile_chunks_use_ceiling():
    firms = tuple(f"F{i:02d}" for i in range(10))
    werc_values = tuple(float(10 - i) for i in range(10))
    (table,) = rank_firms([fake_report(1, "2001-01", firms, werc_values)], ())
    chunks = [r.quartile for r in table.rows]
    # ceil(10/4)=3 firms per quartile, the leftover lands in the fourth
    assert chunks == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4]


# ------------------------------------------------------- stats and exports


def test_weight_stats_constant_and_singleton():
    w = np.zeros((4, 4))
    iu = np.triu_indices(4, k=1)
    w[iu] = 0.5
    net = from_weights(w + w.T, label="2003-05")
    (band,) = weight_distribution_stats([net.saved()])
    assert band.group == "2003"
    assert band.mean == 0.5
    assert band.q05 == 0.5 and band.q95 == 0.5
    assert band.count == 6


def test_weight_stats_uniform_monte_carlo():
    rng = np.random.default_rng(12)
    nets = []
    for i in range(12):
        n = 40
        upper = np.triu(rng.uniform(size=(n, n)), k=1)
        nets.append(from_weights(upper + upper.T, label=f"2004-{i + 1:02d}").saved())
    (band,) = weight_distribution_stats(nets)
    assert band.mean == pytest.approx(0.5, abs=0.02)
    assert band.q05 == pytest.approx(0.05, abs=0.02)
    assert band.q95 == pytest.approx(0.95, abs=0.02)


def test_weight_stats_empty_group_omitted(caplog):
    empty = from_weights(np.zeros((3, 3)), label="2001-01")
    full = from_weights(
        np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        label="2002-01",
    )
    with caplog.at_level("WARNING"):
        bands = weight_distribution_stats([empty.saved(), full.saved()])
    assert [b.group for b in bands] == ["2002"]
    assert "2001" in caplog.text


def test_weight_stats_read_networks_once_in_window_order():
    nets = [
        from_weights(np.full((3, 3), 0.25) * (1 - np.eye(3)), label=label).saved()
        for label in ("2004-11", "2004-12", "2005-01")
    ]
    assert weight_distribution_stats(iter(nets)) == weight_distribution_stats(nets)
    # a year that comes back would split into two bands
    with pytest.raises(ValueError, match="networks of 2004 come after those of 2005"):
        weight_distribution_stats([nets[0], nets[2], nets[1]])


def test_timeseries_rows_and_export(tmp_path):
    reports = [
        fake_report(2, "2001-02", ("A", "B", "C"), (0.1, 0.2, 0.3)),
        fake_report(1, "2001-01", ("A", "B", "C"), (0.1, 0.2, 0.3)),
        fake_report(3, "2001-03", ("A", "B", "C"), (0.1, 0.2, 0.3)),
    ]
    periods = (SubPeriod("Early", (2001, 1), (2001, 2)),)
    rows = timeseries_rows(reports, periods)
    assert [row[0] for row in rows] == [1, 2, 3]
    assert [row[5] for row in rows] == ["Early", "Early", ""]
    assert rows[0][2] == 1.0  # density straight from the report
    path = write_timeseries(reports, periods, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "window,label,density,normalized_kirchhoff,median_clustering,period"
    assert len(lines) == 4
    # empty report list gives a header-only file
    empty = write_timeseries([], periods, tmp_path / "sub")
    assert empty.read_text().splitlines() == [lines[0]]


def test_rankings_csv_serializes_inf(tmp_path):
    report = fake_report(
        1, "2001-01", ("A", "B", "C"), (math.inf, 0.5, 0.25), survivors=(1, None, None)
    )
    (path,) = write_rankings(rank_firms([report], ()), tmp_path)
    assert path.read_text().splitlines() == [
        "firm,mean_werc,rank,quartile,coverage",
        "A,inf,1,1,1",
        "B,0.5,2,2,1",
        "C,0.25,3,3,1",
    ]


# ------------------------------------------------------------- file tree


def test_write_study_tree_and_readback(tmp_path):
    result, config = small_study()
    write_study(result, config, tmp_path)
    assert sorted(p.name for p in (tmp_path / "rankings").iterdir()) == [
        "all-periods.csv",
        "h1.csv",
    ]
    assert len(list((tmp_path / "networks").glob("window_*.json"))) == 6
    reports = read_reports(tmp_path)
    assert [r.window_id for r in reports] == [r.window_id for r in result.reports]
    assert reports == result.reports
    assert tuple(read_networks(tmp_path)) == tuple(net.saved() for net in result.networks)


def test_locality_of_window_removal():
    panel_full = generate_panel(10, (2007, 1), (2007, 5), seed=4, stress=None)
    config = StudyConfig()
    full = analyze_panel(panel_full, config)
    # drop March from the input
    keep = [i for i, d in enumerate(panel_full.dates) if d.month != 3]
    panel_cut = panel_from_rows(
        [panel_full.dates[i] for i in keep],
        panel_full.firms,
        panel_full.returns[keep, :],
        panel_full.mask[keep, :],
    )
    cut = analyze_panel(panel_cut, config)
    assert len(cut.reports) == len(full.reports) - 1
    by_label_full = {r.label: r for r in full.reports}
    for report in cut.reports:
        twin = by_label_full[report.label]
        # identical except for the positional window id
        assert report.analyzed_firms == twin.analyzed_firms
        assert report.werc == twin.werc
        assert report.density == twin.density
        assert report.normalized_kirchhoff == twin.normalized_kirchhoff


def test_all_degenerate_study_is_fatal():
    panel = generate_panel(4, (2007, 1), (2007, 2), seed=2, stress=None)
    # no calendar month has 50 trading days, so nothing is eligible
    with pytest.raises(WindowError, match="no analyzable window"):
        analyze_panel(panel, StudyConfig(min_obs=50))
