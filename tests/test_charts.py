"""SVG chart rendering: determinism, markers, axis coverage."""

from __future__ import annotations

import hashlib
import inspect
import math
import re
import tempfile
from functools import cache
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risknet import charts
from risknet.charts import _band_chart, _line_chart, _WeightBand, emit_charts
from risknet.errors import ConfigError, RiskNetError
from risknet.pipeline import analyze_panel
from risknet.reports import StudyConfig, SubPeriod
from risknet.synthetic import generate_panel


def test_two_point_series_has_two_markers():
    svg = _line_chart([(1, 0.5), (2, 0.75)], title="t", x_ticks=(), boundaries=())
    assert svg.count("<circle") == 2
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_axis_labels_cover_data_min_and_max():
    svg = _line_chart([(1, 0.125), (2, 4.0), (3, 1.0)], title="t", x_ticks=(), boundaries=())
    assert ">0.125<" in svg
    assert ">4<" in svg


def test_identical_inputs_identical_bytes():
    points = [(i, math.sin(i / 3.0)) for i in range(40)]
    a = _line_chart(points, title="t", x_ticks=(), boundaries=[(10, "B")])
    b = _line_chart(points, title="t", x_ticks=(), boundaries=[(10, "B")])
    assert a == b


def test_flat_series_still_renders():
    svg = _line_chart([(1, 0.5), (2, 0.5), (3, 0.5)], title="t", x_ticks=(), boundaries=())
    assert svg.count("<circle") == 3


def test_band_chart_one_bar_per_group():
    bands = (
        _WeightBand("2001", 10, 0.5, 0.2, 0.8),
        _WeightBand("2002", 10, 0.6, 0.3, 0.9),
    )
    svg = _band_chart(bands, title="w")
    assert svg.count("<rect") == 3  # background + 2 bars
    assert ">2001<" in svg and ">2002<" in svg


# SHA-256 of each chart below, recorded from the renderer before its
# shared frame was factored out: the bytes of every chart element are
# pinned, not only their agreement between two runs
PINNED = {
    "varied": "764cc2ccbf97f444d3e264a1b6b76b4167526fff5630456025aa578f771619ce",
    "flat": "8bf9395cc7b84d5668aaf35ce685c42eeb9c01a3a1271141706948e192de613b",
    "bands": "424ab33ec54ed01e2a945e516958888a1f72e783cea83429d37df6ce588855a9",
}


def pinned_charts() -> dict[str, str]:
    return {
        "varied": _line_chart(
            [(1, 0.125), (2, -0.5), (3, 4.0), (5, 1.0 / 3.0), (8, 2.5)],
            title="Varied",
            x_ticks=[(1, "2001-01"), (3, "2001-03"), (8, "2001-08")],
            boundaries=[(2, "Early"), (5, "Late")],
        ),
        "flat": _line_chart(
            [(1, 0.5), (2, 0.5), (3, 0.5)], title="Flat", x_ticks=(), boundaries=()
        ),
        "bands": _band_chart(
            (
                _WeightBand("2001", 12, 0.5, 0.2, 0.8),
                _WeightBand("2002", 7, 0.0625, 0.01, 0.3),
            ),
            title="Bands",
        ),
    }


def test_chart_bytes_are_pinned():
    digests = {
        name: hashlib.sha256(svg.encode("utf-8")).hexdigest()
        for name, svg in pinned_charts().items()
    }
    assert digests == PINNED


def test_empty_series_refused():
    with pytest.raises(RiskNetError, match="empty series"):
        _line_chart([], title="t", x_ticks=(), boundaries=())
    with pytest.raises(RiskNetError, match="empty band list"):
        _band_chart([], title="t")


def test_emit_charts_writes_stable_files(tmp_path):
    panel = generate_panel(10, (2007, 1), (2007, 4), seed=8, stress=None)
    config = StudyConfig(sub_periods=(SubPeriod("P", (2007, 2), (2007, 3)),))
    result = analyze_panel(panel, config)
    networks = [net.saved() for net in result.networks]
    first = emit_charts(result.reports, networks, config.sub_periods, tmp_path / "a")
    second = emit_charts(result.reports, networks, config.sub_periods, tmp_path / "b")
    assert [p.name for p in first] == [
        "normalized_kirchhoff.svg",
        "density.svg",
        "median_clustering.svg",
        "weights_by_year.svg",
    ]
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes()
    # period boundary marker present in the line charts
    assert ">P<" in first[0].read_text()


@cache
def small_study():
    panel = generate_panel(10, (2007, 1), (2007, 4), seed=3, stress=None, n_fragile=4)
    result = analyze_panel(panel, StudyConfig())
    return result.reports, tuple(net.saved() for net in result.networks)


# any character of any plane, or often one that XML escapes, holds only
# as a discouraged character or cannot hold, or an ASCII letter or digit
# that gives the label a file name
LABEL_CHARACTERS = st.one_of(
    st.characters(), st.sampled_from("&<>'\" A1z\x7f\x85\t\x01\ud800\ufffe\uffff")
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.text(LABEL_CHARACTERS, min_size=1, max_size=8))
def test_every_accepted_period_label_reads_back_from_the_charts(label):
    try:
        config = StudyConfig(sub_periods=(SubPeriod(label, (2007, 1), (2007, 2)),))
    except ConfigError:
        return
    reports, networks = small_study()
    with tempfile.TemporaryDirectory() as out:
        written = emit_charts(reports, networks, config.sub_periods, out)
        assert len(written) == 4
        for path in written:
            root = ElementTree.parse(path).getroot()
            if path.name != "weights_by_year.svg":
                marks = root.iterfind("{http://www.w3.org/2000/svg}text[@fill='#b03030']")
                assert [mark.text for mark in marks] == [label]


def test_every_line_and_text_element_is_written_by_one_helper():
    # _text escapes every text body, so no chart can write one raw
    source = Path(charts.__file__).read_text(encoding="utf-8")
    for tag, writer in (("<line", charts._line), ("<text", charts._text)):
        assert len(re.findall(tag + r"\b", source)) == 1
        assert tag in inspect.getsource(writer)
