"""Command-line behaviour: subcommands, exit codes, error JSON."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import risknet
from risknet.cli import main
from risknet.panel import save_returns
from risknet.synthetic import generate_panel


@pytest.fixture()
def panel_csv(tmp_path):
    panel = generate_panel(10, (2007, 1), (2007, 4), seed=13, stress=None)
    path = tmp_path / "returns.csv"
    save_returns(panel, path)
    return path


def test_build_writes_networks_only(panel_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["build", "--input", str(panel_csv), "--out", str(out)])
    assert code == 0
    assert len(list((out / "networks").glob("window_*.json"))) == 4
    assert not (out / "reports").exists()
    assert "wrote 4 networks" in capsys.readouterr().out


def test_analyze_writes_full_tree(panel_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--input",
            str(panel_csv),
            "--out",
            str(out),
            "--periods",
            "Early=2007-01..2007-02;Late=2007-03..2007-04",
            "--charts",
        ]
    )
    assert code == 0
    assert len(list((out / "reports").glob("window_*.json"))) == 4
    names = sorted(p.name for p in (out / "rankings").iterdir())
    assert names == ["all-periods.csv", "early.csv", "late.csv"]
    assert (out / "timeseries.csv").exists()
    assert (out / "charts" / "density.svg").exists()
    body = (out / "rankings" / "all-periods.csv").read_text().splitlines()
    assert body[0] == "firm,mean_werc,rank,quartile,coverage"
    assert len(body) == 11


def test_rank_reuses_saved_reports(panel_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    before = (out / "rankings" / "all-periods.csv").read_bytes()
    # re-rank with a different period split; all-periods stays identical
    assert (
        main(["rank", "--out", str(out), "--periods", "Q1=2007-01..2007-03"]) == 0
    )
    assert (out / "rankings" / "q1.csv").exists()
    assert (out / "rankings" / "all-periods.csv").read_bytes() == before
    # the timeseries follows the new split, not analyze's default periods
    with open(out / "timeseries.csv", newline="") as handle:
        periods = {row["label"]: row["period"] for row in csv.DictReader(handle)}
    assert periods == {"2007-01": "Q1", "2007-02": "Q1", "2007-03": "Q1", "2007-04": ""}


def test_export_charts_from_saved_outputs(panel_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    assert main(["export-charts", "--out", str(out)]) == 0
    assert (out / "charts" / "normalized_kirchhoff.svg").exists()


def test_missing_input_gives_error_json(tmp_path, capsys):
    code = main(
        ["analyze", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["error"] in ("FileNotFoundError", "OSError")
    assert "nope.csv" in payload["message"]


def test_bad_config_gives_error_json(panel_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("confidence = 2\n")
    code = main(
        [
            "analyze",
            "--input",
            str(panel_csv),
            "--out",
            str(tmp_path / "o"),
            "--config",
            str(cfg),
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"


def test_config_file_drives_alpha(panel_csv, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("confidence = 0.90\nmin_obs = 10\n")
    out = tmp_path / "out"
    assert (
        main(
            [
                "analyze",
                "--input",
                str(panel_csv),
                "--out",
                str(out),
                "--config",
                str(cfg),
            ]
        )
        == 0
    )
    assert (out / "timeseries.csv").exists()


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_confidence_is_the_exact_complement_of_alpha(tmp_path):
    # February 2009 has 20 trading days: a tail of floor(0.1 * 20) = 2 days,
    # where 1.0 - 0.90 = 0.09999999999999998 would give 1
    panel = generate_panel(12, (2009, 1), (2009, 3), seed=3, stress=None, n_fragile=0)
    source = tmp_path / "returns.csv"
    save_returns(panel, source)
    cfg = tmp_path / "study.cfg"
    cfg.write_text("confidence = 0.90\n")
    run = ["analyze", "--input", str(source), "--charts", "--out"]
    assert main([*run, str(tmp_path / "file"), "--config", str(cfg)]) == 0
    assert main([*run, str(tmp_path / "flag"), "--alpha", "0.1"]) == 0
    assert tree_bytes(tmp_path / "file") == tree_bytes(tmp_path / "flag")


def test_rerun_replaces_the_window_files(tmp_path):
    # a 6-month study, then a 3-month one into the same directory: what is
    # left, re-ranked and re-charted, is what the 3-month study alone gives
    for months in (6, 3):
        panel = generate_panel(10, (2007, 1), (2007, months), seed=13, stress=None)
        save_returns(panel, tmp_path / f"returns_{months}.csv")
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    for months, out in ((6, reused), (3, reused), (3, fresh)):
        assert main(["analyze", "--input", str(tmp_path / f"returns_{months}.csv"),
                     "--out", str(out)]) == 0
    for sub in ("networks", "reports"):
        names = sorted(p.name for p in (reused / sub).iterdir())
        assert names == ["window_1.json", "window_2.json", "window_3.json"]
    for out in (reused, fresh):
        assert main(["rank", "--out", str(out)]) == 0
        assert main(["export-charts", "--out", str(out)]) == 0
    assert tree_bytes(reused) == tree_bytes(fresh)


def test_version_1_trees_still_rank_and_chart(panel_csv, tmp_path, capsys):
    # version 1 is the same payload as version 2, laid out by indent=2
    current, older = tmp_path / "current", tmp_path / "older"
    assert main(["analyze", "--input", str(panel_csv), "--charts", "--out", str(current)]) == 0
    shutil.copytree(current, older)
    for path in [*older.glob("networks/*.json"), *older.glob("reports/*.json")]:
        payload = dict(json.loads(path.read_text()), schema_version=1)
        path.write_text(json.dumps(payload, indent=2) + "\n")
    periods = "T1=2007-01..2007-02;T2=2007-03..2007-03;T3=2007-04..2007-04"
    results = []
    for out in (current, older):
        assert main(["rank", "--out", str(out), "--periods", periods]) == 0
        assert main(["export-charts", "--out", str(out)]) == 0
        tree = tree_bytes(out)
        made = ("rankings", "charts", "timeseries.csv")
        results.append({name: data for name, data in tree.items() if name.startswith(made)})
    assert results[0] == results[1]
    assert {"timeseries.csv", "rankings/t3.csv", "charts/density.svg"} <= set(results[0])
    for command, sub, kind in (("rank", "reports", "report "), ("export-charts", "networks", "")):
        path = older / sub / "window_1.json"
        original = path.read_text()
        path.write_text(json.dumps(dict(json.loads(original), schema_version=99)))
        error = single_error(capsys, [command, "--out", str(older)])
        assert error["message"] == f"{path}: unsupported {kind}schema version 99"
        path.write_text(original)


def corrupt(path):
    """Append byte 0xff, which never occurs in UTF-8 text."""
    path.write_bytes(path.read_bytes() + b"\xff")


def single_error(capsys, argv):
    """Run a command that must fail; its one line of stderr, parsed."""
    capsys.readouterr()
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    return json.loads(line)


def test_rerun_replaces_the_tables_and_charts(panel_csv, tmp_path):
    # a rerun under another period split, or with no band chart to draw,
    # leaves no table or chart of the earlier run behind
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--charts", "--out", str(out)]) == 0
    assert main(["rank", "--out", str(out), "--periods", "Q=2007-01..2007-03"]) == 0
    assert sorted(p.name for p in (out / "rankings").iterdir()) == ["all-periods.csv", "q.csv"]
    for path in (out / "networks").iterdir():
        payload = json.loads(path.read_text())
        payload["edges"] = []
        path.write_text(json.dumps(payload))
    assert main(["export-charts", "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "charts").iterdir()) == [
        "density.svg", "median_clustering.svg", "normalized_kirchhoff.svg",
    ]


@pytest.mark.parametrize("command", ["analyze", "export-charts"])
def test_period_label_with_markup_characters_keeps_charts_well_formed(
    panel_csv, tmp_path, command
):
    # a period label is free text: its "&", "<" and ">" are escaped in the
    # boundary marks, so every chart parses and reads the label back
    out = tmp_path / "out"
    periods = ["--periods", "R&D<1>=2007-01..2007-02;Q2=2007-03..2007-04", "--out", str(out)]
    assert main(["analyze", "--input", str(panel_csv), "--charts", *periods]) == 0
    if command == "export-charts":
        shutil.rmtree(out / "charts")
        assert main(["export-charts", *periods]) == 0
    marks = {}
    for path in sorted((out / "charts").iterdir()):
        texts = ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")
        marks[path.name] = [text.text for text in texts if text.get("font-size") == "10"]
    assert marks == {
        "density.svg": ["R&D<1>", "Q2"],
        "median_clustering.svg": ["R&D<1>", "Q2"],
        "normalized_kirchhoff.svg": ["R&D<1>", "Q2"],
        "weights_by_year.svg": [],
    }


def test_superscript_window_file_is_not_a_window(panel_csv, tmp_path):
    # "²".isdigit() holds but int("²") fails: such a file is no window file,
    # so rank neither reads it nor crashes, and analyze does not delete it
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    stray = out / "reports" / "window_\u00b2.json"
    stray.write_bytes((out / "reports" / "window_1.json").read_bytes())
    assert main(["rank", "--out", str(out)]) == 0
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    assert stray.exists()


def test_unwritable_chart_gives_error_json(panel_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    blocker = out / "charts" / "density.svg"
    blocker.mkdir(parents=True)
    error = single_error(capsys, ["export-charts", "--out", str(out)])
    assert error["error"] == "IsADirectoryError"
    assert str(blocker) in error["message"]


def test_non_utf8_panel_gives_error_json(panel_csv, tmp_path, capsys):
    corrupt(panel_csv)
    payload = single_error(
        capsys, ["analyze", "--input", str(panel_csv), "--out", str(tmp_path / "o")]
    )
    assert payload["error"] == "PanelFormatError"
    assert str(panel_csv) in payload["message"]


def test_cell_over_the_csv_field_limit_gives_error_json(tmp_path, capsys):
    # the csv module refuses a field longer than 131,072 characters
    panel = tmp_path / "returns.csv"
    panel.write_text("date,A,B\n2001-01-02,0.1," + "1" * 200_000 + "\n")
    for command in ("build", "analyze"):
        payload = single_error(
            capsys, [command, "--input", str(panel), "--out", str(tmp_path / "o")]
        )
        assert payload["error"] == "PanelFormatError"
        assert payload["message"] == "row 2: field larger than field limit (131072)"


def test_stray_quote_error_quotes_one_line_of_the_cell(tmp_path, capsys):
    # the quote left open makes one cell of the other 24 lines of the file
    rows = [f"2001-01-{day:02d},0.001,0.002,0.003" for day in range(2, 28)]
    rows[1] = rows[1].replace(",0.003", ',"0.003')
    panel = tmp_path / "returns.csv"
    panel.write_text("\n".join(["date,A,B,C", *rows]) + "\n")
    payload = single_error(capsys, ["build", "--input", str(panel), "--out", str(tmp_path / "o")])
    assert payload["error"] == "PanelFormatError"
    assert payload["message"] == (
        "row 3, column 'C': not a number: '0.003' and 24 more lines (an unclosed quote?)"
    )


def test_non_utf8_config_gives_error_json(panel_csv, tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("confidence = 0.90\n")
    corrupt(cfg)
    payload = single_error(
        capsys,
        ["analyze", "--input", str(panel_csv), "--out", str(tmp_path / "o"),
         "--config", str(cfg)],
    )
    assert payload["error"] == "ConfigError"
    assert str(cfg) in payload["message"]


@pytest.mark.parametrize(
    "command, saved", [("rank", "reports"), ("export-charts", "networks")]
)
def test_non_utf8_saved_file_gives_error_json(panel_csv, tmp_path, capsys, command, saved):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    target = sorted((out / saved).glob("window_*.json"))[-1]
    corrupt(target)
    payload = single_error(capsys, [command, "--out", str(out)])
    assert payload["error"] == "NetworkFormatError"
    assert str(target) in payload["message"]


@pytest.mark.parametrize(
    "command, saved", [("rank", "reports"), ("export-charts", "networks")]
)
def test_truncated_saved_file_gives_error_json(panel_csv, tmp_path, capsys, command, saved):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    target = sorted((out / saved).glob("window_*.json"))[-1]
    target.write_bytes(target.read_bytes()[:100])
    payload = single_error(capsys, [command, "--out", str(out)])
    assert payload["error"] == "NetworkFormatError"
    assert str(target) in payload["message"]
    assert "invalid JSON" in payload["message"]


def long_window_id(text):
    # 5,001 digits: one more than int() reads from text
    at = text.index('"window_id": ') + len('"window_id": ')
    return text[:at] + "9" * 5_001 + text[text.index(",", at):]


@pytest.mark.parametrize(
    "command, saved", [("rank", "reports"), ("export-charts", "networks")]
)
@pytest.mark.parametrize(
    "edit", [lambda text: "[" * 100_000, long_window_id], ids=["deep", "long-integer"]
)
def test_unreadable_json_gives_error_json(panel_csv, tmp_path, capsys, command, saved, edit):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    target = sorted((out / saved).glob("window_*.json"))[-1]
    target.write_text(edit(target.read_text()))
    payload = single_error(capsys, [command, "--out", str(out)])
    assert payload["error"] == "NetworkFormatError"
    assert payload["message"].startswith(f"{target}: invalid JSON: ")


def test_out_of_range_saved_weight_names_the_file(panel_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    target = sorted((out / "networks").glob("window_*.json"))[-1]
    payload = json.loads(target.read_text())
    payload["edges"][0][2] = 1.5
    target.write_text(json.dumps(payload))
    error = single_error(capsys, ["export-charts", "--out", str(out)])
    assert error["error"] == "NetworkFormatError"
    assert error["message"].startswith(f"{target}: ")
    assert "1.5" in error["message"]


def test_missing_saved_report_key_names_the_file(panel_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    target = sorted((out / "reports").glob("window_*.json"))[-1]
    payload = json.loads(target.read_text())
    del payload["kirchhoff"]
    target.write_text(json.dumps(payload))
    error = single_error(capsys, ["rank", "--out", str(out)])
    assert error["error"] == "NetworkFormatError"
    assert error["message"].startswith(f"{target}: ")
    assert "kirchhoff" in error["message"]


def infinite_werc_without_order(payload):
    payload["vertices"][0].update(werc="inf", surviving_order=None)


def infinite_kirchhoff(payload):
    payload["kirchhoff"] = math.inf  # the JSON token Infinity: a number, but not finite


def nan_density_and_clustering(payload):
    payload["density"] = math.nan
    payload["vertices"][-1]["clustering"] = math.nan


@pytest.mark.parametrize(
    "edit", [infinite_werc_without_order, infinite_kirchhoff, nan_density_and_clustering]
)
@pytest.mark.parametrize("command", ["rank", "export-charts"])
def test_inconsistent_saved_report_is_refused(panel_csv, tmp_path, capsys, edit, command):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    target = sorted((out / "reports").glob("window_*.json"))[-1]
    payload = json.loads(target.read_text())
    edit(payload)
    target.write_text(json.dumps(payload))  # NaN and inf go out as the JSON tokens NaN and Infinity
    error = single_error(capsys, [command, "--out", str(out)])
    assert error["error"] == "NumericalError"
    assert error["message"].startswith(f"{target}: ")
    assert not list(out.rglob("*.svg"))


def set_vertex(key, value):
    def edit(payload):
        payload["vertices"][0][key] = value

    return edit


def set_field(key, value):
    def edit(payload):
        payload[key] = value

    return edit


def repeat_vertex_firm(payload):
    # typed right, but rank would count F000 twice in one window
    payload["firms"] = ["A", "B"]
    payload["vertices"][1]["firm"] = payload["vertices"][0]["firm"]


def drop_first_firm(payload):
    del payload["firms"][0]


def swap_vertex_firms(payload):
    first, second = payload["vertices"][:2]
    first["firm"], second["firm"] = second["firm"], first["firm"]


def repeat_firm(payload):
    payload["firms"][1] = payload["firms"][0]


def bad_window_and_unlisted_firm(payload):
    # two faults: the header is checked in file order before the firms are cross-checked
    payload["window_id"] = "3"
    drop_first_firm(payload)


def keep_two_vertices(payload):
    # typed right, but no analyzed window has fewer than three firms
    del payload["vertices"][2:]


def huge_surviving_order(payload):
    # rank would average it as a float, which overflows; a cut leaves at most m - 2
    payload["vertices"][0].update(werc="inf", surviving_order=10**400)


@pytest.mark.parametrize(
    "edit, shown",
    [
        # int() would truncate the first and read the second as 1
        (set_vertex("surviving_order", 2.7), "surviving_order must be an integer or null, got 2.7"),
        (set_vertex("surviving_order", True), "must be an integer or null, got True"),
        # float() would accept these strings and the bool
        (set_field("density", "0.03"), "density must be a number, got '0.03'"),
        (set_vertex("clustering", "0.5"), "clustering must be a number, got '0.5'"),
        (set_vertex("strength", True), "strength must be a number, got True"),
        (set_vertex("werc", False), "werc must be a number or 'inf', got False"),
        # "inf" is for werc alone: no analyzed window has an infinite Kirchhoff index
        (set_field("kirchhoff", "inf"), "kirchhoff must be a number, got 'inf'"),
        (set_field("normalized_kirchhoff", "inf"),
         "normalized_kirchhoff must be a number, got 'inf'"),
        (set_field("window_id", "3"), "window_id must be an integer, got '3'"),
        (set_field("window_id", 3.0), "window_id must be an integer, got 3.0"),
        (set_field("density", 10**400), "bad report payload"),
        # str() would read these as firm "7", label "200501" and firms A and B,
        # and the note was kept as it came
        (set_vertex("firm", 7), "firm must be a string, got 7"),
        (set_field("label", 200501), "label must be a string, got 200501"),
        # rank would stop on it with no file named, or count it in the wrong period
        (set_field("label", "2007-4"), "label '2007-4' is not a month YYYY-MM"),
        (set_field("component_note", 3.5), "component_note must be a string or null, got 3.5"),
        (set_field("firms", "AB"), "firms must be a list, got 'AB'"),
        # typed right, but the lists disagree: rank would count a firm twice
        (repeat_vertex_firm, "firm repeats 'F000'"),
        (drop_first_firm, "firm 'F000' is not in firms, or out of their order"),
        (swap_vertex_firms, "firm 'F000' is not in firms, or out of their order"),
        (repeat_firm, "firms repeats 'F000'"),
        # rank would count the window in every period; the charts would
        # plot the median of no clustering values
        (set_field("vertices", []), "need at least three vertices, got 0"),
        (keep_two_vertices, "need at least three vertices, got 2"),
        (bad_window_and_unlisted_firm, "window_id must be an integer, got '3'"),
        (huge_surviving_order, "surviving_order must lie in [1, 8], got 1000"),
    ],
    ids=[
        "order-float", "order-bool", "density-string", "clustering-string",
        "strength-bool", "werc-bool", "kirchhoff-inf", "normalized-kirchhoff-inf",
        "window-string", "window-float", "density-huge",
        "firm-int", "label-int", "label-not-month", "note-float", "firms-string",
        "firm-repeat", "firm-unlisted", "firm-order", "firms-repeat",
        "no-vertices", "two-vertices", "window-string-firm-unlisted", "order-huge",
    ],
)
def test_saved_report_values_are_refused_not_coerced(panel_csv, tmp_path, capsys, edit, shown):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    target = sorted((out / "reports").glob("window_*.json"))[-1]
    payload = json.loads(target.read_text())
    edit(payload)
    target.write_text(json.dumps(payload))
    error = single_error(capsys, ["rank", "--out", str(out)])
    assert error["error"] == "NetworkFormatError"
    assert error["message"].startswith(f"{target}: ")
    assert shown in error["message"]


@pytest.fixture(scope="module")
def analyzed_tree(tmp_path_factory):
    """The saved tree of ``analyze`` on the panel of ``panel_csv``."""
    root = tmp_path_factory.mktemp("analyzed")
    save_returns(generate_panel(10, (2007, 1), (2007, 4), seed=13, stress=None), root / "in.csv")
    assert main(["analyze", "--input", str(root / "in.csv"), "--out", str(root / "out")]) == 0
    return root / "out"


# raw JSON text for one saved value: too deep, too long, too large, or of the wrong kind
RAW_VALUES = (
    "[" * 100_000, "9" * 5_000, str(10**400), "1e999", "NaN", "Infinity",
    "-1", "0", "true", "null", '"inf"', "[]", "{}",
)
VERTEX_KEYS = ("firm", "werc", "clustering", "strength", "surviving_order")


@st.composite
def saved_value_edits(draw):
    """A command, one saved file it reads, the keys to one value there (of
    the header, or of a vertex or an edge), whether that vertex's ``werc``
    becomes "inf" too, and the value's raw text."""
    command = draw(st.sampled_from(["rank", "export-charts"]))
    sub = "reports" if command == "rank" else draw(st.sampled_from(["reports", "networks"]))
    entries, fields = ("vertices", VERTEX_KEYS) if sub == "reports" else ("edges", (0, 1, 2))
    if draw(st.booleans()):
        keys = (entries, draw(st.integers(0, 7)), draw(st.sampled_from(fields)))
    else:
        keys = (draw(st.sampled_from(["schema_version", "window_id", "label", "firms", entries])),)
    werc_inf = sub == "reports" and len(keys) == 3 and draw(st.booleans())
    name = f"{sub}/window_{draw(st.integers(1, 4))}.json"
    return command, name, keys, werc_inf, draw(st.sampled_from(RAW_VALUES))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(saved_value_edits())
# the draws seldom meet this one: an order too large for a float, where rank reads orders
@example(edit=("rank", "reports/window_1.json", ("vertices", 0, "surviving_order"), True,
               str(10**400)))
def test_no_saved_value_ends_in_a_traceback(analyzed_tree, edit):
    command, name, keys, werc_inf, raw = edit
    target = analyzed_tree / name
    original = target.read_bytes()
    payload = json.loads(original)
    *path, last = keys
    holder = payload
    for key in path:
        holder = holder[key]
    if werc_inf:
        holder["werc"] = "inf"
    holder[last] = "@RAW@"
    target.write_text(json.dumps(payload).replace('"@RAW@"', raw))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--out", str(analyzed_tree)])
    finally:
        target.write_bytes(original)
    if code != 0:
        assert code == 1
        (line,) = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "message"}


@pytest.mark.parametrize("command, sub", [("rank", "reports"), ("export-charts", "networks")])
def test_saved_labels_out_of_window_order_are_refused(panel_csv, tmp_path, capsys, command, sub):
    # window 1 relabelled as March would be counted in March's period
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    first = out / sub / "window_1.json"
    payload = json.loads(first.read_text())
    payload["label"] = "2007-03"
    first.write_text(json.dumps(payload))
    error = single_error(capsys, [command, "--out", str(out)])
    assert error == {
        "error": "NetworkFormatError",
        "message": f"{out / sub / 'window_2.json'}: label '2007-02' is not after "
        "the previous window's, '2007-03'",
    }


@pytest.mark.parametrize(
    "edit, shown",
    [
        # int() would truncate the first and parse the second
        (set_field("window_id", 3.7), "window_id must be an integer, got 3.7"),
        (set_field("window_id", "3"), "window_id must be an integer, got '3'"),
        # the panel's 10 firms, as a float that int() would accept
        (set_field("n", 10.0), "n must be an integer, got 10.0"),
        # str() would read these as label "200501" and firms A, B and C
        (set_field("label", 200501), "label must be a string, got 200501"),
        (set_field("firms", "ABC"), "firms must be a list, got 'ABC'"),
        (repeat_firm, "firms repeats 'F000'"),
    ],
    ids=["window-float", "window-string", "n-float", "label-int", "firms-string", "firms-repeat"],
)
def test_saved_network_values_are_refused_not_coerced(panel_csv, tmp_path, capsys, edit, shown):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    target = sorted((out / "networks").glob("window_*.json"))[-1]
    payload = json.loads(target.read_text())
    edit(payload)
    target.write_text(json.dumps(payload))
    error = single_error(capsys, ["export-charts", "--out", str(out)])
    assert error["error"] == "NetworkFormatError"
    assert error["message"].startswith(f"{target}: ")
    assert shown in error["message"]


@pytest.mark.parametrize(
    "name, shown",
    [
        ("window_9.json", "{copy}: window_id 1 does not match the file name"),
        ("window_01.json", "{copy} and {original} both hold window 1"),
    ],
    ids=["other-number", "same-number"],
)
@pytest.mark.parametrize(
    "command, saved", [("rank", "reports"), ("export-charts", "networks")]
)
def test_copied_saved_file_is_refused(panel_csv, tmp_path, capsys, command, saved, name, shown):
    # rank would count window 1 twice; a chart would plot two points at one x
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    original = out / saved / "window_1.json"
    copy = out / saved / name
    copy.write_bytes(original.read_bytes())
    error = single_error(capsys, [command, "--out", str(out)])
    assert error["error"] == "NetworkFormatError"
    assert error["message"] == shown.format(copy=copy, original=original)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["rank", "--out", "o", "--alpha", "0.01"], "--alpha"),
        (["rank", "--out", "o", "--min-obs", "5"], "--min-obs"),
        (["export-charts", "--out", "o", "--alpha", "0.01"], "--alpha"),
        (["export-charts", "--out", "o", "--min-obs", "5"], "--min-obs"),
        (["build", "--input", "x.csv", "--out", "o", "--periods", "A=2007-01..2007-02"],
         "--periods"),
        (["analyze", "--input", "x.csv", "--out", "o", "--bogus"], "--bogus"),
        (["rank"], "--out"),
        # like "periods =" in a config file, not a silent fallback to the defaults
        (["rank", "--out", "o", "--periods", ""], "no sub-periods given"),
        (["rank", "--out", "o", "--periods", "=2005-01..2005-02"], "must not be blank"),
        (["rank", "--out", "o", "--periods", "A=2005-03..2005-01"],
         "start 2005-03 after end 2005-01"),
        (["rank", "--out", "o", "--periods", "A=2005-01-2005-02"], "malformed period range"),
        (["rank", "--out", "o", "--periods", "!!=2005-01..2005-02"], "no usable characters"),
        (["rank", "--out", "o", "--periods", "All periods=2005-01..2005-02"],
         "collide after slugging"),
        (["analyze", "--input", "x.csv", "--out", "o", "--min-obs", "0"],
         "min_obs must be positive"),
    ],
)
def test_usage_error_is_one_json_line(capsys, argv, named):
    error = single_error(capsys, argv)
    assert error["error"] == "ConfigError"
    assert named in error["message"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["rank", "-h"])
    assert stop.value.code == 0
    assert "--periods" in capsys.readouterr().out


def test_config_window_key_is_refused(panel_csv, tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("window = calendar_month\n")
    error = single_error(
        capsys,
        ["analyze", "--input", str(panel_csv), "--out", str(tmp_path / "o"),
         "--config", str(cfg)],
    )
    assert error["error"] == "ConfigError"
    assert "'window'" in error["message"]


@pytest.mark.parametrize("command", ["analyze", "build"])
@pytest.mark.parametrize("line", ["delimiter =", "delimiter = ;;"])
def test_config_delimiter_must_be_one_character(panel_csv, tmp_path, capsys, command, line):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(line + "\n")
    error = single_error(
        capsys,
        [command, "--input", str(panel_csv), "--out", str(tmp_path / "o"),
         "--config", str(cfg)],
    )
    assert error["error"] == "ConfigError"
    assert "delimiter must be one character" in error["message"]


def test_config_delimiter_can_be_a_tab(panel_csv, tmp_path):
    # a stripped value cannot hold a tab, so the two characters \t stand for one
    tabbed = tmp_path / "returns.tsv"
    tabbed.write_text(panel_csv.read_text().replace(",", "\t"))
    cfg = tmp_path / "study.cfg"
    cfg.write_text("delimiter = \\t\n")
    assert main(["build", "--input", str(panel_csv), "--out", str(tmp_path / "comma")]) == 0
    assert main(["build", "--input", str(tabbed), "--out", str(tmp_path / "tab"),
                 "--config", str(cfg)]) == 0
    assert tree_bytes(tmp_path / "tab") == tree_bytes(tmp_path / "comma")


@pytest.mark.parametrize(
    "flags, line, shown",
    [
        (["--min-obs", "1_5"], "", "min_obs must be an integer, got '1_5'"),
        (["--min-obs", "x"], "", "min_obs must be an integer, got 'x'"),
        (["--alpha", "0.0_5"], "", "alpha must be a number, got '0.0_5'"),
        ([], "min_obs = \u0661\u0665", "min_obs must be an integer, got '\u0661\u0665'"),
        ([], "confidence = 0.9_5", "confidence must be a number, got '0.9_5'"),
        # a float, and in range, but Fraction reads its digits by int(), which stops at 4,300
        pytest.param([], "confidence = 0.95" + "0" * 5_000,
                     "confidence has too many digits to read exactly", id="confidence-digits"),
    ],
)
def test_flags_and_config_file_read_numbers_alike(panel_csv, tmp_path, capsys, flags, line, shown):
    # int() and float() read 1_5 as 15 and Arabic-Indic digits as ASCII ones
    cfg = tmp_path / "study.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    error = single_error(
        capsys,
        ["analyze", "--input", str(panel_csv), "--out", str(tmp_path / "o"),
         "--config", str(cfg), *flags],
    )
    assert error == {"error": "ConfigError", "message": shown}


def study_panels(tmp_path) -> tuple[Path, Path]:
    """Panels of two studies, 2005-01..03 and 2009-06..08."""
    paths = []
    for name, start, end in (("early", (2005, 1), (2005, 3)), ("late", (2009, 6), (2009, 8))):
        paths.append(tmp_path / f"{name}.csv")
        save_returns(generate_panel(10, start, end, seed=13, stress=None), paths[-1])
    return paths[0], paths[1]


def test_export_charts_refuses_reports_and_networks_of_two_studies(tmp_path, capsys):
    # the networks of another study's tree, copied over this one's
    early, late = study_panels(tmp_path)
    out, other = tmp_path / "out", tmp_path / "other"
    assert main(["analyze", "--input", str(early), "--out", str(out)]) == 0
    assert main(["build", "--input", str(late), "--out", str(other)]) == 0
    for path in (other / "networks").iterdir():
        shutil.copyfile(path, out / "networks" / path.name)
    error = single_error(capsys, ["export-charts", "--out", str(out)])
    assert error["error"] == "NetworkFormatError"
    report, network = out / "reports" / "window_1.json", out / "networks" / "window_1.json"
    assert error["message"] == (
        f"{report} and {network} disagree on the label or firms of window 1"
    )
    assert not (out / "charts").exists()


def test_build_deletes_the_results_of_an_earlier_study(tmp_path, capsys):
    # else rank would re-rank the 2005 reports beside the 2009 networks
    early, late = study_panels(tmp_path)
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(early), "--charts", "--out", str(out)]) == 0
    before = tree_bytes(out)
    # a build that fails before it writes its networks deletes nothing
    assert main(["build", "--input", str(late), "--out", str(out), "--min-obs", "40"]) == 1
    assert tree_bytes(out) == before
    assert main(["build", "--input", str(late), "--out", str(out)]) == 0
    assert sorted(tree_bytes(out)) == [f"networks/window_{k}.json" for k in (1, 2, 3)]
    error = single_error(capsys, ["rank", "--out", str(out)])
    assert error == {
        "error": "NetworkFormatError", "message": f"no report files in {out / 'reports'}",
    }


def test_analyze_without_charts_deletes_the_charts_of_an_earlier_study(tmp_path):
    early, late = study_panels(tmp_path)
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(early), "--charts", "--out", str(out)]) == 0
    notes = out / "charts" / "notes.txt"
    notes.write_text("not risknet's")
    assert main(["analyze", "--input", str(late), "--out", str(out)]) == 0
    assert list((out / "charts").glob("*.svg")) == []
    assert notes.read_text() == "not risknet's"
    assert (out / "timeseries.csv").read_text().splitlines()[1].startswith("1,2009-06,")


def test_export_charts_refuses_a_report_without_its_network(panel_csv, tmp_path, capsys):
    # a network without a report is fine: analyze saves those of skipped windows
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    (out / "reports" / "window_1.json").unlink()
    assert main(["export-charts", "--out", str(out)]) == 0
    (out / "networks" / "window_4.json").unlink()
    error = single_error(capsys, ["export-charts", "--out", str(out)])
    assert error["error"] == "NetworkFormatError"
    report = out / "reports" / "window_4.json"
    assert error["message"] == f"{report}: no saved network holds window 4"


@pytest.mark.parametrize("command", ["analyze", "export-charts"])
def test_saved_networks_pass_one_window_at_a_time(tmp_path, monkeypatch, command):
    # the band chart needs one year at a time, so no command holds a study's networks
    from risknet import network, reports

    panel = tmp_path / "returns.csv"
    save_returns(generate_panel(6, (2005, 11), (2006, 2), seed=13, stress=None), panel)
    out = tmp_path / "out"
    analyze = ["analyze", "--input", str(panel), "--charts", "--out", str(out)]
    assert main(analyze) == 0
    made, alive = {}, {}  # by label: the last network made, and the networks alive then

    def watched(make):
        def wrapper(*args):
            saved = make(*args)
            gc.collect()
            alive[saved.label] = sorted(label for label, ref in made.items() if ref())
            made[saved.label] = weakref.ref(saved)
            return saved

        return wrapper

    monkeypatch.setattr(network.RiskNetwork, "saved", watched(network.RiskNetwork.saved))
    monkeypatch.setattr(reports, "network_from_dict", watched(reports.network_from_dict))
    assert main(analyze if command == "analyze" else [command, "--out", str(out)]) == 0
    assert sorted(alive) == ["2005-11", "2005-12", "2006-01", "2006-02"]
    # the network just handed over may still be held by its consumer, no other
    assert alive["2006-01"] == ["2005-12"]
    assert alive["2006-02"] == ["2006-01"]


def test_rank_on_empty_directory_fails_cleanly(tmp_path, capsys):
    code = main(["rank", "--out", str(tmp_path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "NetworkFormatError"


def test_build_with_no_usable_window_fails_cleanly(panel_csv, tmp_path, capsys):
    # no calendar month has 40 trading days, so every window is degenerate
    code = main(
        ["build", "--input", str(panel_csv), "--out", str(tmp_path), "--min-obs", "40"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "RiskNetError"
    assert "no non-degenerate window" in payload["message"]


def run_fresh(probe: str, *args: str, env: dict | None = None) -> list[str]:
    """The words ``probe`` prints, run as a script in a new interpreter."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = str(Path(risknet.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


_THREAD_PROBE = """
import os, sys
import risknet
assert "numpy" not in sys.modules
import risknet.cli
risknet.cli.pipeline.run_study  # the study commands' path: numpy, and OpenBLAS with it
assert "numpy" in sys.modules
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(os.environ["OPENBLAS_NUM_THREADS"], threads)
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_command_defaults_to_one_blas_thread(preset):
    """Importing the package loads no numpy, so the command module sets one
    OpenBLAS thread before OpenBLAS starts; a count in the environment wins."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    setting, threads = run_fresh(_THREAD_PROBE, env=env)
    assert setting == (preset or "1")
    if preset is None and threads != "None":
        assert threads == "1"  # no BLAS worker thread in the command's process


_STUDY_PROBE = """
import sys
from risknet.cli import main
print(main(["analyze", "--charts", "--input", sys.argv[1], "--out", sys.argv[2]]))
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS x86-64 kernels"
)
def test_networks_and_charts_do_not_depend_on_the_blas_kernel(tmp_path):
    """Edge estimation uses no BLAS kernel whose rounding varies by CPU (its
    one product counts days, exactly), so ``networks/`` and ``charts/`` keep
    their bytes under OpenBLAS's Prescott kernel, which every x86-64 CPU
    runs. The reports, rankings and time series can move in their last
    digits, and are not compared."""
    panel = tmp_path / "returns.csv"
    save_returns(generate_panel(12, (2007, 1), (2007, 4), seed=3, n_fragile=4), panel)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    trees = []
    for kernel_env in (env, {**env, "OPENBLAS_CORETYPE": "Prescott"}):
        out = tmp_path / f"out{len(trees)}"
        assert run_fresh(_STUDY_PROBE, str(panel), str(out), env=kernel_env)[-1] == "0"
        trees.append({
            path.relative_to(out).as_posix(): path.read_bytes()
            for directory in ("networks", "charts")
            for path in sorted((out / directory).iterdir())
        })
    assert len(trees[0]) == 8  # four networks and four charts
    assert trees[0] == trees[1]


_IMPORT_PROBE = """
import sys
import risknet.cli
names = ("panel", "windows", "network", "spectral", "pipeline", "charts")
print(all(f"risknet.{name}" in sys.modules for name in names), "numpy" in sys.modules)
"""

_REUSE_PROBE = """
import sys
import risknet.spectral
first = sys.modules["risknet.spectral"]
import risknet.cli
print(sys.modules["risknet.spectral"] is first, risknet.cli.pipeline.werc_all is first.werc_all)
"""


def test_cli_import_registers_every_module_without_numpy():
    """``import risknet.cli`` puts the command modules in ``sys.modules``
    (a caller may look them up there) and runs none that loads numpy."""
    assert run_fresh(_IMPORT_PROBE) == ["True", "False"]


def test_cli_import_keeps_a_module_already_imported():
    """One copy of each module, so a patch on it reaches the commands."""
    assert run_fresh(_REUSE_PROBE) == ["True", "True"]


_RANK_PROBE = """
import sys
from risknet.cli import main
print(main(["rank", "--out", sys.argv[1]]), "numpy" in sys.modules)
"""


def test_rank_runs_without_numpy(panel_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--out", str(out)]) == 0
    expected = (out / "rankings" / "all-periods.csv").read_bytes()
    (out / "rankings" / "all-periods.csv").unlink()
    assert run_fresh(_RANK_PROBE, str(out))[-2:] == ["0", "False"]
    assert (out / "rankings" / "all-periods.csv").read_bytes() == expected


# A module whose body has run holds ``__builtins__``; a lazy placeholder in
# sys.modules does not, and looking in its __dict__ this way does not run it.
_CHARTS_PROBE = """
import sys
from risknet.cli import main
code = main(["export-charts", "--out", sys.argv[1]])
ran = [name for name in ("pipeline", "spectral")
       if "__builtins__" in object.__getattribute__(sys.modules[f"risknet.{name}"], "__dict__")]
print(code, "numpy" in sys.modules, *ran)
"""


def test_export_charts_runs_neither_pipeline_nor_spectral(panel_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(panel_csv), "--charts", "--out", str(out)]) == 0
    expected = {p.name: p.read_bytes() for p in (out / "charts").iterdir()}
    assert run_fresh(_CHARTS_PROBE, str(out))[-2:] == ["0", "False"]
    assert {p.name: p.read_bytes() for p in (out / "charts").iterdir()} == expected


_ANALYZE_PROBE = """
import sys
from risknet.cli import main
print(main(["analyze", "--input", sys.argv[1], "--out", sys.argv[2]]), "numpy.ma" in sys.modules)
"""


def test_analyze_does_not_import_numpy_ma(panel_csv, tmp_path):
    """No step of a study needs masked arrays, whose import costs every
    ``analyze`` process tens of milliseconds."""
    assert run_fresh(_ANALYZE_PROBE, str(panel_csv), str(tmp_path / "out"))[-2:] == ["0", "False"]
