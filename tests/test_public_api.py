"""The public surface: every exported name resolves, the top-level set and
each submodule's ``__all__`` are pinned so that any growth shows up in
review, and ``test_every_public_name_has_a_caller`` keeps each exported
name to one that something outside its module uses."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import risknet
from risknet import errors
from risknet.panel import save_returns
from risknet.pipeline import analyze_panel, write_study
from risknet.reports import (
    _REPORT_HEADER, _REPORT_VERTICES, RankingRow, RobustnessReport, StudyConfig, timeseries_rows,
)
from risknet.synthetic import generate_panel

TOP_LEVEL = {
    "RiskNetError",
    "load_returns",
    "window_panel",
    "build_directed",
    "symmetrize",
    "werc_all",
    "StudyConfig",
    "run_study",
    "write_study",
    "__version__",
}

# submodule -> its __all__; an empty set for a module without one
SUBMODULE_NAMES = {
    "charts": {"emit_charts"},
    "cli": set(),
    "errors": set(),
    "network": {
        "Diagnostic", "DirectedWeights", "RiskNetwork", "build_directed", "symmetrize",
        "density",
    },
    "panel": {"ReturnPanel", "load_returns", "save_returns"},
    "pipeline": {
        "StudyResult", "run_study", "build_networks", "analyze_panel", "window_report",
        "write_study",
    },
    "reports": {
        "SubPeriod", "StudyConfig", "RankingRow", "RankingTable", "RobustnessReport",
        "ALL_PERIODS", "parse_periods", "load_config_file", "rank_firms", "read_reports",
        "timeseries_rows", "SavedNetwork", "read_networks",
    },
    "spectral": {
        "LaplacianSpectrum", "RemovalImpacts", "spectrum", "normalized_kirchhoff",
        "connected_components", "largest_component", "werc_all", "barrat_clustering",
        "barrat_clustering_all",
    },
    "synthetic": {"generate_panel", "month_span"},
    "windows": {"WindowSlice", "window_panel"},
}

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(risknet.__path__))

# the error classes, which ``errors`` defines without an __all__
ERRORS = {
    "RiskNetError", "PanelFormatError", "WindowError", "EstimationError", "ConfigError",
    "NetworkFormatError", "DisconnectedNetworkError", "NumericalError",
}


def test_top_level_names_are_pinned_and_resolve():
    assert len(risknet.__all__) == len(set(risknet.__all__))
    assert set(risknet.__all__) == TOP_LEVEL
    for name in risknet.__all__:
        assert getattr(risknet, name) is not None


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"risknet.{name}")
    exported = getattr(module, "__all__", ())
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_submodule_names_are_pinned():
    assert sorted(SUBMODULE_NAMES) == SUBMODULES
    for name in SUBMODULES:
        module = importlib.import_module(f"risknet.{name}")
        assert set(getattr(module, "__all__", ())) == SUBMODULE_NAMES[name], name


def test_error_classes_are_pinned():
    defined = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.RiskNetError)
    }
    assert defined == ERRORS


def test_study_config_fields_are_pinned():
    # the study's parameters; paths and command switches stay with the command
    fields = [f.name for f in dataclasses.fields(StudyConfig)]
    assert fields == ["alpha", "min_obs", "delimiter", "sub_periods"]


def test_report_fields_are_pinned_to_the_saved_layout():
    # a new field must pass through the writer, the reader and this contract:
    # each is a key of the saved header or the column that holds a vertex key
    fields = [f.name for f in dataclasses.fields(RobustnessReport)]
    assert fields == [
        "window_id", "label", "firms", "analyzed_firms", "component_note", "density",
        "kirchhoff", "normalized_kirchhoff", "werc", "clustering", "strength", "surviving_order",
    ]
    vertex = [name for _, name, _ in _REPORT_VERTICES]
    assert sorted([key for key, _ in _REPORT_HEADER] + vertex) == sorted(fields)


def _integer_subscripts_of_rows(tree: ast.Module):
    """(function, line) of each integer subscript, ``x[2]`` or ``x[-1]``,
    in a function that reads time-series rows: one with a ``rows``
    parameter or a call of ``timeseries_rows``; and the set of those functions."""
    found, readers = [], set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        nodes = list(ast.walk(func))
        if not any(arg.arg == "rows" for arg in func.args.args) and not any(
            isinstance(node, ast.Name) and node.id == "timeseries_rows" for node in nodes
        ):
            continue
        readers.add(func.name)
        for node in nodes:
            if isinstance(node, ast.Subscript):
                index = node.slice
                if isinstance(index, ast.UnaryOp):
                    index = index.operand
                if isinstance(index, ast.Constant) and type(index.value) is int:
                    found.append((func.name, node.lineno))
    return found, readers


def test_saved_tables_take_their_columns_from_one_declaration(tmp_path):
    # timeseries.csv's header is its row type's fields, a ranking table's its
    # row's fields and a report vertex's the keys of the vertex table; charts
    # reads the time series by those names, never by position
    config = StudyConfig()
    result = analyze_panel(generate_panel(6, (2007, 1), (2007, 3), seed=3, stress=None), config)
    write_study(result, config, tmp_path)
    rows = timeseries_rows(result.reports, config.sub_periods)
    header = (tmp_path / "timeseries.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",") == list(type(rows[0])._fields)
    tables = sorted((tmp_path / "rankings").glob("*.csv"))
    assert len(tables) == 5
    names = [field.name for field in dataclasses.fields(RankingRow)]
    for table in tables:
        assert table.read_text(encoding="utf-8").splitlines()[0].split(",") == names
    saved = json.loads((tmp_path / "reports" / "window_1.json").read_text(encoding="utf-8"))
    assert [list(vertex) for vertex in saved["vertices"]] == (
        [[key for key, _, _ in _REPORT_VERTICES]] * len(saved["vertices"])
    )
    charts = Path(risknet.__file__).parent / "charts.py"
    found, readers = _integer_subscripts_of_rows(ast.parse(charts.read_text(encoding="utf-8")))
    assert readers >= {"_window_ticks", "_boundaries", "emit_charts"}
    assert found == []


def test_readme_library_use_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    save_returns(generate_panel(10, (2007, 1), (2007, 3), seed=13, stress=None),
                 tmp_path / "returns.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert (tmp_path / "study" / "timeseries.csv").is_file()
    assert (tmp_path / "study" / "rankings" / "all-periods.csv").is_file()


def _open_modes(node: ast.AST, owner: str = ""):
    """(innermost enclosing function, mode) of each ``open(...)`` call under
    ``node``; the mode is None where it is not a string literal."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _open_modes(child, child.name)
            continue
        func = getattr(child, "func", None)
        if isinstance(func, ast.Name) and func.id == "open":
            modes = [kw.value for kw in child.keywords if kw.arg == "mode"] + child.args[1:2]
            mode = modes[0] if modes else ast.Constant("r")
            yield owner, mode.value if isinstance(mode, ast.Constant) else None
        yield from _open_modes(child, owner)


def test_every_input_file_is_opened_by_reports_opened():
    # one reader of the panel, the config and saved JSON: any other open() writes
    readers = [
        (path.name, owner)
        for path in sorted(Path(risknet.__file__).parent.glob("*.py"))
        for owner, mode in _open_modes(ast.parse(path.read_text(encoding="utf-8")))
        if "w" not in (mode or "")
    ]
    assert readers == [("reports.py", "_opened")]


def test_no_module_imports_another_modules_private_names():
    # a format or a policy stays behind its one module; the two shared
    # helpers are the one opener of input files and the one directory writer
    imported = {
        (path.stem, node.module, alias.name)
        for path in sorted(Path(risknet.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("risknet"))
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert imported == {("panel", "reports", "_opened"), ("charts", "reports", "_write_files")}


def _private_bindings(tree: ast.Module):
    """(name, statement) of each module-level binding of a private name,
    dunders aside: a def, a class, an assignment or an import."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names = [(alias.asname or alias.name).split(".")[0] for alias in stmt.names]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, stmt


def test_every_private_name_has_a_use():
    # a helper with no caller goes; a use is a read of the name in its module,
    # an attribute of that name, or an import of it by another module, each
    # outside the statement that binds it
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(risknet.__file__).parent.glob("*.py"))
    }
    bindings = [(stem, name, stmt) for stem, tree in trees.items()
                for name, stmt in _private_bindings(tree)]
    unused = []
    for stem, name, stmt in bindings:
        inside = {id(node) for node in ast.walk(stmt)}
        if not any(
            id(node) not in inside and (
                (other == stem and isinstance(node, ast.Name) and node.id == name
                 and not isinstance(node.ctx, ast.Store))
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.ImportFrom) and other != stem
                    and (node.module or "").rpartition(".")[2] == stem
                    and any(alias.name == name for alias in node.names))
            )
            for other, tree in trees.items()
            for node in ast.walk(tree)
        ):
            unused.append(f"{stem}.{name}")
    assert len(bindings) > 50
    assert unused == []


def _taken_from(stem: str, trees: dict[str, ast.Module]):
    """Each name that another submodule imports from ``risknet.<stem>`` or
    reads as ``<stem>.<name>``."""
    for other, tree in trees.items():
        if other == stem:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == stem:
                yield from (alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id == stem):
                yield node.attr


def _result_types(tree: ast.Module, exported: set[str]):
    """Each name read in the return annotation of an exported function or in
    a field annotation of an exported class."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name in exported:
            annotations = [item.annotation for item in stmt.body if isinstance(item, ast.AnnAssign)]
        elif isinstance(stmt, ast.FunctionDef) and stmt.name in exported and stmt.returns:
            annotations = [stmt.returns]
        else:
            continue
        for annotation in annotations:
            yield from (node.id for node in ast.walk(annotation) if isinstance(node, ast.Name))


def _readme_code(text: str) -> str:
    """The README's fenced ``python`` blocks and the backtick spans of its
    text outside fenced blocks."""
    fenced = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
    blocks = [body for language, body in fenced.findall(text) if language == "python"]
    return "\n".join(blocks + re.findall(r"`([^`\n]+)`", fenced.sub("", text)))


def test_every_public_name_has_a_caller():
    # the public twin of test_every_private_name_has_a_use: a name in a
    # submodule's __all__ is imported or read off its module by another
    # submodule (the top-level exports are pinned on their own), named in
    # perfbench/ or in the README's code, or the result or field type of a
    # name so exported; one that is none of these goes private or goes
    package, root = Path(risknet.__file__).parent, Path(__file__).parents[1]
    trees = {
        name: ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for name in SUBMODULES
    }
    outside = "\n".join(
        [path.read_text(encoding="utf-8") for path in sorted((root / "perfbench").glob("*.py"))]
        + [_readme_code((root / "README.md").read_text(encoding="utf-8"))]
    )
    uncalled = []
    for stem, tree in trees.items():
        exported = set(getattr(importlib.import_module(f"risknet.{stem}"), "__all__", ()))
        used = set(_taken_from(stem, trees)) | set(_result_types(tree, exported))
        uncalled += [
            f"{stem}.{name}" for name in sorted(exported - used)
            if not re.search(rf"\b{name}\b", outside)
        ]
    assert uncalled == []
