"""The public surface: every exported name resolves, and the top-level set
and each submodule's ``__all__`` are pinned so that any growth shows up in
review."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import risknet
from risknet import errors

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
    "charts": {
        "line_chart", "band_chart", "emit_charts", "WeightBand", "weight_distribution_stats",
    },
    "cli": set(),
    "errors": set(),
    "network": {
        "Diagnostic", "DirectedWeights", "RiskNetwork", "build_directed", "symmetrize",
        "density", "write_network",
    },
    "panel": {"ReturnPanel", "load_returns", "save_returns"},
    "pipeline": {
        "StudyResult", "run_study", "build_networks", "analyze_panel", "window_report",
        "write_study",
    },
    "reports": {
        "SubPeriod", "StudyConfig", "RankingRow", "RankingTable", "RobustnessReport",
        "DEFAULT_SUB_PERIODS", "ALL_PERIODS", "parse_periods", "load_config_file",
        "rank_firms", "period_slug", "read_reports", "timeseries_rows", "SavedNetwork",
        "read_networks",
    },
    "spectral": {
        "LaplacianSpectrum", "RemovalImpacts", "weighted_laplacian", "spectrum",
        "normalized_kirchhoff", "connected_components", "largest_component", "werc_all",
        "barrat_clustering", "barrat_clustering_all",
    },
    "synthetic": {"generate_panel", "month_span", "weekday_dates"},
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
