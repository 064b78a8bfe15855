"""The public surface: every exported name resolves, and the top-level set
is pinned so that any growth shows up in review."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import risknet

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

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(risknet.__path__))


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
