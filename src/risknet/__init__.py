"""Time-varying tail-risk networks of firms and robustness rankings.

Build weighted networks from daily return panels (edge weights from
pairwise tail impact), measure their robustness through the spectrum of
the weighted Laplacian, and rank firms by how much their removal degrades
the network. Everything else lives in the submodules.

The names below load their submodule on first use, so importing the
package alone does not load numpy: ``risknet.cli`` sets the BLAS thread
default before anything starts BLAS.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    "RiskNetError": "errors",
    "load_returns": "panel",
    "window_panel": "windows",
    "build_directed": "network",
    "symmetrize": "network",
    "werc_all": "spectral",
    "StudyConfig": "reports",
    "run_study": "pipeline",
    "write_study": "pipeline",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
