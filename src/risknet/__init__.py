"""Time-varying tail-risk networks of firms and robustness rankings.

Build weighted networks from daily return panels (edge weights from
pairwise tail impact), measure their robustness through the spectrum of
the weighted Laplacian, and rank firms by how much their removal degrades
the network. Everything else lives in the submodules.
"""

from __future__ import annotations

from .errors import RiskNetError
from .network import build_directed, symmetrize
from .panel import load_returns
from .pipeline import StudyConfig, run_study, write_study
from .spectral import werc_all
from .windows import WindowScheme, window_panel

__version__ = "0.1.0"

__all__ = [
    "RiskNetError",
    "load_returns",
    "WindowScheme",
    "window_panel",
    "build_directed",
    "symmetrize",
    "werc_all",
    "StudyConfig",
    "run_study",
    "write_study",
    "__version__",
]
