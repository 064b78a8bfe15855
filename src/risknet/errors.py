"""Exception types shared across the package.

Everything raised on purpose derives from :class:`RiskNetError` so callers
can catch one base class at the CLI boundary.
"""

from __future__ import annotations


class RiskNetError(Exception):
    """Base class for all errors raised by this package."""


class PanelFormatError(RiskNetError):
    """Malformed input table (bad date, non-numeric cell, duplicate column)."""


class WindowError(RiskNetError):
    """Eligibility floor ``min_obs`` below 1, or a degenerate or
    unanalyzable window used where a healthy one is required."""


class EstimationError(RiskNetError):
    """The tail estimator was called with a tail level outside (0, 0.5)."""


class ConfigError(RiskNetError):
    """Invalid study configuration (bad key, malformed period range,
    overlapping sub-periods) or command line (unknown or missing flag)."""


class NetworkFormatError(RiskNetError):
    """A serialized network or report file does not match the expected
    schema."""


class DisconnectedNetworkError(RiskNetError):
    """An operation that requires a connected network was given a
    disconnected one."""


class NumericalError(RiskNetError):
    """The eigensolver failed or gave a negative eigenvalue beyond its
    tolerance, a resistance was too small to resolve, or a report value
    came out NaN or inconsistent."""
