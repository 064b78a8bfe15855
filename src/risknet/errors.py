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
    """Invalid windowing scheme or degenerate window used where a healthy
    one is required."""


class EstimationError(RiskNetError):
    """A tail estimator was called outside its domain (series too short,
    non-finite values, bad tail level)."""


class DegeneratePairError(RiskNetError):
    """Impact denominator is zero or negative for a firm pair; the pair
    carries no usable tail signal and its weight is forced to zero
    downstream."""


class InestimablePairError(RiskNetError):
    """A firm pair has too little joint history (or an empty conditioning
    set) to estimate tail co-movement."""


class ConfigError(RiskNetError):
    """Invalid study configuration (bad key, malformed period range,
    overlapping sub-periods)."""


class NetworkFormatError(RiskNetError):
    """A serialized network or report file does not match the expected
    schema."""


class DisconnectedNetworkError(RiskNetError):
    """An operation that requires a connected network was given a
    disconnected one."""


class NumericalError(RiskNetError):
    """The eigensolver or pseudo-inverse failed to converge, or a result
    came out NaN."""
