"""Historical-simulation tail measures and pairwise tail impact.

All estimators work on raw return series (losses are negative returns) and
use the empirical distribution, no parametric fit:

* value at risk: the k-th smallest return with k = max(1, floor(alpha * T)),
  reported in return space (the loss quantile is its negation);
* expected shortfall: minus the mean return over the days at or below that
  quantile;
* marginal expected shortfall of firm i given firm j: minus the mean of
  i's returns over the days where j is at or below j's quantile.

The impact index of a source firm on a target,

    I = (ES_target - MES) / (mean_target + ES_target),

measures how far the target's conditional tail loss falls short of its own
tail loss, as a share of the tail spread: 0 when the source's bad days are
at least as bad for the target as the target's own worst days, 1 when they
are no worse than an average day. It is clipped into [0, 1], and the
network edge weight is its complement 1 - I when the conditional tail mean
does not exceed the unconditional mean (otherwise the source exerts no
measurable drag and the weight is zero). Both quantities are invariant
under positive scaling of either series and under location shifts of the
target.

These scalar functions are the definition: ``network.build_directed``
computes the same quantities for a whole window at once, and its tests
compare it with them pair by pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePairError, EstimationError, InestimablePairError

__all__ = [
    "RiskProfile",
    "estimate_var",
    "estimate_es",
    "estimate_mes",
    "risk_profile",
    "impact",
    "edge_weight",
]


@dataclass(frozen=True)
class RiskProfile:
    """Univariate tail summary of one firm over one window.

    ``var_q`` is the return-space quantile (the VaR as a positive loss is
    ``-var_q``); ``es`` is the positive-loss expected shortfall; ``tail_days``
    are the indices, within the series the profile was built from, of the
    days at or below the quantile.
    """

    firm: str
    n_obs: int
    mean_return: float
    var_q: float
    es: float
    tail_days: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.es < -self.var_q - 1e-12:
            raise EstimationError(
                f"{self.firm}: expected shortfall {self.es} below loss quantile {-self.var_q}"
            )


def _check_series(series: np.ndarray, alpha: float) -> np.ndarray:
    if not 0.0 < alpha < 0.5:
        raise EstimationError(f"tail level must lie in (0, 0.5), got {alpha}")
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise EstimationError(f"expected a 1-d series, got shape {series.shape}")
    if series.size and not np.all(np.isfinite(series)):
        raise EstimationError("series contains non-finite values")
    needed = math.ceil(1.0 / alpha)
    if series.size < needed:
        raise EstimationError(
            f"need at least {needed} observations for tail level {alpha}, got {series.size}"
        )
    return series


def estimate_var(series: np.ndarray, alpha: float) -> float:
    """Empirical alpha-quantile of a return series.

    Returns the k-th order statistic with k = max(1, floor(alpha * T)).
    Requires T >= ceil(1 / alpha) so the tail holds at least one day.
    """
    series = _check_series(series, alpha)
    k = max(1, math.floor(alpha * series.size))
    return float(np.partition(series, k - 1)[k - 1])


def estimate_es(series: np.ndarray, alpha: float) -> float:
    """Expected shortfall (positive loss): minus the mean return over the
    days at or below the alpha-quantile."""
    series = _check_series(series, alpha)
    q = estimate_var(series, alpha)
    tail = series[series <= q]
    return float(-tail.mean())


def estimate_mes(target: np.ndarray, source: np.ndarray, alpha: float) -> float:
    """Marginal expected shortfall of ``target`` given ``source``.

    Both series must be aligned on the same days. The conditioning set is
    the source's tail (days at or below its alpha-quantile); the result is
    minus the mean of the target's returns over those days. Conditioning a
    series on itself reproduces its own expected shortfall.
    """
    target = np.asarray(target, dtype=float)
    source = _check_series(source, alpha)
    if target.shape != source.shape:
        raise EstimationError(
            f"target and source must be aligned, got {target.shape} vs {source.shape}"
        )
    if not np.all(np.isfinite(target)):
        raise EstimationError("target series contains non-finite values")
    q = estimate_var(source, alpha)
    conditioning = source <= q
    if not conditioning.any():
        raise InestimablePairError("empty conditioning set")
    return float(-target[conditioning].mean())


def risk_profile(firm: str, series: np.ndarray, alpha: float) -> RiskProfile:
    """Build the univariate tail summary of one firm's observed series."""
    series = _check_series(series, alpha)
    q = estimate_var(series, alpha)
    tail = np.flatnonzero(series <= q)
    return RiskProfile(
        firm=firm,
        n_obs=int(series.size),
        mean_return=float(series.mean()),
        var_q=q,
        es=float(-series[tail].mean()),
        tail_days=tuple(int(t) for t in tail),
    )


def impact(target_profile: RiskProfile, mes: float) -> float:
    """Tail impact on ``target_profile``'s firm given a conditional tail
    mean, clipped into [0, 1].

    The denominator is the target's tail spread, mean + ES. A zero or
    negative spread means the firm's series carries no usable tail signal
    (e.g. it is constant) and the pair is degenerate.
    """
    spread = target_profile.mean_return + target_profile.es
    if spread <= 0.0:
        raise DegeneratePairError(
            f"{target_profile.firm}: non-positive tail spread {spread}"
        )
    raw = (target_profile.es - mes) / spread
    return float(min(1.0, max(0.0, raw)))


def edge_weight(
    target_profile: RiskProfile, source_profile: RiskProfile, mes: float
) -> float:
    """Directed edge weight of source -> target.

    The weight is 1 - impact when the target's conditional tail mean -mes
    stays at or below its unconditional mean (the source's bad days drag
    the target down); otherwise the source exerts no impact and the weight
    is zero. Degenerate targets raise, naming both firms, so the network
    builder can zero the pair and record a diagnostic.
    """
    if target_profile.mean_return < -mes:
        return 0.0
    try:
        return 1.0 - impact(target_profile, mes)
    except DegeneratePairError as exc:
        raise DegeneratePairError(
            f"pair {source_profile.firm} -> {target_profile.firm}: {exc}"
        ) from None
