"""Independent reference routes that the tests check the package against.

None of this is on a command's path; each function computes one quantity
the slow, literal way, so that a fast kernel in ``risknet`` has something
to agree with.

Tail measures and pairwise tail impact. All estimators work on raw return
series (losses are negative returns) and use the empirical distribution,
no parametric fit:

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
target. ``network.build_directed`` computes the same quantities for a whole
window at once; ``per_pair_oracle`` calls these scalar functions pair by
pair to check it.

Total effective resistance: ``kirchhoff_index`` sums the reciprocal
eigenvalues of the weighted Laplacian (``weighted_laplacian``), and
``effective_resistance_oracle`` sums pairwise resistances from its
pseudo-inverse. Neither shares a solver with ``spectral.werc_all`` or
with the other.

Saved reports: ``report_to_dict`` builds a report's payload one vertex at a
time; ``json.dumps`` of it, plus a newline, is the report writer's byte
format.

Saved panels: ``csv_save_returns`` writes every row through ``csv.writer``,
one cell at a time, for ``panel.save_returns`` to match byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from risknet.errors import (
    DisconnectedNetworkError,
    EstimationError,
    NumericalError,
    RiskNetError,
)
from risknet.network import Diagnostic, RiskNetwork
from risknet.panel import ReturnPanel
from risknet.reports import RobustnessReport
from risknet.spectral import LaplacianSpectrum, connected_components


class DegeneratePairError(RiskNetError):
    """Impact denominator is zero or negative for a firm pair; the pair
    carries no usable tail signal and its weight is forced to zero
    downstream."""


# --------------------------------------------------------------- tail measures


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
    # the quantile is one of the source's own values: the set is never empty
    conditioning = source <= estimate_var(source, alpha)
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


def per_pair_oracle(window, alpha):
    """The per-pair estimator, one scalar call at a time.

    Each firm's profile comes from its own observed days and each pair's
    MES from the pair's common days. Returns the directed matrix, the set
    of ``short_overlap`` and ``inestimable_firm`` diagnostics, and the
    firms whose tail spread is not positive.
    """
    n = window.n_firms
    firms = window.firms
    out = np.zeros((n, n))
    diagnostics = set()
    profiles = []
    for col, firm in enumerate(firms):
        try:
            profiles.append(
                risk_profile(firm, window.returns[window.mask[:, col], col], alpha)
            )
        except EstimationError as exc:
            profiles.append(None)
            diagnostics.add(Diagnostic("inestimable_firm", None, firm, str(exc)))
    degenerate = {
        p.firm for p in profiles if p is not None and p.mean_return + p.es <= 0.0
    }
    floor = max(window.min_obs, math.ceil(1.0 / alpha))
    for a in range(n):
        for b in range(a + 1, n):
            common = np.flatnonzero(window.mask[:, a] & window.mask[:, b])
            if len(common) < floor:
                diagnostics.add(
                    Diagnostic(
                        "short_overlap",
                        firms[a],
                        firms[b],
                        f"{len(common)} common days, need {floor}",
                    )
                )
                continue
            for target, source in ((a, b), (b, a)):
                if profiles[target] is None or profiles[source] is None:
                    continue
                mes = estimate_mes(
                    window.returns[common, target], window.returns[common, source], alpha
                )
                try:
                    out[source, target] = edge_weight(
                        profiles[target], profiles[source], mes
                    )
                except DegeneratePairError:
                    assert firms[target] in degenerate
    return out, diagnostics, degenerate


# ---------------------------------------------------------- Kirchhoff index


def weighted_laplacian(net: RiskNetwork) -> np.ndarray:
    """L = S - W with S the diagonal of vertex strengths."""
    w = net.weights
    return np.diag(w.sum(axis=1)) - w


def kirchhoff_index(spec: LaplacianSpectrum) -> float:
    """Total effective resistance n * sum(1 / mu) over the n - 1 largest
    eigenvalues of a connected network.

    Returns ``inf`` when the network is disconnected: separated pairs have
    infinite resistance. Callers that must not see ``inf`` should restrict
    to a component first. A connected network gets a finite value, or
    ``NumericalError`` when the sum overflows or the smallest eigenvalue is
    noise: not above the solver's error, n * eps * (largest eigenvalue).
    """
    if not spec.connected:
        return math.inf
    positive = spec.eigenvalues[: spec.n - 1]
    resolution = spec.n * np.finfo(float).eps * float(spec.eigenvalues[0])
    with np.errstate(over="ignore", divide="ignore"):
        total = float(spec.n * np.sum(1.0 / positive))
    if positive.size and (positive[-1] <= resolution or not math.isfinite(total)):
        raise NumericalError(
            f"eigenvalue {positive[-1]:g} of a connected network of order "
            f"{spec.n} is too small to resolve its resistance (K = {total:g})"
        )
    return total


def effective_resistance_oracle(net: RiskNetwork) -> float:
    """Kirchhoff index by summing pairwise effective resistances.

    Uses the Moore-Penrose pseudo-inverse of the Laplacian: the resistance
    between i and j is P[i, i] + P[j, j] - 2 P[i, j]. For a connected
    network P = inv(L + c J / n) - J / (c n) with J the all-ones matrix and
    any c > 0, which needs no eigenvalue cutoff, so the oracle stays
    independent of the eigenvalue route. c is the mean strength, which
    keeps the shift on the Laplacian's scale: an unscaled J / n swamps a
    network of small weights and costs digits. Quadratic in the number of
    pairs, meant for cross-checks on small networks.
    """
    if len(connected_components(net)) != 1:
        raise DisconnectedNetworkError(
            f"window {net.label}: effective resistance is infinite across components"
        )
    scale = float(net.strengths.mean())
    projector = np.full((net.n, net.n), 1.0 / net.n)
    try:
        pinv = np.linalg.inv(weighted_laplacian(net) + scale * projector) - projector / scale
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pseudo-inverse failed: {exc}") from None
    total = 0.0
    for i in range(net.n):
        for j in range(i + 1, net.n):
            total += pinv[i, i] + pinv[j, j] - 2.0 * pinv[i, j]
    return float(total)


# ------------------------------------------------------------- saved reports


def report_to_dict(report: RobustnessReport) -> dict:
    return {
        "schema_version": 2,
        "window_id": report.window_id,
        "label": report.label,
        "firms": list(report.firms),
        "component_note": report.component_note,
        "density": report.density,
        "kirchhoff": report.kirchhoff,
        "normalized_kirchhoff": report.normalized_kirchhoff,
        "vertices": [
            {
                "firm": firm,
                "werc": "inf" if w == math.inf else w,
                "clustering": c,
                "strength": s,
                "surviving_order": survivor,
            }
            for firm, w, c, s, survivor in zip(
                report.analyzed_firms,
                report.werc,
                report.clustering,
                report.strength,
                report.surviving_order,
            )
        ],
    }


# -------------------------------------------------------------- saved panels


def csv_save_returns(panel: ReturnPanel, path) -> None:
    """The panel file through ``csv.writer``: values by ``repr``, masked
    entries as empty cells, whatever the return behind the mask."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("date",) + panel.firms)
        for date, values, seen in zip(panel.dates, panel.returns, panel.mask):
            cells = [repr(value) if observed else ""
                     for value, observed in zip(values.tolist(), seen.tolist())]
            writer.writerow([date.isoformat(), *cells])
