"""Directed tail-impact estimation and the symmetric risk network.

For each ordered firm pair (source j, target i) inside one window the
directed weight is the complement of the source's tail impact on the
target. The target's mean and expected shortfall come from its own
observed days; the source's quantile and the target's marginal expected
shortfall come from the pair's common observed days. One masked estimator
computes every pair this way, whether or not the window has missing days.
Pairs that cannot be estimated (short overlap, too few days, degenerate
target) get weight zero and a diagnostic record instead of an exception:
one bad pair must never sink a window.

The undirected network averages the two directions, zeros included, so a
one-sided effect still leaves a (weaker) edge.

Precondition violations by the caller (bad indices, too-small networks)
raise ValueError; data-driven failures raise the package's typed errors.

This module writes no file: the saved network format, its writer and its
reader live in :mod:`risknet.reports`, beside the report format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, NetworkFormatError, WindowError
from .reports import SavedNetwork
# looked up here by perfbench/
from .reports import write_network
from .windows import WindowSlice

__all__ = [
    "Diagnostic",
    "DirectedWeights",
    "RiskNetwork",
    "build_directed",
    "symmetrize",
    "density",
]


@dataclass(frozen=True)
class Diagnostic:
    """Why a pair (or every pair touching one firm) was zeroed."""

    kind: str
    source: str | None
    target: str | None
    detail: str


@dataclass(frozen=True)
class DirectedWeights:
    """Raw directed weight matrix for one window; entry [j, i] is the
    weight of the edge source j -> target i."""

    window_id: int
    label: str
    firms: tuple[str, ...]
    matrix: np.ndarray
    diagnostics: tuple[Diagnostic, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.firms)
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} for {n} firms")
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class RiskNetwork:
    """Undirected weighted network of one window.

    ``weights`` is symmetric with zero diagonal and entries in [0, 1];
    vertex order follows ``firms``.
    """

    window_id: int
    label: str
    firms: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.firms)
        w = self.weights
        if w.shape != (n, n):
            raise NetworkFormatError(f"weight shape {w.shape} for {n} firms")
        if not np.all(np.isfinite(w)):
            raise NetworkFormatError("non-finite weight")
        if not np.array_equal(w, w.T):
            raise NetworkFormatError("weights must be symmetric")
        if np.any(np.diagonal(w) != 0.0):
            raise NetworkFormatError("self-weights must be zero")
        if w.size and (w.min() < 0.0 or w.max() > 1.0):
            raise NetworkFormatError("weights must lie in [0, 1]")
        w.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.firms)

    @property
    def m(self) -> int:
        return np.count_nonzero(self.weights) // 2

    @property
    def adjacency(self) -> np.ndarray:
        return self.weights > 0.0

    @property
    def strengths(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def saved(self) -> SavedNetwork:
        """The network as its file holds it: the positive upper-triangle
        weights as ``[i, j, weight]`` columns, in row-major order (i < j)."""
        rows, cols = np.triu_indices(self.n, k=1)
        values = self.weights[rows, cols]
        live = values > 0.0
        edges = (rows[live].tolist(), cols[live].tolist(), values[live].tolist())
        return SavedNetwork(self.window_id, self.label, self.firms, *map(tuple, edges))


def build_directed(window: WindowSlice, alpha: float) -> DirectedWeights:
    """Estimate all directed pair weights of one window.

    Works from ``window.mask``; a fully observed window is the case of an
    all-true mask. Each firm's mean and expected shortfall (ES) come from
    its own observed days, and every pair's count of common days from one
    product of the mask with itself. Sources are taken in blocks of at
    most ``_BLOCK_BYTES`` of days x sources x targets arrays. Each source's
    days are walked in the order of its returns (one sort per firm and
    window); a running count of every target's observed days gives the
    source's k-th order statistic on each pair's common days at once,
    k = max(1, floor(alpha * common days)). The pair's tail is the common
    days at or below it, ties included, the target's MES is minus its mean
    return over that tail, summed in day order, and the weight is
    1 - clip((ES - MES) / (mean + ES), 0, 1).

    Weights are zero, with a diagnostic, for pairs with fewer than
    max(min_obs, ceil(1 / alpha)) common days (``short_overlap``, one per
    unordered pair), for every pair of a firm with fewer than ceil(1 /
    alpha) observed days (``inestimable_firm``) and for every edge into a
    firm whose tail spread mean + ES is not positive (``degenerate_firm``).
    """
    if window.degenerate:
        raise WindowError(
            f"window {window.label}: fewer than two eligible firms"
        )
    if not 0.0 < alpha < 0.5:
        raise EstimationError(f"tail level must lie in (0, 0.5), got {alpha}")
    firms = window.firms
    # C order whatever the window's layout: numpy sums a column over days
    # in an order that depends on the layout, and the last bit with it
    mask = np.ascontiguousarray(window.mask)
    r = np.ascontiguousarray(np.where(mask, window.returns, 0.0))
    t, n = r.shape
    needed = math.ceil(1.0 / alpha)
    floor = max(window.min_obs, needed)
    diags: list[Diagnostic] = []

    # each firm on its own observed days; unobserved days sort last
    n_obs = mask.sum(axis=0)
    order = np.argsort(np.where(mask, r, np.inf), axis=0)
    ranked = np.take_along_axis(r, order, axis=0)
    k_own = np.maximum(1, np.floor(alpha * n_obs).astype(int))
    own_tail = mask & (r <= ranked[k_own - 1, np.arange(n)])
    means = r.sum(axis=0) / n_obs
    es = -(r * own_tail).sum(axis=0) / own_tail.sum(axis=0)
    spread = means + es
    for i in np.flatnonzero(n_obs < needed):
        diags.append(
            Diagnostic(
                "inestimable_firm",
                None,
                firms[i],
                f"need at least {needed} observations for tail level {alpha}, "
                f"got {n_obs[i]}",
            )
        )
    degenerate = (n_obs >= needed) & ~(spread > 0.0)
    for i in np.flatnonzero(degenerate):
        diags.append(
            Diagnostic(
                "degenerate_firm",
                None,
                firms[i],
                f"non-positive tail spread {spread[i]}",
            )
        )

    # counts of at most t days: exact in floating point
    observed = mask.astype(float)
    n_common = (observed.T @ observed).astype(int)
    short = n_common < floor
    lower, upper = np.nonzero(np.triu(short, 1))
    for j, i, days in zip(lower.tolist(), upper.tolist(), n_common[lower, upper].tolist()):
        diags.append(
            Diagnostic(
                "short_overlap", firms[j], firms[i], f"{days} common days, need {floor}"
            )
        )
    # a firm with fewer than ceil(1/alpha) days has no pair reaching the
    # floor, so the floor also keeps inestimable firms out
    live = ~short & ~degenerate
    np.fill_diagonal(live, False)
    # running counts of at most t days, in the smallest type that holds t
    count = np.min_scalar_type(t)
    k = np.maximum(1, np.floor(alpha * n_common)).astype(count)

    matrix = np.zeros((n, n))
    sources = np.flatnonzero(live.any(axis=1))
    step = max(1, _BLOCK_BYTES // (8 * t * n))
    for start in range(0, sources.size, step):
        block = sources[start : start + step]
        # common[d, b, i]: day d observed for source block[b] and target i
        common = mask[:, None, :] & mask[:, block, None]
        # each target's observed days counted in the order of each source's
        # returns; the source's own days come first, and among them the
        # k-th common day, after the days counted fewer than k times. Only
        # a target with fewer than k observed days in all, never live,
        # runs off the end.
        seen = mask[order[:, block]].astype(count)
        for d in range(1, t):  # one add per day: np.cumsum here is ten times slower
            seen[d] += seen[d - 1]
        at = np.minimum((seen < k[block]).sum(axis=0, dtype=count), t - 1)
        q = ranked[at, block[:, None]]
        tail = common & (r[:, block, None] <= q)
        with np.errstate(invalid="ignore", divide="ignore"):
            mes = -((r[:, None, :] * tail).sum(axis=0) / tail.sum(axis=0, dtype=count))
            raw = (es - mes) / spread
        matrix[block] = np.where(live[block], 1.0 - np.clip(raw, 0.0, 1.0), 0.0)
    return DirectedWeights(
        window_id=window.window_id,
        label=window.label,
        firms=firms,
        matrix=matrix,
        diagnostics=tuple(diags),
    )


# Bytes of one block's days x sources x targets float array: a fixed
# budget, so peak memory does not grow with the number of firms.
_BLOCK_BYTES = 1 << 19


def symmetrize(directed: DirectedWeights) -> RiskNetwork:
    """Average the two directions of every pair into an undirected network.

    Zeros take part in the average: a pair with one live direction keeps
    half that weight.
    """
    m = directed.matrix
    if np.any(np.diagonal(m) != 0.0):
        raise NetworkFormatError("directed matrix must have a zero diagonal")
    if m.size and (np.nanmin(m) < 0.0 or np.nanmax(m) > 1.0 or not np.all(np.isfinite(m))):
        raise NetworkFormatError("directed weights must lie in [0, 1]")
    return RiskNetwork(
        window_id=directed.window_id,
        label=directed.label,
        firms=directed.firms,
        weights=(m + m.T) / 2.0,
    )


def density(net: RiskNetwork) -> float:
    """Fraction of firm pairs joined by a positive-weight edge."""
    if net.n < 2:
        raise ValueError("density needs at least two vertices")
    return net.m / math.comb(net.n, 2)

