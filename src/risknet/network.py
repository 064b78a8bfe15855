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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .errors import EstimationError, NetworkFormatError, WindowError
from .windows import WindowSlice

__all__ = [
    "Diagnostic",
    "DirectedWeights",
    "RiskNetwork",
    "build_directed",
    "symmetrize",
    "density",
    "network_to_dict",
    "network_from_dict",
    "write_network",
    "read_network",
]

SCHEMA_VERSION = 1


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
        iu = np.triu_indices(self.n, k=1)
        return int(np.count_nonzero(self.weights[iu]))

    @property
    def adjacency(self) -> np.ndarray:
        return self.weights > 0.0

    @property
    def strengths(self) -> np.ndarray:
        return self.weights.sum(axis=1)


def build_directed(window: WindowSlice, alpha: float) -> DirectedWeights:
    """Estimate all directed pair weights of one window.

    Works from ``window.mask``; a fully observed window is the case of an
    all-true mask. Each firm's mean and expected shortfall (ES) come from
    its own observed days. For each source j, the days every target shares
    with j are walked in the order of j's returns (one sort of j per
    window), which gives the k-th order statistic of j on every pair's
    common days at once, k = max(1, floor(alpha * common days)). The pair's
    tail is the common days at or below it, ties included, the target's
    MES is minus its mean return over that tail, and the weight is
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
    mask = window.mask
    r = np.where(mask, window.returns, 0.0)
    n = r.shape[1]
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

    matrix = np.zeros((n, n))
    for j in range(n):
        common = mask & mask[:, j : j + 1]
        n_common = common.sum(axis=0)
        for i in np.flatnonzero(n_common[j + 1 :] < floor) + j + 1:
            diags.append(
                Diagnostic(
                    "short_overlap",
                    firms[j],
                    firms[i],
                    f"{n_common[i]} common days, need {floor}",
                )
            )
        # a firm with fewer than ceil(1/alpha) days has no pair reaching the
        # floor, so the floor also keeps inestimable firms out
        live = (n_common >= floor) & ~degenerate
        live[j] = False
        if not live.any():
            continue
        k = np.maximum(1, np.floor(alpha * n_common).astype(int))
        reached = np.cumsum(common[order[:, j]], axis=0) >= k
        q = ranked[reached.argmax(axis=0), j]
        tail = common & (r[:, j : j + 1] <= q)
        with np.errstate(invalid="ignore", divide="ignore"):
            mes = -((r * tail).sum(axis=0) / tail.sum(axis=0))
            raw = (es - mes) / spread
        matrix[j, live] = 1.0 - np.clip(raw[live], 0.0, 1.0)
    return DirectedWeights(
        window_id=window.window_id,
        label=window.label,
        firms=firms,
        matrix=matrix,
        diagnostics=tuple(diags),
    )


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


def network_to_dict(net: RiskNetwork) -> dict:
    """JSON-ready form: firms plus the positive upper-triangle edges."""
    edges = []
    for i in range(net.n):
        for j in range(i + 1, net.n):
            w = net.weights[i, j]
            if w > 0.0:
                edges.append([i, j, float(w)])
    return {
        "schema_version": SCHEMA_VERSION,
        "window_id": net.window_id,
        "label": net.label,
        "n": net.n,
        "firms": list(net.firms),
        "edges": edges,
    }


def network_from_dict(payload: dict) -> RiskNetwork:
    """Inverse of :func:`network_to_dict`, with schema validation."""
    try:
        version = payload["schema_version"]
        if version != SCHEMA_VERSION:
            raise NetworkFormatError(f"unsupported schema version {version!r}")
        firms = tuple(str(f) for f in payload["firms"])
        n = int(payload["n"])
        window_id = int(payload["window_id"])
        label = str(payload["label"])
        edges = payload["edges"]
    except (KeyError, TypeError, ValueError) as exc:
        raise NetworkFormatError(f"bad network payload: {exc}") from None
    if n != len(firms):
        raise NetworkFormatError(f"n={n} but {len(firms)} firms listed")
    weights = np.zeros((n, n))
    for entry in edges:
        try:
            i, j, w = int(entry[0]), int(entry[1]), float(entry[2])
        except (TypeError, ValueError, IndexError) as exc:
            raise NetworkFormatError(f"bad edge entry {entry!r}: {exc}") from None
        if not 0 <= i < j < n:
            raise NetworkFormatError(f"edge indices out of order or range: {entry!r}")
        if not 0.0 < w <= 1.0:
            raise NetworkFormatError(f"edge weight outside (0, 1]: {entry!r}")
        if weights[i, j] != 0.0:
            raise NetworkFormatError(f"duplicate edge ({i}, {j})")
        weights[i, j] = w
        weights[j, i] = w
    return RiskNetwork(window_id=window_id, label=label, firms=firms, weights=weights)


def write_network(net: RiskNetwork, target: str | Path | IO[str]) -> None:
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="\n") as handle:
            write_network(net, handle)
        return
    json.dump(network_to_dict(net), target, indent=2)
    target.write("\n")


def read_network(source: str | Path | IO[str]) -> RiskNetwork:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return read_network(handle)
    try:
        payload = json.load(source)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"invalid JSON: {exc}") from None
    return network_from_dict(payload)
