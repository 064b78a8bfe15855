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
from typing import IO, Callable, TypeVar

import numpy as np

from .errors import EstimationError, NetworkFormatError, RiskNetError, WindowError
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

_T = TypeVar("_T")


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
    # C order whatever the window's layout: numpy sums a column over days
    # in an order that depends on the layout, and the last bit with it
    mask = np.ascontiguousarray(window.mask)
    r = np.ascontiguousarray(np.where(mask, window.returns, 0.0))
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
    """JSON-ready form: firms plus the positive upper-triangle edges, as
    ``[i, j, weight]`` lists of Python ints and floats in row-major order
    (i < j)."""
    rows, cols = np.triu_indices(net.n, k=1)
    values = net.weights[rows, cols]
    live = values > 0.0
    edges = [
        [i, j, w]
        for i, j, w in zip(rows[live].tolist(), cols[live].tolist(), values[live].tolist())
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "window_id": net.window_id,
        "label": net.label,
        "n": net.n,
        "firms": list(net.firms),
        "edges": edges,
    }


def network_from_dict(payload: dict) -> RiskNetwork:
    """Inverse of :func:`network_to_dict`, with schema validation.

    Every edge must be a list ``[i, j, weight]`` with integer indices
    0 <= i < j < n (a bool, a float such as 1.0 or a string is refused,
    not truncated), a numeric weight in (0, 1], and no pair twice. The
    first check that fails names its first offending entry.
    """
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
    if not isinstance(edges, list):
        raise NetworkFormatError(f"bad network payload: edges is a {type(edges).__name__}")
    weights = np.zeros((n, n))
    if edges:
        rows, cols, values = _edge_columns(edges, n)
        weights[rows, cols] = values
        weights[cols, rows] = values
    return RiskNetwork(window_id=window_id, label=label, firms=firms, weights=weights)


def _edge_columns(edges: list, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices, column indices and weights of a non-empty edge list.

    Types are checked a column at a time and values in numpy; only when a
    check fails is the list walked again, for the first offending entry.
    """

    def first(bad) -> object:
        return next(entry for entry in edges if bad(entry))

    if set(map(type, edges)) != {list} or set(map(len, edges)) != {3}:
        entry = first(lambda e: type(e) is not list or len(e) != 3)
        raise NetworkFormatError(f"bad edge entry {entry!r}: expected [i, j, weight]")
    rows, cols, values = zip(*edges)
    if not set(map(type, rows)) | set(map(type, cols)) <= {int}:
        entry = first(lambda e: type(e[0]) is not int or type(e[1]) is not int)
        raise NetworkFormatError(f"edge indices must be integers: {entry!r}")
    try:
        rows = np.array(rows, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        ordered = bool(np.all((rows >= 0) & (rows < cols) & (cols < n)))
    except OverflowError:  # an integer beyond 64 bits
        ordered = False
    if not ordered:
        entry = first(lambda e: not 0 <= e[0] < e[1] < n)
        raise NetworkFormatError(f"edge indices out of order or range: {entry!r}")
    if not set(map(type, values)) <= {int, float}:
        entry = first(lambda e: type(e[2]) not in (int, float))
        raise NetworkFormatError(f"bad edge entry {entry!r}: weight is not a number")
    try:
        weights = np.array(values, dtype=float)
        in_range = bool(np.all((weights > 0.0) & (weights <= 1.0)))
    except OverflowError:  # an integer too large for a float
        in_range = False
    if not in_range:
        entry = first(lambda e: not 0.0 < e[2] <= 1.0)
        raise NetworkFormatError(f"edge weight outside (0, 1]: {entry!r}")
    key = rows * n + cols
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if repeats.size:
        at = repeats.min()
        raise NetworkFormatError(f"duplicate edge ({rows[at]}, {cols[at]})")
    return rows, cols, weights


# One edge in the layout ``json.dump(..., indent=2)`` gives it; ``%r`` of a
# Python int or float is what the json module writes for it.
_EDGE = "    [\n      %r,\n      %r,\n      %r\n    ]"


def write_network(net: RiskNetwork, target: str | Path | IO[str]) -> None:
    """Write ``network_to_dict(net)`` as ``json.dump(..., indent=2)`` plus a
    newline would, byte for byte, without running the json module's
    pure-Python encoder on the edges: only the header goes through
    ``json.dumps``, and each edge is rendered from a fixed template."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="\n") as handle:
            write_network(net, handle)
        return
    payload = network_to_dict(net)
    edges = payload.pop("edges")
    head = json.dumps(payload, indent=2)[: -len("\n}")]
    if edges:
        body = "[\n" + ",\n".join(_EDGE % tuple(e) for e in edges) + "\n  ]"
    else:
        body = "[]"
    target.write(f'{head},\n  "edges": {body}\n}}\n')


def read_json(source: str | Path | IO[str], parse: Callable[[dict], _T]) -> _T:
    """``parse`` of the payload of a saved network or report, from a UTF-8
    file or a stream; where ``source`` is a path, every error names it."""
    if not isinstance(source, (str, Path)):
        try:
            payload = json.load(source)
        except json.JSONDecodeError as exc:
            raise NetworkFormatError(f"invalid JSON: {exc}") from None
        return parse(payload)
    try:
        with open(source, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except UnicodeDecodeError as exc:
        raise NetworkFormatError(f"{source} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"{source}: invalid JSON: {exc}") from None
    try:
        return parse(payload)
    except RiskNetError as exc:
        raise type(exc)(f"{source}: {exc}") from None


def read_network(source: str | Path | IO[str]) -> RiskNetwork:
    return read_json(source, network_from_dict)
