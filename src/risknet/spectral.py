"""Spectral robustness of weighted networks.

The weighted Laplacian of a network with weight matrix W and strength
diagonal S is L = S - W. Its eigenvalues are non-negative, the multiplicity
of 0 equals the number of connected components, and for a connected network
of order n the total effective resistance between all vertex pairs equals

    K = n * sum(1 / mu)

over the n - 1 positive eigenvalues. K falls (weakly) when any weight
grows, so lower K means a better-connected, more robust network. Dividing
by the number of pairs, K_N = K / C(n, 2), makes networks of different
orders comparable.

A vertex's robustness impact is the relative change of K_N when the vertex
is removed: positive when the network relies on the vertex, negative when
the vertex was a net burden, and +inf when its removal disconnects the
survivors (infinite resistance between separated pairs).

``effective_resistance_oracle`` recomputes K from the Laplacian
pseudo-inverse by literally summing pairwise resistances; it shares no code
with the eigenvalue route and exists to cross-check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedNetworkError, NumericalError
from .network import RiskNetwork

__all__ = [
    "LaplacianSpectrum",
    "RobustnessReport",
    "weighted_laplacian",
    "spectrum",
    "kirchhoff_index",
    "normalized_kirchhoff",
    "effective_resistance_oracle",
    "connected_components",
    "largest_component",
    "remove_vertex",
    "werc",
    "werc_all",
    "barrat_clustering",
]

ZERO_TOL = 1e-10


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Eigenvalues of a weighted Laplacian, largest first.

    ``zero_multiplicity`` counts eigenvalues whose magnitude falls below
    ``threshold`` (the relative-absolute cutoff actually applied); it
    equals the number of connected components.
    """

    eigenvalues: np.ndarray
    zero_multiplicity: int
    threshold: float

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def connected(self) -> bool:
        return self.zero_multiplicity == 1


@dataclass(frozen=True)
class RobustnessReport:
    """Per-window robustness summary produced by the pipeline."""

    window_id: int
    label: str
    firms: tuple[str, ...]
    analyzed_firms: tuple[str, ...]
    component_note: str | None
    density: float
    kirchhoff: float
    normalized_kirchhoff: float
    werc: tuple[float, ...]
    clustering: tuple[float, ...]
    strength: tuple[float, ...]
    surviving_order: tuple[int | None, ...]

    def __post_init__(self) -> None:
        values = (self.kirchhoff, self.normalized_kirchhoff, *self.werc)
        if any(math.isnan(v) for v in values):
            raise NumericalError(
                f"window {self.label}: NaN in Kirchhoff index or removal impacts"
            )


def weighted_laplacian(net: RiskNetwork) -> np.ndarray:
    """L = S - W with S the diagonal of vertex strengths."""
    w = net.weights
    return np.diag(w.sum(axis=1)) - w


def spectrum(laplacian: np.ndarray, *, tol: float = ZERO_TOL) -> LaplacianSpectrum:
    """Eigenvalues of a symmetric weighted Laplacian, sorted descending.

    The zero cutoff is ``tol * max(1, largest eigenvalue)``: with weights
    in [0, 1] the absolute and relative readings agree to within an order
    of magnitude, and the structural zero sits many orders below any true
    positive eigenvalue. Eigenvalues below the negated cutoff mean the
    input was not a Laplacian (or the solver failed) and raise.
    """
    laplacian = np.asarray(laplacian, dtype=float)
    if laplacian.ndim != 2 or laplacian.shape[0] != laplacian.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {laplacian.shape}")
    scale = max(1.0, float(np.abs(laplacian).max())) if laplacian.size else 1.0
    if not np.allclose(laplacian, laplacian.T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError("Laplacian must be symmetric")
    row_sums = laplacian.sum(axis=1)
    if laplacian.size and float(np.abs(row_sums).max()) > 1e-8 * scale:
        raise ValueError("Laplacian rows must sum to zero")
    try:
        values = np.linalg.eigvalsh(laplacian)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed on {laplacian.shape[0]}x{laplacian.shape[1]} "
            f"Laplacian (scale {scale:g}): {exc}"
        ) from None
    values = values[::-1].copy()
    threshold = tol * max(1.0, float(values[0]) if values.size else 0.0)
    if values.size and float(values[-1]) < -threshold:
        raise NumericalError(
            f"negative eigenvalue {values[-1]} beyond tolerance {threshold:g}"
        )
    zero_multiplicity = int(np.count_nonzero(np.abs(values) < threshold))
    return LaplacianSpectrum(
        eigenvalues=values, zero_multiplicity=zero_multiplicity, threshold=threshold
    )


def kirchhoff_index(spec: LaplacianSpectrum) -> float:
    """Total effective resistance n * sum(1 / mu) over positive eigenvalues.

    Returns ``inf`` when the zero eigenvalue is not simple: a disconnected
    network has infinite resistance between separated pairs. Callers that
    must not see ``inf`` should restrict to a component first.
    """
    if not spec.connected:
        return math.inf
    positive = spec.eigenvalues[: spec.n - spec.zero_multiplicity]
    return float(spec.n * np.sum(1.0 / positive)) if positive.size else 0.0


def normalized_kirchhoff(kirchhoff: float, n: int) -> float:
    """Kirchhoff index per vertex pair: K / C(n, 2)."""
    if n < 2:
        raise ValueError(f"need at least two vertices, got {n}")
    return kirchhoff / math.comb(n, 2)


def effective_resistance_oracle(net: RiskNetwork) -> float:
    """Kirchhoff index by summing pairwise effective resistances.

    Uses the Moore-Penrose pseudo-inverse of the Laplacian: the resistance
    between i and j is P[i, i] + P[j, j] - 2 P[i, j]. For a connected
    network P = inv(L + J / n) - J / n with J the all-ones matrix, which
    needs no eigenvalue cutoff, so the oracle stays independent of the
    eigenvalue route; quadratic in the number of pairs, meant for
    cross-checks on small networks.
    """
    if len(connected_components(net)) != 1:
        raise DisconnectedNetworkError(
            f"window {net.label}: effective resistance is infinite across components"
        )
    shift = np.full((net.n, net.n), 1.0 / net.n)
    try:
        pinv = np.linalg.inv(weighted_laplacian(net) + shift) - shift
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pseudo-inverse failed: {exc}") from None
    total = 0.0
    for i in range(net.n):
        for j in range(i + 1, net.n):
            total += pinv[i, i] + pinv[j, j] - 2.0 * pinv[i, j]
    return float(total)


def connected_components(net: RiskNetwork) -> tuple[tuple[int, ...], ...]:
    """Vertex index sets of the components, each sorted, ordered by their
    smallest vertex."""
    n = net.n
    adjacency = net.adjacency
    seen = np.zeros(n, dtype=bool)
    components: list[tuple[int, ...]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = [start]
        while stack:
            v = stack.pop()
            for u in np.flatnonzero(adjacency[v]):
                if not seen[u]:
                    seen[u] = True
                    stack.append(int(u))
                    members.append(int(u))
        components.append(tuple(sorted(members)))
    return tuple(components)


def largest_component(net: RiskNetwork) -> RiskNetwork:
    """Restriction of the network to its largest component (ties broken by
    the lexicographically smallest firm set), vertex order preserved."""
    components = connected_components(net)
    top = max(len(comp) for comp in components)
    best = min(
        (comp for comp in components if len(comp) == top),
        key=lambda comp: tuple(sorted(net.firms[i] for i in comp)),
    )
    return _induced(net, best)


def _induced(net: RiskNetwork, vertices: tuple[int, ...]) -> RiskNetwork:
    idx = np.array(sorted(vertices), dtype=int)
    return RiskNetwork(
        window_id=net.window_id,
        label=net.label,
        firms=tuple(net.firms[i] for i in idx),
        weights=net.weights[np.ix_(idx, idx)].copy(),
    )


def remove_vertex(net: RiskNetwork, vertex: int) -> RiskNetwork:
    """Network with one vertex (and its edges) removed."""
    if not 0 <= vertex < net.n:
        raise ValueError(f"vertex {vertex} out of range for order {net.n}")
    keep = tuple(i for i in range(net.n) if i != vertex)
    return _induced(net, keep)


def werc(net: RiskNetwork, vertex: int) -> float:
    """Relative change of the normalized Kirchhoff index when ``vertex``
    is removed.

    Requires a connected network with at least three vertices. Returns
    ``inf`` when the removal disconnects the survivors.
    """
    if net.n < 3:
        raise ValueError(f"need at least three vertices, got {net.n}")
    if not 0 <= vertex < net.n:
        raise ValueError(f"vertex {vertex} out of range for order {net.n}")
    if len(connected_components(net)) != 1:
        raise DisconnectedNetworkError(
            f"window {net.label}: removal impact needs a connected network"
        )
    base = normalized_kirchhoff(
        kirchhoff_index(spectrum(weighted_laplacian(net))), net.n
    )
    return _werc_from_base(net, vertex, base)


def _werc_from_base(net: RiskNetwork, vertex: int, base: float) -> float:
    reduced = remove_vertex(net, vertex)
    k_reduced = kirchhoff_index(spectrum(weighted_laplacian(reduced)))
    if math.isinf(k_reduced):
        return math.inf
    return (normalized_kirchhoff(k_reduced, reduced.n) - base) / base


def werc_all(net: RiskNetwork) -> np.ndarray:
    """Removal impact of every vertex, aligned with ``net.firms``."""
    if net.n < 3:
        raise ValueError(f"need at least three vertices, got {net.n}")
    if len(connected_components(net)) != 1:
        raise DisconnectedNetworkError(
            f"window {net.label}: removal impact needs a connected network"
        )
    base = normalized_kirchhoff(
        kirchhoff_index(spectrum(weighted_laplacian(net))), net.n
    )
    return np.array([_werc_from_base(net, i, base) for i in range(net.n)])


def barrat_clustering(net: RiskNetwork, vertex: int) -> float:
    """Weighted clustering coefficient of one vertex.

    Averages, over ordered neighbour pairs that close a triangle, the mean
    of the two edge weights incident to the vertex, normalized by strength
    times (degree - 1). Vertices with fewer than two neighbours get 0. On
    a 0/1-weighted network this reduces to the binary clustering
    coefficient, and it always lies in [0, 1].
    """
    if not 0 <= vertex < net.n:
        raise ValueError(f"vertex {vertex} out of range for order {net.n}")
    adjacency = net.adjacency
    neighbours = np.flatnonzero(adjacency[vertex])
    k = neighbours.size
    if k <= 1:
        return 0.0
    sub = adjacency[np.ix_(neighbours, neighbours)]
    incident = net.weights[vertex, neighbours]
    pair_sum = float((sub.sum(axis=1) * incident).sum())
    strength = float(net.weights[vertex].sum())
    # numerator and denominator sum the same terms in different orders, so
    # round-off can poke a hair past 1; the true value cannot
    return min(1.0, pair_sum / (strength * (k - 1)))
