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

The same K needs no spectrum: with M the inverse of L grounded at any one
vertex (its row and column deleted), K = n * tr(M) - 1'M1 (Klein and
Randic, "Resistance distance", 1993). ``werc_all`` takes that route for a
network and all its removals, without forming M: with C the Cholesky
factor of the grounded matrix, M = C^-T C^-1, so tr(M) is the sum of the
squares of C^-1 and 1'M1 = |C^-1 1|^2, and C^-1 comes from a triangular
inverse made of matrix products. ``spectrum`` with ``kirchhoff_index``
and ``effective_resistance_oracle`` are independent routes that check it.

Connectivity is decided by the positive weights alone, however small; the
solvers only measure resistance. A network its positive weights connect
gets a finite K, or a ``NumericalError`` when the smallest eigenvalue it
depends on (the smallest positive one of L, or the smallest of the
grounded matrix) cannot be told from the solver's rounding error.

A vertex's robustness impact is the relative change of K_N when the vertex
is removed: positive when the network relies on the vertex, negative when
the vertex was a net burden, and +inf when its removal disconnects the
survivors (infinite resistance between separated pairs). ``werc_all``
returns K, every impact and the surviving component orders from one pass.

``effective_resistance_oracle`` recomputes K from the Laplacian
pseudo-inverse by literally summing pairwise resistances; it shares no
solver with the other two routes and exists to cross-check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DisconnectedNetworkError, NumericalError
from .network import RiskNetwork

__all__ = [
    "LaplacianSpectrum",
    "RobustnessReport",
    "RemovalImpacts",
    "weighted_laplacian",
    "spectrum",
    "kirchhoff_index",
    "normalized_kirchhoff",
    "effective_resistance_oracle",
    "connected_components",
    "largest_component",
    "werc",
    "werc_all",
    "barrat_clustering",
    "barrat_clustering_all",
]

NEGATIVE_TOL = 1e-10


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Eigenvalues of a weighted Laplacian, largest first, and the sizes of
    the components of its positive weights, ordered by smallest vertex;
    ``zero_multiplicity`` counts those components, not small eigenvalues.
    """

    eigenvalues: np.ndarray
    component_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def zero_multiplicity(self) -> int:
        return len(self.component_sizes)

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
        """Refuse what no analyzed window yields: NaN, a non-finite density,
        Kirchhoff index, clustering or strength, and a removal impact that
        is -inf or disagrees with its surviving order (an integer, not a
        bool, exactly where the impact is +inf)."""
        values = (self.kirchhoff, self.normalized_kirchhoff, *self.werc)
        if any(math.isnan(v) for v in values):
            raise NumericalError(
                f"window {self.label}: NaN in Kirchhoff index or removal impacts"
            )
        finite = (
            self.density, self.kirchhoff, self.normalized_kirchhoff,
            *self.clustering, *self.strength,
        )
        if not all(map(math.isfinite, finite)):
            raise NumericalError(
                f"window {self.label}: non-finite density, Kirchhoff index, "
                "clustering or strength"
            )
        for firm, impact, order in zip(self.analyzed_firms, self.werc, self.surviving_order):
            if impact == -math.inf or (impact == math.inf) != (type(order) is int):
                raise NumericalError(
                    f"window {self.label}: firm {firm} has removal impact {impact} "
                    f"with surviving order {order}"
                )


def weighted_laplacian(net: RiskNetwork) -> np.ndarray:
    """L = S - W with S the diagonal of vertex strengths."""
    w = net.weights
    return np.diag(w.sum(axis=1)) - w


def spectrum(laplacian: np.ndarray) -> LaplacianSpectrum:
    """Eigenvalues of a symmetric weighted Laplacian, sorted descending.

    The component sizes come from the off-diagonal nonzero pattern, which
    for L = S - W is exactly the positive weights, so no eigenvalue cutoff
    decides connectivity. Eigenvalues below
    ``-NEGATIVE_TOL * max(1, largest eigenvalue)`` mean the input was not a
    Laplacian (or the solver failed) and raise.
    """
    laplacian = np.asarray(laplacian, dtype=float)
    scale = _check_laplacian(laplacian)
    # self-loops change no component; both triangles keep components disjoint
    sizes = tuple(c.size for c in _components((laplacian != 0) | (laplacian.T != 0)))
    try:
        values = np.linalg.eigvalsh(laplacian)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed on {laplacian.shape[0]}x{laplacian.shape[1]} "
            f"Laplacian (scale {scale:g}): {exc}"
        ) from None
    values = values[::-1].copy()
    threshold = NEGATIVE_TOL * max(1.0, float(values[0]) if values.size else 0.0)
    if values.size and float(values[-1]) < -threshold:
        raise NumericalError(
            f"negative eigenvalue {values[-1]} beyond tolerance {threshold:g}"
        )
    return LaplacianSpectrum(eigenvalues=values, component_sizes=sizes)


def _check_laplacian(laplacian: np.ndarray) -> float:
    """Raise unless the matrix is square, symmetric and has zero row sums,
    each within a tolerance relative to its largest entry; return that
    scale (at least 1)."""
    if laplacian.ndim != 2 or laplacian.shape[0] != laplacian.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {laplacian.shape}")
    scale = max(1.0, float(np.abs(laplacian).max())) if laplacian.size else 1.0
    if not np.allclose(laplacian, laplacian.T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError("Laplacian must be symmetric")
    row_sums = laplacian.sum(axis=1)
    if laplacian.size and float(np.abs(row_sums).max()) > 1e-8 * scale:
        raise ValueError("Laplacian rows must sum to zero")
    return scale


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


def normalized_kirchhoff(kirchhoff: float, n: int) -> float:
    """Kirchhoff index per vertex pair: K / C(n, 2)."""
    if n < 2:
        raise ValueError(f"need at least two vertices, got {n}")
    return kirchhoff / math.comb(n, 2)


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


def connected_components(net: RiskNetwork) -> tuple[tuple[int, ...], ...]:
    """Vertex index sets of the components of the positive weights, each
    sorted, ordered by their smallest vertex."""
    return tuple(tuple(members.tolist()) for members in _components(net.adjacency))


def _components(adjacency: np.ndarray) -> list[np.ndarray]:
    """Components of a symmetric boolean adjacency matrix as sorted index
    arrays, ordered by their smallest vertex; each grows one whole frontier
    (the non-members adjacent to the last frontier) per step."""
    unseen = np.ones(adjacency.shape[0], dtype=bool)
    components: list[np.ndarray] = []
    while unseen.any():
        member = np.zeros_like(unseen)
        member[int(unseen.argmax())] = True
        frontier = member
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~member
            member |= frontier
        unseen &= ~member
        components.append(np.flatnonzero(member))
    return components


def largest_component(net: RiskNetwork) -> RiskNetwork:
    """Restriction of the network to its largest component (ties broken by
    the lexicographically smallest firm set), vertex order preserved; a
    network with at most one component is returned as it is."""
    components = connected_components(net)
    if len(components) <= 1:
        return net
    best = min(
        components, key=lambda comp: (-len(comp), sorted(net.firms[i] for i in comp))
    )
    return RiskNetwork(
        window_id=net.window_id,
        label=net.label,
        firms=tuple(net.firms[i] for i in best),
        weights=net.weights[np.ix_(best, best)],
    )


def werc(net: RiskNetwork, vertex: int) -> float:
    """Relative change of the normalized Kirchhoff index when ``vertex``
    is removed: entry ``vertex`` of :func:`werc_all`."""
    if not 0 <= vertex < net.n:
        raise ValueError(f"vertex {vertex} out of range for order {net.n}")
    return float(werc_all(net).impacts[vertex])


@dataclass(frozen=True)
class RemovalImpacts:
    """A network's Kirchhoff index, the removal impact of every vertex
    aligned with its firms, and where a removal disconnects the survivors
    the order of their largest component (``None`` elsewhere)."""

    kirchhoff: float
    impacts: np.ndarray
    surviving_order: tuple[int | None, ...]


def werc_all(net: RiskNetwork) -> RemovalImpacts:
    """One removal pass by grounded inverses, with no eigendecomposition.

    For a connected Laplacian of order m grounded at one vertex (that row
    and column deleted), with M the inverse of the grounded matrix,

        K = m * tr(M) - 1'M1.

    The network is grounded at its strongest vertex (lowest index on
    ties). Each removal's matrix is a copy of the grounded matrix with
    the removed vertex's row and column replaced by one placeholder
    diagonal entry p (the largest diagonal entry), whose 1 / p is taken
    out of the trace and the sum again, and the survivors' strengths
    summed afresh on the diagonal. Removals are factored in stacks of at
    most ``_STACK_BYTES`` (9 matrices at order 120), one
    ``np.linalg.cholesky`` call per stack, and each triangular factor is
    inverted in place; no LU inverse is formed. The removal of the
    strongest vertex is grounded at the second strongest, in its own
    solve. Cut vertices come from one batched search and are not solved:
    their impact is ``inf``.

    M is entrywise non-negative, so its largest row sum bounds its norm.
    A factorization that fails (rounding left the matrix not positive
    definite), a K that is not finite and positive, or one over that
    bound not above m * eps * (largest diagonal entry of the grounded
    matrix) is refused with ``NumericalError``: that resistance is too
    small to resolve.

    Requires a connected network with at least three vertices.
    """
    n = net.n
    if n < 3:
        raise ValueError(f"need at least three vertices, got {n}")
    adjacency = net.adjacency
    if len(_components(adjacency)) != 1:
        raise DisconnectedNetworkError(
            f"window {net.label}: removal impact needs a connected network"
        )
    laplacian = weighted_laplacian(net)
    _check_laplacian(laplacian)
    ground, second = np.argsort(-np.diagonal(laplacian), kind="stable")[:2]
    kirchhoff = float(_grounded_kirchhoff(_without(laplacian, ground)[None], n)[0])
    if math.isnan(kirchhoff):
        raise NumericalError(
            f"window {net.label}: the resistance of a connected network of "
            f"order {n} is too small to resolve"
        )
    cut = _cut_vertices(adjacency)
    reduced = np.full(n, math.inf)
    solved = np.flatnonzero(~cut & (np.arange(n) != ground))
    reduced[solved] = _removal_kirchhoff(laplacian, net.weights, ground, solved)
    if not cut[ground]:
        reduced[ground] = _removal_kirchhoff(
            laplacian, net.weights, second, np.array([ground])
        )[0]
    unresolved = np.flatnonzero(np.isnan(reduced))
    if unresolved.size:
        raise NumericalError(
            f"window {net.label}: the resistance of the network without "
            f"{net.firms[unresolved[0]]} is too small to resolve"
        )
    base = normalized_kirchhoff(kirchhoff, n)
    impacts = (reduced / math.comb(n - 1, 2) - base) / base
    surviving = tuple(
        max(c.size for c in _components(_without(adjacency, i))) if cut[i] else None
        for i in range(n)
    )
    return RemovalImpacts(kirchhoff, impacts, surviving)


# Bytes of the removal matrices inverted by one call: a fixed budget, so
# peak memory does not grow with the number of removals.
_STACK_BYTES = 1 << 20


def _without(matrix: np.ndarray, vertex: int) -> np.ndarray:
    """The matrix with the row and column of ``vertex`` deleted."""
    keep = np.arange(matrix.shape[0]) != vertex
    return matrix[np.ix_(keep, keep)]


def _removal_kirchhoff(
    laplacian: np.ndarray, weights: np.ndarray, ground: int, removed: np.ndarray
) -> np.ndarray:
    """Kirchhoff index of the network without each vertex of ``removed``
    in turn (none of them ``ground`` or a cut vertex), NaN where it cannot
    be resolved; each removal is a copy of the matrix grounded at
    ``ground`` with a placeholder diagonal entry for the removed vertex."""
    grounded = _without(laplacian, ground)
    order = grounded.shape[0]  # the survivors per removal; the placeholder keeps it
    placeholder = float(grounded.diagonal().max())
    to_ground = np.delete(weights[ground], ground)
    position = removed - (removed > ground)
    buffer = np.empty((max(1, _STACK_BYTES // grounded.nbytes), order, order))
    kirchhoff = np.empty(removed.size)
    for start in range(0, removed.size, len(buffer)):
        part = slice(start, start + len(buffer))
        at = position[part]
        slots = np.arange(at.size)
        stack = buffer[: at.size]
        stack[...] = grounded
        stack[slots, at, :] = 0.0
        stack[slots, :, at] = 0.0
        # the survivors' strengths summed afresh from zero: taking the
        # removed vertex's weights off the base strengths would cancel digits
        diagonal = stack.reshape(at.size, -1)[:, :: order + 1]
        diagonal[...] = 0.0
        diagonal[...] = to_ground - stack.sum(axis=2)
        stack[slots, at, at] = placeholder
        kirchhoff[part] = _grounded_kirchhoff(stack, order, placeholder)
    return kirchhoff


def _grounded_kirchhoff(
    stack: np.ndarray, order: int, placeholder: float | None = None
) -> np.ndarray:
    """order * tr(M) - 1'M1 for the inverse M of each matrix in the stack,
    a Laplacian of a network of that order grounded at one vertex, less
    1 / ``placeholder`` in the trace and the sum when each matrix holds
    that placeholder entry instead; NaN where the factorization fails or
    the resistance is not resolvable.

    With C the Cholesky factor, M = C^-T C^-1, so tr(M) is the sum of
    squares of C^-1, 1'M1 = |C^-1 1|^2, and the row sums
    M 1 = C^-T (C^-1 1) come from one more matrix-vector product.
    """
    try:
        factor = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return np.array([math.nan])
        return np.concatenate(
            [_grounded_kirchhoff(matrix[None], order, placeholder) for matrix in stack]
        )
    spare = 0.0 if placeholder is None else 1.0 / placeholder
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = _invert_lower(factor)
        ones = inverse.sum(axis=2)
        rows = np.matmul(ones[:, None, :], inverse)[:, 0]
        trace = np.square(inverse, out=inverse).sum(axis=(1, 2)) - spare
        kirchhoff = order * trace - (np.square(ones).sum(axis=1) - spare)
        top = stack.diagonal(axis1=1, axis2=2).max(axis=1)
        resolved = rows.max(axis=1) * (order * np.finfo(float).eps * top) < 1.0
    resolved &= np.isfinite(kirchhoff) & (kirchhoff > 0.0)
    return np.where(resolved, kirchhoff, math.nan)


def _invert_lower(factor: np.ndarray) -> np.ndarray:
    """Invert a stack of lower-triangular matrices with nonzero diagonals
    in place, and return it.

    The diagonal entries are inverted first. Then, with the inverses of
    the diagonal blocks of size s in hand, each pair of neighbouring
    blocks [[A, 0], [B, D]] becomes the inverse of one block of size 2 s
    by B <- -D^-1 B A^-1, for s = 1, 2, 4, ... The pairs of full blocks
    go through one strided view per level; where the order is not a
    multiple of 2 s, a last pair with a shorter D gets its own product,
    and a lone last block waits for the next level.
    """
    count, order, _ = factor.shape
    diagonal = factor.reshape(count, -1)[:, :: order + 1]
    np.reciprocal(diagonal, out=diagonal)
    step, row, col = factor.strides
    size = 1
    while size < order:
        pairs = order // (2 * size)
        if pairs:
            shape = (count, pairs, size, size)
            strides = (step, 2 * size * (row + col), row, col)
            leading = as_strided(factor, shape, strides)
            trailing = as_strided(factor[:, size:, size:], shape, strides)
            corner = as_strided(factor[:, size:, :], shape, strides)
            _pair_inverse(leading, trailing, corner)
        start = 2 * size * pairs
        if order - start > size:
            middle = start + size
            _pair_inverse(
                factor[:, start:middle, start:middle],
                factor[:, middle:, middle:],
                factor[:, middle:, start:middle],
            )
        size *= 2
    return factor


def _pair_inverse(leading: np.ndarray, trailing: np.ndarray, corner: np.ndarray) -> None:
    """corner <- -trailing @ corner @ leading, in place: the off-diagonal
    block of an inverse from the inverted diagonal blocks."""
    product = np.matmul(trailing, corner)
    np.negative(product, out=product)
    np.matmul(product, leading, out=corner)


def _cut_vertices(adjacency: np.ndarray) -> np.ndarray:
    """Whether removing each vertex disconnects a connected graph of at
    least two vertices: row i of ``reached`` grows from one survivor by a
    whole frontier per step, with vertex i masked out."""
    n = adjacency.shape[0]
    steps = adjacency.astype(float)
    rows = np.arange(n)
    frontier = np.zeros((n, n), dtype=bool)
    frontier[rows, (rows == 0).astype(int)] = True  # start at 0, or at 1 without 0
    reached = frontier | np.eye(n, dtype=bool)  # the removed vertex is never entered
    while frontier.any():
        frontier = (frontier @ steps > 0.0) & ~reached
        reached |= frontier
    return ~reached.all(axis=1)


def barrat_clustering(net: RiskNetwork, vertex: int) -> float:
    """Weighted clustering coefficient of one vertex: entry ``vertex`` of
    :func:`barrat_clustering_all`."""
    if not 0 <= vertex < net.n:
        raise ValueError(f"vertex {vertex} out of range for order {net.n}")
    return float(barrat_clustering_all(net)[vertex])


def barrat_clustering_all(net: RiskNetwork) -> np.ndarray:
    """Weighted clustering coefficient of every vertex (Barrat et al.,
    PNAS 2004).

    Averages, over ordered neighbour pairs that close a triangle, the mean
    of the two edge weights incident to the vertex, normalized by strength
    times (degree - 1). Vertices with fewer than two neighbours get 0. On
    a 0/1-weighted network this reduces to the binary clustering
    coefficient, and it always lies in [0, 1].

    One product A @ A of the 0/1 adjacency counts the common neighbours of
    every pair; the counts are small integers, so the float product is
    exact. Each vertex then sums count times incident weight over its own
    neighbours alone, in index order.
    """
    adjacency = net.adjacency
    binary = adjacency.astype(float)
    terms = (binary @ binary) * net.weights
    degree = adjacency.sum(axis=1)
    pair_sum = np.array([terms[v, adjacency[v]].sum() for v in range(net.n)])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = pair_sum / (net.strengths * (degree - 1))
    # numerator and denominator sum the same terms in different orders, so
    # round-off can poke a hair past 1; the true value cannot
    return np.where(degree > 1, np.minimum(1.0, ratio), 0.0)
