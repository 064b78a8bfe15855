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
inverse made of matrix products.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedNetworkError, NumericalError
from .network import RiskNetwork

__all__ = [
    "LaplacianSpectrum",
    "RemovalImpacts",
    "spectrum",
    "normalized_kirchhoff",
    "connected_components",
    "largest_component",
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


def spectrum(laplacian: np.ndarray) -> LaplacianSpectrum:
    """Eigenvalues of a symmetric weighted Laplacian, sorted descending.

    The input must be square, symmetric and have zero row sums within a
    tolerance relative to its largest entry, or ``ValueError`` is raised.
    Components come from the off-diagonal nonzero pattern, for L = S - W
    exactly the positive weights, so no eigenvalue cutoff decides
    connectivity. Eigenvalues below ``-NEGATIVE_TOL * max(1, largest
    eigenvalue)`` mean the input was not a Laplacian (or the solver
    failed) and raise.
    """
    laplacian = np.asarray(laplacian, dtype=float)
    if laplacian.ndim != 2 or laplacian.shape[0] != laplacian.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {laplacian.shape}")
    scale = max(1.0, float(np.abs(laplacian).max())) if laplacian.size else 1.0
    if not np.allclose(laplacian, laplacian.T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError("Laplacian must be symmetric")
    if laplacian.size and float(np.abs(laplacian.sum(axis=1)).max()) > 1e-8 * scale:
        raise ValueError("Laplacian rows must sum to zero")
    # self-loops change no component; both triangles keep components disjoint
    labels = _labels((laplacian != 0) | (laplacian.T != 0))
    sizes = tuple(np.unique(labels, return_counts=True)[1].tolist())
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


def normalized_kirchhoff(kirchhoff: float, n: int) -> float:
    """Kirchhoff index per vertex pair: K / C(n, 2)."""
    if n < 2:
        raise ValueError(f"need at least two vertices, got {n}")
    return kirchhoff / math.comb(n, 2)


def connected_components(net: RiskNetwork) -> tuple[tuple[int, ...], ...]:
    """Vertex index sets of the components of the positive weights, each
    sorted, ordered by their smallest vertex."""
    (labels,) = _labels(net.adjacency)
    # the labels are vertices: bincount, unlike np.unique, loads no numpy.ma
    starts = np.flatnonzero(np.bincount(labels))
    return tuple(tuple(np.flatnonzero(labels == s).tolist()) for s in starts)


def _labels(adjacency: np.ndarray, removals: bool = False) -> np.ndarray:
    """The smallest vertex of each vertex's component of a symmetric boolean
    adjacency matrix, in one row for the whole graph, or with ``removals``
    in row i for the graph without vertex i, marked -1. Each round grows the
    component of every row's smallest unlabelled vertex, a frontier a step."""
    n = adjacency.shape[0]
    steps = adjacency.astype(float)
    rows = np.arange(n if removals else 1)
    labels = np.full((rows.size, n), n)
    if removals:
        labels[rows, rows] = -1
    while (unlabelled := labels == n).any():
        start = unlabelled.argmax(axis=1)
        frontier = np.zeros_like(unlabelled)
        frontier[rows, start] = unlabelled.any(axis=1)
        reached = frontier | ~unlabelled
        while frontier.any():
            frontier = (frontier @ steps > 0.0) & ~reached
            reached |= frontier
        labels = np.where(reached & unlabelled, start[:, None], labels)
    return labels


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

    Requires a connected network with at least three vertices. The one
    search decides that too: the two or more leaves of any spanning tree
    of a connected network cut nothing, while a network in pieces has at
    most one such vertex, a lone isolated one beside a connected rest.
    """
    n = net.n
    if n < 3:
        raise ValueError(f"need at least three vertices, got {n}")
    labels = _labels(net.adjacency, removals=True)
    # a cut leaves a survivor labelled above the first survivor: 1 without 0, else 0
    cut = labels.max(axis=1) > (np.arange(n) == 0)
    if np.count_nonzero(~cut) < 2:
        raise DisconnectedNetworkError(
            f"window {net.label}: removal impact needs a connected network"
        )
    laplacian = np.diag(net.strengths) - net.weights
    ground, second = np.argsort(-np.diagonal(laplacian), kind="stable")[:2]
    kirchhoff = float(_grounded_kirchhoff(_without(laplacian, ground)[None], n)[0])
    if math.isnan(kirchhoff):
        raise NumericalError(
            f"window {net.label}: the resistance of a connected network of "
            f"order {n} is too small to resolve"
        )
    reduced = np.full(n, math.inf)
    solved = np.flatnonzero(~cut & (np.arange(n) != ground))
    reduced[solved] = _removal_kirchhoff(laplacian, ground, solved)
    if not cut[ground]:
        reduced[ground] = _removal_kirchhoff(laplacian, second, np.array([ground]))[0]
    unresolved = np.flatnonzero(np.isnan(reduced))
    if unresolved.size:
        raise NumericalError(
            f"window {net.label}: the resistance of the network without "
            f"{net.firms[unresolved[0]]} is too small to resolve"
        )
    base = normalized_kirchhoff(kirchhoff, n)
    impacts = (reduced / math.comb(n - 1, 2) - base) / base
    surviving = tuple(
        int(np.bincount(row[row >= 0]).max()) if cut_here else None
        for row, cut_here in zip(labels, cut)
    )
    return RemovalImpacts(kirchhoff, impacts, surviving)


# Bytes of the removal matrices inverted by one call: a fixed budget, so
# peak memory does not grow with the number of removals.
_STACK_BYTES = 1 << 20


def _without(matrix: np.ndarray, vertex: int) -> np.ndarray:
    """The matrix with the row and column of ``vertex`` deleted."""
    keep = np.arange(matrix.shape[0]) != vertex
    return matrix[np.ix_(keep, keep)]


def _removal_kirchhoff(laplacian: np.ndarray, ground: int, removed: np.ndarray) -> np.ndarray:
    """Kirchhoff index of the network without each vertex of ``removed``
    in turn (none of them ``ground`` or a cut vertex), NaN where it cannot
    be resolved; each removal is a copy of the matrix grounded at
    ``ground`` with a placeholder diagonal entry for the removed vertex."""
    grounded = _without(laplacian, ground)
    order = grounded.shape[0]  # the survivors per removal; the placeholder keeps it
    placeholder = float(grounded.diagonal().max())
    to_ground = -np.delete(laplacian[ground], ground)
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
    """Invert a C-contiguous stack of lower-triangular matrices with
    nonzero diagonals in place, and return it.

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
            leading, trailing, corner = (
                np.ndarray(shape, factor.dtype, factor, offset, strides)
                for offset in (0, size * (row + col), size * row)
            )
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
