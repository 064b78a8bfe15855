"""One definition of "connected": the components of the positive weights.

The vectorized component routine, the spectrum's zero multiplicity, the
removal impacts and the surviving component orders are checked against a
plain breadth-first search on random graphs whose weights span twelve
orders of magnitude, and the eigenvalue route is shown to raise, not to
return ``inf`` or NaN, when it cannot resolve a connected network.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphgen import bfs_components, cut_vertices, from_weights
from oracles import kirchhoff_index, weighted_laplacian
from risknet.errors import NumericalError
from risknet.pipeline import window_report
from risknet.spectral import (
    LaplacianSpectrum,
    connected_components,
    spectrum,
    werc_all,
)


@st.composite
def weight_matrices(draw) -> np.ndarray:
    """Symmetric weights on 3..10 vertices: each pair present or not, a
    present weight log-uniform in [1e-12, 1]; empty and disconnected
    graphs included."""
    n = draw(st.integers(3, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    exponents = draw(
        st.lists(st.floats(-12.0, 0.0), min_size=len(pairs), max_size=len(pairs))
    )
    w = np.zeros((n, n))
    for (i, j), on, exponent in zip(pairs, present, exponents):
        if on:
            w[i, j] = w[j, i] = 10.0**exponent
    return w


def edge_weights(n: int, edges) -> np.ndarray:
    """Symmetric weights on n vertices: 0.5 on each of the edges, else 0."""
    w = np.zeros((n, n))
    for i, j in edges:
        w[i, j] = w[j, i] = 0.5
    return w


@settings(max_examples=300, derandomize=True, deadline=None)
@given(weight_matrices())
# beyond the drawn orders: a star whose centre's removal leaves 11 pieces,
# two triangles joined at the cut vertex 0, and a path of order 12
@example(edge_weights(12, [(0, v) for v in range(1, 12)]))
@example(edge_weights(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]))
@example(edge_weights(12, [(v, v + 1) for v in range(11)]))
def test_components_spectrum_and_cut_vertices_match_search(w):
    net = from_weights(w)
    expected = bfs_components(w)
    assert connected_components(net) == expected
    assert spectrum(weighted_laplacian(net)).zero_multiplicity == len(expected)
    if len(expected) == 1:
        removal = werc_all(net)
        assert not np.isnan(removal.impacts).any()
        cuts = cut_vertices(w)
        assert set(np.flatnonzero(np.isinf(removal.impacts)).tolist()) == set(cuts)
        assert removal.surviving_order == tuple(cuts.get(v) for v in range(net.n))


def test_components_of_empty_and_isolated_vertices():
    assert connected_components(from_weights(np.zeros((0, 0)))) == ()
    assert connected_components(from_weights(np.zeros((3, 3)))) == ((0,), (1,), (2,))
    w = np.zeros((5, 5))
    w[4, 1] = w[1, 4] = 1e-300
    w[3, 0] = w[0, 3] = 0.5
    assert connected_components(from_weights(w)) == ((0, 3), (1, 4), (2,))


def dense_with_pendant(seed: int, n: int = 30, eps: float = 1e-20) -> np.ndarray:
    """A complete graph on n vertices, weights uniform in [0.1, 1], plus
    vertex n hung from a random vertex by a weight of eps."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n + 1, n + 1))
    w[:n, :n] = np.triu(rng.uniform(0.1, 1.0, (n, n)), 1)
    w[int(rng.integers(n)), n] = eps
    return w + w.T


@pytest.mark.parametrize(
    "eigenvalues",
    [
        [3.0, 1.0, 0.0, 0.0],
        [3.0, 1.0, -1e-17, -2e-17],
        [16.0, 5.0, 1e-15, 0.0],  # positive, but below 4 * eps * 16
    ],
)
def test_unresolved_second_eigenvalue_raises(eigenvalues):
    spec = LaplacianSpectrum(eigenvalues=np.array(eigenvalues), component_sizes=(4,))
    with pytest.raises(NumericalError, match="too small to resolve"):
        kirchhoff_index(spec)


@pytest.mark.parametrize("seed", [0, 1, 2, 13])
def test_pendant_below_solver_error_raises(seed):
    # lambda_2 is about 1e-20, far below the solver's error near the top of
    # the spectrum (about 1e-14): whatever noise comes back in its place,
    # positive or not, must not become a finite K
    net = from_weights(dense_with_pendant(seed), label="2005-07")
    spec = spectrum(weighted_laplacian(net))
    assert spec.connected
    with pytest.raises(NumericalError, match="too small to resolve"):
        kirchhoff_index(spec)
    with pytest.raises(NumericalError):
        werc_all(net)
    with pytest.raises(NumericalError):
        window_report(net)


def test_near_symmetric_pattern_gives_disjoint_components():
    # symmetric within the input check's tolerance, but only one triangle
    # holds the edge: it still joins the two vertices, once
    laplacian = np.array([[0.0, 0.0], [-1e-17, 1e-17]])
    assert spectrum(laplacian).zero_multiplicity == 1
    assert spectrum(np.zeros((2, 2))).zero_multiplicity == 2
