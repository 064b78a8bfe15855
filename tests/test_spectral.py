"""Spectral robustness: analytic fixtures, the pseudo-inverse cross-check,
monotonicity, and removal impact."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import from_weights, random_connected
from oracles import effective_resistance_oracle, kirchhoff_index
from risknet.errors import DisconnectedNetworkError
from risknet.network import build_directed, symmetrize
from risknet.spectral import (
    barrat_clustering,
    barrat_clustering_all,
    connected_components,
    largest_component,
    normalized_kirchhoff,
    spectrum,
    weighted_laplacian,
    werc_all,
)
from risknet.synthetic import generate_panel
from risknet.windows import window_panel


def kirchhoff_of(net):
    return kirchhoff_index(spectrum(weighted_laplacian(net)))


def two_vertex(w):
    return from_weights(np.array([[0.0, w], [w, 0.0]]))


def triangle():
    return from_weights(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float))


def path3():
    return from_weights(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))


def test_laplacian_structure():
    net = random_connected(np.random.default_rng(1), 6)
    lap = weighted_laplacian(net)
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-14)
    assert np.array_equal(lap - np.diag(np.diagonal(lap)), -net.weights)


def test_two_vertex_kirchhoff_is_inverse_weight():
    for w in (1.0, 0.5, 0.125, 0.9):
        net = two_vertex(w)
        spec = spectrum(weighted_laplacian(net))
        assert spec.zero_multiplicity == 1
        assert abs(spec.eigenvalues[0] - 2 * w) < 1e-12
        assert abs(kirchhoff_index(spec) - 1.0 / w) < 1e-12


def test_unit_triangle_fixture():
    k = kirchhoff_of(triangle())
    assert abs(k - 2.0) < 1e-12
    assert abs(normalized_kirchhoff(k, 3) - 2.0 / 3.0) < 1e-12


def test_unit_path_fixture():
    k = kirchhoff_of(path3())
    assert abs(k - 4.0) < 1e-12
    assert abs(normalized_kirchhoff(k, 3) - 4.0 / 3.0) < 1e-12


def test_path_leaf_removal_werc():
    assert abs(werc_all(path3()).impacts[0] - (-0.25)) < 1e-12
    assert abs(werc_all(path3()).impacts[2] - (-0.25)) < 1e-12


def test_path_centre_removal_disconnects():
    assert werc_all(path3()).impacts[1] == math.inf


def test_kirchhoff_matches_pairwise_resistance_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        net = random_connected(rng, int(rng.integers(3, 9)))
        k_eig = kirchhoff_of(net)
        k_res = effective_resistance_oracle(net)
        assert abs(k_eig - k_res) <= 1e-9 * max(1.0, abs(k_res))


def test_oracle_keeps_digits_when_zero_eigenvalue_sits_high():
    # the eigensolver returns this network's structural zero eigenvalue
    # well above 1e-15 of the largest; a cutoff-based pseudo-inverse kept
    # it and lost the sum's digits (332.4468 against 332.4590)
    panel = generate_panel(120, (2005, 1), (2005, 12), seed=303, n_fragile=60)
    windows = {w.label: w for w in window_panel(panel)}
    net = symmetrize(build_directed(windows["2005-02"], 0.05))
    keep = [i for i, firm in enumerate(net.firms) if firm != "F050"]
    reduced = from_weights(net.weights[np.ix_(keep, keep)])
    expected = kirchhoff_of(reduced)
    assert expected == pytest.approx(332.45896816569, rel=1e-9)
    assert effective_resistance_oracle(reduced) == pytest.approx(expected, rel=1e-9)


def test_disconnected_network_reports_infinite_resistance():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    net = from_weights(w)
    spec = spectrum(weighted_laplacian(net))
    assert spec.zero_multiplicity == 2
    assert kirchhoff_index(spec) == math.inf
    with pytest.raises(DisconnectedNetworkError):
        effective_resistance_oracle(net)


def test_zero_multiplicity_counts_components():
    rng = np.random.default_rng(77)
    for _ in range(40):
        blocks = [random_connected(rng, int(rng.integers(2, 5)))
                  for _ in range(int(rng.integers(1, 4)))]
        n = sum(b.n for b in blocks)
        w = np.zeros((n, n))
        at = 0
        for b in blocks:
            w[at : at + b.n, at : at + b.n] = b.weights
            at += b.n
        net = from_weights(w)
        spec = spectrum(weighted_laplacian(net))
        assert spec.zero_multiplicity == len(blocks)
        assert len(connected_components(net)) == len(blocks)


def test_kirchhoff_never_increases_when_edges_strengthen():
    rng = np.random.default_rng(55)
    for _ in range(120):
        net = random_connected(rng, int(rng.integers(3, 8)))
        base = kirchhoff_of(net)
        w = net.weights.copy()
        i, j = sorted(rng.choice(net.n, size=2, replace=False))
        w[i, j] = w[j, i] = min(1.0, w[i, j] + float(rng.uniform(0.05, 0.5)))
        bumped = kirchhoff_of(from_weights(w))
        assert bumped <= base + 1e-12
        if net.weights[i, j] == 0.0:
            # a genuinely new edge on a connected graph strictly helps
            assert bumped < base - 1e-12


def test_werc_requires_connected_input():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 0.7
    w[2, 3] = w[3, 2] = 0.7
    with pytest.raises(DisconnectedNetworkError):
        werc_all(from_weights(w))
    with pytest.raises(ValueError, match="three vertices"):
        werc_all(two_vertex(1.0))


def test_werc_is_permutation_equivariant():
    rng = np.random.default_rng(13)
    net = random_connected(rng, 6)
    perm = rng.permutation(6)
    permuted = from_weights(net.weights[np.ix_(perm, perm)])
    base = werc_all(net).impacts
    shuffled = werc_all(permuted).impacts
    assert np.allclose(shuffled, base[perm], atol=1e-10)


def test_complete_network_removals_all_positive():
    n = 6
    w = np.ones((n, n)) - np.eye(n)
    vector = werc_all(from_weights(w)).impacts
    # removing any vertex of a uniform complete network raises mean
    # resistance by exactly 1/(n-1)
    assert np.allclose(vector, 1.0 / (n - 1), atol=1e-12)


def test_largest_component_picks_biggest_then_lexicographic():
    w = np.zeros((5, 5))
    w[0, 1] = w[1, 0] = 0.5  # pair {F00, F01}
    w[3, 4] = w[4, 3] = 0.5  # pair {F03, F04}, F02 isolated
    net = from_weights(w)
    comp = largest_component(net)
    assert comp.firms == ("F00", "F01")
    w2 = np.zeros((5, 5))
    w2[1, 2] = w2[2, 1] = 0.5
    w2[2, 3] = w2[3, 2] = 0.5  # triple beats pair
    w2[0, 4] = w2[4, 0] = 0.5
    assert largest_component(from_weights(w2)).firms == ("F01", "F02", "F03")


def test_barrat_triangle_and_star():
    assert barrat_clustering(triangle(), 0) == 1.0
    star = np.zeros((5, 5))
    star[0, 1:] = star[1:, 0] = 0.6
    net = from_weights(star)
    assert barrat_clustering(net, 0) == 0.0  # no closed neighbour pairs
    assert barrat_clustering(net, 1) == 0.0  # single neighbour


def test_barrat_reduces_to_binary_on_equal_weights():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(4, 9))
        adj = np.triu((rng.random((n, n)) < 0.5), k=1)
        adj = adj | adj.T
        for c in (1.0, 0.37):
            net = from_weights(adj * c)
            a = adj.astype(float)
            for i in range(n):
                k = int(a[i].sum())
                if k <= 1:
                    expected = 0.0
                else:
                    closed = 0
                    neigh = np.flatnonzero(a[i])
                    for x in neigh:
                        for y in neigh:
                            if x != y and a[x, y]:
                                closed += 1
                    expected = closed / (k * (k - 1))
                assert barrat_clustering(net, i) == pytest.approx(expected, abs=1e-12)


def test_barrat_stays_in_unit_interval():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(3, 10))
        upper = np.triu(rng.uniform(size=(n, n)) * (rng.random((n, n)) < 0.6), k=1)
        net = from_weights(upper + upper.T)
        for i in range(n):
            assert 0.0 <= barrat_clustering(net, i) <= 1.0


def barrat_oracle(net, vertex):
    """Barrat clustering of one vertex from its neighbourhood submatrix."""
    adjacency = net.adjacency
    neighbours = np.flatnonzero(adjacency[vertex])
    k = neighbours.size
    if k <= 1:
        return 0.0
    sub = adjacency[np.ix_(neighbours, neighbours)]
    incident = net.weights[vertex, neighbours]
    pair_sum = float((sub.sum(axis=1) * incident).sum())
    strength = float(net.weights[vertex].sum())
    return min(1.0, pair_sum / (strength * (k - 1)))


@st.composite
def sparse_weights(draw) -> np.ndarray:
    """1..24 vertices, each pair an edge with a drawn probability (isolated
    vertices and pendants come up often); all weights 1, or each 1, tiny
    or uniform."""
    n = draw(st.integers(1, 24))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    weight = st.one_of(st.just(1.0), st.just(5e-324), st.floats(1e-300, 1.0))
    if draw(st.booleans()):
        weight = st.just(1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w[i, j] = w[j, i] = draw(weight)
    return w


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sparse_weights())
def test_barrat_all_is_bit_identical_to_the_per_vertex_oracle(w):
    net = from_weights(w)
    expected = np.array([barrat_oracle(net, v) for v in range(net.n)])
    assert np.array_equal(barrat_clustering_all(net), expected)
    assert all(barrat_clustering(net, v) == expected[v] for v in range(net.n))


def test_barrat_all_on_isolated_pendant_and_unit_weights():
    w = np.zeros((6, 6))
    for i, j in ((0, 1), (0, 2), (1, 2), (2, 3)):  # triangle, pendant 3
        w[i, j] = w[j, i] = 1.0  # vertices 4 and 5 isolated
    values = barrat_clustering_all(from_weights(w))
    assert values.tolist() == [1.0, 1.0, 1.0 / 3.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="out of range"):
        barrat_clustering(from_weights(w), 6)


def test_spectrum_rejects_non_laplacian():
    with pytest.raises(ValueError, match="symmetric"):
        spectrum(np.array([[1.0, -1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="sum to zero"):
        spectrum(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="two vertices"):
        normalized_kirchhoff(1.0, 1)
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        spectrum(np.zeros((2, 3)))
