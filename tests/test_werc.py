"""The grounded removal kernel against independent routes.

``werc_all`` factors grounded Laplacians in stacks and inverts the
triangular factors; its Kirchhoff index, removal impacts and surviving
orders are checked against a 40-digit decimal pseudo-inverse, the
eigenvalue route (``kirchhoff_index`` of ``spectrum``), the per-removal
``effective_resistance_oracle`` and a breadth-first search. The
triangular inverse itself is checked against ``np.linalg.inv``.

No double-precision route resolves a resistance beyond its conditioning:
with M the largest effective resistance and S the largest strength of a
network of order m, each of them errs by up to about m * eps * S * M
relative. Where that is below 1e-9 the routes must agree to 1e-9.
"""

from __future__ import annotations

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import bfs_components, cut_vertices, from_weights, random_connected
from oracles import effective_resistance_oracle, kirchhoff_index, weighted_laplacian
from risknet import spectral
from risknet.errors import DisconnectedNetworkError, NumericalError
from risknet.spectral import connected_components, spectrum, werc_all

EPS = float(np.finfo(float).eps)


def decimal_resistance(w: np.ndarray) -> tuple[float, float]:
    """Kirchhoff index and largest pairwise resistance of a connected
    network, from inv(L + J/m) - J/m in 40-digit decimal arithmetic."""
    m = w.shape[0]
    weights = [[Decimal(float(x)) for x in row] for row in w]
    with localcontext() as ctx:
        ctx.prec = 40
        shift = Decimal(1) / m
        rows = [
            [(sum(weights[i]) if i == j else -weights[i][j]) + shift for j in range(m)]
            + [Decimal(int(i == j)) for j in range(m)]
            for i in range(m)
        ]
        for c in range(m):  # Gauss-Jordan with partial pivoting
            p = max(range(c, m), key=lambda r: abs(rows[r][c]))
            rows[c], rows[p] = rows[p], rows[c]
            pivot = rows[c][c]
            rows[c] = [x / pivot for x in rows[c]]
            for r in range(m):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        pinv = [[rows[i][m + j] - shift for j in range(m)] for i in range(m)]
        total = m * sum(pinv[i][i] for i in range(m))
        largest = max(
            pinv[i][i] + pinv[j][j] - 2 * pinv[i][j] for i in range(m) for j in range(m)
        )
        return float(total), float(largest)


def without(w: np.ndarray, v: int) -> np.ndarray:
    keep = [i for i in range(w.shape[0]) if i != v]
    return w[np.ix_(keep, keep)]


def impact(k_removed: float, k: float, n: int) -> float:
    return (k_removed / math.comb(n - 1, 2) - k / math.comb(n, 2)) / (k / math.comb(n, 2))


def test_oracle_shift_keeps_digits_at_any_weight_scale():
    # an unscaled J / n shift cost 9.5e-11 relative at scale 1e-8
    net = random_connected(np.random.default_rng(3), 12)
    for scale in (1.0, 1e-4, 1e-8):
        w = net.weights * scale
        k, _ = decimal_resistance(w)
        assert effective_resistance_oracle(from_weights(w)) == pytest.approx(k, rel=1e-12)


@st.composite
def connected_weights(draw, low: float) -> np.ndarray:
    """Symmetric weights of a connected graph on 3..12 vertices: a random
    spanning tree plus any other pairs, each weight log-uniform in
    [10**low, 1]."""
    n = draw(st.integers(3, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    extra = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    exponents = draw(
        st.lists(st.floats(low, 0.0), min_size=len(pairs), max_size=len(pairs))
    )
    tree = {(p, v) for v, p in enumerate(parents, start=1)}
    w = np.zeros((n, n))
    for (i, j), on, exponent in zip(pairs, extra, exponents):
        if on or (i, j) in tree:
            w[i, j] = w[j, i] = 10.0**exponent
    return w


@settings(max_examples=120, derandomize=True, deadline=None)
@given(connected_weights(low=-12.0))
def test_kernel_matches_decimal_pseudo_inverse_and_eigen_route(w):
    n = w.shape[0]
    removal = werc_all(from_weights(w))
    k, largest = decimal_resistance(w)
    resolution = n * EPS * w.sum(axis=1).max() * largest
    assert removal.kirchhoff == pytest.approx(k, rel=1e-9 + resolution)
    eigen = kirchhoff_index(spectrum(weighted_laplacian(from_weights(w))))
    assert eigen == pytest.approx(k, rel=1e-9 + resolution)
    cuts = cut_vertices(w)
    for v in range(n):
        if v in cuts:
            assert math.isinf(removal.impacts[v])
            continue
        k_v, largest_v = decimal_resistance(without(w, v))
        expected = impact(k_v, k, n)
        resolution_v = (n - 1) * EPS * without(w, v).sum(axis=1).max() * largest_v
        tolerance = 2e-9 + resolution + resolution_v
        assert abs(removal.impacts[v] - expected) <= tolerance * (1.0 + abs(expected))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(connected_weights(low=-3.0))
def test_kernel_matches_pinv_oracle_and_eigen_route_per_removal(w):
    n = w.shape[0]
    net = from_weights(w)
    removal = werc_all(net)
    k = effective_resistance_oracle(net)
    assert removal.kirchhoff == pytest.approx(k, rel=1e-9)
    assert removal.kirchhoff == pytest.approx(
        kirchhoff_index(spectrum(weighted_laplacian(net))), rel=1e-9
    )
    for v in range(n):
        if math.isinf(removal.impacts[v]):
            continue
        reduced = from_weights(without(w, v))
        for k_v in (
            effective_resistance_oracle(reduced),
            kirchhoff_index(spectrum(weighted_laplacian(reduced))),
        ):
            assert removal.impacts[v] == pytest.approx(
                impact(k_v, k, n), rel=1e-9, abs=1e-9
            )


def eigen_impacts(net) -> np.ndarray:
    """Every removal impact by the eigenvalue route."""
    k = kirchhoff_index(spectrum(weighted_laplacian(net)))
    impacts = []
    for v in range(net.n):
        reduced = from_weights(without(net.weights, v))
        if len(connected_components(reduced)) > 1:
            impacts.append(math.inf)
        else:
            impacts.append(impact(kirchhoff_index(spectrum(weighted_laplacian(reduced))), k, net.n))
    return np.array(impacts)


def assert_matches_eigen_route(net) -> None:
    removal = werc_all(net)
    assert removal.kirchhoff == pytest.approx(
        kirchhoff_index(spectrum(weighted_laplacian(net))), rel=1e-9
    )
    expected = eigen_impacts(net)
    assert np.array_equal(np.isinf(removal.impacts), np.isinf(expected))
    finite = np.isfinite(expected)
    np.testing.assert_allclose(removal.impacts[finite], expected[finite], rtol=1e-9, atol=1e-9)
    cuts = cut_vertices(net.weights)
    assert removal.surviving_order == tuple(cuts.get(v) for v in range(net.n))


@pytest.mark.parametrize("n", [60, 120])
def test_stacks_split_across_several_inverse_calls(n, monkeypatch):
    net = random_connected(np.random.default_rng(n), n, extra_edge_prob=0.2)
    assert_matches_eigen_route(net)
    calls, inverse_calls = [], []
    real_cholesky, real_inv = np.linalg.cholesky, np.linalg.inv

    def counting_cholesky(stack):
        calls.append(stack.shape[0])
        return real_cholesky(stack)

    def counting_inv(matrix):
        inverse_calls.append(matrix.shape)
        return real_inv(matrix)

    monkeypatch.setattr(spectral.np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(spectral.np.linalg, "inv", counting_inv)
    removal = werc_all(net)
    assert inverse_calls == []
    slots = spectral._STACK_BYTES // (8 * (n - 1) ** 2)
    assert sum(calls) == 1 + np.isfinite(removal.impacts).sum()
    assert calls.count(slots) >= 1 and sum(c > 1 for c in calls) >= 2


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("order", [1, 2, 3, 5, 63, 64, 65, 119, 127, 128, 129])
def test_triangular_inverse_matches_linalg_inv(order, count):
    rng = np.random.default_rng(order * 10 + count)
    for _ in range(3):
        # off-diagonals of size 1 / order keep the factors well conditioned
        lower = np.tril(rng.uniform(-1.0, 1.0, (count, order, order)), -1) / order
        diagonal = lower.reshape(count, -1)[:, :: order + 1]
        diagonal[...] = rng.uniform(0.1, 10.0, (count, order))
        expected = np.linalg.inv(lower)
        inverse = lower.copy()
        assert spectral._invert_lower(inverse) is inverse
        scale = np.abs(expected).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(inverse - expected) <= 1e-10 * scale)
        assert not np.triu(inverse, 1).any()


def test_stack_size_does_not_change_results(monkeypatch):
    net = random_connected(np.random.default_rng(30), 30)
    default = werc_all(net)
    for budget in (1, 7 * 8 * 29**2):  # one matrix, then seven, per call
        monkeypatch.setattr(spectral, "_STACK_BYTES", budget)
        assert np.array_equal(werc_all(net).impacts, default.impacts)


def hub_and_cliques(hub_is_cut: bool) -> np.ndarray:
    """Two 8-cliques (weights 0.3) and a hub tied to every vertex by
    weight 0.2, so the hub is the strongest vertex; unless ``hub_is_cut``
    one weak 0.01 edge also joins the cliques."""
    rng = np.random.default_rng(4)
    n = 17
    w = np.zeros((n, n))
    for block in (range(0, 8), range(8, 16)):
        for i in block:
            for j in block:
                if i < j:
                    w[i, j] = w[j, i] = 0.3 * rng.uniform(0.9, 1.0)
    w[16, :16] = w[:16, 16] = 0.2
    if not hub_is_cut:
        w[0, 8] = w[8, 0] = 0.01
    return w


@pytest.mark.parametrize("hub_is_cut", [True, False])
def test_strongest_vertex_removed(hub_is_cut):
    w = hub_and_cliques(hub_is_cut)
    net = from_weights(w)
    assert int(np.argmax(net.strengths)) == 16
    assert (16 in cut_vertices(w)) is hub_is_cut
    assert_matches_eigen_route(net)
    removal = werc_all(net)
    assert math.isinf(removal.impacts[16]) is hub_is_cut
    assert removal.surviving_order[16] == (8 if hub_is_cut else None)


def test_strongest_vertex_ties_ground_at_lowest_index(monkeypatch):
    grounds = []
    real = spectral._removal_kirchhoff

    def recording(laplacian, ground, removed):
        grounds.append((int(ground), removed.tolist()))
        return real(laplacian, ground, removed)

    monkeypatch.setattr(spectral, "_removal_kirchhoff", recording)
    w = np.ones((5, 5)) - np.eye(5)  # every vertex equally strong
    removal = werc_all(from_weights(w))
    assert grounds == [(0, [1, 2, 3, 4]), (1, [0])]
    assert np.allclose(removal.impacts, removal.impacts[0])


@st.composite
def small_weights(draw) -> np.ndarray:
    """Symmetric weights on 3..8 vertices over any pattern of pairs, with
    up to two vertices then isolated and, at will, one pair cut off from
    the rest, so networks in pieces come in every shape."""
    n = draw(st.integers(3, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    live = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    values = draw(st.lists(st.floats(0.05, 1.0), min_size=len(pairs), max_size=len(pairs)))
    w = np.zeros((n, n))
    for (i, j), on, value in zip(pairs, live, values):
        if on:
            w[i, j] = w[j, i] = value
    for v in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        w[v, :] = w[:, v] = 0.0
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        w[[i, j], :] = w[:, [i, j]] = 0.0
        w[i, j] = w[j, i] = draw(st.floats(0.05, 1.0))
    return w


@settings(max_examples=300, derandomize=True, deadline=None)
@given(small_weights())
def test_werc_refuses_exactly_the_networks_in_pieces(w):
    net = from_weights(w)
    if len(bfs_components(w)) > 1:
        with pytest.raises(DisconnectedNetworkError, match="needs a connected network"):
            werc_all(net)
        return
    removal = werc_all(net)
    cuts = cut_vertices(w)
    assert np.flatnonzero(np.isinf(removal.impacts)).tolist() == sorted(cuts)
    assert removal.surviving_order == tuple(cuts.get(v) for v in range(net.n))


@pytest.mark.parametrize("clique, isolated", [(2, 0), (2, 2), (3, 0), (3, 3)])
def test_clique_beside_an_isolated_vertex_is_refused(clique, isolated):
    # the one disconnected shape where a removal, the isolated vertex's,
    # leaves a connected rest
    n = clique + 1
    members = [v for v in range(n) if v != isolated]
    w = np.zeros((n, n))
    w[np.ix_(members, members)] = 0.5
    np.fill_diagonal(w, 0.0)
    assert set(range(n)) - set(cut_vertices(w)) == {isolated}
    with pytest.raises(DisconnectedNetworkError, match="needs a connected network"):
        werc_all(from_weights(w))


def test_two_cliques_joined_below_resolution_raise_on_both_routes():
    rng = np.random.default_rng(11)
    w = np.zeros((30, 30))
    for block in (slice(0, 15), slice(15, 30)):
        w[block, block] = np.triu(rng.uniform(0.1, 1.0, (15, 15)), 1)
    w[0, 15] = 1e-20
    w = w + w.T
    net = from_weights(w, label="2006-01")
    assert len(connected_components(net)) == 1
    with pytest.raises(NumericalError, match="too small to resolve"):
        werc_all(net)
    with pytest.raises(NumericalError, match="too small to resolve"):
        kirchhoff_index(spectrum(weighted_laplacian(net)))


def test_removal_below_resolution_is_named_after_a_per_matrix_retry(monkeypatch):
    # two cliques held together by a weak hub F20 and a 1e-20 link: the
    # whole network resolves, but without F20 the cliques meet only at
    # the link, so the stack of removals fails to factor and each matrix
    # is tried alone; only F20's removal is unresolvable
    rng = np.random.default_rng(3)
    w = np.zeros((21, 21))
    for block in (slice(0, 10), slice(10, 20)):
        w[block, block] = np.triu(rng.uniform(0.1, 1.0, (10, 10)), 1)
    w = w + w.T
    w[20, :20] = w[:20, 20] = 0.05
    w[0, 10] = w[10, 0] = 1e-20
    sizes = []
    kernel = spectral._grounded_kirchhoff

    def counted(stack, order, placeholder=None):
        sizes.append(len(stack))
        return kernel(stack, order, placeholder)

    monkeypatch.setattr(spectral, "_grounded_kirchhoff", counted)
    with pytest.raises(NumericalError, match="network without F20 is too small to resolve"):
        werc_all(from_weights(w, label="2006-01"))
    assert sizes[1] == 20 and sizes[2:22] == [1] * 20  # one stack, then each alone


def test_order_120_peaks_below_four_mib():
    net = random_connected(np.random.default_rng(120), 120)
    werc_all(net)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        werc_all(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
