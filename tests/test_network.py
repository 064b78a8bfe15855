"""Directed weight estimation, symmetrization, and network serialization."""

from __future__ import annotations

import collections
import dataclasses
import datetime as dt
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_pair_oracle
from risknet import network
from risknet.errors import NetworkFormatError, WindowError
from risknet.network import (
    DirectedWeights,
    RiskNetwork,
    build_directed,
    density,
    symmetrize,
    write_network,
)
from risknet.panel import panel_from_rows
from risknet.reports import SavedNetwork, network_from_dict, read_json
from risknet.windows import WindowSlice, window_panel


def month_slice(values, mask=None, min_obs=15):
    t, n = values.shape
    dates = [dt.date(2005, 3, 1) + dt.timedelta(days=i) for i in range(t)]
    firms = [f"F{j:02d}" for j in range(n)]
    panel = panel_from_rows(dates, firms, values, mask)
    slices = window_panel(panel, min_obs=min_obs)
    assert len(slices) == 1
    return slices[0]


def random_window(rng):
    """A small random window mixing the cases the estimator must get right:
    tail ties on a coarse grid, constant firms, scattered and blocked
    missing days, and firms below ceil(1 / alpha) observed days."""
    t = int(rng.integers(8, 32))
    n = int(rng.integers(2, 9))
    if rng.random() < 0.4:
        # multiples of 1/64: many tail ties, and sums are exact in any order
        values = rng.integers(-6, 7, size=(t, n)) / 64.0
    else:
        values = rng.standard_t(df=4, size=(t, n)) * 0.02
    for col in np.flatnonzero(rng.random(n) < 0.15):
        values[:, col] = values[0, col]
    mask = rng.random((t, n)) >= rng.choice([0.0, 0.05, 0.2, 0.4])
    for col in np.flatnonzero(rng.random(n) < 0.3):
        start = int(rng.integers(0, t))
        mask[start : start + int(rng.integers(1, t)), col] = False
    return month_slice(values, mask, min_obs=int(rng.integers(3, 22)))


def test_build_directed_matches_per_pair_oracle_on_random_windows():
    rng = np.random.default_rng(2024)
    seen = collections.Counter()
    checked = 0
    while checked < 360:
        window = random_window(rng)
        if window.degenerate:
            continue
        alpha = (0.05, 0.1, 0.25)[checked % 3]
        built = build_directed(window, alpha)
        want, diagnostics, degenerate = per_pair_oracle(window, alpha)
        assert np.allclose(built.matrix, want, rtol=0.0, atol=1e-12)
        assert np.array_equal(built.matrix == 0.0, want == 0.0)
        kinds = collections.Counter(d.kind for d in built.diagnostics)
        assert set(kinds) <= {"short_overlap", "inestimable_firm", "degenerate_firm"}
        assert {
            d for d in built.diagnostics if d.kind != "degenerate_firm"
        } == diagnostics
        assert sorted(
            d.target for d in built.diagnostics if d.kind == "degenerate_firm"
        ) == sorted(degenerate)
        seen.update(kinds)
        seen["ties"] += any(
            len(np.unique(window.returns[window.mask[:, c], c]))
            < window.mask[:, c].sum()
            for c in range(window.n_firms)
        )
        seen["partly_observed"] += not window.mask.all()
        checked += 1
    # every case the gate is meant to cover actually came up
    for case in (
        "short_overlap",
        "inestimable_firm",
        "degenerate_firm",
        "ties",
        "partly_observed",
    ):
        assert seen[case] >= 20, seen


def wide_window(seed, n=30, t=23):
    """A window of ``n`` firms, so sources span several blocks, with tail
    ties (every other seed), a constant firm, scattered missing days, a
    firm missing half the days and one below ceil(1 / alpha) days."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        values = rng.integers(-6, 7, size=(t, n)) / 64.0
    else:
        values = rng.standard_t(df=4, size=(t, n)) * 0.02
    values[:, 3] = values[0, 3]
    mask = rng.random((t, n)) >= 0.1
    mask[: t // 2, 5] = False
    mask[4:, 7] = False
    return month_slice(values, mask, min_obs=8)


@pytest.mark.parametrize("per_block", [1, 7])
@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25])
def test_block_size_does_not_change_weights_or_diagnostics(per_block, alpha, monkeypatch):
    for seed in range(4):
        window = wide_window(seed)
        t, n = window.n_days, window.n_firms
        assert network._BLOCK_BYTES // (8 * t * n) >= n  # one block by default
        default = build_directed(window, alpha)
        monkeypatch.setattr(network, "_BLOCK_BYTES", per_block * 8 * t * n)
        blocked = build_directed(window, alpha)
        monkeypatch.undo()
        assert np.array_equal(blocked.matrix, default.matrix)
        assert blocked.diagnostics == default.diagnostics
        want, diagnostics, degenerate = per_pair_oracle(window, alpha)
        assert np.allclose(blocked.matrix, want, rtol=0.0, atol=1e-12)
        assert np.array_equal(blocked.matrix == 0.0, want == 0.0)
        assert {d for d in blocked.diagnostics if d.kind != "degenerate_firm"} == diagnostics
        assert sorted(
            d.target for d in blocked.diagnostics if d.kind == "degenerate_firm"
        ) == sorted(degenerate)


# its mean and ES are 0 / 0, which numpy warns about
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_firm_without_an_observed_day_gets_no_weight():
    # window_panel leaves such a firm out, but a window can be built by hand
    window = wide_window(0)
    mask = window.mask.copy()
    mask[:, 9] = False
    window = dataclasses.replace(window, mask=mask)
    built = build_directed(window, 0.05)
    assert not built.matrix[9].any() and not built.matrix[:, 9].any()
    want, diagnostics, _ = per_pair_oracle(window, 0.05)
    assert np.allclose(built.matrix, want, rtol=0.0, atol=1e-12)
    assert {d for d in built.diagnostics if d.kind != "degenerate_firm"} == diagnostics


def test_120_firms_over_23_days_peak_below_two_mib():
    rng = np.random.default_rng(120)
    values = rng.standard_t(df=4, size=(23, 120)) * 0.02
    window = month_slice(values, rng.random((23, 120)) >= 0.02)
    build_directed(window, 0.05)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        build_directed(window, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block's days x sources x targets float array takes at most
    # _BLOCK_BYTES (512 KiB); its boolean and count arrays and the n x n
    # matrices less than as much again
    assert peak <= 2 * 2**20


def test_directed_matrix_matches_per_pair_reference():
    rng = np.random.default_rng(103)
    values = rng.standard_t(df=4, size=(22, 5)) * 0.02
    window = month_slice(values)
    built = build_directed(window, 0.05)
    assert np.allclose(built.matrix, per_pair_oracle(window, 0.05)[0], atol=1e-12)
    assert np.all(np.diagonal(built.matrix) == 0.0)
    assert built.matrix.min() >= 0.0 and built.matrix.max() <= 1.0


def test_directed_with_missing_days_uses_common_day_conditioning():
    rng = np.random.default_rng(107)
    values = rng.normal(scale=0.02, size=(31, 4))
    mask = np.ones_like(values, dtype=bool)
    mask[:5, 0] = False
    mask[10:14, 2] = False
    window = month_slice(values, mask, min_obs=20)
    built = build_directed(window, 0.05)
    assert np.allclose(built.matrix, per_pair_oracle(window, 0.05)[0], atol=1e-12)


def test_short_overlap_zeroes_pair_with_diagnostic():
    rng = np.random.default_rng(109)
    values = rng.normal(scale=0.02, size=(31, 3))
    mask = np.ones_like(values, dtype=bool)
    # firms 0 and 1 observed on overlapping halves: each eligible alone,
    # but their joint history is only 9 days
    mask[:11, 0] = False
    mask[20:, 1] = False
    window = month_slice(values, mask, min_obs=18)
    built = build_directed(window, 0.05)
    assert built.matrix[0, 1] == 0.0 and built.matrix[1, 0] == 0.0
    assert built.matrix[0, 2] > 0.0 or built.matrix[2, 0] > 0.0
    kinds = {d.kind for d in built.diagnostics}
    assert "short_overlap" in kinds


def test_constant_firm_flagged_degenerate_and_zeroed():
    rng = np.random.default_rng(113)
    values = rng.normal(scale=0.02, size=(21, 3))
    values[:, 1] = 0.0123
    window = month_slice(values)
    built = build_directed(window, 0.05)
    assert np.all(built.matrix[:, 1] == 0.0)
    assert any(
        d.kind == "degenerate_firm" and d.target == "F01" for d in built.diagnostics
    )
    # the constant firm still acts as a source
    assert built.matrix[1, 0] >= 0.0


def test_too_short_window_yields_all_zero_with_firm_diagnostics():
    rng = np.random.default_rng(127)
    values = rng.normal(size=(16, 3))
    window = month_slice(values)
    built = build_directed(window, 0.05)  # needs 20 days at this tail level
    assert not built.matrix.any()
    assert sum(d.kind == "inestimable_firm" for d in built.diagnostics) == 3


def test_degenerate_window_refused():
    values = np.random.default_rng(1).normal(size=(21, 1))
    window = month_slice(values)
    assert window.degenerate
    with pytest.raises(WindowError, match="fewer than two eligible firms"):
        build_directed(window, 0.05)


def test_symmetrize_averages_both_directions_entrywise():
    rng = np.random.default_rng(131)
    m = rng.uniform(size=(7, 7))
    np.fill_diagonal(m, 0.0)
    directed = DirectedWeights(3, "2005-03", tuple(f"F{i}" for i in range(7)), m)
    net = symmetrize(directed)
    for i in range(7):
        for j in range(7):
            assert net.weights[i, j] == (m[i, j] + m[j, i]) / 2.0
    assert np.array_equal(net.weights, net.weights.T)


def test_one_sided_pair_keeps_half_weight():
    m = np.zeros((3, 3))
    m[0, 1] = 0.8
    directed = DirectedWeights(1, "2005-03", ("A", "B", "C"), m)
    net = symmetrize(directed)
    assert net.weights[0, 1] == 0.4
    assert net.weights[1, 0] == 0.4


def test_network_validation_rejects_bad_matrices():
    firms = ("A", "B")
    with pytest.raises(NetworkFormatError, match="symmetric"):
        RiskNetwork(1, "x", firms, np.array([[0.0, 0.5], [0.4, 0.0]]))
    with pytest.raises(NetworkFormatError, match="self-weights"):
        RiskNetwork(1, "x", firms, np.array([[0.1, 0.5], [0.5, 0.0]]))
    with pytest.raises(NetworkFormatError, match=r"\[0, 1\]"):
        RiskNetwork(1, "x", firms, np.array([[0.0, 1.5], [1.5, 0.0]]))


def test_density_and_vertex_stats():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 0.5
    w[2, 3] = w[3, 2] = 0.25
    net = RiskNetwork(1, "x", ("A", "B", "C", "D"), w)
    assert density(net) == 2 / 6
    assert list(net.adjacency.sum(axis=1)) == [1, 1, 1, 1]
    assert list(net.strengths) == [0.5, 0.5, 0.25, 0.25]
    single = RiskNetwork(1, "x", ("A",), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="two vertices"):
        density(single)


def test_json_roundtrip_preserves_weights_bitwise(tmp_path):
    rng = np.random.default_rng(137)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        m = np.where(rng.random((n, n)) < 0.5, rng.uniform(size=(n, n)), 0.0)
        np.fill_diagonal(m, 0.0)
        net = symmetrize(
            DirectedWeights(4, "2007-09", tuple(f"F{i:02d}" for i in range(n)), m)
        )
        write_network(net, tmp_path / "net.json")
        again = read_json(tmp_path / "net.json", network_from_dict)
        assert again == net.saved()


def test_network_payload_validation(tmp_path):
    base = format_oracle(
        RiskNetwork(1, "2001-01", ("A", "B"), np.array([[0.0, 0.5], [0.5, 0.0]]))
    )
    bad_version = dict(base, schema_version=99)
    with pytest.raises(NetworkFormatError, match="schema version"):
        network_from_dict(bad_version)
    bad_edge = dict(base, edges=[[1, 0, 0.5]])
    with pytest.raises(NetworkFormatError, match="indices"):
        network_from_dict(bad_edge)
    bad_weight = dict(base, edges=[[0, 1, 1.5]])
    with pytest.raises(NetworkFormatError, match="weight"):
        network_from_dict(bad_weight)
    dup = dict(base, edges=[[0, 1, 0.5], [0, 1, 0.5]])
    with pytest.raises(NetworkFormatError, match="duplicate edge"):
        network_from_dict(dup)
    bad_json = tmp_path / "window_1.json"
    bad_json.write_text("{not json", encoding="utf-8")
    with pytest.raises(NetworkFormatError, match="window_1.json: invalid JSON"):
        read_json(bad_json, network_from_dict)



def format_oracle(net):
    """The network payload built one pair at a time: ``json.dumps`` of it
    with ``indent=2``, plus a newline, is the saved network's byte format."""
    edges = []
    for i in range(net.n):
        for j in range(i + 1, net.n):
            w = net.weights[i, j]
            if w > 0.0:
                edges.append([i, j, float(w)])
    return {
        "schema_version": 1,
        "window_id": net.window_id,
        "label": net.label,
        "n": net.n,
        "firms": list(net.firms),
        "edges": edges,
    }


NAMES = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['Q"uote', "Zürich Rück", "東京海上", "back\\slash", "tab\tnew\nline"]),
)
WEIGHTS = st.one_of(
    st.just(5e-324),
    st.just(1.0),
    st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
    st.floats(5e-324, 1.0),
)


@st.composite
def networks(draw) -> RiskNetwork:
    """2..12 firms with no edge, every edge, or any subset of them."""
    n = draw(st.integers(2, 12))
    layout = draw(st.sampled_from(["empty", "full", "some"]))
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if layout == "full" or (layout == "some" and draw(st.booleans())):
                w[i, j] = w[j, i] = draw(WEIGHTS)
    firms = tuple(draw(st.lists(NAMES, min_size=n, max_size=n, unique=True)))
    return RiskNetwork(draw(st.integers(0, 10**6)), draw(NAMES), firms, w)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(networks())
def test_writer_bytes_match_json_dump_of_the_per_pair_payload(net):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        write_network(net, path)
        text = path.read_bytes().decode("utf-8")
        assert text == json.dumps(format_oracle(net), indent=2) + "\n"
        assert read_json(path, network_from_dict) == net.saved()


def test_writer_bytes_match_json_dump_on_a_file(tmp_path):
    w = np.array([[0.0, 5e-324, 1.0], [5e-324, 0.0, 0.0], [1.0, 0.0, 0.0]])
    net = RiskNetwork(7, "2009-03", ("A", 'B"', "Zürich"), w)
    write_network(net, tmp_path / "net.json")
    raw = (tmp_path / "net.json").read_bytes()
    assert raw == (json.dumps(format_oracle(net), indent=2) + "\n").encode("utf-8")


BASE = {"schema_version": 1, "window_id": 1, "label": "x", "n": 3, "firms": ["A", "B", "C"]}


def test_edge_indices_must_be_integers_not_truncated():
    # int() reads the first of these as the edges (0, 1) and (1, 2)
    for edges in (
        json.loads('[[0.7, 1.9, 0.5], [true, "2", 0.25]]'),
        [[0, 1.0, 0.5]],
        [[True, 2, 0.25]],
        [[0, "2", 0.25]],
    ):
        with pytest.raises(NetworkFormatError, match="indices must be integers"):
            network_from_dict(dict(BASE, edges=edges))


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[0, 1, 0.5], [1, 2]], r"bad edge entry \[1, 2\]: expected"),
        ([[0, 1, 0.5], "abc"], r"bad edge entry 'abc': expected"),
        ([[0, 1, 0.5], [1, 2, 0.5, 0.5]], r"bad edge entry \[1, 2, 0.5, 0.5\]"),
        ([[0, 1, [0.5]]], r"bad edge entry \[0, 1, \[0.5\]\]: weight is not a number"),
        ([[0, 1, "0.5"]], r"bad edge entry \[0, 1, '0.5'\]: weight is not a number"),
        ([[0, 1, None]], "weight is not a number"),
        ([[0, 1, True]], "weight is not a number"),
        ([[0, 1, 0.5], [2, 1, 0.5]], r"indices out of order or range: \[2, 1, 0.5\]"),
        ([[0, 3, 0.5]], r"indices out of order or range: \[0, 3, 0.5\]"),
        ([[-1, 2, 0.5]], "indices out of order or range"),
        ([[1, 1, 0.5]], "indices out of order or range"),
        ([[0, 10**30, 0.5]], "indices out of order or range"),
        ([[0, 1, 0.5], [1, 2, 0.0]], r"weight outside \(0, 1\]: \[1, 2, 0.0\]"),
        ([[0, 1, float("nan")]], r"weight outside \(0, 1\]"),
        ([[0, 1, 10**400]], r"weight outside \(0, 1\]"),
        ([[0, 1, 0.5], [1, 2, 0.5], [1, 2, 0.25], [0, 1, 0.5]], r"duplicate edge \(1, 2\)"),
        (5, "bad network payload"),
        ({"0": [0, 1, 0.5]}, "bad network payload"),
    ],
)
def test_edge_validation_names_the_first_bad_entry(edges, message):
    with pytest.raises(NetworkFormatError, match=message):
        network_from_dict(dict(BASE, edges=edges))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("schema_version", True, "schema_version must be an integer, got True"),
        ("window_id", 1.0, "window_id must be an integer, got 1.0"),
        ("window_id", False, "window_id must be an integer, got False"),
        ("n", "3", "n must be an integer, got '3'"),
        ("label", None, "label must be a string, got None"),
        ("firms", ["A", 2, None], "firms must be a list of strings, got 2"),
    ],
)
def test_header_fields_must_have_their_json_type(key, value, message):
    # int() and str() would have read each of these
    with pytest.raises(NetworkFormatError, match=f"^{re.escape(message)}$"):
        network_from_dict(dict(BASE, edges=[], **{key: value}))


def test_integer_weights_are_read_as_floats():
    net = network_from_dict(dict(BASE, edges=[[0, 2, 1], [0, 1, 0.25]]))
    assert net == SavedNetwork(1, "x", ("A", "B", "C"), (0, 0), (2, 1), (1.0, 0.25))
    assert list(map(type, net.weights)) == [float, float]


def diagnostic_counts(built, leave_out=frozenset()):
    """Diagnostics as a multiset, a pair's two firms unordered, without
    those that name a firm in ``leave_out``."""
    return collections.Counter(
        (d.kind, frozenset({d.source, d.target}), d.detail)
        for d in built.diagnostics
        if not {d.source, d.target} & leave_out
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_masking_a_third_firm_leaves_the_other_weights_bit_identical(seed, data):
    window = random_window(np.random.default_rng(seed))
    n = window.n_firms
    if window.degenerate or n < 3:
        return
    alpha = data.draw(st.sampled_from([0.05, 0.1, 0.25]))
    k = data.draw(st.integers(0, n - 1))
    drop = data.draw(st.lists(st.booleans(), min_size=window.n_days, max_size=window.n_days))
    mask = window.mask.copy()
    mask[np.array(drop), k] = False
    before = build_directed(window, alpha)
    after = build_directed(dataclasses.replace(window, mask=mask), alpha)
    keep = [i for i in range(n) if i != k]
    assert np.array_equal(
        after.matrix[np.ix_(keep, keep)], before.matrix[np.ix_(keep, keep)]
    )
    masked = {window.firms[k]}
    assert diagnostic_counts(after, masked) == diagnostic_counts(before, masked)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_permuting_firms_permutes_weights_and_diagnostics(seed, data):
    window = random_window(np.random.default_rng(seed))
    if window.degenerate:
        return
    n = window.n_firms
    alpha = data.draw(st.sampled_from([0.05, 0.1, 0.25]))
    perm = np.array(data.draw(st.permutations(range(n))))
    # the column selections come out in Fortran order
    permuted = dataclasses.replace(
        window,
        firms=tuple(window.firms[p] for p in perm),
        returns=window.returns[:, perm],
        mask=window.mask[:, perm],
    )
    before = build_directed(window, alpha)
    after = build_directed(permuted, alpha)
    assert after.firms == permuted.firms
    assert np.array_equal(after.matrix, before.matrix[np.ix_(perm, perm)])
    assert diagnostic_counts(after) == diagnostic_counts(before)


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25])
def test_weights_do_not_depend_on_memory_layout(alpha):
    # seed 191 at alpha 0.25 differed in the last bit of several weights
    # while the estimator kept the input's layout
    for seed in [191, *range(60)]:
        window = random_window(np.random.default_rng(seed))
        if window.degenerate:
            continue
        fortran = dataclasses.replace(
            window,
            returns=np.asfortranarray(window.returns),
            mask=np.asfortranarray(window.mask),
        )
        assert fortran.returns.flags.f_contiguous
        before = build_directed(window, alpha)
        after = build_directed(fortran, alpha)
        assert np.array_equal(after.matrix, before.matrix)
        assert after.diagnostics == before.diagnostics
