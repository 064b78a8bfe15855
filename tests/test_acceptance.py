"""Acceptance suite: the contract the package has to honour end to end.

Each test covers one criterion and prints a single PASS/FAIL line on the
real terminal (past pytest's capture) so a scan of the run output shows
the verdicts at a glance.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from graphgen import from_weights, random_connected
from oracles import (
    edge_weight,
    effective_resistance_oracle,
    estimate_es,
    estimate_mes,
    estimate_var,
    impact,
    kirchhoff_index,
    risk_profile,
)
from risknet.panel import save_returns
from risknet.pipeline import run_study, write_study
from risknet.reports import ALL_PERIODS, StudyConfig
from risknet.spectral import (
    barrat_clustering,
    normalized_kirchhoff,
    spectrum,
    weighted_laplacian,
    werc_all,
)
from risknet.synthetic import generate_panel, month_span


@contextmanager
def verdict(capsys, tag: str):
    """Print '<tag>: PASS' or '<tag>: FAIL' once the block settles."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{tag}: FAIL")
        raise
    with capsys.disabled():
        print(f"{tag}: PASS")


def kirchhoff_of(net) -> float:
    return kirchhoff_index(spectrum(weighted_laplacian(net)))


# --- criterion 1: two independent routes to total resistance agree ----------


def test_c1_spectral_matches_resistance_distance(capsys):
    with verdict(capsys, "[C1] spectral vs resistance-distance Kirchhoff"):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(3, 9))
            net = random_connected(rng, n)
            via_spectrum = kirchhoff_of(net)
            via_resistance = effective_resistance_oracle(net)
            rel = abs(via_spectrum - via_resistance) / via_spectrum
            assert rel <= 1e-9
        assert time.perf_counter() - started < 10.0


# --- criterion 2: closed-form fixtures --------------------------------------


def test_c2_closed_form_fixtures(capsys):
    with verdict(capsys, "[C2] closed-form network fixtures"):
        pair = from_weights(np.array([[0.0, 0.8], [0.8, 0.0]]))
        assert abs(kirchhoff_of(pair) - 1.25) <= 1e-12

        triangle = from_weights(
            np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        )
        k = kirchhoff_of(triangle)
        assert abs(k - 2.0) <= 1e-12
        assert abs(normalized_kirchhoff(k, 3) - 2.0 / 3.0) <= 1e-12

        chain = from_weights(
            np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        )
        k = kirchhoff_of(chain)
        assert abs(k - 4.0) <= 1e-12
        assert abs(normalized_kirchhoff(k, 3) - 4.0 / 3.0) <= 1e-12

        # dropping a leaf tightens the chain, dropping the middle cuts it
        assert abs(werc_all(chain).impacts[0] - (-0.25)) <= 1e-12
        assert abs(werc_all(chain).impacts[2] - (-0.25)) <= 1e-12
        assert werc_all(chain).impacts[1] == math.inf


# --- criterion 3: heavier networks never raise total resistance -------------


def test_c3_kirchhoff_monotone_in_weights(capsys):
    with verdict(capsys, "[C3] Kirchhoff monotone under heavier coupling"):
        rng = np.random.default_rng(202)
        bumped = added = 0
        for _ in range(200):
            net = random_connected(rng, int(rng.integers(4, 9)))
            base = kirchhoff_of(net)
            w = net.weights.copy()

            edges = np.argwhere(np.triu(w) > 0)
            i, j = edges[rng.integers(len(edges))]
            w[i, j] = w[j, i] = w[i, j] + (1.0 - w[i, j]) * rng.uniform(0.2, 0.9)
            assert kirchhoff_of(from_weights(w)) < base - 1e-12
            bumped += 1

            holes = np.argwhere((np.triu(net.weights, k=1) == 0))
            holes = holes[holes[:, 0] < holes[:, 1]]
            if len(holes):
                w2 = net.weights.copy()
                i, j = holes[rng.integers(len(holes))]
                w2[i, j] = w2[j, i] = rng.uniform(0.1, 0.9)
                assert kirchhoff_of(from_weights(w2)) < base - 1e-12
                added += 1
        assert bumped >= 100 and added >= 100


# --- criterion 4: tail estimators against an order-statistics oracle --------


def test_c4_tail_estimators_vs_oracle(capsys):
    with verdict(capsys, "[C4] tail estimators vs order-statistics oracle"):
        # Base values are multiples of 1/8, so every partial sum is exact
        # and the estimates cannot depend on input order even at the ulp.
        base_pool = np.array([-5, -3, -1, 1, 2, 3, 4, 6], dtype=float) / 8.0
        for t in range(4, 9):
            base = base_pool[:t]
            srt = np.sort(base)
            for alpha in (0.3, 0.45):
                k = max(1, math.floor(alpha * t))
                want_var = srt[k - 1]
                want_es = -float(np.mean(srt[:k]))
                for perm in itertools.permutations(base):
                    series = np.array(perm)
                    assert estimate_var(series, alpha) == want_var
                    assert estimate_es(series, alpha) == want_es

        rng = np.random.default_rng(303)
        for _ in range(50):
            series = rng.normal(scale=0.02, size=int(rng.integers(25, 90)))
            own = estimate_es(series, 0.05)
            assert abs(estimate_mes(series, series, 0.05) - own) <= 1e-12

        for _ in range(30):
            series = rng.normal(size=40)
            prof = risk_profile("A", series, 0.05)
            mes = estimate_mes(series, series, 0.05)
            assert edge_weight(prof, prof, mes) == 1.0

        for _ in range(20):
            x = rng.normal(size=5000)
            y = rng.normal(size=5000)
            prof = risk_profile("A", x, 0.05)
            src = risk_profile("B", y, 0.05)
            mes = estimate_mes(x, y, 0.05)
            assert edge_weight(prof, src, mes) < 0.15


# --- criterion 5: edge weights bounded and scale/shift stable ---------------


def test_c5_weight_range_and_invariance(capsys):
    with verdict(capsys, "[C5] edge weights bounded, scale and shift stable"):
        rng = np.random.default_rng(404)
        for _ in range(200):
            t = int(rng.integers(30, 120))
            source = rng.standard_t(df=4, size=t)
            target = rng.uniform(0.0, 0.9) * source + rng.normal(size=t)

            def measures_of(tgt, src):
                prof = risk_profile("T", tgt, 0.05)
                mes = estimate_mes(tgt, src, 0.05)
                return (
                    impact(prof, mes),
                    edge_weight(prof, risk_profile("S", src, 0.05), mes),
                )

            i_val, w = measures_of(target, source)
            assert 0.0 <= w <= 1.0 and 0.0 <= i_val <= 1.0
            variants = [(c * target, c * source) for c in (1e-4, 3.7, 1e3)]
            variants.append((target + float(rng.uniform(-0.5, 0.5)), source))
            for tgt, src in variants:
                i_other, w_other = measures_of(tgt, src)
                assert abs(i_other - i_val) <= 1e-12
                assert abs(w_other - w) <= 1e-12


# --- criterion 6: weighted clustering ---------------------------------------


def test_c6_weighted_clustering(capsys):
    with verdict(capsys, "[C6] weighted clustering coefficient"):
        triangle = from_weights(
            np.array([[0, 0.4, 0.4], [0.4, 0, 0.4], [0.4, 0.4, 0]], dtype=float)
        )
        assert all(barrat_clustering(triangle, v) == 1.0 for v in range(3))

        star = np.zeros((4, 4))
        star[0, 1:] = star[1:, 0] = 0.7
        hub = from_weights(star)
        assert all(barrat_clustering(hub, v) == 0.0 for v in range(4))

        rng = np.random.default_rng(505)
        for _ in range(100):
            n = int(rng.integers(4, 10))
            net = random_connected(rng, n)

            flat = from_weights(np.where(net.weights > 0, 0.6, 0.0))
            adj = flat.adjacency
            for v in range(n):
                k = int(adj[v].sum())
                if k < 2:
                    binary = 0.0
                else:
                    closed = (adj[v][:, None] * adj[v][None, :] * adj).sum() / 2
                    binary = 2.0 * closed / (k * (k - 1))
                assert abs(barrat_clustering(flat, v) - binary) <= 1e-12

            for v in range(n):
                assert 0.0 <= barrat_clustering(net, v) <= 1.0


# --- criteria 7 and 8: the full study ---------------------------------------


@pytest.fixture(scope="module")
def full_study(tmp_path_factory):
    """The reference study, run twice from the same saved panel."""
    base = tmp_path_factory.mktemp("study")
    source = base / "returns.csv"
    save_returns(generate_panel(), source)

    first = StudyConfig(input_path=source, out_dir=base / "run1")
    started = time.perf_counter()
    result = run_study(first)
    elapsed = time.perf_counter() - started
    write_study(result, first, first.out_dir)

    second = StudyConfig(input_path=source, out_dir=base / "run2")
    write_study(run_study(second), second, second.out_dir)
    return SimpleNamespace(
        result=result, elapsed=elapsed, run1=first.out_dir, run2=second.out_dir
    )


def test_c7_end_to_end_study(capsys, full_study):
    with verdict(capsys, "[C7] end-to-end study on the factor panel"):
        result = full_study.result
        assert full_study.elapsed < 300.0
        assert len(result.reports) == 180

        overall = next(t for t in result.rankings if t.period == ALL_PERIODS)
        carrier = next(r for r in overall.rows if r.firm == "F000")
        assert carrier.quartile == 1

        regime = {f"{y:04d}-{m:02d}" for y, m in month_span((2008, 1), (2009, 6))}
        dense_in, dense_out, resist_in, resist_out = [], [], [], []
        for report in result.reports:
            (dense_in if report.label in regime else dense_out).append(report.density)
            (resist_in if report.label in regime else resist_out).append(
                report.normalized_kirchhoff
            )
        assert statistics.median(dense_in) > statistics.median(dense_out)
        assert statistics.median(resist_in) > statistics.median(resist_out)


def test_c8_outputs_byte_stable(capsys, full_study):
    with verdict(capsys, "[C8] repeated runs byte-identical"):
        one, two = full_study.run1, full_study.run2
        rel = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        assert rel == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
        assert {p.parent.name for p in one.rglob("*.json")} == {
            "networks",
            "reports",
        }
        assert (one / "timeseries.csv").is_file()
        assert any(p.parent.name == "rankings" for p in rel)
        for path in rel:
            assert (one / path).read_bytes() == (two / path).read_bytes(), path
