"""Tail estimators against sort-based oracles, plus impact and weight
identities."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from risknet.errors import DegeneratePairError, EstimationError
from risknet.measures import (
    edge_weight,
    estimate_es,
    estimate_mes,
    estimate_var,
    impact,
    risk_profile,
)


def sorted_var_es(series, alpha):
    """Oracle: explicit sort, k-th entry, mean of the first k-or-more
    entries at or below it."""
    ordered = sorted(series)
    k = max(1, math.floor(alpha * len(ordered)))
    q = ordered[k - 1]
    tail = [x for x in ordered if x <= q]
    return q, -sum(tail) / len(tail)


def test_var_is_worst_day_on_short_series():
    series = np.array([-0.10, -0.05, 0.0, 0.01, 0.02, 0.03, 0.04])
    # alpha=0.3 with T=7 gives k=2
    assert estimate_var(series, 0.3) == -0.05
    assert estimate_var(series, 1 / 7) == -0.10


def test_var_es_match_sort_oracle_on_random_series():
    rng = np.random.default_rng(42)
    for _ in range(200):
        t = int(rng.integers(5, 60))
        alpha = float(rng.uniform(1.0 / t + 1e-9, 0.49))
        if math.ceil(1.0 / alpha) > t:
            continue
        series = np.round(rng.normal(size=t), 3)  # rounding forces ties
        q, es = sorted_var_es(series, alpha)
        assert estimate_var(series, alpha) == q
        assert estimate_es(series, alpha) == pytest.approx(es, rel=1e-14)


def test_es_at_least_loss_quantile():
    rng = np.random.default_rng(9)
    for _ in range(100):
        series = rng.standard_t(df=3, size=int(rng.integers(20, 80)))
        q = estimate_var(series, 0.05)
        assert estimate_es(series, 0.05) >= -q - 1e-14


def test_estimators_reject_bad_input():
    with pytest.raises(EstimationError, match="at least 20"):
        estimate_var(np.zeros(19), 0.05)
    with pytest.raises(EstimationError, match="non-finite"):
        estimate_var(np.array([0.1, np.nan] + [0.0] * 20), 0.05)
    with pytest.raises(EstimationError, match="tail level"):
        estimate_var(np.zeros(30), 0.6)
    with pytest.raises(EstimationError, match="aligned"):
        estimate_mes(np.zeros(10), np.zeros(20), 0.1)


def test_mes_of_series_with_itself_is_es():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = int(rng.integers(20, 100))
        series = rng.normal(scale=0.03, size=t)
        assert estimate_mes(series, series, 0.05) == pytest.approx(
            estimate_es(series, 0.05), abs=1e-15
        )


def test_mes_conditions_on_source_tail_days():
    target = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    source = np.array([0.0, -1.0, 0.0, -2.0, 0.0])
    # alpha=0.4, T=5 -> k=2 -> q=-1, tail days are indices 1 and 3
    assert estimate_mes(target, source, 0.4) == -3.0


def test_identical_series_give_weight_one():
    rng = np.random.default_rng(17)
    for _ in range(30):
        series = rng.normal(size=25)
        prof = risk_profile("X", series, 0.05)
        mes = estimate_mes(series, series, 0.05)
        assert edge_weight(prof, prof, mes) == 1.0


def test_impact_clipped_and_degenerate_raises():
    series = np.concatenate([np.array([-0.10, -0.05]), np.full(38, 0.01)])
    prof = risk_profile("X", series, 0.05)
    # impact is the gap between own-tail loss and conditional loss: a
    # conditional loss beyond the own ES clips at 0 (max co-movement), a
    # conditional gain clips at 1 (no tail information)
    assert impact(prof, 10.0) == 0.0
    assert impact(prof, -10.0) == 1.0
    flat = risk_profile("Y", np.zeros(40), 0.05)
    with pytest.raises(DegeneratePairError, match="Y"):
        impact(flat, 0.0)


def test_weight_zero_when_condition_fails_and_complement_otherwise():
    rng = np.random.default_rng(23)
    for _ in range(200):
        t = int(rng.integers(20, 60))
        target = rng.normal(size=t)
        source = rng.normal(size=t)
        prof_t = risk_profile("T", target, 0.05)
        prof_s = risk_profile("S", source, 0.05)
        mes = estimate_mes(target, source, 0.05)
        w = edge_weight(prof_t, prof_s, mes)
        assert 0.0 <= w <= 1.0
        if prof_t.mean_return < -mes:
            assert w == 0.0
        else:
            assert w == pytest.approx(1.0 - impact(prof_t, mes), abs=1e-15)


def test_weight_invariant_under_scaling_and_target_shift():
    rng = np.random.default_rng(31)
    for _ in range(60):
        t = int(rng.integers(20, 50))
        target = rng.normal(size=t)
        source = rng.normal(size=t)
        scale_t = float(rng.uniform(0.1, 9.0))
        scale_s = float(rng.uniform(0.1, 9.0))
        shift = float(rng.uniform(-0.5, 0.5))

        def weight(tgt, src):
            mes = estimate_mes(tgt, src, 0.1)
            return edge_weight(
                risk_profile("T", tgt, 0.1), risk_profile("S", src, 0.1), mes
            )

        base = weight(target, source)
        assert weight(scale_t * target, scale_s * source) == pytest.approx(
            base, abs=1e-12
        )
        assert weight(target + shift, source) == pytest.approx(base, abs=1e-9)


def test_risk_profile_tail_days_are_the_quantile_days():
    series = np.array([0.02, -0.08, 0.01, -0.03] + [0.005] * 20)
    prof = risk_profile("X", series, 0.05)
    assert prof.var_q == -0.08
    assert prof.tail_days == (1,)
    assert prof.es == pytest.approx(0.08)
    assert prof.n_obs == 24
