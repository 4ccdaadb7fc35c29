import math

import numpy as np
import pytest

from feedflow.exposure import (
    ContagionTrace,
    TokenNotFoundError,
    _user_exposure_path,
    aggregate_curves,
    build_trace,
    exposure_curve,
    group_users_by_inflow,
)
from helpers import Event, EventKind, graph_of, log_of


@pytest.mark.parametrize("transitions,adoption,visited,k_adopt", [
    ((), None, [0], None),
    ((), 5, [0], 0),                       # spontaneous adopter
    ((10, 20, 30), None, [0, 1, 2, 3], None),
    ((10, 20, 30), 25, [0, 1, 2], 2),      # adopts between 2nd and 3rd exposure
    ((10, 20, 30), 20, [0, 1, 2], 2),      # tie: exposure processed first
    ((10, 10, 30), 15, [0, 2], 2),         # simultaneous pair: k jumps, 1 skipped
    ((10, 10, 10), None, [0, 3], None),
    ((10, 20), 5, [0], 0),                 # adopted before any exposure
])
def test_user_exposure_path(transitions, adoption, visited, k_adopt):
    got_visited, got_k = _user_exposure_path(list(transitions), adoption)
    assert got_visited == visited
    assert got_k == k_adopt


def contagion_fixture():
    # a, b adopt; u follows both; w follows a only; v never exposed.
    g = graph_of([("u", "a"), ("u", "b"), ("w", "a")], nodes=["v"])
    log = log_of([
        Event(1, 100, "a", EventKind.TWEET, marks=frozenset({"tok"})),
        Event(2, 200, "b", EventKind.TWEET, marks=frozenset({"tok"})),
        Event(3, 300, "u", EventKind.TWEET, marks=frozenset({"tok"})),
        Event(4, 400, "w", EventKind.TWEET),
    ])
    return g, log


def test_build_trace():
    g, log = contagion_fixture()
    trace = build_trace("tok", log, g, (0, 1000))
    assert trace.adopted_at == {"a": 100, "b": 200, "u": 300}
    assert trace.exposures["u"] == (100, 200)
    assert trace.exposures["w"] == (100,)
    assert "v" not in trace.exposures
    assert trace.n_pre_window_adopters == 0
    with pytest.raises(TokenNotFoundError):
        build_trace("nope", log, g, (0, 1000))


def test_build_trace_pre_window_adopters_excluded():
    g, log = contagion_fixture()
    # Window starts after a adopted: a is dropped entirely and exposes nobody.
    trace = build_trace("tok", log, g, (150, 1000))
    assert "a" not in trace.adopted_at
    assert trace.n_pre_window_adopters == 1
    assert trace.exposures["u"] == (200,)
    assert "w" not in trace.exposures


def test_exposure_curve_hand_counts():
    g, log = contagion_fixture()
    trace = build_trace("tok", log, g, (0, 1000))
    curve = exposure_curve(trace, ["u", "w", "v"], min_e=1)
    # u visits k=0,1,2 and adopts at k=2; w visits 0,1; v visits 0 only.
    assert curve.e.tolist() == [3, 2, 1]
    assert curve.i.tolist() == [0, 0, 1]
    assert curve.p[2] == pytest.approx(1.0)
    assert np.isnan(curve.p).sum() == 0
    with pytest.raises(ValueError):
        exposure_curve(trace, [])


def test_exposure_curve_k_max_threshold():
    g, log = contagion_fixture()
    trace = build_trace("tok", log, g, (0, 1000))
    curve = exposure_curve(trace, ["u", "w", "v"], min_e=2)
    assert curve.k_max == 1        # E(2)=1 falls below the threshold
    explicit = exposure_curve(trace, ["u", "w", "v"], k_max=5)
    assert explicit.k_max == 5
    assert np.isnan(explicit.p[3])  # E(3)=0


def test_group_users_by_inflow():
    lam = {"a": 0.5, "b": 5.0, "c": 10.0, "d": 50.0, "e": 500.0}
    groups = group_users_by_inflow(lam, [(1.0, 10.0), (10.0, 100.0)])
    # (lo, hi] intervals: 10.0 belongs to the first group, 0.5 and 500 to none.
    assert groups[(1.0, 10.0)] == ["b", "c"]
    assert groups[(10.0, 100.0)] == ["d"]
    with pytest.raises(ValueError, match="overlap"):
        group_users_by_inflow(lam, [(1.0, 10.0), (5.0, 20.0)])
    with pytest.raises(ValueError, match="empty range"):
        group_users_by_inflow(lam, [(10.0, 10.0)])
    for nan_edge in ((math.nan, 10.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="empty range"):
            group_users_by_inflow(lam, [nan_edge])
    assert group_users_by_inflow(lam, [(0.0, math.inf)])[(0.0, math.inf)] == list(lam)


def test_aggregate_curves_pooled_and_mean():
    g, log = contagion_fixture()
    trace = build_trace("tok", log, g, (0, 1000))
    c1 = exposure_curve(trace, ["u", "w", "v"], min_e=1)
    c2 = exposure_curve(trace, ["w"], min_e=1)
    pooled = aggregate_curves([c1, c2], mode="pooled")
    assert pooled.e.tolist() == [4, 3, 1]
    assert pooled.p[0] == pytest.approx(0.0)
    mean = aggregate_curves([c1, c2], mode="mean")
    # Mean of per-curve P(k); the short curve contributes nan beyond its k_max.
    assert mean.p[1] == pytest.approx(0.0)
    assert mean.p[2] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        aggregate_curves([], mode="mean")
    with pytest.raises(ValueError):
        aggregate_curves([c1], mode="median")


def test_trace_is_plain_data():
    trace = ContagionTrace("t", (0, 1), {}, {}, 0)
    assert trace.token == "t" and trace.n_pre_window_adopters == 0
