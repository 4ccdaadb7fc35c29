import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedflow.exposure import (
    NEVER,
    ContagionTrace,
    TokenNotFoundError,
    aggregate_curves,
    build_trace,
    exposure_curve,
    group_users_by_inflow,
)
from helpers import (
    Event,
    EventKind,
    graph_of,
    log_of,
    naive_build_trace,
    naive_exposure_curve,
    naive_user_exposure_path,
)


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
    got_visited, got_k = naive_user_exposure_path(list(transitions), adoption)
    assert got_visited == visited
    assert got_k == k_adopt


def contagion_fixture():
    # a, b adopt; u follows both; w follows a only; v never exposed; x adopts
    # but is not in the graph.
    g = graph_of([("u", "a"), ("u", "b"), ("w", "a")], nodes=["v"])
    log = log_of([
        Event(1, 100, "a", EventKind.TWEET, marks=frozenset({"tok"})),
        Event(2, 200, "b", EventKind.TWEET, marks=frozenset({"tok"})),
        Event(3, 300, "u", EventKind.TWEET, marks=frozenset({"tok"})),
        Event(4, 400, "w", EventKind.TWEET),
        Event(5, 500, "x", EventKind.TWEET, marks=frozenset({"tok"})),
    ])
    return g, log


def test_build_trace():
    g, log = contagion_fixture()
    trace = build_trace("tok", log, g, (0, 1000))
    a, b, u, v, w = g.nodes_of(["a", "b", "u", "v", "w"])
    # x comes after the graph's five nodes.
    assert trace.outsiders == {"x": 5}
    assert trace.adopted_at[[a, b, u, 5]].tolist() == [100, 200, 300, 500]
    assert trace.adopted_at[[v, w]].tolist() == [NEVER, NEVER]
    # Sorted by user, then time: u by a and b, w by a; v follows nobody.
    assert list(zip(trace.exposed.tolist(), trace.exposed_at.tolist())) == [
        (u, 100), (u, 200), (w, 100)]
    assert trace.n_pre_window_adopters == 0
    with pytest.raises(TokenNotFoundError):
        build_trace("nope", log, g, (0, 1000))


def test_build_trace_pre_window_adopters_excluded():
    g, log = contagion_fixture()
    # Window starts after a adopted: a is dropped entirely and exposes nobody;
    # x adopts after the window and is no outsider.
    trace = build_trace("tok", log, g, (150, 450))
    a, u = g.nodes_of(["a", "u"])
    assert trace.adopted_at[a] == NEVER
    assert trace.n_pre_window_adopters == 1
    assert trace.outsiders == {} and len(trace.adopted_at) == len(g.nodes)
    assert trace.exposed.tolist() == [u] and trace.exposed_at.tolist() == [200]


def test_exposure_curve_hand_counts():
    g, log = contagion_fixture()
    trace = build_trace("tok", log, g, (0, 1000))
    curve = exposure_curve(trace, ["u", "w", "v"], min_e=1)
    # u visits k=0,1,2 and adopts at k=2; w visits 0,1; v visits 0 only.
    assert curve.e.tolist() == [3, 2, 1]
    assert curve.i.tolist() == [0, 0, 1]
    assert curve.p[2] == pytest.approx(1.0)
    assert np.isnan(curve.p).sum() == 0
    # x adopts unexposed; a name in neither the graph nor the log counts at k=0 only.
    assert exposure_curve(trace, ["x", "ghost"], min_e=1).i.tolist() == [1]
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
    # Groups come in the order the ranges are given, users in the mapping's order;
    # a gap between ranges, a NaN rate and an empty mapping hold no one.
    lam = {"z": 3.0, "y": 20.0, "x": 2.0, "w": math.nan, "v": 15.0, "u": 12.0}
    groups = group_users_by_inflow(lam, [(10.0, 20.0), (1.0, 5.0)])
    assert list(groups) == [(10.0, 20.0), (1.0, 5.0)]
    assert groups == {(10.0, 20.0): ["y", "v", "u"], (1.0, 5.0): ["z", "x"]}
    assert group_users_by_inflow({}, [(1.0, 5.0)]) == {(1.0, 5.0): []}
    assert group_users_by_inflow(lam, []) == {}


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
    # A trace built by hand: a adopts at 0 unexposed, u follows a and never adopts.
    g = graph_of([("u", "a")])
    trace = ContagionTrace("t", (0, 1), g, {}, np.array([0, NEVER]), np.array([1]),
                           np.array([0]), 0)
    assert trace.token == "t" and trace.n_pre_window_adopters == 0
    curve = exposure_curve(trace, ["u", "a"], min_e=1)
    assert curve.e.tolist() == [2, 1] and curve.i.tolist() == [1, 0]


NODES = ["n0", "n1", "n2", "n3", "n4", "n5"]
USERS = NODES + ["x0", "x1"]  # x0 and x1 are never graph nodes


@st.composite
def contagions(draw):
    """A graph over some of NODES, a log of USERS over few distinct times (so
    exposures and adoptions coincide), some marked with the token, a window,
    and a group naming users, outsiders and unknown names, some twice."""
    n = draw(st.integers(1, len(NODES)))
    pairs = [(a, b) for a in NODES[:n] for b in NODES[:n] if a != b]
    edges = [e for e, kept in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if kept]
    rows = draw(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(USERS),
                                   st.sampled_from([True, True, False])),
                         min_size=1, max_size=25))
    rows[0] = (*rows[0][:2], True)
    log = log_of([Event(i, ts, author, EventKind.TWEET,
                        marks=frozenset({"tok"}) if marked else frozenset())
                  for i, (ts, author, marked) in enumerate(rows)])
    start = draw(st.integers(-1, 4))
    window = (start, draw(st.integers(start, 5)))
    users = draw(st.lists(st.sampled_from(USERS + ["ghost"]), min_size=1, max_size=12))
    return graph_of(edges, nodes=NODES[:n]), log, window, users


# n1 and n2 expose n0 at once, at the instant n0 adopts; n3 adopts before the
# window; x0 adopts outside the graph; n0 is named twice and "ghost" is unknown.
EVERY_CASE = (graph_of([("n0", "n1"), ("n0", "n2"), ("n0", "n3"), ("n4", "n1")]),
              log_of([Event(i, ts, u, EventKind.TWEET, marks=frozenset({"tok"})) for i, (ts, u)
                      in enumerate([(0, "n3"), (1, "n1"), (1, "n2"), (1, "n0"), (2, "x0")])]),
              (1, 4), ["n0", "n0", "x0", "ghost", "n4"])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(contagions(), st.integers(0, 3), st.one_of(st.none(), st.integers(0, 5)))
@example(EVERY_CASE, 1, None)
@example(EVERY_CASE, 0, 3)
def test_trace_and_curve_match_the_dict_oracle(case, min_e, k_max):
    graph, log, window, users = case
    trace = build_trace("tok", log, graph, window)
    want = naive_build_trace("tok", log, graph, window)
    names = list(graph.nodes) + list(trace.outsiders)
    assert list(trace.outsiders.values()) == list(range(len(graph.nodes), len(names)))
    assert {names[p]: t for p, t in enumerate(trace.adopted_at.tolist())
            if t != NEVER} == want.adopted_at
    exposures: dict[str, list[int]] = {}
    for p, t in zip(trace.exposed.tolist(), trace.exposed_at.tolist()):
        exposures.setdefault(names[p], []).append(t)
    assert {u: tuple(ts) for u, ts in exposures.items()} == want.exposures
    assert trace.n_pre_window_adopters == want.n_pre_window_adopters
    got = exposure_curve(trace, users, min_e=min_e, k_max=k_max)
    expected = naive_exposure_curve(want, users, min_e=min_e, k_max=k_max)
    for column in ("e", "i", "p"):
        assert getattr(got, column).tobytes() == getattr(expected, column).tobytes()
