import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedflow.events import FeedCounts, FeedIndex
from feedflow.flows import (
    DegenerateFitError,
    EmpiricalDistribution,
    fit_power_law_mle,
    fit_two_regime,
    log_binned_curve,
    window_hours,
)
from feedflow.queues import queue_positions
from helpers import Event, EventKind, graph_of, log_of

HOUR = 3600


def small_fixture():
    g = graph_of([("u", "a"), ("u", "b")], nodes=["c"])
    log = log_of([
        Event(1, 0 * HOUR, "a", EventKind.TWEET),
        Event(2, 1 * HOUR, "a", EventKind.TWEET),
        Event(3, 2 * HOUR, "b", EventKind.TWEET),
        Event(4, 3 * HOUR, "u", EventKind.RETWEET, orig_event_id=1, orig_author="a"),
        Event(5, 4 * HOUR, "u", EventKind.TWEET),
        Event(6, 5 * HOUR, "c", EventKind.TWEET),
        Event(7, 6 * HOUR, "u", EventKind.RETWEET, orig_event_id=6, orig_author="c"),
    ])
    return g, log


def test_compute_flow_stats_hand_counts():
    g, log = small_fixture()
    counts = FeedCounts(log, g, (0, 12 * HOUR))
    assert g.nodes == ("a", "b", "c", "u")
    # u receives events 1,2,3 over 12 h; retweets one of them (event 4).
    assert counts.received().tolist() == [0, 0, 0, 3]
    assert counts.forwarded().tolist() == [0, 0, 0, 1]
    assert (counts.received() - counts.forwarded()).tolist() == [0, 0, 0, 2]
    # u posts events 4, 5, 7 -> 3 posts per half day = 6/day.
    assert counts.posted().tolist() == [2, 1, 1, 3]
    assert counts.followees.tolist() == [0, 0, 0, 2]


def test_repeated_forwards_of_one_item_count_once():
    g = graph_of([("u", "a")])
    log = log_of([
        Event(1, 0, "a", EventKind.TWEET),
        Event(2, 600, "a", EventKind.TWEET),
        *(Event(i, 600 * i, "u", EventKind.RETWEET, orig_event_id=1, orig_author="a")
          for i in (3, 4, 5)),
    ])
    counts = FeedCounts(log, g, (0, HOUR))
    u = g.index("u")
    received, forwarded = counts.received()[u], counts.forwarded()[u]
    assert (received, forwarded, received - forwarded, forwarded / received) == (2, 1, 1, 0.5)
    # Queue positions still give one record per forward.
    cols, _ = queue_positions("u", FeedIndex(log, g, (0, HOUR)))
    assert cols.retweet_id.tolist() == [3, 4, 5]


def test_retweet_of_non_followee_not_counted():
    g, log = small_fixture()
    counts = FeedCounts(log, g, (0, 12 * HOUR))
    assert counts.forwarded()[g.index("u")] == 1  # only event 4; event 7 forwards a non-followee


def test_retweet_of_out_of_window_original_not_counted():
    g, log = small_fixture()
    # Window starts after event 1 was posted, so its retweet has no in-window source.
    assert FeedCounts(log, g, (HOUR, 12 * HOUR)).forwarded()[g.index("u")] == 0


def test_original_author_outside_the_graph_is_not_followed():
    # b is node 1 of 3 and a (node 0) follows z (node 2): the key b * 3 + (-1)
    # of b's forward of x, who is no node, must not read as the edge a -> z.
    g = graph_of([("a", "z"), ("b", "a")])
    log = log_of([
        Event(1, 100, "x", EventKind.TWEET),
        Event(2, 200, "b", EventKind.RETWEET, orig_event_id=1, orig_author="x"),
        Event(3, 300, "z", EventKind.TWEET),
    ])
    counts = FeedCounts(log, g, (0, 1000))
    assert g.nodes == ("a", "b", "z")
    assert counts.received().tolist() == [1, 0, 0]
    assert counts.posted().tolist() == [0, 1, 1]
    assert counts.forwarded().tolist() == [0, 0, 0]
    source_set, out_of_feed = counts.sources()
    assert (source_set.tolist(), out_of_feed.tolist()) == ([0, 0, 0], [0, 1, 0])


def test_flow_stats_bad_window():
    with pytest.raises(ValueError):
        window_hours((5, 5))


def test_empirical_distribution_ccdf():
    d = EmpiricalDistribution([1.0, 2.0, 2.0, 5.0])
    assert d.ccdf(1.0) == pytest.approx(1.0)
    assert d.ccdf(2.0) == pytest.approx(0.75)
    assert d.ccdf(5.0) == pytest.approx(0.25)
    assert d.ccdf(5.1) == pytest.approx(0.0)
    vals, cc = d.ccdf_points()
    assert vals.tolist() == [1.0, 2.0, 5.0]
    assert cc.tolist() == [1.0, 0.75, 0.25]
    with pytest.raises(ValueError):
        EmpiricalDistribution([])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
def test_ccdf_properties(samples):
    d = EmpiricalDistribution(samples)
    xs = np.sort(np.asarray(samples))
    cc = d.ccdf(xs)
    assert np.all(np.diff(cc) <= 1e-12)          # non-increasing
    assert d.ccdf(xs[0]) == pytest.approx(1.0)   # everything >= the minimum
    assert d.ccdf(xs[-1]) >= 1 / d.n - 1e-12


def test_log_binned_curve_assignment():
    x = [1.0, 1.05, 2.0, 15.0, 150.0, -3.0, 0.0]
    y = [1.0, 3.0, 5.0, 7.0, 9.0, 99.0, 99.0]
    bins = log_binned_curve(x, y, bins_per_decade=1)
    # Non-positive x dropped; decade bins [1,10), [10,100), [100,1000).
    assert [b.n for b in bins] == [3, 1, 1]
    assert bins[0].mean == pytest.approx(3.0)
    assert bins[0].median == pytest.approx(3.0)
    assert bins[1].mean == pytest.approx(7.0)
    for b in bins:
        assert b.lo <= b.center <= b.hi
    assert log_binned_curve([-1.0], [0.0]) == []


def test_log_binned_curve_bins_contain_their_points():
    rng = np.random.default_rng(0)
    x = 10 ** rng.uniform(-1, 3, 500)
    y = rng.random(500)
    bins = log_binned_curve(x, y, bins_per_decade=10)
    assert sum(b.n for b in bins) == 500
    for b in bins:
        inside = (x >= b.lo * (1 - 1e-12)) & (x < b.hi * (1 + 1e-12))
        assert inside.sum() == b.n


def test_power_law_mle_formula():
    samples = [1.0, 2.0, 4.0]
    fit = fit_power_law_mle(samples, x_min=1.0)
    assert fit.alpha == pytest.approx(1 + 3 / math.log(8.0))
    assert fit.n == 3


def test_power_law_mle_errors():
    with pytest.raises(DegenerateFitError):
        fit_power_law_mle([5.0], x_min=1.0)
    with pytest.raises(DegenerateFitError):
        fit_power_law_mle([2.0, 2.0], x_min=2.0)
    with pytest.raises(ValueError):
        fit_power_law_mle([1.0, 2.0], x_min=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.1, 100.0))
def test_power_law_mle_scale_equivariance(seed, scale):
    rng = np.random.default_rng(seed)
    x = rng.pareto(1.8, 200) + 1.0
    a1 = fit_power_law_mle(x, 1.0).alpha
    a2 = fit_power_law_mle(x * scale, scale).alpha
    assert a1 == pytest.approx(a2, rel=1e-9)


def two_regime_points(lambda_c=30.0, beta0=0.05, gamma=0.65):
    lams = np.concatenate([np.logspace(0, math.log10(lambda_c), 8),
                           np.logspace(math.log10(lambda_c), 3, 10)[1:]])
    betas = [beta0 if l <= lambda_c else beta0 * (l / lambda_c) ** (-gamma)
             for l in lams]
    return list(zip(lams.tolist(), betas))


def test_fit_two_regime_noiseless_recovery():
    fit = fit_two_regime(two_regime_points())
    assert fit.overload_detected
    assert fit.lambda_c == pytest.approx(30.0, rel=1e-6)
    assert fit.beta0 == pytest.approx(0.05, rel=1e-6)
    assert fit.gamma == pytest.approx(0.65, abs=1e-6)
    assert fit.residual < 1e-12
    assert fit.mle_exponent is not None


def test_fit_two_regime_flat_curve():
    pts = [(l, 0.04) for l in np.logspace(0, 3, 12)]
    fit = fit_two_regime(pts)
    assert not fit.overload_detected
    assert fit.gamma == 0.0
    assert fit.beta0 == pytest.approx(0.04)


def test_fit_two_regime_increasing_curve_not_overload():
    pts = [(l, 0.01 * l ** 0.3) for l in np.logspace(0, 3, 12)]
    fit = fit_two_regime(pts)
    assert not fit.overload_detected


def test_fit_two_regime_needs_points():
    with pytest.raises(ValueError):
        fit_two_regime([(1.0, 0.1), (2.0, 0.1), (0.0, 0.5)])
