import numpy as np
import pytest

from feedflow.events import FeedIndex, UnknownUserError
from feedflow.sources import fit_source_regimes
from helpers import Event, EventKind, graph_of, log_of


def fixture():
    g = graph_of([("u", "a"), ("u", "b"), ("u", "c")], nodes=["x"])
    log = log_of([
        Event(1, 100, "a", EventKind.TWEET),
        Event(2, 200, "b", EventKind.TWEET),
        Event(3, 300, "x", EventKind.TWEET),
        Event(4, 400, "u", EventKind.RETWEET, orig_event_id=1, orig_author="a"),
        Event(5, 500, "u", EventKind.RETWEET, orig_event_id=2, orig_author="b"),
        Event(6, 600, "u", EventKind.RETWEET, orig_event_id=3, orig_author="x"),
        Event(7, 700, "a", EventKind.TWEET),
        Event(8, 800, "u", EventKind.RETWEET, orig_event_id=7, orig_author="a"),
    ])
    return g, log


def test_source_stats_counts():
    g, log = fixture()
    counts = FeedIndex(log, g, (0, 1000))
    u = g.index("u")
    source_set, out_of_feed = counts.sources()
    assert counts.followees[u] == 3
    assert source_set[u] == 2          # a and b; x is not followed
    assert source_set[u] / counts.followees[u] == pytest.approx(2 / 3)
    assert out_of_feed[u] == 1         # the forward from x


def test_source_stats_window():
    g, log = fixture()
    u = g.index("u")
    source_set, out_of_feed = FeedIndex(log, g, (450, 1000)).sources()
    assert source_set[u] == 2          # forwards 5 and 8 (from b and a)
    assert out_of_feed[u] == 1         # forward 6 of x, whose original is before the window
    source_set, _ = FeedIndex(log, g, (0, 450)).sources()
    assert source_set[u] == 1


def test_source_stats_no_followees():
    g, log = fixture()
    counts = FeedIndex(log, g, (0, 1000))
    x = g.index("x")
    assert counts.followees[x] == 0 and counts.sources()[0][x] == 0
    with pytest.raises(UnknownUserError):
        g.index("ghost")


def piecewise_points(f_c=100.0, e_low=0.9, e_high=0.4, s_c=30.0):
    fs = np.concatenate([np.logspace(0, np.log10(f_c), 7),
                         np.logspace(np.log10(f_c), 3.5, 8)[1:]])
    out = []
    for f in fs:
        if f <= f_c:
            out.append((float(f), s_c * (f / f_c) ** e_low))
        else:
            out.append((float(f), s_c * (f / f_c) ** e_high))
    return out


def test_fit_source_regimes_noiseless_recovery():
    fit = fit_source_regimes(piecewise_points())
    assert fit.identifiable
    assert fit.f_c == pytest.approx(100.0, rel=1e-6)
    assert fit.exponent_low == pytest.approx(0.9, abs=1e-6)
    assert fit.exponent_high == pytest.approx(0.4, abs=1e-6)
    assert fit.residual < 1e-12


def test_fit_source_regimes_single_power_law_unidentifiable():
    pts = [(float(f), 2.0 * f ** 0.7) for f in np.logspace(0, 3, 10)]
    fit = fit_source_regimes(pts)
    assert not fit.identifiable
    assert fit.exponent_low == pytest.approx(0.7, abs=1e-6)
    assert fit.exponent_high == pytest.approx(0.7, abs=1e-6)


def test_fit_source_regimes_needs_points():
    with pytest.raises(ValueError):
        fit_source_regimes([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
