import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedflow.events import (
    Event,
    EventKind,
    EventLog,
    FeedIndex,
    LogFormatError,
    SocialGraph,
    UnknownUserError,
    parse_event_log,
)
from helpers import random_graph, random_log

GOOD_LINES = [
    "100\talice\tT\t1",
    "150\tbob\tT\t2\t\n".rstrip(),  # trailing newline stripped by parser
    "200\tcarol\tR\t3\t1\talice",
    "200\tdave\tT\t4\tpromo,viral",
    "250\talice\tR\t5\t4\tdave\tviral",
]


def test_parse_valid_lines():
    log, report = parse_event_log([l + "\n" for l in GOOD_LINES])
    assert report.n_rejected == 0
    assert len(log) == 5
    assert [e.event_id for e in log] == [1, 2, 3, 4, 5]  # (ts, id) order
    rt = log.get(3)
    assert rt.kind is EventKind.RETWEET
    assert rt.orig_event_id == 1 and rt.orig_author == "alice"
    assert log.get(4).marks == {"promo", "viral"}


@pytest.mark.parametrize("line,reason_part", [
    ("abc\talice\tT\t1", "timestamp"),
    ("100\t\tT\t1", "empty author"),
    ("100\talice\tX\t1", "bad kind"),
    ("100\talice\tT", "at least 4"),
    ("100\talice\tR\t1", "orig_event_id"),
    ("100\talice\tR\t1\tzz\tbob", "orig_event_id"),
    ("100\talice\tR\t1\t2\t", "empty orig_author"),
    ("100\talice\tT\t1\tmark\textra", "too many fields"),
    ("100\talice\tT\t1\t", "empty marks"),
    ("100\talice\tT\t1\ta,,b", "empty mark token"),
    ("99999999999999999999\talice\tT\t1",
     "timestamp '99999999999999999999' is outside signed 64-bit"),
    ("100\talice\tT\t9223372036854775808",
     "event_id '9223372036854775808' is outside signed 64-bit"),
    ("100\talice\tR\t2\t-9223372036854775809\tbob",
     "orig_event_id '-9223372036854775809' is outside signed 64-bit"),
])
def test_malformed_lines_rejected(line, reason_part):
    log, report = parse_event_log([line])
    assert len(log) == 0
    assert report.n_rejected == 1
    assert reason_part in report.rejects[0].reason


def test_integer_fields_take_python_int_syntax_within_signed_64_bit():
    log, report = parse_event_log([
        "9223372036854775807\ta\tT\t-9223372036854775808",
        " 7\ta\tT\t+5",
        "1_000\tb\tR\t3\t+5\ta",
    ])
    assert report.n_rejected == 0
    assert log.ts.tolist() == [7, 1000, 9223372036854775807]
    assert log.ids.tolist() == [5, 3, -9223372036854775808]
    assert log.orig_row.tolist() == [-1, 0, -1]


def test_duplicate_event_id_rejects_whole_log():
    with pytest.raises(LogFormatError, match="duplicate"):
        parse_event_log(["100\ta\tT\t1", "200\tb\tT\t1"])


def test_retweet_reference_validation():
    lines = [
        "100\talice\tT\t1",
        "200\tbob\tR\t2\t99\talice",    # unknown original
        "200\tbob\tR\t3\t1\tcarol",     # wrong cited author
        "50\tbob\tR\t4\t1\talice",      # precedes the original
        "300\tbob\tR\t5\t1\talice",     # fine
    ]
    log, report = parse_event_log(lines)
    assert {e.event_id for e in log} == {1, 5}
    assert report.n_rejected == 3
    reasons = {rej.line_no: rej.reason for rej in report.rejects}
    assert reasons == {
        2: "retweet 2 references unknown or rejected event 99",
        3: "retweet 3 names author 'carol' but event 1 was posted by 'alice'",
        4: "retweet 4 precedes its original 1 in time order",
    }


def test_retweet_of_rejected_line_is_rejected():
    lines = [
        "bad line here",                # rejected: malformed
        "100\talice\tT\t1",
        "200\tbob\tR\t2\t7\tzed",       # references the malformed line's id... unknown
        "300\tcarol\tR\t3\t2\tbob",     # references the rejected retweet
    ]
    log, report = parse_event_log(lines)
    assert {e.event_id for e in log} == {1}
    assert report.n_rejected == 3


def test_equal_ts_tiebreak_by_id():
    # Original and retweet at the same second: valid only if orig id is smaller.
    ok, report = parse_event_log(["100\ta\tT\t1", "100\tb\tR\t2\t1\ta"])
    assert len(ok) == 2 and report.n_rejected == 0
    bad, report = parse_event_log(["100\ta\tT\t2", "100\tb\tR\t1\t2\ta"])
    assert len(bad) == 1 and report.n_rejected == 1


def test_graph_basics():
    g = SocialGraph([("a", "b"), ("a", "c"), ("b", "c")], nodes=["d"])
    assert g.nodes == ("a", "b", "c", "d")
    assert g.followees("a") == {"b", "c"}
    assert g.followers("c") == {"a", "b"}
    assert g.followees("d") == frozenset()
    assert g.n_edges() == 3
    with pytest.raises(UnknownUserError):
        g.followees("nobody")
    with pytest.raises(LogFormatError):
        SocialGraph([("a", "a")])


def test_graph_tsv_round_trip():
    g = SocialGraph([("a", "b"), ("c", "a"), ("b", "a")])
    g2 = SocialGraph.from_tsv(g.to_tsv().splitlines(keepends=True))
    assert g2.to_tsv() == g.to_tsv() == "a\tb\nb\ta\nc\ta\n"


def test_graph_tsv_bad_line():
    with pytest.raises(LogFormatError, match="line 2"):
        SocialGraph.from_tsv(["a\tb\n", "only-one-field\n"])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(4, 10), st.integers(10, 120))
def test_log_tsv_round_trip(seed, n_users, n_events):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n_users)
    events = random_log(rng, graph, n_events).events
    for e in rng.choice(len(events), size=len(events) // 4, replace=False).tolist():
        events[e] = dataclasses.replace(events[e], marks=frozenset(
            rng.choice(["tok", "x", "z"], size=int(rng.integers(1, 3))).tolist()))
    log = EventLog(events)
    lines = log.to_tsv().splitlines(keepends=True)
    rng.shuffle(lines)
    log2, report = parse_event_log(lines)
    assert report.n_rejected == 0
    assert log2.events == log.events
    # Every column, not only the Event view: the parser fills them itself.
    for column in ("ts", "ids", "forward", "orig_row", "orig_ids"):
        assert getattr(log2, column).tolist() == getattr(log, column).tolist(), column
    window = (0, 10_000)
    for user in sorted(graph.nodes):
        assert log2.rows(user, window).tolist() == log.rows(user, window).tolist()
    for token in ("tok", "x", "z", "absent"):
        assert log2.token_rows(token).tolist() == log.token_rows(token).tolist()
    for column in ("author", "orig_author"):  # codes may differ; the names they read may not
        named = [[lg.names[c] if c >= 0 else None for c in getattr(lg, column).tolist()]
                 for lg in (log, log2)]
        assert named[0] == named[1], column
    assert log2.to_tsv() == log.to_tsv()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_graph_follow_relation_is_consistent(seed):
    rng = np.random.default_rng(seed)
    users = [f"u{i}" for i in range(9)]
    linked = users[:rng.integers(3, 9)]  # the others, at least u8, are isolated
    edges = [(a, b) for a in linked for b in linked if a != b and rng.random() < 0.4]
    g = SocialGraph(edges + edges[:2], nodes=users)  # a repeated edge counts once
    assert g.nodes == tuple(sorted(users)) and len(g.nodes) == 9
    for i, u in enumerate(g.nodes):
        assert g.index(u) == i
        assert g.followees(u) == {b for a, b in edges if a == u}
        assert g.followers(u) == {a for a, b in edges if b == u}
        assert g.followee_slice(i).tolist() == sorted(map(g.index, g.followees(u)))
        assert g.follower_slice(i).tolist() == sorted(map(g.index, g.followers(u)))
        for v in g.followees(u):
            assert u in g.followers(v)
        for v in g.followers(u):
            assert u in g.followees(v)
    assert g.n_edges() == len(edges)


def test_in_flow_stream_window_and_filter():
    g = SocialGraph([("u", "a"), ("u", "b")], nodes=["c"])
    log = EventLog([
        Event(1, 100, "a", EventKind.TWEET),
        Event(2, 200, "b", EventKind.TWEET),
        Event(3, 300, "b", EventKind.RETWEET, orig_event_id=1, orig_author="a"),
        Event(4, 400, "c", EventKind.TWEET),       # not followed
        Event(5, 500, "a", EventKind.TWEET),       # outside window
    ])
    def feed_ids(window, include_retweets=True):
        rows = FeedIndex(log, g, window, include_retweets).rows("u")
        return [log.events[r].event_id for r in rows]

    assert feed_ids((100, 400)) == [1, 2, 3]
    assert feed_ids((100, 400), include_retweets=False) == [1, 2]
    assert feed_ids((150, 250)) == [2]
    with pytest.raises(UnknownUserError):
        FeedIndex(log, g, (0, 1000)).rows("ghost")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_in_flow_stream_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 6)
    log = random_log(rng, graph, 60)
    lo, hi = sorted(rng.integers(0, 10_000, size=2).tolist())
    feeds = FeedIndex(log, graph, (lo, hi))
    for user in sorted(graph.nodes):
        rows = feeds.rows(user)
        expected = [
            e for e in log
            if e.author in graph.followees(user) and lo <= e.ts <= hi
        ]
        assert [log.events[r] for r in rows] == expected
        assert feeds.count(user) == len(rows)


def test_event_log_span_and_indices():
    log = EventLog([
        Event(2, 300, "b", EventKind.TWEET),
        Event(1, 100, "a", EventKind.TWEET),
    ])
    assert log.span() == (100, 300)
    assert [e.event_id for e in log.by_author("a")] == [1]
    assert log.get(99) is None
    assert EventLog([]).span() == (0, 0)
    with pytest.raises(LogFormatError, match="duplicate event_id 1"):
        EventLog([Event(1, 100, "a", EventKind.TWEET), Event(1, 200, "b", EventKind.TWEET)])


def test_event_log_row_columns():
    log = EventLog([
        Event(4, 300, "b", EventKind.RETWEET, orig_event_id=2, orig_author="a"),
        Event(2, 100, "a", EventKind.TWEET),
        Event(3, 100, "b", EventKind.RETWEET, orig_event_id=2, orig_author="a"),
        Event(5, 300, "a", EventKind.RETWEET, orig_event_id=4, orig_author="b"),
        Event(6, 50, "a", EventKind.RETWEET, orig_event_id=3, orig_author="b"),  # sorts first
        Event(7, 400, "b", EventKind.RETWEET, orig_event_id=99, orig_author="x"),
    ])
    assert log.ids.tolist() == [6, 2, 3, 4, 5, 7]
    assert log.ts.tolist() == [50, 100, 100, 300, 300, 400]
    assert log.forward.tolist() == [True, False, True, True, True, True]
    # -1 for the tweet, for an original that sorts after its forward, and for an absent one.
    assert log.orig_row.tolist() == [-1, -1, 1, 1, 3, -1]
    assert log.rows_of([5, 99, 6]).tolist() == [4, -1, 0]
    assert log.rows("a", (0, 1000)).tolist() == [0, 1, 4]
    assert log.rows("b", (100, 300)).tolist() == [2, 3]
    assert log.rows("nobody", (0, 1000)).tolist() == []
