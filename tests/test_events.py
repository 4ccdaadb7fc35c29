import dataclasses
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedflow import events
from feedflow.cli import _Outputs
from feedflow.events import (
    FeedCounts,
    FeedIndex,
    LogFormatError,
    SocialGraph,
    UnknownUserError,
    parse_event_log,
)
from helpers import (
    Event,
    EventKind,
    csv_oracle,
    events_of,
    followee_names,
    follower_names,
    graph_of,
    graph_tsv_oracle,
    log_of,
    log_tsv_oracle,
    naive_graph_from_tsv,
    naive_parse_event_log,
    random_graph,
    random_log,
    tsv_file,
    tsv_text,
)

GOOD_LINES = [
    "100\talice\tT\t1",
    "150\tbob\tT\t2\t\n".rstrip(),  # trailing newline stripped by parser
    "200\tcarol\tR\t3\t1\talice",
    "200\tdave\tT\t4\tpromo,viral",
    "250\talice\tR\t5\t4\tdave\tviral",
]


def test_parse_valid_lines():
    log, report = parse_event_log(tsv_file(GOOD_LINES))
    assert report.n_rejected == 0
    assert len(log) == 5
    view = events_of(log)
    assert [e.event_id for e in view] == [1, 2, 3, 4, 5]  # (ts, id) order
    rt = view[2]
    assert rt.kind is EventKind.RETWEET
    assert rt.orig_event_id == 1 and rt.orig_author == "alice"
    assert view[3].marks == {"promo", "viral"}


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
    ("4611686018427387904\talice\tT\t1",
     "timestamp '4611686018427387904' is outside (-2^62, 2^62)"),
    ("-4611686018427387904\talice\tT\t1",
     "timestamp '-4611686018427387904' is outside (-2^62, 2^62)"),
])
def test_malformed_lines_rejected(line, reason_part):
    log, report = parse_event_log(tsv_file([line]))
    assert len(log) == 0
    assert report.n_rejected == 1
    assert reason_part in report.rejects[0].reason


def test_integer_fields_take_python_int_syntax_within_signed_64_bit():
    # A timestamp lies within +-2^62, so that every delay fits in 64 bits.
    log, report = parse_event_log(tsv_file([
        "4611686018427387903\ta\tT\t-9223372036854775808",
        " 7\ta\tT\t+5",
        "1_000\tb\tR\t3\t+5\ta",
    ]))
    assert report.n_rejected == 0
    assert log.ts.tolist() == [7, 1000, 4611686018427387903]
    assert log.ids.tolist() == [5, 3, -9223372036854775808]
    assert log.orig_row.tolist() == [-1, 0, -1]


def test_duplicate_event_id_rejects_whole_log():
    with pytest.raises(LogFormatError, match="duplicate"):
        parse_event_log(tsv_file(["100\ta\tT\t1", "200\tb\tT\t1"]))


def test_retweet_reference_validation():
    lines = [
        "100\talice\tT\t1",
        "200\tbob\tR\t2\t99\talice",    # unknown original
        "200\tbob\tR\t3\t1\tcarol",     # wrong cited author
        "50\tbob\tR\t4\t1\talice",      # precedes the original
        "300\tbob\tR\t5\t1\talice",     # fine
    ]
    log, report = parse_event_log(tsv_file(lines))
    assert {e.event_id for e in events_of(log)} == {1, 5}
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
    log, report = parse_event_log(tsv_file(lines))
    assert {e.event_id for e in events_of(log)} == {1}
    assert report.n_rejected == 3


def test_equal_ts_tiebreak_by_id():
    # Original and retweet at the same second: valid only if orig id is smaller.
    ok, report = parse_event_log(tsv_file(["100\ta\tT\t1", "100\tb\tR\t2\t1\ta"]))
    assert len(ok) == 2 and report.n_rejected == 0
    bad, report = parse_event_log(tsv_file(["100\ta\tT\t2", "100\tb\tR\t1\t2\ta"]))
    assert len(bad) == 1 and report.n_rejected == 1


def test_graph_basics():
    g = graph_of([("a", "b"), ("a", "c"), ("b", "c")], nodes=["d"])
    assert g.nodes == ("a", "b", "c", "d")
    assert followee_names(g, "a") == {"b", "c"}
    assert follower_names(g, "c") == {"a", "b"}
    assert followee_names(g, "d") == frozenset()
    assert g.n_edges() == 3
    with pytest.raises(UnknownUserError):
        followee_names(g, "nobody")
    with pytest.raises(LogFormatError, match="^self-loop edge for user 'a'$"):
        graph_of([("a", "a")])


def test_graph_tsv_round_trip():
    g = graph_of([("a", "b"), ("c", "a"), ("b", "a")])
    g2 = SocialGraph.from_tsv(io.BytesIO(tsv_text(g).encode()))
    assert tsv_text(g2) == tsv_text(g) == "a\tb\nb\ta\nc\ta\n"


def test_graph_tsv_bad_line():
    with pytest.raises(LogFormatError, match="line 2"):
        SocialGraph.from_tsv(tsv_file(["a\tb\n", "only-one-field\n"]))


def test_parse_gives_each_forward_its_originals_row():
    # Rows in (ts, event_id) order: ids 0, 3, 5, 7, 2. Event 0 is an original
    # with id 0, which every original's orig_event_id 0 would match.
    log, report = parse_event_log(tsv_file([
        "300\td\tR\t7\t5\tb",        # forward of a forward
        "100\ta\tT\t0",
        "250\tf\tR\t9\t42\tz",       # unknown original: rejected
        "400\te\tR\t2\t7\td",        # a chain of three forwards
        "200\tb\tR\t5\t0\ta",        # forward of id 0
        "150\tc\tT\t3",
    ]))
    assert [r.line_no for r in report.rejects] == [3]
    assert log.ids.tolist() == [0, 3, 5, 7, 2]
    assert log.orig_ids.tolist() == [0, 0, 0, 5, 7]
    assert log.orig_row.tolist() == [-1, -1, 0, 2, 3]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(4, 10), st.integers(10, 120))
def test_log_tsv_round_trip(seed, n_users, n_events):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n_users)
    events = events_of(random_log(rng, graph, n_events))
    for e in rng.choice(len(events), size=len(events) // 4, replace=False).tolist():
        events[e] = dataclasses.replace(events[e], marks=frozenset(
            rng.choice(["tok", "x", "z"], size=int(rng.integers(1, 3))).tolist()))
    log = log_of(events)
    lines = tsv_text(log).splitlines(keepends=True)
    rng.shuffle(lines)
    log2, report = parse_event_log(tsv_file(lines))
    assert report.n_rejected == 0
    assert events_of(log2) == events_of(log)
    # Every column, not only the Event view: the parser fills them itself.
    for column in ("ts", "ids", "forward", "orig_row", "orig_ids"):
        assert getattr(log2, column).tolist() == getattr(log, column).tolist(), column
    feeds, feeds2 = FeedIndex(log, graph, (0, 10_000)), FeedIndex(log2, graph, (0, 10_000))
    for user in sorted(graph.nodes):
        assert feeds2.rows(user).tolist() == feeds.rows(user).tolist()
        assert feeds2.forwards(user).tolist() == feeds.forwards(user).tolist()
    for token in ("tok", "x", "z", "absent"):
        assert log2.token_rows(token).tolist() == log.token_rows(token).tolist()
    for column in ("author", "orig_author"):  # codes may differ; the names they read may not
        named = [[lg.names[c] if c >= 0 else None for c in getattr(lg, column).tolist()]
                 for lg in (log, log2)]
        assert named[0] == named[1], column
    assert tsv_text(log2) == tsv_text(log)


@pytest.mark.parametrize("rows", [1, 7])
def test_log_tsv_does_not_depend_on_row_block(monkeypatch, rows):
    rng = np.random.default_rng(3)
    events_ = events_of(random_log(rng, random_graph(rng, 6), 60))
    events_ = [dataclasses.replace(e, marks=frozenset(["tok", "x"] if i % 3 else ["z"]))
               if i % 2 else e for i, e in enumerate(events_)]
    whole = log_of(events_)
    text, view = tsv_text(whole), events_of(whole)
    assert text.count("\n") == 60 and "\ttok,x\n" in text and "\tz\n" in text
    assert view == sorted(events_, key=lambda e: e.key)
    monkeypatch.setattr(events, "_ROW_BLOCK", rows)
    log = log_of(events_)
    assert tsv_text(log) == text
    assert events_of(log) == view


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_graph_follow_relation_is_consistent(seed):
    rng = np.random.default_rng(seed)
    users = [f"u{i}" for i in range(9)]
    linked = users[:rng.integers(3, 9)]  # the others, at least u8, are isolated
    edges = [(a, b) for a in linked for b in linked if a != b and rng.random() < 0.4]
    g = graph_of(edges + edges[:2], nodes=users)  # a repeated edge counts once
    assert g.nodes == tuple(sorted(users)) and len(g.nodes) == 9
    for i, u in enumerate(g.nodes):
        assert g.index(u) == i
        assert followee_names(g, u) == {b for a, b in edges if a == u}
        assert follower_names(g, u) == {a for a, b in edges if b == u}
        assert g.followee_slice(i).tolist() == sorted(map(g.index, followee_names(g, u)))
        followers = g.follower_indices[g.follower_indptr[i]:g.follower_indptr[i + 1]]
        assert followers.tolist() == sorted(map(g.index, follower_names(g, u)))
        for v in followee_names(g, u):
            assert u in follower_names(g, v)
        for v in follower_names(g, u):
            assert u in followee_names(g, v)
    assert g.n_edges() == len(edges)


def test_in_flow_stream_window_and_filter():
    g = graph_of([("u", "a"), ("u", "b")], nodes=["c"])
    log = log_of([
        Event(1, 100, "a", EventKind.TWEET),
        Event(2, 200, "b", EventKind.TWEET),
        Event(3, 300, "b", EventKind.RETWEET, orig_event_id=1, orig_author="a"),
        Event(4, 400, "c", EventKind.TWEET),       # not followed
        Event(5, 500, "a", EventKind.TWEET),       # outside window
    ])
    view = events_of(log)

    def feed_ids(window):
        return [view[r].event_id for r in FeedIndex(log, g, window).rows("u")]

    def received(window, originals_only=False):
        return FeedCounts(log, g, window, originals_only).received()[g.index("u")]

    assert feed_ids((100, 400)) == [1, 2, 3] and received((100, 400)) == 3
    assert received((100, 400), originals_only=True) == 2  # events 1 and 2
    assert feed_ids((150, 250)) == [2] and received((150, 250)) == 1
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
    received = FeedCounts(log, graph, (lo, hi)).received()
    originals = FeedCounts(log, graph, (lo, hi), originals_only=True).received()
    view = events_of(log)
    for user in sorted(graph.nodes):
        rows = feeds.rows(user)
        expected = [
            e for e in view
            if e.author in followee_names(graph, user) and lo <= e.ts <= hi
        ]
        assert [view[r] for r in rows] == expected
        assert received[graph.index(user)] == len(rows)
        assert originals[graph.index(user)] == sum(e.kind is EventKind.TWEET for e in expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_feed_index_is_the_same_on_either_side_of_the_int16_cut(seed):
    # Below 2**15 nodes FeedIndex sorts int16 nodes. Isolated nodes that take
    # the graph past the cut must change no feed and no forward list, and an
    # author outside the graph (node -1) stays in no feed.
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 6)
    view = events_of(random_log(rng, graph, 80))
    view += [Event(1000 + k, int(rng.integers(0, 10_000)), "outsider", EventKind.TWEET)
             for k in range(5)]
    log = log_of(view)
    view = events_of(log)
    edges = [(u, v) for u in graph.nodes for v in followee_names(graph, u)]
    padded = graph_of(edges, nodes=[*graph.nodes, *(f"~pad{k:05d}" for k in range(2**15))])
    assert len(graph.nodes) < 2**15 <= len(padded.nodes)
    small, big = FeedIndex(log, graph, (1000, 9000)), FeedIndex(log, padded, (1000, 9000))
    for user in graph.nodes:
        rows = small.rows(user)
        assert [view[r] for r in rows] == [e for e in view if e.author in followee_names(
            graph, user) and 1000 <= e.ts <= 9000]
        assert big.rows(user).tolist() == rows.tolist()
        assert big.forwards(user).tolist() == small.forwards(user).tolist()
    assert sum(small.forwards(u).size for u in graph.nodes) > 0


def test_event_log_span_and_indices():
    log = log_of([
        Event(2, 300, "b", EventKind.TWEET),
        Event(1, 100, "a", EventKind.TWEET),
    ])
    assert log.span() == (100, 300)
    assert log_of([]).span() == (0, 0)


def test_event_log_row_columns():
    log = log_of([
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


def _log_outcome(parse, data: bytes):
    """Everything a log parse gives: its columns, names, token rows and
    rejects, or its error. Both readers fail a file that is not UTF-8, with
    messages that differ."""
    try:
        log, report = parse(data)
    except UnicodeDecodeError:
        return "not UTF-8"
    except LogFormatError as exc:
        return "not UTF-8" if "not UTF-8" in str(exc) else str(exc)
    columns = {c: getattr(log, c).tolist()
               for c in ("ts", "ids", "author", "orig_author", "forward", "orig_ids", "orig_row")}
    tokens = {t: rows.tolist() for t, rows in log._marks.items()}
    return columns, log.names, tokens, [(r.line_no, r.reason) for r in report.rejects]


def _graph_outcome(read, data: bytes):
    try:
        g = read(data)
    except UnicodeDecodeError:
        return "not UTF-8"
    except LogFormatError as exc:
        return "not UTF-8" if "not UTF-8" in str(exc) else str(exc)
    return g.nodes, [getattr(g, a).tolist() for a in (
        "followee_indptr", "followee_indices", "follower_indptr", "follower_indices")]


# Byte soups over the characters that decide how a line splits and parses:
# digits, signs, tabs, line ends, commas, kinds, ASCII and non-ASCII letters
# and NUL. Lines are free soups, or T and R lines whose fields are each drawn
# from values that pass or just miss the array masks, or from soup. A
# strategy repeated in one_of is drawn more often.
SOUP = st.lists(st.sampled_from([*"0123456789", "-", "+", "\t", "\n", "\r", ",", "T", "R",
                                 "a", "é", "\x00"]), max_size=12).map("".join)
SMALL = st.integers(-50, 50).map(str)
INTEGER = st.one_of(SMALL, SMALL, SMALL, st.integers(-10**19, 10**19).map(str),
                    st.sampled_from(["+5", " 7", "1_0", "٥", "-", "", "9" * 18, "9" * 19]), SOUP)
NAMES = st.sampled_from(["a", "b", "é", "a\x00", "a,b", "", "w" * 65])
NAME = st.one_of(NAMES, NAMES, NAMES, SOUP)
TOKENS = st.sampled_from(["m", "m,n", "é,m", ",m", "m,", "m,,n", "m\x00", ""])
MARKS = st.one_of(TOKENS, TOKENS, TOKENS, SOUP)


@st.composite
def _lines(draw, line) -> bytes:
    """Lines with mixed line ends; sometimes a stray invalid UTF-8 byte."""
    text = "".join(draw(line(k)) + draw(st.sampled_from(["\n", "\r\n", "\r", ""]))
                   for k in range(draw(st.integers(0, 12))))
    data = text.encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _log_line(k: int):
    event_id = st.one_of(st.just(str(100 + k)), st.just(str(100 + k)), INTEGER)
    orig_id = st.one_of(st.integers(100, 100 + k).map(str), INTEGER)
    marks = st.one_of(st.just([]), MARKS.map(lambda m: [m]))
    tweet = st.tuples(INTEGER, NAME, st.just("T"), event_id).map(list)
    forward = st.tuples(INTEGER, NAME, st.just("R"), event_id, orig_id, NAME).map(list)
    soup = st.lists(st.one_of(SOUP, INTEGER, NAME), max_size=8)
    shaped = st.tuples(st.one_of(tweet, forward), marks).map(lambda t: t[0] + t[1])
    return st.one_of(shaped, shaped, shaped, soup).map("\t".join)


def _graph_line(k: int):
    return st.lists(NAME, min_size=1, max_size=3).map("\t".join)


@settings(max_examples=300, deadline=None)
@given(_lines(_log_line))
@example(b"1\ta\tT\t100\n2\ta\x00\tT\t101\n3\tb\tR\t102\t101\ta\n")
@example(b"1\ta\tT\t100\tm,,n\n2\ta\tT\t101\tm,\n3\ta\tT\t102\t,m\n")
@example(b"1\ta\tT\t9999999999999999999\n-999999999999999999\ta\tT\t1\n")
@example(b"1\ta\tT\t100\n2\tb\tR\t101\t100\t\n3\tb\tR\t102\t100\ta\t\n")
def test_parse_matches_the_naive_parser_on_byte_soups(data):
    assert (_log_outcome(lambda d: parse_event_log(io.BytesIO(d)), data)
            == _log_outcome(naive_parse_event_log, data))


@settings(max_examples=200, deadline=None)
@given(_lines(_graph_line))
@example(b"a\tb\na\x00\tb\nb\ta\x00\n")
def test_graph_matches_the_naive_reader_on_byte_soups(data):
    assert (_graph_outcome(lambda d: SocialGraph.from_tsv(io.BytesIO(d)), data)
            == _graph_outcome(naive_graph_from_tsv, data))


def _block_corpus() -> tuple[bytes, bytes]:
    """A log with every kind of line and line end, and a graph, over several blocks."""
    rng = np.random.default_rng(5)
    graph = random_graph(rng, 8)
    log = tsv_text(random_log(rng, graph, 400)).splitlines(keepends=True)
    odd = ["+5\ta\tT\t900001\r\n", "\r\n", "7\té\tT\t900002\r", "8\ta\x00\tT\t900003\n",
           "x\ta\tT\t900004\n", "9\tb\tR\t900005\t900002\té\tm,n\n", "1\tb\tT\t900006\t,\n",
           "٥\tc\tT\t900007\n", "1\t" + "w" * 70 + "\tT\t900008\n"]
    for k, line in enumerate(odd):
        log.insert(20 * k + 3, line)
    edges = tsv_text(graph).splitlines(keepends=True)
    edges[5:5] = ["a\x00\ta\r\n", "\n", "é\ta\r"]
    return "".join(log).encode() + b"12\tz\tT\t900009", "".join(edges).encode()


_LOG_CORPUS = _block_corpus()[0]
# Reads that end between the two bytes of the log's first 'é', and reads that
# leave a last block of a few lines.
_INSIDE_E = _LOG_CORPUS.index("é".encode()) + 1
_SHORT_TAIL = (len(_LOG_CORPUS) - 60) // 5


@pytest.mark.parametrize("block", [7, 64, 4096, _INSIDE_E, _SHORT_TAIL])
def test_parse_does_not_depend_on_block_size(monkeypatch, block):
    log, graph = _block_corpus()
    expected = (_log_outcome(naive_parse_event_log, log),
                _graph_outcome(naive_graph_from_tsv, graph))
    assert len(expected[0][3]) == 2 and len(log) > 4096  # rejects, and more than one block
    assert max(_INSIDE_E, _SHORT_TAIL) < len(log) // 4  # so each of their reads is one block
    monkeypatch.setattr(events, "_BLOCK", block)
    assert (_log_outcome(lambda d: parse_event_log(io.BytesIO(d)), log),
            _graph_outcome(lambda d: SocialGraph.from_tsv(io.BytesIO(d)), graph)) == expected


def _working_set_log(n: int, users: int, seed: int) -> bytes:
    """A valid log of n events, ids in line order, 60% of them forwards of
    earlier originals."""
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.integers(0, 10**6, n)).tolist()
    author = rng.integers(0, users, n)
    fwd = rng.random(n) < 0.6
    fwd[0] = False
    originals = np.flatnonzero(~fwd)
    before = np.searchsorted(originals, np.flatnonzero(fwd))  # originals earlier than each
    orig = np.zeros(n, np.int64)
    orig[fwd] = originals[(rng.random(len(before)) * before).astype(np.int64)]
    return "".join(
        f"{ts[i]}\tu{author[i]}\tR\t{i}\t{orig[i]}\tu{author[orig[i]]}\n" if fwd[i]
        else f"{ts[i]}\tu{author[i]}\tT\t{i}\n" for i in range(n)).encode()


def test_parse_working_set_is_bounded_by_the_log(tmp_path, monkeypatch):
    # The parse's peak, over the reads, the block arrays and the reference
    # check, stays within a fixed multiple of the columns it returns.
    path = tmp_path / "log.tsv"
    path.write_bytes(_working_set_log(40_000, 1_000, 3))
    blocks = []
    parse_block = events._parse_block
    monkeypatch.setattr(events, "_parse_block", lambda *a: blocks.append(1) or parse_block(*a))
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            log, report = parse_event_log(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(log, c).nbytes for c in
                  ("ts", "ids", "author", "orig_author", "forward", "orig_ids", "orig_row"))
    assert peak <= 3 * columns, (peak, columns)
    assert len(log) == 40_000 and not report.rejects and len(blocks) >= 3


@pytest.mark.parametrize("block", [16, 4096])
def test_not_utf8_names_its_line_in_a_later_block(monkeypatch, block):
    # Line 124 of each file holds the bad byte, after \r\n and lone \r line
    # ends, a blank line and a good non-ASCII one, in a later block than the first.
    head = "".join(f"{i}\ta\tT\t{i}" + ("\r\n", "\r", "\n")[i % 3] for i in range(1, 121))
    log = (head + "\n121\ta\tT\t121\n122\t\xe9\tT\t122\n").encode() + b"123\t\xff\tT\t123\n"
    edges = (head.replace("\ta\tT\t", "\tx") + "\nx\t\xe9\ny\tz\n").encode() + b"\xffq\tr\n"
    assert len(log) > 2 * block or block == 4096
    monkeypatch.setattr(events, "_BLOCK", block)
    with pytest.raises(LogFormatError, match=r"^line 124: not UTF-8"):
        parse_event_log(io.BytesIO(log))
    with pytest.raises(LogFormatError, match=r"^graph line 124: not UTF-8"):
        SocialGraph.from_tsv(io.BytesIO(edges))


# Names and tokens with the bytes a writer may mishandle: separators, quotes,
# NUL and multi-byte text. Tokens hold no comma, which joins a row's tokens.
NAMES = st.text(st.sampled_from(["a", "b", ",", '"', "\x00", "é", "中", " ", "\r"]),
                min_size=1, max_size=4)
TOKENS = st.text(st.sampled_from(["t", "x", '"', "\x00", "é"]), min_size=1, max_size=3)
TS = st.integers(-(2**62 - 1), 2**62 - 1)
ID = st.integers(-(2**63), 2**63 - 1)


@st.composite
def logs(draw):
    """Events with distinct ids: extreme timestamps and ids, forwards that may name an
    absent original, and marks."""
    ids = draw(st.lists(ID, max_size=12, unique=True))
    names = draw(st.lists(NAMES, min_size=1, max_size=4))
    out = []
    for event_id in ids:
        forward = draw(st.booleans())
        out.append(Event(event_id, draw(TS), draw(st.sampled_from(names)),
                         EventKind.RETWEET if forward else EventKind.TWEET,
                         draw(ID) if forward else None,
                         draw(st.sampled_from(names)) if forward else None,
                         frozenset(draw(st.lists(TOKENS, max_size=3)))))
    return out


@pytest.mark.parametrize("rows", [1, 3, events._ROW_BLOCK])
@settings(max_examples=60, deadline=None)
@given(logs(), st.lists(st.tuples(NAMES, NAMES), max_size=10), st.lists(NAMES, max_size=3))
def test_writers_match_the_per_line_oracle(rows, events_, edges, isolated):
    edges = [(u, v) for u, v in edges if u != v]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(events, "_ROW_BLOCK", rows)
        log, graph = log_of(events_), graph_of(edges, isolated)
        assert tsv_text(log) == log_tsv_oracle(log)
        assert tsv_text(graph) == graph_tsv_oracle(graph)


@pytest.mark.parametrize("rows", [1, 3, events._ROW_BLOCK])
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(NAMES, ID, st.floats() | st.sampled_from([0.0, -0.0])), max_size=10))
def test_csv_writer_matches_csv_writer_rows(rows, table):
    names = sorted({name for name, _, _ in table})
    header = "user,id,duration"
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(events, "_ROW_BLOCK", rows)
        path = str(Path(tmp) / "out.csv")
        with _Outputs() as out:
            out.write_csv(path, header, [
                (names, np.array([names.index(name) for name, _, _ in table], np.int64)),
                np.array([i for _, i, _ in table], np.int64),
                np.array([d for _, _, d in table], float)])
            out.commit("test", {}, [], None)
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    # The writer's rule for floats: format(d, ".10g"), and NaN as an empty field.
    assert text == csv_oracle(header, [
        [name, i, "" if d != d else format(d, ".10g")] for name, i, d in table])


def test_log_writer_at_the_extremes():
    big, small = 2**62 - 1, -(2**62 - 1)
    log = log_of([
        Event(2**63 - 1, big, "a,\"b\"", EventKind.TWEET, marks=frozenset(["t", "é"])),
        Event(-(2**63), small, "\x00中", EventKind.RETWEET, 2**63 - 1, "a,\"b\""),
        Event(0, 0, "z", EventKind.RETWEET, -(2**63), "\x00中", frozenset(["\x00"])),
    ])
    text = tsv_text(log)
    assert text == log_tsv_oracle(log)
    assert f"{small}\t\x00中\tR\t{-(2**63)}\t{2**63 - 1}\ta,\"b\"\n" in text


def test_writers_on_an_empty_log_and_graph():
    log, graph = log_of([]), graph_of([])
    assert tsv_text(log) == log_tsv_oracle(log) == ""
    assert tsv_text(graph) == graph_tsv_oracle(graph) == ""
