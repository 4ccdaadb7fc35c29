"""Event log and follow graph: parsing, validation and the feed index.

The on-disk formats are tab-separated text (see docs/formats.md). Events are
kept in a single global order by (ts, event_id) so that every downstream
computation (queue positions, exposure replay, simulation oracles) sees the
same deterministic timeline.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

_NO_ROWS = np.empty(0, dtype=np.int64)


class EventKind(Enum):
    TWEET = "T"
    RETWEET = "R"


class LogFormatError(ValueError):
    """The log as a whole is unusable (e.g. duplicate event ids)."""


class UnknownUserError(KeyError):
    def __init__(self, user: str):
        super().__init__(user)
        self.user = user

    def __str__(self) -> str:
        return f"unknown user: {self.user!r}"


@dataclass(frozen=True)
class Event:
    event_id: int
    ts: int
    author: str
    kind: EventKind
    orig_event_id: Optional[int] = None
    orig_author: Optional[str] = None
    marks: frozenset[str] = frozenset()

    @property
    def key(self) -> tuple[int, int]:
        """Global total-order key: timestamp, ties broken by event id."""
        return (self.ts, self.event_id)

    def to_tsv(self) -> str:
        orig_author = self.orig_author if self.kind is EventKind.RETWEET else None
        return _tsv_line(self.event_id, self.ts, self.author, self.orig_event_id, orig_author,
                         sorted(self.marks))


def _tsv_line(event_id, ts, author, orig_id, orig_author, marks) -> str:
    """A log line; orig_author None for an original, marks sorted."""
    ids = f"T\t{event_id}" if orig_author is None else f"R\t{event_id}\t{orig_id}\t{orig_author}"
    return f"{ts}\t{author}\t{ids}" + ("\t" + ",".join(marks) if marks else "")


@dataclass(frozen=True)
class LineReject:
    line_no: int
    reason: str


@dataclass
class ParseReport:
    rejects: list[LineReject] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return len(self.rejects)


class SocialGraph:
    """Static directed follow relation (follower -> followee), as CSR over sorted nodes.

    nodes is the sorted tuple of user names; a node's index is its place
    there. The followers of node i are follower_indices[follower_indptr[i]:
    follower_indptr[i + 1]] and the nodes it follows followee_indices[
    followee_indptr[i]:followee_indptr[i + 1]], both ascending. A repeated
    edge counts once.
    """

    def __init__(self, edges: Iterable[tuple[str, str]], nodes: Iterable[str] = ()):
        follower, followee = list(zip(*edges)) or ((), ())
        self.nodes = tuple(sorted(set(nodes).union(follower, followee)))
        self._index = {u: i for i, u in enumerate(self.nodes)}
        n, m = len(self.nodes), len(follower)
        f = np.fromiter(map(self._index.__getitem__, follower), np.int64, m)
        v = np.fromiter(map(self._index.__getitem__, followee), np.int64, m)
        loops = np.flatnonzero(f == v)
        if loops.size:
            raise LogFormatError(f"self-loop edge for user {follower[loops[0]]!r}")
        # np.sort, not np.unique: the first np.unique call imports numpy.ma (10-30 ms).
        key = np.sort(f * n + v)
        key = key[np.diff(key, prepend=-1) != 0]
        f, v = np.divmod(key, n)
        by_followee = np.argsort(v, kind="stable")
        self.followee_indptr = np.searchsorted(f, np.arange(n + 1))
        self.followee_indices = v
        self.follower_indptr = np.searchsorted(v[by_followee], np.arange(n + 1))
        self.follower_indices = f[by_followee]

    def __contains__(self, user: str) -> bool:
        return user in self._index

    def index(self, user: str) -> int:
        """The user's node index."""
        try:
            return self._index[user]
        except KeyError:
            raise UnknownUserError(user) from None

    def followee_slice(self, i: int) -> np.ndarray:
        """Indices of the nodes node i follows, ascending."""
        return self.followee_indices[self.followee_indptr[i]:self.followee_indptr[i + 1]]

    def follower_slice(self, i: int) -> np.ndarray:
        """Indices of the followers of node i, ascending."""
        return self.follower_indices[self.follower_indptr[i]:self.follower_indptr[i + 1]]

    def followees(self, user: str) -> frozenset[str]:
        return self._names(self.followee_slice(self.index(user)))

    def followers(self, user: str) -> frozenset[str]:
        return self._names(self.follower_slice(self.index(user)))

    def _names(self, indices: np.ndarray) -> frozenset[str]:
        return frozenset(map(self.nodes.__getitem__, indices.tolist()))

    def followee_sums(self, values: np.ndarray) -> np.ndarray:
        """Per node, the sum of values over the nodes it follows.

        One .sum() per node: the rounding of these sums reaches synth's
        ground-truth report, whose bytes a golden test pins.
        """
        return np.array([values[self.followee_slice(i)].sum() for i in range(len(self.nodes))])

    def n_edges(self) -> int:
        return len(self.followee_indices)

    def to_tsv(self) -> str:
        """One 'follower<TAB>followee' line per edge, sorted."""
        follower = np.repeat(np.arange(len(self.nodes)), np.diff(self.followee_indptr))
        heads = [f"{u}\t" for u in self.nodes]
        tails = [f"{v}\n" for v in self.nodes]
        return "".join(map(operator.add, map(heads.__getitem__, follower.tolist()),
                           map(tails.__getitem__, self.followee_indices.tolist())))

    @classmethod
    def from_tsv(cls, lines: Iterable[str]) -> "SocialGraph":
        edges = []
        for line_no, raw in enumerate(lines, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise LogFormatError(f"graph line {line_no}: expected 'follower<TAB>followee'")
            if parts[0] == parts[1]:
                raise LogFormatError(f"graph line {line_no}: self-loop edge for user {parts[0]!r}")
            edges.append(parts)
        return cls(edges)


class EventLog:
    """Immutable event collection in the global (ts, event_id) order: the log's row index.

    A row is an event's position in that order. The log is columns over rows:
    ts, ids, author and orig_author (codes into names, -1 for an original),
    forward, orig_ids (0 for an original), orig_row and each token's rows.
    Event objects exist only in the views kept for tests and the naive
    oracles: EventLog(events), events, iteration, get and by_author.
    """

    def __init__(self, events: Iterable[Event] = ()):
        events = sorted(events, key=operator.attrgetter("ts", "event_id"))
        names: dict[str, int] = collections.defaultdict(lambda: len(names))
        self._fill(
            np.array([e.ts for e in events], np.int64),
            np.array([e.event_id for e in events], np.int64),
            np.array([names[e.author] for e in events], np.int32),
            np.array([-1 if e.kind is EventKind.TWEET else names[e.orig_author] for e in events],
                     np.int32),
            np.array([e.orig_event_id or 0 for e in events], np.int64),
            list(names),
            _token_rows((row, e.marks) for row, e in enumerate(events)),
        )

    @classmethod
    def from_columns(cls, ts, ids, author, orig_author, orig_ids, names, marks) -> "EventLog":
        """The log of columns whose rows are in (ts, event_id) order; marks maps
        each token to its ascending rows."""
        log = cls.__new__(cls)
        log._fill(ts, ids, author, orig_author, orig_ids, names, marks)
        return log

    def _fill(self, ts, ids, author, orig_author, orig_ids, names, marks) -> None:
        self.ts, self.ids, self.author, self.orig_author = ts, ids, author, orig_author
        self.forward = orig_author >= 0
        self.orig_ids, self.names, self._marks = orig_ids, names, marks
        self._code = {name: code for code, name in enumerate(names)}
        self._id_order = np.argsort(ids, kind="stable")
        self._sorted_ids = ids[self._id_order]
        dup = self._sorted_ids[1:][self._sorted_ids[1:] == self._sorted_ids[:-1]]
        if dup.size:
            raise LogFormatError(f"duplicate event_id {dup[0]}")
        # -1 also for a forward whose original is absent or does not sort before it.
        orig = self.rows_of(orig_ids)
        self.orig_row = np.where(self.forward & (orig < np.arange(len(ids))), orig, -1)
        self._by_author = np.argsort(author, kind="stable")
        self._author_start = np.searchsorted(author[self._by_author], np.arange(len(names) + 1))

    def __len__(self) -> int:
        return len(self.ts)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def _records(self) -> Iterator[tuple]:
        """Each row's event_id, ts, author, orig_event_id, orig_author (None
        for an original) and sorted marks."""
        marks: list[list[str]] = [[] for _ in range(len(self))]
        for token in sorted(self._marks):
            for r in self._marks[token].tolist():
                marks[r].append(token)
        names = [*self.names, None]  # code -1 reads None
        return zip(self.ids.tolist(), self.ts.tolist(), map(names.__getitem__, self.author.tolist()),
                   np.where(self.forward, self.orig_ids, -1).tolist(),
                   map(names.__getitem__, self.orig_author.tolist()), marks)

    @functools.cached_property
    def events(self) -> list[Event]:
        """Every row as an Event, built on first use."""
        return [Event(i, t, a, EventKind.TWEET if o is None else EventKind.RETWEET,
                      None if o is None else oid, o, frozenset(m))
                for i, t, a, oid, o, m in self._records()]

    def rows(self, author: str, window: tuple[int, int]) -> np.ndarray:
        """The author's rows with ts inside the closed window, ascending."""
        code = self._code.get(author)
        if code is None:
            return _NO_ROWS
        rows = self._by_author[self._author_start[code]:self._author_start[code + 1]]
        ts = self.ts[rows]
        return rows[np.searchsorted(ts, window[0]):np.searchsorted(ts, window[1], "right")]

    def rows_of(self, event_ids: Sequence[int]) -> np.ndarray:
        """Rows of the given event ids; -1 for an id not in the log."""
        ids = np.asarray(event_ids, dtype=np.int64)
        at = np.searchsorted(self._sorted_ids, ids)
        found = at < np.searchsorted(self._sorted_ids, ids, "right")
        return np.where(found, self._id_order[np.where(found, at, 0)], -1)

    def token_rows(self, token: str) -> np.ndarray:
        """Rows of the events marked with the token, ascending."""
        return self._marks.get(token, _NO_ROWS)

    def get(self, event_id: int) -> Optional[Event]:
        row = int(self.rows_of([event_id])[0])
        return self.events[row] if row >= 0 else None

    def by_author(self, author: str) -> list[Event]:
        return [self.events[r] for r in self.rows(author, (_I64_MIN, _I64_MAX)).tolist()]

    def span(self) -> tuple[int, int]:
        return (int(self.ts[0]), int(self.ts[-1])) if len(self) else (0, 0)

    def to_tsv(self) -> str:
        return "".join(_tsv_line(*record) + "\n" for record in self._records())


def _token_rows(marked: Iterable[tuple[int, set[str]]]) -> dict[str, np.ndarray]:
    """Each token's ascending rows, from (row, tokens) pairs with distinct rows."""
    rows: dict[str, list[int]] = {}
    for row, tokens in marked:
        for token in tokens:
            rows.setdefault(token, []).append(row)
    # np.sort, not np.unique: the first np.unique call imports numpy.ma (10-30 ms).
    return {token: np.sort(np.array(r, np.int64)) for token, r in rows.items()}


_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_CHUNK = 1 << 10  # lines matched at once; bounds the parse's transient memory
# A well-formed line whose integers are plain decimals of at most 18 digits,
# so inside int64. Groups: ts, author, "R" for a forward, event_id,
# orig_event_id, orig_author, marks. Any other line goes through _parse_line.
# Compiled on first parse (re caches it), not at import.
_LINE = (r"(-?\d{1,18})\t([^\t\n]+)\t(?:T|(R))\t(-?\d{1,18})"
         r"(?(3)\t(-?\d{1,18})\t([^\t\n]+))(?:\t([^\t\n,]+(?:,[^\t\n,]+)*))?\n?")


def _int64(text: str, field_name: str) -> str:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"bad {field_name} {text!r}")
    if not _I64_MIN <= value <= _I64_MAX:
        raise ValueError(f"{field_name} {text!r} is outside signed 64-bit")
    return text


def _parse_line(line: str) -> tuple:
    """The line's fields as _LINE groups them, or ValueError naming the first
    rule the line breaks."""
    parts = line.split("\t")
    if len(parts) < 4:
        raise ValueError("expected at least 4 tab-separated fields")
    ts, author, kind, event_id = _int64(parts[0], "timestamp"), *parts[1:4]
    if not author:
        raise ValueError("empty author")
    if kind not in ("T", "R"):
        raise ValueError(f"bad kind {kind!r}, expected T or R")
    base, orig_id, orig_author = 4, None, None
    if kind == "R":
        if len(parts) < 6:
            raise ValueError("retweet line needs orig_event_id and orig_author")
        base, orig_id, orig_author = 6, _int64(parts[4], "orig_event_id"), parts[5]
        if not orig_author:
            raise ValueError("empty orig_author")
    _int64(event_id, "event_id")
    if len(parts) > base + 1:
        raise ValueError(f"too many fields ({len(parts)})")
    marks = parts[base] if len(parts) == base + 1 else None
    if marks == "":
        raise ValueError("empty marks field (omit the field instead)")
    if marks and not all(marks.split(",")):
        raise ValueError("empty mark token")
    return ts, author, kind == "R" or None, event_id, orig_id, orig_author, marks


def parse_event_log(lines: Iterable[str]) -> tuple[EventLog, ParseReport]:
    """Parse event TSV lines into a validated, sorted EventLog.

    Malformed lines and retweets with bad references are rejected one by one
    into the report: per-line rejects in line order, then reference rejects in
    (ts, event_id) order. A duplicate event_id rejects the whole log.
    """
    report = ParseReport()
    names: dict[str, int] = collections.defaultdict(lambda: len(names))  # name -> code
    # Per chunk: line_no, ts, ids, orig_ids, author and orig_author.
    blocks = [[np.empty(0, np.int64)] * 4 + [np.empty(0, np.int32)] * 2]
    marks: list[tuple[int, str]] = []  # (index into the joined blocks, marks field)
    n = 0
    lines = iter(lines)
    first = 1  # the chunk's first line number
    well_formed = re.compile(_LINE).fullmatch
    while chunk := list(itertools.islice(lines, _CHUNK)):
        matches = list(map(well_formed, chunk))
        rows = [m.groups() for m in matches if m]
        matched = np.fromiter(map(bool, matches), bool, len(chunk))
        line_no = [np.flatnonzero(matched) + first]
        for i in np.flatnonzero(~matched).tolist():
            if line := chunk[i].rstrip("\n"):
                try:
                    rows.append(_parse_line(line))
                    line_no.append([first + i])
                except ValueError as exc:
                    report.rejects.append(LineReject(first + i, str(exc)))
        first += len(chunk)
        if not rows:
            continue
        ts, author, kind, ids, orig, orig_author, mark = zip(*rows)
        forward = np.fromiter(map(bool, kind), bool, len(rows))
        orig_ids = np.zeros(len(rows), np.int64)
        orig_ids[forward] = list(map(int, filter(None, orig)))
        orig_code = np.full(len(rows), -1, np.int32)
        orig_code[forward] = list(map(names.__getitem__, filter(None, orig_author)))
        blocks.append((np.concatenate(line_no), np.fromiter(map(int, ts), np.int64, len(rows)),
                       np.fromiter(map(int, ids), np.int64, len(rows)), orig_ids,
                       np.fromiter(map(names.__getitem__, author), np.int32, len(rows)), orig_code))
        marks += [(n + k, m) for k, m in enumerate(mark) if m]
        n += len(rows)
    return EventLog.from_columns(*_check_references(blocks, list(names), marks, report)), report


def _originals(ids, line_no, orig_ids) -> np.ndarray:
    """The index of the parsed line holding each orig_id, -1 for none;
    LogFormatError naming both lines of a repeated id."""
    by_id = np.lexsort((line_no, ids))
    sorted_ids = ids[by_id]
    dup = np.flatnonzero(sorted_ids[1:] == sorted_ids[:-1])
    if dup.size:
        # The repeat met first in line order, and the line of the id's first use.
        j = dup[np.argmin(line_no[by_id[dup + 1]])]
        raise LogFormatError(f"duplicate event_id {sorted_ids[j]} at lines "
                             f"{line_no[by_id[j]]} and {line_no[by_id[j + 1]]}")
    at = np.searchsorted(sorted_ids, orig_ids).clip(0, max(len(ids) - 1, 0))
    return np.where(sorted_ids[at] == orig_ids, by_id[at], -1)


def _check_references(blocks, names, marks, report: ParseReport) -> tuple:
    """The EventLog columns of the parsed lines whose forward references
    hold; each other forward goes to the report, in (ts, event_id) order."""
    line_no, ts, ids, orig_ids, author, orig_author = map(np.concatenate, zip(*blocks))
    blocks.clear()  # the chunks' arrays are joined: free them
    forward = orig_author >= 0
    orig = _originals(ids, line_no, orig_ids)
    found = forward & (orig >= 0)
    before = found & ((ts[orig] < ts) | (ts[orig] == ts) & (ids[orig] < ids))
    # A forward of a rejected forward is rejected too: pointer jumping over
    # the originals ORs each chain's own rejects, doubling its reach a pass.
    rejected = (forward & ~before) | (before & (author[orig] != orig_author))
    jump = np.where(before, orig, np.arange(len(ids)))
    while True:
        rejected |= rejected[jump]
        if np.array_equal(jump[jump], jump):
            break
        jump = jump[jump]
    order = np.lexsort((ids, ts))
    for i in order[rejected[order]].tolist():
        rid, oid = ids[i], orig_ids[i]
        if not found[i] or rejected[orig[i]] and before[i]:
            reason = f"retweet {rid} references unknown or rejected event {oid}"
        elif not before[i]:
            reason = f"retweet {rid} precedes its original {oid} in time order"
        else:
            reason = (f"retweet {rid} names author {names[orig_author[i]]!r} but event "
                      f"{oid} was posted by {names[author[orig[i]]]!r}")
        report.rejects.append(LineReject(int(line_no[i]), reason))

    kept = order[~rejected[order]]
    row = np.empty(len(ids), np.int64)
    row[kept] = np.arange(len(kept))
    return (ts[kept], ids[kept], author[kept], orig_author[kept], orig_ids[kept], names,
            _token_rows((row[i], set(field.split(","))) for i, field in marks if not rejected[i]))


class FeedIndex:
    """Every user's feed over a closed window, as sorted rows of the log.

    A user's feed holds the in-window rows of her followees; with
    include_retweets=False only their original tweets. The in-flow, the
    forwards of feed items and the queue positions all read the feed from here.
    """

    def __init__(
        self,
        log: EventLog,
        graph: SocialGraph,
        window: tuple[int, int],
        include_retweets: bool = True,
    ):
        self.log = log
        self.graph = graph
        self.window = window
        rows = [log.rows(v, window) for v in graph.nodes]  # indexed by node
        if not include_retweets:
            rows = [r[~log.forward[r]] for r in rows]
        self._rows = rows

    def _followee_rows(self, user: str) -> list[np.ndarray]:
        followees = self.graph.followee_slice(self.graph.index(user))
        return list(map(self._rows.__getitem__, followees.tolist()))

    def count(self, user: str) -> int:
        """Number of events in the user's feed."""
        return sum(len(rows) for rows in self._followee_rows(user))

    def rows(self, user: str) -> np.ndarray:
        """The user's feed as sorted log rows."""
        parts = self._followee_rows(user)
        return np.sort(np.concatenate(parts)) if parts else _NO_ROWS

    def locate(self, user: str, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The user's feed rows, and each given row's index in them (-1 if not in the feed)."""
        feed = self.rows(user)
        at = np.searchsorted(feed, rows)
        return feed, np.where(at < np.searchsorted(feed, rows, "right"), at, -1)

    def forwards(self, user: str) -> np.ndarray:
        """Rows of the user's own forwards inside the window."""
        rows = self.log.rows(user, self.window)
        return rows[self.log.forward[rows]]
