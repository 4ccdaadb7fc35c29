"""Event log and follow graph: parsing, validation and the feed index.

The on-disk formats are tab-separated text (see docs/formats.md). Events are
kept in a single global order by (ts, event_id) so that every downstream
computation (queue positions, exposure replay, simulation oracles) sees the
same deterministic timeline.
"""

from __future__ import annotations

import functools
import operator
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
        fields = [str(self.ts), self.author, self.kind.value, str(self.event_id)]
        if self.kind is EventKind.RETWEET:
            fields += [str(self.orig_event_id), self.orig_author]
        if self.marks:
            fields.append(",".join(sorted(self.marks)))
        return "\t".join(fields)


@dataclass(frozen=True)
class LineReject:
    line_no: int
    line: str
    reason: str


@dataclass
class ParseReport:
    rejects: list[LineReject] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return len(self.rejects)


class SocialGraph:
    """Static directed follow relation (follower -> followee)."""

    def __init__(self, edges: Iterable[tuple[str, str]], nodes: Iterable[str] = ()):
        followees: dict[str, set[str]] = {}
        followers: dict[str, set[str]] = {}
        node_set: set[str] = set(nodes)
        for follower, followee in edges:
            if follower == followee:
                raise LogFormatError(f"self-loop edge for user {follower!r}")
            followees.setdefault(follower, set()).add(followee)
            followers.setdefault(followee, set()).add(follower)
            node_set.add(follower)
            node_set.add(followee)
        self._followees = {u: frozenset(vs) for u, vs in followees.items()}
        self._followers = {u: frozenset(vs) for u, vs in followers.items()}
        self._nodes = frozenset(node_set)

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    def __contains__(self, user: str) -> bool:
        return user in self._nodes

    def followees(self, user: str) -> frozenset[str]:
        if user not in self._nodes:
            raise UnknownUserError(user)
        return self._followees.get(user, frozenset())

    def followers(self, user: str) -> frozenset[str]:
        if user not in self._nodes:
            raise UnknownUserError(user)
        return self._followers.get(user, frozenset())

    def n_edges(self) -> int:
        return sum(len(v) for v in self._followees.values())

    def edges(self) -> Iterator[tuple[str, str]]:
        for u in sorted(self._followees):
            for v in sorted(self._followees[u]):
                yield (u, v)

    def to_tsv(self) -> str:
        return "".join(f"{u}\t{v}\n" for u, v in self.edges())

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
            edges.append((parts[0], parts[1]))
        return cls(edges)


class EventLog:
    """Immutable event collection in the global (ts, event_id) order: the log's row index.

    A row is an event's position in that order, so rows compare as the
    (ts, event_id) keys do. Every analysis reads the log through rows: the
    columns ts, ids, forward and orig_row, each author's rows, and rows_of.
    Only the id column is built with the log; the others are built on first
    use, so a command that never reads them does not pay for them.
    """

    def __init__(self, events: Iterable[Event]):
        self._events = sorted(events, key=operator.attrgetter("ts", "event_id"))
        self.ids = np.fromiter((e.event_id for e in self._events), np.int64, len(self._events))
        self._id_order = np.argsort(self.ids, kind="stable")
        sorted_ids = self.ids[self._id_order]
        dup = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
        if dup.size:
            raise LogFormatError(f"duplicate event_id {dup[0]}")
        self._sorted_ids = sorted_ids

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def events(self) -> list[Event]:
        return self._events

    @functools.cached_property
    def ts(self) -> np.ndarray:
        return np.fromiter((e.ts for e in self._events), np.int64, len(self._events))

    @functools.cached_property
    def forward(self) -> np.ndarray:
        """True at the rows of forwards."""
        retweet = EventKind.RETWEET
        return np.fromiter((e.kind is retweet for e in self._events), bool, len(self._events))

    @functools.cached_property
    def orig_row(self) -> np.ndarray:
        """Each forward's original row; -1 for an original, and for a forward
        whose original is absent or does not sort before it."""
        orig = self.rows_of(np.fromiter(
            (0 if e.orig_event_id is None else e.orig_event_id for e in self._events),
            np.int64, len(self._events)))
        return np.where(self.forward & (orig < np.arange(len(orig))), orig, -1)

    @functools.cached_property
    def _author_rows(self) -> dict[str, np.ndarray]:
        codes: dict[str, int] = {}
        code = np.fromiter((codes.setdefault(e.author, len(codes)) for e in self._events),
                           np.int64, len(self._events))
        rows = np.argsort(code, kind="stable")
        return dict(zip(codes, np.split(rows, np.cumsum(np.bincount(code))[:-1])))

    def rows(self, author: str, window: tuple[int, int]) -> np.ndarray:
        """The author's rows with ts inside the closed window, ascending."""
        rows = self._author_rows.get(author, _NO_ROWS)
        ts = self.ts[rows]
        return rows[np.searchsorted(ts, window[0]):np.searchsorted(ts, window[1], "right")]

    def rows_of(self, event_ids: Sequence[int]) -> np.ndarray:
        """Rows of the given event ids; -1 for an id not in the log."""
        ids = np.asarray(event_ids, dtype=np.int64)
        at = np.searchsorted(self._sorted_ids, ids)
        found = at < np.searchsorted(self._sorted_ids, ids, "right")
        return np.where(found, self._id_order[np.where(found, at, 0)], -1)

    def get(self, event_id: int) -> Optional[Event]:
        row = int(self.rows_of([event_id])[0])
        return self._events[row] if row >= 0 else None

    def by_author(self, author: str) -> list[Event]:
        return [self._events[r] for r in self._author_rows.get(author, _NO_ROWS).tolist()]

    def span(self) -> tuple[int, int]:
        if not self._events:
            return (0, 0)
        return (self._events[0].ts, self._events[-1].ts)

    def to_tsv(self) -> str:
        return "".join(e.to_tsv() + "\n" for e in self._events)


def _parse_line(line_no: int, line: str) -> Event:
    parts = line.split("\t")
    if len(parts) < 4:
        raise ValueError("expected at least 4 tab-separated fields")
    try:
        ts = int(parts[0])
    except ValueError:
        raise ValueError(f"bad timestamp {parts[0]!r}")
    author = parts[1]
    if not author:
        raise ValueError("empty author")
    kind_token = parts[2]
    if kind_token == "T":
        base = 4
        kind = EventKind.TWEET
        orig_id = orig_author = None
    elif kind_token == "R":
        base = 6
        kind = EventKind.RETWEET
        if len(parts) < 6:
            raise ValueError("retweet line needs orig_event_id and orig_author")
        try:
            orig_id = int(parts[4])
        except ValueError:
            raise ValueError(f"bad orig_event_id {parts[4]!r}")
        orig_author = parts[5]
        if not orig_author:
            raise ValueError("empty orig_author")
    else:
        raise ValueError(f"bad kind {kind_token!r}, expected T or R")
    try:
        event_id = int(parts[3])
    except ValueError:
        raise ValueError(f"bad event_id {parts[3]!r}")
    if len(parts) > base + 1:
        raise ValueError(f"too many fields ({len(parts)})")
    marks: frozenset[str] = frozenset()
    if len(parts) == base + 1:
        if not parts[base]:
            raise ValueError("empty marks field (omit the field instead)")
        tokens = parts[base].split(",")
        if any(not t for t in tokens):
            raise ValueError("empty mark token")
        marks = frozenset(tokens)
    return Event(event_id, ts, author, kind, orig_id, orig_author, marks)


def parse_event_log(lines: Iterable[str]) -> tuple[EventLog, ParseReport]:
    """Parse event TSV lines into a validated, sorted EventLog.

    Malformed lines and retweets with bad references are rejected individually
    and collected in the report; a duplicate event_id anywhere rejects the
    whole log with LogFormatError.
    """
    report = ParseReport()
    candidates: dict[int, tuple[int, str, Event]] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        try:
            ev = _parse_line(line_no, line)
        except ValueError as exc:
            report.rejects.append(LineReject(line_no, line, str(exc)))
            continue
        if ev.event_id in candidates:
            raise LogFormatError(
                f"duplicate event_id {ev.event_id} at lines "
                f"{candidates[ev.event_id][0]} and {line_no}"
            )
        candidates[ev.event_id] = (line_no, line, ev)

    # Retweet references are validated in global order so that a retweet of a
    # rejected line is itself rejected.
    accepted: dict[int, Event] = {}
    kept: list[Event] = []
    for line_no, line, ev in sorted(candidates.values(), key=lambda t: t[2].key):
        if ev.kind is EventKind.RETWEET:
            orig = accepted.get(ev.orig_event_id)
            if orig is None:
                # An original that sorts earlier was already accepted or rejected.
                parsed = candidates.get(ev.orig_event_id)
                if parsed is not None and parsed[2].key >= ev.key:
                    reason = (f"retweet {ev.event_id} precedes its original "
                              f"{ev.orig_event_id} in time order")
                else:
                    reason = (f"retweet {ev.event_id} references unknown or rejected "
                              f"event {ev.orig_event_id}")
                report.rejects.append(LineReject(line_no, line, reason))
                continue
            if orig.author != ev.orig_author:
                report.rejects.append(
                    LineReject(line_no, line, f"retweet {ev.event_id} names author "
                                              f"{ev.orig_author!r} but event "
                                              f"{orig.event_id} was posted by {orig.author!r}")
                )
                continue
        accepted[ev.event_id] = ev
        kept.append(ev)
    return EventLog(kept), report


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
        rows = {v: log.rows(v, window) for v in graph.nodes}
        if not include_retweets:
            rows = {v: r[~log.forward[r]] for v, r in rows.items()}
        self._rows = rows

    def _followee_rows(self, user: str) -> list[np.ndarray]:
        return [self._rows[v] for v in self.graph.followees(user)]

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
