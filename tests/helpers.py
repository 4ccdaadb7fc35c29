"""Shared test utilities: logs and graphs built by name, random logs and brute-force oracles."""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from feedflow.events import (
    EventLog,
    LineReject,
    LogFormatError,
    ParseReport,
    SocialGraph,
    _check_references,
    _parse_line,
)
from feedflow.exposure import ExposureCurve
from feedflow.graphgen import KroneckerParams
from feedflow.simulate import (
    Cascades,
    SimConfig,
    beta_of_inflow,
    cascade_keys,
    node_rates,
    seed_nodes,
    slot_uniform,
)


def tsv_line(event_id, ts, author, orig_id, orig_author, marks) -> str:
    """A log line, formatted per line as an oracle for EventLog.to_tsv:
    orig_author None for an original, marks sorted."""
    ids = f"T\t{event_id}" if orig_author is None else f"R\t{event_id}\t{orig_id}\t{orig_author}"
    return f"{ts}\t{author}\t{ids}" + ("\t" + ",".join(marks) if marks else "")


def log_records(log: EventLog):
    """Each row's event_id, ts, author, orig_event_id, orig_author (None
    for an original) and sorted marks."""
    marks: dict[int, list[str]] = {}  # the marked rows only
    for token in sorted(log._marks):
        for r in log._marks[token].tolist():
            marks.setdefault(r, []).append(token)
    names = [*log.names, None]  # code -1 reads None
    orig_ids = np.where(log.forward, log.orig_ids, -1)
    return zip(log.ids.tolist(), log.ts.tolist(), map(names.__getitem__, log.author.tolist()),
               orig_ids.tolist(), map(names.__getitem__, log.orig_author.tolist()),
               map(marks.get, range(len(log)), itertools.repeat(())))


def log_tsv_oracle(log: EventLog) -> str:
    """What EventLog.to_tsv writes, one line at a time."""
    return "".join(tsv_line(*record) + "\n" for record in log_records(log))


def graph_tsv_oracle(graph: SocialGraph) -> str:
    """What SocialGraph.to_tsv writes, one line at a time."""
    follower = np.repeat(np.arange(len(graph.nodes)), np.diff(graph.followee_indptr))
    return "".join(f"{graph.nodes[u]}\t{graph.nodes[v]}\n"
                   for u, v in zip(follower.tolist(), graph.followee_indices.tolist()))


def csv_oracle(header: str, rows) -> str:
    """A CSV file as csv.writer writes the rows."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return fh.getvalue()


class EventKind(Enum):
    TWEET = "T"
    RETWEET = "R"


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
        return tsv_line(self.event_id, self.ts, self.author, self.orig_event_id, orig_author,
                         sorted(self.marks))


def log_of(events: Iterable[Event]) -> EventLog:
    """The EventLog of the events, built from its columns without the parser,
    so it may hold rows a parse would reject: the rows in (ts, event_id)
    order, the names coded in sorted order and each token's rows ascending.
    A forward's orig_row is its original's row if that is earlier, else -1."""
    events = sorted(events, key=operator.attrgetter("ts", "event_id"))
    forward = [e.kind is EventKind.RETWEET for e in events]
    row_of = {e.event_id: row for row, e in enumerate(events)}
    orig_row = [row_of.get(e.orig_event_id, -1) if fwd else -1 for e, fwd in zip(events, forward)]
    names = sorted({e.author for e in events}
                   | {e.orig_author for e, fwd in zip(events, forward) if fwd})
    code = {u: i for i, u in enumerate(names)}
    marks: dict[str, list[int]] = {}
    for row, e in enumerate(events):
        for token in e.marks:
            marks.setdefault(token, []).append(row)
    return EventLog(
        np.array([e.ts for e in events], np.int64),
        np.array([e.event_id for e in events], np.int64),
        np.array([code[e.author] for e in events], np.int32),
        np.array([code[e.orig_author] if fwd else -1 for e, fwd in zip(events, forward)],
                 np.int32),
        np.array([e.orig_event_id or 0 for e in events], np.int64),
        np.array([o if o < row else -1 for row, o in enumerate(orig_row)], np.int64),
        names,
        {token: np.array(rows, np.int64) for token, rows in marks.items()},
    )


def events_of(log: EventLog) -> list[Event]:
    """Every row of the log as an Event, in row order."""
    return [Event(i, t, a, EventKind.TWEET if o is None else EventKind.RETWEET,
                  None if o is None else oid, o, frozenset(m))
            for i, t, a, oid, o, m in log_records(log)]


def graph_of(edges: Iterable[tuple[str, str]], nodes: Iterable[str] = ()) -> SocialGraph:
    """The graph of the (follower, followee) name pairs over their names and nodes."""
    follower, followee = list(zip(*edges)) or ((), ())
    names = sorted(set(nodes).union(follower, followee))
    index = {u: i for i, u in enumerate(names)}
    return SocialGraph(names, np.array([index[u] for u in follower], np.int64),
                       np.array([index[v] for v in followee], np.int64))


def followee_names(graph: SocialGraph, user: str) -> frozenset[str]:
    """The names of the users the user follows; UnknownUserError if not a node."""
    return frozenset(graph.nodes[j] for j in graph.followee_slice(graph.index(user)).tolist())


def follower_names(graph: SocialGraph, user: str) -> frozenset[str]:
    """The names of the user's followers; UnknownUserError if not a node."""
    i, ptr = graph.index(user), graph.follower_indptr
    return frozenset(graph.nodes[j] for j in graph.follower_indices[ptr[i]:ptr[i + 1]].tolist())


def tsv_text(obj) -> str:
    """What obj.to_tsv writes, as one string."""
    fh = io.StringIO()
    obj.to_tsv(fh)
    return fh.getvalue()


def tsv_file(lines: Iterable[str]) -> io.BytesIO:
    """A binary file of the lines; a line without a newline gets one."""
    return io.BytesIO("".join(l if l.endswith("\n") else l + "\n" for l in lines).encode())


# A well-formed log line whose integers are plain decimals of at most 18
# digits. Groups: ts, author, "R" for a forward, event_id, orig_event_id,
# orig_author, marks.
_LINE = (r"(-?\d{1,18})\t([^\t\n]+)\t(?:T|(R))\t(-?\d{1,18})"
         r"(?(3)\t(-?\d{1,18})\t([^\t\n]+))(?:\t([^\t\n,]+(?:,[^\t\n,]+)*))?\n?")


def naive_parse_event_log(data: bytes) -> tuple[EventLog, ParseReport]:
    """The oracle of parse_event_log: the file read in text mode (UTF-8,
    universal newlines) one line at a time, each line matched against the
    _LINE regex and every other non-empty line read by _parse_line."""
    report = ParseReport()
    names: dict[str, int] = {}
    fields: dict[str, int] = {}
    rows = []
    well_formed = re.compile(_LINE).fullmatch
    for line_no, line in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), 1):
        match = well_formed(line)
        if match is None and not line.rstrip("\n"):
            continue
        try:
            groups = match.groups() if match else _parse_line(line.rstrip("\n"))
        except ValueError as exc:
            report.rejects.append(LineReject(line_no, str(exc)))
            continue
        ts, author, forward, event_id, orig_id, orig_author, marks = groups
        rows.append((line_no, int(ts), int(event_id), int(orig_id) if forward else 0,
                     names.setdefault(author, len(names)),
                     names.setdefault(orig_author, len(names)) if forward else -1,
                     fields.setdefault(marks, len(fields)) if marks else -1))
    pieces = [[np.array(c, np.int64)] for c in zip(*rows)] or [[] for _ in range(7)]
    return EventLog(*_check_references(pieces, names, fields, report)), report


def naive_graph_from_tsv(data: bytes) -> SocialGraph:
    """The oracle of SocialGraph.from_tsv: the file read in text mode one
    line at a time."""
    edges = []
    for line_no, raw in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), 1):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise LogFormatError(f"graph line {line_no}: expected 'follower<TAB>followee'")
        if parts[0] == parts[1]:
            raise LogFormatError(f"graph line {line_no}: self-loop edge for user {parts[0]!r}")
        edges.append(parts)
    return graph_of(edges)


def naive_kronecker_edges(params: KroneckerParams) -> list[tuple[int, int]]:
    """The oracle of kronecker_edges: each batch's edges added to a set one
    at a time in draw order until the set is full, then sorted."""
    rng = np.random.default_rng(params.seed)
    flat = np.array([p for row in params.initiator for p in row], dtype=float)
    probs = flat / flat.sum()
    edges: set[tuple[int, int]] = set()
    need = params.target_edges
    while len(edges) < params.target_edges:
        batch = max(1024, 2 * need)
        cells = rng.choice(4, size=(batch, params.k), p=probs)
        rows = cells // 2
        cols = cells % 2
        weights = 1 << np.arange(params.k - 1, -1, -1)
        us = (rows * weights).sum(axis=1)
        vs = (cols * weights).sum(axis=1)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u != v:
                edges.add((u, v))
                if len(edges) == params.target_edges:
                    break
        need = params.target_edges - len(edges)
    return sorted(edges)


def random_graph(rng: np.random.Generator, n_users: int, p_edge: float = 0.4) -> SocialGraph:
    users = [f"u{i}" for i in range(n_users)]
    edges = [
        (a, b)
        for a in users
        for b in users
        if a != b and rng.random() < p_edge
    ]
    return graph_of(edges, nodes=users)


def random_log(
    rng: np.random.Generator,
    graph: SocialGraph,
    n_events: int,
    retweet_prob: float = 0.4,
    t_max: int = 10_000,
) -> EventLog:
    """Valid random event log: retweets always reference an earlier in-flow event.

    Event ids are assigned in creation order with non-decreasing timestamps, so
    orig.key < retweet.key holds by construction.
    """
    users = sorted(graph.nodes)
    ts_values = np.sort(rng.integers(0, t_max, size=n_events))
    events: list[Event] = []
    by_author: dict[str, list[Event]] = {u: [] for u in users}
    for event_id, ts in enumerate(ts_values.tolist()):
        author = users[rng.integers(len(users))]
        candidates = []
        if rng.random() < retweet_prob:
            for v in sorted(followee_names(graph, author)):  # a set's order follows the hash seed
                candidates.extend(by_author[v])
        if candidates:
            orig = candidates[rng.integers(len(candidates))]
            # Forward chains collapse to the feed item actually forwarded.
            ev = Event(event_id, int(ts), author, EventKind.RETWEET,
                       orig_event_id=orig.event_id, orig_author=orig.author)
        else:
            ev = Event(event_id, int(ts), author, EventKind.TWEET)
        events.append(ev)
        by_author[author].append(ev)
    return log_of(events)


def naive_root(log: EventLog, event_id: int) -> int:
    """The root of an event's forward chain, walked one event id at a time;
    the event itself when the chain breaks."""
    by_id = {e.event_id: e for e in events_of(log)}
    cur = by_id.get(event_id)
    while cur is not None and cur.kind is EventKind.RETWEET:
        cur = by_id.get(cur.orig_event_id)
    return event_id if cur is None else cur.event_id


def naive_queue_records(
    user: str,
    log: EventLog,
    graph: SocialGraph,
    window: tuple[int, int],
    source: str = "immediate",
) -> tuple[dict[int, tuple[int, int, int]], int]:
    """O(n^2) queue records for a user's forwards; oracle for the fast path.

    Returns ({retweet_id: (orig_id, q, delay_s)}, n_out_of_feed), with
    retweets included in the in-flow. source="root" measures against the
    chain root (naive_root) instead of the forwarded event.
    """
    start, end = window
    followees = followee_names(graph, user)
    events = events_of(log)
    feed = [
        e for e in events
        if e.author in followees and start <= e.ts <= end
    ]
    records: dict[int, tuple[int, int, int]] = {}
    out_of_feed = 0
    for r in (e for e in events if e.author == user):
        if r.kind is not EventKind.RETWEET or r.ts < start or r.ts > end:
            continue
        target = r.orig_event_id if source == "immediate" else naive_root(log, r.orig_event_id)
        orig = next((e for e in feed if e.event_id == target), None)
        if orig is None:
            out_of_feed += 1
            continue
        q = sum(1 for e in feed if orig.key < e.key < r.key)
        records[r.event_id] = (orig.event_id, q, r.ts - orig.ts)
    return records, out_of_feed


def naive_queue_positions(
    user: str,
    log: EventLog,
    graph: SocialGraph,
    window: tuple[int, int],
) -> tuple[dict[int, int], int]:
    """({retweet_id: q}, n_out_of_feed) under the immediate-source rule."""
    records, out_of_feed = naive_queue_records(user, log, graph, window)
    return {rid: q for rid, (_, q, _) in records.items()}, out_of_feed


def naive_flow_counts(
    user: str,
    log: EventLog,
    graph: SocialGraph,
    window: tuple[int, int],
    originals_only: bool = False,
) -> tuple[int, int]:
    """(feed items received, distinct feed items forwarded) inside the window."""
    start, end = window
    followees = followee_names(graph, user)
    events = events_of(log)
    feed = {
        e.event_id for e in events
        if e.author in followees and start <= e.ts <= end
        and not (originals_only and e.kind is EventKind.RETWEET)
    }
    forwarded = {
        r.orig_event_id for r in events
        if r.author == user and r.kind is EventKind.RETWEET and start <= r.ts <= end
        and r.orig_event_id in feed
    }
    return len(feed), len(forwarded)


def naive_source_set(
    user: str,
    log: EventLog,
    graph: SocialGraph,
    window: tuple[int, int],
) -> tuple[set[str], int]:
    """(followees the user forwarded from, forwards of non-followees) inside the window."""
    start, end = window
    followees = followee_names(graph, user)
    cited = [
        r.orig_author for r in events_of(log)
        if r.author == user and r.kind is EventKind.RETWEET and start <= r.ts <= end
    ]
    return {a for a in cited if a in followees}, sum(a not in followees for a in cited)


@dataclass(frozen=True)
class NaiveTrace:
    adopted_at: dict[str, int]             # user -> first in-window use
    exposures: dict[str, tuple[int, ...]]  # user -> sorted followee first-adoption times
    n_pre_window_adopters: int


def naive_build_trace(token: str, log: EventLog, graph: SocialGraph,
                      window: tuple[int, int]) -> NaiveTrace:
    """build_trace's oracle, by name: a user's first use of the token, and for
    each user the first-use times of her in-window adopting followees.
    Pre-window adopters are neither tracked nor expose anyone."""
    start, end = window
    rows = log.token_rows(token)
    first = rows[np.sort(np.unique(log.author[rows], return_index=True)[1])]
    first_use = dict(zip([log.names[c] for c in log.author[first].tolist()],
                         log.ts[first].tolist()))
    pre = {u for u, t in first_use.items() if t < start}
    adopted_at = {u: t for u, t in first_use.items() if start <= t <= end}
    times: dict[str, list[int]] = {}
    for v, t in adopted_at.items():
        if v not in graph.nodes:
            continue
        for u in follower_names(graph, v):
            if u not in pre:
                times.setdefault(u, []).append(t)
    return NaiveTrace(adopted_at, {u: tuple(sorted(ts)) for u, ts in times.items()}, len(pre))


def naive_user_exposure_path(
    transitions: list[int], adoption: Optional[int]
) -> tuple[list[int], Optional[int]]:
    """k values a user visits pre-adoption, and the k at adoption (if any),
    walked one exposure at a time.

    Simultaneous exposures make k jump by the group size: skipped values are
    never visited. An adoption at the exact time of an exposure counts at the
    new k (exposures are processed first).
    """
    visited = [0]
    k = 0
    idx = 0
    n = len(transitions)
    while idx < n:
        t = transitions[idx]
        if adoption is not None and t > adoption:
            break
        j = idx
        while j < n and transitions[j] == t:
            j += 1
        k += j - idx
        visited.append(k)
        idx = j
    return visited, (k if adoption is not None else None)


def naive_exposure_curve(trace: NaiveTrace, users: list[str], min_e: int = 50,
                         k_max: Optional[int] = None) -> ExposureCurve:
    """exposure_curve's oracle: each named user's path counted one at a time."""
    e_counts: dict[int, int] = {}
    i_counts: dict[int, int] = {}
    for u in users:
        visited, k_adopt = naive_user_exposure_path(
            list(trace.exposures.get(u, ())), trace.adopted_at.get(u))
        for k in visited:
            e_counts[k] = e_counts.get(k, 0) + 1
        if k_adopt is not None:
            i_counts[k_adopt] = i_counts.get(k_adopt, 0) + 1
    if k_max is None:
        eligible = [k for k, c in e_counts.items() if c >= min_e]
        k_max = max(eligible) if eligible else max(e_counts)
    e = np.array([e_counts.get(k, 0) for k in range(k_max + 1)], dtype=float)
    i = np.array([i_counts.get(k, 0) for k in range(k_max + 1)], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(e > 0, i / e, np.nan)
    return ExposureCurve(e=e, i=i, p=p)


def _naive_int64(text: str) -> bool:
    try:
        return -(2 ** 63) <= int(text) < 2 ** 63
    except ValueError:
        return False


def naive_line_fields(line: str):
    """(ts, author, event_id, orig_event_id, orig_author) of a well-formed log
    line, read by the rules of docs/formats.md; None for any other line."""
    f = line.split("\t")
    n = {"T": 4, "R": 6}.get(f[2] if len(f) > 2 else "")
    if n is None or len(f) not in (n, n + 1) or not f[1]:
        return None
    if not all(_naive_int64(f[i]) for i in ((0, 3) if n == 4 else (0, 3, 4))):
        return None
    if abs(int(f[0])) >= 2 ** 62:
        return None
    if n == 6 and not f[5]:
        return None
    if len(f) == n + 1 and not all(f[n].split(",")):
        return None
    if n == 4:
        return int(f[0]), f[1], int(f[3]), None, None
    return int(f[0]), f[1], int(f[3]), int(f[4]), f[5]


def naive_validate(lines: list[str]) -> tuple[list[int], list[int]]:
    """(accepted event ids, rejected line numbers in report order) for a log
    without duplicate ids: malformed lines in line order, then forwards with a
    bad reference in (ts, event_id) order."""
    candidates = []
    malformed = []
    for line_no, line in enumerate(lines, start=1):
        if not line:
            continue
        fields = naive_line_fields(line)
        if fields is None:
            malformed.append(line_no)
        else:
            candidates.append((fields, line_no))
    accepted: dict[int, str] = {}  # id -> author, of events accepted so far in time order
    bad_reference = []
    for (ts, author, event_id, orig_id, orig_author), line_no in sorted(
            candidates, key=lambda c: (c[0][0], c[0][2])):
        if orig_id is not None and accepted.get(orig_id) != orig_author:
            bad_reference.append(line_no)
        else:
            accepted[event_id] = author
    return list(accepted), malformed + bad_reference


def naive_duplicate(lines: list[str]):
    """(event_id, first line, repeating line) of the first id that a
    well-formed line repeats, in line order; None if no id repeats."""
    seen: dict[int, int] = {}
    for line_no, line in enumerate(lines, start=1):
        fields = naive_line_fields(line) if line else None
        if fields is None:
            continue
        if fields[2] in seen:
            return fields[2], seen[fields[2]], line_no
        seen[fields[2]] = line_no
    return None


def sample_lognormal_sum(
    rng: np.random.Generator,
    mu1: float,
    sigma1: float,
    mu2: float,
    sigma2: float,
    size: int,
) -> np.ndarray:
    return rng.lognormal(mu1, sigma1, size) + rng.lognormal(mu2, sigma2, size)


def splitmix64(key: int, slot: int) -> int:
    """SplitMix64's finaliser of key + slot * 0x9E3779B97F4A7C15, in Python
    integers mod 2**64: the oracle of every cascade draw's hash."""
    mask = 2**64 - 1
    x = (key + slot * 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def reachable_followers(graph: SocialGraph, seeds: set[str]) -> set[str]:
    """Transitive closure along follower edges (the direction cascades travel)."""
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        u = frontier.pop()
        for w in follower_names(graph, u):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def cascade_view(
    graph: SocialGraph, cascades: Cascades
) -> list[tuple[str, dict[str, Optional[float]]]]:
    """(seed node, {adopter: time}) per cascade, the shape naive_cascades
    returns; every time is None when the cascades carry no times."""
    names = [graph.nodes[i] for i in cascades.node.tolist()]
    times = [None] * len(names) if cascades.time is None else cascades.time.tolist()
    bounds = cascades.indptr.tolist()
    return [(graph.nodes[seed], dict(zip(names[lo:hi], times[lo:hi])))
            for seed, lo, hi in zip(cascades.seed.tolist(), bounds, bounds[1:])]


def naive_cascades(
    graph: SocialGraph, config: SimConfig, timed: bool = False
) -> list[tuple[str, dict[str, Optional[float]]]]:
    """Every cascade walked one follower edge at a time from the engine's draws.

    Edge e reads its coin at slot 3e and its Box-Muller pair at slots 3e + 1
    and 3e + 2. The walk is a Dijkstra over the live edges: timed, over their
    delays (config.delay_model), keeping the nodes reached by max_time;
    untimed, every delay is 0, so it is a plain search for the nodes reachable
    over live edges (independent cascade) and every time is None. Returns
    (seed node, {adopter: time}) per cascade.
    """
    n, nodes = len(graph.nodes), graph.nodes
    _, lam_in = node_rates(graph, np.random.default_rng(config.seed), config.mu, config.sigma)
    beta = [beta_of_inflow(l, config.beta_curve) for l in lam_in]
    ptr, followers = graph.follower_indptr.tolist(), graph.follower_indices.tolist()
    slots = 3 * np.arange(len(followers), dtype=np.uint64)
    if timed:  # each edge's follower's delay bin
        bins = [next(b for b in config.delay_model.bins if b.lo <= lam_in[j] < b.hi)
                for j in followers]
        mu = np.array([(b.mu1, b.mu2) for b in bins]).reshape(-1, 2)
        sigma = np.array([(b.sigma1, b.sigma2) for b in bins]).reshape(-1, 2)
    keys = cascade_keys(config.seed, np.arange(config.n_cascades))
    out = []
    for key, seed in zip(keys, seed_nodes(keys, n).tolist()):
        key = np.full(len(followers), key)
        coin = slot_uniform(key, slots).tolist()
        if timed:
            r = np.sqrt(-2.0 * np.log(slot_uniform(key, slots + np.uint64(1))))
            theta = 2.0 * np.pi * slot_uniform(key, slots + np.uint64(2))
            delay = (np.exp(mu[:, 0] + sigma[:, 0] * r * np.cos(theta))
                     + np.exp(mu[:, 1] + sigma[:, 1] * r * np.sin(theta))).tolist()
        when: dict[int, float] = {seed: 0.0}
        heap = [(0.0, seed)]
        while heap:
            t, i = heapq.heappop(heap)
            if t > when[i]:
                continue
            for e in range(ptr[i], ptr[i + 1]):
                j = followers[e]
                if coin[e] >= beta[j]:
                    continue
                arrive = t + delay[e] if timed else 0.0
                if arrive <= config.max_time and arrive < when.get(j, math.inf):
                    when[j] = arrive
                    heapq.heappush(heap, (arrive, j))
        out.append((nodes[seed], {nodes[i]: t if timed else None for i, t in when.items()}))
    return out


def naive_contagion(graph: SocialGraph, key: np.uint64, start: dict[int, int], hazard: list[float],
                    jitter: int, horizon: int) -> dict[int, int]:
    """One contagion walked one follower edge at a time from synth's draws.

    Edge e, i -> j, reads its coin at slot 3e of the contagion's key and is live
    when the coin is below hazard[j]; its lag, 1 + floor(u * jitter), reads u at
    slot 3e + 1. A Dijkstra over the live edges from the start nodes at their
    start times, in exact integers, keeping the adoptions at or before horizon.
    Returns {adopter: adoption time}.
    """
    ptr, followers = graph.follower_indptr.tolist(), graph.follower_indices.tolist()
    keys = np.full(len(followers), key, np.uint64)
    slots = 3 * np.arange(len(followers), dtype=np.uint64)
    coin = slot_uniform(keys, slots).tolist()
    lag = [1 + int(u * jitter) for u in slot_uniform(keys, slots + np.uint64(1)).tolist()]
    when = dict(start)
    heap = [(t, i) for i, t in start.items()]
    heapq.heapify(heap)
    while heap:
        t, i = heapq.heappop(heap)
        if t > when[i]:
            continue
        for e in range(ptr[i], ptr[i + 1]):
            j = followers[e]
            arrive = t + lag[e]
            if coin[e] < hazard[j] and arrive <= horizon and arrive < when.get(j, arrive + 1):
                when[j] = arrive
                heapq.heappush(heap, (arrive, j))
    return when
