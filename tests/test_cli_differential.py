"""The analysis commands against naive recounts, through the CLI.

Hypothesis writes small logs with timestamp ties, forward chains, repeated
forwards of one item and forwards of non-followees, in shuffled line order,
and checks `queues` (both sources), `flows` (with and without
--originals-only) and `sources` against the oracles in helpers.py.
"""

import csv
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from feedflow.cli import main
from feedflow.events import Event, EventKind, EventLog, SocialGraph
from helpers import naive_flow_counts, naive_queue_records, naive_source_set

USERS = ["a", "b", "c", "d", "e"]

# Per event: seconds after the previous one (0 makes a tie), author index, and
# the creation index of the event it forwards modulo the events so far (-1 or
# no earlier event: an original tweet).
EVENTS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(-1, 40)),
                  min_size=1, max_size=40)
EDGES = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] != p[1]),
                min_size=1)


def build_log(spec) -> list[Event]:
    events: list[Event] = []
    ts = 0
    for i, (dt, author, target) in enumerate(spec):
        ts += dt
        # Ids grow with creation, so every forward sorts after what it forwards.
        event_id = 10 * i + 3
        if target < 0 or i == 0:
            events.append(Event(event_id, ts, USERS[author], EventKind.TWEET))
        else:
            orig = events[target % i]
            events.append(Event(event_id, ts, USERS[author], EventKind.RETWEET,
                                orig_event_id=orig.event_id, orig_author=orig.author))
    return events


def run(workdir: Path, *args: str) -> tuple[str, list[dict]]:
    out = workdir / "out.csv"
    result = CliRunner().invoke(main, [
        *args, "--log", str(workdir / "log.tsv"), "--graph", str(workdir / "graph.tsv"),
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with out.open(newline="") as fh:
        return result.stdout, list(csv.DictReader(fh))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(EVENTS, EDGES, st.integers(0, 20), st.integers(1, 60))
def test_cli_matches_naive_recounts(spec, edges, lo, length):
    events = build_log(spec)
    log = EventLog(events)
    graph = SocialGraph([(USERS[f], USERS[v]) for f, v in sorted(edges)])
    window = (lo, lo + length)
    hours = length / 3600.0
    users = sorted(graph.nodes)
    win = ["--window", f"{window[0]},{window[1]}"]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        # Reversed line order: the log's order comes from (ts, event_id) alone.
        (workdir / "log.tsv").write_text("".join(e.to_tsv() + "\n" for e in reversed(events)))
        (workdir / "graph.tsv").write_text(graph.to_tsv())

        for source in ("immediate", "root"):
            stdout, rows = run(workdir, "queues", *win, "--source", source)
            want, n_out = {}, 0
            for u in users:
                records, oof = naive_queue_records(u, log, graph, window, source)
                want.update({rid: (u, *rec) for rid, rec in records.items()})
                n_out += oof
            got = {int(r["retweet_id"]): (r["user"], int(r["orig_id"]), int(r["q"]),
                                          int(r["delay_s"])) for r in rows}
            assert got == want, source
            assert stdout == f"{len(want)} queue records, {n_out} out-of-feed forwards\n"

        for originals_only in (False, True):
            _, rows = run(workdir, "flows", *win, *(["--originals-only"] if originals_only else []))
            assert [r["user"] for r in rows] == users
            for r in rows:
                received, forwarded = naive_flow_counts(r["user"], log, graph, window,
                                                        originals_only)
                assert float(r["lambda"]) == pytest.approx(received / hours, rel=1e-9)
                assert float(r["lambda_r"]) == pytest.approx(forwarded / hours, rel=1e-9)
                beta_r = forwarded / received if received else 0.0
                assert float(r["beta_r"]) == pytest.approx(beta_r, rel=1e-9)
                assert float(r["beta_r"]) <= 1.0

        _, rows = run(workdir, "sources", *win)
        assert [r["user"] for r in rows] == users
        for r in rows:
            source_set, out_of_feed = naive_source_set(r["user"], log, graph, window)
            followees = len(graph.followees(r["user"]))
            assert (int(r["F"]), int(r["S_r"]), int(r["out_of_feed"])) == (
                followees, len(source_set), out_of_feed)
            p_src = len(source_set) / followees if followees else 0.0
            assert float(r["p_src"]) == pytest.approx(p_src, rel=1e-9)
