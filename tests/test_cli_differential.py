"""The commands against naive recounts, through the CLI.

Hypothesis writes small logs with timestamp ties, forward chains, repeated
forwards of one item, forwards of non-followees, author names holding commas
and double quotes, malformed lines of every reject class and forwards with bad
references, in reversed line order with an empty line. It checks `validate`
(the reject count and line numbers), `queues` (both sources), `flows` (with
and without --originals-only), `sources` and `exposure` E(0) against the
oracles in helpers.py, and that a repeated id fails the whole log.
"""

import csv
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedflow.cli import main
from helpers import (
    Event,
    EventKind,
    events_of,
    followee_names,
    graph_of,
    log_of,
    naive_duplicate,
    naive_flow_counts,
    naive_queue_records,
    naive_source_set,
    naive_validate,
    tsv_text,
)

USERS = ["a", "b,c", 'd"e', 'f,"g"', "h"]
RANGES = [(0.0, 100.0), (100.0, 1e3), (1e3, 1e7)]


def _base(f: list[str]) -> int:
    return 4 if f[2] == "T" else 6


# Each rewrites a well-formed line's fields into a line rejected for one reason.
LINE_DEFECTS = [
    lambda f: ["x" + f[0], *f[1:]],                          # bad timestamp
    lambda f: [f[0], "", *f[2:]],                            # empty author
    lambda f: [*f[:2], "Q", *f[3:]],                         # bad kind
    lambda f: f[:3],                                         # too few fields
    lambda f: [*f[:2], "R", f[3]],                           # forward without its original
    lambda f: [*f[:2], "R", f[3], "zz", "a"],                # bad orig_event_id
    lambda f: [*f[:2], "R", f[3], "3", ""],                  # empty orig_author
    lambda f: [*f, "m", "extra"],                            # too many fields
    lambda f: [*f[:_base(f)], ""],                           # empty marks field
    lambda f: [*f[:_base(f)], "tok,,x"],                     # empty mark token
    lambda f: [*f[:3], "x" + f[3], *f[4:]],                  # bad event_id
    lambda f: ["99999999999999999999", *f[1:]],              # timestamp outside int64
    lambda f: ["-4611686018427387904", *f[1:]],              # timestamp outside +-2^62
    lambda f: [*f[:3], "-9223372036854775809", *f[4:]],      # event_id outside int64
]
REFERENCE_DEFECTS = ["unknown", "author", "precedes"]

# Per event: seconds after the previous one (0 makes a tie), author index, the
# creation index of the event it forwards modulo the events so far (-1 or no
# earlier event: an original tweet), a defect (negative: none; else an index
# into LINE_DEFECTS + REFERENCE_DEFECTS) and whether it carries the mark "tok".
EVENTS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(-1, 40),
              st.integers(-32, len(LINE_DEFECTS) + len(REFERENCE_DEFECTS) - 1), st.booleans()),
    min_size=1, max_size=40)
# Every defect once, on forwards of the first event, then forwards of defective lines.
EVERY_DEFECT = [(0, 0, -1, -1, True)] + [
    (1, d % 5, 0, d, d % 2 == 0) for d in range(len(LINE_DEFECTS) + len(REFERENCE_DEFECTS))
] + [(0, d % 5, d, -1, d % 3 == 0) for d in range(1, 20)]
EDGES = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] != p[1]),
                min_size=1)


def build_log(spec) -> tuple[list[Event], list[str]]:
    """The events of the lines that are not malformed, and every line in creation order."""
    events: list[Event] = []
    lines: list[str] = []
    ts = 0
    for i, (dt, author, target, defect, marked) in enumerate(spec):
        ts += dt
        # Ids grow with creation, so every forward sorts after what it forwards.
        event_id = 10 * i + 3
        marks = frozenset({"tok"}) if marked else frozenset()
        if target < 0 or i == 0:
            ev = Event(event_id, ts, USERS[author], EventKind.TWEET, marks=marks)
        else:
            orig = events[target % i]
            ev = Event(event_id, ts, USERS[author], EventKind.RETWEET, marks=marks,
                       orig_event_id=orig.event_id, orig_author=orig.author)
            bad_reference = defect - len(LINE_DEFECTS)
            if bad_reference == 0:  # an id no line uses
                ev = Event(event_id, ts, ev.author, ev.kind, 10 * i + 7, orig.author, marks)
            elif bad_reference == 1:
                wrong = USERS[(USERS.index(orig.author) + 1) % len(USERS)]
                ev = Event(event_id, ts, ev.author, ev.kind, orig.event_id, wrong, marks)
            elif bad_reference == 2:
                ev = Event(event_id, orig.ts - 1, ev.author, ev.kind, orig.event_id,
                           orig.author, marks)
        events.append(ev)
        line = ev.to_tsv()
        if 0 <= defect < len(LINE_DEFECTS):
            line = "\t".join(LINE_DEFECTS[defect](line.split("\t")))
        lines.append(line)
    return events, lines


def invoke(*args: str):
    return CliRunner().invoke(main, list(args))


def run(workdir: Path, *args: str) -> tuple[str, list[dict]]:
    out = workdir / "out.csv"
    result = invoke(*args, "--log", str(workdir / "log.tsv"),
                    "--graph", str(workdir / "graph.tsv"), "--out", str(out))
    assert result.exit_code == 0, result.output
    with out.open(newline="") as fh:
        return result.stdout, list(csv.DictReader(fh))


@settings(derandomize=True, max_examples=30, deadline=None)
@example(EVERY_DEFECT, {(i, j) for i in range(5) for j in range(5) if i != j}, 0, 40, 12345)
@given(EVENTS, EDGES, st.integers(0, 20), st.integers(1, 60), st.integers(0, 10**6))
def test_cli_matches_naive_recounts(spec, edges, lo, length, dup_choice):
    events, lines = build_log(spec)
    # Reversed line order: the log's order comes from (ts, event_id) alone.
    lines = lines[::-1]
    lines.insert(len(lines) // 2, "")
    accepted, rejected_lines = naive_validate(lines)
    by_id = {e.event_id: e for e in events}
    log = log_of([by_id[i] for i in accepted])
    graph = graph_of([(USERS[f], USERS[v]) for f, v in sorted(edges)])
    window = (lo, lo + length)
    hours = length / 3600.0
    users = sorted(graph.nodes)
    win = ["--window", f"{window[0]},{window[1]}"]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "log.tsv").write_text("".join(line + "\n" for line in lines))
        (workdir / "graph.tsv").write_text(tsv_text(graph))

        result = invoke("validate", "--log", str(workdir / "log.tsv"))
        assert result.exit_code == 0, result.output
        report = result.stdout.splitlines()
        assert report[0] == f"{len(accepted)} events"
        if rejected_lines:
            assert report[1] == f"{len(rejected_lines)} lines rejected:"
            assert [int(r.split(":")[0].split()[1]) for r in report[2:]] == rejected_lines
        else:
            assert len(report) == 1

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
            followees = len(followee_names(graph, r["user"]))
            assert (int(r["F"]), int(r["S_r"]), int(r["out_of_feed"])) == (
                followees, len(source_set), out_of_feed)
            p_src = len(source_set) / followees if followees else 0.0
            assert float(r["p_src"]) == pytest.approx(p_src, rel=1e-9)

        # E(0) counts every user of an in-flow group: each starts 0-exposed.
        ranges = ",".join(f"{lo_:g}:{hi_:g}" for lo_, hi_ in RANGES)
        if any("tok" in e.marks for e in events_of(log)):
            _, rows = run(workdir, "exposure", *win, "--token", "tok", "--ranges", ranges)
            got = {(float(r["group_lo"]), float(r["group_hi"])): float(r["E"])
                   for r in rows if r["k"] == "0"}
            lam = [naive_flow_counts(u, log, graph, window)[0] / hours for u in users]
            want = {(lo_, hi_): sum(lo_ < x <= hi_ for x in lam) for lo_, hi_ in RANGES}
            assert got == {k: v for k, v in want.items() if v}
        else:
            result = invoke("exposure", "--log", str(workdir / "log.tsv"),
                            "--graph", str(workdir / "graph.tsv"), *win, "--token", "tok",
                            "--out", str(workdir / "x.csv"))
            assert result.exit_code == 1
            assert "token 'tok' does not occur in the log" in result.output

        # A repeated id fails the whole log, naming the first use and the repeat.
        well_formed = [e for e in events if e.to_tsv() in lines]
        if well_formed:
            dup = well_formed[dup_choice % len(well_formed)]
            lines.insert(dup_choice % (len(lines) + 1), f"5\th\tT\t{dup.event_id}")
            (workdir / "log.tsv").write_text("".join(line + "\n" for line in lines))
            event_id, first, repeat = naive_duplicate(lines)
            result = invoke("validate", "--log", str(workdir / "log.tsv"))
            assert result.exit_code == 1
            assert result.stdout == ""
            assert (f"error: duplicate event_id {event_id} at lines {first} and {repeat}\n"
                    in result.output)
