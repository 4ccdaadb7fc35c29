import csv
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from feedflow import events, queues
from feedflow.cli import main
from feedflow.events import SocialGraph
from feedflow.simulate import BetaCurve, DelayBin, DelayModel
from feedflow.synth import WorkloadSpec, generate_workload
from helpers import followee_names, tsv_text

SYNTH_CONFIG = """
initiator = 0.9, 0.5, 0.5, 0.3
k = 5
target_edges = 120
graph_seed = 1

mu = 2.0
sigma = 0.5
lambda_c = 30
beta0 = 0.1
gamma = 0.65
horizon_hours = 6

delay_bin.0.lo = 0
delay_bin.0.hi = inf
delay_bin.0.mu1 = 3.0
delay_bin.0.sigma1 = 0.5
delay_bin.0.mu2 = 2.0
delay_bin.0.sigma2 = 0.5

contagion.0.token = tok
contagion.0.n_seeds = 3
contagion.0.hazard = 0.3
"""

SIM_CONFIG = """
mu = 1.0
sigma = 0.25
lambda_c = 30
beta0 = 0.1
gamma = 0.65
n_cascades = 50

delay_bin.0.lo = 0
delay_bin.0.hi = inf
delay_bin.0.mu1 = 3.0
delay_bin.0.sigma1 = 0.5
delay_bin.0.mu2 = 2.0
delay_bin.0.sigma2 = 0.5
"""


def all_output(result):
    """stdout plus stderr, tolerant of click versions that split the streams."""
    try:
        return result.output + result.stderr
    except ValueError:
        return result.output


def graph_nodes(path):
    nodes = set()
    for line in path.read_text().splitlines():
        a, b = line.split("\t")
        nodes.update((a, b))
    return nodes


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workspace(tmp_path, runner):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CONFIG)
    result = runner.invoke(main, [
        "synth", "--config", str(cfg), "--seed", "11",
        "--out", str(tmp_path / "log.tsv"),
        "--graph-out", str(tmp_path / "graph.tsv"),
        "--truth-out", str(tmp_path / "truth.txt"),
    ])
    assert result.exit_code == 0, result.output
    return tmp_path


def test_synth_outputs_and_manifest(workspace):
    assert (workspace / "log.tsv").stat().st_size > 0
    assert (workspace / "graph.tsv").stat().st_size > 0
    assert "beta_curve.gamma = 0.65" in (workspace / "truth.txt").read_text()
    manifest = json.loads((workspace / "log.tsv.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 11
    assert len(manifest["outputs"]) == 3


def test_synth_is_deterministic(workspace, tmp_path, runner):
    cfg = tmp_path / "again.cfg"
    cfg.write_text(SYNTH_CONFIG)
    result = runner.invoke(main, [
        "synth", "--config", str(cfg), "--seed", "11",
        "--out", str(tmp_path / "log2.tsv"),
    ])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "log2.tsv").read_bytes() == (workspace / "log.tsv").read_bytes()


# sha256 of synth's outputs for SYNTH_CONFIG (criterion 8's synth config) at
# seed 11. A change to these bytes is an output change and must be declared.
SYNTH_GOLDEN = {
    "log.tsv": "7a139a9fa9e628be6505a82ff49bebe8bd60ac36b65a5c6c307d6ab37fdd74cc",
    "graph.tsv": "cb477ebd06800112ea7d578f2478f3e858dd765e1f1869dbc55e994bc6bed320",
    "truth.txt": "48da8a14805200117329c17edcc40498d049fa2436da47c734bacecdf65e2403",
}


def test_synth_outputs_match_golden_digests(workspace):
    for name, digest in SYNTH_GOLDEN.items():
        assert hashlib.sha256((workspace / name).read_bytes()).hexdigest() == digest, name


# sha256 of the analysis commands' outputs on the same synth log, and of
# `queues --source root` on a log with forward chains (see chain_log). A change
# to these bytes is an output change and must be declared.
ANALYSIS_GOLDEN = {
    "flows.csv": "55f9efe9813209f14b0f1188d88a0b6be18bc52a2d38d0bfe15378c14a02123c",
    "curve.csv": "9abf9d5972d52b7174a4e31a5058bab8e8389ae9439a2ce296074644ab05e067",
    "flows_orig.csv": "f05a6bd95a4e83ad88fb708eaade9678437a4e91b1323968777f43801f968ba9",
    "queues.csv": "c34a5c2937343aab19f1f0a108686dde35997436eb3092de449a2619221f5280",
    "sources.csv": "10c43cea044cef76b79c2ea50c593fa1c46d3b69a570c0ecea298f2e816a7098",
    "exposure.csv": "24845a6bcd9e019da62a9125bd218b1c70e311c79cdc34d7b7b7c162102c4ea6",
    "chain_immediate.csv": "7f916b789373906f8f3ddfddc3856652d2ac32f0f362e1cf57c193ca260adaf1",
    "chain_root.csv": "2cc101697666bbe0a6762c76702b7055f6bfab2060216a59f701ec3502d411f6",
}


def chain_log(workspace):
    """A log on the workspace graph in which retweets also forward retweets."""
    with open(workspace / "graph.tsv", "rb") as fh:
        graph = SocialGraph.from_tsv(fh)
    spec = WorkloadSpec(
        graph=graph, beta_curve=BetaCurve(lambda_c=30.0, beta0=0.1, gamma=0.65),
        delay_model=DelayModel(bins=(DelayBin(0.0, float("inf"), 3.0, 0.5, 2.0, 0.5),)),
        horizon_hours=6.0, seed=5, mu=2.0, sigma=0.5, forward_retweets=True,
    )
    log, _ = generate_workload(spec)
    path = workspace / "chain_log.tsv"
    path.write_text(tsv_text(log))
    return path


def test_analysis_outputs_match_golden_digests(workspace, runner):
    log, graph = str(workspace / "log.tsv"), str(workspace / "graph.tsv")
    chain = str(chain_log(workspace))
    runs = [
        ["flows", "--log", log, "--out", "flows.csv", "--curve-out", "curve.csv"],
        ["flows", "--log", log, "--out", "flows_orig.csv", "--originals-only"],
        ["queues", "--log", log, "--out", "queues.csv"],
        ["sources", "--log", log, "--out", "sources.csv"],
        ["exposure", "--log", log, "--out", "exposure.csv", "--token", "tok"],
        ["queues", "--log", chain, "--out", "chain_immediate.csv"],
        ["queues", "--log", chain, "--out", "chain_root.csv", "--source", "root"],
    ]
    for args in runs:
        args = [str(workspace / a) if a.endswith(".csv") else a for a in args]
        result = runner.invoke(main, args + ["--graph", graph])
        assert result.exit_code == 0, result.output
    outputs = {name: (workspace / name).read_bytes() for name in ANALYSIS_GOLDEN}
    assert outputs["chain_immediate.csv"] != outputs["chain_root.csv"]
    for name, digest in ANALYSIS_GOLDEN.items():
        assert hashlib.sha256(outputs[name]).hexdigest() == digest, name


def test_validate(workspace, runner):
    result = runner.invoke(main, [
        "validate", "--log", str(workspace / "log.tsv"),
        "--graph", str(workspace / "graph.tsv"),
    ])
    assert result.exit_code == 0
    assert "events" in result.output
    n = len(graph_nodes(workspace / "graph.tsv"))
    assert f"{n} users, 120 follow edges" in result.output


def test_validate_reports_rejects(tmp_path, runner):
    log = tmp_path / "bad.tsv"
    log.write_text("100\ta\tT\t1\nnot a log line\n")
    result = runner.invoke(main, ["validate", "--log", str(log)])
    assert result.exit_code == 0
    assert "1 events" in result.output
    assert "1 lines rejected" in result.output


# A log that holds every reject reason: each malformed-line kind, an unknown
# reference, forwards that precede their original (earlier ts, and equal ts
# with a smaller id), an author mismatch, and forwards of rejected lines. Line 11
# is empty and skipped. The reference checks run in (ts, event_id) order, which
# is the order of their report lines.
VALIDATE_LOG = (
    "100\talice\tT\t1\n"
    "abc\talice\tT\t2\n"
    "100\t\tT\t3\n"
    "100\talice\tX\t4\n"
    "100\talice\tT\n"
    "100\talice\tR\t5\n"
    "100\talice\tR\t6\tzz\tbob\n"
    "100\talice\tR\t7\t1\t\n"
    "100\talice\tT\t8\tmark\textra\n"
    "100\talice\tT\t9\t\n"
    "\n"
    "100\talice\tT\t10\ta,,b\n"
    "100\talice\tT\tx11\n"
    "200\tbob\tR\t12\t99\talice\n"
    "50\tbob\tR\t13\t1\talice\n"
    "100\tbob\tR\t0\t1\talice\n"
    "200\tcarol\tR\t14\t1\tcarol\n"
    "300\tdave\tR\t15\t12\tbob\n"
    "300\tdave\tR\t16\t14\tcarol\n"
    "500\terin\tR\t19\t4\talice\n"
    "400\tbob\tR\t17\t1\talice\tviral\n"
    "400\terin\tR\t18\t17\tbob\n"
)

VALIDATE_GOLDEN = """\
3 events
18 lines rejected:
  line 2: bad timestamp 'abc'
  line 3: empty author
  line 4: bad kind 'X', expected T or R
  line 5: expected at least 4 tab-separated fields
  line 6: retweet line needs orig_event_id and orig_author
  line 7: bad orig_event_id 'zz'
  line 8: empty orig_author
  line 9: too many fields (6)
  line 10: empty marks field (omit the field instead)
  line 12: empty mark token
  line 13: bad event_id 'x11'
  line 15: retweet 13 precedes its original 1 in time order
  line 16: retweet 0 precedes its original 1 in time order
  line 14: retweet 12 references unknown or rejected event 99
  line 17: retweet 14 names author 'carol' but event 1 was posted by 'alice'
  line 18: retweet 15 references unknown or rejected event 12
  line 19: retweet 16 references unknown or rejected event 14
  line 20: retweet 19 references unknown or rejected event 4
3 users, 2 follow edges
"""


def test_validate_output_matches_golden(tmp_path, runner):
    (tmp_path / "log.tsv").write_text(VALIDATE_LOG)
    (tmp_path / "graph.tsv").write_text("bob\talice\nerin\tbob\n")
    result = runner.invoke(main, [
        "validate", "--log", str(tmp_path / "log.tsv"), "--graph", str(tmp_path / "graph.tsv"),
    ])
    assert result.exit_code == 0
    assert result.stdout == VALIDATE_GOLDEN


def test_validate_duplicate_id_names_both_lines(tmp_path, runner):
    (tmp_path / "log.tsv").write_text("100\ta\tT\t1\n\n200\tb\tT\t2\n300\tc\tT\t1\n")
    result = runner.invoke(main, ["validate", "--log", str(tmp_path / "log.tsv")])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "error: duplicate event_id 1 at lines 1 and 4\n" in all_output(result)


@pytest.mark.parametrize("bad_line,message", [
    ("a\ta", "graph line 3: self-loop edge for user 'a'"),
    ("a\tb\tc", "graph line 3: expected 'follower<TAB>followee'"),
])
def test_bad_graph_line_is_named(tmp_path, runner, bad_line, message):
    (tmp_path / "log.tsv").write_text("100\ta\tT\t1\n")
    (tmp_path / "graph.tsv").write_text(f"b\ta\n\n{bad_line}\n")
    result = runner.invoke(main, [
        "flows", "--log", str(tmp_path / "log.tsv"), "--graph", str(tmp_path / "graph.tsv"),
        "--out", str(tmp_path / "flows.csv"),
    ])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert f"error: {message}\n" in all_output(result)
    assert not (tmp_path / "flows.csv").exists()


# Byte-level boundaries of both input formats. The log holds a UTF-8 BOM,
# CRLF lines, a blank CRLF line, a lone CR inside line 4 (it ends that line,
# so "\tT\t3" is line 5 and every later line moves by one), a lone CR that
# ends a line, +500, Arabic-Indic digits, a 19-digit id, non-ASCII names and
# marks, users 'a' and 'a\x00', and no trailing newline. The graph holds CRLF
# and CR line ends, blank lines and the same names.
BOUNDARY_LOG = (
    "﻿400\tbom\tT\t40\n"
    "100\talice\tT\t1\r\n"
    "\r\n"
    "300\ta\r\tT\t3\n"
    "+500\tbob\tT\t2\r\n"
    "٥٠٠\tcarol\tT\t4\n"
    "600\tdave\tT\t1234567890123456789\n"
    "-20\teve\tT\t-1\n"
    "700\télodie\tR\t5\t1\talice\tmé,m2\n"
    "\n"
    "800\ta\tT\t6\n"
    "800\ta\x00\tT\t7\r"
    "900\t日本\tR\t8\t7\ta\x00\n"
    "900\tzed\tR\t9\t7\ta\n"
    "1000\tx\tT\t10\tm1,m2\n"
    "1100\ty\tT\t11"
).encode("utf-8")
BOUNDARY_GRAPH = (
    "bob\talice\r\n"
    "\r\n"
    "a\tbob\n"
    "a\x00\tbob\r"
    "élodie\t日本\n"
    "\n"
    "a\ta\x00"
).encode("utf-8")
BOUNDARY_REJECTS = [
    "line 1: bad timestamp '\\ufeff400'",
    "line 4: expected at least 4 tab-separated fields",
    "line 5: expected at least 4 tab-separated fields",
    "line 15: retweet 9 names author 'a' but event 7 was posted by 'a\\x00'",
]
BOUNDARY_FLOWS = (
    "user,lambda,lambda_r,beta_r,F\n"
    "a,6.428571429,0,0,2\n"
    "a\x00,3.214285714,0,0,1\n"
    "alice,0,0,0,0\n"
    "bob,3.214285714,0,0,1\n"
    "élodie,3.214285714,0,0,1\n"
    "日本,0,0,0,0\n"
).encode("utf-8")


def test_validate_byte_boundaries_match_golden(tmp_path, runner):
    (tmp_path / "log.tsv").write_bytes(BOUNDARY_LOG)
    (tmp_path / "graph.tsv").write_bytes(BOUNDARY_GRAPH)
    result = runner.invoke(main, [
        "validate", "--log", str(tmp_path / "log.tsv"), "--graph", str(tmp_path / "graph.tsv"),
    ])
    assert result.exit_code == 0
    assert result.stdout == "".join(
        ["11 events\n4 lines rejected:\n"] + [f"  {r}\n" for r in BOUNDARY_REJECTS]
        + ["6 users, 5 follow edges\n"])
    assert result.stderr == ""
    out = tmp_path / "flows.csv"
    result = runner.invoke(main, [
        "flows", "--log", str(tmp_path / "log.tsv"), "--graph", str(tmp_path / "graph.tsv"),
        "--out", str(out),
    ])
    assert result.exit_code == 0
    assert result.stdout == ""
    assert result.stderr == "".join(f"warning: {r.replace(':', ' rejected:', 1)}\n"
                                    for r in BOUNDARY_REJECTS)
    assert out.read_bytes() == BOUNDARY_FLOWS


@pytest.mark.parametrize("bad", ["log", "graph"])
def test_invalid_utf8_fails_the_whole_file(tmp_path, runner, bad):
    # The message is not pinned: it names a position that depends on the reader.
    files = {"log": b"100\ta\tT\t1\n200\tb\tT\t2\n", "graph": b"b\ta\nc\ta\n"}
    files[bad] = files[bad].replace(b"b\t", b"b\xff\t")
    for name, data in files.items():
        (tmp_path / f"{name}.tsv").write_bytes(data)
    inputs = ["--log", str(tmp_path / "log.tsv"), "--graph", str(tmp_path / "graph.tsv")]
    for args in (["validate", *inputs], ["flows", *inputs, "--out", str(tmp_path / "f.csv")]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1, args
        assert result.stderr.startswith("error: ") and "utf-8" in result.stderr.lower(), args
        assert result.stdout == ("2 events\n" if bad == "graph" and args[0] == "validate"
                                 else ""), args
        assert "Traceback" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.tsv", "log.tsv"]


@pytest.mark.parametrize("graph,message", [
    (b"b\ta\r\n\rx\ty\na\ta\n", "graph line 4: self-loop edge for user 'a'"),
    (b"b\ta\r\na\rc\tb\n", "graph line 2: expected 'follower<TAB>followee'"),
])
def test_graph_line_numbers_count_every_line_end(tmp_path, runner, graph, message):
    (tmp_path / "log.tsv").write_bytes(b"100\ta\tT\t1\n")
    (tmp_path / "graph.tsv").write_bytes(graph)
    result = runner.invoke(main, ["validate", "--log", str(tmp_path / "log.tsv"),
                                  "--graph", str(tmp_path / "graph.tsv")])
    assert result.exit_code == 1
    assert result.stdout == "1 events\n"
    assert result.stderr == f"error: {message}\n"


def test_duplicate_graph_edges_collapse(tmp_path, runner):
    (tmp_path / "log.tsv").write_text("0\ta\tT\t1\n1800\ta\tT\t2\n3600\tb\tT\t3\n")
    (tmp_path / "graph.tsv").write_text("u\ta\nu\tb\nu\ta\n")
    with open(tmp_path / "graph.tsv", "rb") as fh:
        graph = SocialGraph.from_tsv(fh)
    assert graph.n_edges() == 2
    assert followee_names(graph, "u") == {"a", "b"}
    assert graph.followee_slice(graph.index("u")).tolist() == [graph.index("a"), graph.index("b")]
    result = runner.invoke(main, [
        "flows", "--log", str(tmp_path / "log.tsv"), "--graph", str(tmp_path / "graph.tsv"),
        "--out", str(tmp_path / "flows.csv"),
    ])
    assert result.exit_code == 0, result.output
    # The log spans one hour and u's feed holds a's two posts and b's one: lambda 3.
    assert "u,3,0,0,2\n" in (tmp_path / "flows.csv").read_text()


def test_out_of_range_integer_is_rejected_not_a_crash(tmp_path, runner):
    (tmp_path / "log.tsv").write_text(
        "100\ta\tT\t1\n99999999999999999999\ta\tT\t2\n200\tb\tR\t3\t1\ta\n")
    (tmp_path / "graph.tsv").write_text("b\ta\n")
    result = runner.invoke(main, ["validate", "--log", str(tmp_path / "log.tsv")])
    assert result.exit_code == 0
    assert result.stdout == ("2 events\n1 lines rejected:\n  line 2: timestamp "
                             "'99999999999999999999' is outside signed 64-bit\n")
    for command in ("flows", "queues", "sources"):
        result = runner.invoke(main, [
            command, "--log", str(tmp_path / "log.tsv"), "--graph", str(tmp_path / "graph.tsv"),
            "--out", str(tmp_path / f"{command}.csv"),
        ])
        assert result.exit_code == 0, (command, result.output)


def test_timestamps_whose_difference_would_wrap_are_rejected(tmp_path, runner):
    (tmp_path / "log.tsv").write_text(
        "-9000000000000000000\tb\tT\t1\n9000000000000000000\ta\tR\t2\t1\tb\n")
    (tmp_path / "graph.tsv").write_text("a\tb\n")
    result = runner.invoke(main, [
        "queues", "--log", str(tmp_path / "log.tsv"), "--graph", str(tmp_path / "graph.tsv"),
        "--out", str(tmp_path / "q.csv"),
    ])
    assert result.exit_code == 0, result.output
    assert "line 1 rejected: timestamp '-9000000000000000000' is outside (-2^62, 2^62)" in (
        all_output(result))
    assert (tmp_path / "q.csv").read_text() == "user,retweet_id,orig_id,q,delay_s\n"


def test_cli_builds_no_event_objects(workspace, tmp_path, runner):
    """Every command reads the log's columns; the library has no Event type to build."""
    assert not hasattr(events, "Event")
    (tmp_path / "rejects.tsv").write_text(VALIDATE_LOG)
    (tmp_path / "synth.cfg").write_text(SYNTH_CONFIG)
    log = ["--log", str(workspace / "log.tsv"), "--graph", str(workspace / "graph.tsv")]
    commands = [
        ["validate", "--log", str(tmp_path / "rejects.tsv")],
        ["validate", *log],
        ["flows", *log, "--out", str(tmp_path / "flows.csv"),
         "--curve-out", str(tmp_path / "curve.csv"), "--min-received", "5"],
        ["flows", *log, "--out", str(tmp_path / "flows_oo.csv"), "--originals-only"],
        ["queues", *log, "--out", str(tmp_path / "queues.csv")],
        ["queues", *log, "--out", str(tmp_path / "root.csv"), "--source", "root"],
        ["sources", *log, "--out", str(tmp_path / "sources.csv")],
        ["exposure", *log, "--token", "tok", "--ranges", "0.001:10000",
         "--out", str(tmp_path / "exposure.csv")],
        ["synth", "--config", str(tmp_path / "synth.cfg"), "--seed", "11",
         "--out", str(tmp_path / "log.tsv")],
    ]
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args[0], result.output, result.exception)


def test_flows_and_curve(workspace, runner):
    result = runner.invoke(main, [
        "flows", "--log", str(workspace / "log.tsv"),
        "--graph", str(workspace / "graph.tsv"),
        "--out", str(workspace / "flows.csv"),
        "--curve-out", str(workspace / "curve.csv"),
        "--min-received", "5",
    ])
    assert result.exit_code == 0, result.output
    lines = (workspace / "flows.csv").read_text().splitlines()
    assert lines[0] == "user,lambda,lambda_r,beta_r,F"
    assert len(lines) == 1 + len(graph_nodes(workspace / "graph.tsv"))
    curve = (workspace / "curve.csv").read_text().splitlines()
    assert curve[0] == "bin_lo,bin_hi,n,mean,median,p10,p90"
    assert len(curve) > 1


@pytest.mark.parametrize("curve_out", ["f.csv", "./f.csv"])
def test_two_outputs_with_one_target_write_nothing(workspace, runner, monkeypatch, curve_out):
    monkeypatch.chdir(workspace)
    before = sorted(p.name for p in workspace.iterdir())
    result = runner.invoke(main, ["flows", "--log", "log.tsv", "--graph", "graph.tsv",
                                  "--out", "f.csv", "--curve-out", curve_out])
    assert result.exit_code == 1
    assert f"error: {curve_out}: named for more than one output" in all_output(result)
    assert sorted(p.name for p in workspace.iterdir()) == before


def test_min_received_compares_received_items(tmp_path, runner):
    # u receives exactly 1 item over 4597 s; (1 / h) * h is below 1 for that h.
    (tmp_path / "log.tsv").write_text("0\ta\tT\t1\n4597\tb\tT\t2\n")
    (tmp_path / "graph.tsv").write_text("u\ta\n")
    result = runner.invoke(main, [
        "flows", "--log", str(tmp_path / "log.tsv"), "--graph", str(tmp_path / "graph.tsv"),
        "--out", str(tmp_path / "flows.csv"), "--curve-out", str(tmp_path / "curve.csv"),
        "--min-received", "1",
    ])
    assert result.exit_code == 0, result.output
    curve = list(csv.DictReader((tmp_path / "curve.csv").open()))
    assert [int(b["n"]) for b in curve] == [1]


def test_queues_csv(workspace, runner):
    result = runner.invoke(main, [
        "queues", "--log", str(workspace / "log.tsv"),
        "--graph", str(workspace / "graph.tsv"),
        "--out", str(workspace / "queues.csv"),
    ])
    assert result.exit_code == 0, result.output
    assert "queue records" in result.output
    lines = (workspace / "queues.csv").read_text().splitlines()
    assert lines[0] == "user,retweet_id,orig_id,q,delay_s"
    assert len(lines) > 1


def test_queues_on_a_graph_without_users(tmp_path, runner):
    (tmp_path / "log.tsv").write_text("0\ta\tT\t1\n")
    (tmp_path / "graph.tsv").write_text("")
    out = tmp_path / "q.csv"
    result = runner.invoke(main, ["queues", "--log", str(tmp_path / "log.tsv"),
                                  "--graph", str(tmp_path / "graph.tsv"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "0 queue records, 0 out-of-feed forwards" in result.output
    assert out.read_text() == "user,retweet_id,orig_id,q,delay_s\n"


def test_queues_writes_the_same_bytes_in_row_blocks(workspace, runner, monkeypatch):
    args = ["queues", "--log", str(workspace / "log.tsv"), "--graph", str(workspace / "graph.tsv")]
    result = runner.invoke(main, [*args, "--out", str(workspace / "whole.csv")])
    assert result.exit_code == 0, result.output
    whole = (workspace / "whole.csv").read_bytes()
    n_records = whole.count(b"\n") - 1
    assert n_records > 3 and n_records % 3 != 0
    monkeypatch.setattr(events, "_ROW_BLOCK", 3)
    result = runner.invoke(main, [*args, "--out", str(workspace / "blocks.csv")])
    assert result.exit_code == 0, result.output
    assert (workspace / "blocks.csv").read_bytes() == whole


FIT_KEYS = [
    "mu1", "sigma1", "mu2", "sigma2", "loglik", "n", "n_rejected", "n_unique", "nfev",
    "converged", "se_mu1", "se_sigma1", "se_mu2", "se_sigma2", "identifiable",
]


def test_queues_fit_report_and_manifest(workspace, runner):
    result = runner.invoke(main, [
        "queues", "--log", str(workspace / "log.tsv"),
        "--graph", str(workspace / "graph.tsv"),
        "--out", str(workspace / "q.csv"),
        "--fit-delays", str(workspace / "fit.txt"),
    ])
    assert result.exit_code == 0, result.output
    report = dict(line.split(" = ") for line in (workspace / "fit.txt").read_text().splitlines())
    assert list(report) == FIT_KEYS
    assert report["converged"] in ("True", "False")
    manifest = json.loads((workspace / "q.csv.manifest.json").read_text())
    assert sorted(manifest["fit"]) == sorted(FIT_KEYS)
    assert manifest["fit"]["n"] == int(report["n"])
    assert manifest["outputs"] == [str(workspace / "q.csv"), str(workspace / "fit.txt")]


def test_failed_fit_leaves_no_outputs(workspace, runner):
    # One hour of the log holds far fewer than the 100 forwards a fit needs.
    result = runner.invoke(main, [
        "queues", "--log", str(workspace / "log.tsv"),
        "--graph", str(workspace / "graph.tsv"),
        "--window", "0,3600",
        "--out", str(workspace / "q.csv"),
        "--fit-delays", str(workspace / "fit.txt"),
    ])
    assert result.exit_code == 1
    assert "need at least 100" in all_output(result)
    assert not (workspace / "q.csv").exists()
    assert not (workspace / "fit.txt").exists()
    assert not (workspace / "q.csv.manifest.json").exists()
    assert not list(workspace.glob("*.tmp"))


def _stuck_at(x):
    """An optimizer that evaluates the objective once, at x, and reports no
    finite likelihood."""
    def minimize(fun, x0, args, bounds):
        hess = fun(np.asarray(x, dtype=float), *args)[2]
        return queues.MinimizeResult(np.asarray(x, dtype=float), float("nan"), 1, False, hess)
    return minimize


@pytest.mark.parametrize("x", [
    (3.0, 0.0, 2.0, 0.0),      # a failed fit near the data
    (710.0, 0.0, 710.0, 0.0),  # exp(mu) overflows a float: the cut-off is taken in log space
], ids=["no-finite-likelihood", "mu-710"])
def test_fit_without_a_finite_likelihood_is_a_clean_error(workspace, runner, monkeypatch, x):
    monkeypatch.setattr(queues, "minimize", _stuck_at(x))
    result = runner.invoke(main, [
        "queues", "--log", str(workspace / "log.tsv"), "--graph", str(workspace / "graph.tsv"),
        "--out", str(workspace / "q.csv"), "--fit-delays", str(workspace / "fit.txt"),
    ])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "error: optimizer failed to produce a finite likelihood\n" in result.stderr
    assert not list(workspace.glob("q.csv*")) and not list(workspace.glob("fit.txt*"))


def test_sources_csv(workspace, runner):
    result = runner.invoke(main, [
        "sources", "--log", str(workspace / "log.tsv"),
        "--graph", str(workspace / "graph.tsv"),
        "--out", str(workspace / "sources.csv"),
    ])
    assert result.exit_code == 0, result.output
    lines = (workspace / "sources.csv").read_text().splitlines()
    assert lines[0] == "user,F,S_r,p_src,out_of_feed"
    assert len(lines) == 1 + len(graph_nodes(workspace / "graph.tsv"))


def test_exposure_csv(workspace, runner):
    result = runner.invoke(main, [
        "exposure", "--log", str(workspace / "log.tsv"),
        "--graph", str(workspace / "graph.tsv"),
        "--token", "tok", "--ranges", "0.001:10000",
        "--out", str(workspace / "exposure.csv"),
    ])
    assert result.exit_code == 0, result.output
    lines = (workspace / "exposure.csv").read_text().splitlines()
    assert lines[0] == "group_lo,group_hi,k,E,I,P"
    assert len(lines) > 1


def test_exposure_unknown_token_fails(workspace, runner):
    result = runner.invoke(main, [
        "exposure", "--log", str(workspace / "log.tsv"),
        "--graph", str(workspace / "graph.tsv"),
        "--token", "missing-token",
        "--out", str(workspace / "x.csv"),
    ])
    assert result.exit_code == 1
    assert "error:" in all_output(result)


@pytest.mark.parametrize("ranges", ["nan:10", "1:nan"])
def test_exposure_nan_range_edge_is_a_clean_error(workspace, runner, ranges):
    out = workspace / "x.csv"
    result = runner.invoke(main, [
        "exposure", "--log", str(workspace / "log.tsv"), "--graph", str(workspace / "graph.tsv"),
        "--token", "tok", "--ranges", ranges, "--out", str(out),
    ])
    assert result.exit_code == 1
    assert "error: empty range" in all_output(result)
    assert list(workspace.glob("x.csv*")) == []


def test_graphgen_cli(tmp_path, runner):
    args = [
        "graphgen", "--initiator", "0.9,0.5,0.5,0.3", "--k", "6",
        "--target-edges", "300", "--seed", "4",
        "--out", str(tmp_path / "g.tsv"),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "64 nodes, 300 edges" in result.output
    first = (tmp_path / "g.tsv").read_bytes()
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert (tmp_path / "g.tsv").read_bytes() == first


def test_graphgen_rejects_a_power_past_31(tmp_path, runner):
    out = tmp_path / "g.tsv"
    result = runner.invoke(main, ["graphgen", "--initiator", "0.9,0.5,0.5,0.3", "--k", "32",
                                  "--target-edges", "10", "--seed", "1", "--out", str(out)])
    assert result.exit_code == 1
    assert "error: power k must be between 1 and 31, got 32" in all_output(result)
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


# sha256 of graphgen's output for (initiator, k, target edges, seed): the
# cascades bench's graph (many row chunks), a saturating graph (every non-loop
# edge) and an initiator with a zero entry. A change to these bytes is an
# output change and must be declared.
GRAPHGEN_GOLDEN = {
    ("0.9,0.5,0.5,0.3", 13, 80_000, 2):
        "faaf0ec48cbad647f19c07390c6452b2e44f51ab05d655d18aba4d2dbac054ca",
    ("0.9,0.5,0.5,0.3", 5, 992, 7):
        "ac0969e643d1386d2c1d6e0be9828eb141a18ba64462c0cb985239f27fd978c4",
    ("0.9,0,0.5,0.3", 6, 200, 5):
        "207a1e54a854982d9ede619de2d8bcd69e31e84c6ad4d3def762cf216d303dc7",
}


@pytest.mark.parametrize("case", sorted(GRAPHGEN_GOLDEN))
def test_graphgen_output_matches_golden_digest(case, tmp_path, runner):
    initiator, k, edges, seed = case
    out = tmp_path / "g.tsv"
    result = runner.invoke(main, ["graphgen", "--initiator", initiator, "--k", str(k),
                                  "--target-edges", str(edges), "--seed", str(seed),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert f"{1 << k} nodes, {edges} edges" in result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRAPHGEN_GOLDEN[case]


def test_simulate_cli_models_and_workers(workspace, tmp_path, runner):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG)
    outputs = {}
    for model in ("ic", "ct"):
        for workers in ("1", "3"):
            out = tmp_path / f"{model}_{workers}.csv"
            result = runner.invoke(main, [
                "simulate", "--model", model,
                "--graph", str(workspace / "graph.tsv"),
                "--config", str(cfg), "--seed", "21", "--workers", workers,
                "--out", str(out),
                "--report", str(tmp_path / f"{model}_{workers}_rep.csv"),
            ])
            assert result.exit_code == 0, result.output
            outputs[(model, workers)] = out.read_bytes()
    assert outputs[("ic", "1")] == outputs[("ic", "3")]
    assert outputs[("ct", "1")] == outputs[("ct", "3")]
    lines = (tmp_path / "ic_1.csv").read_text().splitlines()
    assert lines[0] == "cascade_id,seed_node,size,duration"
    assert len(lines) == 51
    rep = (tmp_path / "ct_1_rep.csv").read_text().splitlines()
    assert rep[0] == "metric,value,ccdf"


# sha256 of simulate's CSV and --report outputs for criterion 8's sim.cfg
# (SIM_CONFIG with 200 cascades) on criterion 8's graphgen graph, at seed 21. A
# change to these bytes is an output change and must be declared.
SIMULATE_GOLDEN = {
    "ic.csv": "487c2b7ac0d13a9e73c24eb8440b2e3923b8cf5fe5dc1d2ca5258bc6dafc13f3",
    "ic_report.csv": "e2dd1b3ed533c83fd54fa08bacefce3c2c45597746f29c229054a3196c7b440c",
    "ct.csv": "47e19a2dbc36e6a26cf662c8e829826ce9731daa4cf5b53d5908f4c09eb5e7ed",
    "ct_report.csv": "3f977ac0bcf931aa420bfafb38faf6aa0097e0ae1da9639ff13a589c1cdf3e2f",
}


def test_simulate_outputs_match_golden_digests(tmp_path, runner):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG.replace("n_cascades = 50", "n_cascades = 200"))
    graph = tmp_path / "graph.tsv"
    result = runner.invoke(main, ["graphgen", "--initiator", "0.9,0.5,0.5,0.3", "--k", "6",
                                  "--target-edges", "300", "--seed", "4", "--out", str(graph)])
    assert result.exit_code == 0, result.output
    for model in ("ic", "ct"):
        result = runner.invoke(main, [
            "simulate", "--model", model, "--graph", str(graph), "--config", str(cfg),
            "--seed", "21", "--out", str(tmp_path / f"{model}.csv"),
            "--report", str(tmp_path / f"{model}_report.csv"),
        ])
        assert result.exit_code == 0, result.output
    for name, digest in SIMULATE_GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_simulate_without_spread_reports_sizes_only(tmp_path, runner):
    # A graph TSV cannot hold isolated nodes, so this one's edges never fire:
    # every coin is at least 2**-53, far above beta0.
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG.replace("beta0 = 0.1", "beta0 = 1e-30"))
    graph = tmp_path / "graph.tsv"
    graph.write_text("a\tb\nb\tc\nc\ta\n")
    out, rep = tmp_path / "o.csv", tmp_path / "rep.csv"
    result = runner.invoke(main, ["simulate", "--model", "ic", "--graph", str(graph),
                                  "--config", str(cfg), "--seed", "5", "--out", str(out),
                                  "--report", str(rep)])
    assert result.exit_code == 0, result.output
    assert "note: no cascades with 2+ nodes; duration table empty\n" in all_output(result)
    assert rep.read_text() == "metric,value,ccdf\nsize,1,1\n"
    rows = out.read_text().splitlines()
    assert len(rows) == 51 and {r.split(",", 2)[2] for r in rows[1:]} == {"1,0"}


SEED_COMMANDS = {
    "simulate": ["simulate", "--model", "ic", "--graph", "{graph}", "--config", "{sim}"],
    "synth": ["synth", "--config", "{synth}"],
    "graphgen": ["graphgen", "--initiator", "0.9,0.5,0.5,0.3", "--k", "6",
                 "--target-edges", "300"],
}


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_negative_seed_is_a_usage_error(workspace, tmp_path, runner, command):
    (tmp_path / "sim.cfg").write_text(SIM_CONFIG)
    (tmp_path / "again.cfg").write_text(SYNTH_CONFIG)
    args = [a.format(graph=workspace / "graph.tsv", sim=tmp_path / "sim.cfg",
                     synth=tmp_path / "again.cfg") for a in SEED_COMMANDS[command]]
    out = tmp_path / "o.out"
    result = runner.invoke(main, [*args, "--seed", "-1", "--out", str(out)])
    assert result.exit_code == 2
    assert "Invalid value for '--seed'" in all_output(result)
    assert list(tmp_path.glob("o.out*")) == []


@pytest.mark.parametrize("bins", ["0", "-1"])
def test_flows_rejects_bins_per_decade_below_one(workspace, tmp_path, runner, bins):
    out = tmp_path / "o.csv"
    result = runner.invoke(main, [
        "flows", "--log", str(workspace / "log.tsv"), "--graph", str(workspace / "graph.tsv"),
        "--out", str(out), "--curve-out", str(tmp_path / "o.curve.csv"),
        "--bins-per-decade", bins,
    ])
    assert result.exit_code == 2
    assert "Invalid value for '--bins-per-decade'" in all_output(result)
    assert list(tmp_path.glob("o.*")) == []


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_worker_count_below_one(workspace, tmp_path, runner, workers):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG)
    out = tmp_path / "o.csv"
    result = runner.invoke(main, [
        "simulate", "--model", "ic", "--graph", str(workspace / "graph.tsv"),
        "--config", str(cfg), "--seed", "1", "--workers", workers, "--out", str(out),
    ])
    assert result.exit_code == 2
    assert "Invalid value for '--workers'" in all_output(result)
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    "gamma = nan", "mu = nan", "sigma = nan", "max_time = nan",
    "delay_bin.0.mu1 = nan", "delay_bin.0.sigma1 = -0.5", "delay_bin.0.mu1 = 800",
])
def test_simulate_rejects_bad_parameters(workspace, tmp_path, runner, setting):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG + setting + "\n")
    out = tmp_path / "o.csv"
    result = runner.invoke(main, [
        "simulate", "--model", "ct", "--graph", str(workspace / "graph.tsv"),
        "--config", str(cfg), "--seed", "1", "--out", str(out),
    ])
    assert result.exit_code == 1
    assert "error:" in all_output(result)
    assert not out.exists()


def test_bad_window_is_a_clean_error(workspace, runner):
    result = runner.invoke(main, [
        "flows", "--log", str(workspace / "log.tsv"),
        "--graph", str(workspace / "graph.tsv"),
        "--window", "zero,ten",
        "--out", str(workspace / "f.csv"),
    ])
    assert result.exit_code == 1
    assert "error: --window" in all_output(result)


WINDOW_COMMANDS = {
    "flows": [],
    "queues": [],
    "sources": [],
    "exposure": ["--token", "tok"],
}


@pytest.mark.parametrize("command", sorted(WINDOW_COMMANDS))
@pytest.mark.parametrize("window", ["200,100", "100,100"])
def test_reversed_or_empty_window_is_rejected(workspace, runner, command, window):
    out = workspace / f"{command}.csv"
    result = runner.invoke(main, [
        command, "--log", str(workspace / "log.tsv"),
        "--graph", str(workspace / "graph.tsv"),
        "--window", window, "--out", str(out), *WINDOW_COMMANDS[command],
    ])
    assert result.exit_code == 1
    assert f"error: --window end must be after its start, got '{window}'" in all_output(result)
    assert not out.exists()


def test_missing_config_key_is_a_clean_error(workspace, tmp_path, runner):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("mu = 1.0\n")
    result = runner.invoke(main, [
        "simulate", "--model", "ic",
        "--graph", str(workspace / "graph.tsv"),
        "--config", str(cfg), "--seed", "1",
        "--out", str(tmp_path / "o.csv"),
    ])
    assert result.exit_code == 1
    assert "error:" in all_output(result)


# (command, config text, environment, arguments, the unknown key). The synth
# case passes --graph with Kronecker keys in the config: those stay known.
UNKNOWN_KEY_CASES = [
    ("simulate", SIM_CONFIG + "max_tim = 0\n", {},
     ["simulate", "--model", "ct", "--graph", "{graph}", "--seed", "1"], "max_tim"),
    ("synth", SYNTH_CONFIG, {"FEEDFLOW_CONTAGION__0__OVERLOAD_HAZZARD": "0.1"},
     ["synth", "--graph", "{graph}", "--seed", "1"], "contagion.0.overload_hazzard"),
    ("graphgen", "initiator = 0.9,0.5,0.5,0.3\nk = 6\ntarget_edges = 300\ntarget_edge = 30\n",
     {}, ["graphgen", "--seed", "1"], "target_edge"),
]


@pytest.mark.parametrize("command,text,env,args,key", UNKNOWN_KEY_CASES,
                         ids=[case[0] for case in UNKNOWN_KEY_CASES])
def test_unknown_config_key_is_rejected(workspace, tmp_path, runner, command, text, env,
                                        args, key):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    out = tmp_path / "o.out"
    args = [a.format(graph=workspace / "graph.tsv") for a in args]
    result = runner.invoke(main, [*args, "--config", str(cfg), "--out", str(out)], env=env)
    assert result.exit_code == 1
    assert f"error: unknown config key '{key}'" in all_output(result)
    assert list(tmp_path.glob("o.out*")) == []


@pytest.mark.parametrize("groups", [(1,), (0, 2)])
def test_synth_reads_every_contagion_group(tmp_path, runner, groups):
    base = SYNTH_CONFIG.split("contagion.0.")[0]
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(base + "".join(
        f"contagion.{i}.token = tok{i}\ncontagion.{i}.n_seeds = 3\ncontagion.{i}.hazard = 0.3\n"
        for i in groups))
    out = tmp_path / "log.tsv"
    result = runner.invoke(main, ["synth", "--config", str(cfg), "--seed", "11",
                                  "--out", str(out), "--truth-out", str(tmp_path / "t.txt")])
    assert result.exit_code == 0, result.output
    marks = {line.split("\t")[-1] for line in out.read_text().splitlines()
             if line.split("\t")[-1].startswith("tok")}
    assert marks == {f"tok{i}" for i in groups}
    truth = (tmp_path / "t.txt").read_text()
    for k, i in enumerate(groups):
        assert f"contagions.{k}.token = tok{i}\n" in truth


@pytest.mark.parametrize("setting,key", [("mu = nan", "mu"), ("sigma = -1", "sigma"),
                                         ("mu = -5", "mu")])
def test_synth_rejects_bad_rates(tmp_path, runner, setting, key):
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(SYNTH_CONFIG + setting + "\n")
    out = tmp_path / "bad.tsv"
    result = runner.invoke(main, ["synth", "--config", str(cfg), "--seed", "1", "--out", str(out),
                                  "--graph-out", str(tmp_path / "bad.graph.tsv")])
    assert result.exit_code == 1
    message = all_output(result)
    assert message.startswith("error:") and key in message
    assert list(tmp_path.glob("bad*")) == []


@pytest.mark.parametrize("old,new,env,key", [
    ("horizon_hours = 6", "horizon_hours = inf", {}, "horizon_hours"),
    ("horizon_hours = 6", "horizon_hours = nan", {}, "horizon_hours"),
    ("contagion.0.hazard = 0.3", "contagion.0.hazard = 0.3\ncontagion.0.overload_threshold = 40",
     {}, "contagion.0.overload_hazard"),
    ("contagion.0.token = tok", "contagion.0.token =", {}, "contagion.0.token"),
    ("contagion.0.token = tok", "contagion.0.token = a,b", {}, "contagion.0.token"),
    ("contagion.0.token = tok", "contagion.0.token = a\tb", {}, "contagion.0.token"),
    ("", "", {"FEEDFLOW_CONTAGION__0__TOKEN": "a\nb"}, "contagion.0.token"),
    ("delay_bin.0.mu1 = 3.0", "delay_bin.0.mu1 = 800", {}, "delay_bin.0.mu1"),
    ("delay_bin.0.sigma2 = 0.5", "delay_bin.0.sigma2 = 70", {}, "delay_bin.0.mu2"),
    ("mu = 2.0", "mu = 1e30", {}, "mu = 1e+30 and horizon_hours = 6"),
])
def test_synth_rejects_values_its_log_cannot_hold(tmp_path, runner, old, new, env, key):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CONFIG.replace(old, new) if old else SYNTH_CONFIG)
    out = tmp_path / "bad.tsv"
    result = runner.invoke(main, ["synth", "--config", str(cfg), "--seed", "1", "--out", str(out),
                                  "--graph-out", str(tmp_path / "bad.graph.tsv")], env=env)
    assert result.exit_code == 1
    message = all_output(result)
    assert message.startswith("error:") and key in message, message
    assert "Traceback" not in message
    assert list(tmp_path.glob("bad*")) == []


def test_synth_rejects_a_lag_bound_past_2_62(tmp_path, runner):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CONFIG + f"contagion.0.adopt_jitter_s = {2**62 + 1}\n")
    out = tmp_path / "bad.tsv"
    result = runner.invoke(main, ["synth", "--config", str(cfg), "--seed", "1", "--out", str(out),
                                  "--graph-out", str(tmp_path / "bad.graph.tsv")])
    assert result.exit_code == 1
    lines = result.output.splitlines()  # stdout and stderr
    assert len(lines) == 1 and lines[0].startswith("error:") and "adopt_jitter_s" in lines[0]
    assert list(tmp_path.glob("bad*")) == []


def test_synth_rejects_a_nan_overload_threshold(tmp_path, runner):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CONFIG + "contagion.0.overload_hazard = 0.1\n"
                   "contagion.0.overload_threshold = nan\n")
    result = runner.invoke(main, ["synth", "--config", str(cfg), "--seed", "1",
                                  "--out", str(tmp_path / "bad.tsv"),
                                  "--graph-out", str(tmp_path / "bad.graph.tsv")])
    assert result.exit_code == 1
    lines = result.output.splitlines()  # stdout and stderr
    assert len(lines) == 1 and lines[0].startswith("error:") and "overload_threshold" in lines[0]
    assert list(tmp_path.glob("bad*")) == []


def test_manifest_digests_the_inputs_that_were_read(workspace, tmp_path, runner):
    # The graph is read from g.tsv and written back to it, sorted: the
    # manifest holds the digest of the bytes that were read.
    graph = tmp_path / "g.tsv"
    lines = (workspace / "graph.tsv").read_text().splitlines(keepends=True)
    graph.write_text("".join(reversed(lines)))
    read = hashlib.sha256(graph.read_bytes()).hexdigest()
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CONFIG)
    result = runner.invoke(main, ["synth", "--config", str(cfg), "--seed", "1",
                                  "--graph", str(graph), "--graph-out", str(graph),
                                  "--out", str(tmp_path / "log.tsv")])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(graph.read_bytes()).hexdigest() != read
    manifest = json.loads((tmp_path / "log.tsv.manifest.json").read_text())
    assert manifest["inputs"][str(graph)] == read


def test_manifest_mode_matches_the_outputs(workspace, runner):
    umask = os.umask(0o022)
    try:
        result = runner.invoke(main, [
            "sources", "--log", str(workspace / "log.tsv"),
            "--graph", str(workspace / "graph.tsv"), "--out", str(workspace / "s.csv")])
    finally:
        os.umask(umask)
    assert result.exit_code == 0, result.output
    modes = {stat.S_IMODE(os.stat(workspace / name).st_mode)
             for name in ("s.csv", "s.csv.manifest.json")}
    assert modes == {0o644}


# command -> (its arguments, the inputs its manifest names). {kron} is a config
# of the Kronecker keys alone, {sim} is SIM_CONFIG.
READ_INPUTS = ["--log", "{log}", "--graph", "{graph}"]
MANIFEST_INPUTS = {
    "flows": (["flows", *READ_INPUTS], {"log", "graph"}),
    "queues": (["queues", *READ_INPUTS], {"log", "graph"}),
    "sources": (["sources", *READ_INPUTS], {"log", "graph"}),
    "exposure": (["exposure", *READ_INPUTS, "--token", "tok"], {"log", "graph"}),
    "simulate": (["simulate", "--model", "ic", "--graph", "{graph}", "--config", "{sim}",
                  "--seed", "3"], {"graph", "sim"}),
    "synth": (["synth", "--config", "{synth}", "--seed", "2"], {"synth"}),
    "synth-graph": (["synth", "--config", "{synth}", "--graph", "{graph}", "--seed", "2"],
                    {"synth", "graph"}),
    "graphgen": (["graphgen", "--initiator", "0.9,0.5,0.5,0.3", "--k", "4",
                  "--target-edges", "40", "--seed", "1"], set()),
    "graphgen-config": (["graphgen", "--config", "{kron}", "--seed", "1"], {"kron"}),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_INPUTS))
def test_manifest_names_exactly_the_files_read(workspace, runner, command):
    files = {"log": workspace / "log.tsv", "graph": workspace / "graph.tsv",
             "synth": workspace / "synth.cfg", "sim": workspace / "sim.cfg",
             "kron": workspace / "kron.cfg"}
    files["sim"].write_text(SIM_CONFIG)
    files["kron"].write_text("initiator = 0.9, 0.5, 0.5, 0.3\nk = 4\ntarget_edges = 40\n")
    args, read = MANIFEST_INPUTS[command]
    out = workspace / "out.txt"
    result = runner.invoke(main, [a.format(**files) for a in args] + ["--out", str(out)])
    assert result.exit_code == 0, all_output(result)
    manifest = json.loads((workspace / "out.txt.manifest.json").read_text())
    assert manifest["inputs"] == {
        str(files[name]): hashlib.sha256(files[name].read_bytes()).hexdigest() for name in read}


def test_bad_delay_bin_hi_names_the_key(workspace, tmp_path, runner):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CONFIG.replace("delay_bin.0.hi = inf", "delay_bin.0.hi = infinity?"))
    out = tmp_path / "bad.tsv"
    result = runner.invoke(main, ["synth", "--config", str(cfg), "--seed", "1",
                                  "--graph", str(workspace / "graph.tsv"), "--out", str(out)])
    assert result.exit_code == 1
    assert "error: config key 'delay_bin.0.hi': not a number: 'infinity?'" in all_output(result)
    assert list(tmp_path.glob("bad.tsv*")) == []


def test_nan_delay_bin_lo_is_a_clean_error(workspace, tmp_path, runner):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CONFIG.replace("delay_bin.0.lo = 0", "delay_bin.0.lo = nan"))
    out = tmp_path / "bad.tsv"
    result = runner.invoke(main, ["synth", "--config", str(cfg), "--seed", "1",
                                  "--graph", str(workspace / "graph.tsv"), "--out", str(out)])
    assert result.exit_code == 1
    assert "error: delay bins must start at 0" in all_output(result)
    assert list(tmp_path.glob("bad.tsv*")) == []


def test_negative_graph_seed_names_the_key(tmp_path, runner):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CONFIG.replace("graph_seed = 1", "graph_seed = -1"))
    out = tmp_path / "bad.tsv"
    result = runner.invoke(main, ["synth", "--config", str(cfg), "--seed", "3", "--out", str(out),
                                  "--graph-out", str(tmp_path / "bad.graph.tsv")])
    assert result.exit_code == 1
    assert "error: config key 'graph_seed': not a non-negative integer: -1" in all_output(result)
    assert list(tmp_path.glob("bad*")) == []


def test_cli_import_leaves_scipy_unloaded(workspace, tmp_path):
    # Neither the import nor a delay fit, in the library or through the CLI, loads scipy.
    fit_path = tmp_path / "fit.txt"
    args = ["queues", "--log", str(workspace / "log.tsv"), "--graph", str(workspace / "graph.tsv"),
            "--out", str(tmp_path / "q.csv"), "--fit-delays", str(fit_path)]
    script = (
        "import json, sys\n"
        "import feedflow.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import numpy as np\n"
        "from feedflow.queues import fit_lognormal_convolution\n"
        "rng = np.random.default_rng(3)\n"
        "d = rng.lognormal(4.0, 0.3, 2000) + rng.lognormal(3.0, 1.2, 2000)\n"
        "fit = fit_lognormal_convolution(d)\n"
        "feedflow.cli.main(json.loads(sys.argv[1]), standalone_mode=False)\n"
        "after = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps({'loaded': loaded, 'after': after, 'n': fit.n, 'nfev': fit.nfev,\n"
        "                  'mu1': fit.mu1, 'mu2': fit.mu2}))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["loaded"] == [] and out["after"] == []
    assert "nfev = " in fit_path.read_text()
    assert out["n"] == 2000 and out["nfev"] > 0
    assert abs(out["mu1"] - 4.0) < 0.5 and abs(out["mu2"] - 3.0) < 1.0


NUMPY_MA_FREE = {
    "validate": ["validate", "--log", "{log}", "--graph", "{graph}"],  # writes no file
    "graphgen": ["graphgen", "--initiator", "0.9,0.5,0.5,0.3", "--k", "6",
                 "--target-edges", "300", "--seed", "1"],
    "simulate-ic": ["simulate", "--model", "ic", "--graph", "{graph}", "--config", "{sim}",
                    "--seed", "3", "--report", "{out}.report"],
    "simulate-ct": ["simulate", "--model", "ct", "--graph", "{graph}", "--config", "{sim}",
                    "--seed", "3", "--report", "{out}.report"],
    "flows": ["flows", "--log", "{log}", "--graph", "{graph}"],
    "flows-curve": ["flows", "--log", "{log}", "--graph", "{graph}", "--curve-out", "{out}.curve"],
    "synth": ["synth", "--config", "{synth}", "--seed", "1"],
    # np.unique loads numpy.ma, but not with return_index=True, which build_trace uses.
    "exposure": ["exposure", "--log", "{log}", "--graph", "{graph}", "--token", "tok"],
    "sources": ["sources", "--log", "{log}", "--graph", "{graph}"],
    "queues": ["queues", "--log", "{log}", "--graph", "{graph}"],
    "queues-fit": ["queues", "--log", "{log}", "--graph", "{graph}", "--fit-delays", "{out}.fit"],
}


SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_modules(args):
    """The names in sys.modules after a fresh interpreter imports feedflow.cli and, when
    args are given, runs them."""
    script = (
        "import json, sys\n"
        "from feedflow.cli import main\n"
        "if sys.argv[1:]:\n"
        "    main(sys.argv[1:], standalone_mode=False)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("command", sorted(NUMPY_MA_FREE))
def test_command_leaves_numpy_ma_unloaded(workspace, tmp_path, command):
    # The first np.unique, np.median or np.quantile call imports numpy.ma (10-30 ms).
    (tmp_path / "sim.cfg").write_text(SIM_CONFIG)
    out = tmp_path / "o.csv"
    args = [a.format(graph=workspace / "graph.tsv", log=workspace / "log.tsv",
                     sim=tmp_path / "sim.cfg", synth=workspace / "synth.cfg", out=out)
            for a in NUMPY_MA_FREE[command]]
    writes = command != "validate"
    loaded = loaded_modules(args + ["--out", str(out)] * writes)
    assert not writes or out.stat().st_size > 0
    assert sorted(m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")) == []


FEEDFLOW = {f"feedflow.{p.stem}" for p in (SRC / "feedflow").glob("*.py")} - {
    "feedflow.__init__", "feedflow.cli"}
UNUSED_BY_FEED_COUNTS = {f"feedflow.{m}" for m in
                         ("queues", "exposure", "config", "simulate", "synth", "graphgen")}
INPUTS = ["--log", "{log}", "--graph", "{graph}"]
# OpenSSL's libcrypto, about 3.4 MiB resident. numpy.random imports it (through secrets),
# so only the commands that draw no random numbers can leave it unloaded.
OPENSSL = {"_hashlib"}
# command -> (its arguments, modules it must not load)
NOT_LOADED = {
    "import": ([], FEEDFLOW | {"numpy"} | OPENSSL),
    "validate": (["validate", "--log", "{log}"], FEEDFLOW - {"feedflow.events"} | OPENSSL),
    "flows": (["flows", *INPUTS, "--out", "{out}"], UNUSED_BY_FEED_COUNTS | OPENSSL),
    "sources": (["sources", *INPUTS, "--out", "{out}"], UNUSED_BY_FEED_COUNTS | OPENSSL),
    "simulate": (["simulate", "--model", "ct", "--graph", "{graph}", "--config", "{sim}",
                  "--seed", "3", "--out", "{out}"], {"feedflow.synth", "feedflow.graphgen"}),
    "queues": (["queues", *INPUTS, "--out", "{out}"], {"feedflow.flows"} | OPENSSL),
    # leggauss would import numpy.polynomial, about 4 ms and 9 modules.
    "queues-fit": (["queues", *INPUTS, "--out", "{out}", "--fit-delays", "{out}.fit"],
                   {"numpy.polynomial", "feedflow.flows"} | OPENSSL),
    "exposure": (["exposure", *INPUTS, "--token", "tok", "--out", "{out}"], OPENSSL),
    "graphgen": (["graphgen", "--initiator", "0.9,0.5,0.5,0.3", "--k", "4", "--target-edges",
                  "30", "--seed", "1", "--out", "{out}"], set()),
    # simulate imports flows only for its --report.
    "synth": (["synth", "--config", "{synth}", "--graph", "{graph}", "--seed", "1",
               "--out", "{out}"], {"feedflow.flows"}),
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_command_loads_only_the_modules_it_runs(workspace, tmp_path, command):
    (tmp_path / "sim.cfg").write_text(SIM_CONFIG)
    args, forbidden = NOT_LOADED[command]
    args = [a.format(graph=workspace / "graph.tsv", log=workspace / "log.tsv",
                     sim=tmp_path / "sim.cfg", synth=workspace / "synth.cfg",
                     out=tmp_path / "o.out") for a in args]
    loaded = loaded_modules(args)
    assert sorted(loaded & (forbidden | {"importlib.metadata"})) == []


@pytest.mark.parametrize("given, seen", [(None, "1"), ("2", "2")])
def test_cli_runs_openblas_on_one_thread_unless_told(workspace, given, seen):
    # Importing feedflow.cli sets the variable in this process too, so each case removes it
    # from the child's environment before setting its own.
    script = (
        "import json, os, sys\n"
        "from feedflow.cli import main\n"
        "main(sys.argv[1:], standalone_mode=False)\n"
        "task = '/proc/self/task'\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "                  len(os.listdir(task)) if os.path.isdir(task) else None]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", script, "validate", "--log",
                           str(workspace / "log.tsv")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, threads = json.loads(proc.stdout.splitlines()[-1])
    assert value == seen
    if given is None and threads is not None:
        assert threads == 1


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "feedflow" in result.output


def test_originals_only_forward_of_a_forward_is_not_counted(tmp_path, runner):
    # c forwards b's forward of a's tweet. With followee retweets out of the
    # in-flow, c receives nothing, so nothing c forwards came from the in-flow.
    (tmp_path / "log.tsv").write_text(
        "0\ta\tT\t1\n100\tb\tR\t2\t1\ta\n200\tc\tR\t3\t2\tb\n"
    )
    (tmp_path / "graph.tsv").write_text("b\ta\nc\tb\n")
    out = tmp_path / "flows.csv"
    result = runner.invoke(main, [
        "flows", "--log", str(tmp_path / "log.tsv"), "--graph", str(tmp_path / "graph.tsv"),
        "--out", str(out), "--originals-only",
    ])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(out.open()))
    assert [r["user"] for r in rows] == ["a", "b", "c"]
    for r in rows:
        assert float(r["lambda_r"]) <= float(r["lambda"]), r


def test_user_name_with_comma_reads_back(tmp_path, runner):
    (tmp_path / "log.tsv").write_text("0\tv\tT\t1\n100\ta,x\tR\t2\t1\tv\n")
    (tmp_path / "graph.tsv").write_text("a,x\tv\n")
    (tmp_path / "sim.cfg").write_text(SIM_CONFIG)
    inputs = ["--log", str(tmp_path / "log.tsv"), "--graph", str(tmp_path / "graph.tsv")]
    runs = {
        "flows": ["flows", *inputs],
        "queues": ["queues", *inputs],
        "sources": ["sources", *inputs],
        "simulate": ["simulate", "--model", "ic", "--graph", str(tmp_path / "graph.tsv"),
                     "--config", str(tmp_path / "sim.cfg"), "--seed", "1"],
    }
    for name, args in runs.items():
        out = tmp_path / f"{name}.csv"
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(out.open()))
        assert rows, name
        assert all(None not in r and None not in r.values() for r in rows), name
        names = {r.get("user", r.get("seed_node")) for r in rows}
        assert "a,x" in names, name
