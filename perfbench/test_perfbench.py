"""Checks on the benchmark itself: seeded inputs and the declared metric names.

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import gen
import run

SMALL = gen.LogSpec(k=7, edges=600, hours=10, tokens=("a", "b"))


def test_same_seed_gives_the_same_bytes():
    one, two, other = gen.generate(SMALL, 5), gen.generate(SMALL, 5), gen.generate(SMALL, 6)
    assert one.log_tsv == two.log_tsv and one.graph_tsv == two.graph_tsv
    assert other.log_tsv != one.log_tsv and other.graph_tsv != one.graph_tsv


def test_truth_matches_the_written_log():
    inp = gen.generate(SMALL, 5)
    lines = inp.log_tsv.decode().splitlines()
    t = inp.truth
    assert len(lines) == t["events"] + t["rejected"] and t["rejected"] > 0
    fields = [line.split("\t") for line in lines]
    # Valid event ids are 1..events; a malformed forward may name any other.
    forwards = sum(1 for f in fields if f[2:3] == ["R"] and int(f[4]) <= t["events"])
    assert forwards == t["in_feed_forwards"] + t["out_of_feed_forwards"]
    assert t["out_of_feed_forwards"] > 0


def test_declared_metrics_match_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
