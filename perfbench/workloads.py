"""The benchmark's workloads: seeded inputs, CLI commands and output checks.

Each command is run as a user would run it, `python -m feedflow.cli ...` in
the work directory. Its role says whether it runs the layer the workload is
built to stress ("focus") or bypasses it ("control").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import gen

Check = Callable[[str], Optional[str]]  # stdout -> None, or why the output is wrong


@dataclass
class Command:
    name: str
    role: str                    # "focus" or "control"
    args: list[str]
    check: Check
    outputs: tuple[str, ...]     # files that must read the same on every run


@dataclass
class Workload:
    commands: list[Command]
    digests: dict[str, str]      # input file -> sha256
    truth: dict


def _first_error(*results: Optional[str]) -> Optional[str]:
    return next((r for r in results if r), None)


def _write_inputs(work: Path, files: dict[str, bytes]) -> dict[str, str]:
    for name, data in files.items():
        (work / name).write_bytes(data)
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


LOG = ["--log", "log.tsv", "--graph", "graph.tsv"]
TOKENS = ("tok0", "tok1", "tok2")


def feeds(work: Path, seed: int) -> Workload:
    """Parse and per-user in-flow building: flows, queues and exposure build
    every user's in-flow; validate and sources only parse."""
    inp = gen.generate(gen.LogSpec(k=10, edges=20_000, hours=20, tokens=TOKENS), seed)
    digests = _write_inputs(work, {"log.tsv": inp.log_tsv, "graph.tsv": inp.graph_tsv})
    t = checks.FeedTruth(inp, seed)
    token_args = [a for tok in TOKENS for a in ("--token", tok)]
    return Workload([
        Command("validate", "control", ["validate", *LOG], t.check_validate, ()),
        Command("flows", "focus", ["flows", *LOG, "--out", "flows.csv",
                                   "--curve-out", "curve.csv"],
                lambda out: t.check_flows_csv(work / "flows.csv"),
                ("flows.csv", "curve.csv")),
        Command("queues", "focus", ["queues", *LOG, "--out", "queues.csv"],
                lambda out: _first_error(t.check_queue_counts(out),
                                  t.check_queues_csv(work / "queues.csv")),
                ("queues.csv",)),
        Command("sources", "control", ["sources", *LOG, "--out", "sources.csv"],
                lambda out: t.check_sources_csv(work / "sources.csv"), ("sources.csv",)),
        Command("exposure", "focus", ["exposure", *LOG, *token_args, "--out", "exposure.csv"],
                lambda out: t.check_exposure_csv(work / "exposure.csv", len(TOKENS)),
                ("exposure.csv",)),
    ], digests, inp.truth)


def delayfit(work: Path, seed: int) -> Workload:
    """The lognormal-sum delay fit on about 39k whole-second delays; parsing the
    same log without queue positions or the fit is the control.

    At 10k delays the fitted mu2 has a standard error near 0.09, so the 0.15
    tolerance failed on some seeds with the likelihood above the truth's; at
    39k it is near 0.045. A high beta0 keeps the log, and the queue work
    before the fit, small.
    """
    inp = gen.generate(gen.LogSpec(k=8, edges=2_000, hours=65, beta0=0.3), seed)
    digests = _write_inputs(work, {"log.tsv": inp.log_tsv, "graph.tsv": inp.graph_tsv})
    t = checks.FeedTruth(inp, seed)
    return Workload([
        Command("queues_fit", "focus",
                ["queues", *LOG, "--out", "queues_fit.csv", "--fit-delays", "fit.txt"],
                lambda out: _first_error(t.check_queue_counts(out),
                                  t.check_queues_csv(work / "queues_fit.csv"),
                                  checks.check_fit(work / "fit.txt")),
                ("queues_fit.csv", "fit.txt")),
        Command("validate", "control", ["validate", *LOG], t.check_validate, ()),
    ], digests, inp.truth)


CURVE = "lambda_c = 30\nbeta0 = 0.05\ngamma = 0.65\n"
# Criterion 6's delay bins: light delays below in-flow 100, a heavy tail above.
CT_BINS = """
delay_bin.0.lo = 0
delay_bin.0.hi = 100
delay_bin.0.mu1 = 6.0
delay_bin.0.sigma1 = 0.5
delay_bin.0.mu2 = 5.0
delay_bin.0.sigma2 = 0.5
delay_bin.1.lo = 100
delay_bin.1.hi = inf
delay_bin.1.mu1 = 4.0
delay_bin.1.sigma1 = 2.0
delay_bin.1.mu2 = 3.5
delay_bin.1.sigma2 = 2.0
"""
SYNTH = """
horizon_hours = 30
delay_bin.0.lo = 0
delay_bin.0.hi = inf
delay_bin.0.mu1 = 4.0
delay_bin.0.sigma1 = 0.3
delay_bin.0.mu2 = 3.0
delay_bin.0.sigma2 = 1.2
contagion.0.token = tok0
contagion.0.n_seeds = 8
contagion.0.hazard = 0.08
"""
N_IC, N_OVERLOAD = 800, 15_000
GRAPHGEN_K, GRAPHGEN_EDGES = 13, 80_000


def cascades(work: Path, seed: int) -> Workload:
    """Cascade simulation at mu=1 (per-edge loop, large cascades) and at
    mu=100 (per-cascade overhead, cascades of about one node), graph
    generation and synth's log writing. No event log is parsed."""
    graph = gen.make_graph(np.random.default_rng(seed), 10, 20_000)
    digests = _write_inputs(work, {
        "graph.tsv": graph.tsv(),
        "ic.cfg": f"mu = 1.0\nsigma = 0.25\n{CURVE}n_cascades = {N_IC}\n".encode(),
        "ct.cfg": f"mu = 1.0\nsigma = 0.25\n{CURVE}n_cascades = {N_IC}\n{CT_BINS}".encode(),
        "overload.cfg": f"mu = 100.0\nsigma = 25.0\n{CURVE}n_cascades = {N_OVERLOAD}\n".encode(),
        "synth.cfg": f"mu = 1.0\nsigma = 0.25\n{CURVE}{SYNTH}".encode(),
    })
    s = str(seed)
    frac: dict[str, float] = {}

    def simulated(name: str, n: int) -> Check:
        def check(out: str) -> Optional[str]:
            sizes, err = checks.cascade_sizes(work / f"{name}.csv", n)
            if err:
                return err
            frac[name] = checks.frac_at_least_3(sizes)
            if name == "ic_w2" and "ic" in frac and (work / "ic.csv").read_bytes() != \
                    (work / "ic_w2.csv").read_bytes():
                return "simulate --workers 2 output differs from --workers 1"
            if name == "ct" and "ic" in frac and abs(frac["ct"] - frac["ic"]) > 0.1:
                return f"frac(size>=3) ct {frac['ct']:.3f} vs ic {frac['ic']:.3f}"
            if name == "overload" and "ic" in frac and not frac["overload"] * 10 < frac["ic"]:
                return f"frac(size>=3) mu=100 {frac['overload']:.4f} vs mu=1 {frac['ic']:.3f}"
            return None
        return check

    def sim(name: str, cfg: str, model: str, *extra: str) -> list[str]:
        return ["simulate", "--model", model, "--graph", "graph.tsv", "--config", cfg,
                "--seed", s, *extra, "--out", f"{name}.csv", "--report", f"{name}_report.csv"]

    def graphgen_check(out: str) -> Optional[str]:
        want = f"{1 << GRAPHGEN_K} nodes, {GRAPHGEN_EDGES} edges"
        if want not in out or checks.count_lines(work / "gen_graph.tsv") != GRAPHGEN_EDGES:
            return f"graphgen output lacks {want!r}"
        return None

    def synth_check(out: str) -> Optional[str]:
        n = checks.count_lines(work / "synth.tsv")
        return None if out.strip() == f"{n} events" and n > 0 else f"synth said {out!r}, wrote {n}"

    return Workload([
        Command("simulate_ic", "focus", sim("ic", "ic.cfg", "ic"),
                simulated("ic", N_IC), ("ic.csv", "ic_report.csv")),
        Command("simulate_ic_w2", "focus", sim("ic_w2", "ic.cfg", "ic", "--workers", "2"),
                simulated("ic_w2", N_IC), ("ic_w2.csv", "ic_w2_report.csv")),
        Command("simulate_ct", "focus", sim("ct", "ct.cfg", "ct"),
                simulated("ct", N_IC), ("ct.csv", "ct_report.csv")),
        Command("simulate_ic_overload", "control", sim("overload", "overload.cfg", "ic"),
                simulated("overload", N_OVERLOAD), ("overload.csv", "overload_report.csv")),
        Command("graphgen", "control",
                ["graphgen", "--initiator", ",".join(map(str, gen.PAPER_INITIATOR)),
                 "--k", str(GRAPHGEN_K), "--target-edges", str(GRAPHGEN_EDGES),
                 "--seed", s, "--out", "gen_graph.tsv"],
                graphgen_check, ("gen_graph.tsv",)),
        Command("synth", "control",
                ["synth", "--config", "synth.cfg", "--graph", "graph.tsv", "--seed", s,
                 "--out", "synth.tsv"],
                synth_check, ("synth.tsv",)),
    ], digests, {"users": len(graph.users), "edges": int(graph.follower.size)})


WORKLOADS = {"feeds": feeds, "delayfit": delayfit, "cascades": cascades}
