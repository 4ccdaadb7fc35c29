"""Seeded end-to-end benchmark of the feedflow CLI.

    python3 perfbench/run.py --workload feeds --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed, runs each CLI command as a
fresh `python -m feedflow.cli` process in a closed loop (one client, each
command starts when the previous one ends) for the given seconds, checks every
output, and prints one line per metric followed by a JSON summary as the last
line. With --trace 1 it then runs every command once more under
perfbench/tracer.py and reports per-layer metrics instead. Everything it
writes goes under perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Command, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 3  # imports timed at the start and again at the end of a run
MIN_RUNS = 3
DEADLINE_S = 170.0  # a run must end within 180 s; children still running then are killed

END_TO_END = {
    "setup_s": "s", "total_s": "s", "focus_s": "s", "control_s": "s", "peak_rss_mib": "MiB",
}
COMMANDS = [
    "validate", "flows", "queues", "sources", "exposure", "queues_fit", "simulate_ic",
    "simulate_ic_w2", "simulate_ct", "simulate_ic_overload", "graphgen", "synth",
]
LAYER_TIMES = [
    "events.parse_log", "events.parse_graph", "events.in_flow", "flows.stats", "flows.curve",
    "queues.positions", "queues.fit", "sources.stats", "exposure.group", "exposure.trace",
    "exposure.curve", "exposure.aggregate", "simulate.ic", "simulate.ct", "simulate.report",
    "graphgen.edges", "graphgen.generate", "synth.generate", "events.log_to_tsv",
    "events.graph_to_tsv", "manifest.digest", "manifest.write", "cli.self",
]
LAYER_COUNTS = [
    "events.lines", "events.rejected", "events.in_flow_calls", "events.in_flow_events",
    "queues.records", "queues.out_of_feed", "queues.fit_nfev", "queues.fit_delays",
    "queues.fit_unique_delays", "exposure.trace_calls", "simulate.cascades",
    "simulate.adopters", "simulate.edges_scanned", "synth.events",
]
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "events.log_rss_mib": "MiB",
    "queues.fit_ms_per_eval": "ms",
    "simulate.us_per_edge": "us",
    "simulate.us_per_cascade": "us",
    **{f"cmd.{name}_s": "s" for name in COMMANDS},
    **{f"overhead.{name}_s": "s" for name in COMMANDS},
    "overhead.total_s": "s",
    "host.ref_s": "s",
}
# Commands whose simulate time is per edge tried (mu = 1) or per cascade (mu = 100).
EDGE_BOUND = ("simulate_ic", "simulate_ic_w2", "simulate_ct")
CASCADE_BOUND = ("simulate_ic_overload",)


def host_ref() -> float:
    """Time of a fixed computation: a diagnostic of host speed that no metric is scaled by."""
    t0 = time.perf_counter()
    np.sort(np.random.default_rng(0).random(1_000_000))
    sum(i * i for i in range(1_000_000))
    return time.perf_counter() - t0


class Runner:
    """Runs child processes in the work directory and keeps the operation ledger.

    Children are started by perfbench/spawner.py, which is started before
    this process generates any input, so each child's peak RSS is its own.
    """

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kib = 0
        self.digests: dict[str, dict[str, str]] = {}
        self._spawner = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self._spawner.stdin.close()
        self._spawner.wait()

    def spawn(self, argv: list[str]) -> tuple[float, int, str, int]:
        """Run argv to its end: wall seconds, exit code, stdout, peak RSS in KiB."""
        out = self.work / ".stdout"
        request = {"argv": argv, "cwd": str(self.work), "env": self.env,
                   "timeout": max(1.0, self.deadline - time.monotonic()),
                   "stdout": str(out), "stderr": str(self.work / ".stderr")}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench/spawner.py ended unexpectedly")
        r = json.loads(reply)
        return r["wall_s"], r["code"], out.read_text(encoding="utf-8"), r["maxrss_kib"]

    def run(self, cmd: Command, spans: Path | None = None) -> float:
        """One operation: run the command, check its outputs, return its wall time."""
        if spans is None:
            argv = [sys.executable, "-m", "feedflow.cli", *cmd.args]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), "--", *cmd.args]
        wall, code, stdout, rss_kib = self.spawn(argv)
        self.attempted += 1
        if spans is None:
            self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        try:
            error = f"exit code {code}" if code else cmd.check(stdout)
            if not error:
                digests = {name: hashlib.sha256((self.work / name).read_bytes()).hexdigest()
                           for name in cmd.outputs}
                first = self.digests.setdefault(cmd.name, digests)
                if digests != first:
                    error = "output bytes differ between runs of the command"
        except Exception as exc:  # a check that cannot read the output fails the operation
            error = f"check raised {exc!r}"
        if error:
            self.failures.append(f"{cmd.name}: {error}")
        return wall


def measure(runner: Runner, commands: list[Command], seconds: float) -> dict[str, list[float]]:
    """Closed loop over the window, always starting the least-run command.

    Every command runs once; one whose first run took at most a third of the
    window runs MIN_RUNS times, so that its median has three samples; after
    that a command starts only if its median still fits in the window.
    """
    samples: dict[str, list[float]] = {c.name: [] for c in commands}
    end = time.perf_counter() + seconds

    def due(c: Command, left: float) -> bool:
        s = samples[c.name]
        return (not s or (len(s) < MIN_RUNS and s[0] <= seconds / 3)
                or statistics.median(s) <= left)

    while True:
        left = end - time.perf_counter()
        todo = sorted((c for c in commands if due(c, left)), key=lambda c: len(samples[c.name]))
        if not todo:
            return samples
        samples[todo[0].name].append(runner.run(todo[0]))


def traced_pass(runner: Runner, commands: list[Command],
                medians: dict[str, float]) -> list[dict]:
    docs = []
    for cmd in commands:
        spans = runner.work / f"{cmd.name}.spans.json"
        wall = runner.run(cmd, spans=spans)
        doc = json.loads(spans.read_text()) if spans.exists() else {"absent": [], "spans": []}
        docs.append({"command": cmd.name, "wall_s": wall,
                     "overhead_s": wall - medians[cmd.name], **doc})
    return docs


def _self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["t1"] - s["t0"]
    return [s["t1"] - s["t0"] - c for s, c in zip(spans, covered)]


def layer_metrics(docs: list[dict], medians: dict[str, float], ref_s: float) -> dict:
    """Per-layer self time and counts, summed over the workload's traced commands."""
    times: dict[str, Counter] = defaultdict(Counter)   # command -> span name -> self s
    counts: dict[str, Counter] = defaultdict(Counter)  # command -> count name -> n
    rss_kib = 0
    for doc in docs:
        cmd = doc["command"]
        for s, self_s in zip(doc["spans"], _self_times(doc["spans"])):
            times[cmd][s["name"]] += self_s
            counts[cmd].update(s.get("counts", {}))
            if s["name"] == "events.parse_log":
                rss_kib = max(rss_kib, s["rss_kib"])
    total_t, total_n = Counter(), Counter()
    for cmd in times:
        total_t.update(times[cmd])
        total_n.update(counts[cmd])

    def per_unit(commands: tuple[str, ...], unit: str) -> float:
        spent = sum(times[c]["simulate.ic"] + times[c]["simulate.ct"] for c in commands)
        n = sum(counts[c][unit] for c in commands)
        return 1e6 * spent / n if n else 0.0

    overhead = {doc["command"]: doc["overhead_s"] for doc in docs}
    return {
        **{f"{name}_s": total_t[name] for name in LAYER_TIMES},
        **{name: total_n[name] for name in LAYER_COUNTS},
        "events.log_rss_mib": rss_kib / 1024,
        "queues.fit_ms_per_eval": (1e3 * total_t["queues.fit"] / total_n["queues.fit_nfev"]
                                   if total_n["queues.fit_nfev"] else 0.0),
        "simulate.us_per_edge": per_unit(EDGE_BOUND, "simulate.edges_scanned"),
        "simulate.us_per_cascade": per_unit(CASCADE_BOUND, "simulate.cascades"),
        **{f"cmd.{name}_s": medians.get(name, 0.0) for name in COMMANDS},
        **{f"overhead.{name}_s": overhead.get(name, 0.0) for name in COMMANDS},
        "overhead.total_s": sum(overhead.values()),
        "host.ref_s": ref_s,
    }


def _version(dist: str) -> str:
    try:
        return version(dist)
    except PackageNotFoundError:
        return "absent"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "feedflow" / "cli.py").is_file():
        print(f"error: no feedflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with Runner(work, deadline) as runner:
            ref_start = host_ref()
            workload: Workload = WORKLOADS[args.workload](work, args.seed)
            import_argv = [sys.executable, "-c", "import feedflow.cli"]
            runner.spawn(import_argv)  # fills the bytecode cache before timing
            setup = [runner.spawn(import_argv)[0] for _ in range(SETUP_REPS)]
            samples = measure(runner, workload.commands, args.seconds)
            setup += [runner.spawn(import_argv)[0] for _ in range(SETUP_REPS)]
            medians = {name: statistics.median(v) for name, v in samples.items()}
            docs = traced_pass(runner, workload.commands, medians) if args.trace else []
            ref_end = host_ref()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    roles = {c.name: c.role for c in workload.commands}
    e2e = {
        "setup_s": statistics.median(setup),
        "total_s": sum(medians.values()),
        "focus_s": sum(m for n, m in medians.items() if roles[n] == "focus"),
        "control_s": sum(m for n, m in medians.items() if roles[n] == "control"),
        "peak_rss_mib": runner.peak_rss_kib / 1024,
    }
    if args.trace:
        metrics = layer_metrics(docs, medians, (ref_start + ref_end) / 2)
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "numpy": _version("numpy"),
        "scipy": _version("scipy"), "nproc": os.cpu_count(),
        "host.ref_s": {"start": ref_start, "end": ref_end},
    }
    OUT.mkdir(exist_ok=True)
    results = OUT / f"{tag}.json"
    results.write_text(json.dumps({
        "context": context, "inputs": workload.digests, "truth": workload.truth,
        "samples_s": samples, "setup_s": setup, "end_to_end": e2e, "metrics": metrics,
        "failures": runner.failures, "traced": docs,
    }, indent=1) + "\n")

    print(" ".join(f"{k}={v}" for k, v in context.items() if k != "host.ref_s"))
    print(f"host.ref_s start {ref_start:.4f} end {ref_end:.4f} (diagnostic only)")
    for name, digest in workload.digests.items():
        print(f"input {name} sha256 {digest}")
    for name, times in samples.items():
        print(f"{name + '_s':24s} {medians[name]:9.4f} s   median of {len(times)}, "
              f"{roles[name]}, range {min(times):.3f}-{max(times):.3f}")
    for name in END_TO_END:
        print(f"{name:24s} {e2e[name]:9.4f} {END_TO_END[name]}")
    if args.trace:
        for doc in docs:
            if doc["absent"]:
                print(f"{doc['command']}: absent layer targets {', '.join(doc['absent'])}")
        for name, value in metrics.items():
            if value:
                print(f"{name:30s} {value:14.6g} {units[name]}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"results {results.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
