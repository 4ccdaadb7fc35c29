"""Run one feedflow CLI command in-process with its layers wrapped in spans.

    python3 perfbench/tracer.py SPANS.json -- <feedflow command and options>

The wrappers are installed from outside the program, on the names each module
calls (for example `feedflow.cli.parse_event_log`), so nothing in `src/` is
changed. Every span records its name, start, end and parent; the spans stay in
memory and are written to SPANS.json when the command ends, with the list of
target names that no longer exist (their layers are reported as absent). The
exit code is the command's.

Counts that need the layer's result (records, cascades, edges scanned) are
taken after the layer returns, inside a `trace.count` span, so that their cost
is not charged to the layer or to its caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time


def _count_parse(args, result):
    log, report = result
    return {"events.lines": len(log) + report.n_rejected, "events.rejected": report.n_rejected}


def _count_in_flow(args, result):
    return {"events.in_flow_calls": 1, "events.in_flow_events": len(result)}


def _count_positions(args, result):
    records, report = result
    return {"queues.records": len(records), "queues.out_of_feed": report.n_out_of_feed}


def _count_fit_input(args, result):
    delays = [d for d in args[0] if d > 0]
    return {"queues.fit_delays": len(delays), "queues.fit_unique_delays": len(set(delays))}


def _count_nfev(args, result):
    return {"queues.fit_nfev": int(result.nfev)}


def _count_cascades(args, result):
    graph = args[0]
    return {
        "simulate.cascades": len(result),
        "simulate.adopters": sum(r.size for r in result),
        "simulate.edges_scanned": sum(len(graph.followers(a))
                                      for r in result for a in r.adopters),
    }


def _count_synth(args, result):
    log, _ = result
    return {"synth.events": len(log)}


def _count_call(args, result):
    return {"exposure.trace_calls": 1}


# (module, attribute, span name, counter). Counters return metric name -> count.
# A span name may appear more than once: both in-flow builders report as the
# one events.in_flow layer, and the optimizer's evaluations are part of the fit.
TARGETS = [
    ("feedflow.cli", "parse_event_log", "events.parse_log", _count_parse),
    ("feedflow.events", "SocialGraph.from_tsv", "events.parse_graph", None),
    ("feedflow.flows", "in_flow_stream", "events.in_flow", _count_in_flow),
    ("feedflow.queues", "in_flow_stream", "events.in_flow", _count_in_flow),
    ("feedflow.cli", "compute_flow_stats", "flows.stats", None),
    ("feedflow.cli", "log_binned_curve", "flows.curve", None),
    ("feedflow.cli", "queue_positions", "queues.positions", _count_positions),
    ("feedflow.cli", "fit_lognormal_convolution", "queues.fit", _count_fit_input),
    ("feedflow.queues", "minimize", "queues.fit", _count_nfev),
    ("feedflow.cli", "source_stats", "sources.stats", None),
    ("feedflow.cli", "group_users_by_inflow", "exposure.group", None),
    ("feedflow.cli", "build_trace", "exposure.trace", _count_call),
    ("feedflow.cli", "exposure_curve", "exposure.curve", None),
    ("feedflow.cli", "aggregate_curves", "exposure.aggregate", None),
    ("feedflow.cli", "simulate_ic_bg", "simulate.ic", _count_cascades),
    ("feedflow.cli", "simulate_ct_bg", "simulate.ct", _count_cascades),
    ("feedflow.cli", "distribution_report", "simulate.report", None),
    ("feedflow.graphgen", "kronecker_edges", "graphgen.edges", None),
    ("feedflow.cli", "kronecker_generate", "graphgen.generate", None),
    ("feedflow.cli", "generate_workload", "synth.generate", _count_synth),
    ("feedflow.events", "EventLog.to_tsv", "events.log_to_tsv", None),
    ("feedflow.events", "SocialGraph.to_tsv", "events.graph_to_tsv", None),
    ("feedflow.cli", "file_digest", "manifest.digest", None),
    ("feedflow.manifest", "RunManifest.write", "manifest.write", None),
]


# The span that also records how much resident memory it left behind.
RSS_SPAN = "events.parse_log"


def _rss_kib() -> int:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except OSError:
        return 0


class Tracer:
    """Spans in start order: name, parent index, t0, t1, counts, rss_kib."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "parent": self._stack[-1] if self._stack else None}
        if name == RSS_SPAN:
            span["rss_kib"] = -_rss_kib()
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["t0"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        if "rss_kib" in span:
            span["rss_kib"] += _rss_kib()
        self._stack.pop()

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                count = self.open("trace.count")
                try:
                    span["counts"] = counter(args, result)
                except (AttributeError, TypeError, ValueError):
                    pass  # the layer's result changed shape: its counts are absent
                finally:
                    self.close(count)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; return the names that do not."""
        absent = []
        for module_name, attr, name, counter in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                absent.append(f"{module_name}.{attr}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, leaf, type(raw)(self.wrap(raw.__func__, name, counter)))
            else:
                setattr(owner, leaf, self.wrap(raw, name, counter))
        return absent


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- COMMAND [OPTIONS]", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    import feedflow.cli

    tracer = Tracer()
    absent = tracer.install()
    root = tracer.open("cli.self")
    try:
        feedflow.cli.main(cli_args, prog_name="feedflow")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.close(root)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"absent": absent, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
