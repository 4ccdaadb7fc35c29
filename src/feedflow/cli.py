"""Command-line front end: reproducible file-in/file-out pipelines.

Every command reads and writes plain files, digests its inputs before the
first rename of an output into place, and drops a RunManifest JSON next to its
primary output. Plots are never rendered here; commands emit CSV for external
plotting.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import importlib
import math
import os
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, TextIO

import click

from . import __version__

if TYPE_CHECKING:
    from .events import EventLog, SocialGraph

# numpy's OpenBLAS otherwise starts a worker thread at import that spins beside this one, and
# no BLAS call in feedflow is large enough for it to help. A caller's own setting is kept.
# This runs at import, not in main(), because perfbench/tracer.py imports numpy before main().
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _deferred(module: str, names: str) -> Iterator[Callable]:
    """Stand-ins for callables of feedflow.<module> that import it when called, so that a
    command loads only the modules it runs. perfbench/tracer.py wraps the stand-ins here."""
    def call(name: str, *args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)
    return (functools.partial(call, name) for name in names.split())


(beta_curve_from, check_known_keys, contagions_from, delay_model_from, get_float, get_int,
 kronecker_params_from, parse_config) = _deferred("config", "beta_curve_from check_known_keys "
    "contagions_from delay_model_from get_float get_int kronecker_params_from parse_config")
parse_event_log, FeedCounts, FeedIndex = _deferred("events", "parse_event_log FeedCounts FeedIndex")
aggregate_curves, build_trace, exposure_curve, group_users_by_inflow = _deferred(
    "exposure", "aggregate_curves build_trace exposure_curve group_users_by_inflow")
log_binned_curve, window_hours = _deferred("flows", "log_binned_curve window_hours")
kronecker_generate, = _deferred("graphgen", "kronecker_generate")
RunManifest, file_digest, manifest_path_for = _deferred(
    "manifest", "RunManifest file_digest manifest_path_for")
QueuePositions, fit_lognormal_convolution, queue_positions = _deferred(
    "queues", "QueuePositions fit_lognormal_convolution queue_positions")
SimConfig, distribution_report, simulate_ct_bg, simulate_ic_bg = _deferred(
    "simulate", "SimConfig distribution_report simulate_ct_bg simulate_ic_bg")
WorkloadSpec, generate_workload, ground_truth_text = _deferred(
    "synth", "WorkloadSpec generate_workload ground_truth_text")


def _fail(message: str) -> "click.exceptions.Exit":
    click.echo(f"error: {message}", err=True)
    return click.exceptions.Exit(1)


def command_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, KeyError) as exc:
            raise _fail(str(exc))
        except OSError as exc:
            raise _fail(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc))

    return wrapper


def _load_inputs(log_path: str, graph_path: str,
                 window: Optional[str]) -> tuple[EventLog, SocialGraph, tuple[int, int]]:
    """The log (its rejects warned on stderr), the graph and the window."""
    log = _load_log(log_path)
    return log, _load_graph(graph_path), _parse_window(window, log)


def _load_log(path: str, listed: bool = False) -> EventLog:
    """The log. Its rejects are warned on stderr or, when listed, counted
    and listed on stdout after the number of events."""
    with open(path, "rb") as fh:
        log, report = parse_event_log(fh)
    if listed:
        click.echo(f"{len(log)} events")
        if report.rejects:
            click.echo(f"{report.n_rejected} lines rejected:")
    for rej in report.rejects:
        click.echo(f"  line {rej.line_no}: {rej.reason}" if listed else
                   f"warning: line {rej.line_no} rejected: {rej.reason}", err=not listed)
    return log


def _load_graph(path: str) -> SocialGraph:
    from .events import SocialGraph
    with open(path, "rb") as fh:
        return SocialGraph.from_tsv(fh)


def _parse_window(window: Optional[str], log: EventLog) -> tuple[int, int]:
    if window is None:
        return log.span()
    try:
        lo, hi = (int(part) for part in window.split(","))
    except ValueError:
        raise _fail(f"--window must be 'start,end' integers, got {window!r}")
    if hi <= lo:
        raise _fail(f"--window end must be after its start, got {window!r}")
    return (lo, hi)


class _Outputs:
    """A command's outputs, staged in temp files next to their targets.

    commit() digests the inputs, stages the run manifest and renames every
    staged file into place, the manifest last. Leaving the with-block without
    commit(), for example on an error, deletes the temp files: a failed
    command writes neither outputs nor a manifest.
    """

    def __init__(self):
        self._staged: list[tuple[str, str]] = []  # (temp path, target path)

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, *exc_info) -> None:
        for tmp, _ in self._staged:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def open(self, path: str) -> TextIO:
        # Two outputs with one target would share a temp file, and the second would win.
        if any(os.path.abspath(path) == os.path.abspath(target) for _, target in self._staged):
            raise ValueError(f"{path}: named for more than one output")
        tmp = f"{path}.{os.getpid()}.tmp"
        fh = open(tmp, "w", encoding="utf-8")
        self._staged.append((tmp, path))
        return fh

    def write_csv(self, path: str, header: str, rows: Iterable[Sequence]) -> None:
        """A CSV file; fields holding a comma or a quote are quoted."""
        with self.open(path) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header.split(","))
            writer.writerows(rows)

    def commit(self, command: str, cfg: dict, inputs: list[str], seed,
               fit: Optional[dict] = None) -> None:
        # Digested before any rename: an output may overwrite an input.
        manifest = RunManifest(
            command=command,
            config=cfg,
            inputs={p: file_digest(p) for p in inputs},
            seed=seed,
            outputs=[path for _, path in self._staged],
            fit=fit,
        )
        with self.open(str(manifest_path_for(manifest.outputs[0]))) as fh:
            fh.write(manifest.to_json())
        for tmp, path in self._staged:
            os.replace(tmp, path)


def _read_config(path: Optional[str], command: str) -> dict[str, str]:
    if path is None:
        cfg = parse_config("")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    check_known_keys(cfg, command)
    return cfg


@click.group()
@click.version_option(__version__, prog_name="feedflow")
def main():
    """Feed-queue analytics and contagion simulation toolkit."""


@main.command()
@click.option("--log", "log_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", type=click.Path(exists=True))
@command_errors
def validate(log_path, graph_path):
    """Parse and validate an event log (and optionally a graph); report counts."""
    _load_log(log_path, listed=True)
    if graph_path:
        graph = _load_graph(graph_path)
        click.echo(f"{len(graph.nodes)} users, {graph.n_edges()} follow edges")


@main.command()
@click.option("--log", "log_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--window", default=None, help="start,end seconds (default: log span)")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--curve-out", "curve_path", type=click.Path(),
              help="binned retweet-probability curve CSV")
@click.option("--min-received", default=10, show_default=True,
              help="exclude users with fewer received tweets from the curve")
@click.option("--bins-per-decade", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--originals-only", is_flag=True,
              help="exclude followee retweets from the in-flow")
@command_errors
def flows(log_path, graph_path, window, out_path, curve_path, min_received,
          bins_per_decade, originals_only):
    """Per-user rate statistics and the population retweet-probability curve."""
    import numpy as np
    log, graph, win = _load_inputs(log_path, graph_path, window)
    hours = window_hours(win)
    counts = FeedCounts(log, graph, win, originals_only)
    received, forwarded = counts.received(), counts.forwarded()
    lam, lam_r = received / hours, forwarded / hours
    beta_r = np.divide(forwarded, received, out=np.zeros(len(received)), where=received > 0)
    with _Outputs() as out:
        out.write_csv(out_path, "user,lambda,lambda_r,beta_r,F", (
            [user, f"{a:.10g}", f"{b:.10g}", f"{c:.10g}", f] for user, a, b, c, f in zip(
                graph.nodes, lam.tolist(), lam_r.tolist(), beta_r.tolist(),
                counts.followees.tolist())
        ))
        if curve_path:
            eligible = received >= min_received
            curve = log_binned_curve(lam[eligible], beta_r[eligible],
                                     bins_per_decade=bins_per_decade)
            out.write_csv(curve_path, "bin_lo,bin_hi,n,mean,median,p10,p90", (
                [f"{b.lo:.10g}", f"{b.hi:.10g}", b.n, f"{b.mean:.10g}",
                 f"{b.median:.10g}", f"{b.p10:.10g}", f"{b.p90:.10g}"]
                for b in curve
            ))
        out.commit("flows", {"window": list(win), "min_received": min_received},
                   [log_path, graph_path], None)


@main.command()
@click.option("--log", "log_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--window", default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--source", type=click.Choice(["immediate", "root"]), default="immediate",
              show_default=True, help="measure against the feed item or the chain root")
@click.option("--fit-delays", "fit_path", type=click.Path(),
              help="write a lognormal-convolution fit report for the pooled delays")
@command_errors
def queues(log_path, graph_path, window, out_path, source, fit_path):
    """Queue positions and delays for every forward in the window."""
    import numpy as np
    log, graph, win = _load_inputs(log_path, graph_path, window)
    feeds = FeedIndex(log, graph, win)
    parts = [queue_positions(u, feeds, source=source) for u in graph.nodes]
    # The empty first piece keeps a graph without users working.
    columns = QueuePositions(*(np.concatenate([np.empty(0, np.int64), *(c[j] for c, _ in parts)])
                               for j in range(4)))
    n_out_of_feed = sum(n for _, n in parts)
    click.echo(f"{len(columns.q)} queue records, {n_out_of_feed} out-of-feed forwards")
    user = np.repeat(np.arange(len(graph.nodes)), [len(c.q) for c, _ in parts])

    def records():  # _ROW_BLOCK rows at a time: bounds the tolist() copies
        from .events import _ROW_BLOCK
        for lo in range(0, len(user), _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            yield from zip(map(graph.nodes.__getitem__, user[rows].tolist()),
                           *(col[rows].tolist() for col in columns))

    with _Outputs() as out:
        out.write_csv(out_path, "user,retweet_id,orig_id,q,delay_s", records())
        report = None
        if fit_path:
            fit = fit_lognormal_convolution(columns.delay_s)
            report = dataclasses.asdict(fit)
            with out.open(fit_path) as fh:
                for key, value in report.items():
                    fh.write(f"{key} = {value}\n")
            # JSON has no NaN: an undefined standard error is null in the manifest.
            report = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                      for k, v in report.items()}
        out.commit("queues", {"window": list(win), "source": source},
                   [log_path, graph_path], None, fit=report)


@main.command()
@click.option("--log", "log_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--window", default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@command_errors
def sources(log_path, graph_path, window, out_path):
    """Retweet source-set statistics per user."""
    import numpy as np
    log, graph, win = _load_inputs(log_path, graph_path, window)
    counts = FeedCounts(log, graph, win)
    source_set, out_of_feed = counts.sources()
    followees = counts.followees
    p_src = np.divide(source_set, followees, out=np.zeros(len(followees)), where=followees > 0)
    with _Outputs() as out:
        out.write_csv(out_path, "user,F,S_r,p_src,out_of_feed", (
            [user, f, s, f"{p:.10g}", o] for user, f, s, p, o in zip(
                graph.nodes, followees.tolist(), source_set.tolist(), p_src.tolist(),
                out_of_feed.tolist())
        ))
        out.commit("sources", {"window": list(win)}, [log_path, graph_path], None)


@main.command()
@click.option("--log", "log_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--window", default=None)
@click.option("--token", "tokens", multiple=True, required=True)
@click.option("--ranges", default="1:10,10:100,100:200,1000:2500", show_default=True,
              help="in-flow (lo:hi] groups, comma-separated")
@click.option("--aggregate", type=click.Choice(["mean", "pooled"]), default="mean",
              show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@command_errors
def exposure(log_path, graph_path, window, tokens, ranges, aggregate, out_path):
    """Ordinal-time exposure curves per in-flow group, aggregated across tokens."""
    log, graph, win = _load_inputs(log_path, graph_path, window)
    try:
        bounds = [
            (float(lo), float(hi))
            for lo, hi in (part.split(":") for part in ranges.split(","))
        ]
    except ValueError:
        raise _fail(f"--ranges must look like '1:10,10:100', got {ranges!r}")
    lam = FeedCounts(log, graph, win).received() / window_hours(win)
    groups = group_users_by_inflow(dict(zip(graph.nodes, lam.tolist())), bounds)
    traces = [build_trace(token, log, graph, win) for token in tokens]
    rows = []
    for (lo, hi) in bounds:
        users = groups[(lo, hi)]
        if not users:
            continue
        curves = [exposure_curve(trace, users) for trace in traces]
        agg = aggregate_curves(curves, mode=aggregate)
        for k in range(agg.k_max + 1):
            p = agg.p[k]
            rows.append([f"{lo:.10g}", f"{hi:.10g}", k, f"{agg.e[k]:.10g}",
                         f"{agg.i[k]:.10g}", "" if p != p else format(p, ".10g")])
    with _Outputs() as out:
        out.write_csv(out_path, "group_lo,group_hi,k,E,I,P", rows)
        out.commit("exposure", {"window": list(win), "tokens": list(tokens),
                                "ranges": ranges, "aggregate": aggregate},
                   [log_path, graph_path], None)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True),
              help="config with initiator, k, target_edges")
@click.option("--initiator", default=None, help="four comma-separated probabilities")
@click.option("--k", "power", type=int, default=None)
@click.option("--target-edges", type=int, default=None)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@command_errors
def graphgen(config_path, initiator, power, target_edges, seed, out_path):
    """Generate a stochastic Kronecker follow graph as graph TSV."""
    cfg = _read_config(config_path, "graphgen")
    if initiator is not None:
        cfg["initiator"] = initiator
    if power is not None:
        cfg["k"] = str(power)
    if target_edges is not None:
        cfg["target_edges"] = str(target_edges)
    graph = kronecker_generate(kronecker_params_from(cfg, seed))
    with _Outputs() as out:
        with out.open(out_path) as fh:
            graph.to_tsv(fh)
        out.commit("graphgen", dict(cfg), [p for p in [config_path] if p], seed)
    click.echo(f"{len(graph.nodes)} nodes, {graph.n_edges()} edges")


@main.command()
@click.option("--model", type=click.Choice(["ic", "ct"]), required=True)
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="accepted for compatibility; results do not depend on it")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--report", "report_path", type=click.Path(),
              help="CCDF tables of cascade size and duration")
@command_errors
def simulate(model, graph_path, config_path, seed, workers, out_path, report_path):
    """Simulate cascades under background traffic on a follow graph."""
    cfg = _read_config(config_path, "simulate")
    graph = _load_graph(graph_path)
    delay_model = None
    if model == "ct" or any(k.startswith("delay_bin.") for k in cfg):
        delay_model = delay_model_from(cfg)
    sim_cfg = SimConfig(
        mu=get_float(cfg, "mu"),
        sigma=get_float(cfg, "sigma", get_float(cfg, "mu") / 4.0),
        beta_curve=beta_curve_from(cfg),
        n_cascades=get_int(cfg, "n_cascades"),
        seed=seed,
        delay_model=delay_model,
        max_time=get_float(cfg, "max_time", float("inf")),
    )
    run = simulate_ic_bg if model == "ic" else simulate_ct_bg
    cascades = run(graph, sim_cfg)
    size, duration = cascades.size, cascades.duration
    with _Outputs() as out:
        out.write_csv(out_path, "cascade_id,seed_node,size,duration", (
            [cascade_id, graph.nodes[seed], n, f"{d:.10g}"] for cascade_id, (seed, n, d)
            in enumerate(zip(cascades.seed.tolist(), size.tolist(), duration.tolist()))
        ))
        if report_path:
            size_ccdf, duration_ccdf = distribution_report(size, duration)
            out.write_csv(report_path, "metric,value,ccdf", [
                [metric, f"{v:.10g}", f"{c:.10g}"]
                for metric, table in (("size", size_ccdf), ("duration", duration_ccdf))
                for v, c in table
            ])
            if not duration_ccdf:
                click.echo("note: no cascades with 2+ nodes; duration table empty", err=True)
        out.commit("simulate", dict(cfg) | {"model": model, "workers": workers},
                   [graph_path, config_path], seed)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", type=click.Path(exists=True),
              help="follow graph TSV; omit to generate from Kronecker keys in config")
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--graph-out", "graph_out", type=click.Path(),
              help="write the (possibly generated) graph TSV here")
@click.option("--truth-out", "truth_path", type=click.Path(),
              help="write the ground-truth key-value report here")
@command_errors
def synth(config_path, graph_path, seed, out_path, graph_out, truth_path):
    """Generate a synthetic event log with known ground truth."""
    cfg = _read_config(config_path, "synth")
    if graph_path:
        graph = _load_graph(graph_path)
    else:
        graph_seed = get_int(cfg, "graph_seed", seed)
        if graph_seed < 0:
            from .config import ConfigError
            raise ConfigError(f"config key 'graph_seed': not a non-negative integer: {graph_seed}")
        graph = kronecker_generate(kronecker_params_from(cfg, graph_seed))
    spec = WorkloadSpec(
        graph=graph,
        beta_curve=beta_curve_from(cfg),
        delay_model=delay_model_from(cfg),
        horizon_hours=get_float(cfg, "horizon_hours"),
        seed=seed,
        mu=get_float(cfg, "mu"),
        sigma=get_float(cfg, "sigma", get_float(cfg, "mu") / 4.0),
        contagions=contagions_from(cfg),
    )
    log, truth = generate_workload(spec)
    with _Outputs() as out:
        with out.open(out_path) as fh:
            log.to_tsv(fh)
        if graph_out:
            with out.open(graph_out) as fh:
                graph.to_tsv(fh)
        if truth_path:
            with out.open(truth_path) as fh:
                fh.write(ground_truth_text(truth))
        out.commit("synth", dict(cfg), [p for p in [config_path, graph_path] if p], seed)
    click.echo(f"{len(log)} events")


if __name__ == "__main__":
    main()
