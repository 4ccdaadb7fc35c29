import io
import math
import tracemalloc

import numpy as np
import pytest

from feedflow import simulate, synth
from feedflow.events import TS_BOUND, parse_event_log
from feedflow.graphgen import KroneckerParams, kronecker_generate
from feedflow.simulate import BetaCurve, DelayBin, DelayModel, cascade_keys, first_passage
from feedflow.synth import ContagionPlan, WorkloadSpec, generate_workload, ground_truth_text
from helpers import (EventKind, events_of, followee_names, follower_names, graph_of,
                     naive_contagion, reachable_followers, tsv_text)

CURVE = BetaCurve(lambda_c=30.0, beta0=0.1, gamma=0.65)
DELAYS = DelayModel(bins=(DelayBin(0.0, math.inf, 3.0, 0.5, 2.0, 0.5),))


def graph():
    return kronecker_generate(
        KroneckerParams(((0.9, 0.5), (0.5, 0.3)), k=6, target_edges=400, seed=2)
    )


def spec(**kw):
    base = dict(graph=graph(), beta_curve=CURVE, delay_model=DELAYS,
                horizon_hours=12.0, seed=5, mu=2.0, sigma=0.5)
    base.update(kw)
    return WorkloadSpec(**base)


def test_workload_is_deterministic():
    log1, truth1 = generate_workload(spec())
    log2, truth2 = generate_workload(spec())
    assert tsv_text(log1) == tsv_text(log2)
    assert truth1 == truth2
    log3, _ = generate_workload(spec(seed=6))
    assert tsv_text(log3) != tsv_text(log1)


def test_workload_parses_back_cleanly():
    log, _ = generate_workload(spec())
    assert len(log) > 0
    log2, report = parse_event_log(io.BytesIO(tsv_text(log).encode()))
    assert report.n_rejected == 0
    assert len(log2) == len(log)


def test_retweets_reference_earlier_originals():
    log, _ = generate_workload(spec())
    n_rt = 0
    by_id = {e.event_id: e for e in events_of(log)}
    for e in by_id.values():
        if e.kind is EventKind.RETWEET:
            n_rt += 1
            orig = by_id.get(e.orig_event_id)
            assert orig is not None
            assert orig.key < e.key
            assert orig.author == e.orig_author
            assert orig.kind is EventKind.TWEET  # no forward chains by default
    assert n_rt > 0


def test_forward_retweets_allows_chains():
    # Subcritical forward rate: chains occur but die out before the horizon.
    sp = spec(forward_retweets=True,
              beta_curve=BetaCurve(lambda_c=1000.0, beta0=0.12, gamma=0.0))
    log, _ = generate_workload(sp)
    by_id = {e.event_id: e for e in events_of(log)}
    chain = [
        e for e in by_id.values()
        if e.kind is EventKind.RETWEET
        and by_id[e.orig_event_id].kind is EventKind.RETWEET
    ]
    assert chain  # forwards of forwards occur at this retweet rate


def test_truth_report_contents():
    log, truth = generate_workload(spec())
    assert truth["n_events"] == len(log)
    assert truth["n_nodes"] == 64
    assert truth["beta_curve"]["gamma"] == 0.65
    assert len(truth["lam_out"]) == 64
    # In-flow truth is the followee sum of out-flow truth.
    g = graph()
    for u in list(g.nodes)[:10]:
        want = sum(truth["lam_out"][v] for v in followee_names(g, u))
        assert truth["lam_in"][u] == pytest.approx(want)


def test_rates_mode_and_validation():
    with pytest.raises(ValueError, match="horizon"):
        spec(horizon_hours=0.0)
    # Rejected before any draw: a negative mean would resample forever, and
    # numpy's own errors for the others name no parameter.
    for bad, message in (({"mu": -5.0}, "mu must be positive"),
                         ({"mu": 0.0}, "mu must be positive"),
                         ({"mu": math.nan}, "mu and sigma must be finite"),
                         ({"sigma": math.nan}, "mu and sigma must be finite"),
                         ({"sigma": -1.0}, "sigma must be non-negative")):
        with pytest.raises(ValueError, match=message):
            spec(**bad)


def test_contagion_plan_validation():
    with pytest.raises(ValueError):
        ContagionPlan(token="t", n_seeds=0, hazard=0.1)
    with pytest.raises(ValueError):
        ContagionPlan(token="t", n_seeds=1, hazard=1.5)
    with pytest.raises(ValueError):
        ContagionPlan(token="t", n_seeds=1, hazard=0.1, overload_hazard=0.05)
    # A lag up to 2^62 added to a time below 2^62 stays inside int64.
    # A lag is whole seconds: 2.5 would let one reach 3.
    for jitter in (0, TS_BOUND + 1, 2.5):
        with pytest.raises(ValueError, match="adopt_jitter_s"):
            ContagionPlan(token="t", n_seeds=1, hazard=0.1, adopt_jitter_s=jitter)
    assert ContagionPlan(token="t", n_seeds=1, hazard=0.1, adopt_jitter_s=TS_BOUND)
    assert ContagionPlan(token="t", n_seeds=1, hazard=0.1, adopt_jitter_s=np.int64(30))
    with pytest.raises(ValueError, match="overload_threshold"):
        ContagionPlan(token="t", n_seeds=1, hazard=0.1, overload_hazard=0.1,
                      overload_threshold=math.nan)
    with pytest.raises(ValueError):
        generate_workload(spec(contagions=(
            ContagionPlan(token="t", n_seeds=1000, hazard=0.1),
        )))


def test_contagion_zero_hazard_only_seeds_adopt():
    plan = ContagionPlan(token="tok", n_seeds=5, hazard=0.0)
    log, truth = generate_workload(spec(contagions=(plan,)))
    adopters = {e.author for e in events_of(log) if "tok" in e.marks}
    assert len(adopters) == 5
    assert truth["contagions"][0]["n_adopters"] == 5


def test_contagion_full_hazard_floods_reachable_set():
    plan = ContagionPlan(token="tok", n_seeds=3, hazard=1.0)
    log, truth = generate_workload(spec(contagions=(plan,)))
    adopters = {e.author for e in events_of(log) if "tok" in e.marks}
    # With hazard 1 every follower of an adopter adopts, so the adopter set is
    # closed under the follower relation and contains at least the seeds.
    g = graph()
    assert reachable_followers(g, adopters) == adopters
    assert len(adopters) >= 3
    assert truth["contagions"][0]["n_adopters"] == len(adopters)


def test_contagion_overload_hazard_reduces_high_inflow_adoption():
    plan = ContagionPlan(token="tok", n_seeds=10, hazard=0.9,
                         overload_hazard=0.0, overload_threshold=50.0)
    log, truth = generate_workload(spec(mu=4.0, contagions=(plan,)))
    lam_in = truth["lam_in"]
    adopters = {e.author for e in events_of(log) if "tok" in e.marks}
    # Overloaded users never adopt via exposure (their hazard is zero), so any
    # overloaded adopter must be one of the 10 seeds.
    assert len(adopters) >= 10
    assert len([u for u in adopters if lam_in[u] > 50.0]) <= 10


def test_ground_truth_text_is_flat_and_sorted():
    _, truth = generate_workload(spec())
    text = ground_truth_text(truth)
    lines = [l for l in text.splitlines() if l]
    assert all(" = " in l for l in lines)
    keys = [l.split(" = ")[0] for l in lines]
    assert "beta_curve.gamma" in keys
    assert "n_events" in keys


@pytest.mark.parametrize("forward_retweets", [False, True])
def test_log_does_not_depend_on_the_gather_block(monkeypatch, forward_retweets):
    sp = spec(forward_retweets=forward_retweets,
              beta_curve=BetaCurve(lambda_c=1000.0, beta0=0.12, gamma=0.0),
              contagions=(ContagionPlan("tok", n_seeds=3, hazard=0.3),))
    log, truth = generate_workload(sp)
    assert log.orig_row.max() >= 0 and len(log.token_rows("tok")) >= 3
    for cells in (1, 7):
        monkeypatch.setattr(synth, "_GATHER_CELLS", cells)
        small, small_truth = generate_workload(sp)
        assert tsv_text(small) == tsv_text(log) and small_truth == truth


@pytest.mark.parametrize("piece", [1, 7])
def test_contagions_do_not_depend_on_the_level_pieces(monkeypatch, piece):
    # Each contagion is one cascade of first_passage with whole-second int64 lags.
    sp = spec(contagions=(ContagionPlan("a", n_seeds=5, hazard=0.4),
                          ContagionPlan("b", n_seeds=3, hazard=0.9, adopt_jitter_s=30)))
    log, truth = generate_workload(sp)
    assert len(log.token_rows("a")) > 5 and len(log.token_rows("b")) > 3
    monkeypatch.setattr(simulate, "_PIECE_EDGES", piece)
    small, small_truth = generate_workload(sp)
    assert tsv_text(small) == tsv_text(log) and small_truth == truth


def test_generate_workload_working_set_is_bounded_by_the_log():
    # The benchmark's synth scale: 1,024 users, 20,000 follows and 30 h give about
    # 56,000 events. The peak, over the stages and the log's assembly, stays within a
    # small multiple of the columns returned, as the parse's does.
    g = kronecker_generate(
        KroneckerParams(((0.9, 0.5), (0.5, 0.3)), k=10, target_edges=20_000, seed=1))
    sp = WorkloadSpec(graph=g, beta_curve=BetaCurve(30.0, 0.05, 0.65),
                      delay_model=DelayModel(bins=(DelayBin(0.0, math.inf, 4.0, 0.3, 3.0, 1.2),)),
                      horizon_hours=30.0, seed=1, mu=1.0, sigma=0.25,
                      contagions=(ContagionPlan("tok0", n_seeds=8, hazard=0.08),))
    np.random.default_rng(0)  # numpy.random is imported before the trace, not in it
    tracemalloc.start()
    try:
        log, _ = generate_workload(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(log, c).nbytes for c in
                  ("ts", "ids", "author", "orig_author", "forward", "orig_ids", "orig_row"))
    assert len(log) > 50_000
    assert peak <= 2 * columns, (peak, columns)


def run_with_oracle(monkeypatch, sp):
    """The spec's log and truth, and per plan the start times synth gave the
    engine and the oracle's {adopter: time} from them."""
    calls = []

    def spy(*args):
        calls.append(args)
        return first_passage(*args)
    monkeypatch.setattr(synth, "first_passage", spy)
    log, truth = generate_workload(sp)
    lam_in = [truth["lam_in"][u] for u in sp.graph.nodes]
    horizon_s = round(sp.horizon_hours * 3600)
    runs = []
    for index, (plan, call) in enumerate(zip(sp.contagions, calls, strict=True)):
        start = call[2]
        assert (np.diff(start) > 0).all()
        start = dict(zip(start.tolist(), call[3].tolist()))
        over = plan.overload_threshold
        hazard = [plan.overload_hazard if over is not None and lam > over else plan.hazard
                  for lam in lam_in]
        want = naive_contagion(sp.graph, cascade_keys(sp.seed, [index])[0], start, hazard,
                               plan.adopt_jitter_s, horizon_s)
        runs.append((start, want))
    # Each token's adoption rows are its plans' oracle adoptions, exactly.
    for token in {plan.token for plan in sp.contagions}:
        rows = sorted((e.author, e.ts) for e in events_of(log) if token in e.marks)
        assert rows == sorted((sp.graph.nodes[i], t)
                              for plan, (_, want) in zip(sp.contagions, runs)
                              if plan.token == token for i, t in want.items())
    for plan_truth, (start, want) in zip(truth["contagions"], runs):
        assert plan_truth["n_adopters"] == len(want)
        assert plan_truth["seeds"] == [sp.graph.nodes[i] for i in start]
    return log, truth, runs


def test_contagions_match_the_edge_by_edge_oracle(monkeypatch):
    over = 25.0
    plans = (ContagionPlan("a", n_seeds=5, hazard=0.3),
             ContagionPlan("shared", n_seeds=6, hazard=0.6, overload_hazard=0.1,
                           overload_threshold=over, adopt_jitter_s=900),
             ContagionPlan("shared", n_seeds=3, hazard=1.0, adopt_jitter_s=30),
             ContagionPlan("none", n_seeds=4, hazard=0.0))
    sp = spec(contagions=plans)
    _, truth, runs = run_with_oracle(monkeypatch, sp)
    g = sp.graph
    # Hazard 1 floods the followers of every adopter; hazard 0 leaves the seeds.
    flood = {g.nodes[i] for i in runs[2][1]}
    assert reachable_followers(g, flood) == flood and len(flood) > 3
    assert runs[3][1] == runs[3][0]
    # The overload plan exposes users on both sides of its threshold.
    exposed = {v for i in runs[1][1] for v in follower_names(g, g.nodes[i])}
    assert {truth["lam_in"][v] > over for v in exposed} == {False, True}


def test_contagion_on_a_ring_overtakes_seeds_and_stops_at_the_horizon(monkeypatch):
    # Each node follows the one before it, so a contagion at hazard 1 with
    # one-second lags walks the ring one node a second.
    names = [f"r{i:04d}" for i in range(4000)]
    ring = graph_of([(names[(i + 1) % 4000], names[i]) for i in range(4000)])
    sp = spec(graph=ring, horizon_hours=1.0, mu=0.2, sigma=0.0,
              contagions=(ContagionPlan("walk", n_seeds=1, hazard=1.0, adopt_jitter_s=1),
                          ContagionPlan("race", n_seeds=40, hazard=1.0, adopt_jitter_s=1)))
    _, _, runs = run_with_oracle(monkeypatch, sp)
    (start, walk), (race_start, race) = runs
    (seed, t0), = start.items()
    # The walk adopts at 3600 s exactly; the next node, a second later, is dropped.
    last = (seed + 3600 - t0) % 4000
    assert walk[last] == 3600 and (last + 1) % 4000 not in walk
    assert len(walk) == 3601 - t0
    # Some seed adopts before its own start, reached from an earlier seed.
    assert any(race[i] < t for i, t in race_start.items())


def test_contagion_times_stay_exact_past_2_53_seconds(monkeypatch):
    # A horizon of 2^61 s and lags up to 2^60 s: float64 would round the
    # adoption times, which are sums of a seed time and odd lags.
    sp = spec(horizon_hours=2.0**61 / 3600, mu=1e-17, sigma=0.0,
              contagions=(ContagionPlan("far", n_seeds=5, hazard=0.5, adopt_jitter_s=2**60),))
    log, _, runs = run_with_oracle(monkeypatch, sp)
    start, want = runs[0]
    assert max(want.values()) > 2**53 and len(want) > len(start)
    assert log.ts.dtype == np.int64


def test_contagions_leave_posts_and_forwards_alone():
    def unmarked(sp):
        log, _ = generate_workload(sp)
        return [(e.ts, e.author, e.kind, e.orig_author) for e in events_of(log) if not e.marks]
    plans = (ContagionPlan("a", n_seeds=5, hazard=0.5), ContagionPlan("b", n_seeds=3, hazard=1.0))
    for forward_retweets in (False, True):
        assert (unmarked(spec(forward_retweets=forward_retweets, contagions=plans))
                == unmarked(spec(forward_retweets=forward_retweets)))
