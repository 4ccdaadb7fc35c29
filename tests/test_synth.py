import io
import math

import numpy as np
import pytest

from feedflow.events import parse_event_log
from feedflow.graphgen import KroneckerParams, kronecker_generate
from feedflow.simulate import BetaCurve, DelayBin, DelayModel
from feedflow.synth import ContagionPlan, WorkloadSpec, generate_workload, ground_truth_text
from helpers import EventKind, events_of, followee_names, reachable_followers, tsv_text

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
