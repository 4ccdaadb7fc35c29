import math
from dataclasses import replace

import numpy as np
import pytest

from feedflow import simulate
from feedflow.events import SocialGraph
from feedflow.graphgen import KroneckerParams, kronecker_generate
from feedflow.simulate import (
    BetaCurve,
    DelayBin,
    DelayBinError,
    DelayModel,
    SimConfig,
    beta_of_inflow,
    distribution_report,
    node_rates,
    simulate_ct_bg,
    simulate_ic_bg,
    truncated_normal_rates,
)
from helpers import naive_cascades, reachable_followers

CURVE = BetaCurve(lambda_c=30.0, beta0=0.05, gamma=0.65)
ALL_LIVE = BetaCurve(lambda_c=30.0, beta0=1.0, gamma=0.0)  # every coin is below 1
WIDE_BIN = DelayModel(bins=(DelayBin(0.0, math.inf, 3.0, 0.5, 2.0, 0.5),))


def test_beta_of_inflow():
    assert beta_of_inflow(0.0, CURVE) == 0.05
    assert beta_of_inflow(30.0, CURVE) == 0.05
    assert beta_of_inflow(300.0, CURVE) == pytest.approx(0.05 * 10 ** (-0.65))
    with pytest.raises(ValueError):
        beta_of_inflow(-1.0, CURVE)


def test_beta_curve_validation():
    with pytest.raises(ValueError):
        BetaCurve(lambda_c=0.0, beta0=0.05, gamma=0.65)
    with pytest.raises(ValueError):
        BetaCurve(lambda_c=30.0, beta0=0.0, gamma=0.65)
    with pytest.raises(ValueError):
        BetaCurve(lambda_c=30.0, beta0=1.5, gamma=0.65)
    with pytest.raises(ValueError):
        BetaCurve(lambda_c=30.0, beta0=0.05, gamma=-0.1)
    for bad in ({"gamma": math.nan}, {"gamma": math.inf}, {"lambda_c": math.nan},
                {"lambda_c": math.inf}, {"beta0": math.nan}):
        with pytest.raises(ValueError):
            BetaCurve(**({"lambda_c": 30.0, "beta0": 0.05, "gamma": 0.65} | bad))


def test_delay_model_validation():
    with pytest.raises(DelayBinError):
        DelayModel(bins=())
    with pytest.raises(DelayBinError, match="start at 0"):
        DelayModel(bins=(DelayBin(1.0, math.inf, 1, 1, 1, 1),))
    with pytest.raises(DelayBinError, match="gap or overlap"):
        DelayModel(bins=(DelayBin(0.0, 10.0, 1, 1, 1, 1),
                         DelayBin(20.0, math.inf, 1, 1, 1, 1)))
    with pytest.raises(DelayBinError, match="infinity"):
        DelayModel(bins=(DelayBin(0.0, 10.0, 1, 1, 1, 1),))
    with pytest.raises(DelayBinError, match="finite"):
        DelayBin(0.0, math.inf, math.nan, 1, 1, 1)
    with pytest.raises(DelayBinError, match="non-negative"):
        DelayBin(0.0, math.inf, 1, 1, 1, -0.5)


def test_delay_model_bin_selection_and_sampling():
    dm = DelayModel(bins=(DelayBin(0.0, 100.0, 3, 0.5, 2, 0.5),
                          DelayBin(100.0, math.inf, 4, 2.0, 3.5, 2.0)))
    assert dm.bin_for(0.0).hi == 100.0
    assert dm.bin_for(99.9).hi == 100.0
    assert dm.bin_for(100.0).lo == 100.0   # boundary belongs to the upper bin


def test_truncated_normal_rates():
    rng = np.random.default_rng(1)
    rates = truncated_normal_rates(rng, 1.0, 2.0, 50_000)
    assert np.all(rates >= 0)
    # Mean shifts up once the negative mass is resampled.
    assert rates.mean() > 1.0


def test_node_rates_inflow_is_followee_sum():
    g = SocialGraph([("a", "b"), ("a", "c"), ("b", "c")])
    assert g.nodes == ("a", "b", "c")
    lam_out, lam_in = node_rates(g, np.random.default_rng(3), mu=5.0, sigma=1.0)
    assert lam_in[0] == pytest.approx(lam_out[1] + lam_out[2])
    assert lam_in[1] == pytest.approx(lam_out[2])
    assert lam_in[2] == 0.0
    with pytest.raises(ValueError):
        node_rates(SocialGraph([]), np.random.default_rng(3), mu=5.0, sigma=1.0)


def small_graph():
    return kronecker_generate(
        KroneckerParams(((0.9, 0.5), (0.5, 0.3)), k=6, target_edges=300, seed=1)
    )


def test_follow_view_matches_graph():
    # The index slices the simulators read name the same users as the name sets.
    g = small_graph()
    assert list(g.nodes) == sorted(g.nodes)
    for i, u in enumerate(g.nodes):
        assert [g.nodes[j] for j in g.follower_slice(i)] == sorted(g.followers(u))
        assert [g.nodes[j] for j in g.followee_slice(i)] == sorted(g.followees(u))


def isolated_graph():
    return SocialGraph([], nodes=[f"u{i}" for i in range(8)])


def test_ic_all_activations_fire_gives_reachable_set():
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=ALL_LIVE, n_cascades=20, seed=9,
                    delay_model=WIDE_BIN)
    for simulate_bg in (simulate_ic_bg, simulate_ct_bg):
        records = simulate_bg(g, cfg)
        for r in records:
            assert r.adopters == reachable_followers(g, {r.seed_node})
            assert r.size == len(r.adopters)


def test_ic_no_activation_gives_singletons():
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=ALL_LIVE, n_cascades=40, seed=9)
    records = simulate_ic_bg(isolated_graph(), cfg)
    for r in records:
        assert r.size == 1 and r.adopters == {r.seed_node}
        assert r.times is None and r.duration == 0.0
    assert len({r.seed_node for r in records}) > 4


def test_ic_and_ct_agree_on_adopter_sets():
    # Both models read the same edge coins, so with no time limit they flood
    # the same set; a time limit can only cut the continuous one short.
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=BetaCurve(30.0, 0.3, 0.65),
                    n_cascades=60, seed=4, delay_model=WIDE_BIN)
    ic = simulate_ic_bg(g, cfg)
    ct = simulate_ct_bg(g, cfg)
    assert [a.seed_node for a in ic] == [b.seed_node for b in ct]
    assert [a.adopters for a in ic] == [b.adopters for b in ct]
    assert max(r.size for r in ic) >= 10
    cut = simulate_ct_bg(g, replace(cfg, max_time=40.0))
    assert all(b.adopters <= a.adopters for a, b in zip(ic, cut))
    assert sum(b.size for b in cut) < sum(a.size for a in ic)


@pytest.mark.parametrize("model,max_time", [("ic", math.inf), ("ct", math.inf), ("ct", 40.0)])
def test_engine_matches_naive_oracle(model, max_time):
    # The naive walk reads the engine's own draws one edge at a time, so the
    # adopter sets and times must be the same, not merely close.
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=BetaCurve(30.0, 0.3, 0.65),
                    n_cascades=40, seed=6, delay_model=WIDE_BIN, max_time=max_time)
    records = (simulate_ic_bg if model == "ic" else simulate_ct_bg)(g, cfg)
    expected = naive_cascades(g, cfg, timed=model == "ct")
    assert [r.cascade_id for r in records] == list(range(40))
    for r, (seed_node, times) in zip(records, expected):
        assert r.seed_node == seed_node
        assert r.adopters == set(times)
        if model == "ct":
            assert r.times == times
    assert sum(r.size > 1 for r in records) >= 5


@pytest.mark.parametrize("cells", [1, 64 * 3, 64 * 7 + 5])
def test_records_do_not_depend_on_chunk_size(monkeypatch, cells):
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=BetaCurve(30.0, 0.3, 0.65),
                    n_cascades=30, seed=8, delay_model=WIDE_BIN, max_time=60.0)
    whole = simulate_ic_bg(g, cfg), simulate_ct_bg(g, cfg)
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", cells)
    assert (simulate_ic_bg(g, cfg), simulate_ct_bg(g, cfg)) == whole


def test_ct_requires_delay_model():
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=CURVE, n_cascades=2, seed=0)
    with pytest.raises(DelayBinError):
        simulate_ct_bg(g, cfg)


def test_ct_times_are_consistent():
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=CURVE, n_cascades=40, seed=2,
                    delay_model=WIDE_BIN)
    for r in simulate_ct_bg(g, cfg):
        assert r.times[r.seed_node] == 0.0
        assert r.duration == max(r.times.values())
        assert all(t >= 0 for t in r.times.values())


def test_ct_times_are_hop_distances_with_fixed_delays():
    # Every edge live and every delay exactly 2 s: an adoption time is twice
    # the follower-edge hop distance from the seed.
    g = small_graph()
    fixed = DelayModel(bins=(DelayBin(0.0, math.inf, 0.0, 0.0, 0.0, 0.0),))
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=ALL_LIVE, n_cascades=20, seed=3,
                    delay_model=fixed)
    for r in simulate_ct_bg(g, cfg):
        hops, frontier = {r.seed_node: 0}, [r.seed_node]
        while frontier:
            u = frontier.pop(0)
            for w in g.followers(u):
                if w not in hops:
                    hops[w] = hops[u] + 1
                    frontier.append(w)
        assert r.times == {u: 2.0 * h for u, h in hops.items()}


def test_ct_max_time_truncates():
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=BetaCurve(30.0, 1.0, 0.0),
                    n_cascades=20, seed=2, delay_model=WIDE_BIN, max_time=0.0)
    for r in simulate_ct_bg(g, cfg):
        assert r.size == 1 and r.duration == 0.0


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mu=0.0, sigma=0.1, beta_curve=CURVE, n_cascades=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(mu=1.0, sigma=-0.1, beta_curve=CURVE, n_cascades=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(mu=1.0, sigma=0.1, beta_curve=CURVE, n_cascades=0, seed=0)
    for bad in ({"mu": math.nan}, {"mu": math.inf}, {"sigma": math.nan},
                {"sigma": math.inf}, {"max_time": math.nan}, {"max_time": -1.0}):
        with pytest.raises(ValueError):
            SimConfig(**({"mu": 1.0, "sigma": 0.1, "beta_curve": CURVE,
                           "n_cascades": 1, "seed": 0} | bad))
    assert SimConfig(mu=1.0, sigma=0.1, beta_curve=CURVE, n_cascades=1, seed=0,
                     max_time=math.inf).max_time == math.inf


def test_distribution_report():
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=BetaCurve(30.0, 0.4, 0.0),
                    n_cascades=300, seed=5, delay_model=WIDE_BIN)
    records = simulate_ct_bg(g, cfg)
    rep = distribution_report(records)
    assert rep.n_records == 300
    assert rep.frac_size_at_least(1) == pytest.approx(1.0)
    sizes = np.array([r.size for r in records])
    assert rep.frac_size_at_least(3) == pytest.approx((sizes >= 3).mean())
    assert rep.n_multi == int((sizes >= 2).sum())
    # Duration CCDF covers only multi-node cascades.
    if rep.n_multi:
        assert not rep.duration_empty
        durs = [r.duration for r in records if r.size >= 2]
        vals = [v for v, _ in rep.duration_ccdf]
        assert min(vals) == pytest.approx(min(durs))
    with pytest.raises(ValueError):
        distribution_report([])


def test_distribution_report_all_singletons():
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=CURVE, n_cascades=5, seed=1)
    records = simulate_ic_bg(isolated_graph(), cfg)
    rep = distribution_report(records)
    assert rep.duration_empty and rep.duration_ccdf == ()
