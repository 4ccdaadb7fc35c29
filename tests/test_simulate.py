import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedflow import simulate
from feedflow.graphgen import KroneckerParams, kronecker_generate
from feedflow.simulate import (
    BetaCurve,
    DelayBin,
    DelayBinError,
    DelayModel,
    SimConfig,
    _hash,
    beta_of_inflow,
    cascade_keys,
    distribution_report,
    first_passage,
    node_rates,
    simulate_ct_bg,
    simulate_ic_bg,
    slot_uniform,
    truncated_normal_rates,
)
from helpers import (
    cascade_view,
    follower_names,
    graph_of,
    naive_cascades,
    reachable_followers,
    splitmix64,
    tsv_text,
)

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
    with pytest.raises(DelayBinError, match="start at 0"):
        DelayModel(bins=(DelayBin(math.nan, math.inf, 1, 1, 1, 1),))
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
    # The boundary belongs to the upper bin.
    assert dm.bin_index(np.array([0.0, 99.9, 100.0, 1e300])).tolist() == [0, 0, 1, 1]
    for rate in (-1.0, math.inf, math.nan):
        with pytest.raises(DelayBinError, match=f"no delay bin covers in-flow rate {rate}$"):
            dm.bin_index(np.array([50.0, rate]))


def test_truncated_normal_rates():
    rng = np.random.default_rng(1)
    rates = truncated_normal_rates(rng, 1.0, 2.0, 50_000)
    assert np.all(rates >= 0)
    # Mean shifts up once the negative mass is resampled.
    assert rates.mean() > 1.0


def test_node_rates_inflow_is_followee_sum():
    g = graph_of([("a", "b"), ("a", "c"), ("b", "c")])
    assert g.nodes == ("a", "b", "c")
    lam_out, lam_in = node_rates(g, np.random.default_rng(3), mu=5.0, sigma=1.0)
    assert lam_in[0] == pytest.approx(lam_out[1] + lam_out[2])
    assert lam_in[1] == pytest.approx(lam_out[2])
    assert lam_in[2] == 0.0
    with pytest.raises(ValueError):
        node_rates(graph_of([]), np.random.default_rng(3), mu=5.0, sigma=1.0)


def small_graph():
    return kronecker_generate(
        KroneckerParams(((0.9, 0.5), (0.5, 0.3)), k=6, target_edges=300, seed=1)
    )


def test_follow_view_matches_graph():
    # The index slices the simulators read name the same users as the graph's edge lines.
    g = small_graph()
    assert list(g.nodes) == sorted(g.nodes)
    edges = [line.split("\t") for line in tsv_text(g).splitlines()]
    for i, u in enumerate(g.nodes):
        followers = g.follower_indices[g.follower_indptr[i]:g.follower_indptr[i + 1]]
        assert [g.nodes[j] for j in followers] == sorted(a for a, b in edges if b == u)
        assert [g.nodes[j] for j in g.followee_slice(i)] == sorted(b for a, b in edges if a == u)


def isolated_graph():
    return graph_of([], nodes=[f"u{i}" for i in range(8)])


def test_ic_all_activations_fire_gives_reachable_set():
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=ALL_LIVE, n_cascades=20, seed=9,
                    delay_model=WIDE_BIN)
    for simulate_bg in (simulate_ic_bg, simulate_ct_bg):
        cascades = simulate_bg(g, cfg)
        view = cascade_view(g, cascades)
        for seed_node, times in view:
            assert set(times) == reachable_followers(g, {seed_node})
        assert cascades.size.tolist() == [len(times) for _, times in view]


def test_ic_no_activation_gives_singletons():
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=ALL_LIVE, n_cascades=40, seed=9)
    cascades = simulate_ic_bg(isolated_graph(), cfg)
    view = cascade_view(isolated_graph(), cascades)
    assert all(times == {seed_node: None} for seed_node, times in view)
    assert cascades.size.tolist() == [1] * 40
    assert cascades.time is None and cascades.duration.tolist() == [0.0] * 40
    assert len({seed_node for seed_node, _ in view}) > 4


def test_ic_and_ct_agree_on_adopter_sets():
    # Both models read the same edge coins, so with no time limit they flood
    # the same set; a time limit can only cut the continuous one short.
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=BetaCurve(30.0, 0.3, 0.65),
                    n_cascades=60, seed=4, delay_model=WIDE_BIN)
    ic = cascade_view(g, simulate_ic_bg(g, cfg))
    ct = cascade_view(g, simulate_ct_bg(g, cfg))
    assert [a for a, _ in ic] == [b for b, _ in ct]
    assert [set(a) for _, a in ic] == [set(b) for _, b in ct]
    assert max(len(a) for _, a in ic) >= 10
    cut = cascade_view(g, simulate_ct_bg(g, replace(cfg, max_time=40.0)))
    assert all(set(b) <= set(a) for (_, a), (_, b) in zip(ic, cut))
    assert sum(len(b) for _, b in cut) < sum(len(a) for _, a in ic)


@pytest.mark.parametrize("model,max_time", [("ic", math.inf), ("ct", math.inf), ("ct", 40.0)])
def test_engine_matches_naive_oracle(model, max_time):
    # The naive walk reads the engine's own draws one edge at a time, so the
    # adopter sets and times must be the same, not merely close.
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=BetaCurve(30.0, 0.3, 0.65),
                    n_cascades=40, seed=6, delay_model=WIDE_BIN, max_time=max_time)
    cascades = (simulate_ic_bg if model == "ic" else simulate_ct_bg)(g, cfg)
    assert cascade_view(g, cascades) == naive_cascades(g, cfg, timed=model == "ct")
    assert (cascades.size > 1).sum() >= 5


@pytest.mark.parametrize("model", ["ic", "ct"])
def test_cascade_columns_hold_their_invariants(model):
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=BetaCurve(30.0, 0.3, 0.65),
                    n_cascades=50, seed=7, delay_model=WIDE_BIN, max_time=60.0)
    c = (simulate_ic_bg if model == "ic" else simulate_ct_bg)(g, cfg)
    assert len(c.seed) == 50 and len(c.indptr) == 51
    assert c.indptr[0] == 0 and c.indptr[-1] == len(c.node)
    assert (model == "ic") == (c.time is None)
    for k, (lo, hi) in enumerate(zip(c.indptr[:-1], c.indptr[1:])):
        nodes = c.node[lo:hi]
        assert (np.diff(nodes) > 0).all() and c.seed[k] in nodes
        if c.time is None:
            assert c.duration[k] == 0.0
        else:
            assert c.time[lo:hi][nodes == c.seed[k]].tolist() == [0.0]
            assert c.duration[k] == c.time[lo:hi].max()
    assert (c.size > 1).sum() >= 5
    with pytest.raises(TypeError):
        len(c)


@pytest.mark.parametrize("cells", [1, 64 * 3, 64 * 7 + 5])
def test_records_do_not_depend_on_chunk_size(monkeypatch, cells):
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=BetaCurve(30.0, 0.3, 0.65),
                    n_cascades=30, seed=8, delay_model=WIDE_BIN, max_time=60.0)
    runs = (simulate_ic_bg, simulate_ct_bg)
    whole = [cascade_view(g, run(g, cfg)) for run in runs]
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", cells)
    assert [cascade_view(g, run(g, cfg)) for run in runs] == whole


U64 = st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(U64, U64), min_size=1, max_size=8), U64)
@example([(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1)], 2**64 - 1)
@example([(2**64 - 1, 2**64 - 1)], 0)
def test_hash_and_uniforms_match_the_splitmix64_oracle(pairs, key):
    keys, slots = (np.array(column, np.uint64) for column in zip(*pairs))
    # Elementwise, and one key broadcast against many slots (as cascade_keys does).
    for k, s, want_keys in ((keys, slots, keys.tolist()), (np.array([key], np.uint64), slots,
                                                          [key] * len(slots))):
        want = [splitmix64(a, b) for a, b in zip(want_keys, s.tolist())]
        assert _hash(k, s).tolist() == want
        u = slot_uniform(k, s)
        assert u.tolist() == [((h >> 12) + 0.5) * 2.0**-52 for h in want]
        assert ((0.0 < u) & (u < 1.0)).all()
    assert slot_uniform(np.array([key], np.uint64), 2**64 - 1).tolist() == \
        [((splitmix64(key, 2**64 - 1) >> 12) + 0.5) * 2.0**-52]


def relay_graph():
    """a's followers b and c are BFS level 1 and d is level 2, but with the
    delays below the path a -> c -> d -> b (1 + 1 + 1) beats a -> b (10)."""
    g = graph_of([("b", "a"), ("c", "a"), ("d", "c"), ("b", "d")])
    fixed = {("a", "b"): 10, ("a", "c"): 1, ("c", "d"): 1, ("d", "b"): 1}
    source = np.repeat(np.arange(len(g.nodes)), np.diff(g.follower_indptr))
    table = np.array([fixed[g.nodes[i], g.nodes[j]]
                      for i, j in zip(source.tolist(), g.follower_indices.tolist())])
    return g, table


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
@pytest.mark.parametrize("max_time,want", [
    (math.inf, {0: 0, 1: 3, 2: 1, 3: 2, 5: 2, 6: 0, 7: 1}),
    (2, {0: 0, 2: 1, 3: 2, 5: 2, 6: 0, 7: 1}),  # cascade 0 reaches b, but at 3
])
def test_first_passage_takes_the_earliest_arrival_over_levels(dtype, max_time, want):
    # Cascade 0 starts at a, cascade 1 at c; key c * 4 + i is node i (a, b, c, d)
    # in cascade c. Every coin is below prob 1, so every edge is live.
    g, table = relay_graph()
    reached, time = first_passage(g, cascade_keys(0, [0, 1]), np.array([0, 6]),
                                  np.zeros(2, dtype), np.ones(4),
                                  lambda k, e, j: table[e].astype(dtype), max_time)
    assert dict(zip(reached.tolist(), time.tolist())) == want
    assert time.dtype == dtype
    untimed, none = first_passage(g, cascade_keys(0, [0, 1]), np.array([0, 6]),
                                  np.zeros(2, dtype), np.ones(4))
    assert untimed.tolist() == [0, 1, 2, 3, 5, 6, 7] and none is None


def test_ct_max_time_drops_reached_adopters():
    # Every edge live and every delay exactly 2 s: by max_time 3 only the seed's
    # followers adopt, although every reachable follower is reached over live edges.
    g = small_graph()
    fixed = DelayModel(bins=(DelayBin(0.0, math.inf, 0.0, 0.0, 0.0, 0.0),))
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=ALL_LIVE, n_cascades=20, seed=3,
                    delay_model=fixed, max_time=3.0)
    view = cascade_view(g, simulate_ct_bg(g, cfg))
    for seed_node, times in view:
        assert times == {seed_node: 0.0} | {u: 2.0 for u in follower_names(g, seed_node)}
    assert sum(len(reachable_followers(g, {s})) for s, _ in view) > \
        sum(len(times) for _, times in view)


def test_ct_working_set_stays_near_ic():
    # At the benchmark's scale (about 1,000 nodes and 800 cascades, one chunk)
    # both models hold one byte per (cascade, node) cell; the continuous one
    # adds only its live edges and their delays.
    g = kronecker_generate(
        KroneckerParams(((0.9, 0.5), (0.5, 0.3)), k=10, target_edges=20_000, seed=1))
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=CURVE, n_cascades=800, seed=5,
                    delay_model=WIDE_BIN)
    peaks = []
    for run in (simulate_ic_bg, simulate_ct_bg):
        tracemalloc.start()
        try:
            run(g, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_ct_requires_delay_model():
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=CURVE, n_cascades=2, seed=0)
    with pytest.raises(DelayBinError):
        simulate_ct_bg(g, cfg)


def test_ct_times_are_consistent():
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=CURVE, n_cascades=40, seed=2,
                    delay_model=WIDE_BIN)
    cascades = simulate_ct_bg(g, cfg)
    for (seed_node, times), duration in zip(cascade_view(g, cascades),
                                            cascades.duration.tolist()):
        assert times[seed_node] == 0.0
        assert duration == max(times.values())
        assert all(t >= 0 for t in times.values())


def test_ct_times_are_hop_distances_with_fixed_delays():
    # Every edge live and every delay exactly 2 s: an adoption time is twice
    # the follower-edge hop distance from the seed.
    g = small_graph()
    fixed = DelayModel(bins=(DelayBin(0.0, math.inf, 0.0, 0.0, 0.0, 0.0),))
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=ALL_LIVE, n_cascades=20, seed=3,
                    delay_model=fixed)
    for seed_node, times in cascade_view(g, simulate_ct_bg(g, cfg)):
        hops, frontier = {seed_node: 0}, [seed_node]
        while frontier:
            u = frontier.pop(0)
            for w in follower_names(g, u):
                if w not in hops:
                    hops[w] = hops[u] + 1
                    frontier.append(w)
        assert times == {u: 2.0 * h for u, h in hops.items()}


def test_ct_max_time_truncates():
    g = small_graph()
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=BetaCurve(30.0, 1.0, 0.0),
                    n_cascades=20, seed=2, delay_model=WIDE_BIN, max_time=0.0)
    cascades = simulate_ct_bg(g, cfg)
    assert cascades.size.tolist() == [1] * 20
    assert cascades.duration.tolist() == [0.0] * 20


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
    cascades = simulate_ct_bg(g, cfg)
    sizes, durations = cascades.size, cascades.duration
    assert len(sizes) == 300
    size_ccdf, duration_ccdf = distribution_report(sizes, durations)

    def frac_size_at_least(size):
        return max((c for v, c in size_ccdf if v >= size), default=0.0)

    assert frac_size_at_least(1) == pytest.approx(1.0)
    assert frac_size_at_least(3) == pytest.approx((sizes >= 3).mean())
    # Duration CCDF covers only multi-node cascades.
    durs = durations[sizes >= 2]
    assert len(durs) and duration_ccdf
    assert [c for v, c in duration_ccdf] == pytest.approx([(durs >= v).mean()
                                                           for v, _ in duration_ccdf])
    vals = [v for v, _ in duration_ccdf]
    assert min(vals) == pytest.approx(min(durs))
    with pytest.raises(ValueError):
        distribution_report(np.array([], int), np.array([]))


def test_distribution_report_all_singletons():
    cfg = SimConfig(mu=1.0, sigma=0.25, beta_curve=CURVE, n_cascades=5, seed=1)
    cascades = simulate_ic_bg(isolated_graph(), cfg)
    size_ccdf, duration_ccdf = distribution_report(cascades.size, cascades.duration)
    assert duration_ccdf == () and size_ccdf == ((1.0, 1.0),)
