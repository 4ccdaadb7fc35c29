import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

from feedflow import queues
from feedflow.events import FeedIndex
from feedflow.queues import (
    FitConvergenceError,
    LittleBound,
    delay_histogram,
    fit_lognormal_convolution,
    little_bounds,
    lognormal_sum_bin_masses,
    queue_positions,
)
from helpers import (
    Event,
    EventKind,
    graph_of,
    log_of,
    naive_queue_records,
    random_graph,
    random_log,
    sample_lognormal_sum,
)


def feed_fixture():
    g = graph_of([("u", "a"), ("u", "b")])
    events = [
        Event(1, 100, "a", EventKind.TWEET),
        Event(2, 200, "b", EventKind.TWEET),
        Event(3, 300, "a", EventKind.TWEET),
        Event(4, 400, "b", EventKind.TWEET),
        Event(5, 500, "u", EventKind.RETWEET, orig_event_id=1, orig_author="a"),
    ]
    return g, events


def test_queue_position_hand_example():
    g, events = feed_fixture()
    cols, n_out_of_feed = queue_positions("u", FeedIndex(log_of(events), g, (0, 1000)))
    # Events 2, 3, 4 arrived between the original (1) and the forward.
    assert cols.q.tolist() == [3]
    assert cols.delay_s.tolist() == [400]
    assert cols.retweet_id.tolist() == [5] and cols.orig_id.tolist() == [1]
    assert all(col.dtype == np.int64 for col in cols)
    assert n_out_of_feed == 0


def test_queue_position_original_not_in_feed():
    g, events = feed_fixture()
    stranger = Event(9, 600, "u", EventKind.RETWEET, orig_event_id=42, orig_author="x")
    cols, n_out_of_feed = queue_positions(
        "u", FeedIndex(log_of(events + [stranger]), g, (0, 1000)))
    assert cols.retweet_id.tolist() == [5]
    assert n_out_of_feed == 1


def test_original_sorting_after_its_forward_is_out_of_feed():
    # Only a hand-built log can hold this: parsing rejects such a forward.
    g = graph_of([("u", "a")])
    log = log_of([
        Event(1, 100, "a", EventKind.TWEET),
        Event(2, 150, "u", EventKind.RETWEET, orig_event_id=3, orig_author="a"),
        Event(3, 200, "a", EventKind.TWEET),
    ])
    cols, n_out_of_feed = queue_positions("u", FeedIndex(log, g, (0, 1000)))
    assert all(len(col) == 0 for col in cols) and n_out_of_feed == 1


def test_queue_positions_batch_and_coverage():
    g = graph_of([("u", "a")], nodes=["x"])
    log = log_of([
        Event(1, 100, "a", EventKind.TWEET),
        Event(2, 150, "x", EventKind.TWEET),
        Event(3, 200, "a", EventKind.TWEET),
        Event(4, 300, "u", EventKind.RETWEET, orig_event_id=1, orig_author="a"),
        Event(5, 400, "u", EventKind.RETWEET, orig_event_id=2, orig_author="x"),
    ])
    cols, n_out_of_feed = queue_positions("u", FeedIndex(log, g, (0, 1000)))
    assert cols.q.tolist() == [1]
    assert n_out_of_feed == 1


def test_authors_outside_the_graph_stay_out_of_node_zeros_feed():
    # "zed" is no node: its author node is -1, which sorts before node 0 ("a").
    g = graph_of([("u", "a")])
    log = log_of([
        Event(1, 100, "a", EventKind.TWEET),
        Event(2, 150, "zed", EventKind.TWEET),
        Event(3, 200, "zed", EventKind.RETWEET, orig_event_id=1, orig_author="a"),
        Event(4, 300, "u", EventKind.RETWEET, orig_event_id=1, orig_author="a"),
        Event(5, 400, "u", EventKind.RETWEET, orig_event_id=2, orig_author="zed"),
    ])
    assert g.index("a") == 0
    feeds = FeedIndex(log, g, (0, 1000))
    assert feeds.rows("u").tolist() == [0]
    assert feeds.forwards("u").tolist() == [3, 4]
    assert feeds.forwards("a").tolist() == []
    cols, n_out_of_feed = queue_positions("u", feeds)
    assert cols.retweet_id.tolist() == [4] and cols.q.tolist() == [0]
    assert n_out_of_feed == 1


def test_queue_positions_root_mode_follows_chains():
    # u follows both the root author and the forwarder; root mode measures
    # against the root post instead of the forward that landed in the feed.
    g = graph_of([("u", "a"), ("u", "b"), ("b", "a")])
    log = log_of([
        Event(1, 100, "a", EventKind.TWEET),
        Event(2, 200, "a", EventKind.TWEET),
        Event(3, 300, "b", EventKind.RETWEET, orig_event_id=1, orig_author="a"),
        Event(4, 400, "u", EventKind.RETWEET, orig_event_id=3, orig_author="b"),
    ])
    feeds = FeedIndex(log, g, (0, 1000))
    immediate, _ = queue_positions("u", feeds, source="immediate")
    root, _ = queue_positions("u", feeds, source="root")
    assert immediate.orig_id.tolist() == [3] and immediate.q.tolist() == [0]
    assert root.orig_id.tolist() == [1] and root.q.tolist() == [2]
    with pytest.raises(ValueError):
        queue_positions("u", feeds, source="chain")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["immediate", "root"]))
def test_queue_positions_match_naive_oracle(seed, source):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, int(rng.integers(4, 8)))
    log = random_log(rng, graph, int(rng.integers(30, 120)))
    window = (0, 10_000)
    feeds = FeedIndex(log, graph, window)
    for user in sorted(graph.nodes):
        expected, expected_oof = naive_queue_records(user, log, graph, window, source)
        cols, n_out_of_feed = queue_positions(user, feeds, source=source)
        # Row for row, in the log order of the forwards.
        assert list(zip(*(col.tolist() for col in cols))) == [
            (rid, *rest) for rid, rest in expected.items()]
        assert n_out_of_feed == expected_oof


def test_delay_histogram_summary():
    delays = list(range(1, 11))  # 1..10; p90 = 9.1 -> bottom 90% is 1..9
    dist, summary = delay_histogram(delays)
    assert summary.n == 10
    assert summary.median_s == pytest.approx(5.5)
    assert summary.bottom90_mean_s == pytest.approx(np.mean(range(1, 10)))
    with pytest.raises(ValueError):
        delay_histogram([])


def test_sample_lognormal_sum_moments():
    rng = np.random.default_rng(7)
    x = sample_lognormal_sum(rng, 4.0, 0.5, 3.0, 0.8, 200_000)
    want = math.exp(4 + 0.5**2 / 2) + math.exp(3 + 0.8**2 / 2)
    assert np.mean(x) == pytest.approx(want, rel=0.01)
    assert np.all(x > 0)


def test_fit_lognormal_convolution_recovers_distinct_components():
    rng = np.random.default_rng(1)
    truth = (4.0, 0.3, 3.0, 1.2)
    d = sample_lognormal_sum(rng, *truth, 4000)
    fit = fit_lognormal_convolution(d)
    assert fit.n == 4000 and fit.n_rejected == 0
    assert fit.mu1 >= fit.mu2
    for got, want in zip((fit.mu1, fit.sigma1, fit.mu2, fit.sigma2), truth):
        assert abs(got - want) < 0.3


def test_fit_lognormal_convolution_rejects_small_samples():
    with pytest.raises(ValueError, match="need at least 100"):
        fit_lognormal_convolution([1.0] * 50)
    with pytest.raises(ValueError, match="3 non-positive"):
        fit_lognormal_convolution([1.0] * 99 + [0.0, -1.0, -2.0])


BIN_PARAMS = [(4.0, 0.3, 3.0, 1.2), (3.0, 0.5, 2.0, 0.5), (2.0, 1.0, 1.0, 0.3)]
BIN_DELAYS = [1, 5, 20, 60, 150, 400, 2000]


def _lognormal_pdf(x, mu, sigma):
    if x <= 0:
        return 0.0
    return math.exp(-((math.log(x) - mu) ** 2) / (2 * sigma**2)) / (
        x * sigma * math.sqrt(2 * math.pi)
    )


def quad_bin_mass(d, mu1, s1, mu2, s2):
    """Oracle: quad over (d - 1/2, d + 1/2] of the quad-convolved sum density."""
    def density(z):
        # Split the inner range at the modes of both factors.
        modes = (math.exp(mu1 - s1 * s1), z - math.exp(mu2 - s2 * s2))
        points = [p for p in modes if 0 < p < z] or None
        val, _ = integrate.quad(
            lambda x: _lognormal_pdf(x, mu1, s1) * _lognormal_pdf(z - x, mu2, s2),
            0, z, points=points, epsabs=0, epsrel=1e-10, limit=200,
        )
        return val
    val, _ = integrate.quad(density, max(d - 0.5, 0.0), d + 0.5, epsabs=0, epsrel=1e-8)
    return val


@pytest.mark.parametrize("params", BIN_PARAMS)
def test_bin_masses_match_quadrature(params):
    got, _ = lognormal_sum_bin_masses(BIN_DELAYS, *params)
    for d, mass in zip(BIN_DELAYS, got):
        want = quad_bin_mass(d, *params)
        if want > 1e-10:
            assert mass == pytest.approx(want, rel=1e-4), d


@pytest.mark.parametrize("params", BIN_PARAMS)
def test_bin_mass_gradient_matches_central_differences(params):
    mu1, s1, mu2, s2 = params
    theta = np.array([mu1, math.log(s1), mu2, math.log(s2)])
    mass, grad = lognormal_sum_bin_masses(BIN_DELAYS, *params)
    h = 1e-5
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        up, down = theta + step, theta - step
        m_up, _ = lognormal_sum_bin_masses(
            BIN_DELAYS, up[0], math.exp(up[1]), up[2], math.exp(up[3]))
        m_down, _ = lognormal_sum_bin_masses(
            BIN_DELAYS, down[0], math.exp(down[1]), down[2], math.exp(down[3]))
        numeric = (m_up - m_down) / (2 * h)
        kept = mass > 1e-10
        assert np.all(np.abs(numeric - grad[:, j])[kept] <= 1e-5 * mass[kept]), j


# One narrow component whose density peak lies in the upper part of (0, d):
# (theta, delays) with the narrow sigma on either side of the pair.
SMALL_SIGMA_CASES = [
    ((1.0, 2.0, 5.0, 0.05), [150, 200, 234, 280]),
    ((6.0, 0.01, 0.0, 3.0), [400, 451, 500]),
]


@pytest.mark.parametrize("params,delays", SMALL_SIGMA_CASES)
def test_bin_masses_match_quadrature_at_small_sigma(params, delays):
    got, _ = lognormal_sum_bin_masses(delays, *params)
    for d, mass in zip(delays, got):
        assert mass == pytest.approx(quad_bin_mass(d, *params), rel=1e-4), d


@pytest.mark.parametrize("params,delays", SMALL_SIGMA_CASES)
def test_bin_mass_gradient_matches_central_differences_at_small_sigma(params, delays):
    # At sigma = 0.01 a step of 1e-5 has a truncation error above the tolerance.
    mu1, s1, mu2, s2 = params
    theta = np.array([mu1, math.log(s1), mu2, math.log(s2)])
    mass, grad = lognormal_sum_bin_masses(delays, *params)
    h = 1e-6
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        up, down = theta + step, theta - step
        m_up, _ = lognormal_sum_bin_masses(
            delays, up[0], math.exp(up[1]), up[2], math.exp(up[3]))
        m_down, _ = lognormal_sum_bin_masses(
            delays, down[0], math.exp(down[1]), down[2], math.exp(down[3]))
        numeric = (m_up - m_down) / (2 * h)
        assert np.all(np.abs(numeric - grad[:, j]) <= 1e-5 * mass), j


def _bin_mass_hessian_errors(params, delays, h):
    """|central difference of the analytic gradient - analytic Hessian| per bin,
    and the masses."""
    mu1, s1, mu2, s2 = params
    theta = np.array([mu1, math.log(s1), mu2, math.log(s2)])
    bins = queues._bin_edges(np.asarray(delays, dtype=float))
    mass, _, hess = queues._bin_masses(theta, *bins)
    errors = np.empty_like(hess)
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        numeric = (queues._bin_masses(theta + step, *bins)[1]
                   - queues._bin_masses(theta - step, *bins)[1]) / (2 * h)
        errors[:, :, j] = np.abs(numeric - hess[:, :, j])
    return errors, mass


def _nll_hessian_errors(params, delays, h):
    """|central difference of the analytic nll gradient - analytic nll Hessian|,
    with equal weights on the delays whose bins hold more than 1e-10."""
    mu1, s1, mu2, s2 = params
    theta = np.array([mu1, math.log(s1), mu2, math.log(s2)])
    mass, _ = lognormal_sum_bin_masses(delays, *params)
    d = np.asarray(delays, dtype=float)[mass > 1e-10]
    bins = queues._bin_edges(d)
    weights = np.full(len(d), 1.0 / len(d))
    _, _, info = queues._interval_nll(theta, *bins, weights)
    errors = np.empty((4, 4))
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        numeric = (queues._interval_nll(theta + step, *bins, weights)[1]
                   - queues._interval_nll(theta - step, *bins, weights)[1]) / (2 * h)
        errors[:, j] = np.abs(numeric - info[:, j])
    return errors


@pytest.mark.parametrize("params", BIN_PARAMS)
def test_bin_mass_hessian_matches_central_differences(params):
    errors, mass = _bin_mass_hessian_errors(params, BIN_DELAYS, 1e-5)
    kept = mass > 1e-10
    assert np.all(errors[kept] <= 1e-5 * mass[kept, None, None])
    assert np.all(_nll_hessian_errors(params, BIN_DELAYS, 1e-5) <= 1e-5)


@pytest.mark.parametrize("params,delays", SMALL_SIGMA_CASES)
def test_bin_mass_hessian_matches_central_differences_at_small_sigma(params, delays):
    # Each derivative in the narrow mu scales by 1/sigma. The 32-node panels
    # get the mu-mu entry, of size mass/sigma^2, to about 1e-8 of itself: 2e-5
    # and 9e-5 of the mass here, no worse than the central difference does
    # against 128 nodes. So the tolerance carries one factor 1/sigma.
    tol = 1e-5 / min(params[1], params[3])
    errors, mass = _bin_mass_hessian_errors(params, delays, 1e-6)
    assert np.all(errors <= tol * mass[:, None, None])
    assert np.all(_nll_hessian_errors(params, delays, 1e-6) <= tol)


def test_bin_masses_of_no_delays_are_empty():
    mass, grad = lognormal_sum_bin_masses([], 3.0, 0.5, 2.0, 0.5)
    assert mass.shape == (0,) and grad.shape == (0, 4)


def test_gauss_legendre_nodes_match_leggauss():
    x, w = np.polynomial.legendre.leggauss(queues._GL_POINTS)
    nodes, weights = queues._gauss_legendre()
    np.testing.assert_allclose(nodes, (x + 1.0) / 2.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(weights, w / 2.0, rtol=0.0, atol=1e-15)


def test_bin_masses_sum_to_one_and_clamp_at_zero():
    mass, _ = lognormal_sum_bin_masses(np.arange(0, 20_000), 3.0, 0.5, 2.0, 0.5)
    assert mass.sum() == pytest.approx(1.0, abs=1e-9)
    # The d = 0 bin is [0, 1/2]: the first half of the d = 1 bin's width.
    assert 0 < mass[0] < mass[1]


@pytest.mark.parametrize("mu1,mu2", [(710.0, 1.0), (1.0, 710.0), (800.0, 750.0)])
def test_bin_masses_stay_finite_where_exp_mu_overflows(mu1, mu2):
    mass, grad = lognormal_sum_bin_masses([0, 10, 1e300], mu1, 1.0, mu2, 1.0)
    assert np.all((mass >= 0) & (mass <= 1)) and np.isfinite(grad).all()
    mass, _ = lognormal_sum_bin_masses([10], 710.0, 1.0, 1.0, 1.0)
    assert 0 <= mass[0] <= 1


def test_fit_lognormal_convolution_ignores_duplication():
    rng = np.random.default_rng(3)
    d = sample_lognormal_sum(rng, 4.0, 0.3, 3.0, 1.2, 3000)
    once = fit_lognormal_convolution(d)
    twice = fit_lognormal_convolution(np.concatenate([d, d]))
    assert (twice.mu1, twice.sigma1, twice.mu2, twice.sigma2) == (
        once.mu1, once.sigma1, once.mu2, once.sigma2)
    assert twice.n == 2 * once.n and twice.n_unique == once.n_unique
    assert twice.loglik == pytest.approx(2 * once.loglik, rel=1e-12)


def test_fit_lognormal_convolution_identifiable_for_distinct_components():
    # Criterion 9's truth and sample.
    rng = np.random.default_rng(0)
    fit = fit_lognormal_convolution(sample_lognormal_sum(rng, 4.0, 0.3, 3.0, 1.2, 10_000))
    assert fit.converged and fit.identifiable
    assert fit.n_unique < fit.n and 0 < fit.nfev
    ses = (fit.se_mu1, fit.se_sigma1, fit.se_mu2, fit.se_sigma2)
    assert all(0 < se <= 0.15 for se in ses)


def test_fit_lognormal_convolution_evaluation_count():
    # Criterion 9's truth on another seed. With the likelihood wrong along
    # the sigma = 0.01 bound, one start wandered there: 197 evaluations.
    rng = np.random.default_rng(3)
    fit = fit_lognormal_convolution(sample_lognormal_sum(rng, 4.0, 0.3, 3.0, 1.2, 10_000))
    assert fit.converged and fit.identifiable
    assert fit.nfev <= 140


def test_fit_lognormal_convolution_evaluation_count_with_newton_steps():
    rng = np.random.default_rng(3)
    fit = fit_lognormal_convolution(sample_lognormal_sum(rng, 4.0, 0.3, 3.0, 1.2, 10_000))
    assert fit.converged and fit.nfev <= 70


def test_fit_lognormal_convolution_evaluation_count_from_two_starts():
    rng = np.random.default_rng(3)
    fit = fit_lognormal_convolution(sample_lognormal_sum(rng, 4.0, 0.3, 3.0, 1.2, 10_000))
    assert fit.converged and fit.nfev <= 35


def test_no_start_gives_both_components_the_same_parameters(monkeypatch):
    # The likelihood is symmetric under swapping the components, so from such a start
    # every step keeps them equal and the run cannot reach a two-component fit.
    starts = []
    minimize = queues.minimize

    def recording(fun, x0, args, bounds):
        starts.append(np.array(x0))
        return minimize(fun, x0, args, bounds)

    monkeypatch.setattr(queues, "minimize", recording)
    rng = np.random.default_rng(0)
    fit_lognormal_convolution(sample_lognormal_sum(rng, 4.0, 0.3, 3.0, 1.2, 2000))
    assert starts
    assert [x0 for x0 in starts if np.array_equal(x0[:2], x0[2:])] == []


def test_standard_errors_match_central_differences():
    # Criterion 9's sample: the observed information from the analytic Hessian
    # against a central difference of the analytic gradient.
    d = sample_lognormal_sum(np.random.default_rng(0), 4.0, 0.3, 3.0, 1.2, 10_000)
    fit = fit_lognormal_convolution(d)
    values, counts = np.unique(np.rint(d), return_counts=True)
    bins = queues._bin_edges(values)
    theta = np.array([fit.mu1, math.log(fit.sigma1), fit.mu2, math.log(fit.sigma2)])
    info = np.empty((4, 4))
    h = 1e-4
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        info[:, j] = (queues._interval_nll(theta + step, *bins, counts)[1]
                      - queues._interval_nll(theta - step, *bins, counts)[1]) / (2 * h)
    se = np.sqrt(np.diag(np.linalg.inv((info + info.T) / 2))) * (1.0, fit.sigma1, 1.0, fit.sigma2)
    got = (fit.se_mu1, fit.se_sigma1, fit.se_mu2, fit.se_sigma2)
    np.testing.assert_allclose(got, se, rtol=1e-3)


def test_fit_lognormal_convolution_not_identifiable_for_equal_sigmas():
    rng = np.random.default_rng(0)
    fit = fit_lognormal_convolution(sample_lognormal_sum(rng, 3.0, 0.5, 2.0, 0.5, 2000))
    assert not fit.identifiable


def test_ndtr_matches_scipy():
    edges = np.array([math.sqrt(2.0), 8.0 * math.sqrt(2.0)])
    edges = np.concatenate([edges, -edges])
    x = np.concatenate([np.linspace(-37.0, 9.0, 460_001), edges,
                        np.nextafter(edges, 0.0), np.nextafter(edges, 2.0 * edges)])
    cdf, density = queues._ndtr(x)
    np.testing.assert_allclose(cdf, special.ndtr(x), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(density, np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
                               rtol=1e-12, atol=0.0)
    cdf, density = queues._ndtr(np.array([-np.inf, 0.0, np.inf]))
    assert cdf.tolist() == [0.0, 0.5, 1.0]
    assert density.tolist() == [0.0, 1.0 / math.sqrt(2.0 * math.pi), 0.0]


def _lbfgsb(fun, x0, args, bounds):
    """scipy's L-BFGS-B in place of minimize, with the Hessian at its x added."""
    def value_and_gradient(x, *a):
        return fun(x, *a)[:2]
    res = optimize.minimize(value_and_gradient, x0, args=args, jac=True, method="L-BFGS-B",
                            bounds=bounds, options={"maxiter": queues._MAX_ITER})
    res.hess = fun(res.x, *args)[2]
    return res


# (truth, size, seed): criterion 9's identifiable sample, the equal-sigma
# sample and one whose faster component is nearly constant.
ORACLE_SAMPLES = {
    "criterion-9": ((4.0, 0.3, 3.0, 1.2), 10_000, 0),
    "equal-sigma": ((3.0, 0.5, 2.0, 0.5), 2000, 0),
    "near-constant": ((4.0, 0.3, 2.0, 0.01), 2000, 5),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SAMPLES))
def test_minimize_matches_scipy_lbfgsb(name, monkeypatch):
    truth, size, seed = ORACLE_SAMPLES[name]
    delays = sample_lognormal_sum(np.random.default_rng(seed), *truth, size)
    fit = fit_lognormal_convolution(delays)
    monkeypatch.setattr(queues, "minimize", _lbfgsb)
    oracle = fit_lognormal_convolution(delays)
    assert fit.loglik / fit.n >= oracle.loglik / oracle.n - 1e-9
    assert fit.converged
    for sigma in (fit.sigma1, fit.sigma2):
        assert 0.01 * (1 - 1e-12) <= sigma <= 10.0 * (1 + 1e-12)
    if name == "criterion-9":
        assert fit.identifiable
        got = np.array([fit.mu1, fit.sigma1, fit.mu2, fit.sigma2])
        want = np.array([oracle.mu1, oracle.sigma1, oracle.mu2, oracle.sigma2])
        assert np.max(np.abs(got - want)) <= 1e-3


def test_minimize_respects_bounds_and_counts_evaluations():
    def quadratic(x):
        return float((x - 3.0) @ (x - 3.0)), 2.0 * (x - 3.0), 2.0 * np.eye(len(x))

    res = queues.minimize(quadratic, np.zeros(2), (), [(None, None), (-1.0, 1.0)])
    assert res.success and res.nfev > 1
    np.testing.assert_allclose(res.x, [3.0, 1.0], atol=1e-5)
    assert res.fun == pytest.approx(4.0, abs=1e-9)


def test_fit_lognormal_convolution_rounds_to_whole_seconds():
    rng = np.random.default_rng(2)
    d = sample_lognormal_sum(rng, 4.0, 0.3, 3.0, 1.2, 1000)
    assert fit_lognormal_convolution(d) == fit_lognormal_convolution(np.rint(d))


def test_little_bounds_arithmetic():
    b = little_bounds(lam=10.0, lam_r=2.0, delta_r=0.1, n_r=5.0)
    assert b.lam_nr == pytest.approx(8.0, abs=1e-12)
    assert b.delta_nr_star == pytest.approx(0.6, abs=1e-12)
    assert b.delta_star == pytest.approx(0.5, abs=1e-12)
    assert not b.clamped


def test_little_bounds_clamped_and_errors():
    b = little_bounds(lam=10.0, lam_r=2.0, delta_r=10.0, n_r=1.0)
    assert b.clamped and b.delta_nr_star == 0.0
    assert b.delta_star == pytest.approx(2.0 * 10.0 / 10.0)
    with pytest.raises(ValueError, match="non-forwarded"):
        little_bounds(lam=2.0, lam_r=2.0, delta_r=0.1, n_r=1.0)
    with pytest.raises(ValueError):
        little_bounds(lam=10.0, lam_r=2.0, delta_r=-0.1, n_r=1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.1, 1000.0),
    st.floats(0.0, 0.99),
    st.floats(0.0, 100.0),
    st.floats(0.0, 1000.0),
)
def test_little_bounds_invariants(lam, r_frac, delta_r, n_r):
    lam_r = lam * r_frac
    b = little_bounds(lam, lam_r, delta_r, n_r)
    assert b.delta_nr_star >= 0
    # The overall bound is the rate-weighted mix of the two components.
    mix = (lam_r * delta_r + b.lam_nr * b.delta_nr_star) / lam
    assert b.delta_star == pytest.approx(mix, rel=1e-9, abs=1e-12)
    if not b.clamped:
        # Little's balance: lam_r*delta_r + lam_nr*delta_nr = n_r exactly.
        assert lam_r * delta_r + b.lam_nr * b.delta_nr_star == pytest.approx(
            n_r, rel=1e-9, abs=1e-9
        )
