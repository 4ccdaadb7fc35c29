"""End-to-end acceptance checks.

Each test prints a single pass/fail line (outside pytest's capture, via the
capsys fixture) so a plain `pytest tests/test_acceptance.py` run shows the
scorecard directly. Fixtures are deterministic: every random quantity is
seeded.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from feedflow.cli import main as cli_main
from feedflow.events import FeedIndex
from feedflow.exposure import build_trace, exposure_curve, group_users_by_inflow
from feedflow.flows import (
    fit_power_law_mle,
    fit_two_regime,
    log_binned_curve,
    window_hours,
)
from feedflow.graphgen import KroneckerParams, kronecker_generate
from feedflow.queues import (
    fit_lognormal_convolution,
    little_bounds,
    queue_positions,
)
from feedflow.simulate import (
    BetaCurve,
    DelayBin,
    DelayModel,
    SimConfig,
    simulate_ct_bg,
    simulate_ic_bg,
)
from feedflow.synth import ContagionPlan, WorkloadSpec, generate_workload
from helpers import naive_queue_positions, random_graph, random_log, sample_lognormal_sum

PAPER_INITIATOR = ((0.9, 0.5), (0.5, 0.3))
NARROW_DELAYS = DelayModel(bins=(DelayBin(0.0, math.inf, 3.0, 0.5, 2.0, 0.5),))


def report(capsys, criterion: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {criterion} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_beta_curve_round_trip(capsys):
    t0 = time.time()
    graph = kronecker_generate(
        KroneckerParams(PAPER_INITIATOR, k=11, target_edges=40_000, seed=7)
    )
    truth = BetaCurve(lambda_c=30.0, beta0=0.05, gamma=0.65)
    spec = WorkloadSpec(graph=graph, beta_curve=truth, delay_model=NARROW_DELAYS,
                        horizon_hours=100.0, seed=11, mu=1.5, sigma=0.5)
    log, _ = generate_workload(spec)
    window = log.span()
    counts = FeedIndex(log, graph, window, originals_only=True)
    received, forwarded = counts.received(), counts.forwarded()
    eligible = received >= 50
    bins = log_binned_curve(received[eligible] / window_hours(window),
                            forwarded[eligible] / received[eligible], bins_per_decade=10)
    fit = fit_two_regime([(b.center, b.mean) for b in bins if b.n >= 5])
    elapsed = time.time() - t0
    gamma_err = abs(fit.gamma - truth.gamma)
    ratio = fit.lambda_c / truth.lambda_c
    ok = (fit.overload_detected and gamma_err <= 0.10
          and 1 / 1.5 <= ratio <= 1.5 and elapsed <= 300)
    report(capsys, 1, "beta-curve round-trip recovery", ok,
           f"gamma={fit.gamma:.3f} (err {gamma_err:.3f}), "
           f"lambda_c={fit.lambda_c:.1f} (ratio {ratio:.2f}), {elapsed:.0f}s")


def test_criterion_2_queue_position_oracle(capsys):
    t0 = time.time()
    n_records = 0
    mismatches = 0
    for i in range(200):
        rng = np.random.default_rng([9000, i])
        graph = random_graph(rng, int(rng.integers(4, 9)))
        n_events = int(rng.integers(50, 600)) if i % 20 else 1000
        log = random_log(rng, graph, n_events)
        window = (0, 10_000)
        feeds = FeedIndex(log, graph, window)
        for user in sorted(graph.nodes):
            expected, expected_oof = naive_queue_positions(user, log, graph, window)
            cols, n_out_of_feed = queue_positions(user, feeds)
            got = dict(zip(cols.retweet_id.tolist(), cols.q.tolist()))
            n_records += len(expected)
            if got != expected or n_out_of_feed != expected_oof:
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed <= 60
    report(capsys, 2, "queue-position oracle equivalence", ok,
           f"{n_records} records over 200 logs, {mismatches} mismatches, {elapsed:.0f}s")


def test_criterion_3_little_bound_arithmetic(capsys):
    b = little_bounds(lam=10.0, lam_r=2.0, delta_r=0.1, n_r=5.0)
    ok = (abs(b.delta_nr_star - 0.6) <= 1e-12 and abs(b.delta_star - 0.5) <= 1e-12)
    report(capsys, 3, "Little-bound arithmetic", ok,
           f"delta_nr*={b.delta_nr_star} delta*={b.delta_star}")


def test_criterion_4_power_law_mle(capsys):
    rng = np.random.default_rng(123)
    # Inverse-CDF sampler for the continuous power law with exponent 2.5:
    # CCDF (x/x_min)^(1-alpha)  =>  x = x_min * U^(-1/(alpha-1)).
    u = rng.random(100_000)
    samples = u ** (-1.0 / 1.5)
    fit = fit_power_law_mle(samples, x_min=1.0)
    ok = 2.45 <= fit.alpha <= 2.55
    report(capsys, 4, "power-law MLE on Pareto(2.5) samples", ok, f"alpha={fit.alpha:.4f}")


def test_criterion_5_ic_background_traffic_fractions(capsys):
    t0 = time.time()
    graph = kronecker_generate(
        KroneckerParams(PAPER_INITIATOR, k=10, target_edges=20_000, seed=3)
    )
    curve = BetaCurve(lambda_c=30.0, beta0=0.05, gamma=0.65)
    fracs = {}
    for mu in (1.0, 10.0, 100.0):
        cfg = SimConfig(mu=mu, sigma=mu / 4, beta_curve=curve,
                        n_cascades=50_000, seed=17)
        fracs[mu] = (simulate_ic_bg(graph, cfg).size >= 3).mean()
    elapsed = time.time() - t0
    ratio = fracs[1.0] / max(fracs[100.0], 1e-12)
    monotone = fracs[1.0] >= fracs[10.0] >= fracs[100.0]
    ok = ratio >= 20 and monotone and elapsed <= 600
    report(capsys, 5, "IC size fractions vs background traffic", ok,
           f"frac(>=3): mu1={fracs[1.0]:.3f} mu10={fracs[10.0]:.3f} "
           f"mu100={fracs[100.0]:.4f}, ratio {ratio:.0f}, monotone={monotone}, "
           f"{elapsed:.0f}s")


def test_criterion_6_ct_duration_tail(capsys):
    graph = kronecker_generate(
        KroneckerParams(PAPER_INITIATOR, k=10, target_edges=20_000, seed=3)
    )
    curve = BetaCurve(lambda_c=30.0, beta0=0.02, gamma=0.65)
    delays = DelayModel(bins=(
        DelayBin(0.0, 100.0, 6.0, 0.5, 5.0, 0.5),      # light delays when idle
        DelayBin(100.0, math.inf, 4.0, 2.0, 3.5, 2.0),  # heavy tail when overloaded
    ))
    durs = {}
    for mu in (1.0, 100.0):
        cfg = SimConfig(mu=mu, sigma=mu / 4, beta_curve=curve,
                        n_cascades=50_000, seed=23, delay_model=delays)
        cascades = simulate_ct_bg(graph, cfg)
        durs[mu] = cascades.duration[cascades.size >= 2]
    rng = np.random.default_rng(0)
    reps = 2000
    p99_sep = med_sep = 0
    for _ in range(reps):
        a = rng.choice(durs[1.0], len(durs[1.0]))
        b = rng.choice(durs[100.0], len(durs[100.0]))
        p99_sep += np.quantile(b, 0.99) > np.quantile(a, 0.99)
        med_sep += np.median(b) < np.median(a)
    ok = p99_sep / reps >= 0.95 and med_sep / reps >= 0.95
    report(capsys, 6, "CT duration tail under overload", ok,
           f"p99: {np.quantile(durs[100.0], 0.99):.0f}s vs "
           f"{np.quantile(durs[1.0], 0.99):.0f}s (boot {p99_sep/reps:.3f}), "
           f"median: {np.median(durs[100.0]):.0f}s vs {np.median(durs[1.0]):.0f}s "
           f"(boot {med_sep/reps:.3f})")


def test_criterion_7_exposure_curves(capsys):
    # Part A: constant per-exposure hazard on a sparse graph. Sparsity keeps
    # multi-exposure races (an adoption overtaken by the next exposure) rare,
    # which is the regime where the ordinal-time estimator is unbiased. k=0 is
    # excluded: the per-exposure hazard does not apply to unexposed users
    # (their adoptions are the scripted seeds).
    hazard = 0.1
    sparse = kronecker_generate(
        KroneckerParams(PAPER_INITIATOR, k=12, target_edges=10_000, seed=7)
    )
    curve = BetaCurve(lambda_c=30.0, beta0=0.01, gamma=0.65)
    spec = WorkloadSpec(
        graph=sparse, beta_curve=curve, delay_model=NARROW_DELAYS,
        horizon_hours=48.0, seed=29, mu=1.5, sigma=0.5,
        contagions=(ContagionPlan(token="flat", n_seeds=500, hazard=hazard,
                                  adopt_jitter_s=120),),
    )
    log, truth = generate_workload(spec)
    window = log.span()
    seeds = set(truth["contagions"][0]["seeds"])
    users = [u for u in sorted(sparse.nodes) if u not in seeds]
    cv = exposure_curve(build_trace("flat", log, sparse, window), users, min_e=200)
    checked = []
    flat_ok = True
    for k in range(1, cv.k_max + 1):
        if cv.e[k] < 200:
            continue
        two_se = 2 * math.sqrt(hazard * (1 - hazard) / cv.e[k])
        checked.append(k)
        if abs(cv.p[k] - hazard) > two_se:
            flat_ok = False
    flat_ok = flat_ok and len(checked) >= 1

    # Part B: hazard halves above the in-flow threshold; the overloaded group's
    # curve must sit below the normal group's. Grouping leaves a gap around the
    # threshold so estimation noise cannot misclassify users.
    dense = kronecker_generate(
        KroneckerParams(PAPER_INITIATOR, k=11, target_edges=40_000, seed=7)
    )
    spec_b = WorkloadSpec(
        graph=dense, beta_curve=curve, delay_model=NARROW_DELAYS,
        horizon_hours=48.0, seed=29, mu=1.5, sigma=0.5,
        contagions=(ContagionPlan(token="ovl", n_seeds=60, hazard=hazard,
                                  overload_hazard=hazard / 2,
                                  overload_threshold=30.0, adopt_jitter_s=120),),
    )
    log_b, truth_b = generate_workload(spec_b)
    window_b = log_b.span()
    seeds_b = set(truth_b["contagions"][0]["seeds"])
    received = FeedIndex(log_b, dense, window_b, originals_only=True).received()
    lam = {u: r / window_hours(window_b) for u, r in zip(dense.nodes, received.tolist())
           if u not in seeds_b}
    groups = group_users_by_inflow(lam, [(0.0, 25.0), (35.0, 1e9)])
    trace_b = build_trace("ovl", log_b, dense, window_b)
    low = exposure_curve(trace_b, groups[(0.0, 25.0)], min_e=200)
    high = exposure_curve(trace_b, groups[(35.0, 1e9)], min_e=200)
    shared = [k for k in range(1, min(low.k_max, high.k_max) + 1)
              if low.e[k] >= 200 and high.e[k] >= 200]
    split_ok = len(shared) >= 3 and all(high.p[k] < low.p[k] for k in shared)

    ok = flat_ok and split_ok
    report(capsys, 7, "exposure-curve estimator", ok,
           f"flat hazard within 2 SE at k={checked}; overloaded group below "
           f"normal group at k={shared}")


def test_criterion_8_command_determinism(capsys, tmp_path):
    runner = CliRunner()
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(
        "initiator = 0.9, 0.5, 0.5, 0.3\nk = 5\ntarget_edges = 120\n"
        "graph_seed = 1\nmu = 2.0\nsigma = 0.5\nlambda_c = 30\nbeta0 = 0.1\n"
        "gamma = 0.65\nhorizon_hours = 6\n"
        "delay_bin.0.lo = 0\ndelay_bin.0.hi = inf\ndelay_bin.0.mu1 = 3.0\n"
        "delay_bin.0.sigma1 = 0.5\ndelay_bin.0.mu2 = 2.0\ndelay_bin.0.sigma2 = 0.5\n"
        "contagion.0.token = tok\ncontagion.0.n_seeds = 3\ncontagion.0.hazard = 0.3\n"
    )
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(
        "mu = 1.0\nsigma = 0.25\nlambda_c = 30\nbeta0 = 0.1\ngamma = 0.65\n"
        "n_cascades = 200\n"
        "delay_bin.0.lo = 0\ndelay_bin.0.hi = inf\ndelay_bin.0.mu1 = 3.0\n"
        "delay_bin.0.sigma1 = 0.5\ndelay_bin.0.mu2 = 2.0\ndelay_bin.0.sigma2 = 0.5\n"
    )
    graph_path = tmp_path / "graph.tsv"
    r = runner.invoke(cli_main, ["graphgen", "--initiator", "0.9,0.5,0.5,0.3",
                                 "--k", "6", "--target-edges", "300", "--seed", "4",
                                 "--out", str(graph_path)])
    assert r.exit_code == 0, r.output

    commands = {
        "graphgen": ["graphgen", "--initiator", "0.9,0.5,0.5,0.3", "--k", "6",
                     "--target-edges", "300", "--seed", "4"],
        "simulate-ic": ["simulate", "--model", "ic", "--graph", str(graph_path),
                        "--config", str(sim_cfg), "--seed", "21"],
        "simulate-ct": ["simulate", "--model", "ct", "--graph", str(graph_path),
                        "--config", str(sim_cfg), "--seed", "21"],
        "synth": ["synth", "--config", str(synth_cfg), "--seed", "11"],
    }
    unstable = []
    for name, args in commands.items():
        outputs = set()
        for trial in range(10):
            out = tmp_path / f"{name}_{trial}.out"
            extra = list(args) + ["--out", str(out)]
            if name.startswith("simulate"):
                extra += ["--workers", str(1 + trial % 3)]
            r = runner.invoke(cli_main, extra)
            assert r.exit_code == 0, r.output
            outputs.add(out.read_bytes())
        if len(outputs) != 1:
            unstable.append(name)
    ok = not unstable
    report(capsys, 8, "seeded command determinism", ok,
           f"10 trials per command across worker counts; unstable: {unstable or 'none'}")


def test_criterion_9_lognormal_convolution_recovery(capsys):
    # Truth parameters chosen with well-separated component shapes: the fit's
    # four parameters are then strongly identified at this sample size (the
    # Fisher standard errors are all well below the tolerance).
    truth = (4.0, 0.3, 3.0, 1.2)
    rng = np.random.default_rng(0)
    delays = sample_lognormal_sum(rng, *truth, 10_000)
    t0 = time.time()
    fit = fit_lognormal_convolution(delays)
    elapsed = time.time() - t0
    got = (fit.mu1, fit.sigma1, fit.mu2, fit.sigma2)
    errs = [abs(g - w) for g, w in zip(got, truth)]
    ok = all(e <= 0.15 for e in errs) and elapsed <= 120
    report(capsys, 9, "lognormal-convolution fit recovery", ok,
           f"fit=({fit.mu1:.3f}, {fit.sigma1:.3f}, {fit.mu2:.3f}, {fit.sigma2:.3f}) "
           f"errs={[round(e, 3) for e in errs]}, {elapsed:.0f}s")
