"""Ground-truth workload generation.

Every estimator in the package gets its round-trip oracle from here: Poisson
posting per node, probabilistic forwarding driven by the same beta curve and
delay model the simulators use, and scripted contagion injection with a known
per-exposure adoption hazard.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .events import TS_BOUND, EventLog, SocialGraph
from .simulate import BetaCurve, DelayModel, beta_of_inflow, check_rates, node_rates

SECONDS_PER_HOUR = 3600
# The largest expected post count of one node: numpy's Poisson sampler
# rejects means from just under 2^63, and event ids are signed 64-bit.
_MAX_EXPECTED_POSTS = float(1 << 62)


@dataclass(frozen=True)
class ContagionPlan:
    token: str
    n_seeds: int
    hazard: float                       # per-exposure adoption probability
    overload_hazard: Optional[float] = None  # hazard above the in-flow threshold
    overload_threshold: Optional[float] = None
    adopt_jitter_s: int = 600           # adoption lag drawn uniformly from [1, this]

    def __post_init__(self):
        if not (0.0 <= self.hazard <= 1.0):
            raise ValueError("hazard must lie in [0, 1]")
        if self.adopt_jitter_s < 1:
            raise ValueError("adopt_jitter_s must be >= 1")
        if self.overload_hazard is not None and not (0.0 <= self.overload_hazard <= 1.0):
            raise ValueError("overload_hazard must lie in [0, 1]")
        if (self.overload_hazard is None) != (self.overload_threshold is None):
            raise ValueError("overload_hazard and overload_threshold go together")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")


@dataclass(frozen=True)
class WorkloadSpec:
    graph: SocialGraph
    beta_curve: BetaCurve
    delay_model: DelayModel
    horizon_hours: float
    seed: int
    mu: float                       # posting-rate model: Normal(mu, sigma), >= 0
    sigma: float = 0.0
    contagions: tuple[ContagionPlan, ...] = ()
    forward_retweets: bool = False  # allow retweets-of-retweets (depth > 1)

    def __post_init__(self):
        # Also false for nan; the log's timestamps must stay below TS_BOUND.
        if not 0 < self.horizon_hours * SECONDS_PER_HOUR < TS_BOUND:
            raise ValueError(f"horizon_hours must be in (0, 2^62 s), got {self.horizon_hours}")
        check_rates(self.mu, self.sigma)


def _hazard_for(plan: ContagionPlan, lam_in: float) -> float:
    if plan.overload_threshold is not None and lam_in > plan.overload_threshold:
        return plan.overload_hazard
    return plan.hazard


def generate_workload(spec: WorkloadSpec) -> tuple[EventLog, dict]:
    """Generate an event log plus a ground-truth parameter report.

    Identical spec and seed give an identical log, byte for byte.
    """
    graph = spec.graph
    n = len(graph.nodes)
    rng = np.random.default_rng(spec.seed)
    horizon_s = int(round(spec.horizon_hours * SECONDS_PER_HOUR))

    lam_out, lam_in = node_rates(graph, rng, spec.mu, spec.sigma)
    posts = float(np.max(lam_out)) * spec.horizon_hours
    if not posts < _MAX_EXPECTED_POSTS:
        raise ValueError(f"mu = {spec.mu:g} and horizon_hours = {spec.horizon_hours:g} give "
                         f"{posts:.3g} expected posts for one node, above 2^62")
    delay_bin = spec.delay_model.bin_index(lam_in)

    # Events under construction, one row each in creation order. Final ids are
    # assigned after the global sort.
    raw_ts = array("q")
    raw_depth = array("q")  # originals sort before forwards at equal timestamps
    raw_author = array("q")
    raw_orig = array("q")   # row of the forwarded event, -1 for an original
    token_rows: dict[str, list[int]] = {}

    def push(ts, depth, author, orig=-1) -> int:
        raw_ts.append(ts)
        raw_depth.append(depth)
        raw_author.append(author)
        raw_orig.append(orig)
        return len(raw_ts) - 1

    # Poisson posting per node.
    tweets_by_author: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        count = rng.poisson(lam_out[i] * spec.horizon_hours)
        ts = np.sort(rng.integers(0, horizon_s + 1, size=count))
        for t in ts.tolist():
            tweets_by_author[i].append(push(t, 0, i))

    # Forwarding: each received post is forwarded with the beta-curve
    # probability after a delay from the receiver's in-flow bin.
    frontier: list[list[int]] = tweets_by_author
    depth = 1
    while True:
        produced: list[list[int]] = [[] for _ in range(n)]
        any_forward = False
        for u in range(n):
            incoming: list[int] = []
            for v in graph.followee_slice(u).tolist():
                incoming.extend(frontier[v])
            if not incoming:
                continue
            beta = beta_of_inflow(float(lam_in[u]), spec.beta_curve)
            mask = rng.random(len(incoming)) < beta
            hits = [e for e, m in zip(incoming, mask.tolist()) if m]
            if not hits:
                continue
            b = spec.delay_model.bins[delay_bin[u]]
            delays = rng.lognormal(b.mu1, b.sigma1, len(hits)) + rng.lognormal(
                b.mu2, b.sigma2, len(hits)
            )
            for e, d in zip(hits, delays.tolist()):
                rt_ts = raw_ts[e] + int(round(d))
                if rt_ts > horizon_s:
                    continue
                produced[u].append(push(rt_ts, depth, u, orig=e))
                any_forward = True
        if not spec.forward_retweets or not any_forward:
            break
        frontier = produced
        depth += 1

    # Contagion injection: each exposure (a followee's adoption) gives a
    # follower one independent chance to adopt after a short jittered delay.
    # The jitter keeps adoption waves from marching in lockstep, which would
    # pile simultaneous exposures onto single timestamps.
    truth_contagions = []
    for plan in spec.contagions:
        if plan.n_seeds > n:
            raise ValueError(f"plan {plan.token!r}: more seeds than nodes")
        seeds = rng.choice(n, size=plan.n_seeds, replace=False)
        # Seed adoption times are jittered across the first hour so that
        # exposure transitions do not pile up on a single timestamp.
        seed_ts = rng.integers(0, min(SECONDS_PER_HOUR, horizon_s) + 1, size=plan.n_seeds)
        adopted: set[int] = set()
        heap: list[tuple[int, int]] = [
            (int(t), int(s)) for t, s in zip(seed_ts, sorted(seeds))
        ]
        heapq.heapify(heap)
        while heap:
            t, u = heapq.heappop(heap)
            if u in adopted or t > horizon_s:
                continue
            adopted.add(u)
            token_rows.setdefault(plan.token, []).append(push(t, 1, u))
            for w in graph.follower_slice(u).tolist():
                if w in adopted:
                    continue
                if rng.random() < _hazard_for(plan, float(lam_in[w])):
                    lag = int(rng.integers(1, plan.adopt_jitter_s + 1))
                    heapq.heappush(heap, (t + lag, w))
        truth_contagions.append(
            {
                "token": plan.token,
                "n_seeds": plan.n_seeds,
                "hazard": plan.hazard,
                "overload_hazard": plan.overload_hazard,
                "overload_threshold": plan.overload_threshold,
                "n_adopters": len(adopted),
                "seeds": sorted(graph.nodes[s] for s in seeds.tolist()),
            }
        )

    # Event ids follow (ts, depth, row); lexsort is stable, so rows break ties.
    # An event's id is its row in the log.
    order = np.lexsort((raw_depth, raw_ts))
    event_id = np.empty_like(order)
    event_id[order] = np.arange(len(order))
    author, orig = np.array(raw_author, dtype=np.int32), np.array(raw_orig, dtype=np.int64)[order]
    forward, orig = orig >= 0, np.maximum(orig, 0)
    log = EventLog(
        np.array(raw_ts, dtype=np.int64)[order], np.arange(len(order), dtype=np.int64),
        author[order], np.where(forward, author[orig], -1), np.where(forward, event_id[orig], 0),
        list(graph.nodes), {token: np.sort(event_id[rows]) for token, rows in token_rows.items()})

    truth = {
        "seed": spec.seed,
        "horizon_hours": spec.horizon_hours,
        "n_nodes": n,
        "n_edges": graph.n_edges(),
        "n_events": len(log),
        "beta_curve": asdict(spec.beta_curve),
        "delay_bins": [asdict(b) for b in spec.delay_model.bins],
        "contagions": truth_contagions,
        "lam_out": {u: float(lam_out[i]) for i, u in enumerate(graph.nodes)},
        "lam_in": {u: float(lam_in[i]) for i, u in enumerate(graph.nodes)},
    }
    return log, truth


def ground_truth_text(truth: dict) -> str:
    """Flatten the ground-truth report into sorted key = value lines."""
    lines: list[str] = []

    def emit(prefix: str, value):
        if isinstance(value, dict):
            for k in sorted(value):
                emit(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, (list, tuple)):
            for idx, item in enumerate(value):
                emit(f"{prefix}.{idx}", item)
        else:
            lines.append(f"{prefix} = {value}")

    emit("", truth)
    return "\n".join(lines) + "\n"
