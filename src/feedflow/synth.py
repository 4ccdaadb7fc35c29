"""Ground-truth workload generation.

Every estimator in the package gets its round-trip oracle from here: Poisson
posting per node, probabilistic forwarding driven by the same beta curve and
delay model the simulators use, and scripted contagion injection with a known
per-exposure adoption hazard.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .events import TS_BOUND, EventLog, SocialGraph, csr_ranges
from .simulate import (BetaCurve, DelayModel, beta_of_inflow, cascade_keys, check_rates,
                       first_passage, node_rates, slot_uniform)

SECONDS_PER_HOUR = 3600
# The largest expected post count of one node: numpy's Poisson sampler
# rejects means from just under 2^63, and event ids are signed 64-bit.
_MAX_EXPECTED_POSTS = float(1 << 62)
# Received items gathered at once; the forwards do not depend on it, and it
# bounds the gather's transient arrays.
_GATHER_CELLS = 1 << 16


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
        # A lag is whole seconds (2.5 would let one reach 3), and 2^62 bounds
        # every lag, so that a lag past the horizon cannot overflow.
        try:
            jitter = operator.index(self.adopt_jitter_s)
        except TypeError:
            jitter = 0
        if not 1 <= jitter <= TS_BOUND:
            raise ValueError(f"adopt_jitter_s must be an integer in [1, 2^62], "
                             f"got {self.adopt_jitter_s!r}")
        if self.overload_hazard is not None and not (0.0 <= self.overload_hazard <= 1.0):
            raise ValueError("overload_hazard must lie in [0, 1]")
        # No in-flow exceeds NaN, so the overload hazard would never apply.
        if self.overload_threshold is not None and math.isnan(self.overload_threshold):
            raise ValueError("overload_threshold must not be NaN")
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

    # Events under construction, in stages of creation: originals, forwards by
    # depth, adoptions by contagion. A stage is its rows' (ts, author, orig row or -1, depth);
    # final ids are assigned after the global sort. Poisson posting per node
    # groups the originals' rows by author.
    counts, stamps = np.zeros(n, np.int64), []
    for i in range(n):
        counts[i] = rng.poisson(lam_out[i] * spec.horizon_hours)
        stamps.append(np.sort(rng.integers(0, horizon_s + 1, size=counts[i])))
    stages = [(np.concatenate(stamps), np.repeat(np.arange(n), counts),
               np.full(counts.sum(), -1), 0)]

    # Forwarding: each received post is forwarded with the beta-curve
    # probability after a delay from the receiver's in-flow bin. The frontier,
    # the last stage, starts at row first, and ptr groups its rows by author.
    beta = [beta_of_inflow(lam, spec.beta_curve) for lam in lam_in.tolist()]
    bins = [spec.delay_model.bins[b] for b in delay_bin.tolist()]
    fptr, followee = graph.followee_indptr, graph.followee_indices
    first, ptr = 0, np.concatenate(([0], np.cumsum(counts)))
    while True:
        # Frontier items per followee edge, and the items before each user's first edge.
        size = np.diff(ptr)[followee]
        before = np.concatenate(([0], np.cumsum(size)))[fptr]
        hits, delays, receivers, lo = [np.empty(0, np.int64)], [np.empty(0)], [], 0
        while lo < n:  # users lo..hi-1: at most _GATHER_CELLS items, or one user
            hi = max(lo + 1, int(np.searchsorted(before, before[lo] + _GATHER_CELLS, "right")) - 1)
            # The frontier row of each item users lo..hi-1 receive, by followee.
            edges = slice(fptr[lo], fptr[hi])
            item = csr_ranges(ptr[followee[edges]], size[edges])
            ends = before[lo:hi + 1] - before[lo]
            for u in np.flatnonzero(np.diff(ends)).tolist():
                incoming = item[ends[u]:ends[u + 1]]
                hit = incoming[rng.random(incoming.size) < beta[lo + u]]
                if hit.size:
                    b = bins[lo + u]
                    delays.append(rng.lognormal(b.mu1, b.sigma1, hit.size)
                                  + rng.lognormal(b.mu2, b.sigma2, hit.size))
                    hits.append(hit)
                    receivers.append(lo + u)
            lo = hi
        hit = np.concatenate(hits)
        author = np.repeat(np.array(receivers, np.int64), [h.size for h in hits[1:]])
        ts = stages[-1][0][hit]
        # rint rounds halves to even, as round does. 2^62 is past every horizon
        # and converts exactly, also for an infinite delay.
        d = np.minimum(np.rint(np.concatenate(delays)), 2.0**62).astype(np.int64)
        kept = d <= horizon_s - ts
        stages.append((ts[kept] + d[kept], author[kept], first + hit[kept], len(stages)))
        first += len(stages[-2][0])
        if not spec.forward_retweets or not kept.any():
            break
        ptr = np.concatenate(([0], np.cumsum(np.bincount(author[kept], minlength=n))))
    del hits, delays, hit, author, ts, d, kept  # the last depth's, before the log's peak
    n_rows, token_rows = first + len(stages[-1][0]), {}

    # Contagion injection: each follow edge gets one coin at the follower's hazard
    # and one lag over 1..adopt_jitter_s, keyed by seed and contagion index; a node
    # adopts at its first passage from the seeds, up to the horizon, and same-second
    # adoptions stay in node order. The lag keeps adoption waves out of lockstep,
    # which would pile simultaneous exposures onto single timestamps.
    truth_contagions = []
    for index, plan in enumerate(spec.contagions):
        if plan.n_seeds > n:
            raise ValueError(f"plan {plan.token!r}: more seeds than nodes")
        seeds = rng.choice(n, size=plan.n_seeds, replace=False)
        # Seed adoption times are jittered across the first hour so that
        # exposure transitions do not pile up on a single timestamp.
        seed_ts = rng.integers(0, min(SECONDS_PER_HOUR, horizon_s) + 1, size=plan.n_seeds)
        hazard = np.full(n, plan.hazard)
        if plan.overload_threshold is not None:
            hazard[lam_in > plan.overload_threshold] = plan.overload_hazard

        def lag(k, e, j):  # from the edge's slot 3e + 1
            return 1 + (slot_uniform(k, 3 * e + 1) * plan.adopt_jitter_s).astype(np.int64)
        adopters, ts = first_passage(graph, cascade_keys(spec.seed, [index]), np.sort(seeds),
                                     seed_ts, hazard, lag, horizon_s)
        stages.append((ts, adopters, np.full(adopters.size, -1), 1))
        token_rows.setdefault(plan.token, []).append(n_rows + np.arange(adopters.size))
        n_rows += adopters.size
        truth_contagions.append(
            {
                "token": plan.token,
                "n_seeds": plan.n_seeds,
                "hazard": plan.hazard,
                "overload_hazard": plan.overload_hazard,
                "overload_threshold": plan.overload_threshold,
                "n_adopters": adopters.size,
                "seeds": sorted(graph.nodes[s] for s in seeds.tolist()),
            }
        )

    # Event ids follow (ts, depth, row); lexsort is stable, so rows break ties.
    # An event's id is its row in the log.
    raw_depth = np.repeat([s[3] for s in stages], [len(s[0]) for s in stages])
    raw_ts, raw_author, raw_orig = (np.concatenate(c) for c in list(zip(*stages))[:3])
    del stages
    order = np.lexsort((raw_depth, raw_ts))
    event_id = np.empty_like(order)
    event_id[order] = np.arange(len(order))
    author, orig = raw_author.astype(np.int32), raw_orig[order]
    forward, orig = orig >= 0, np.maximum(orig, 0)
    log = EventLog(
        raw_ts[order], np.arange(len(order), dtype=np.int64),
        author[order], np.where(forward, author[orig], -1), np.where(forward, event_id[orig], 0),
        np.where(forward, event_id[orig], -1), list(graph.nodes),
        {token: np.sort(event_id[np.concatenate(rows)]) for token, rows in token_rows.items()})

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
