"""Cascade simulation under background traffic.

Two propagation models run on one engine: a continuous-time variant
(adoption times and durations) and a discrete independent-cascade variant
(sizes), which is the same first-passage process with zero delays.
Background traffic enters through each node's in-flow rate, which scales
down its adoption probability past the overload threshold and selects its
processing-delay distribution.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .events import SocialGraph
from .flows import EmpiricalDistribution


class DelayBinError(ValueError):
    pass


@dataclass(frozen=True)
class BetaCurve:
    """Plateau-then-power-law adoption probability against in-flow rate."""

    lambda_c: float
    beta0: float
    gamma: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lambda_c, self.beta0, self.gamma))):
            raise ValueError("beta curve parameters must be finite")
        if self.lambda_c <= 0:
            raise ValueError("lambda_c must be positive")
        if not (0.0 < self.beta0 <= 1.0):
            raise ValueError("beta0 must lie in (0, 1]")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")


def beta_of_inflow(lam_in: float, curve: BetaCurve) -> float:
    """Adoption probability for a node receiving lam_in tweets/hour."""
    if lam_in < 0:
        raise ValueError("in-flow rate must be non-negative")
    if lam_in <= curve.lambda_c:
        return curve.beta0
    return min(1.0, curve.beta0 * (lam_in / curve.lambda_c) ** (-curve.gamma))


@dataclass(frozen=True)
class DelayBin:
    lo: float
    hi: float  # math.inf for the last bin
    mu1: float
    sigma1: float
    mu2: float
    sigma2: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu1, self.sigma1, self.mu2, self.sigma2))):
            raise DelayBinError("delay bin parameters must be finite")
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise DelayBinError("delay bin sigmas must be non-negative")


@dataclass(frozen=True)
class DelayModel:
    """In-flow-binned lognormal-sum processing delays; bins must cover (0, inf)."""

    bins: tuple[DelayBin, ...]

    def __post_init__(self):
        bins = sorted(self.bins, key=lambda b: b.lo)
        if not bins:
            raise DelayBinError("delay model needs at least one bin")
        if bins[0].lo > 0:
            raise DelayBinError("delay bins must start at 0")
        for a, b in zip(bins, bins[1:]):
            if b.lo != a.hi:
                raise DelayBinError(f"gap or overlap between bins at {a.hi} and {b.lo}")
        if not math.isinf(bins[-1].hi):
            raise DelayBinError("last delay bin must extend to infinity")
        object.__setattr__(self, "bins", tuple(bins))

    def bin_for(self, lam_in: float) -> DelayBin:
        for b in self.bins:
            if b.lo <= lam_in < b.hi:
                return b
        raise DelayBinError(f"no delay bin covers in-flow rate {lam_in}")


@dataclass(frozen=True)
class SimConfig:
    mu: float                 # mean node out-flow rate, tweets/hour
    sigma: float              # out-flow std
    beta_curve: BetaCurve
    n_cascades: int
    seed: int
    delay_model: Optional[DelayModel] = None  # required by the continuous model
    max_time: float = math.inf

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("mu and sigma must be finite")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not self.max_time >= 0:
            raise ValueError("max_time must be >= 0 (inf for no limit)")
        if self.n_cascades < 1:
            raise ValueError("n_cascades must be >= 1")


@dataclass(frozen=True)
class CascadeRecord:
    cascade_id: int
    seed_node: str
    adopters: frozenset[str]
    times: Optional[dict[str, float]]  # adoption times (continuous model only)
    size: int
    duration: float


def truncated_normal_rates(
    rng: np.random.Generator, mu: float, sigma: float, size: int
) -> np.ndarray:
    """Normal(mu, sigma) draws with negatives resampled (rates must be >= 0)."""
    rates = rng.normal(mu, sigma, size)
    while True:
        bad = rates < 0
        if not bad.any():
            return rates
        rates[bad] = rng.normal(mu, sigma, int(bad.sum()))


def node_rates(
    graph: SocialGraph, rng: np.random.Generator, mu: float, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node out-flow drawn from Normal(mu, sigma) truncated at 0, and the
    induced in-flow, both in graph.nodes order.

    A node's in-flow is the sum of the out-flows of the nodes it follows.
    """
    if not graph.nodes:
        raise ValueError("empty graph")
    lam_out = truncated_normal_rates(rng, mu, sigma, len(graph.nodes))
    return lam_out, graph.followee_sums(lam_out)


ActivationFn = Callable[[str, str], bool]


def _simulate(
    graph: SocialGraph,
    config: SimConfig,
    activation: Optional[ActivationFn],
    delay_model: Optional[DelayModel],
) -> list[CascadeRecord]:
    """First-passage cascades over the live follower edges.

    Edge i -> j (j follows i) is live with probability beta[j], drawn when i
    adopts; without a delay model every live edge takes zero time, so a
    cascade is the set reachable over live edges (independent cascade).
    Each cascade owns an RNG stream keyed by [seed, cascade_id].
    """
    _, lam_in = node_rates(graph, np.random.default_rng(config.seed), config.mu, config.sigma)
    beta = np.array([beta_of_inflow(l, config.beta_curve) for l in lam_in])
    ptr, indices, nodes = graph.follower_indptr.tolist(), graph.follower_indices, graph.nodes
    live = None
    if activation is not None:
        sources = np.repeat(np.arange(len(nodes)), np.diff(graph.follower_indptr)).tolist()
        live = np.array(
            [activation(nodes[i], nodes[j]) for i, j in zip(sources, indices.tolist())],
            dtype=bool,
        )
    if delay_model is not None:
        bins = [delay_model.bin_for(float(l)) for l in lam_in]
        loc = np.array([(b.mu1, b.mu2) for b in bins])
        scale = np.array([(b.sigma1, b.sigma2) for b in bins])

    when = np.full(len(nodes), np.inf)  # arrival times; reset after each cascade
    records = []
    for cascade_id in range(config.n_cascades):
        rng = np.random.default_rng([config.seed, cascade_id])
        seed_node = int(rng.integers(len(nodes)))
        when[seed_node] = 0.0
        heap = [(0.0, seed_node)]
        adopted = []
        while heap:
            t, i = heapq.heappop(heap)
            if t > when[i]:
                continue  # superseded by an earlier arrival
            adopted.append(i)
            lo, hi = ptr[i], ptr[i + 1]
            js = indices[lo:hi]
            waiting = when[js] > t
            js = js[waiting]
            if not js.size:
                continue
            if live is None:
                fired = rng.random(js.size) < beta[js]
            else:
                fired = live[lo:hi][waiting]
            js = js[fired]
            if not js.size:
                continue
            if delay_model is None:
                # Zero delays: arrive == t <= max_time, and when[js] > t above.
                arrive = t + np.zeros(js.size)
            else:
                # Sum of the two lognormal components of each follower's bin.
                z = rng.standard_normal((js.size, 2))
                arrive = t + np.exp(loc[js] + scale[js] * z).sum(axis=1)
                keep = (arrive <= config.max_time) & (arrive < when[js])
                js, arrive = js[keep], arrive[keep]
            when[js] = arrive
            for item in zip(arrive.tolist(), js.tolist()):
                heapq.heappush(heap, item)
        times = None
        if delay_model is not None:
            times = dict(zip([nodes[i] for i in adopted], when[adopted].tolist()))
        when[adopted] = np.inf
        records.append(
            CascadeRecord(
                cascade_id=cascade_id,
                seed_node=nodes[seed_node],
                adopters=frozenset(nodes[i] for i in adopted),
                times=times,
                size=len(adopted),
                duration=0.0 if times is None else max(times.values()),
            )
        )
    return records


def simulate_ic_bg(
    graph: SocialGraph,
    config: SimConfig,
    activation: Optional[ActivationFn] = None,
) -> list[CascadeRecord]:
    """Independent-cascade simulation with in-flow-dependent adoption probability.

    From a uniform random seed node, each adopting node gives each follower
    that has not adopted one chance to adopt, with the follower's beta. Pass
    an activation callable to pin the per-edge outcomes (used by the
    model-agreement oracle); it is evaluated once per follower edge.
    """
    return _simulate(graph, config, activation, None)


def simulate_ct_bg(
    graph: SocialGraph,
    config: SimConfig,
    activation: Optional[ActivationFn] = None,
) -> list[CascadeRecord]:
    """Continuous-time cascade simulation with in-flow-binned processing delays.

    A node's adoption time is the minimum over its adopting parents' activation
    times plus a delay drawn from the bin of its in-flow rate; the run is
    truncated at max_time.
    """
    if config.delay_model is None:
        raise DelayBinError("continuous model requires a delay_model")
    return _simulate(graph, config, activation, config.delay_model)


@dataclass(frozen=True)
class DistributionReport:
    size_ccdf: tuple[tuple[float, float], ...]      # (size, P(S >= size))
    duration_ccdf: tuple[tuple[float, float], ...]  # over cascades of size >= 2
    n_records: int
    n_multi: int                                    # cascades with >= 2 nodes
    duration_empty: bool

    def frac_size_at_least(self, size: float) -> float:
        candidates = [c for v, c in self.size_ccdf if v >= size]
        return max(candidates) if candidates else 0.0


def distribution_report(records: Sequence[CascadeRecord]) -> DistributionReport:
    """CCDF tables of cascade size and duration.

    Size-1 cascades are included in the size CCDF denominator; the duration
    CCDF covers only cascades with 2 or more nodes (a single-node cascade has
    no propagation to time).
    """
    if not records:
        raise ValueError("no cascade records")
    sizes = EmpiricalDistribution([r.size for r in records])
    size_vals, size_cc = sizes.ccdf_points()
    multi = [r.duration for r in records if r.size >= 2]
    if multi:
        durs = EmpiricalDistribution(multi)
        dur_vals, dur_cc = durs.ccdf_points()
        dur_table = tuple(zip(dur_vals.tolist(), dur_cc.tolist()))
    else:
        dur_table = ()
    return DistributionReport(
        size_ccdf=tuple(zip(size_vals.tolist(), size_cc.tolist())),
        duration_ccdf=dur_table,
        n_records=len(records),
        n_multi=len(multi),
        duration_empty=not multi,
    )
