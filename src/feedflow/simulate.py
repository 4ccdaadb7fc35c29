"""Cascade simulation under background traffic.

Two propagation models run on one engine: a continuous-time variant
(adoption times and durations) and a discrete independent-cascade variant
(sizes), which is the same first-passage process with zero delays.
Background traffic enters through each node's in-flow rate, which scales
down its adoption probability past the overload threshold and selects its
processing-delay distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .events import SocialGraph, csr_ranges


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
        if not bins[0].lo <= 0:  # also a NaN edge
            raise DelayBinError("delay bins must start at 0")
        for a, b in zip(bins, bins[1:]):
            if b.lo != a.hi:
                raise DelayBinError(f"gap or overlap between bins at {a.hi} and {b.lo}")
        if not math.isinf(bins[-1].hi):
            raise DelayBinError("last delay bin must extend to infinity")
        object.__setattr__(self, "bins", tuple(bins))

    def bin_index(self, lam_in: np.ndarray) -> np.ndarray:
        """The index in bins of the bin whose [lo, hi) holds each in-flow rate."""
        at = np.searchsorted([b.lo for b in self.bins], lam_in, "right") - 1
        # ~(rate < hi), not rate >= hi: a NaN rate is uncovered too.
        uncovered = (at < 0) | ~(lam_in < np.array([b.hi for b in self.bins])[at])
        if uncovered.any():
            raise DelayBinError(f"no delay bin covers in-flow rate {lam_in[uncovered][0]}")
        return at


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
        check_rates(self.mu, self.sigma)
        if not self.max_time >= 0:
            raise ValueError("max_time must be >= 0 (inf for no limit)")
        if self.n_cascades < 1:
            raise ValueError("n_cascades must be >= 1")


@dataclass(frozen=True)
class Cascades:
    """Every cascade of a run as columns, in cascade-id order.

    Cascade c's adopters are the node indices node[indptr[c]:indptr[c + 1]],
    ascending, and time holds their adoption times (continuous model only).
    """

    seed: np.ndarray            # seed node index of each cascade
    indptr: np.ndarray
    node: np.ndarray
    time: Optional[np.ndarray]

    @property
    def size(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def duration(self) -> np.ndarray:
        """Each cascade's last adoption time; 0 without times."""
        if self.time is None:
            return np.zeros(len(self.seed))
        # Every cascade holds its seed, so no slice is empty.
        return np.maximum.reduceat(self.time, self.indptr[:-1])


def check_rates(mu: float, sigma: float) -> None:
    """Reject a posting-rate model Normal(mu, sigma) that rates cannot be drawn from."""
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise ValueError("mu and sigma must be finite")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")


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
    with np.errstate(over="ignore"):
        lam_in = graph.followee_sums(lam_out)
    if not (np.isfinite(lam_out).all() and np.isfinite(lam_in).all()):
        raise ValueError(f"mu = {mu:g} and sigma = {sigma:g} give a rate that overflows")
    return lam_out, lam_in


# Every random draw hashes (seed, cascade_id, slot) with SplitMix64's finaliser
# over uint64 arrays, which wrap on overflow. Edge e of the follower CSR owns slots
# 3e (its liveness coin) and 3e + 1, 3e + 2 (a Box-Muller pair for its delay, or
# synth's contagion lag at 3e + 1); the seed node owns the last slot, 2**64 - 1, which
# no edge reaches.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_CHUNK_CELLS = 1 << 20  # (cascade, node) cells of the cascades run together


def _hash(keys: np.ndarray, slots) -> np.ndarray:
    x = keys + np.asarray(slots, np.uint64) * _GAMMA  # the broadcast result; then in place
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= x >> np.uint64(shift)
        x *= np.uint64(factor)
    x ^= x >> np.uint64(31)
    return x


def cascade_keys(seed: int, cascade_ids) -> np.ndarray:
    """The uint64 stream key of each cascade of a run."""
    return _hash(np.random.SeedSequence(seed).generate_state(1, np.uint64), cascade_ids)


def slot_uniform(keys: np.ndarray, slots) -> np.ndarray:
    """The draw at each (cascade key, slot), uniform strictly inside (0, 1). It
    keeps 52 bits, so that adding the half step is exact and stays below 1."""
    u = (_hash(keys, slots) >> np.uint64(12)) + 0.5
    u *= 2.0**-52
    return u


def seed_nodes(keys: np.ndarray, n: int) -> np.ndarray:
    """The seed node of each cascade key, uniform over n node indices."""
    return (_hash(keys, np.full(len(keys), 2**64 - 1, np.uint64)) % np.uint64(n)).astype(np.int64)


def first_passage(graph: SocialGraph, keys: np.ndarray, start: np.ndarray,
                  start_time: np.ndarray, prob: np.ndarray, delay: Optional[Callable] = None,
                  max_time=math.inf) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """First-passage spread over the live follower edges of a batch of cascades.

    Key c * n + i is node i in cascade c, whose stream key is keys[c]; start
    holds the ascending, distinct keys that start at their start_time. Edge e,
    i -> j (j follows i), is live in cascade c when its coin is below prob[j].
    Pass 1 finds the keys reachable over live edges by a level-synchronous BFS
    on one byte per key (independent cascade). With delay(keys[c], e, j), it
    keeps each live edge out of a reached key and its delay, as a deeper level
    can arrive earlier; pass 2 relaxes only those, pruned at max_time, to the
    least arrival over live paths in start_time's dtype, in any order (t + delay
    is monotone in t). Returns the reached keys, ascending, and times or None.
    """
    ptr, indices = graph.follower_indptr, graph.follower_indices
    n, degree, timed = len(graph.nodes), np.diff(ptr), delay is not None
    unreached = np.ones(keys.size * n, bool)
    unreached[start] = False
    frontier, live = start, []
    while frontier.size:
        i = frontier % n
        counts = degree[i]
        # The CSR edges e of every frontier key, and their (cascade, follower) keys.
        e = csr_ranges(ptr[i], counts)
        target = indices[e]
        target += np.repeat(frontier - i, counts)
        if not timed:  # an edge into a reached key adds nothing (take beats a mask here)
            sel = np.flatnonzero(unreached.take(target))
            e, target = e.take(sel), target.take(sel)
        c, j = np.divmod(target, n)
        sel = np.flatnonzero(slot_uniform(keys.take(c), 3 * e) < prob.take(j))
        target = target.take(sel)
        if timed:  # each live edge as c * n * edges + e, and its delay
            c, e, j = c.take(sel), e.take(sel), j.take(sel)
            live.append((c * (n * indices.size) + e, delay(keys.take(c), e, j)))
            target = target[unreached.take(target)]
        unreached[target] = False
        # np.sort, not np.unique: the first np.unique call imports numpy.ma.
        target = np.sort(target)
        frontier = target[np.diff(target, prepend=-1) != 0]
    reached = np.flatnonzero(~unreached)
    if not timed:
        return reached, None
    # The CSR orders edges by source, so sorted ids group the live edges by source key.
    edge, d = map(np.concatenate, zip(*live))
    del live  # each del keeps a copy of the live edges out of the peak
    order = np.argsort(edge)
    (base, e), d = np.divmod(edge.take(order), indices.size), d.take(order)
    del edge, order
    target = np.searchsorted(reached, base + indices.take(e))
    base += np.repeat(np.arange(n), degree).take(e)  # each live edge's source key
    out = np.append(np.searchsorted(base, reached), e.size)  # reached[p]'s first edge
    never = np.inf if start_time.dtype.kind == "f" else np.iinfo(start_time.dtype).max
    time = np.full(reached.size, never, start_time.dtype)
    frontier = np.searchsorted(reached, start)
    time[frontier] = start_time
    while frontier.size:
        counts = out[frontier + 1] - out[frontier]
        k = csr_ranges(out[frontier], counts)
        arrive = np.repeat(time[frontier], counts) + d.take(k)
        to = target.take(k)
        sel = np.flatnonzero((arrive <= max_time) & (arrive < time.take(to)))
        np.minimum.at(time, to.take(sel), arrive.take(sel))
        to = np.sort(to.take(sel))
        frontier = to[np.diff(to, prepend=-1) != 0]
    keep = np.flatnonzero(time < never)
    return reached.take(keep), time.take(keep)


def _simulate(graph: SocialGraph, config: SimConfig,
              delay_model: Optional[DelayModel]) -> Cascades:
    """Each cascade spreads from its seed at time 0 over the coins below beta."""
    _, lam_in = node_rates(graph, np.random.default_rng(config.seed), config.mu, config.sigma)
    beta = np.array([beta_of_inflow(l, config.beta_curve) for l in lam_in])
    n, delay = len(graph.nodes), None
    if delay_model is not None:
        at = delay_model.bin_index(lam_in)
        loc = np.array([(b.mu1, b.mu2) for b in delay_model.bins])[at]
        scale = np.array([(b.sigma1, b.sigma2) for b in delay_model.bins])[at]

        def delay(k, e, j):
            # A lognormal from each normal of the edge's Box-Muller pair.
            r = np.sqrt(-2.0 * np.log(slot_uniform(k, 3 * e + 1)))
            theta = 2.0 * np.pi * slot_uniform(k, 3 * e + 2)
            return (np.exp(loc[j, 0] + scale[j, 0] * r * np.cos(theta))
                    + np.exp(loc[j, 1] + scale[j, 1] * r * np.sin(theta)))
    chunk = max(1, _CHUNK_CELLS // n)
    seed_cols, size_cols, node_cols, time_cols = [], [], [], []
    for first in range(0, config.n_cascades, chunk):
        ids = np.arange(first, min(first + chunk, config.n_cascades))
        keys = cascade_keys(config.seed, ids)
        seeds = seed_nodes(keys, n)
        reached, time = first_passage(graph, keys, np.arange(ids.size) * n + seeds,
                                      np.zeros(ids.size), beta, delay, config.max_time)
        seed_cols.append(seeds)
        size_cols.append(np.diff(np.searchsorted(reached, np.arange(ids.size + 1) * n)))
        # int32 halves the adopter column; the log's user codes are int32 too.
        node_cols.append((reached % n).astype(np.int32))
        time_cols.append(time)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(size_cols))))
    return Cascades(np.concatenate(seed_cols), indptr, np.concatenate(node_cols),
                    None if delay is None else np.concatenate(time_cols))


def simulate_ic_bg(graph: SocialGraph, config: SimConfig) -> Cascades:
    """Independent-cascade simulation with in-flow-dependent adoption probability.

    From a uniform random seed node, each adopting node gives each follower
    that has not adopted one chance to adopt, with the follower's beta.
    """
    return _simulate(graph, config, None)


def simulate_ct_bg(graph: SocialGraph, config: SimConfig) -> Cascades:
    """Continuous-time cascade simulation with in-flow-binned processing delays.

    A node's adoption time is the minimum over its adopting parents' adoption
    times plus a delay drawn from the bin of its in-flow rate; the run is
    truncated at max_time. It draws the same edge coins as simulate_ic_bg.
    """
    if config.delay_model is None:
        raise DelayBinError("continuous model requires a delay_model")
    return _simulate(graph, config, config.delay_model)


def distribution_report(size: np.ndarray, duration: np.ndarray) -> tuple[tuple, tuple]:
    """CCDF tables of cascade size and duration: (value, P(X >= value)) rows.

    Size-1 cascades are included in the size CCDF denominator; the duration
    CCDF covers only cascades with 2 or more nodes (a single-node cascade has
    no propagation to time), and is empty when there are none.
    """
    from .flows import EmpiricalDistribution  # here, so synth does not load flows
    size_vals, size_cc = EmpiricalDistribution(size).ccdf_points()
    multi = duration[size >= 2]
    dur_table = ()
    if len(multi):
        dur_vals, dur_cc = EmpiricalDistribution(multi).ccdf_points()
        dur_table = tuple(zip(dur_vals.tolist(), dur_cc.tolist()))
    return tuple(zip(size_vals.tolist(), size_cc.tolist())), dur_table
