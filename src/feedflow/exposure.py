"""k-exposure tracking and ordinal-time exposure-curve estimation.

A user is k-exposed to a token if she has not used it yet but follows k users
who have. Curves are estimated in ordinal time: I(k) counts users adopting
after their k-th exposure and strictly before their (k+1)-th; P(k) = I(k)/E(k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .events import EventLog, SocialGraph, csr_ranges, lookup


class TokenNotFoundError(KeyError):
    def __init__(self, token: str):
        super().__init__(token)
        self.token = token

    def __str__(self) -> str:
        return f"token {self.token!r} does not occur in the log"


NEVER = np.iinfo(np.int64).max  # the first use of a user who makes none in the window


@dataclass(frozen=True)
class ContagionTrace:
    """One token's adoptions and exposures, as columns over user positions.

    Node i of the graph is position i; the in-window adopters that are not
    nodes follow, at the positions outsiders gives them.
    """
    token: str
    window: tuple[int, int]
    graph: SocialGraph
    outsiders: dict[str, int]   # in-window adopter outside the graph -> position
    adopted_at: np.ndarray      # position -> first in-window use, NEVER if none
    exposed: np.ndarray         # each exposure's position, sorted by position then time
    exposed_at: np.ndarray      # each exposure's time: a followee's first in-window use
    n_pre_window_adopters: int


def build_trace(token: str, log: EventLog, graph: SocialGraph,
                window: tuple[int, int]) -> ContagionTrace:
    """Per-user adoption and exposure timeline for one contagion token.

    Users who used the token before the window start are excluded entirely:
    they are neither tracked nor do they expose their followers (exposure
    requires an in-window first adoption in the follower's feed).
    """
    start, end = window
    rows = log.token_rows(token)
    if not rows.size:
        raise TokenNotFoundError(token)
    # Each author's first use is the first of its rows among the token's, in time order.
    first = rows[np.sort(np.unique(log.author[rows], return_index=True)[1])]
    names = np.asarray(log.names, object)[log.author[first]]
    ts, node = log.ts[first], graph.nodes_of(names)
    pre, adopted = ts < start, (start <= ts) & (ts <= end)
    inside, outside = adopted & (node >= 0), adopted & (node < 0)
    n, v, tv = len(graph.nodes), node[inside], ts[inside]
    outsiders = dict(zip(names[outside].tolist(), range(n, n + int(outside.sum()))))
    adopted_at = np.concatenate((np.full(n, NEVER), ts[outside]))
    adopted_at[v] = tv
    # Every follower of each in-window adopter, less the pre-window adopters, keyed
    # as follower * len(v) + the adopter's place in v, which is in time order.
    ptr = graph.follower_indptr
    count = ptr[v + 1] - ptr[v]
    exposed = graph.follower_indices[csr_ranges(ptr[v], count)]
    key = exposed * v.size + np.repeat(np.arange(v.size), count)
    excluded = np.zeros(n, bool)
    excluded[node[pre & (node >= 0)]] = True
    exposed, by = np.divmod(np.sort(key[~excluded[exposed]]), max(v.size, 1))
    return ContagionTrace(token, window, graph, outsiders, adopted_at, exposed, tv[by],
                          int(pre.sum()))


@dataclass(frozen=True)
class ExposureCurve:
    e: np.ndarray  # users ever k-exposed before adopting, k = 0..k_max
    i: np.ndarray  # users adopting while k-exposed
    p: np.ndarray  # i / e where defined, else nan

    @property
    def k_max(self) -> int:
        return len(self.e) - 1


def exposure_curve(trace: ContagionTrace, users: Sequence[str], min_e: int = 50,
                   k_max: Optional[int] = None) -> ExposureCurve:
    """Ordinal-time exposure curve for a user group.

    A user's k steps up at each distinct time of her exposures, by the number
    of exposures at that time, so simultaneous exposures skip k values. An
    adoption at the time of an exposure counts at the new k. k_max defaults
    to the largest k with E(k) >= min_e to suppress noisy tails; pass k_max
    explicitly to override.
    """
    if len(users) == 0:
        raise ValueError("empty user group")
    names = np.asarray(users, object)
    at = trace.graph.nodes_of(names)
    at[at < 0] = lookup(trace.outsiders, names[at < 0])
    at = at[at >= 0]
    # The exposures up to each user's adoption; k is an exposure's rank within its user.
    u, t = trace.exposed, trace.exposed_at
    kept = t <= trace.adopted_at[u]
    u, t = u[kept], t[kept]
    n_kept = np.bincount(u, minlength=len(trace.adopted_at))
    k = np.arange(1, u.size + 1) - (np.cumsum(n_kept) - n_kept)[u]
    # A user visits the k of the last of her exposures at each distinct time.
    last = np.diff(u, append=-1) != 0
    last[:-1] |= t[1:] != t[:-1]
    weight = np.bincount(at, minlength=len(n_kept))  # how often users names each position
    e_counts = np.bincount(k[last], weights=weight[u[last]], minlength=1)
    e_counts[0] += len(users)
    i_counts = np.bincount(n_kept[at[trace.adopted_at[at] != NEVER]])
    if k_max is None:
        visited = e_counts > 0
        eligible = np.flatnonzero(visited & (e_counts >= min_e))
        k_max = int((eligible if eligible.size else np.flatnonzero(visited))[-1])
    # k = 0..k_max: each count cut there or padded with zeros.
    e, i = (np.append(c, np.zeros(k_max + 1))[:k_max + 1] for c in (e_counts, i_counts))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(e > 0, i / e, np.nan)
    return ExposureCurve(e=e, i=i, p=p)


def group_users_by_inflow(
    lam: Mapping[str, float],
    ranges: Sequence[tuple[float, float]],
) -> dict[tuple[float, float], list[str]]:
    """Partition users, given as user -> in-flow rate, into (lo, hi] in-flow
    ranges, each in the mapping's order; users in no range are dropped."""
    bounds = sorted(ranges)
    for (lo, hi) in bounds:
        if not lo < hi:  # also a NaN edge
            raise ValueError(f"empty range ({lo}, {hi})")
    for (_, hi0), (lo1, _) in zip(bounds, bounds[1:]):
        if lo1 < hi0:
            raise ValueError(f"overlapping ranges at {hi0} and {lo1}")
    groups: dict[tuple[float, float], list[str]] = {tuple(r): [] for r in ranges}
    users = np.fromiter(lam, object, len(lam))
    rate = np.fromiter(lam.values(), float, len(lam))
    # The last range whose lower edge is below the rate is the only one that can hold it.
    at = np.searchsorted(np.array([lo for lo, _ in bounds], float), rate) - 1
    for j, (lo, hi) in enumerate(bounds):
        groups[(lo, hi)] = users[(at == j) & (rate <= hi)].tolist()
    return groups


def aggregate_curves(curves: Sequence[ExposureCurve], mode: str = "mean") -> ExposureCurve:
    """Combine per-token curves: unweighted mean of P(k), or pooled counts."""
    if not curves:
        raise ValueError("no curves to aggregate")
    if mode not in ("mean", "pooled"):
        raise ValueError(f"mode must be 'mean' or 'pooled', got {mode!r}")
    k_max = max(c.k_max for c in curves)
    e = np.zeros(k_max + 1)
    i = np.zeros(k_max + 1)
    for c in curves:
        e[: c.k_max + 1] += c.e
        i[: c.k_max + 1] += c.i
    if mode == "pooled":
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(e > 0, i / e, np.nan)
    else:
        stack = np.full((len(curves), k_max + 1), np.nan)
        for row, c in enumerate(curves):
            stack[row, : c.k_max + 1] = c.p
        defined = ~np.isnan(stack)
        counts = defined.sum(axis=0)
        total = np.where(defined, stack, 0.0).sum(axis=0)
        with np.errstate(invalid="ignore"):
            p = np.where(counts > 0, total / np.maximum(counts, 1), np.nan)
    return ExposureCurve(e=e, i=i, p=p)
