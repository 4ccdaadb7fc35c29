"""k-exposure tracking and ordinal-time exposure-curve estimation.

A user is k-exposed to a token if she has not used it yet but follows k users
who have. Curves are estimated in ordinal time: I(k) counts users adopting
after their k-th exposure and strictly before their (k+1)-th; P(k) = I(k)/E(k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .events import EventLog, SocialGraph


class TokenNotFoundError(KeyError):
    def __init__(self, token: str):
        super().__init__(token)
        self.token = token

    def __str__(self) -> str:
        return f"token {self.token!r} does not occur in the log"


@dataclass(frozen=True)
class ContagionTrace:
    token: str
    window: tuple[int, int]
    adopted_at: dict[str, int]          # user -> first in-window use
    exposures: dict[str, tuple[int, ...]]  # user -> sorted followee first-adoption times
    n_pre_window_adopters: int


def build_trace(
    token: str,
    log: EventLog,
    graph: SocialGraph,
    window: tuple[int, int],
) -> ContagionTrace:
    """Per-user adoption and exposure timeline for one contagion token.

    Users who used the token before the window start are excluded entirely:
    they are neither tracked nor do they expose their followers (exposure
    requires an in-window first adoption in the follower's feed).
    """
    start, end = window
    rows = log.token_rows(token)
    if not rows.size:
        raise TokenNotFoundError(token)
    # Each author's first use is the first of its rows among the token's.
    first = rows[np.sort(np.unique(log.author[rows], return_index=True)[1])]
    first_use = dict(zip([log.names[c] for c in log.author[first].tolist()],
                         log.ts[first].tolist()))

    pre = {u for u, t in first_use.items() if t < start}
    adopted_at = {u: t for u, t in first_use.items() if start <= t <= end}

    times: dict[str, list[int]] = {}
    for v, t in adopted_at.items():
        if v not in graph:
            continue
        for u in map(graph.nodes.__getitem__, graph.follower_slice(graph.index(v)).tolist()):
            if u not in pre:
                times.setdefault(u, []).append(t)
    exposures = {u: tuple(sorted(ts)) for u, ts in times.items()}
    return ContagionTrace(
        token=token,
        window=window,
        adopted_at=adopted_at,
        exposures=exposures,
        n_pre_window_adopters=len(pre),
    )


@dataclass(frozen=True)
class ExposureCurve:
    e: np.ndarray  # users ever k-exposed before adopting, k = 0..k_max
    i: np.ndarray  # users adopting while k-exposed
    p: np.ndarray  # i / e where defined, else nan

    @property
    def k_max(self) -> int:
        return len(self.e) - 1


def _user_exposure_path(
    transitions: Sequence[int], adoption: Optional[int]
) -> tuple[list[int], Optional[int]]:
    """k values a user visits pre-adoption, and the k at adoption (if any).

    Simultaneous exposures make k jump by the group size: skipped values are
    never visited. An adoption at the exact time of an exposure counts at the
    new k (exposures are processed first).
    """
    visited = [0]
    k = 0
    idx = 0
    n = len(transitions)
    while idx < n:
        t = transitions[idx]
        if adoption is not None and t > adoption:
            break
        j = idx
        while j < n and transitions[j] == t:
            j += 1
        k += j - idx
        visited.append(k)
        idx = j
    return visited, (k if adoption is not None else None)


def exposure_curve(
    trace: ContagionTrace,
    users: Sequence[str],
    min_e: int = 50,
    k_max: Optional[int] = None,
) -> ExposureCurve:
    """Ordinal-time exposure curve for a user group.

    k_max defaults to the largest k with E(k) >= min_e to suppress noisy
    tails; pass k_max explicitly to override.
    """
    if len(users) == 0:
        raise ValueError("empty user group")
    e_counts: dict[int, int] = {}
    i_counts: dict[int, int] = {}
    for u in users:
        transitions = trace.exposures.get(u, ())
        adoption = trace.adopted_at.get(u)
        visited, k_adopt = _user_exposure_path(transitions, adoption)
        for k in visited:
            e_counts[k] = e_counts.get(k, 0) + 1
        if k_adopt is not None:
            i_counts[k_adopt] = i_counts.get(k_adopt, 0) + 1
    if k_max is None:
        eligible = [k for k, c in e_counts.items() if c >= min_e]
        k_max = max(eligible) if eligible else max(e_counts)
    e = np.array([e_counts.get(k, 0) for k in range(k_max + 1)], dtype=float)
    i = np.array([i_counts.get(k, 0) for k in range(k_max + 1)], dtype=float)
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
    for user, rate in lam.items():
        for lo, hi in bounds:
            if lo < rate <= hi:
                groups[(lo, hi)].append(user)
                break
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
