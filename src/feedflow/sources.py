"""Retweet-source-set statistics and the two-regime source growth fit."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .events import EventLog, SocialGraph, UnknownUserError
from .flows import fit_interior_breakpoint


@dataclass(frozen=True)
class SourceStats:
    user: str
    followees: int      # F
    source_set: int     # S_r: distinct followees the user forwarded from
    p_src: float        # S_r / F
    out_of_feed: int    # forwards whose original author is not followed


def source_stats(
    user: str,
    log: EventLog,
    graph: SocialGraph,
    window: tuple[int, int],
) -> SourceStats:
    """Distinct forwarded-from followees over the window.

    Forwards of non-followees do not enter the source set (the feed queue only
    carries followee traffic); their count is reported separately since it
    indicates information found outside the feed.
    """
    if user not in graph:
        raise UnknownUserError(user)
    followees = graph.followees(user)
    rows = log.rows(user, window)
    cited = [log.names[c] for c in log.orig_author[rows[log.forward[rows]]].tolist()]
    followed = [a for a in cited if a in followees]
    sources = set(followed)
    out_of_feed = len(cited) - len(followed)
    f = len(followees)
    return SourceStats(
        user=user,
        followees=f,
        source_set=len(sources),
        p_src=len(sources) / f if f else 0.0,
        out_of_feed=out_of_feed,
    )


@dataclass(frozen=True)
class SourceRegimeFit:
    exponent_low: float   # growth exponent below the breakpoint
    exponent_high: float  # growth exponent above the breakpoint
    f_c: float            # breakpoint followee count
    residual: float
    identifiable: bool    # False when both exponents coincide (single power law)


def _two_slopes(logf: np.ndarray, logc: float) -> np.ndarray:
    d = logf - logc
    return np.column_stack(
        [np.ones_like(logf), np.where(d <= 0, d, 0.0), np.where(d > 0, d, 0.0)]
    )


def fit_source_regimes(
    points: Sequence[tuple[float, float]],
    tol: float = 0.05,
) -> SourceRegimeFit:
    """Piecewise log-log linear fit of mean source-set size against followees.

    The two segments are constrained to meet at the breakpoint; the breakpoint
    is chosen from the interior bin positions by least squares. When the two
    exponents agree within tol the breakpoint is flagged unidentifiable.
    """
    pts = [(f, s) for f, s in points if f > 0 and s > 0]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 positive bins, got {len(pts)}")
    f = np.array(sorted(p[0] for p in pts))
    s = np.array([p[1] for p in sorted(pts)])
    logf, logs = np.log(f), np.log(s)

    logc, (_, e_low, e_high), resid = fit_interior_breakpoint(logf, logs, _two_slopes)
    return SourceRegimeFit(
        exponent_low=float(e_low),
        exponent_high=float(e_high),
        f_c=float(np.exp(logc)),
        residual=resid,
        identifiable=abs(e_low - e_high) > tol,
    )
